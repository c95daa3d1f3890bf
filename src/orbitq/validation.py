"""Validation experiments comparing the solvers against simulation.

Three experiment shapes: single-interval orbit-error metrics across a
load grid, the same metrics on a synthetic two-peak day, and the SL/AP
comparison between the Erlang-A pipeline and simulation. Staffing per
target load follows s = round(lam / ((1 - q) mu rho_hat)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .model import (
    MAX_GRID_NODES,
    ModelParams,
    ParameterError,
    Schedule,
    Trajectory,
    single_interval,
)
from .fluid import integrate_schedule, total_arrival_rate
from .erlang import psa_performance
from .simulation import run_replications

DEFAULT_RHO_GRID = (1.01, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5)

# Synthetic intraday arrival shape: 16 half-hour intervals, a morning
# peak in the 5th and an afternoon peak in the 12th, mean exactly 1, so
# base.lam is also the day's average rate.
TWO_PEAK_SHAPE = (0.55, 0.75, 1.00, 1.25, 1.40, 1.30, 1.10, 0.95,
                  0.90, 1.05, 1.20, 1.30, 1.15, 0.90, 0.70, 0.50)


@dataclass(frozen=True)
class ErrorMetrics:
    """Relative integrated absolute orbit errors, fluid vs simulated mean."""

    e_rd: float
    e_rc: float


@dataclass(frozen=True)
class ErrorRow:
    """One load point of an orbit-error comparison (s is None when
    staffing varies across intervals)."""

    rho_hat: float
    s: int | None
    e_rd: float
    e_rc: float


@dataclass(frozen=True)
class SlApRow:
    """One load point of an SL/AP comparison; fractions in [0, 1]."""

    rho_hat: float
    sl_sim: float
    sl_a: float
    ap_sim: float
    ap_a: float


def error_metrics(sim_mean: Trajectory, fluid: Trajectory) -> ErrorMetrics:
    """e_RD = int |mean Z_RD - z_RD| / int mean Z_RD, and likewise e_RC.

    Composite trapezoid on the common grid; both inputs must be sampled
    on identical grids. A zero denominator integral leaves the metric
    undefined and raises.
    """
    if not np.array_equal(sim_mean.grid, fluid.grid):
        raise ParameterError("trajectories are not on a common grid")
    t = sim_mean.grid
    out = []
    for sim_col, fluid_col, name in (
        (sim_mean.z_rd, fluid.z_rd, "e_rd"),
        (sim_mean.z_rc, fluid.z_rc, "e_rc"),
    ):
        denom = np.trapezoid(sim_col, t)
        if denom <= 0:
            raise ParameterError(
                f"{name} undefined: integral of the simulated mean is {denom}"
            )
        out.append(float(np.trapezoid(np.abs(sim_col - fluid_col), t) / denom))
    return ErrorMetrics(e_rd=out[0], e_rc=out[1])


def staffing_for(lam: float, mu: float, q: float, rho_hat: float) -> int:
    """Agents needed to hit a target effective load, rounded to nearest."""
    if not 0 < rho_hat < math.inf:
        raise ParameterError(f"rho_hat target must be finite and > 0, got {rho_hat}")
    return max(1, round(lam / ((1.0 - q) * mu * rho_hat)))


def _with_staffing(base: ModelParams, rho_hat: float) -> ModelParams:
    return base.with_interval(base.lam, staffing_for(base.lam, base.mu, base.q, rho_hat))


def two_peak_schedule(base: ModelParams, rho_hat: float,
                      interval_minutes: float = 30.0) -> Schedule:
    """Synthetic day: 16 intervals scaling base.lam by TWO_PEAK_SHAPE.

    Staffing tracks the target load interval by interval through the
    rounding rule, so every interval holds rho_hat up to rounding.
    """
    n = len(TWO_PEAK_SHAPE)
    lambdas = tuple(base.lam * f for f in TWO_PEAK_SHAPE)
    agents = tuple(staffing_for(l, base.mu, base.q, rho_hat) for l in lambdas)
    return Schedule(
        boundaries=tuple(interval_minutes * i for i in range(n + 1)),
        lambdas=lambdas,
        agents=agents,
        mu=base.mu, theta=base.theta, p=base.p, q=base.q,
        delta_rd=base.delta_rd, delta_rc=base.delta_rc,
    )


def refine_schedule(schedule: Schedule, block: float) -> Schedule:
    """Split intervals into equal pieces no longer than ``block``.

    Dynamics are unchanged (each piece keeps its interval's lam and s);
    only the pointwise-stationary evaluation gets a finer partition. The
    pieces are counted before any is built: each needs a grid node, so
    more than ``MAX_GRID_NODES`` of them are refused.
    """
    if block <= 0:
        raise ParameterError(f"block must be > 0, got {block}")
    # the count is capped before rounding, so a tiny block cannot overflow it
    counts = [max(1, math.ceil(min((t1 - t0) / block, MAX_GRID_NODES) - 1e-9))
              for t0, t1, _, _ in schedule.intervals()]
    if 1 + sum(counts) > MAX_GRID_NODES:
        raise ParameterError(
            f"block {block} splits the schedule into more pieces than the "
            f"limit of {MAX_GRID_NODES} grid nodes allows")
    bounds = [0.0]
    lams: list[float] = []
    ags: list[int] = []
    for (t0, t1, lam, s), pieces in zip(schedule.intervals(), counts):
        length = (t1 - t0) / pieces
        for i in range(1, pieces + 1):
            bounds.append(t1 if i == pieces else t0 + length * i)
            lams.append(lam)
            ags.append(s)
    return Schedule(
        boundaries=tuple(bounds), lambdas=tuple(lams), agents=tuple(ags),
        mu=schedule.mu, theta=schedule.theta, p=schedule.p, q=schedule.q,
        delta_rd=schedule.delta_rd, delta_rc=schedule.delta_rc,
    )


def _error_row(schedule: Schedule, rho_hat: float, s: int | None, r: int,
               base_seed: int, grid_step: float) -> ErrorRow:
    fluid = integrate_schedule(schedule, grid_step=grid_step)
    summary = run_replications(schedule, r=r, base_seed=base_seed,
                               grid_step=grid_step)
    metrics = error_metrics(Trajectory(summary.grid, summary.mean), fluid)
    return ErrorRow(rho_hat=rho_hat, s=s, e_rd=metrics.e_rd, e_rc=metrics.e_rc)


def run_single_interval_table(
    base: ModelParams,
    rho_grid=DEFAULT_RHO_GRID,
    r: int = 100,
    horizon: float = 480.0,
    base_seed: int = 424242,
    grid_step: float = 0.1,
) -> list[ErrorRow]:
    """Constant-rate scenarios: one row of orbit errors per target load.

    ``base.s`` is ignored; staffing comes from the rounding rule per
    target. Rows are ordered by the given grid.
    """
    rows = []
    for rho in rho_grid:
        params = _with_staffing(base, rho)
        rows.append(_error_row(single_interval(params, horizon), rho, params.s,
                               r, base_seed, grid_step))
    return rows


def run_multi_interval_table(
    base: ModelParams,
    rho_grid=DEFAULT_RHO_GRID,
    r: int = 100,
    base_seed: int = 424242,
    grid_step: float = 0.1,
) -> list[ErrorRow]:
    """Two-peak-day scenarios; staffing varies per interval (s is None)."""
    rows = []
    for rho in rho_grid:
        rows.append(_error_row(two_peak_schedule(base, rho), rho, None,
                               r, base_seed, grid_step))
    return rows


def run_sl_ap_table(
    schedule_family,
    tau: float = 0.5,
    r: int = 100,
    base_seed: int = 424242,
    grid_step: float = 0.1,
    analytic_block: float = 60.0,
) -> list[SlApRow]:
    """Pipeline-vs-simulation SL and AP for labeled scenarios.

    ``schedule_family`` is a sequence of (rho_hat, Schedule). The
    analytic leg refines each schedule into blocks of at most
    ``analytic_block`` minutes before the pointwise-stationary step: the
    dynamics are identical, but evaluating Erlang-A per block instead of
    per whole interval keeps the time-varying total rate from being
    averaged away.
    """
    rows = []
    for rho, schedule in schedule_family:
        refined = refine_schedule(schedule, analytic_block)
        fluid = integrate_schedule(refined, grid_step=grid_step)
        perf = psa_performance(refined, total_arrival_rate(fluid, refined), tau)
        summary = run_replications(schedule, r=r, base_seed=base_seed,
                                   grid_step=grid_step, tau=tau)
        rows.append(SlApRow(rho_hat=rho, sl_sim=summary.sl, sl_a=perf.sl,
                            ap_sim=summary.ap, ap_a=perf.ap))
    return rows


def single_interval_family(base: ModelParams, rho_grid,
                           horizon: float = 480.0):
    """(rho_hat, Schedule) pairs with constant arrivals, rule staffing."""
    return [(rho, single_interval(_with_staffing(base, rho), horizon))
            for rho in rho_grid]


ERROR_CSV_HEADER = "rho_hat,s,e_rd,e_rc"
SL_AP_CSV_HEADER = "rho_hat,sl_sim,sl_a,ap_sim,ap_a"


def _columns(rows, header: str) -> list[list]:
    # one column per header field; s is None (an empty cell) where
    # staffing varies across intervals
    return [["" if (v := getattr(r, name)) is None else v for r in rows]
            for name in header.split(",")]


def write_error_table_csv(path: str | Path, rows: list[ErrorRow]) -> None:
    write_csv(path, ERROR_CSV_HEADER, _columns(rows, ERROR_CSV_HEADER))


def write_sl_ap_table_csv(path: str | Path, rows: list[SlApRow]) -> None:
    write_csv(path, SL_AP_CSV_HEADER, _columns(rows, SL_AP_CSV_HEADER))


def format_markdown(rows) -> str:
    """Aligned text table with percentages, one row type at a time."""
    if not rows:
        raise ParameterError("no rows to format")
    if isinstance(rows[0], ErrorRow):
        header = ["rho_hat", "s", "e_RD", "e_RC"]
        body = [[f"{r.rho_hat:g}", "-" if r.s is None else str(r.s),
                 f"{100 * r.e_rd:.1f}%", f"{100 * r.e_rc:.1f}%"] for r in rows]
    elif isinstance(rows[0], SlApRow):
        header = ["rho_hat", "SL_sim", "SL_a", "AP_sim", "AP_a"]
        body = [[f"{r.rho_hat:g}", f"{100 * r.sl_sim:.1f}%", f"{100 * r.sl_a:.1f}%",
                 f"{100 * r.ap_sim:.1f}%", f"{100 * r.ap_a:.1f}%"] for r in rows]
    else:
        raise ParameterError(f"unsupported row type {type(rows[0]).__name__}")
    widths = [max(len(header[i]), *(len(b[i]) for b in body))
              for i in range(len(header))]
    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([fmt(header), sep] + [fmt(b) for b in body]) + "\n"
