"""Domain parameters, staffing schedules, and fluid/simulation state containers.

Time is measured in minutes throughout; every rate is per minute. Service
level thresholds quoted in seconds (e.g. "answered within 30 seconds")
must be converted by the caller (30 s -> 0.5 min).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np


# exact as a float and inside int64, so every layer can carry an agent count
MAX_AGENTS = 2**53


class ParameterError(ValueError):
    """A model parameter or schedule violates its invariants."""


@dataclass(frozen=True)
class ModelParams:
    """Static rates and probabilities of a single staffing interval.

    lam       fresh (first-attempt) arrival rate
    s         number of agents
    mu        service rate per agent (1 / mean handle time)
    theta     abandonment rate (1 / mean patience)
    p         probability an abandoning caller enters the redial orbit
    q         probability a served caller enters the reconnect orbit
    delta_rd  rate of leaving the redial orbit
    delta_rc  rate of leaving the reconnect orbit
    """

    lam: float
    s: int
    mu: float
    theta: float
    p: float
    q: float
    delta_rd: float
    delta_rc: float

    def with_interval(self, lam: float, s: int) -> "ModelParams":
        """Copy with the interval-specific arrival rate and agent count."""
        return replace(self, lam=lam, s=s)


def validate(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged iff every invariant holds.

    Raises :class:`ParameterError` listing each violated invariant by
    field name.
    """
    problems = []
    if not params.lam >= 0:
        problems.append(f"lam must be >= 0, got {params.lam}")
    if not params.mu > 0:
        problems.append(f"mu must be > 0, got {params.mu}")
    if not params.theta > 0:
        problems.append(f"theta must be > 0, got {params.theta}")
    if not params.delta_rd > 0:
        problems.append(f"delta_rd must be > 0, got {params.delta_rd}")
    if not params.delta_rc > 0:
        problems.append(f"delta_rc must be > 0, got {params.delta_rc}")
    if not (isinstance(params.s, (int, np.integer)) and 1 <= params.s <= MAX_AGENTS):
        problems.append(f"s must be an integer in [1, 2**53], got {params.s}")
    if not 0 <= params.p <= 1:
        problems.append(f"p must be in [0, 1], got {params.p}")
    if not 0 <= params.q < 1:
        if params.q == 1:
            problems.append(
                "q must be < 1: with q = 1 every served caller reconnects and "
                "the effective load rho_hat = lam / ((1 - q) s mu) diverges"
            )
        else:
            problems.append(f"q must be in [0, 1), got {params.q}")
    for name in ("lam", "mu", "theta", "p", "q", "delta_rd", "delta_rc"):
        value = getattr(params, name)
        if not np.isfinite(value):
            problems.append(f"{name} must be finite, got {value}")
    if problems:
        raise ParameterError("; ".join(problems))
    return params


def rho_hat(params: ModelParams) -> float:
    """Effective offered load including reconnect traffic: lam / ((1-q) s mu).

    A served caller returns with probability q, so each fresh arrival
    generates 1/(1-q) expected service demands; rho_hat >= lam / (s mu),
    the load of fresh arrivals alone, with equality iff q = 0.
    """
    return params.lam / ((1.0 - params.q) * params.s * params.mu)


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant staffing plan.

    ``boundaries`` are the interval endpoints t_0 = 0 < t_1 < ... < t_m;
    interval i (1-based in the boundaries, 0-based in the arrays) runs
    over [boundaries[i], boundaries[i+1]) with fresh rate ``lambdas[i]``
    and ``agents[i]`` agents. The remaining parameters are shared by all
    intervals.
    """

    boundaries: tuple[float, ...]
    lambdas: tuple[float, ...]
    agents: tuple[int, ...]
    mu: float
    theta: float
    p: float
    q: float
    delta_rd: float
    delta_rc: float

    def __post_init__(self):
        b = self.boundaries
        if len(b) < 2:
            raise ParameterError("schedule needs at least one interval")
        if not all(math.isfinite(x) for x in b):
            raise ParameterError(f"boundaries must be finite, got {b}")
        if b[0] != 0.0:
            raise ParameterError(f"boundaries must start at 0, got {b[0]}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ParameterError("boundaries must be strictly increasing")
        if len(self.lambdas) != self.m or len(self.agents) != self.m:
            raise ParameterError(
                f"expected {self.m} per-interval values, got "
                f"{len(self.lambdas)} lambdas and {len(self.agents)} agent counts"
            )
        # each distinct (lam, s) once, in order; typed, as 148 == 148.0
        seen = set()
        for i, (lam, s) in enumerate(zip(self.lambdas, self.agents)):
            key = (type(lam), lam, type(s), s)
            if key not in seen:
                seen.add(key)
                validate(self.params_for(i))

    @property
    def m(self) -> int:
        """Number of intervals."""
        return len(self.boundaries) - 1

    @property
    def horizon(self) -> float:
        """End of the last interval."""
        return self.boundaries[-1]

    def params_for(self, i: int) -> ModelParams:
        """Parameters in effect during interval i (0-based)."""
        return ModelParams(
            lam=self.lambdas[i],
            s=self.agents[i],
            mu=self.mu,
            theta=self.theta,
            p=self.p,
            q=self.q,
            delta_rd=self.delta_rd,
            delta_rc=self.delta_rc,
        )

    def interval_index(self, t: float) -> int:
        """Index of the interval containing time t.

        Right-continuous: a boundary time belongs to the interval it
        opens; the horizon itself maps to the last interval.
        """
        if not 0 <= t <= self.horizon:
            raise ParameterError(f"t={t} outside schedule span [0, {self.horizon}]")
        if t == self.horizon:
            return self.m - 1
        lo, hi = 0, self.m - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.boundaries[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def intervals(self) -> Iterator[tuple[float, float, float, int]]:
        """Yield (t_start, t_end, lam, s) per interval."""
        for i in range(self.m):
            yield (self.boundaries[i], self.boundaries[i + 1],
                   self.lambdas[i], self.agents[i])


# most nodes schedule_grid builds; one float64 array over them is 80 MB
MAX_GRID_NODES = 10_000_000


def grid_steps(length: float, step: float) -> int:
    """Number of steps of size ``step`` spanning ``length``, which must divide it."""
    if not (0 < step < math.inf and 0 < length < math.inf):
        raise ParameterError(
            f"step {step} and interval length {length} must be finite and > 0")
    ratio = length / step
    if not math.isfinite(ratio):
        raise ParameterError(f"step {step} is too small for interval length {length}")
    n = round(ratio)
    if n < 1 or abs(n * step - length) > 1e-9 * max(1.0, length):
        raise ParameterError(f"step {step} does not divide interval length {length}")
    return n


def check_tau(tau: float) -> None:
    """Reject a service-level threshold that is not finite and >= 0 minutes."""
    if not 0 <= tau < math.inf:
        raise ParameterError(f"tau must be finite and >= 0, got {tau}")


def schedule_grid(schedule: Schedule, grid_step: float) -> np.ndarray:
    """Uniform sampling grid over the schedule, hitting every boundary exactly.

    ``grid_step`` must divide each interval length, and the grid may have
    at most ``MAX_GRID_NODES`` nodes. Both the fluid solver and the
    simulator derive their output grids from this function so the time
    columns of their exports are bit-identical.
    """
    steps = [grid_steps(t1 - t0, grid_step) for t0, t1, _, _ in schedule.intervals()]
    if 1 + sum(steps) > MAX_GRID_NODES:
        raise ParameterError(
            f"grid step {grid_step} gives {1 + sum(steps)} grid nodes, above "
            f"the limit of {MAX_GRID_NODES}")
    nodes = [np.zeros(1)]
    for (t0, t1, _, _), n in zip(schedule.intervals(), steps):
        nodes += [t0 + ((t1 - t0) * np.arange(1, n)) / n, [t1]]
    return np.concatenate(nodes)


def single_interval(params: ModelParams, horizon: float) -> Schedule:
    """Schedule with one interval [0, horizon) at the given parameters."""
    if not horizon > 0:
        raise ParameterError(f"horizon must be > 0, got {horizon}")
    return Schedule(
        boundaries=(0.0, float(horizon)),
        lambdas=(params.lam,),
        agents=(params.s,),
        mu=params.mu,
        theta=params.theta,
        p=params.p,
        q=params.q,
        delta_rd=params.delta_rd,
        delta_rc=params.delta_rc,
    )


@dataclass(frozen=True)
class FluidState:
    """Deterministic system content: queue+service, redial orbit, reconnect orbit."""

    z_q: float
    z_rd: float
    z_rc: float

    def __post_init__(self):
        if self.z_q < 0 or self.z_rd < 0 or self.z_rc < 0:
            raise ParameterError(
                f"fluid state components must be >= 0, got "
                f"({self.z_q}, {self.z_rd}, {self.z_rc})"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.z_q, self.z_rd, self.z_rc], dtype=float)


EMPTY_STATE = FluidState(0.0, 0.0, 0.0)


class Trajectory:
    """Time-sampled path of a (possibly mean) three-component state.

    ``grid`` is strictly increasing with uniform spacing inside each
    schedule interval; ``values`` is the (len(grid), 3) array of
    (z_q, z_rd, z_rc) samples. ``regime_switches`` counts the times the
    fluid solver located z_q crossing the agent count s.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray, regime_switches: int = 0):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or values.shape != (grid.size, 3):
            raise ParameterError(
                f"trajectory shape mismatch: grid {grid.shape}, values {values.shape}"
            )
        if grid.size >= 2 and not np.all(np.diff(grid) > 0):
            raise ParameterError("trajectory grid must be strictly increasing")
        self.grid = grid
        self.values = values
        self.regime_switches = regime_switches

    def __len__(self) -> int:
        return self.grid.size

    @property
    def z_q(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def z_rd(self) -> np.ndarray:
        return self.values[:, 1]

    @property
    def z_rc(self) -> np.ndarray:
        return self.values[:, 2]

    def state_at(self, i: int) -> FluidState:
        return FluidState(*self.values[i])

    @property
    def final_state(self) -> FluidState:
        return self.state_at(len(self) - 1)


def load_config(path: str | Path) -> Schedule:
    """Read a schedule from a UTF-8 JSON config file.

    Expected shape::

        {
          "mu": 0.25, "theta": 0.5, "p": 0.5, "q": 0.1,
          "delta_rd": 0.05, "delta_rc": 0.01,
          "intervals": [
            {"t_start": 0, "t_end": 480, "lambda": 40, "s": 148}
          ]
        }

    Intervals must be contiguous and start at 0. All rates per minute.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return schedule_from_dict(raw)


def _number(value, where: str) -> float:
    """A JSON number as a float; strings, bools and other types are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{where} is too large for a float") from None


def _integer(value, where: str) -> int:
    """A JSON number with an integral value as an int (148.0 is 148)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParameterError(f"{where} must be an integer, got {value!r}")


def schedule_from_dict(raw: dict) -> Schedule:
    """Build a schedule from parsed config JSON; see :func:`load_config`.

    Every malformed value raises :class:`ParameterError`: a non-object
    config or interval, a string or bool where a number belongs, a
    non-integral ``s``, a non-finite boundary.
    """
    if not isinstance(raw, dict):
        raise ParameterError("config must be a JSON object")
    missing = [k for k in ("mu", "theta", "p", "q", "delta_rd", "delta_rc", "intervals")
               if k not in raw]
    if missing:
        raise ParameterError(f"config missing keys: {', '.join(missing)}")
    intervals = raw["intervals"]
    if not isinstance(intervals, list) or not intervals:
        raise ParameterError("config 'intervals' must be a non-empty array")
    boundaries = [0.0]
    lambdas = []
    agents = []
    for n, iv in enumerate(intervals):
        if not isinstance(iv, dict):
            raise ParameterError(f"interval {n} must be an object, got {iv!r}")
        for key in ("t_start", "t_end", "lambda", "s"):
            if key not in iv:
                raise ParameterError(f"interval {n} missing key '{key}'")
        t_start = _number(iv["t_start"], f"interval {n} 't_start'")
        if not np.isclose(t_start, boundaries[-1], rtol=0, atol=1e-9):
            raise ParameterError(
                f"interval {n} starts at {t_start}, expected {boundaries[-1]} "
                "(intervals must be contiguous from 0)"
            )
        boundaries.append(_number(iv["t_end"], f"interval {n} 't_end'"))
        lambdas.append(_number(iv["lambda"], f"interval {n} 'lambda'"))
        agents.append(_integer(iv["s"], f"interval {n} 's'"))
    shared = {key: _number(raw[key], f"config '{key}'")
              for key in ("mu", "theta", "p", "q", "delta_rd", "delta_rc")}
    return Schedule(
        boundaries=tuple(boundaries),
        lambdas=tuple(lambdas),
        agents=tuple(agents),
        **shared,
    )


def schedule_to_dict(schedule: Schedule) -> dict:
    """Inverse of :func:`schedule_from_dict`."""
    return {
        "mu": schedule.mu,
        "theta": schedule.theta,
        "p": schedule.p,
        "q": schedule.q,
        "delta_rd": schedule.delta_rd,
        "delta_rc": schedule.delta_rc,
        "intervals": [
            {"t_start": t0, "t_end": t1, "lambda": lam, "s": s}
            for t0, t1, lam, s in schedule.intervals()
        ],
    }
