"""First-order deterministic approximation of the redial/reconnect model.

The state z = (z_q, z_rd, z_rc) evolves by

    dz_q/dt  = lam + delta_rd*z_rd + delta_rc*z_rc
               - mu*min(s, z_q) - theta*(z_q - s)^+
    dz_rd/dt = p*theta*(z_q - s)^+ - delta_rd*z_rd
    dz_rc/dt = q*mu*min(s, z_q) - delta_rc*z_rc

with lam and s piecewise constant over a staffing schedule, solved by
fixed-step RK4 restarted at each interval boundary. The expected total
arrival rate lam + delta_rd*z_rd + delta_rc*z_rc along the solved path
is what drives the Erlang-A step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .model import (
    EMPTY_STATE,
    FluidState,
    ModelParams,
    ParameterError,
    Schedule,
    Trajectory,
    grid_steps,
    rho_hat,
    schedule_grid,
    validate,
)


class FluidIntegrationError(RuntimeError):
    """Integration produced a non-finite state."""


class Regime(enum.Enum):
    UNDERLOADED = "underloaded"   # rho_hat < 1
    OVERLOADED = "overloaded"     # rho_hat >= 1


@dataclass(frozen=True)
class StationaryState:
    """Long-run fluid state together with the load regime that produced it."""

    state: FluidState
    regime: Regime
    rho_hat: float


@dataclass(frozen=True)
class RateDecomposition:
    """Instantaneous arrival rate split by origin along a trajectory.

    Each field is an array aligned with the trajectory's grid ``t``;
    ``total`` is the exact elementwise sum fresh + redial + reconnect.
    """

    t: np.ndarray
    total: np.ndarray
    fresh: np.ndarray
    redial: np.ndarray
    reconnect: np.ndarray


def drift(state: FluidState, lam: float, s: float, params: ModelParams) -> np.ndarray:
    """Right-hand side of the fluid ODE at the given state.

    ``lam`` and ``s`` are passed explicitly so schedule intervals can
    override the values stored in ``params``; the remaining rates come
    from ``params``.
    """
    zq, zrd, zrc = state.z_q, state.z_rd, state.z_rc
    in_service = s if zq > s else zq
    excess = zq - s if zq > s else 0.0
    dq = (lam + params.delta_rd * zrd + params.delta_rc * zrc
          - params.mu * in_service - params.theta * excess)
    drd = params.p * params.theta * excess - params.delta_rd * zrd
    drc = params.q * params.mu * in_service - params.delta_rc * zrc
    return np.array([dq, drd, drc])


def integrate_schedule(
    schedule: Schedule,
    z0: FluidState = EMPTY_STATE,
    step: float = 0.01,
    record_every: int = 1,
) -> Trajectory:
    """Solve the fluid ODE over the whole schedule with fixed-step RK4.

    Coefficients (lam, s) restart at each interval boundary; the state is
    continuous across boundaries. ``step`` must divide every interval
    length, and the number of steps per interval must be a multiple of
    ``record_every`` (samples are recorded every ``record_every`` steps,
    boundaries always included). Negative round-off is clamped to zero
    and counted in ``Trajectory.clamp_events``.
    """
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")

    mu, theta = schedule.mu, schedule.theta
    p, q = schedule.p, schedule.q
    d_rd, d_rc = schedule.delta_rd, schedule.delta_rc

    zq, zrd, zrc = z0.z_q, z0.z_rd, z0.z_rc
    samples = [(zq, zrd, zrc)]
    clamps = 0

    for t0, t1, lam, s_int in schedule.intervals():
        s = float(s_int)
        length = t1 - t0
        nsteps = grid_steps(length, step)
        if nsteps % record_every != 0:
            raise ParameterError(
                f"record_every={record_every} does not divide the "
                f"{nsteps} steps of interval [{t0}, {t1})"
            )
        h = length / nsteps
        h2 = h * 0.5
        h6 = h / 6.0
        for i in range(1, nsteps + 1):
            # inlined RK4 stages; this loop dominates runtime
            sv = s if zq > s else zq
            ex = zq - s if zq > s else 0.0
            k1q = lam + d_rd * zrd + d_rc * zrc - mu * sv - theta * ex
            k1rd = p * theta * ex - d_rd * zrd
            k1rc = q * mu * sv - d_rc * zrc

            aq = zq + h2 * k1q
            ard = zrd + h2 * k1rd
            arc = zrc + h2 * k1rc
            sv = s if aq > s else aq
            ex = aq - s if aq > s else 0.0
            k2q = lam + d_rd * ard + d_rc * arc - mu * sv - theta * ex
            k2rd = p * theta * ex - d_rd * ard
            k2rc = q * mu * sv - d_rc * arc

            aq = zq + h2 * k2q
            ard = zrd + h2 * k2rd
            arc = zrc + h2 * k2rc
            sv = s if aq > s else aq
            ex = aq - s if aq > s else 0.0
            k3q = lam + d_rd * ard + d_rc * arc - mu * sv - theta * ex
            k3rd = p * theta * ex - d_rd * ard
            k3rc = q * mu * sv - d_rc * arc

            aq = zq + h * k3q
            ard = zrd + h * k3rd
            arc = zrc + h * k3rc
            sv = s if aq > s else aq
            ex = aq - s if aq > s else 0.0
            k4q = lam + d_rd * ard + d_rc * arc - mu * sv - theta * ex
            k4rd = p * theta * ex - d_rd * ard
            k4rc = q * mu * sv - d_rc * arc

            zq += h6 * (k1q + 2.0 * (k2q + k3q) + k4q)
            zrd += h6 * (k1rd + 2.0 * (k2rd + k3rd) + k4rd)
            zrc += h6 * (k1rc + 2.0 * (k2rc + k3rc) + k4rc)
            if zq < 0.0:
                zq = 0.0
                clamps += 1
            if zrd < 0.0:
                zrd = 0.0
                clamps += 1
            if zrc < 0.0:
                zrc = 0.0
                clamps += 1
            if i % record_every == 0:
                if not (np.isfinite(zq) and np.isfinite(zrd) and np.isfinite(zrc)):
                    raise FluidIntegrationError(
                        f"non-finite state ({zq}, {zrd}, {zrc}) near "
                        f"t={t0 + (length * i) / nsteps}"
                    )
                samples.append((zq, zrd, zrc))

    # shared grid constructor keeps time columns bit-identical with the
    # simulator's sampling grid at the same resolution
    grid = schedule_grid(schedule, step * record_every)
    if len(grid) != len(samples):
        raise FluidIntegrationError(
            f"internal grid mismatch: {len(grid)} nodes vs {len(samples)} samples"
        )
    return Trajectory(grid, np.array(samples), clamp_events=clamps)


def stationary_state(params: ModelParams) -> StationaryState:
    """Closed-form long-run fluid state.

    Below effective load 1 the queue drains (z_q < s, empty redial
    orbit); at or above 1 the queue carries a persistent excess fed back
    through the redial orbit. A system at or past critical load with
    p = 1 recirculates every abandonment and has no finite stationary
    point.
    """
    validate(params)
    r = rho_hat(params)
    s = float(params.s)
    if r < 1.0:
        zq = params.lam / ((1.0 - params.q) * params.mu)
        zrd = 0.0
        zrc = params.q * params.mu * zq / params.delta_rc
        regime = Regime.UNDERLOADED
    else:
        surplus = params.lam + params.q * params.mu * s - params.mu * s
        if surplus > 0 and params.p == 1.0:
            raise ParameterError(
                "no finite stationary state: p = 1 with rho_hat > 1 means "
                "every abandoning caller eventually returns"
            )
        excess = surplus / (params.theta * (1.0 - params.p)) if surplus != 0 else 0.0
        zq = s + excess
        zrd = params.p * params.theta * excess / params.delta_rd
        zrc = params.q * params.mu * s / params.delta_rc
        regime = Regime.OVERLOADED
    return StationaryState(FluidState(zq, zrd, zrc), regime, r)


def total_arrival_rate(traj: Trajectory, schedule: Schedule) -> RateDecomposition:
    """Split the offered arrival rate at each grid point by origin.

    The fresh component is the schedule's piecewise-constant rate
    (right-continuous: a boundary time belongs to the interval it opens,
    the horizon to the last interval); redial and reconnect components
    are proportional to the orbit contents.
    """
    t = traj.grid
    if not (0.0 <= t[0] <= 1e-9 and t[-1] <= schedule.horizon):
        raise ParameterError(
            f"trajectory span [{t[0]}, {t[-1]}] does not "
            f"lie in the schedule span [0, {schedule.horizon}]"
        )
    index = np.searchsorted(schedule.boundaries, t, side="right") - 1
    fresh = np.asarray(schedule.lambdas)[np.minimum(index, schedule.m - 1)]
    redial = schedule.delta_rd * traj.z_rd
    reconnect = schedule.delta_rc * traj.z_rc
    return RateDecomposition(t=t, total=fresh + redial + reconnect, fresh=fresh,
                             redial=redial, reconnect=reconnect)


TRAJECTORY_CSV_HEADER = "t,z_q,z_rd,z_rc,lambda_total,lambda_fresh,lambda_rd,lambda_rc"


def write_trajectory_csv(path: str | Path, traj: Trajectory, schedule: Schedule) -> None:
    """Write a trajectory with its rate decomposition, full double precision."""
    rates = total_arrival_rate(traj, schedule)
    write_csv(path, TRAJECTORY_CSV_HEADER,
              [traj.grid, traj.z_q, traj.z_rd, traj.z_rc,
               rates.total, rates.fresh, rates.redial, rates.reconnect])
