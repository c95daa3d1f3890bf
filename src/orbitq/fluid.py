"""First-order deterministic approximation of the redial/reconnect model.

The state z = (z_q, z_rd, z_rc) evolves by

    dz_q/dt  = lam + delta_rd*z_rd + delta_rc*z_rc
               - mu*min(s, z_q) - theta*(z_q - s)^+
    dz_rd/dt = p*theta*(z_q - s)^+ - delta_rd*z_rd
    dz_rc/dt = q*mu*min(s, z_q) - delta_rc*z_rc

with lam and s piecewise constant over a staffing schedule. On each side
of z_q = s the drift is affine, so the path is evaluated exactly with
matrix exponentials (Van Loan's augmented form), switching sides at the
located crossing times; the exponentials are scaling-and-squaring Padé
approximants on numpy alone (Higham 2005). The powers of one step's
exponential carry the state across a run of grid nodes in one product.
A crossing is located by safeguarded Newton steps on the exact path,
started at the root of the same probe in modal form, from the
eigendecomposition of the state block (Moler & Van Loan 2003): that
form only picks the start, and the exact test on the exponential decides.
The same loop, at one step per interval, gives each interval's mean total
arrival rate lam + delta_rd*z_rd + delta_rc*z_rc exactly, from one more
component that integrates the orbit part; that drives the Erlang-A step.
"""

from __future__ import annotations

import enum
import math
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


# Newton steps allowed when locating a crossing of z_q = s or a turning point
_MAX_NEWTON = 100
# values, and Newton steps, below this fraction of their scale are rounding
_RTOL = 1e-12
# passes of s allowed in one step. Exact paths in the tests pass s at most
# twice in a step; with a stiff theta, rounding can keep the computed
# path passing s at steps too short to finish the step
_MAX_PASSES = 100
# most grid steps one scan advances: it bounds the step powers and nodes
# held at once (about 200 bytes a step) on a grid of any length
_SCAN_STEPS = 4096


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


# Padé approximants r_m = (V - U)^-1 (V + U) of expm, with V the even and
# U the odd part of the degree-m numerator b_0 + b_1 A + ... + b_m A^m,
# and the 1-norm of A up to which each is accurate to double precision
# (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4), table 2.3). The rows of
# each b: b_0, b_2, ... over b_1, b_3, ...
_PADE = [(theta, np.array(b, dtype=float).reshape(-1, 2).T) for theta, b in (
    (1.495585217958292e-2, (120, 60, 12, 1)),
    (2.539398330063230e-1, (30240, 15120, 3360, 420, 30, 1)),
    (9.504178996162932e-1, (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1)),
    (2.097847961257068, (17643225600, 8821612800, 2075673600, 302702400, 30270240,
                         2162160, 110880, 3960, 90, 1)),
    (5.371920351148152, (64764752532480000, 32382376266240000, 7771770303897600,
                         1187353796428800, 129060195264000, 10559470521600,
                         670442572800, 33522128640, 1323241920, 40840800, 960960,
                         16380, 182, 1)),
)]
_EYE = np.eye(5)


def _expm(a: np.ndarray) -> np.ndarray:
    """expm of an n x n generator [[B, c], [0, 0]] on numpy's ``@`` and
    ``linalg.solve``: the lowest-degree Padé approximant accurate at its
    norm, or the one of degree 13 after scaling by 2^-k, squared k times."""
    # Scaling the forcing column c to the size of B by a power of two is an
    # exact similarity. It spares the squarings a large lam or s would add,
    # and a path that truly overflows comes out as inf.
    rows = abs(a[:-1]).tolist()
    scale = np.ldexp(1.0, max(0, math.frexp(max(r[-1] for r in rows))[1]
                              - math.frexp(max(max(r[:-1]) for r in rows))[1]))
    cols = [sum(c) for c in zip(*rows)]
    norm = max(*cols[:-1], cols[-1] / scale)
    theta, b = next((p for p in _PADE if norm <= p[0]), _PADE[-1])
    squarings = max(0, math.frexp(norm / theta)[1])
    a = a * 0.5 ** squarings
    a[:, -1] /= scale
    powers = [_EYE[:len(a), :len(a)], a @ a]
    while len(powers) < b.shape[1]:
        powers.append(powers[-1] @ powers[1])
    v, u = (b @ np.array(powers).reshape(-1, a.size)).reshape(2, *a.shape)
    u = a @ u
    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    out[:-1, -1] *= scale
    # the generator's last row is 0, so the exponential's is exactly e_n;
    # rounding there would drift w's homogeneous coordinate off 1
    out[-1] = _EYE[-1, -len(a):]
    return out


def _powers(step: np.ndarray, count: int) -> np.ndarray:
    """step^1 .. step^count as a (count, n, n) stack, by doubling: the rows
    of step^1 .. step^m times step^m are those of step^(m+1) .. step^2m."""
    out = step[None]
    while len(out) < count:
        m = len(out)
        more = out[:count - m].reshape(-1, len(step)) @ out[-1]
        out = np.concatenate([out, more.reshape(-1, *step.shape)])
    return out


def _regimes(lam: float, s: int, schedule: Schedule) -> list[tuple[np.ndarray, np.ndarray]]:
    """(M, probes) below and above z_q = s.

    M generates z' = A z + c and the orbit rate's integral y' = dᵀz: with
    w = (z, y, 1), w(t) = expm(t M) w(0). The probe rows give, on w, z_q - s
    signed to be positive past s, z_q's drift d, and d' - r d, with r the
    eigenvalue of the orbit that decouples (z_rd below s, z_rc above).
    """
    mu, theta, p, q = schedule.mu, schedule.theta, schedule.p, schedule.q
    d_rd, d_rc = schedule.delta_rd, schedule.delta_rc
    below = np.array([[-mu, d_rd, d_rc, 0.0, lam],
                      [0.0, -d_rd, 0.0, 0.0, 0.0],
                      [q * mu, 0.0, -d_rc, 0.0, 0.0],
                      [0.0, d_rd, d_rc, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0]])
    above = np.array([[-theta, d_rd, d_rc, 0.0, lam - mu * s + theta * s],
                      [p * theta, -d_rd, 0.0, 0.0, -p * theta * s],
                      [0.0, 0.0, -d_rc, 0.0, q * mu * s],
                      [0.0, d_rd, d_rc, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0]])
    return [(m, np.array([[sign, 0.0, 0.0, 0.0, -sign * s], m[0], m[0] @ m - r * m[0]]))
            for m, sign, r in ((below, 1.0, -d_rd), (above, -1.0, -d_rc))]


def _newton(evaluate, span: float, t: float) -> tuple[float, np.ndarray | None]:
    """Safeguarded Newton steps from t on f, <= 0 at 0 and > 0 at ``span``,
    where evaluate(t) = (f(t), f'(t), the rounding level of f(t), state):
    (t, state) once |f(t)| is down to rounding, else (t, None) once a step
    is, or the steps run out. A step that would leave the bracket halves
    it instead."""
    lo, hi = 0.0, span
    for _ in range(_MAX_NEWTON):
        f, df, tol, state = evaluate(t)
        if abs(f) <= tol:
            return t, state
        lo, hi = (lo, t) if f > 0 else (t, hi)
        step = f / df if df else math.inf
        if abs(step) <= _RTOL * span:
            return min(max(t - step, lo), hi), None
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
    return t, None


# eigenvalues, V and V^-1 of a state block A = V diag(eigenvalues) V^-1
_Modes = tuple[list[float], np.ndarray, np.ndarray]


def _modes(gen: np.ndarray) -> _Modes | None:
    """The modal form of the state block A of ``gen``, or None where its
    eigen data are complex or non-finite or V is singular to rounding, as
    for a defective A. A is a Metzler matrix whose columns sum to at most
    0, so its eigenvalues lie in Re <= 0: rounding above 0, as at the zero
    eigenvalue of p = 1 above s, is clipped to 0."""
    try:
        lam, v = np.linalg.eig(gen[:3, :3])
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    if (np.iscomplexobj(lam) or not (np.isfinite(lam).all() and np.isfinite(vinv).all())
            or abs(v).sum(axis=0).max() * abs(vinv).sum(axis=0).max() > 1 / _RTOL):
        return None
    return np.minimum(lam, 0.0).tolist(), v, vinv


def _modal_start(row: np.ndarray, gen: np.ndarray, w: np.ndarray, span: float,
                 modes: _Modes) -> float:
    """The root in (0, span) of f(t) = row @ expm(t gen) w in modal form,
    else span / 2. With z' = A z + c and A = V diag(l) V^-1, a probe that
    does not read y is f(t) = r_c + sum_j h_j (e^(l_j t) b_j + g_j phi_j(t)),
    h = r_z V, b = V^-1 z(0), g = V^-1 c, phi_j(t) = expm1(l_j t) / l_j, or
    t where l_j = 0: Newton on three exponentials of scalars."""
    lam, v, vinv = modes
    h = row[:3] @ v
    hb, hg = (h * (vinv @ w[:3])).tolist(), (h * (vinv @ gen[:3, -1]) * w[-1]).tolist()
    const = float(row[-1] * w[-1])
    if not all(map(math.isfinite, [*hb, *hg, const])):
        return 0.5 * span

    def scalar(t: float) -> tuple[float, float, float, None]:
        f, df, scale = const, 0.0, abs(const)
        for ev, b, g in zip(lam, hb, hg):
            e = math.exp(ev * t)
            phi = math.expm1(ev * t) / ev if ev else t
            f += b * e + g * phi
            df += e * (ev * b + g)
            scale += abs(b * e) + abs(g * phi)
        return f, df, _RTOL * scale, None

    t = _newton(scalar, span, 0.5 * span)[0]
    return t if 0.0 < t < span else 0.5 * span


def _root(row: np.ndarray, gen: np.ndarray, w: np.ndarray, span: float,
          modes: _Modes | None) -> tuple[float, np.ndarray]:
    """(t, expm(t gen) w) where f(t) = row @ expm(t gen) w, <= 0 at 0 and > 0
    at ``span``, changes sign: Newton steps on f' = row @ gen @ expm(t gen) w,
    halving the bracket instead where a step would leave it.

    Newton starts at the root of f's modal form where ``modes`` (from
    ``_modes``) is given and that form has one in (0, span), else at
    span / 2. Only the start rests on the eigenvectors: every step and the
    stopping test read the exact expm(t gen) w."""
    slope = row @ gen

    def exact(t: float) -> tuple[float, float, float, np.ndarray]:
        wt = _expm(t * gen) @ w
        return row @ wt, slope @ wt, _RTOL * (abs(row) @ abs(wt)), wt

    start = 0.5 * span if modes is None else _modal_start(row, gen, w, span, modes)
    t, wt = _newton(exact, span, start)
    return t, _expm(t * gen) @ w if wt is None else wt


def _lands(probes: np.ndarray, f: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """For each step between consecutive rows of f = path @ probes.T, whether
    z_q starts clearly short of s, moving towards it, and ends on s within
    rounding. Its drift may then have turned inside the step and decayed
    below rounding by the end, so no sign test sees z_q pass s and come
    back; ``_first_pass`` looks inside."""
    band = _RTOL * abs(probes[0, -1])
    return ((f[:-1, 0] < -band) & (abs(f[1:, 0]) <= band)
            & (probes[0, 0] * f[:-1, 1] > tol[:-1, 1]))


def _quiet(probes: np.ndarray, path: np.ndarray) -> np.ndarray:
    """For each step between consecutive states w in the rows of ``path``,
    whether z_q provably does not pass s inside it: neither d1 nor d changes
    sign beyond rounding, so z_q is monotone, z_q ends at most rounding
    past s and does not land on s. This is the common case, and
    ``_first_pass`` stops at once."""
    f = path @ probes.T
    tol = _RTOL * (abs(path) @ abs(probes).T)
    fa, fb = f[:-1, 1:], f[1:, 1:]
    flips = ((np.minimum(fa, fb) < 0) & (np.maximum(fa, fb) > 0)
             & (np.minimum(abs(fa), abs(fb)) > tol[:-1, 1:] + tol[1:, 1:]))
    return (~flips.any(axis=1) & ~_lands(probes, f, tol)
            & (f[1:, 0] <= _RTOL * abs(probes[0, -1])))


def _first_pass(gen: np.ndarray, probes: np.ndarray, w: np.ndarray, end: np.ndarray,
                span: float, modes: _Modes | None) -> tuple[float, np.ndarray] | None:
    """First (time, state) in (0, span] at which z_q on w(t) = expm(t gen) w
    passes s, or None; ``end`` is w(span).

    The third probe, d1, solves a second-order linear ODE whose roots, the
    other two eigenvalues of A, are real, so it changes sign at most once.
    Where d1 keeps its sign, exp(-r t) d is monotone, so d changes sign at
    most once, and where d keeps its sign, z_q is monotone. Cutting the
    span where d1 and then d change sign leaves at most three pieces on
    each of which a check at the end finds a pass. Each cut and the pass
    are roots that ``_root`` finds from the root of the modal form given
    by ``modes``, and the exact test decides; the pass usually costs one
    exponential.
    """
    times, states = [0.0, span], [w, end]
    if _quiet(probes, np.stack(states))[0]:
        return None
    values = [(probes @ w).tolist(), (probes @ end).tolist()]
    band = _RTOL * abs(probes[0][-1])
    path = np.stack(states)
    if _lands(probes, path @ probes.T, _RTOL * (abs(path) @ abs(probes).T))[0]:
        # halve towards the end until the drift at the midpoint is resolved
        # and points away from s, or z_q there is past s: the turn or the
        # pass then lies between two cuts the loops below can see
        lo, hi = 0.0, span
        for _ in range(_MAX_NEWTON):
            mid = 0.5 * (lo + hi)
            state = _expm(mid * gen) @ w
            value = (probes @ state).tolist()
            resolved = abs(value[1]) > _RTOL * (abs(probes[1]) @ abs(state))
            if value[0] > band or resolved and probes[0][0] * value[1] < 0:
                times.insert(1, mid)
                states.insert(1, state)
                values.insert(1, value)
                break
            lo, hi = (mid, hi) if resolved else (lo, mid)
    for j in (2, 1):
        for i in range(len(times) - 1, 0, -1):
            fa, fb, wa, wb = values[i - 1][j], values[i][j], states[i - 1], states[i]
            if (fa < 0 < fb or fb < 0 < fa) and min(abs(fa), abs(fb)) > (
                    _RTOL * (abs(probes[j]) @ (abs(wa) + abs(wb)))):
                tau, state = _root(probes[j] if fb > 0 else -probes[j], gen, wa,
                                   times[i] - times[i - 1], modes)
                states.insert(i, state)
                times.insert(i, times[i - 1] + tau)
                values.insert(i, (probes @ states[i]).tolist())
    for i in range(1, len(times)):
        if values[i][0] > band:
            tau, state = _root(probes[0], gen, states[i - 1], times[i] - times[i - 1],
                               modes)
            return times[i - 1] + tau, state
    return None


def _above(w: np.ndarray, s: int, drift_above: np.ndarray) -> int:
    """1 where w lies above s, or on s with the drift above s pointing up."""
    return int(w[0] > s or (w[0] == s and drift_above @ w > 0))


# an overflowing state is reported by the finite check, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def _propagate(schedule: Schedule, z0: FluidState, counts: list[int]) -> tuple[np.ndarray, int]:
    """w = (z, y, 1) from (z0, 0, 1) at the ends of ``counts[i]`` equal
    steps across each interval i, and the number of passes of s.

    One matrix exponential per (interval, side of z_q = s) carries the
    state over one step. Its powers, made by doubling, carry it over up to
    ``_SCAN_STEPS`` steps in one product, up to the first step in which
    z_q may pass s. That step is taken alone: the crossing is located by
    Newton steps on the exact solution, z_q is set to s there and the step
    goes on from the other side. More than ``_MAX_PASSES`` passes in one
    step, as when rounding holds z_q on s, end the solve.
    """
    values = np.empty((1 + sum(counts), 5))
    values[0] = w = np.array([*z0.as_array(), 0.0, 1.0])
    k = switches = 0
    # each side's modal form for the crossing searches: its state block is
    # the same in every interval, so it is taken once, when first needed
    modal: dict[int, _Modes | None] = {}
    for (t0, t1, lam, s), n in zip(schedule.intervals(), counts):
        h = (t1 - t0) / n
        regimes = _regimes(lam, s, schedule)
        # each side's step powers, made when that side is first scanned
        tables: list[np.ndarray | None] = [None, None]
        drift_above = regimes[1][0][0]
        stop = k + n
        while k < stop:
            # scan: the next nodes as powers of one side's step applied to w,
            # kept up to the first step that may pass s or ends non-finite
            above = _above(w, s, drift_above)
            if tables[above] is None:
                tables[above] = _powers(_expm(h * regimes[above][0]), min(n, _SCAN_STEPS))
            run = (tables[above][:stop - k].reshape(-1, 5) @ w).reshape(-1, 5)
            kept = np.isfinite(run).all(axis=1) & _quiet(regimes[above][1], np.vstack([w, run]))
            j = len(run) if kept.all() else int(kept.argmin())
            values[k + 1:k + 1 + j] = run[:j]
            k += j
            w = values[k]
            if j == len(run):
                continue
            # that one step, with its passes of s located
            left, passes = h, 0
            while True:
                above = _above(w, s, drift_above)
                gen, probes = regimes[above]
                whole = left == h and tables[above] is not None
                nxt = (tables[above][0] if whole else _expm(left * gen)) @ w
                if not all(map(math.isfinite, nxt.tolist())):
                    raise FluidIntegrationError(f"non-finite fluid state after t={t0}")
                if above not in modal:
                    modal[above] = _modes(gen)
                switch = _first_pass(gen, probes, w, nxt, left, modal[above])
                if switch is None:
                    break
                passes += 1
                if passes > _MAX_PASSES:
                    raise FluidIntegrationError(
                        f"z_q passes s more than {_MAX_PASSES} times in the step at "
                        f"t={t0 + (k - stop + n) * h:g}: rounding holds it on s")
                tau, w = switch
                w[0] = s
                left -= tau
                switches += 1
            k += 1
            values[k] = w = nxt
    return values, switches


def integrate_schedule(
    schedule: Schedule,
    z0: FluidState = EMPTY_STATE,
    grid_step: float = 0.1,
) -> Trajectory:
    """Exact fluid path sampled on ``schedule_grid(schedule, grid_step)``;
    ``Trajectory.regime_switches`` counts the passes of z_q through s."""
    # shared grid constructor keeps time columns bit-identical with the
    # simulator's sampling grid at the same resolution
    grid = schedule_grid(schedule, grid_step)
    steps = [grid_steps(t1 - t0, grid_step) for t0, t1, _, _ in schedule.intervals()]
    values, switches = _propagate(schedule, z0, steps)
    # rounding leaves values of order 1e-17 below 0 where a component is
    # identically zero
    return Trajectory(grid, np.maximum(values[:, :3], 0.0), regime_switches=switches)


def interval_arrival_rates(schedule: Schedule) -> np.ndarray:
    """Mean total arrival rate lam_i + (y(t1) - y(t0)) / (t1 - t0) of each
    interval from the empty state, one exact step each; rounding below 0 is clipped."""
    y = _propagate(schedule, EMPTY_STATE, [1] * schedule.m)[0][:, 3]
    return np.maximum(np.add(schedule.lambdas, np.diff(y) / np.diff(schedule.boundaries)), 0.0)


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
