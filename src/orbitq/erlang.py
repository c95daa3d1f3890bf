"""M/M/s+M (Erlang-A) formulas driven by the fluid total arrival rate.

The birth-death steady state is solved in log space, so any load that a
float can express is safe from overflow. Waiting-time probabilities come
from transient analysis of the tagged-customer phase chain: a customer
who arrives with j others waiting watches the ahead-count k drop at rate
s*mu + k*theta, enters service from k=0 at the next rate-s*mu event, and
abandons at rate theta throughout. Uniformization of that chain gives
P(served by tau) for every j at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from .artifacts import write_csv
from .model import ParameterError, Schedule, check_tau
from .fluid import RateDecomposition

TAIL_TOL = 1e-10
MAX_DOUBLINGS = 3
# largest truncation level steady_state allocates, the same state limit
# as ctmc.MAX_STATES
MAX_LEVELS = 10_000_000


class TruncationError(RuntimeError):
    """Steady-state tail mass above tolerance at the given truncation."""


@dataclass(frozen=True)
class ErlangAInput:
    """One stationary M/M/s+M instance, truncated at n_max states.

    ``n_max`` defaults to s + ceil(max(50, 10*sqrt(rate/mu) + rate/theta)),
    which keeps the stationary tail below 1e-10 for moderate loads; the
    solver doubles the headroom up to 3 times if the check fails.
    """

    arrival_rate: float
    s: int
    mu: float
    theta: float
    n_max: int | None = None

    def __post_init__(self):
        problems = []
        if not self.arrival_rate >= 0:
            problems.append(f"arrival_rate must be >= 0, got {self.arrival_rate}")
        if not (isinstance(self.s, (int, np.integer)) and self.s >= 1):
            problems.append(f"s must be an integer >= 1, got {self.s}")
        if not self.mu > 0:
            problems.append(f"mu must be > 0, got {self.mu}")
        if not self.theta > 0:
            problems.append(f"theta must be > 0, got {self.theta}")
        if self.n_max is not None and self.n_max < self.s:
            problems.append(f"n_max must be >= s, got {self.n_max} < {self.s}")
        if problems:
            raise ParameterError("; ".join(problems))

    def default_n_max(self) -> int:
        head = max(50.0,
                   10.0 * math.sqrt(self.arrival_rate / self.mu)
                   + self.arrival_rate / self.theta)
        return self.s + math.ceil(head)


def _checked_levels(n: int) -> int:
    if n > MAX_LEVELS:
        raise ParameterError(
            f"truncation level n_max={n} exceeds the limit of {MAX_LEVELS} "
            "states; the load is too heavy or the patience too long"
        )
    return n


def steady_state(inp: ErlangAInput) -> np.ndarray:
    """Stationary distribution over {0..N} of the M/M/s+M birth-death chain.

    Death rate at n is mu*min(n,s) + theta*(n-s)^+. Raises
    :class:`TruncationError` when the last point mass exceeds 1e-10; with
    a defaulted truncation the headroom is doubled up to 3 times first.
    Raises :class:`ParameterError`, before allocating, when a truncation
    level (a doubled one included) exceeds ``MAX_LEVELS``.
    """
    if inp.arrival_rate == 0.0:
        n = _checked_levels(inp.n_max if inp.n_max is not None else inp.s)
        pi = np.zeros(n + 1)
        pi[0] = 1.0
        return pi

    auto = inp.n_max is None
    n = inp.default_n_max() if auto else inp.n_max
    attempts = MAX_DOUBLINGS + 1 if auto else 1
    log_rate = math.log(inp.arrival_rate)
    for _ in range(attempts):
        levels = np.arange(1, _checked_levels(n) + 1)
        death = inp.mu * np.minimum(levels, inp.s) + inp.theta * np.maximum(
            levels - inp.s, 0)
        logpi = np.concatenate([[0.0], np.cumsum(log_rate - np.log(death))])
        logpi -= logsumexp(logpi)
        pi = np.exp(logpi)
        if pi[-1] <= TAIL_TOL:
            return pi
        if auto:
            n = inp.s + 2 * (n - inp.s)
    raise TruncationError(
        f"tail mass {pi[-1]:.3e} at n_max={n} exceeds {TAIL_TOL}; "
        "increase n_max"
    )


def abandonment_prob(inp: ErlangAInput) -> float:
    """AP = theta * E[(N - s)^+] / arrival_rate (abandonment flow over inflow)."""
    if inp.arrival_rate <= 0:
        raise ParameterError("abandonment probability undefined for arrival_rate = 0")
    pi = steady_state(inp)
    n = np.arange(len(pi))
    excess = float(pi @ np.maximum(n - inp.s, 0))
    return inp.theta * excess / inp.arrival_rate


def _p_served_by(j_max: int, s: int, mu: float, theta: float, tau: float,
                 tol: float = 1e-8) -> np.ndarray:
    """P(tagged customer enters service by tau) for all j in 0..j_max.

    Uniformization of the phase chain over ahead-counts k: from k >= 1
    the count drops at rate s*mu + k*theta, from k = 0 the tagged enters
    service at rate s*mu, and the tagged abandons at rate theta from
    every transient state. One pass yields the whole vector because the
    chain for smaller j is a sub-chain.
    """
    if tau == 0.0:
        return np.zeros(j_max + 1)
    gamma = s * mu + j_max * theta + theta
    x = gamma * tau
    # Poisson(x) horizon with tail below tol
    m_max = int(math.ceil(x + 10.0 * math.sqrt(x + 1.0) + 4.0 * math.log(1.0 / tol)))

    k = np.arange(j_max + 1)
    drop = (s * mu + k * theta) / gamma      # k -> k-1 (enter service from 0)
    leak = theta / gamma                     # tagged abandons
    stay = 1.0 - drop - leak

    # a[k] = P(absorbed in SERVICE within m uniformized jumps | ahead = k)
    a = np.zeros(j_max + 1)
    out = np.zeros(j_max + 1)
    log_pois = -x  # log P(Poisson(x) = 0)
    log_fact = 0.0
    weight_left = 1.0 - math.exp(log_pois)
    out += math.exp(log_pois) * a
    for m in range(1, m_max + 1):
        nxt = stay * a
        nxt[0] += drop[0]
        nxt[1:] += drop[1:] * a[:-1]
        a = nxt
        log_fact += math.log(m)
        log_pois = -x + m * math.log(x) - log_fact
        w = math.exp(log_pois)
        out += w * a
        weight_left -= w
        if weight_left <= tol and m > x:
            break
    # remaining Poisson tail: bound the unaccumulated contribution by a <= 1
    return np.minimum(out + max(weight_left, 0.0) * a, 1.0)


def service_level(inp: ErlangAInput, tau: float) -> float:
    """P(arriving customer is served within tau), by PASTA.

    An arrival finding n < s in system waits zero; one finding n >= s is
    tracked through the tagged-customer phase chain with j = n - s ahead.
    """
    check_tau(tau)
    pi = steady_state(inp)
    n_states = len(pi)
    terms = np.ones(n_states)
    if n_states > inp.s:
        j_max = n_states - 1 - inp.s
        terms[inp.s:] = _p_served_by(j_max, inp.s, inp.mu, inp.theta, tau)
    return float(pi @ terms)


@dataclass(frozen=True)
class IntervalPerformance:
    index: int
    t_start: float
    t_end: float
    lambda_mean: float
    s: int
    sl: float | None  # None for an idle interval
    ap: float | None


@dataclass(frozen=True)
class PerformanceSummary:
    """Per-interval Erlang-A performance plus arrival-weighted aggregate."""

    intervals: tuple[IntervalPerformance, ...]
    sl: float
    ap: float
    tau: float

    @property
    def lambda_mean(self) -> float:
        """Time-averaged total arrival rate over the whole span."""
        total = sum(r.lambda_mean * (r.t_end - r.t_start) for r in self.intervals)
        span = self.intervals[-1].t_end - self.intervals[0].t_start
        return total / span


def psa_performance(
    schedule: Schedule,
    fluid_rates: RateDecomposition,
    tau: float,
) -> PerformanceSummary:
    """Pointwise-stationary Erlang-A over the schedule.

    Interval i gets the time-average total rate: the fresh component is
    the interval's own lambda (exact, avoiding the right-continuous jump
    at boundaries), the orbit components are trapezoid averages of the
    fluid decomposition. SL/AP per interval come from the stationary
    formulas at (Lambda_i, s_i); an idle interval (Lambda_i = 0) has no
    SL or AP, so both are None. The aggregate weights intervals by
    expected arrivals Lambda_i * length.
    """
    times = fluid_rates.t
    if times.size == 0:
        raise ParameterError("fluid_rates is empty")
    orbit = fluid_rates.redial + fluid_rates.reconnect
    if times[0] > 1e-9 or times[-1] < schedule.horizon - 1e-9:
        raise ParameterError(
            f"fluid_rates span [{times[0]}, {times[-1]}] does not cover "
            f"the schedule span [0, {schedule.horizon}]"
        )

    rows = []
    for i, (t0, t1, lam, s) in enumerate(schedule.intervals()):
        sel = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
        tt = times[sel]
        if len(tt) < 2:
            raise ParameterError(
                f"fluid_rates has fewer than 2 nodes in interval [{t0}, {t1})"
            )
        lam_i = float(lam + np.trapezoid(orbit[sel], tt) / (t1 - t0))
        sl = ap = None
        if lam_i > 0:
            inp = ErlangAInput(arrival_rate=lam_i, s=s, mu=schedule.mu,
                               theta=schedule.theta)
            sl, ap = service_level(inp, tau), abandonment_prob(inp)
        rows.append(IntervalPerformance(
            index=i, t_start=t0, t_end=t1, lambda_mean=lam_i, s=s, sl=sl, ap=ap,
        ))

    served = [r for r in rows if r.sl is not None]
    weights = np.array([r.lambda_mean * (r.t_end - r.t_start) for r in served])
    if weights.sum() <= 0:
        raise ParameterError("all intervals have zero expected arrivals")
    sls = np.array([r.sl for r in served])
    aps = np.array([r.ap for r in served])
    return PerformanceSummary(
        intervals=tuple(rows),
        sl=float(weights @ sls / weights.sum()),
        ap=float(weights @ aps / weights.sum()),
        tau=tau,
    )


PERFORMANCE_CSV_HEADER = "interval,t_start,t_end,lambda_mean,s,sl,ap"


def write_performance_csv(path: str | Path, summary: PerformanceSummary) -> None:
    """One row per interval plus an ``aggregate`` row with an empty s cell.

    An idle interval's SL and AP cells are empty.
    """
    rows = summary.intervals
    write_csv(path, PERFORMANCE_CSV_HEADER, [
        [*(r.index for r in rows), "aggregate"],
        [*(r.t_start for r in rows), rows[0].t_start],
        [*(r.t_end for r in rows), rows[-1].t_end],
        [*(r.lambda_mean for r in rows), summary.lambda_mean],
        [*(r.s for r in rows), ""],
        [*("" if r.sl is None else r.sl for r in rows), summary.sl],
        [*("" if r.ap is None else r.ap for r in rows), summary.ap],
    ])
