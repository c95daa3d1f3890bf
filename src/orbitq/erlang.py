"""M/M/s+M (Erlang-A) formulas, fed each interval's exact mean fluid arrival rate.

Closed forms in the regularised incomplete gamma functions P and Q
(Riordan 1962; Garnett, Mandelbaum & Reiman 2002). With x = s*mu/theta,
y = lambda/theta and a = lambda/mu, the masses below and from s relative
to pi_s are E = s! a^-s e^a Q(s, a) and T = Gamma(x+1) e^y y^-x P(x, y),
so pi_s = 1/(E + T); summing the waits (e^(-theta V) is Beta(x, j+1) with
j callers ahead) over the PASTA weights gives SL as one more incomplete
gamma difference. Where a closed form underflows (Q once a > s, P once
y < x, i.e. a < s) its sum is taken term by term. Masses are carried in
log space, so any load a float can express is safe from overflow.

The incomplete gamma functions come from ``scipy.special``, imported by
the functions that call them, so only an Erlang-A evaluation loads it:
``orbitq fluid`` and ``orbitq simulate`` run on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .model import ParameterError, Schedule, check_tau
from .fluid import interval_arrival_rates


@dataclass(frozen=True)
class ErlangAInput:
    """One stationary M/M/s+M instance.

    ``n_max`` is the last level :func:`steady_state` returns; SL and AP
    are exact and do not read it.
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


# most terms one series sums, 0.2 s on a 2-vCPU host. At r = lambda/(s*mu) < 1
# a series runs to about min(40/(1 - r), 9 sqrt(s*mu/theta)) terms, so only
# 1 - r < 2.4e-6 with s*mu/theta > 3.5e12 reaches it (at r >= 1:
# 1 - 1/r < 2.4e-6 with s > 3.5e12)
MAX_TERMS = 1 << 24


def _series(ratio) -> tuple[float, float]:
    """(sum_j c_j, sum_j j*c_j) over j >= 1, where c_j = ratio(1)*...*ratio(j)
    and ``ratio`` maps k >= 1 to factors in [0, 1] that do not grow with k.
    Stops once a term is below 1e-17 of the sum; raises past ``MAX_TERMS``."""
    total = moment = 0.0
    c, k0, size = 1.0, 1, 64
    while True:
        k = np.arange(k0, k0 + size, dtype=float)
        terms = c * np.cumprod(ratio(k))
        total += terms.sum()
        moment += k @ terms
        c = terms[-1]
        if c <= 1e-17 * total:
            return total, moment
        k0, size = k0 + size, min(2 * size, 65536)
        if k0 > MAX_TERMS:
            raise ParameterError(
                f"Erlang-A series exceeds {MAX_TERMS} terms: the patience "
                "1/theta is too long for a load this close to s*mu")


def _log_scale(x: float, y: float) -> float:
    """log(Gamma(x+1) e^y y^-x) for y >= x; from x = 100 by Stirling's series
    (next term below 1e-17), as three terms of size x log x would cancel."""
    if x < 100:
        from scipy.special import gammaln
        return gammaln(x + 1) + y - x * math.log(y)
    d = y - x
    return (0.5 * math.log(2 * math.pi * x)
            + (1 / 12 - (1 / 360 - 1 / (1260 * x * x)) / (x * x)) / x
            + d - x * math.log1p(d / x))


def _masses(inp: ErlangAInput):
    """x, y, log E, log T, log(E + T) and, below s (a < s), the series
    (T - 1, sum_j j*pi_{s+j}/pi_s) that gave T; None from s up."""
    from scipy.special import gammainc, gammaincc, gammaln
    s, lam = inp.s, inp.arrival_rate
    x, y, a = s * inp.mu / inp.theta, lam / inp.theta, lam / inp.mu
    if a < s:
        log_a = math.log(lam) - math.log(inp.mu)  # a itself may underflow
        log_e = gammaln(s + 1) - s * log_a + a + math.log(gammaincc(s, a))
        below = _series(lambda k: y / (x + k))
        log_t = math.log1p(below[0])
    else:
        log_e = math.log(_series(lambda k: np.maximum(s + 1 - k, 0.0) / a)[0])
        log_t = _log_scale(x, y) + math.log(gammainc(x, y))
        below = None
    return x, y, log_e, log_t, float(np.logaddexp(log_e, log_t)), below


def steady_state(inp: ErlangAInput) -> np.ndarray:
    """Levels 0..n_max of the exact stationary law of the M/M/s+M chain.

    Death rate at n is mu*min(n,s) + theta*(n-s)^+. The mass at s is
    1/(E + T); every other level follows from the birth-death ratios in
    log space. Raises :class:`ParameterError` when ``n_max`` is None.
    """
    if inp.n_max is None:
        raise ParameterError("steady_state needs n_max, the last level to return")
    if inp.arrival_rate == 0.0:
        pi = np.zeros(inp.n_max + 1)
        pi[0] = 1.0
        return pi
    levels = np.arange(1, inp.n_max + 1)
    death = inp.mu * np.minimum(levels, inp.s) + inp.theta * np.maximum(
        levels - inp.s, 0)
    logpi = np.concatenate(
        [[0.0], np.cumsum(math.log(inp.arrival_rate) - np.log(death))])
    return np.exp(logpi - logpi[inp.s] - _masses(inp)[4])


def abandonment_prob(inp: ErlangAInput) -> float:
    """AP = theta * E[(N - s)^+] / arrival_rate = pi_s (T(y - x) + x) / y."""
    if inp.arrival_rate <= 0:
        raise ParameterError("abandonment probability undefined for arrival_rate = 0")
    if inp.arrival_rate / inp.theta == 0.0:  # AP = O(y) rounds to 0
        return 0.0
    x, y, _, log_t, log_z, below = _masses(inp)
    if below is not None:
        ap = below[1] * math.exp(-log_z) / y
    else:
        ap = math.exp(log_t - log_z) * (y - x) / y + math.exp(-log_z) * x / y
    return float(min(ap, 1.0))  # rounding may leave a few ulps above 1


def service_level(inp: ErlangAInput, tau: float) -> float:
    """P(arriving customer is served within tau), by PASTA.

    SL = pi_s [E + x e^y y^-(x+1) Gamma(x+1) (P(x+1, y) - P(x+1, yc))]
    with yc = y e^(-theta tau). Below s the waiting part is written with
    the series of T at y and at yc, since P(x+1, y) may underflow there.
    """
    check_tau(tau)
    if inp.arrival_rate / inp.theta == 0.0:  # 1 - SL = O(y) rounds to 0
        return 1.0
    x, y, log_e, log_t, log_z, below = _masses(inp)
    decay = inp.theta * tau
    yc = y * math.exp(-decay)
    if below is not None:
        tc1, _ = _series(lambda k: yc / (x + k))
        # e^(y - yc) (yc / y)^x, at most 1 because y < x
        weight = math.exp(-y * math.expm1(-decay) - x * decay)
        wait = (below[0] - weight * tc1) * math.exp(-log_z) * x / y
    else:
        from scipy.special import gammainc, gammaincc
        if yc > x + 1:  # P near 1: take the difference on the Q side
            dp = gammaincc(x + 1, yc) - gammaincc(x + 1, y)
        else:
            dp = gammainc(x + 1, y) - gammainc(x + 1, yc)
        wait = math.exp(log_t - log_z) * x / y * dp / gammainc(x, y)
    return float(min(math.exp(log_e - log_z) + wait, 1.0))


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


def psa_performance(schedule: Schedule, tau: float) -> PerformanceSummary:
    """Pointwise-stationary Erlang-A over the schedule, from the empty state.

    Interval i gets its mean total arrival rate Lambda_i, exact from
    :func:`orbitq.fluid.interval_arrival_rates`, so no output grid is
    involved. SL/AP per interval come from the stationary formulas at
    (Lambda_i, s_i); an idle interval (Lambda_i = 0) has no SL or AP, so
    both are None. The aggregate weights intervals by expected arrivals
    Lambda_i * length.
    """
    rows = []
    for i, ((t0, t1, _, s), lam_i) in enumerate(
            zip(schedule.intervals(), interval_arrival_rates(schedule).tolist())):
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
