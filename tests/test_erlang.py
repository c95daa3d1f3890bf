"""Erlang-A formulas and the pointwise stationary pipeline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from orbitq.model import ModelParams, ParameterError, Schedule, single_interval
from orbitq.fluid import integrate_schedule, total_arrival_rate
from orbitq.erlang import (
    ErlangAInput,
    abandonment_prob,
    psa_performance,
    service_level,
    steady_state,
    write_performance_csv,
)
from orbitq.validation import refine_schedule

OVERLOADED = ModelParams(lam=40.0, s=148, mu=0.25, theta=0.5, p=0.5, q=0.1,
                         delta_rd=0.05, delta_rc=0.01)


# ---------------------------------------------------------------------------
# Test-local reference: the birth-death chain truncated where its tail mass
# falls below 1e-10 (the headroom doubled up to 3 times), and P(served by
# tau) from uniformization of the tagged customer's phase chain. Exact to
# about 1e-10 wherever its cost is tractable.


def _reference_law(inp):
    n = inp.s + math.ceil(max(50.0, 10.0 * math.sqrt(inp.arrival_rate / inp.mu)
                                   + inp.arrival_rate / inp.theta))
    for _ in range(4):
        levels = np.arange(1, n + 1)
        death = inp.mu * np.minimum(levels, inp.s) + inp.theta * np.maximum(
            levels - inp.s, 0)
        logpi = np.concatenate(
            [[0.0], np.cumsum(math.log(inp.arrival_rate) - np.log(death))])
        pi = np.exp(logpi - logsumexp(logpi))
        if pi[-1] <= 1e-10:
            return pi
        n = inp.s + 2 * (n - inp.s)
    raise AssertionError(f"reference tail {pi[-1]:.3e} at n_max={n}")


def _reference_p_served_by(j_max, s, mu, theta, tau, tol=1e-8):
    """P(served by tau | j ahead) for j in 0..j_max: from k >= 1 ahead the
    count drops at rate s*mu + k*theta, from k = 0 the tagged customer
    enters service at rate s*mu, and it abandons at rate theta throughout."""
    if tau == 0.0:
        return np.zeros(j_max + 1)
    gamma = s * mu + j_max * theta + theta
    x = gamma * tau
    m_max = int(math.ceil(x + 10.0 * math.sqrt(x + 1.0) + 4.0 * math.log(1.0 / tol)))
    k = np.arange(j_max + 1)
    drop = (s * mu + k * theta) / gamma
    stay = 1.0 - drop - theta / gamma
    a = np.zeros(j_max + 1)
    out = np.zeros(j_max + 1)
    log_pois = -x
    log_fact = 0.0
    weight_left = 1.0 - math.exp(log_pois)
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
    return np.minimum(out + max(weight_left, 0.0) * a, 1.0)


def _reference_sl_ap(inp, tau):
    pi = _reference_law(inp)
    n = np.arange(len(pi))
    terms = np.ones(len(pi))
    if len(pi) > inp.s:
        terms[inp.s:] = _reference_p_served_by(len(pi) - 1 - inp.s, inp.s,
                                               inp.mu, inp.theta, tau)
    ap = inp.theta * float(pi @ np.maximum(n - inp.s, 0)) / inp.arrival_rate
    return float(pi @ terms), ap


class TestSteadyState:
    def test_theta_equals_mu_is_poisson(self):
        inp = ErlangAInput(arrival_rate=2.0, s=2, mu=1.0, theta=1.0, n_max=60)
        pi = steady_state(inp)
        grid = np.arange(len(pi))
        poisson = np.exp(grid * math.log(2.0) - 2.0
                         - np.array([math.lgamma(x + 1) for x in grid]))
        assert np.abs(pi - poisson).max() < 1e-10

    def test_zero_arrivals_degenerate(self):
        inp = ErlangAInput(arrival_rate=0.0, s=3, mu=1.0, theta=1.0, n_max=10)
        pi = steady_state(inp)
        assert pi[0] == 1.0
        assert pi[1:].max() == 0.0

    def test_distribution_normalized(self):
        inp = ErlangAInput(arrival_rate=50.0, s=148, mu=0.25, theta=0.5,
                           n_max=400)
        pi = steady_state(inp)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi.min() >= 0.0

    def test_short_law_is_a_prefix_of_a_long_one(self):
        # levels 0..105 carry about half the mass: they are not renormalised
        short = steady_state(ErlangAInput(arrival_rate=50.0, s=100, mu=0.25,
                                          theta=0.5, n_max=105))
        long = steady_state(ErlangAInput(arrival_rate=50.0, s=100, mu=0.25,
                                         theta=0.5, n_max=2000))
        assert len(short) == 106
        np.testing.assert_allclose(short, long[:106], rtol=1e-14, atol=0)
        assert long.sum() == pytest.approx(1.0, abs=1e-12)

    def test_levels_required(self):
        inp = ErlangAInput(arrival_rate=50.0, s=100, mu=0.25, theta=0.5)
        with pytest.raises(ParameterError, match="n_max"):
            steady_state(inp)

    def test_doubling_bounded(self, monkeypatch):
        # _series doubles its block of terms until a term is negligible and
        # refuses past MAX_TERMS. Just below s mu = 37 with
        # x = s mu / theta = 3.7e7 the series for T needs about 47,000 terms
        inp = ErlangAInput(arrival_rate=37.0 - 1e-9, s=148, mu=0.25, theta=1e-6)
        assert 0.0 < abandonment_prob(inp) < 1.0
        monkeypatch.setattr("orbitq.erlang.MAX_TERMS", 10_000)
        with pytest.raises(ParameterError, match="exceeds 10000 terms"):
            abandonment_prob(inp)

    def test_truncation_level_bounded_before_allocation(self):
        # theta = 1e-9: the queue holds about 3e9 callers, so a truncated
        # law would need about 300 GiB of levels; the closed form allocates
        # none. An overloaded M/M/s+M then abandons (lam - s mu) / lam
        inp = ErlangAInput(arrival_rate=40.0, s=148, mu=0.25, theta=1e-9)
        tracemalloc.start()
        try:
            ap = abandonment_prob(inp)
            sl = service_level(inp, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert ap == pytest.approx((40.0 - 37.0) / 40.0, abs=1e-3)
        assert 0.0 <= sl <= 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(arrival_rate=-1.0, s=2, mu=1.0, theta=1.0),
        dict(arrival_rate=1.0, s=0, mu=1.0, theta=1.0),
        dict(arrival_rate=1.0, s=2, mu=0.0, theta=1.0),
        dict(arrival_rate=1.0, s=2, mu=1.0, theta=-0.5),
        dict(arrival_rate=1.0, s=2, mu=1.0, theta=1.0, n_max=1),
    ])
    def test_input_validation(self, kwargs):
        with pytest.raises(ParameterError):
            ErlangAInput(**kwargs)


class TestMetrics:
    def test_frozen_abandonment_value(self):
        # theta = mu collapses to M/M/inf: AP = theta E[(N-s)^+] / lam
        # with N ~ Poisson(2), s = 2: E[(N-2)^+] = 2 e^-2... the whole
        # expression reduces to 2 exp(-2) / 2 * 1 ... kept as a frozen
        # regression value checked against the closed form.
        inp = ErlangAInput(arrival_rate=2.0, s=2, mu=1.0, theta=1.0)
        ap = abandonment_prob(inp)
        assert ap == pytest.approx(0.27067056647322535, rel=1e-14)
        n = np.arange(200)
        poisson = np.exp(n * math.log(2.0) - 2.0
                         - np.array([math.lgamma(x + 1) for x in n]))
        expected = float(poisson @ np.maximum(n - 2, 0)) / 2.0
        assert ap == pytest.approx(expected, rel=1e-10)

    def test_sl_at_zero_tau_is_no_wait_probability(self):
        inp = ErlangAInput(arrival_rate=30.0, s=20, mu=2.0, theta=1.0, n_max=20)
        pi = steady_state(inp)
        assert service_level(inp, 0.0) == pytest.approx(pi[:20].sum(), abs=1e-12)

    def test_sl_plus_ap_approaches_one(self):
        inp = ErlangAInput(arrival_rate=50.0, s=148, mu=0.25, theta=0.5)
        sl_inf = service_level(inp, 10000.0)
        ap = abandonment_prob(inp)
        assert sl_inf + ap == pytest.approx(1.0, abs=1e-6)

    def test_sl_monotone_in_tau(self):
        inp = ErlangAInput(arrival_rate=50.0, s=148, mu=0.25, theta=0.5)
        taus = np.linspace(0.0, 20.0, 21)
        sls = [service_level(inp, t) for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(sls, sls[1:]))

    def test_sl_monotone_in_staffing(self):
        sls = [service_level(
            ErlangAInput(arrival_rate=50.0, s=s, mu=0.25, theta=0.5), 0.5)
            for s in (120, 140, 160, 180, 200, 220)]
        assert all(b > a for a, b in zip(sls, sls[1:]))

    def test_ap_monotone_in_load(self):
        aps = [abandonment_prob(
            ErlangAInput(arrival_rate=lam, s=148, mu=0.25, theta=0.5))
            for lam in (30.0, 40.0, 50.0, 60.0)]
        assert all(b > a for a, b in zip(aps, aps[1:]))

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.5, 100.0),
        s=st.integers(1, 400),
        mu=st.floats(0.05, 2.0),
        theta=st.floats(0.01, 4.0),
        tau=st.floats(0.0, 5.0),
    )
    def test_matches_truncated_reference(self, lam, s, mu, theta, tau):
        inp = ErlangAInput(arrival_rate=lam, s=s, mu=mu, theta=theta)
        sl_ref, ap_ref = _reference_sl_ap(inp, tau)
        assert abs(service_level(inp, tau) - sl_ref) <= 1e-9
        assert abs(abandonment_prob(inp) - ap_ref) <= 1e-9 + 1e-7 * ap_ref

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.floats(1e-3, 1e5),
        s=st.integers(1, 1000),
        mu=st.floats(1e-3, 10.0),
        theta=st.floats(1e-6, 100.0),
        taus=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=4),
    )
    def test_identities_over_wide_ranges(self, lam, s, mu, theta, taus):
        inp = ErlangAInput(arrival_rate=lam, s=s, mu=mu, theta=theta)
        ap = abandonment_prob(inp)
        sls = [service_level(inp, t) for t in sorted(taus)]
        assert 0.0 <= ap <= 1.0
        assert all(0.0 <= sl <= 1.0 for sl in sls)
        assert all(b >= a - 1e-12 for a, b in zip(sls, sls[1:]))
        # SL(inf): every caller still waiting has abandoned or been served
        assert service_level(inp, 1e300) + ap == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_load_across_s_mu_with_long_patience(self):
        # below s mu = 37 T is summed term by term, from it on it is taken in
        # closed form, where at x = s mu / theta = 3.7e8 the three terms of
        # log T, each about 7e9, must not cancel to a 1e-6 error
        insts = [ErlangAInput(arrival_rate=lam, s=148, mu=0.25, theta=1e-7)
                 for lam in (37.0 - 1e-9, 37.0, 37.0 + 1e-9)]
        aps = [abandonment_prob(inp) for inp in insts]
        sls = [service_level(inp, 0.5) for inp in insts]
        assert aps[0] < aps[1] < aps[2]
        assert sls[0] > sls[1] > sls[2]

    # lam / theta underflows to 0 at theta = 4 and stays a denormal at 0.25
    @pytest.mark.parametrize("lam,theta", [(5e-324, 4.0), (5e-324, 0.25),
                                           (1e-300, 1.0)])
    def test_vanishing_arrival_rate(self, lam, theta):
        inp = ErlangAInput(arrival_rate=lam, s=3, mu=4.0, theta=theta)
        assert service_level(inp, 0.5) == 1.0
        assert abandonment_prob(inp) == 0.0

    def test_ap_zero_arrivals_undefined(self):
        inp = ErlangAInput(arrival_rate=0.0, s=2, mu=1.0, theta=1.0, n_max=10)
        with pytest.raises(ParameterError):
            abandonment_prob(inp)


class TestPipeline:
    def test_psa_on_refined_schedule(self):
        sch = refine_schedule(single_interval(OVERLOADED, 480.0), 60.0)
        perf = psa_performance(sch, tau=0.5)
        assert len(perf.intervals) == 8
        assert perf.intervals[0].sl > perf.intervals[-1].sl
        assert perf.intervals[0].ap < perf.intervals[-1].ap
        assert 0.0 < perf.sl < 1.0
        assert 0.0 < perf.ap < 1.0
        lo = min(r.sl for r in perf.intervals)
        hi = max(r.sl for r in perf.intervals)
        assert lo <= perf.sl <= hi

    # p = 1: above s the redial orbit returns every abandoning caller, and
    # the matrix A of the drift there is singular
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_interval_rate_matches_a_fine_trapezoid(self, p):
        # z_q crosses s = 148 inside the first interval and falls back below
        # the 175 agents of the last
        sch = Schedule(boundaries=(0.0, 20.0, 35.0, 60.0), lambdas=(40.0, 55.0, 20.0),
                       agents=(148, 150, 175), mu=0.25, theta=0.5, p=p, q=0.1,
                       delta_rd=0.05, delta_rc=0.01)
        perf = psa_performance(sch, tau=0.5)
        traj = integrate_schedule(sch, grid_step=0.001)
        rates = total_arrival_rate(traj, sch)
        orbit = rates.redial + rates.reconnect
        for row in perf.intervals:
            sel = (traj.grid >= row.t_start) & (traj.grid <= row.t_end)
            lam = sch.lambdas[row.index]
            trapezoid = lam + np.trapezoid(orbit[sel], traj.grid[sel]) / (row.t_end - row.t_start)
            assert row.lambda_mean == pytest.approx(trapezoid, rel=1e-9)

    def test_idle_interval_has_no_sl_or_ap(self):
        # lambda = 0 from the empty state: no inflow at all in interval 0
        sch = Schedule(boundaries=(0.0, 30.0, 60.0), lambdas=(0.0, 40.0),
                       agents=(148, 148), mu=0.25, theta=0.5, p=0.5, q=0.1,
                       delta_rd=0.05, delta_rc=0.01)
        perf = psa_performance(sch, tau=0.5)
        idle, busy = perf.intervals
        assert idle.lambda_mean == 0.0
        assert idle.sl is None and idle.ap is None
        # weight 0 in the aggregate
        assert perf.sl == pytest.approx(busy.sl, rel=1e-12)
        assert perf.ap == pytest.approx(busy.ap, rel=1e-12)

    def test_all_idle_rejected(self):
        sch = single_interval(OVERLOADED.with_interval(0.0, 2), 60.0)
        with pytest.raises(ParameterError, match="all intervals have zero"):
            psa_performance(sch, tau=0.5)

    def test_block_rates_add_up_to_the_interval_rate(self):
        # the integral over an interval is the sum of those over its blocks,
        # each taken in one step from the block's own start
        sch = single_interval(OVERLOADED, 480.0)
        whole = psa_performance(sch, tau=0.5).intervals[0]
        blocks = psa_performance(refine_schedule(sch, 7.0), tau=0.5).intervals
        assert len(blocks) == 69
        mean = sum(r.lambda_mean * (r.t_end - r.t_start) for r in blocks) / 480.0
        assert mean == pytest.approx(whole.lambda_mean, rel=1e-12)

    def test_performance_csv(self, tmp_path):
        sch = refine_schedule(single_interval(OVERLOADED, 480.0), 120.0)
        perf = psa_performance(sch, tau=0.5)
        path = tmp_path / "perf.csv"
        write_performance_csv(path, perf)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "interval,t_start,t_end,lambda_mean,s,sl,ap"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("aggregate,")
        cells = lines[-1].split(",")
        assert cells[4] == ""
        assert float(cells[5]) == pytest.approx(perf.sl)
