"""Erlang-A formulas and the pointwise stationary pipeline."""

import math

import numpy as np
import pytest

from orbitq.model import ModelParams, ParameterError, Schedule, single_interval
from orbitq.fluid import integrate_schedule, total_arrival_rate
from orbitq.erlang import (
    MAX_LEVELS,
    ErlangAInput,
    TruncationError,
    abandonment_prob,
    psa_performance,
    service_level,
    steady_state,
    write_performance_csv,
)
from orbitq.validation import refine_schedule

OVERLOADED = ModelParams(lam=40.0, s=148, mu=0.25, theta=0.5, p=0.5, q=0.1,
                         delta_rd=0.05, delta_rc=0.01)


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
        inp = ErlangAInput(arrival_rate=50.0, s=148, mu=0.25, theta=0.5)
        pi = steady_state(inp)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi.min() >= 0.0

    def test_tail_truncation_raises_for_explicit_small_n(self):
        inp = ErlangAInput(arrival_rate=50.0, s=100, mu=0.25, theta=0.5,
                           n_max=105)
        with pytest.raises(TruncationError):
            steady_state(inp)

    def test_default_n_max_auto_extends(self):
        inp = ErlangAInput(arrival_rate=50.0, s=100, mu=0.25, theta=0.5)
        pi = steady_state(inp)
        assert pi[-1] <= 1e-10

    def test_truncation_level_bounded_before_allocation(self):
        # default n_max = 148 + 40 / 1e-9: about 300 GiB of levels
        inp = ErlangAInput(arrival_rate=40.0, s=148, mu=0.25, theta=1e-9)
        with pytest.raises(ParameterError, match="exceeds the limit"):
            steady_state(inp)

    def test_explicit_n_max_bounded(self):
        inp = ErlangAInput(arrival_rate=0.0, s=2, mu=1.0, theta=1.0,
                           n_max=MAX_LEVELS + 1)
        with pytest.raises(ParameterError, match="exceeds the limit"):
            steady_state(inp)

    def test_doubling_bounded(self, monkeypatch):
        # mean excess (100 - 1) / 0.01 sits two standard deviations below
        # the default level, so one doubling is needed
        inp = ErlangAInput(arrival_rate=100.0, s=1, mu=1.0, theta=0.01)
        assert len(steady_state(inp)) > inp.default_n_max() + 1
        monkeypatch.setattr("orbitq.erlang.MAX_LEVELS", inp.default_n_max())
        with pytest.raises(ParameterError, match="exceeds the limit"):
            steady_state(inp)

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
        inp = ErlangAInput(arrival_rate=30.0, s=20, mu=2.0, theta=1.0)
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

    def test_ap_zero_arrivals_undefined(self):
        inp = ErlangAInput(arrival_rate=0.0, s=2, mu=1.0, theta=1.0, n_max=10)
        with pytest.raises(ParameterError):
            abandonment_prob(inp)


class TestPipeline:
    def test_psa_on_refined_schedule(self):
        sch = refine_schedule(single_interval(OVERLOADED, 480.0), 60.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        perf = psa_performance(sch, total_arrival_rate(traj, sch), tau=0.5)
        assert len(perf.intervals) == 8
        assert perf.intervals[0].sl > perf.intervals[-1].sl
        assert perf.intervals[0].ap < perf.intervals[-1].ap
        assert 0.0 < perf.sl < 1.0
        assert 0.0 < perf.ap < 1.0
        lo = min(r.sl for r in perf.intervals)
        hi = max(r.sl for r in perf.intervals)
        assert lo <= perf.sl <= hi

    def test_interval_rate_is_fresh_plus_orbit_average(self):
        sch = single_interval(OVERLOADED, 60.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        rates = total_arrival_rate(traj, sch)
        perf = psa_performance(sch, rates, tau=0.5)
        expected = np.trapezoid(rates.total, traj.grid) / 60.0
        assert perf.intervals[0].lambda_mean == pytest.approx(expected, rel=1e-12)

    def test_idle_interval_has_no_sl_or_ap(self):
        # lambda = 0 from the empty state: no inflow at all in interval 0
        sch = Schedule(boundaries=(0.0, 30.0, 60.0), lambdas=(0.0, 40.0),
                       agents=(148, 148), mu=0.25, theta=0.5, p=0.5, q=0.1,
                       delta_rd=0.05, delta_rc=0.01)
        traj = integrate_schedule(sch, grid_step=0.1)
        perf = psa_performance(sch, total_arrival_rate(traj, sch), tau=0.5)
        idle, busy = perf.intervals
        assert idle.lambda_mean == 0.0
        assert idle.sl is None and idle.ap is None
        # weight 0 in the aggregate
        assert perf.sl == pytest.approx(busy.sl, rel=1e-12)
        assert perf.ap == pytest.approx(busy.ap, rel=1e-12)

    def test_all_idle_rejected(self):
        sch = single_interval(OVERLOADED.with_interval(0.0, 2), 60.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        with pytest.raises(ParameterError, match="all intervals have zero"):
            psa_performance(sch, total_arrival_rate(traj, sch), tau=0.5)

    def test_span_mismatch_rejected(self):
        sch = single_interval(OVERLOADED, 60.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        rates = total_arrival_rate(traj, sch)
        other = single_interval(OVERLOADED, 120.0)
        with pytest.raises(ParameterError):
            psa_performance(other, rates, tau=0.5)

    def test_performance_csv(self, tmp_path):
        sch = refine_schedule(single_interval(OVERLOADED, 480.0), 120.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        perf = psa_performance(sch, total_arrival_rate(traj, sch), tau=0.5)
        path = tmp_path / "perf.csv"
        write_performance_csv(path, perf)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "interval,t_start,t_end,lambda_mean,s,sl,ap"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("aggregate,")
        cells = lines[-1].split(",")
        assert cells[4] == ""
        assert float(cells[5]) == pytest.approx(perf.sl)
