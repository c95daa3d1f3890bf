"""Exact fluid solve, closed-form stationary states, and arrival rates."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import orbitq
from orbitq.model import (
    EMPTY_STATE,
    FluidState,
    ModelParams,
    ParameterError,
    Schedule,
    schedule_grid,
    single_interval,
)
from orbitq.erlang import psa_performance
from orbitq.validation import two_peak_schedule
import orbitq.fluid as fluid
from orbitq.fluid import (
    _RTOL,
    _SCAN_STEPS,
    FluidIntegrationError,
    Regime,
    _expm,
    _modes,
    _regimes,
    _root,
    drift,
    integrate_schedule,
    interval_arrival_rates,
    stationary_state,
    total_arrival_rate,
    write_trajectory_csv,
)

FIXTURE = ModelParams(lam=2.0, s=2, mu=1.0, theta=1.0, p=0.3, q=0.2,
                      delta_rd=0.5, delta_rc=0.5)
OVERLOADED = ModelParams(lam=40.0, s=148, mu=0.25, theta=0.5, p=0.5, q=0.1,
                         delta_rd=0.05, delta_rc=0.01)


class TestStationary:
    def test_overloaded_closed_form(self):
        st_ = stationary_state(OVERLOADED)
        assert st_.regime is Regime.OVERLOADED
        assert st_.rho_hat == pytest.approx(40.0 / (0.9 * 0.25 * 148))
        assert st_.state.z_q == pytest.approx(174.8)
        assert st_.state.z_rd == pytest.approx(134.0)
        assert st_.state.z_rc == pytest.approx(370.0)

    def test_underloaded_closed_form(self):
        params = OVERLOADED.with_interval(20.0, 148)
        st_ = stationary_state(params)
        assert st_.regime is Regime.UNDERLOADED
        assert st_.state.z_q == pytest.approx(20.0 / (0.9 * 0.25))
        assert st_.state.z_rd == 0.0
        assert st_.state.z_rc == pytest.approx(0.1 * 0.25 * st_.state.z_q / 0.01)

    def test_critical_load_counts_as_overloaded(self):
        params = ModelParams(lam=2.0, s=4, mu=1.0, theta=1.0, p=0.3, q=0.5,
                             delta_rd=0.5, delta_rc=0.5)
        st_ = stationary_state(params)
        assert st_.rho_hat == pytest.approx(1.0)
        assert st_.regime is Regime.OVERLOADED
        assert st_.state.z_q == pytest.approx(4.0)
        assert st_.state.z_rd == 0.0

    def test_p_one_overloaded_rejected(self):
        params = ModelParams(lam=40.0, s=100, mu=0.25, theta=0.5, p=1.0,
                             q=0.1, delta_rd=0.05, delta_rc=0.01)
        with pytest.raises(ParameterError, match="p = 1"):
            stationary_state(params)

    def test_p_one_underloaded_is_fine(self):
        params = ModelParams(lam=10.0, s=100, mu=0.25, theta=0.5, p=1.0,
                             q=0.1, delta_rd=0.05, delta_rc=0.01)
        st_ = stationary_state(params)
        assert st_.regime is Regime.UNDERLOADED
        assert st_.state.z_rd == 0.0

    def test_drift_vanishes_at_stationary_point(self):
        for params in (FIXTURE, OVERLOADED, OVERLOADED.with_interval(20.0, 148)):
            z = stationary_state(params).state
            d = drift(z, params.lam, params.s, params)
            assert np.abs(d).max() < 1e-9 * max(1.0, z.z_q)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.1, 200.0),
        s=st.integers(1, 300),
        mu=st.floats(0.05, 4.0),
        theta=st.floats(0.05, 4.0),
        p=st.floats(0.0, 0.95),
        q=st.floats(0.0, 0.9),
        d_rd=st.floats(0.01, 2.0),
        d_rc=st.floats(0.01, 2.0),
    )
    def test_stationary_is_drift_root(self, lam, s, mu, theta, p, q, d_rd, d_rc):
        params = ModelParams(lam=lam, s=s, mu=mu, theta=theta, p=p, q=q,
                             delta_rd=d_rd, delta_rc=d_rc)
        z = stationary_state(params).state
        scale = max(1.0, z.z_q, z.z_rd, z.z_rc)
        assert np.abs(drift(z, lam, s, params)).max() < 1e-8 * scale


class TestIntegration:
    def test_converges_to_stationary(self):
        target = stationary_state(FIXTURE).state.as_array()
        traj = integrate_schedule(single_interval(FIXTURE, 300.0), grid_step=0.01)
        rel = np.abs(traj.final_state.as_array() - target) / np.maximum(target, 1e-12)
        assert rel.max() < 1e-6

    def test_grid_matches_schedule_grid(self):
        sch = Schedule(boundaries=(0.0, 7.0, 20.0), lambdas=(2.0, 3.0),
                       agents=(2, 3), mu=1.0, theta=1.0, p=0.3, q=0.2,
                       delta_rd=0.5, delta_rc=0.5)
        traj = integrate_schedule(sch, grid_step=0.1)
        assert np.array_equal(traj.grid, schedule_grid(sch, 0.1))

    def test_continuity_across_boundaries(self):
        sch = Schedule(boundaries=(0.0, 10.0, 20.0), lambdas=(2.0, 5.0),
                       agents=(2, 2), mu=1.0, theta=1.0, p=0.3, q=0.2,
                       delta_rd=0.5, delta_rc=0.5)
        traj = integrate_schedule(sch, grid_step=0.01)
        i = int(np.searchsorted(traj.grid, 10.0))
        assert traj.grid[i] == 10.0
        step_sizes = np.abs(np.diff(traj.values[i - 2:i + 2], axis=0)).max(axis=1)
        assert step_sizes.max() < 0.1

    def test_scale_equivariance(self):
        c = 10.0
        small = integrate_schedule(single_interval(FIXTURE, 50.0), grid_step=0.01)
        scaled = FIXTURE.with_interval(FIXTURE.lam * c, int(FIXTURE.s * c))
        big = integrate_schedule(single_interval(scaled, 50.0), grid_step=0.01)
        assert np.allclose(big.values, c * small.values, rtol=1e-12, atol=1e-9)

    def test_nonnegative_and_clamp_free(self):
        # from empty, z_q rises through s once and the path needs no clamp
        traj = integrate_schedule(single_interval(OVERLOADED, 480.0), grid_step=0.1)
        assert traj.values.min() >= 0.0
        assert traj.regime_switches == 1

    def test_initial_state_respected(self):
        z0 = FluidState(5.0, 1.0, 2.0)
        traj = integrate_schedule(single_interval(FIXTURE, 1.0), z0=z0, grid_step=0.01)
        assert traj.state_at(0) == z0


def reference_solution(schedule, z0, grid, max_step=np.inf):
    """Adaptive DOP853 on the same drift, restarted at each interval boundary.

    Between steps the values come from DOP853's dense output, whose error
    is not controlled; ``max_step`` bounds the steps where that matters.
    """
    out = np.empty((len(grid), 3))
    z = z0.as_array()
    out[0] = z
    for i, (t0, t1, lam, s) in enumerate(schedule.intervals()):
        params = schedule.params_for(i)
        nodes = np.flatnonzero((grid > t0) & (grid <= t1))
        sol = solve_ivp(
            lambda _t, y: drift(FluidState(*np.maximum(y, 0.0)), lam, s, params),
            (t0, t1), z, method="DOP853", t_eval=grid[nodes],
            rtol=1e-11, atol=1e-11, max_step=max_step)
        assert sol.success, sol.message
        out[nodes] = sol.y.T
        z = sol.y[:, -1]
    return out


def assert_matches_reference(schedule, z0=EMPTY_STATE, grid_step=0.1, floor=0.0,
                             max_step=np.inf):
    """Exact solve within 1e-5 of each column's largest value of the
    reference, plus ``floor`` times the largest value of any column."""
    exact = integrate_schedule(schedule, z0=z0, grid_step=grid_step)
    ref = reference_solution(schedule, z0, exact.grid, max_step)
    scale = np.abs(ref).max(axis=0)
    bound = 1e-5 * scale + floor * scale.max()
    assert (np.abs(exact.values - ref).max(axis=0) <= bound).all()


class TestReference:
    def test_rk4_matches_solve_ivp_on_fixture(self):
        assert_matches_reference(single_interval(FIXTURE, 480.0))

    def test_rk4_matches_solve_ivp_overloaded_long(self):
        assert_matches_reference(single_interval(OVERLOADED, 480.0))

    def test_rk4_matches_solve_ivp_across_boundaries(self):
        sch = Schedule(boundaries=(0.0, 30.0, 60.0, 90.0),
                       lambdas=(20.0, 45.0, 25.0), agents=(148, 140, 160),
                       mu=0.25, theta=0.5, p=0.5, q=0.1,
                       delta_rd=0.05, delta_rc=0.01)
        assert_matches_reference(sch, FluidState(100.0, 5.0, 50.0))

    @settings(max_examples=40, deadline=None)
    @given(
        # interval lengths in minutes, or in grid steps for a grid step
        # above 1, so that a step can span a whole interval
        lengths=st.lists(st.integers(1, 20), min_size=1, max_size=3),
        # magnitudes of order 1 and up, so that the reference's absolute
        # tolerance stays far below 1e-5 of every column's scale
        lams=st.lists(st.floats(1.0, 60.0), min_size=3, max_size=3),
        agents=st.lists(st.integers(1, 150), min_size=3, max_size=3),
        z0=st.tuples(*[st.just(0.0) | st.floats(1.0, 300.0)] * 3),
        grid_step=st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 1.0, 5.0, 10.0, 20.0]),
        rates=st.tuples(*[st.floats(0.01, 2.0)] * 4),
        tie=st.booleans(),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95),
        q=st.just(0.0) | st.floats(0.05, 0.9),
    )
    # z_q passes s = 128 (peak 128.3 at t = 1.14) and comes back between the
    # nodes at t = 1 and 1.25: only the turning point inside the step shows it
    @example(lengths=[2], lams=[19.0, 1.0, 1.0], agents=[128, 1, 1],
             z0=(0.0, 45.0, 174.0), grid_step=0.25,
             rates=(0.8125, 1.0, 0.875, 1.75), tie=False, p=1.0, q=0.375)
    # z_q rises past s = 11, falls back below it at t = 3.1 and rises again
    # inside one 5-minute step: the drift is positive at both of its ends
    @example(lengths=[1], lams=[3.0, 1.0, 1.0], agents=[11, 1, 1],
             z0=(0.0, 13.0, 0.0), grid_step=5.0,
             rates=(0.5, 1.0, 1.0, 0.5), tie=False, p=0.0, q=0.5)
    # below s, z_q passes s = 1 at t = 0.5, turns at t = 1 and comes back
    # onto s within rounding by the end of the 20-minute step, its drift
    # decayed below rounding: no sign test at the step's ends sees the pass
    @example(lengths=[1], lams=[2.0, 1.0, 1.0], agents=[1, 1, 1],
             z0=(0.0, 0.0, 1.0), grid_step=20.0,
             rates=(2.0, 1.0, 1.0, 1.0), tie=True, p=0.5, q=0.0)
    def test_exact_matches_solve_ivp_property(self, lengths, lams, agents, z0,
                                              grid_step, rates, tie, p, q):
        # tie: delta_rd = mu = theta = delta_rc, where the regime matrices
        # have repeated eigenvalues
        mu, theta, d_rd, d_rc = (rates[0],) * 4 if tie else rates
        m = len(lengths)
        unit = max(grid_step, 1.0)
        sch = Schedule(boundaries=tuple(float(unit * b) for b in np.cumsum([0, *lengths])),
                       lambdas=tuple(lams[:m]), agents=tuple(agents[:m]),
                       mu=mu, theta=theta, p=p, q=q, delta_rd=d_rd, delta_rc=d_rc)
        # Columns far smaller than the others need a floor: one that is
        # identically zero (q = 0, say) is matched only up to rounding, and
        # one filled by a short pass of z_q above s only up to the error of
        # the reference's steps across that kink (1.6e-8 against the exact
        # 1.1e-6 in one case). Bounded steps keep the reference's dense
        # output accurate for a column of order 1e-3 next to one of order 10.
        assert_matches_reference(sch, FluidState(*z0), grid_step, floor=1e-7,
                                 max_step=min(grid_step, 1.0))

    def test_crossing_after_the_scan_cap(self):
        # z_q rises through s = 10 near t = 48, past the first scan of
        # _SCAN_STEPS steps of 0.01 minutes
        params = ModelParams(lam=0.55, s=10, mu=0.05, theta=0.5, p=0.5, q=0.0,
                             delta_rd=0.05, delta_rc=0.01)
        sch = single_interval(params, 60.0)
        traj = integrate_schedule(sch, grid_step=0.01)
        assert traj.regime_switches == 1
        assert np.argmax(traj.z_q > params.s) > _SCAN_STEPS
        assert_matches_reference(sch, grid_step=0.01, floor=1e-7)

    def test_overflowing_state_raises(self):
        # the true path tends to lam / (theta (1 - p)) = 4e308, past the
        # largest double
        params = OVERLOADED.with_interval(1e308, 148)
        with pytest.raises(FluidIntegrationError, match="non-finite"):
            integrate_schedule(single_interval(params, 480.0), grid_step=0.1)

    def test_orbits_without_feedback_stay_nonnegative(self):
        # with p = q = 0 and z_q below s nothing enters either orbit, but the
        # exponentials leave rounding of order -1e-17 there; an idle second
        # interval would hand that to the Erlang-A step as a negative rate
        sch = Schedule(boundaries=(0.0, 10.0, 20.0), lambdas=(1.0, 0.0),
                       agents=(4, 4), mu=1.0, theta=1.0, p=0.0, q=0.0,
                       delta_rd=2.0, delta_rc=1.5)
        traj = integrate_schedule(sch, grid_step=1.0)
        assert traj.values.min() >= 0.0
        # the Erlang-A step then sees no inflow at all in the idle interval,
        # not a negative one, and reports it as idle
        perf = psa_performance(sch, tau=0.5)
        idle = perf.intervals[1]
        assert idle.lambda_mean == 0.0 and idle.sl is None and idle.ap is None

    def test_zero_arrivals_from_empty_state_is_exact(self):
        params = FIXTURE.with_interval(0.0, 2)
        traj = integrate_schedule(single_interval(params, 5.0), grid_step=0.1)
        assert np.all(traj.values == 0.0)

    def test_zero_arrivals_drains(self):
        params = FIXTURE.with_interval(0.0, 2)
        traj = integrate_schedule(single_interval(params, 5.0),
                                  z0=FluidState(3.0, 1.0, 1.0), grid_step=0.1)
        assert traj.values[-1].max() < 3.0 * np.exp(-0.5 * 5.0) * 5
        assert np.all(np.diff(traj.z_q) <= 1e-12)


def reference_expm(m):
    """scipy's expm of m, read off the exponential of [[m, 0], [I, 0]],
    which is [[expm(m), 0], [*, I]]. The border keeps scipy off its path
    for triangular input, whose superdiagonal formula (e^a - e^b) / (a - b)
    loses every digit where two diagonal entries are an ulp apart: 0.5 for
    e^-1 in the example below."""
    n = len(m)
    border = np.block([[m, np.zeros((n, n))], [np.eye(n), np.zeros((n, n))]])
    return expm(border)[:n, :n]


class TestExpm:
    @settings(max_examples=200, deadline=None)
    @given(
        # sampled values make ties such as delta_rd = theta likely
        rates=st.tuples(*[st.sampled_from([0.05, 0.5, 1.0]) | st.floats(0.01, 4.0)] * 4),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95),
        q=st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95),
        lam=st.just(0.0) | st.floats(0.01, 1e6),
        s=st.integers(1, 10_000),
        # 1-norm of the balanced exponent, 1e-6 .. 1e3
        log_norm=st.floats(-6.0, 3.0),
    )
    # theta and delta_rd one ulp apart: above s with p = q = 0 the state
    # block is upper triangular with two diagonal entries that close
    @example(rates=(0.05, 0.010000000000000002, 0.01, 0.05), p=0.0, q=0.0, lam=0.0,
             s=1, log_norm=1.0)
    def test_matches_scipy(self, rates, p, q, lam, s, log_norm):
        mu, theta, d_rd, d_rc = rates
        sch = SimpleNamespace(mu=mu, theta=theta, p=p, q=q, delta_rd=d_rd, delta_rc=d_rc)
        for full, _ in _regimes(lam, s, sch):
            # the 5x5 generator with the integral row, and the 4x4 one of
            # the state alone
            for gen in (full, np.delete(np.delete(full, 3, 0), 3, 1)):
                # the exact similarity that brings the forcing column to the
                # size of the rest, by a power of two as in _expm
                col = np.ones(len(gen))
                col[-1] = 2.0 ** (math.frexp(abs(gen[:-1, -1]).max())[1]
                                  - math.frexp(abs(gen[:-1, :-1]).max())[1])
                m = gen * (10.0 ** log_norm / abs(gen / col).sum(axis=0).max())
                ref = reference_expm(m / col)
                norm = abs(m / col).sum(axis=0).max()
                gap = abs(_expm(m)[:-1] / col - ref[:-1]).sum(axis=0).max()
                assert gap <= 1e-12 * max(1.0, norm) * abs(ref).sum(axis=0).max()


# the two-peak day of the validation tables, staffed per interval
TWO_PEAK_BASE = ModelParams(lam=40.0, s=1, mu=0.25, theta=0.5, p=0.5, q=0.1,
                            delta_rd=0.05, delta_rc=0.01)
# interval_arrival_rates and regime switches on two_peak_schedule(TWO_PEAK_BASE,
# rho_hat) as the solve gave them with each crossing search started at the
# span's midpoint
TWO_PEAK_FROZEN = {
    0.9: (6, (22.23371179478306, 30.83074608818527, 41.52366935950535,
              52.31435736499779, 59.138097532672305, 55.82023987812754,
              48.216532965741266, 42.31736730944617, 40.26687794873749,
              46.26642827518276, 52.42156095410709, 56.676413445512516,
              50.870654820589266, 41.00583781747426, 32.81627446452264,
              24.57269838389747)),
    1.2: (5, (22.453686672857494, 31.800484766072476, 43.343943656734695,
              55.15287145048714, 63.25183924085452, 61.41585265141781,
              54.71599400103276, 48.951226452982574, 46.6017268741594,
              51.98738299619996, 58.05326207863582, 62.64370779416939,
              57.683499380287884, 48.045472747251125, 39.38473280854143,
              30.31416462317561)),
    1.5: (3, (23.218878408411864, 34.34845925207274, 47.50411043576404,
              60.995100065347685, 70.55779466828137, 69.35496718442008,
              62.34165407929197, 55.74102743662779, 52.60734176466603,
              57.9880932677246, 64.61691534614711, 69.8602832829938,
              64.938719658237, 54.4741495716093, 44.69575207928622,
              34.4467184843879)),
}


class TestCrossingSearch:
    @pytest.mark.parametrize("rho", sorted(TWO_PEAK_FROZEN))
    def test_two_peak_day_keeps_its_values(self, rho):
        switches, rates = TWO_PEAK_FROZEN[rho]
        sch = two_peak_schedule(TWO_PEAK_BASE, rho)
        assert np.allclose(interval_arrival_rates(sch), rates, rtol=1e-12, atol=0.0)
        assert integrate_schedule(sch).regime_switches == switches

    def test_one_exponential_per_step_and_root(self, monkeypatch):
        # the counts are deterministic: with each search started at the root
        # of the modal form the exact test mostly holds at once, where a start
        # at the midpoint took 180 exponentials for 16 intervals and 20 roots
        calls = {"_expm": 0, "_root": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(fluid, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(fluid, name, counted)
        sch = two_peak_schedule(TWO_PEAK_BASE, 0.9)
        interval_arrival_rates(sch)
        assert calls["_root"] > 0
        assert calls["_expm"] <= 2 * (sch.m + calls["_root"])

    @pytest.mark.parametrize("rates, p, q, side, z0, modal", [
        # the tie with p = q = 0: a defective state block on both sides,
        # so the search starts at the midpoint
        ((0.5,) * 4, 0.0, 0.0, 0, (0.0, 0.0, 0.0), False),
        ((0.5,) * 4, 0.0, 0.0, 1, (6.0, 0.0, 0.0), False),
        # the tie with p, q > 0: repeated rates but distinct eigenvalues
        ((0.5,) * 4, 0.5, 0.5, 0, (0.0, 0.0, 0.0), True),
        # p = 1 above s: a zero eigenvalue
        ((0.5, 0.5, 0.05, 0.01), 1.0, 0.1, 1, (6.0, 0.0, 0.0), True),
    ])
    def test_degenerate_spectra(self, rates, p, q, side, z0, modal):
        mu, theta, d_rd, d_rc = rates
        sch = SimpleNamespace(mu=mu, theta=theta, p=p, q=q, delta_rd=d_rd, delta_rc=d_rc)
        # lam = 3 fills the queue past s = 4 below it; above it, mu s = 2 > lam = 1
        # drains it back to s
        gen, probes = _regimes(3.0 if side == 0 else 1.0, 4, sch)[side]
        row, w, span = probes[0], np.array([*z0, 0.0, 1.0]), 40.0
        modes = _modes(gen)
        assert (modes is not None) == modal
        if modal and p == 1.0:
            assert 0.0 in modes[0]

        def exact(t):
            return row @ reference_expm(t * gen) @ w

        assert exact(0.0) <= 0.0 < exact(span)
        lo, hi = 0.0, span
        for _ in range(60):
            lo, hi = (lo, 0.5 * (lo + hi)) if exact(0.5 * (lo + hi)) > 0 else (0.5 * (lo + hi), hi)
        t, wt = _root(row, gen, w, span, modes)
        assert abs(row @ wt) <= _RTOL * (abs(row) @ abs(wt))
        assert np.array_equal(wt, _expm(t * gen) @ w)
        assert abs(t - 0.5 * (lo + hi)) <= 1e-9 * span


def test_fluid_solve_imports_no_scipy_linalg():
    # each scipy.linalg call can stall for milliseconds on a busy host, so
    # a fluid solve, as the CLI runs it, must not even load that module
    code = ("import sys; from orbitq.cli import integrate_schedule; "
            "from orbitq.model import ModelParams, single_interval; "
            "p = ModelParams(lam=40.0, s=148, mu=0.25, theta=0.5, p=0.5, q=0.1, "
            "delta_rd=0.05, delta_rc=0.01); "
            "assert integrate_schedule(single_interval(p, 60.0)).regime_switches == 1; "
            "print('scipy.linalg' in sys.modules)")
    src = str(Path(orbitq.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


class TestRates:
    def test_fields_are_arrays_on_the_grid(self):
        sch = single_interval(OVERLOADED, 60.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        rates = total_arrival_rate(traj, sch)
        assert np.array_equal(rates.t, traj.grid)
        for field in (rates.total, rates.fresh, rates.redial, rates.reconnect):
            assert field.shape == traj.grid.shape

    def test_decomposition_sums_exactly(self):
        sch = single_interval(OVERLOADED, 60.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        rates = total_arrival_rate(traj, sch)
        assert np.array_equal(rates.total,
                              rates.fresh + rates.redial + rates.reconnect)

    def test_fresh_component_right_continuous(self):
        sch = Schedule(boundaries=(0.0, 5.0, 10.0), lambdas=(2.0, 7.0),
                       agents=(2, 2), mu=1.0, theta=1.0, p=0.3, q=0.2,
                       delta_rd=0.5, delta_rc=0.5)
        traj = integrate_schedule(sch, grid_step=0.1)
        rates = total_arrival_rate(traj, sch)
        at_boundary = np.flatnonzero(rates.t == 5.0)
        assert len(at_boundary) == 1
        assert rates.fresh[at_boundary[0]] == 7.0
        assert rates.fresh[at_boundary[0] - 1] == 2.0
        assert rates.fresh[0] == 2.0
        assert rates.fresh[-1] == 7.0  # the horizon belongs to the last interval

    def test_fresh_component_matches_interval_index(self):
        sch = Schedule(boundaries=(0.0, 0.3, 1.0, 2.5), lambdas=(2.0, 7.0, 4.0),
                       agents=(2, 3, 2), mu=1.0, theta=1.0, p=0.3, q=0.2,
                       delta_rd=0.5, delta_rc=0.5)
        traj = integrate_schedule(sch, grid_step=0.01)
        rates = total_arrival_rate(traj, sch)
        expected = [sch.lambdas[sch.interval_index(t)] for t in traj.grid]
        assert rates.fresh.tolist() == expected

    def test_orbit_components_proportional(self):
        sch = single_interval(FIXTURE, 30.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        rates = total_arrival_rate(traj, sch)
        assert np.array_equal(rates.redial, FIXTURE.delta_rd * traj.z_rd)
        assert np.array_equal(rates.reconnect, FIXTURE.delta_rc * traj.z_rc)

    def test_interval_rates_at_the_stationary_state(self):
        # 5,000 minutes take the path to its stationary point up to
        # e^(-delta_rc t) = 2e-22, so each later interval's mean rate is the
        # rate there
        sch = Schedule(boundaries=(0.0, 5000.0, 5030.0, 5060.0), lambdas=(40.0,) * 3,
                       agents=(148,) * 3, mu=0.25, theta=0.5, p=0.5, q=0.1,
                       delta_rd=0.05, delta_rc=0.01)
        z = stationary_state(OVERLOADED).state
        rates = interval_arrival_rates(sch)
        expected = OVERLOADED.lam + OVERLOADED.delta_rd * z.z_rd + OVERLOADED.delta_rc * z.z_rc
        assert rates.shape == (3,)
        assert np.allclose(rates[1:], expected, rtol=1e-12, atol=0.0)

    def test_span_outside_schedule_rejected(self):
        sch = single_interval(FIXTURE, 30.0)
        traj = integrate_schedule(single_interval(FIXTURE, 60.0), grid_step=0.1)
        with pytest.raises(ParameterError):
            total_arrival_rate(traj, sch)


class TestCsv:
    def test_round_trippable_rows(self, tmp_path):
        sch = single_interval(FIXTURE, 5.0)
        traj = integrate_schedule(sch, grid_step=0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, sch)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "t,z_q,z_rd,z_rc,lambda_total,lambda_fresh,lambda_rd,lambda_rc"
        assert len(lines) == 1 + len(traj)
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0]
