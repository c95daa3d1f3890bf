"""Jump-chain simulator: determinism, conservation, transitions, aggregation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from orbitq import simulation
from orbitq.model import (
    MAX_GRID_NODES,
    ModelParams,
    ParameterError,
    Schedule,
    single_interval,
)
from orbitq.simulation import (
    RNG_NAME,
    SimulationError,
    measure_sl_ap,
    run_replications,
    simulate_path,
    verify_conservation,
    write_metadata_json,
    write_path_csv,
    write_records_csv,
    write_summary_csv,
)

# status codes of SimOutput.rec_status
IN_SERVICE, SERVED, ABANDONED = 1, 2, 3

FIXTURE = ModelParams(lam=2.0, s=2, mu=1.0, theta=1.0, p=0.3, q=0.2,
                      delta_rd=0.5, delta_rc=0.5)


def fixture_schedule(horizon=100.0):
    return single_interval(FIXTURE, horizon)


class TestDeterminism:
    def test_same_seed_same_path(self):
        a = simulate_path(fixture_schedule(), seed=11, grid_step=0.5)
        b = simulate_path(fixture_schedule(), seed=11, grid_step=0.5)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.rec_arrival, b.rec_arrival)
        assert np.array_equal(a.rec_status, b.rec_status)
        assert a.n_events == b.n_events

    def test_different_seeds_differ(self):
        a = simulate_path(fixture_schedule(), seed=11, grid_step=0.5)
        b = simulate_path(fixture_schedule(), seed=12, grid_step=0.5)
        assert not np.array_equal(a.values, b.values)

    def test_grid_step_does_not_change_events(self):
        coarse = simulate_path(fixture_schedule(), seed=3, grid_step=1.0)
        fine = simulate_path(fixture_schedule(), seed=3, grid_step=0.25)
        assert coarse.n_events == fine.n_events
        assert np.array_equal(coarse.rec_wait, fine.rec_wait, equal_nan=True)
        assert np.array_equal(coarse.values, fine.values[::4])


class TestConservation:
    def test_verify_runs_on_output(self):
        out = simulate_path(fixture_schedule(), seed=5)
        verify_conservation(out)

    def test_initial_contents_counted(self):
        out = simulate_path(fixture_schedule(), seed=5, initial=(4, 3, 2))
        verify_conservation(out)
        assert out.z_q[0] + out.d_s[0] + out.d_a[0] >= 4

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 31),
        lam=st.floats(0.0, 8.0),
        s=st.integers(1, 5),
        p=st.floats(0.0, 1.0),
        q=st.floats(0.0, 0.9),
    )
    def test_conservation_random_models(self, seed, lam, s, p, q):
        params = ModelParams(lam=lam, s=s, mu=1.3, theta=0.7, p=p, q=q,
                             delta_rd=0.4, delta_rc=0.6)
        out = simulate_path(single_interval(params, 40.0), seed=seed)
        verify_conservation(out)


class TestDynamics:
    def test_no_orbits_when_p_and_q_zero(self):
        params = ModelParams(lam=4.0, s=2, mu=1.0, theta=1.0, p=0.0, q=0.0,
                             delta_rd=0.5, delta_rc=0.5)
        out = simulate_path(single_interval(params, 200.0), seed=9)
        assert out.z_rd.max() == 0
        assert out.z_rc.max() == 0
        assert out.e_rd[-1] == 0
        assert out.e_rc[-1] == 0
        assert np.all(out.rec_class == 0)

    def test_zero_arrivals_empty_system(self):
        params = FIXTURE.with_interval(0.0, 2)
        out = simulate_path(single_interval(params, 50.0), seed=1)
        assert len(out.rec_arrival) == 0
        assert out.values.max() == 0.0

    def test_census_matches_record_outcomes(self):
        out = simulate_path(fixture_schedule(), seed=21)
        assert np.sum(out.rec_status == SERVED) == out.d_s[-1]
        assert np.sum(out.rec_status == ABANDONED) == out.d_a[-1]

    def test_served_waits_nonnegative_and_consistent(self):
        out = simulate_path(fixture_schedule(), seed=21)
        served = out.rec_status == SERVED
        abandoned = out.rec_status == ABANDONED
        assert served.any() and abandoned.any()
        assert np.allclose(out.rec_sstart[served],
                           out.rec_arrival[served] + out.rec_wait[served],
                           rtol=1e-12, atol=1e-12)
        assert np.all(out.rec_wait[served] >= 0)
        assert np.all(out.rec_send[served] > out.rec_sstart[served])
        assert np.all(out.rec_wait[abandoned] > 0)

    def test_fcfs_for_fresh_only_model(self):
        params = ModelParams(lam=4.0, s=2, mu=1.0, theta=0.001, p=0.0, q=0.0,
                             delta_rd=0.5, delta_rc=0.5)
        out = simulate_path(single_interval(params, 100.0), seed=2)
        served = out.rec_status == SERVED
        # records are in arrival order, so FCFS means nondecreasing starts
        assert np.all(np.diff(out.rec_arrival) >= 0)
        assert np.all(np.diff(out.rec_sstart[served]) >= 0)

    def test_staffing_decrease_without_preemption(self):
        sch = Schedule(boundaries=(0.0, 50.0, 100.0), lambdas=(6.0, 6.0),
                       agents=(6, 1), mu=0.1, theta=0.01, p=0.0, q=0.0,
                       delta_rd=0.5, delta_rc=0.5)
        out = simulate_path(sch, seed=4)
        verify_conservation(out)
        started = (out.rec_status == IN_SERVICE) | (out.rec_status == SERVED)
        start = out.rec_sstart[started]
        # a service still running at the horizon has no end yet
        end = np.nan_to_num(out.rec_send[started], nan=np.inf)
        # no preemption: services begun under s=6 run on past the decrease
        assert np.any((start < 50.0) & (end > 50.0))
        # with s=1, a service starts only once every other one has ended
        late = np.flatnonzero(start >= 50.0)
        assert late.size > 0
        for i in late:
            running = (start <= start[i]) & (end > start[i])
            running[i] = False
            assert not running.any()

    def test_abandoner_is_uniform_among_waiting(self):
        # one agent kept busy for the whole run, so every caller behind it
        # waits until its own Exp(theta) patience runs out: the waits of
        # the abandoned are Exp(theta) only if the abandoner is picked
        # uniformly among the waiting, not by queue position
        params = ModelParams(lam=5.0, s=1, mu=1e-3, theta=1.0, p=0.0, q=0.0,
                             delta_rd=0.5, delta_rc=0.5)
        out = simulate_path(single_interval(params, 2000.0), seed=2024)
        waits = out.rec_wait[out.rec_status == ABANDONED]
        assert waits.size > 5000
        se = waits.std(ddof=1) / math.sqrt(waits.size)
        assert abs(waits.mean() - 1.0 / params.theta) <= 4.0 * se
        exp_theta = stats.expon(scale=1.0 / params.theta)
        assert stats.kstest(waits, exp_theta.cdf).pvalue > 1e-3

    def test_event_cap_raises(self):
        with pytest.raises(SimulationError, match="event budget"):
            simulate_path(fixture_schedule(1000.0), seed=1, max_events=50)


class TestTransitions:
    """n_events counts transitions: one per arrival, completion,
    abandonment or orbit exit, and nothing else."""

    @staticmethod
    def assert_counts_transitions(out):
        assert out.n_events == (out.pi_lam[-1] + out.d_s[-1] + out.d_a[-1]
                                + out.d_rd[-1] + out.d_rc[-1])

    def test_fixture(self):
        self.assert_counts_transitions(simulate_path(fixture_schedule(), seed=17))

    def test_staffing_drop_and_idle_interval(self):
        sch = Schedule(boundaries=(0.0, 40.0, 80.0, 120.0),
                       lambdas=(6.0, 0.0, 6.0), agents=(6, 1, 3),
                       mu=0.1, theta=0.2, p=0.6, q=0.3,
                       delta_rd=0.7, delta_rc=0.9)
        out = simulate_path(sch, seed=17, initial=(3, 2, 2))
        self.assert_counts_transitions(out)
        # the idle interval still has moves: services, abandonments, exits
        mid = (out.grid > 40.0) & (out.grid <= 80.0)
        assert out.pi_lam[mid].min() == out.pi_lam[mid].max()
        assert out.d_s[mid][-1] > out.d_s[mid][0]


class TestSlAp:
    def test_counts_by_hand(self):
        out = simulate_path(fixture_schedule(200.0), seed=13)
        sl, ap = measure_sl_ap(out, tau=0.5)
        n_s = n_a = n_sl = 0
        for status, wait in zip(out.rec_status, out.rec_wait):
            n_s += status == SERVED
            n_a += status == ABANDONED
            n_sl += status == SERVED and wait <= 0.5
        assert ap == pytest.approx(n_a / (n_s + n_a))
        assert sl == pytest.approx(n_sl / (n_s + n_a))

    def test_window_restricts_attempts(self):
        out = simulate_path(fixture_schedule(200.0), seed=13)
        sl_all, ap_all = measure_sl_ap(out, tau=0.5)
        sl_win, ap_win = measure_sl_ap(out, tau=0.5, window=(50.0, 150.0))
        assert (sl_win, ap_win) != (sl_all, ap_all)

    def test_empty_raises(self):
        params = FIXTURE.with_interval(0.0, 2)
        out = simulate_path(single_interval(params, 10.0), seed=1)
        with pytest.raises(SimulationError):
            measure_sl_ap(out, tau=0.5)


class TestReplications:
    def test_shapes_and_seed_layout(self):
        summary = run_replications(fixture_schedule(50.0), r=4, base_seed=100)
        n = len(summary.grid)
        assert summary.mean.shape == (n, 3)
        assert summary.std.shape == (n, 3)
        assert summary.r == 4
        assert summary.sl_reps.shape == (4,)
        rep0 = simulate_path(fixture_schedule(50.0), seed=100 * 2 ** 64)
        assert np.array_equal(summary.first_path.values, rep0.values)

    def test_single_rep_zero_spread(self):
        summary = run_replications(fixture_schedule(50.0), r=1, base_seed=8)
        assert summary.std.max() == 0.0
        assert summary.sl_half_width == 0.0

    def test_more_reps_shrink_interval(self):
        small = run_replications(fixture_schedule(100.0), r=10, base_seed=8)
        big = run_replications(fixture_schedule(100.0), r=100, base_seed=8)
        assert big.sl_half_width < small.sl_half_width
        assert big.ap_half_width < small.ap_half_width

    def test_pooled_rates_match_counts(self):
        summary = run_replications(fixture_schedule(100.0), r=3, base_seed=8)
        assert summary.ap == pytest.approx(
            summary.n_abandoned / (summary.n_served + summary.n_abandoned))

    def test_invalid_rep_count(self):
        with pytest.raises(ParameterError):
            run_replications(fixture_schedule(10.0), r=0, base_seed=1)

    def test_rep_count_bounded_before_any_path(self, monkeypatch):
        # 10 minutes on the 0.1 grid is 101 nodes; no path is ever simulated
        def no_path(*args, **kwargs):
            raise AssertionError("simulate_path called")

        monkeypatch.setattr(simulation, "simulate_path", no_path)
        fit = MAX_GRID_NODES // 101
        with pytest.raises(ParameterError, match=f"at most {fit} replications"):
            run_replications(fixture_schedule(10.0), r=fit + 1, base_seed=1)
        with pytest.raises(AssertionError, match="simulate_path called"):
            run_replications(fixture_schedule(10.0), r=fit, base_seed=1)


class TestWriters:
    def test_path_and_records_csv(self, tmp_path):
        sch = fixture_schedule(20.0)
        out = simulate_path(sch, seed=6)
        ppath = tmp_path / "path.csv"
        rpath = tmp_path / "records.csv"
        write_path_csv(ppath, out, sch)
        write_records_csv(rpath, out)
        plines = ppath.read_text(encoding="utf-8").strip().split("\n")
        assert len(plines) == 1 + len(out.grid)
        assert plines[0].endswith("d_s,d_a,d_rd,d_rc")
        rlines = rpath.read_text(encoding="utf-8").strip().split("\n")
        assert len(rlines) == 1 + len(out.rec_arrival)
        assert rlines[0] == "arrival_time,class,outcome,wait"
        outcomes = {line.split(",")[2] for line in rlines[1:]}
        assert outcomes <= {"served", "abandoned", "censored"}

    def test_summary_csv(self, tmp_path):
        summary = run_replications(fixture_schedule(20.0), r=2, base_seed=3)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, summary)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + len(summary.grid)
        assert not any("np.float64" in line for line in lines)

    def test_metadata_json(self, tmp_path):
        path = tmp_path / "meta.json"
        write_metadata_json(path, seed=7, r=3, grid_step=0.5,
                            extra={"tau": 0.5})
        meta = json.loads(path.read_text(encoding="utf-8"))
        assert meta["seed"] == 7
        assert meta["rng"] == RNG_NAME
        assert meta["tau"] == 0.5
        assert "seed_derivation" in meta
        assert meta["stream_version"] == 2
