"""Error metrics, staffing rule, schedule builders, and table runners."""

import tracemalloc

import numpy as np
import pytest

from orbitq.model import (
    MAX_GRID_NODES,
    ModelParams,
    ParameterError,
    Trajectory,
    single_interval,
)
from orbitq.fluid import integrate_schedule
from orbitq.validation import (
    DEFAULT_RHO_GRID,
    MAX_BLOCKS,
    ErrorRow,
    SlApRow,
    error_metrics,
    format_markdown,
    refine_schedule,
    run_single_interval_table,
    run_sl_ap_table,
    single_interval_family,
    staffing_for,
    two_peak_schedule,
    write_error_table_csv,
    write_sl_ap_table_csv,
)

BASE = ModelParams(lam=40.0, s=1, mu=0.25, theta=0.5, p=0.5, q=0.1,
                   delta_rd=0.05, delta_rc=0.01)


def flat_trajectory(grid, zq, zrd, zrc):
    vals = np.tile([zq, zrd, zrc], (len(grid), 1)).astype(float)
    return Trajectory(np.asarray(grid, dtype=float), vals)


class TestErrorMetrics:
    def test_hand_computed_constant_paths(self):
        grid = np.linspace(0.0, 10.0, 11)
        sim = flat_trajectory(grid, 5.0, 2.0, 4.0)
        fluid = flat_trajectory(grid, 5.0, 1.0, 3.0)
        m = error_metrics(sim, fluid)
        assert m.e_rd == pytest.approx(0.5)
        assert m.e_rc == pytest.approx(0.25)

    def test_identical_paths_zero_error(self):
        grid = np.linspace(0.0, 5.0, 6)
        sim = flat_trajectory(grid, 1.0, 2.0, 3.0)
        assert error_metrics(sim, sim) == error_metrics(sim, sim)
        m = error_metrics(sim, flat_trajectory(grid, 9.0, 2.0, 3.0))
        assert m.e_rd == 0.0
        assert m.e_rc == 0.0

    def test_scale_invariance(self):
        grid = np.linspace(0.0, 10.0, 101)
        rng = np.random.default_rng(5)
        sim_vals = rng.uniform(1.0, 4.0, size=(101, 3))
        fl_vals = rng.uniform(1.0, 4.0, size=(101, 3))
        a = error_metrics(Trajectory(grid, sim_vals), Trajectory(grid, fl_vals))
        c = 37.5
        b = error_metrics(Trajectory(grid, c * sim_vals),
                          Trajectory(grid, c * fl_vals))
        assert b.e_rd == pytest.approx(a.e_rd, rel=1e-12)
        assert b.e_rc == pytest.approx(a.e_rc, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        a = flat_trajectory(np.linspace(0.0, 10.0, 11), 1.0, 1.0, 1.0)
        b = flat_trajectory(np.linspace(0.0, 10.0, 21), 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError, match="grid"):
            error_metrics(a, b)

    def test_zero_denominator_rejected(self):
        grid = np.linspace(0.0, 10.0, 11)
        sim = flat_trajectory(grid, 1.0, 0.0, 1.0)
        with pytest.raises(ParameterError, match="e_rd"):
            error_metrics(sim, sim)


class TestStaffingRule:
    def test_reference_grid(self):
        got = [staffing_for(40.0, 0.25, 0.1, r) for r in DEFAULT_RHO_GRID]
        assert got == [176, 169, 162, 148, 137, 127, 119]

    def test_floor_at_one_agent(self):
        assert staffing_for(0.001, 1.0, 0.0, 1.5) == 1

    def test_invalid_target(self):
        with pytest.raises(ParameterError):
            staffing_for(40.0, 0.25, 0.1, 0.0)


class TestScheduleBuilders:
    def test_two_peak_shape(self):
        sch = two_peak_schedule(BASE, 1.2)
        assert sch.m == 16
        assert sch.horizon == 480.0
        assert sum(sch.lambdas) / 16 == pytest.approx(BASE.lam)
        assert max(sch.lambdas) == sch.lambdas[4]
        for lam, s in zip(sch.lambdas, sch.agents):
            assert s == staffing_for(lam, BASE.mu, BASE.q, 1.2)

    def test_two_peaks_present(self):
        sch = two_peak_schedule(BASE, 1.2)
        lams = sch.lambdas
        # rises to a morning peak, dips, rises to an afternoon peak, falls
        assert lams[4] > lams[0] and lams[4] > lams[8]
        assert lams[11] > lams[8] and lams[11] > lams[15]

    def test_refine_splits_exactly(self):
        sch = single_interval(BASE.with_interval(40.0, 148), 480.0)
        ref = refine_schedule(sch, 60.0)
        assert ref.m == 8
        assert ref.boundaries == tuple(60.0 * i for i in range(9))
        assert set(ref.lambdas) == {40.0}
        assert set(ref.agents) == {148}

    def test_refine_non_divisor_uses_equal_pieces(self):
        sch = single_interval(BASE.with_interval(40.0, 148), 100.0)
        ref = refine_schedule(sch, 60.0)
        assert ref.m == 2
        assert ref.boundaries == (0.0, 50.0, 100.0)

    def test_refine_is_noop_for_short_intervals(self):
        sch = two_peak_schedule(BASE, 1.2)
        assert refine_schedule(sch, 60.0).boundaries == sch.boundaries

    def test_refine_preserves_dynamics(self):
        sch = single_interval(BASE.with_interval(40.0, 148), 120.0)
        ref = refine_schedule(sch, 30.0)
        a = integrate_schedule(sch, grid_step=0.1)
        b = integrate_schedule(ref, grid_step=0.1)
        assert np.array_equal(a.grid, b.grid)
        assert np.allclose(a.values, b.values, rtol=1e-14, atol=1e-12)

    def test_refine_validates_each_distinct_interval_once(self, monkeypatch):
        sch = single_interval(BASE.with_interval(40.0, 148), 480.0)
        calls = []
        monkeypatch.setattr("orbitq.model.validate",
                            lambda params: calls.append(params) or params)
        assert refine_schedule(sch, 1.0).m == 480
        assert calls == [sch.params_for(0)]

    def test_refine_rejects_bad_block(self):
        sch = single_interval(BASE.with_interval(40.0, 148), 100.0)
        with pytest.raises(ParameterError):
            refine_schedule(sch, 0.0)

    # 480 / MAX_GRID_NODES asks for ten times MAX_BLOCKS pieces; 5e-324
    # overflows the ratio to inf
    @pytest.mark.parametrize("block", [480.0 / MAX_GRID_NODES, 1e-300, 5e-324])
    def test_refine_refuses_more_pieces_than_grid_nodes(self, block):
        sch = single_interval(BASE.with_interval(40.0, 148), 480.0)
        with pytest.raises(ParameterError, match="limit"):
            refine_schedule(sch, block)


    def test_refine_refuses_past_the_block_limit_before_building(self):
        # one piece past the limit; the refined schedule alone would take
        # about 72 bytes a piece, 72 MB
        sch = single_interval(BASE.with_interval(40.0, 148), 480.0)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"limit of {MAX_BLOCKS} blocks"):
                refine_schedule(sch, 480.0 / (MAX_BLOCKS + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestTables:
    def test_single_interval_rows(self):
        rows = run_single_interval_table(BASE, rho_grid=(1.05, 1.2), r=20,
                                         base_seed=424242)
        assert [r.rho_hat for r in rows] == [1.05, 1.2]
        assert [r.s for r in rows] == [169, 148]
        for row in rows:
            assert 0.0 <= row.e_rc < row.e_rd

    def test_redial_error_collapses_away_from_critical_load(self):
        rows = run_single_interval_table(BASE, rho_grid=(1.05, 1.2), r=20,
                                         base_seed=424242)
        by_rho = {r.rho_hat: r for r in rows}
        assert by_rho[1.2].e_rd < by_rho[1.05].e_rd / 5.0

    def test_grid_not_a_multiple_of_step_rejected(self):
        # a 0.7-minute grid step does not divide the 480-minute interval the
        # simulator samples; the analytic blocks need no grid
        with pytest.raises(ParameterError, match="does not divide"):
            run_sl_ap_table(single_interval_family(BASE, (1.2,)), r=1,
                            grid_step=0.7)

    def test_error_table_grid_not_a_multiple_of_step_rejected(self):
        # nor the 480-minute interval
        with pytest.raises(ParameterError, match="does not divide"):
            run_single_interval_table(BASE, rho_grid=(1.2,), r=1, grid_step=0.7)

    def test_sl_ap_rows_in_unit_interval(self):
        rows = run_sl_ap_table(single_interval_family(BASE, (1.2,)), r=10)
        row = rows[0]
        assert isinstance(row, SlApRow)
        for v in (row.sl_sim, row.sl_a, row.ap_sim, row.ap_a):
            assert 0.0 <= v <= 1.0
        assert abs(row.sl_sim - row.sl_a) < 0.1
        assert abs(row.ap_sim - row.ap_a) < 0.05


class TestExport:
    def test_error_csv(self, tmp_path):
        rows = [ErrorRow(1.2, 148, 0.05, 0.01), ErrorRow(1.3, None, 0.04, 0.02)]
        path = tmp_path / "t.csv"
        write_error_table_csv(path, rows)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "rho_hat,s,e_rd,e_rc"
        assert lines[1] == "1.2,148,0.05,0.01"
        assert lines[2] == "1.3,,0.04,0.02"

    def test_sl_ap_csv(self, tmp_path):
        rows = [SlApRow(1.2, 0.386, 0.369, 0.2296, 0.2322)]
        path = tmp_path / "t.csv"
        write_sl_ap_table_csv(path, rows)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "rho_hat,sl_sim,sl_a,ap_sim,ap_a"
        assert lines[1].startswith("1.2,0.386,")

    def test_markdown_error_table(self):
        text = format_markdown([ErrorRow(1.2, 148, 0.0525, 0.011)])
        assert "| 1.2" in text
        assert "5.2%" in text or "5.3%" in text
        assert text.splitlines()[0].startswith("| rho_hat")

    def test_markdown_sl_ap_table(self):
        text = format_markdown([SlApRow(1.2, 0.386, 0.369, 0.2296, 0.2322)])
        assert "38.6%" in text
        assert "23.2%" in text

    def test_markdown_rejects_empty_and_unknown(self):
        with pytest.raises(ParameterError):
            format_markdown([])
        with pytest.raises(ParameterError):
            format_markdown([object()])
