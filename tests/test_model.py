"""Parameter containers, schedules, and the shared output grid."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitq.model import (
    EMPTY_STATE,
    MAX_AGENTS,
    FluidState,
    ModelParams,
    ParameterError,
    Schedule,
    Trajectory,
    grid_steps,
    load_config,
    rho_hat,
    schedule_from_dict,
    schedule_grid,
    schedule_to_dict,
    single_interval,
    validate,
)


VALID_CONFIG = {
    "mu": 0.25, "theta": 0.5, "p": 0.5, "q": 0.1,
    "delta_rd": 0.05, "delta_rc": 0.01,
    "intervals": [{"t_start": 0, "t_end": 60, "lambda": 40, "s": 148},
                  {"t_start": 60, "t_end": 120, "lambda": 30, "s": 120}],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)


def with_field(field, value):
    """VALID_CONFIG with one top-level or interval field replaced."""
    raw = json.loads(json.dumps(VALID_CONFIG))
    if isinstance(field, tuple):
        n, key = field
        if key is None:
            raw["intervals"][n] = value
        else:
            raw["intervals"][n][key] = value
    else:
        raw[field] = value
    return raw


def small_params(**over):
    base = dict(lam=2.0, s=2, mu=1.0, theta=1.0, p=0.3, q=0.2,
                delta_rd=0.5, delta_rc=0.5)
    base.update(over)
    return ModelParams(**base)


class TestModelParams:
    def test_validate_returns_same_object(self):
        p = small_params()
        assert validate(p) is p

    @pytest.mark.parametrize("field,value", [
        ("lam", -1.0), ("mu", 0.0), ("theta", 0.0), ("theta", -2.0),
        ("delta_rd", 0.0), ("delta_rc", -0.5), ("s", 0), ("s", 1.5),
        ("p", -0.1), ("p", 1.0001), ("q", -0.1), ("q", 1.0),
        ("lam", float("nan")), ("mu", float("inf")),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ParameterError):
            validate(small_params(**{field: value}))

    def test_agent_count_bounded_by_2_53(self):
        # exact as a float and inside int64, so every layer can carry it
        assert MAX_AGENTS == 2**53
        assert validate(small_params(s=MAX_AGENTS)).s == 2**53
        for s in (MAX_AGENTS + 1, np.uint64(2**64 - 1), 10**23):
            with pytest.raises(ParameterError, match=r"s must be an integer in \[1, 2\*\*53\]"):
                validate(small_params(s=s))

    def test_q_of_one_mentions_divergence(self):
        with pytest.raises(ParameterError, match="diverge"):
            validate(small_params(q=1.0))

    def test_with_interval_swaps_lam_and_s_only(self):
        p = small_params().with_interval(7.5, 4)
        assert (p.lam, p.s) == (7.5, 4)
        assert (p.mu, p.theta, p.p, p.q) == (1.0, 1.0, 0.3, 0.2)

    def test_loads(self):
        p = small_params()
        assert p.lam / (p.s * p.mu) == pytest.approx(1.0)
        assert rho_hat(p) == pytest.approx(2.0 / (0.8 * 2.0))


class TestSchedule:
    def test_single_interval(self):
        sch = single_interval(small_params(), 100.0)
        assert sch.m == 1
        assert sch.horizon == 100.0
        assert sch.params_for(0) == small_params()

    def test_boundaries_must_increase(self):
        with pytest.raises(ParameterError):
            Schedule(boundaries=(0.0, 10.0, 10.0), lambdas=(1.0, 1.0),
                     agents=(1, 1), mu=1.0, theta=1.0, p=0.0, q=0.0,
                     delta_rd=1.0, delta_rc=1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ParameterError):
            Schedule(boundaries=(0.0, 10.0), lambdas=(1.0, 2.0), agents=(1,),
                     mu=1.0, theta=1.0, p=0.0, q=0.0, delta_rd=1.0, delta_rc=1.0)

    @pytest.mark.parametrize("lambdas,agents,match", [
        ((1.0, -1.0, -2.0), (1, 1, 1), "got -1.0"),
        # 2.0 == 2 and hashes alike, yet only the int is an agent count
        ((1.0, 1.0), (2, 2.0), "s must be an integer"),
    ])
    def test_first_bad_interval_named(self, lambdas, agents, match):
        bounds = tuple(10.0 * i for i in range(len(lambdas) + 1))
        with pytest.raises(ParameterError, match=match):
            Schedule(boundaries=bounds, lambdas=lambdas, agents=agents,
                     mu=1.0, theta=1.0, p=0.0, q=0.0, delta_rd=1.0, delta_rc=1.0)

    def test_interval_index_right_continuous(self):
        sch = Schedule(boundaries=(0.0, 10.0, 30.0), lambdas=(1.0, 2.0),
                       agents=(1, 2), mu=1.0, theta=1.0, p=0.0, q=0.0,
                       delta_rd=1.0, delta_rc=1.0)
        assert sch.interval_index(0.0) == 0
        assert sch.interval_index(9.999) == 0
        assert sch.interval_index(10.0) == 1
        assert sch.interval_index(30.0) == 1
        with pytest.raises(ParameterError):
            sch.interval_index(30.1)

    def test_intervals_iterates_in_order(self):
        sch = Schedule(boundaries=(0.0, 10.0, 30.0), lambdas=(1.0, 2.0),
                       agents=(1, 2), mu=1.0, theta=1.0, p=0.0, q=0.0,
                       delta_rd=1.0, delta_rc=1.0)
        assert list(sch.intervals()) == [(0.0, 10.0, 1.0, 1), (10.0, 30.0, 2.0, 2)]


class TestGrid:
    def test_grid_steps_exact(self):
        assert grid_steps(480.0, 0.1) == 4800
        assert grid_steps(0.5, 0.01) == 50

    def test_grid_steps_rejects_non_divisible(self):
        with pytest.raises(ParameterError):
            grid_steps(1.0, 0.3)

    def test_schedule_grid_node_limit(self):
        # older code tries the allocation here: do not run this test against it
        sch = Schedule(boundaries=(0.0, 480.0), lambdas=(1.0,), agents=(1,),
                       mu=1.0, theta=1.0, p=0.0, q=0.0, delta_rd=1.0, delta_rc=1.0)
        with pytest.raises(ParameterError, match="too small"):
            schedule_grid(sch, 1e-310)
        with pytest.raises(ParameterError, match="48000001 grid nodes"):
            schedule_grid(sch, 1e-5)

    def test_schedule_grid_hits_boundaries_exactly(self):
        sch = Schedule(boundaries=(0.0, 10.0, 30.0), lambdas=(1.0, 2.0),
                       agents=(1, 2), mu=1.0, theta=1.0, p=0.0, q=0.0,
                       delta_rd=1.0, delta_rc=1.0)
        grid = schedule_grid(sch, 0.5)
        assert grid[0] == 0.0
        assert 10.0 in grid
        assert grid[-1] == 30.0
        assert len(grid) == 61
        assert np.all(np.diff(grid) > 0)


class TestFluidStateAndTrajectory:
    def test_empty_state(self):
        assert EMPTY_STATE == FluidState(0.0, 0.0, 0.0)
        assert np.array_equal(EMPTY_STATE.as_array(), np.zeros(3))

    def test_negative_component_rejected(self):
        with pytest.raises(ParameterError):
            FluidState(-0.1, 0.0, 0.0)

    def test_trajectory_accessors(self):
        grid = np.array([0.0, 1.0, 2.0])
        vals = np.arange(9, dtype=float).reshape(3, 3)
        traj = Trajectory(grid, vals)
        assert len(traj) == 3
        assert np.array_equal(traj.z_q, vals[:, 0])
        assert np.array_equal(traj.z_rc, vals[:, 2])
        assert traj.state_at(1) == FluidState(3.0, 4.0, 5.0)
        assert traj.final_state == FluidState(6.0, 7.0, 8.0)

    def test_trajectory_shape_mismatch(self):
        with pytest.raises(ParameterError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3)))


class TestConfig:
    def test_round_trip(self, tmp_path):
        sch = Schedule(boundaries=(0.0, 60.0, 480.0), lambdas=(40.0, 30.0),
                       agents=(148, 120), mu=0.25, theta=0.5, p=0.5, q=0.1,
                       delta_rd=0.05, delta_rc=0.01)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(schedule_to_dict(sch)), encoding="utf-8")
        assert load_config(path) == sch

    def test_missing_keys(self):
        with pytest.raises(ParameterError, match="missing"):
            schedule_from_dict({"mu": 1.0})

    def test_valid_config_loads(self):
        sch = schedule_from_dict(VALID_CONFIG)
        assert sch.boundaries == (0.0, 60.0, 120.0)
        assert sch.agents == (148, 120)

    def test_integral_float_staffing_accepted(self):
        sch = schedule_from_dict(with_field((0, "s"), 148.0))
        assert sch.agents[0] == 148 and isinstance(sch.agents[0], int)

    @pytest.mark.parametrize("field,value,match", [
        ((0, "s"), 148.9, "integer"),
        ((0, "s"), "148", "integer"),
        ((0, "s"), True, "integer"),
        ((0, "lambda"), "40", "number"),
        ((0, "lambda"), False, "number"),
        ((1, "t_end"), float("inf"), "finite"),
        ((1, "t_end"), float("nan"), "finite"),
        ((1, "t_start"), None, "number"),
        ((1, "t_end"), 10 ** 400, "too large"),
        ((0, None), 5, "object"),
        ("mu", "0.25", "number"),
        ("theta", [0.5], "number"),
    ], ids=["s-fractional", "s-string", "s-bool", "lambda-string", "lambda-bool",
            "t_end-infinity", "t_end-nan", "t_start-null", "t_end-huge-int",
            "interval-not-object", "mu-string", "theta-list"])
    def test_malformed_values_rejected(self, field, value, match):
        with pytest.raises(ParameterError, match=match):
            schedule_from_dict(with_field(field, value))

    def test_top_level_must_be_object(self):
        with pytest.raises(ParameterError, match="object"):
            schedule_from_dict([VALID_CONFIG])

    def test_non_finite_boundary_rejected(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ParameterError, match="finite"):
                Schedule(boundaries=(0.0, bad), lambdas=(1.0,), agents=(1,),
                         mu=1.0, theta=1.0, p=0.3, q=0.2,
                         delta_rd=0.5, delta_rc=0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        field=st.sampled_from(
            ["mu", "theta", "p", "q", "delta_rd", "delta_rc", "intervals"]
            + [(n, key) for n in (0, 1)
               for key in (None, "t_start", "t_end", "lambda", "s")]),
        value=JSON_VALUES,
    )
    def test_any_json_value_loads_or_raises_parameter_error(self, field, value):
        try:
            schedule_from_dict(with_field(field, value))
        except ParameterError:
            pass

    def test_gap_between_intervals_rejected(self):
        raw = schedule_to_dict(single_interval(small_params(), 10.0))
        raw["intervals"].append(
            {"t_start": 11.0, "t_end": 20.0, "lambda": 1.0, "s": 1})
        with pytest.raises(ParameterError):
            schedule_from_dict(raw)
