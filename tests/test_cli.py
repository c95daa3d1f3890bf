"""End-to-end CLI behavior: artifacts, determinism, and exit codes."""

import json
import math

import pytest

from orbitq.cli import main

CONFIG = {
    "mu": 0.25, "theta": 0.5, "p": 0.5, "q": 0.1,
    "delta_rd": 0.05, "delta_rc": 0.01,
    "intervals": [{"t_start": 0, "t_end": 480, "lambda": 40, "s": 148}],
}
SMALL_CONFIG = {
    "mu": 1.0, "theta": 1.0, "p": 0.3, "q": 0.2,
    "delta_rd": 0.5, "delta_rc": 0.5,
    "intervals": [{"t_start": 0, "t_end": 60, "lambda": 2, "s": 2}],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return str(path)


@pytest.fixture
def small_config_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    return str(path)


class TestFluidCommand:
    def test_writes_artifacts_with_stationary_values(self, config_path, tmp_path):
        out = tmp_path / "fluid"
        code = main(["fluid", "--config", config_path, "--out", str(out),
                     "--step", "0.05", "--grid", "0.5"])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        stat = json.loads((out / "stationary.json").read_text(encoding="utf-8"))
        row = stat["intervals"][0]
        assert row["regime"] == "overloaded"
        assert row["z_q"] == pytest.approx(174.8)
        assert row["z_rd"] == pytest.approx(134.0)
        assert row["z_rc"] == pytest.approx(370.0)
        header = (out / "trajectory.csv").read_text(encoding="utf-8").split("\n")[0]
        assert header == "t,z_q,z_rd,z_rc,lambda_total,lambda_fresh,lambda_rd,lambda_rc"

    def test_no_temp_files_left(self, config_path, tmp_path):
        out = tmp_path / "fluid"
        main(["fluid", "--config", config_path, "--out", str(out),
              "--step", "0.05", "--grid", "0.5"])
        assert not list(out.glob("*.tmp"))


class TestSimulateCommand:
    def test_rerun_is_bit_identical(self, small_config_path, tmp_path):
        args = ["simulate", "--config", small_config_path, "--reps", "1",
                "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("path.csv", "records.csv", "summary.csv", "metadata.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_outputs(self, small_config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", small_config_path, "--reps", "1",
              "--seed", "7", "--out", str(a)])
        main(["simulate", "--config", small_config_path, "--reps", "1",
              "--seed", "8", "--out", str(b)])
        assert (a / "path.csv").read_bytes() != (b / "path.csv").read_bytes()

    def test_multi_rep_metadata_has_intervals(self, small_config_path, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--config", small_config_path, "--reps", "5",
                     "--out", str(out)])
        assert code == 0
        assert not (out / "path.csv").exists()
        meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        assert meta["replications"] == 5
        assert meta["rng"] == "philox4x64"
        assert 0.0 <= meta["sl"] <= 1.0
        assert meta["sl_ci95_half_width"] > 0.0
        assert meta["n_served"] > 0


class TestErlangCommand:
    def test_performance_csv_with_aggregate(self, config_path, tmp_path):
        out = tmp_path / "erl"
        code = main(["erlang", "--config", config_path, "--out", str(out)])
        assert code == 0
        lines = (out / "performance.csv").read_text(encoding="utf-8")
        lines = lines.strip().split("\n")
        # 480 min refined into 60-min blocks plus header and aggregate
        assert len(lines) == 1 + 8 + 1
        assert lines[-1].startswith("aggregate,")

    def test_block_zero_keeps_intervals(self, config_path, tmp_path):
        out = tmp_path / "erl"
        main(["erlang", "--config", config_path, "--out", str(out),
              "--block", "0"])
        lines = (out / "performance.csv").read_text(encoding="utf-8")
        assert len(lines.strip().split("\n")) == 1 + 1 + 1

    def test_performance_csv_does_not_depend_on_grid(self, tmp_path):
        cfg = dict(CONFIG, intervals=[
            {"t_start": 0, "t_end": 30, "lambda": 40, "s": 148},
            {"t_start": 30, "t_end": 60, "lambda": 55, "s": 150},
            {"t_start": 60, "t_end": 90, "lambda": 20, "s": 175}])
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        outputs = set()
        for grid in ("0.1", "0.5", "1.0"):
            out = tmp_path / grid
            assert main(["erlang", "--config", str(path), "--out", str(out),
                         "--block", "10", "--grid", grid]) == 0
            outputs.add((out / "performance.csv").read_bytes())
        assert len(outputs) == 1

    def test_idle_interval_has_empty_cells(self, tmp_path):
        cfg = dict(SMALL_CONFIG, intervals=[
            {"t_start": 0, "t_end": 30, "lambda": 0, "s": 2},
            {"t_start": 30, "t_end": 60, "lambda": 2, "s": 2}])
        path = tmp_path / "idle.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "erl"
        assert main(["erlang", "--config", str(path), "--out", str(out),
                     "--block", "0"]) == 0
        lines = (out / "performance.csv").read_text(encoding="utf-8").split("\n")
        idle, busy, aggregate = (line.split(",") for line in lines[1:4])
        assert idle[3] == "0.0" and idle[5:] == ["", ""]
        # the idle interval has weight 0, so the aggregate is the busy one's
        assert [float(c) for c in aggregate[5:]] == pytest.approx(
            [float(c) for c in busy[5:]], rel=1e-12)

    @pytest.mark.parametrize("change", [
        # patience of 1e9 minutes: about 3e9 callers wait, beyond any truncation
        {"theta": 1e-9},
        # 1e5 arrivals per minute against s mu = 37
        {"intervals": [{"t_start": 0, "t_end": 480, "lambda": 1e5, "s": 148}]},
    ], ids=["theta-1e-9", "lambda-1e5"])
    def test_erlang_extreme_load_is_exact(self, tmp_path, capsys, change):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(dict(CONFIG, **change)), encoding="utf-8")
        out = tmp_path / "o"
        code = main(["erlang", "--config", str(path), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        lines = (out / "performance.csv").read_text(encoding="utf-8").splitlines()
        for row in lines[1:]:
            sl, ap = (float(c) for c in row.split(",")[5:7])
            assert math.isfinite(sl) and 0.0 <= sl <= 1.0
            assert math.isfinite(ap) and 0.0 <= ap <= 1.0


class TestOracleCommand:
    def test_fixture_json(self, small_config_path, tmp_path):
        out = tmp_path / "oracle"
        code = main(["oracle", "--config", small_config_path, "--out", str(out),
                     "--caps", "12,8,8"])
        assert code == 0
        data = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
        assert data["caps"] == [12, 8, 8]
        assert data["moments"]["e_zq"] == pytest.approx(2.62, abs=0.02)

    def test_multi_interval_config_rejected(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG)
        cfg["intervals"] = [
            {"t_start": 0, "t_end": 30, "lambda": 2, "s": 2},
            {"t_start": 30, "t_end": 60, "lambda": 3, "s": 2},
        ]
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["oracle", "--config", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 1
        assert "one interval" in capsys.readouterr().err

    def test_malformed_caps(self, small_config_path, tmp_path, capsys):
        code = main(["oracle", "--config", small_config_path, "--out",
                     str(tmp_path / "o"), "--caps", "5,5"])
        assert code == 1
        assert "caps" in capsys.readouterr().err


class TestValidateCommand:
    def test_single_table(self, small_config_path, tmp_path):
        out = tmp_path / "val"
        code = main(["validate", "--config", small_config_path, "--out",
                     str(out), "--table", "single", "--rho-grid", "1.2,1.4",
                     "--reps", "3", "--markdown"])
        assert code == 0
        lines = (out / "table_single.csv").read_text(encoding="utf-8")
        lines = lines.strip().split("\n")
        assert lines[0] == "rho_hat,s,e_rd,e_rc"
        assert len(lines) == 3
        md = (out / "table_single.md").read_text(encoding="utf-8")
        assert md.startswith("| rho_hat")

    def test_multi_table(self, small_config_path, tmp_path):
        out = tmp_path / "val"
        code = main(["validate", "--config", small_config_path, "--out",
                     str(out), "--table", "multi", "--rho-grid", "1.3",
                     "--reps", "2"])
        assert code == 0
        lines = (out / "table_multi.csv").read_text(encoding="utf-8")
        body = lines.strip().split("\n")[1]
        assert body.startswith("1.3,,")

    def test_slap_table(self, small_config_path, tmp_path):
        out = tmp_path / "val"
        code = main(["validate", "--config", small_config_path, "--out",
                     str(out), "--table", "slap", "--rho-grid", "1.2",
                     "--reps", "3"])
        assert code == 0
        lines = (out / "table_slap.csv").read_text(encoding="utf-8")
        assert lines.startswith("rho_hat,sl_sim,sl_a,ap_sim,ap_a\n")

    def test_bad_rho_grid(self, small_config_path, tmp_path, capsys):
        code = main(["validate", "--config", small_config_path, "--out",
                     str(tmp_path / "v"), "--table", "single",
                     "--rho-grid", "fast"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestErrors:
    def test_missing_config(self, tmp_path, capsys):
        code = main(["fluid", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["fluid", "--config", str(bad), "--out",
                     str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("interval,intervals", [
        ({"t_end": float("inf")}, None),
        ({"t_end": float("nan")}, None),
        ({"lambda": "40"}, None),
        ({"s": 148.9}, None),
        (None, [5]),
        # valid, but the fluid path tends to lam / (theta (1 - p)) = 4e308
        ({"lambda": 1e308}, None),
    ], ids=["t_end-infinity", "t_end-nan", "lambda-string", "s-fractional",
            "interval-not-object", "lambda-overflows"])
    def test_malformed_config_one_error_line(self, tmp_path, capsys,
                                             interval, intervals):
        cfg = json.loads(json.dumps(CONFIG))
        if interval is not None:
            cfg["intervals"][0].update(interval)
        if intervals is not None:
            cfg["intervals"] = intervals
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["fluid", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--step", "0.1", "--grid", "0.1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_unbounded_erlang_truncation_rejected(self, tmp_path, capsys):
        # with p = q = 0 the total rate is lambda, just below s mu = 37; at
        # theta = 1e-13 the Erlang-A series would run past MAX_TERMS terms
        cfg = dict(CONFIG, theta=1e-13, p=0.0, q=0.0, intervals=[
            {"t_start": 0, "t_end": 480, "lambda": 37.0 - 1e-9, "s": 148}])
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["erlang", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "exceeds 16777216 terms" in err[0]
        assert not (tmp_path / "o" / "performance.csv").exists()

    def test_grid_not_a_multiple_of_step(self, small_config_path, tmp_path, capsys):
        code = main(["validate", "--config", small_config_path, "--out",
                     str(tmp_path / "v"), "--table", "slap", "--rho-grid", "1.2",
                     "--reps", "1", "--grid", "0.7"])
        assert code == 1
        assert "does not divide" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,lam,code", [
        (["fluid", "--grid", "0"], 2, 1),
        (["erlang", "--grid", "0"], 2, 1),
        (["validate", "--table", "single", "--grid", "0"], 2, 1),
        (["fluid", "--grid", "nan"], 2, 1),
        (["fluid", "--grid", "inf"], 2, 1),
        (["fluid", "--grid", "1e-310"], 2, 1),
        (["simulate", "--grid", "1e-310"], 2, 1),
        (["simulate", "--tau", "-1"], 2, 1),
        (["simulate", "--tau", "nan"], 2, 1),
        (["erlang", "--tau", "inf"], 2, 1),
        (["validate", "--table", "single", "--rho-grid", "inf"], 2, 1),
        (["validate", "--table", "single", "--rho-grid", "nan"], 2, 1),
        (["erlang", "--block", "nan"], 2, 1),
        (["erlang", "--block", "1e-300"], 2, 1),
        (["oracle", "--caps", "10,6,6"], 0, 0),
        (["fluid", "--step", "nan"], 2, 1),
        (["fluid", "--step", "-1"], 2, 1),
        (["oracle", "--grid", "nan"], 2, 1),
        (["oracle", "--tau", "nan"], 2, 1),
        (["oracle", "--reps", "-3"], 2, 1),
        (["simulate", "--reps", "1000000000000000"], 2, 1),
        (["simulate", "--seed", "-1"], 2, 1),
        (["simulate", "--seed", "1180591620717411303424"], 2, 1),
        (["fluid", "--grid", "7"], 2, 1),
        (["oracle", "--caps", "0,6,6"], 2, 1),
    ], ids=["fluid-grid-0", "erlang-grid-0", "validate-grid-0", "fluid-grid-nan",
            "fluid-grid-inf", "fluid-grid-tiny", "simulate-grid-tiny",
            "simulate-tau-negative", "simulate-tau-nan",
            "erlang-tau-inf", "validate-rho-inf", "validate-rho-nan",
            "erlang-block-nan", "erlang-block-tiny", "oracle-zero-arrivals",
            "fluid-step-nan", "fluid-step-negative", "oracle-grid-nan",
            "oracle-tau-nan", "oracle-reps-negative", "simulate-reps-huge",
            "simulate-seed-negative", "simulate-seed-2-70",
            "fluid-grid-not-a-divisor", "oracle-caps-zero"])
    def test_flag_values(self, tmp_path, capsys, argv, lam, code):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["intervals"][0]["lambda"] = lam
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "o"
        # argparse takes the last --reps, so a case's own is not overridden
        reps = [] if "--reps" in argv else ["--reps", "2"]
        assert main(argv + ["--config", str(path), "--out", str(out)] + reps) == code
        if code == 0:
            data = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
            assert data["moments"]["e_zq"] < 1e-6
            return
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        # --out is made at the first artifact, so a refusal leaves none
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fluid"], ["simulate", "--reps", "1"], ["erlang"], ["oracle", "--caps", "6,4,4"],
        ["validate", "--table", "single", "--reps", "1"],
    ], ids=["fluid", "simulate", "erlang", "oracle", "validate"])
    def test_agent_count_beyond_2_53_refused(self, tmp_path, capsys, argv):
        # oracle used to end in an int64 OverflowError and erlang in a
        # gammaln TypeError on this config
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["intervals"][0]["s"] = 10**23
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "o"
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: s must be an integer in [1, 2**53], "
                       "got 100000000000000000000000"]
        assert not out.exists()

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
