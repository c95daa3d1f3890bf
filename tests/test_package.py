"""The public package namespace, the names the traced benchmark patches, and
the modules a fresh interpreter loads."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import orbitq

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# runs in a fresh interpreter with a config path and an output directory;
# prints, as its last line, the scipy modules loaded after the import and
# after each subcommand, with each subcommand's exit code
SCIPY_PROBE = """
import json, sys
import orbitq, orbitq.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

config, out = sys.argv[1], sys.argv[2]
report = {"import": {"code": 0, "scipy": scipy_modules()}}
for name, extra in (("fluid", []), ("simulate", ["--reps", "2"]),
                    ("erlang", []), ("oracle", ["--caps", "10,6,6"])):
    code = orbitq.cli.main([name, "--config", config, "--out", out + "/" + name,
                            "--grid", "1", *extra])
    report[name] = {"code": code, "scipy": scipy_modules()}
print(json.dumps(report))
"""


def test_every_exported_name_resolves():
    missing = [name for name in orbitq.__all__ if not hasattr(orbitq, name)]
    assert not missing
    assert len(set(orbitq.__all__)) == len(orbitq.__all__)


def test_every_trace_point_resolves():
    # bench/run.py --trace 1 and tools/bench_pairs.py patch these attributes
    # by name; a rename would crash them
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.TRACE_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.TRACE_POINTS and not missing


def test_fluid_and_simulate_load_no_scipy(tmp_path):
    # scipy.special and scipy.sparse cost more to import than a small fluid
    # or simulate run takes, so only erlang and oracle may load them
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "mu": 1.0, "theta": 1.0, "p": 0.3, "q": 0.2, "delta_rd": 0.5,
        "delta_rc": 0.5,
        "intervals": [{"t_start": 0, "t_end": 60, "lambda": 2, "s": 2}],
    }), encoding="utf-8")
    src = str(Path(orbitq.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(config), str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert all(step["code"] == 0 for step in report.values())
    for step in ("import", "fluid", "simulate"):
        assert report[step]["scipy"] == [], step
    assert "scipy.special" in report["erlang"]["scipy"]
    assert "scipy.sparse" in report["oracle"]["scipy"]


def test_import_loads_no_orjson():
    # write_csv imports orjson, so start-up does not pay for it
    src = str(Path(orbitq.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, orbitq, orbitq.cli; print('orjson' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
