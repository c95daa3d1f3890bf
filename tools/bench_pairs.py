#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout and this one, as one BENCH file.

Usage, from the repository root, with the parent commit unpacked apart:

    git archive <parent> | tar -x -C ../parent
    python3 tools/bench_pairs.py --parent ../parent --seed 23 --pairs 10

For each workload in BENCHMARK.json it runs ``bench/run.py --trace 0`` in
both checkouts, alternating which side runs first, then one ``--trace 1``
run in each. It also times ``integrate_schedule`` and
``write_trajectory_csv`` on the ``two-peak-week`` seed-1 config in both
checkouts, on a quiet host and with a busy loop of its own on another core,
each figure the median over several fresh processes per side, the sides
alternating, and times whole ``orbitq`` subcommands on the reference
config and ``oracle --caps 60,40,40`` on the criterion-4 fixture, each in a
fresh process, import included (``cli_process_s``), with each process's
own peak RSS (``cli_process_rss_mb``). It writes
``BENCH_<date>_<sha>.json`` at the repository root: per metric, each
side's median and quartiles (statistics.quantiles, n=4), every run's value
and the pairs the change won, with the machine it ran on. A run whose
artifacts fail their checks (``correct: false``) is counted under
``incorrect_runs`` and left out of the medians and the pair count; a run
that gives no JSON result at all stops the tool with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import orjson
import scipy

ROOT = Path(__file__).resolve().parent.parent

# times one call, named by argv[3], in a fresh interpreter on the checkout
# given as argv[1], argv[2] times after one untimed call; prints the list
# of wall times
TIMER = """
import json, sys, tempfile, time
from pathlib import Path
sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/bench']
from run import week_config
from orbitq.fluid import integrate_schedule, write_trajectory_csv
from orbitq.model import schedule_from_dict
schedule = schedule_from_dict(week_config(1))
traj = integrate_schedule(schedule, grid_step=0.1)
with tempfile.TemporaryDirectory() as tmp:
    call = {
        "integrate_schedule": lambda: integrate_schedule(schedule, grid_step=0.1),
        "write_trajectory_csv":
            lambda: write_trajectory_csv(Path(tmp) / "t.csv", traj, schedule),
    }[sys.argv[3]]
    call()
    times = []
    for _ in range(int(sys.argv[2])):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
print(json.dumps(times))
"""
TIMED_CALLS = ("integrate_schedule", "write_trajectory_csv")
# one process's speed can sit in one of two modes on a 2-vCPU host, so each
# figure pools the per-process medians of several fresh processes per side
TIMER_PROCESSES = 6


# runs argv[1:] as one process and prints its wall time, spawn to exit, and
# its peak RSS in MB from its own rusage; a bare interpreter spawns it,
# because a child's ru_maxrss also counts the process it was spawned from
SPAWNER = """
import json, os, sys, time
t = time.perf_counter()
_, status, usage = os.wait4(os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ), 0)
seconds = time.perf_counter() - t
if os.waitstatus_to_exitcode(status):
    sys.exit(os.waitstatus_to_exitcode(status))
print(json.dumps([seconds, usage.ru_maxrss / 1024]))
"""

# subcommands timed end to end in a fresh process, each on the named
# config of bench/run.py: the reference one, or the criterion-4 fixture
CLI_CALLS = {
    "fluid": ("reference", ["fluid"]),
    "erlang": ("reference", ["erlang", "--block", "60"]),
    "simulate": ("reference", ["simulate", "--reps", "1"]),
    "oracle": ("reference", ["oracle", "--caps", "30,20,20"]),
    "oracle_fixture_60_40_40": ("fixture", ["oracle", "--caps", "60,40,40"]),
}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def last_json(cmd: list[str], cwd: Path | None, what: str, timeout: int,
              env: dict | None = None):
    """The JSON value on the last stdout line of ``cmd``, or exit with one line.

    A run that times out, prints nothing or ends in a line that is not JSON
    stops the whole tool: the line names ``what`` and quotes the run's exit
    status and the tail of its stderr.
    """
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {what}: no result after {timeout} s")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = " | ".join(done.stderr.strip().splitlines()[-3:]) or "no stderr"
        sys.exit(f"error: {what}: exit {done.returncode}, no JSON result; "
                 f"stderr: {tail}")


def bench_run(checkout: Path, workload: str, seed: int, seconds: int, trace: int,
              what: str) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return last_json(cmd, checkout, what, 900)


def spread(values: list[float]) -> dict:
    # quartiles need two values; fewer correct runs leave them unset
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None,
                "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def process_median(checkout: Path, call: str, repeats: int) -> float:
    times = last_json([sys.executable, "-c", TIMER, str(checkout), str(repeats), call],
                      None, f"{call} timing in {checkout}", 600)
    return statistics.median(times)


def call_figures(sides: dict[str, Path], call: str, repeats: int) -> dict:
    """Per side, the spread of per-process medians of ``call``, quiet and
    beside a busy loop; the sides alternate process by process."""
    def medians() -> dict[str, list[float]]:
        out: dict[str, list[float]] = {side: [] for side in sides}
        for i in range(TIMER_PROCESSES):
            for side in sides if i % 2 == 0 else reversed(list(sides)):
                out[side].append(process_median(sides[side], call, repeats))
        return out

    quiet = medians()
    busy_loop = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(1.0)
        busy = medians()
    finally:
        busy_loop.kill()
        busy_loop.wait()
    out = {side: {"quiet_s": spread(quiet[side]), "busy_s": spread(busy[side]),
                  "busy_over_quiet": statistics.median(busy[side])
                  / statistics.median(quiet[side])}
           for side in sides}
    out["change_wins_quiet"] = sum(c < p for p, c in zip(quiet["parent"], quiet["change"]))
    out["pairs_compared"] = TIMER_PROCESSES
    return out


def cli_process_times(sides: dict[str, Path], repeats: int) -> dict:
    """Wall time and peak RSS of each of CLI_CALLS per side, each call a
    fresh ``python -m orbitq.cli`` process, the sides alternating call by
    call; per call, the spread on each side and the pairs the change won.

    One untimed call per subcommand and side first writes the bytecode.
    """
    sys.path.insert(0, str(ROOT / "bench"))
    from run import fixture_config, reference_config

    runs = {metric: {side: {name: [] for name in CLI_CALLS} for side in sides}
            for metric in ("s", "rss_mb")}
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for config, make in (("reference", reference_config), ("fixture", fixture_config)):
            configs[config] = Path(tmp) / f"{config}.json"
            configs[config].write_text(json.dumps(make(0)), encoding="utf-8")
        for i in range(repeats + 1):
            for name, (config, argv) in CLI_CALLS.items():
                for side in sides if i % 2 == 0 else reversed(list(sides)):
                    cmd = [sys.executable, "-m", "orbitq.cli", *argv,
                           "--config", str(configs[config]),
                           "--out", f"{tmp}/{side}-{name}"]
                    env = {**os.environ, "PYTHONPATH": str(sides[side] / "src")}
                    seconds, rss = last_json([sys.executable, "-c", SPAWNER, *cmd], None,
                                             f"{side} orbitq {name}", 600, env)
                    if i:
                        runs["s"][side][name].append(seconds)
                        runs["rss_mb"][side][name].append(rss)
    return {metric: {
        **{side: {name: spread(values) for name, values in by_name.items()}
           for side, by_name in by_side.items()},
        "change_wins": {name: sum(c < p for p, c in zip(by_side["parent"][name],
                                                         by_side["change"][name]))
                        for name in CLI_CALLS},
        "pairs_compared": repeats,
    } for metric, by_side in runs.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2 to give quartiles, got {args.pairs}")
    if args.repeats < 5:
        parser.error(f"--repeats must be at least 5 for a median, got {args.repeats}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    sha = git("rev-parse", "--short", "HEAD")
    load = os.getloadavg()

    workloads = {}
    for workload in (w["name"] for w in declared["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(bench_run(sides[side], workload, args.seed,
                                            declared["run_seconds"], 0,
                                            f"{workload} pair {i} {side}"))
                print(f"{workload} pair {i} {side} done", flush=True)
        # a run whose artifacts failed their checks is a failure, not a sample
        good = {side: [r for r in rs if r["correct"]] for side, rs in runs.items()}
        both = [(p, c) for p, c in zip(runs["parent"], runs["change"])
                if p["correct"] and c["correct"]]
        metrics = {}
        for name in runs["parent"][0]["metrics"]:
            metrics[name] = {
                **{side: spread([r["metrics"][name]["value"] for r in rs])
                   for side, rs in good.items()},
                "change_wins": sum(c["metrics"][name]["value"] < p["metrics"][name]["value"]
                                   for p, c in both),
                "pairs_compared": len(both),
            }
        traced = {side: bench_run(path, workload, args.seed, declared["run_seconds"], 1,
                                  f"{workload} traced {side}")
                  for side, path in sides.items()}
        workloads[workload] = {
            "metrics": metrics,
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "incorrect_runs": {side: sum(not r["correct"] for r in rs)
                               for side, rs in runs.items()},
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "traced_run": traced,
        }

    report = {
        "head": sha,
        # uncommitted changes under src/: the change measured is the working
        # tree on top of head, not head itself
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "seed": args.seed,
        "pairs": args.pairs,
        "run_seconds": declared["run_seconds"],
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "orjson": orjson.__version__,
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "loadavg_at_start": load},
        **{f"{call}_two_peak_week_seed1": call_figures(sides, call, args.repeats)
           for call in TIMED_CALLS},
        **{f"cli_process_{metric}": figures
           for metric, figures in cli_process_times(sides, args.repeats).items()},
        "workloads": workloads,
    }
    date = datetime.date.today().isoformat()
    path = ROOT / f"BENCH_{date}_{sha}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
