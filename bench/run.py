#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of orbitq's CLI.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload makes five kinds of CLI call, in this process through
``orbitq.cli.main`` with the argv a user would type: ``fluid``, ``erlang``
and ``simulate`` on the workload's config, and ``oracle`` on the
criterion-4 fixture on a small and a large truncation box. A round is the
workload's fixed sequence of these calls; rounds repeat until S seconds
have passed. After the timed rounds the benchmark times a fresh-interpreter
import (set-up), then checks the last artifacts against computations of its
own (checks.py) and every call's artifacts against the first call's bytes.

``--trace 0`` reports the end-to-end metrics: the median wall time of each
kind of call, set-up time and peak memory. ``--trace 1`` traces every other
call of each kind, reports per-layer metrics from the traced calls, states
the tracing overhead and writes the spans to bench/out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from tracing import Tracer, layer_metrics, span_cost, spans_per_call

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SHARED = {"mu": 0.25, "theta": 0.5, "p": 0.5, "q": 0.1,
          "delta_rd": 0.05, "delta_rc": 0.01}
# criterion-4 fixture of tests/test_acceptance.py
FIXTURE = {"mu": 1.0, "theta": 1.0, "p": 0.3, "q": 0.2,
           "delta_rd": 0.5, "delta_rc": 0.5,
           "intervals": [{"t_start": 0, "t_end": 480, "lambda": 2, "s": 2}]}
# one box below orbitq.ctmc.DIRECT_LIMIT (13,671 states), one above (102,541)
SMALL_BOX = "30,20,20"
LARGE_BOX = "60,40,40"
# orbitq.validation.TWO_PEAK_SHAPE, kept here so the inputs do not move
# when the package changes
TWO_PEAK_SHAPE = (0.55, 0.75, 1.00, 1.25, 1.40, 1.30, 1.10, 0.95,
                  0.90, 1.05, 1.20, 1.30, 1.15, 0.90, 0.70, 0.50)
WEEK_LOADS = (0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)

STEP, GRID, TAU, BLOCK = 0.01, 0.1, 0.5, 60.0
SETUP_PROBES = 5
PROBE = ("import time; t = time.perf_counter(); import orbitq, orbitq.cli; "
         "print(repr(time.perf_counter() - t))")

E2E = ("fluid_s", "erlang_s", "simulate_s", "oracle_small_s", "oracle_large_s")


def staffing(lam: float, rho_hat: float) -> int:
    """Agents for a target effective load: round(lam / ((1 - q) mu rho_hat))."""
    return max(1, round(lam / ((1.0 - SHARED["q"]) * SHARED["mu"] * rho_hat)))


def reference_config(seed: int) -> dict:
    """The paper's single-interval scenario, rho_hat = 1.2012."""
    return {**SHARED, "intervals": [
        {"t_start": 0, "t_end": 480, "lambda": 40, "s": 148}]}


def week_config(seed: int) -> dict:
    """Seven two-peak days; the seed orders the seven daily target loads."""
    loads = list(WEEK_LOADS)
    random.Random(seed).shuffle(loads)
    intervals, t = [], 0
    for rho in loads:
        for f in TWO_PEAK_SHAPE:
            lam = 40.0 * f
            intervals.append({"t_start": t, "t_end": t + 30, "lambda": lam,
                              "s": staffing(lam, rho)})
            t += 30
    return {**SHARED, "intervals": intervals}


def fixture_config(seed: int) -> dict:
    return FIXTURE


CHEAP = ("fluid_s", "erlang_s", "oracle_small_s", "oracle_large_s")


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], dict]
    reps: int
    # the calls of one round, in order. On a shared host machine speed can
    # wander by +-15% within seconds, so each kind's samples are spread over
    # the whole run rather than bunched together.
    pattern: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    # one ~14 s simulate, with the short calls around it
    Workload("reference-replications", reference_config, 64,
             CHEAP * 4 + ("simulate_s",) + CHEAP * 4),
    Workload("two-peak-week", week_config, 1, E2E),
    Workload("oracle-boxes", fixture_config, 100, E2E),
)}


@dataclass
class Session:
    workload: Workload
    seed: int
    work: Path
    config: dict
    calls: dict[str, tuple[str, list[str]]]  # metric -> (root span, argv)


def make_session(workload: Workload, seed: int, work: Path) -> Session:
    """Write the workload's configs under ``work`` and list its CLI calls."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload.make_config(seed)
    cfg, fix = work / "config.json", work / "fixture.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    fix.write_text(json.dumps(FIXTURE), encoding="utf-8")
    common = ["--seed", str(seed), "--step", str(STEP), "--grid", str(GRID),
              "--tau", str(TAU)]

    def call(sub, config_path, out, *extra):
        return [sub, "--config", str(config_path), "--out", str(work / out),
                *common, *extra]

    calls = {
        "fluid_s": ("cli.fluid", call("fluid", cfg, "fluid")),
        "erlang_s": ("cli.erlang", call("erlang", cfg, "erlang", "--block", str(BLOCK))),
        "simulate_s": ("cli.simulate",
                       call("simulate", cfg, "simulate", "--reps", str(workload.reps))),
        "oracle_small_s": ("cli.oracle.small",
                           call("oracle", fix, "oracle_small", "--caps", SMALL_BOX)),
        "oracle_large_s": ("cli.oracle.large",
                           call("oracle", fix, "oracle_large", "--caps", LARGE_BOX)),
    }
    return Session(workload, seed, work, config, calls)


def invoke(argv: list[str]) -> str | None:
    """Run one CLI call; None on success, else why it failed."""
    from orbitq.cli import main
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception as exc:  # a traceback from the program is a failed call
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit {code}: {sink.getvalue().strip()}"


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def warm_up(work: Path) -> None:
    """Touch every code path once on tiny inputs so lazy imports are done."""
    tiny = {**FIXTURE, "intervals": [{"t_start": 0, "t_end": 30, "lambda": 2, "s": 2}]}
    cfg = work / "warmup.json"
    cfg.write_text(json.dumps(tiny), encoding="utf-8")
    out = str(work / "warmup")
    for argv in (["fluid"], ["erlang"], ["simulate", "--reps", "2"],
                 ["simulate", "--reps", "1"],
                 ["oracle", "--caps", "10,6,6", "--method", "direct"],
                 ["oracle", "--caps", "10,6,6", "--method", "power"]):
        invoke(argv + ["--config", str(cfg), "--out", out])
    shutil.rmtree(out, ignore_errors=True)


def run_rounds(session: Session, seconds: float, trace: bool):
    """Whole rounds of the workload's pattern until ``seconds`` have passed.

    In trace mode every other call of each kind is traced, and rounds go
    on until each kind has a traced and an untraced sample. Returns
    {metric: [(traced, seconds), ...]}, failed calls, calls whose artifacts
    differ from the first call's, and the tracer.
    """
    tracer = Tracer()
    samples = {m: [] for m in session.calls}
    failures, mismatches, digests = [], [], {}
    rounds = 0
    start = time.perf_counter()
    while (rounds == 0 or time.perf_counter() - start < seconds
           or trace and any(len(v) < 2 for v in samples.values())):
        for metric in session.workload.pattern:
            root, argv = session.calls[metric]
            traced = trace and len(samples[metric]) % 2 == 1
            gc.collect()  # start each call from a clean heap, as a fresh process does
            with (tracer.patched() if traced else contextlib.nullcontext()), \
                    (tracer.span(root) if traced else contextlib.nullcontext()):
                t0 = time.perf_counter()
                error = invoke(argv)
                samples[metric].append((traced, time.perf_counter() - t0))
            if error:
                failures.append(f"round {rounds} {metric}: {error}")
                continue
            d = digest(Path(argv[argv.index("--out") + 1]))
            if digests.setdefault(metric, d) != d:
                mismatches.append(f"round {rounds} {metric}: "
                                  "artifacts differ from the first call's")
        rounds += 1
    return rounds, samples, failures, mismatches, tracer


def measure_setup() -> tuple[float, list[float]]:
    """Median import time of orbitq and orbitq.cli in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for i in range(SETUP_PROBES + 1):  # the first one also writes bytecode
        done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples), samples


def stationary_law(caps):
    from orbitq.ctmc import build_chain, solve_stationary
    from orbitq.model import ModelParams
    iv = FIXTURE["intervals"][0]
    params = {**{k: FIXTURE[k] for k in SHARED}, "lam": iv["lambda"], "s": iv["s"]}
    chain = build_chain(ModelParams(**params), caps)
    return params, solve_stationary(chain).pi, caps


def session_checks(session: Session) -> list[tuple[str, object]]:
    """(name, thunk) for every artifact check of one session."""
    w, seed, work = session.workload, session.seed, session.work
    fluid_ref = checks.FluidReference(session.config)
    erlang_figs = {}

    def erlang():
        erlang_figs.update(checks.check_erlang(work / "erlang", fluid_ref, BLOCK, GRID))
        return erlang_figs

    def oracle():
        return checks.check_oracle(work / "oracle_small", work / "oracle_large",
                                   stationary_law)

    if w.name == "two-peak-week":
        def simulate():
            return checks.check_single_path(work / "simulate", session.config, seed)
    elif w.name == "oracle-boxes":
        def simulate():
            doc = json.loads((work / "oracle_large" / "oracle.json").read_text())
            return checks.check_replications_vs_oracle(
                work / "simulate", doc, seed, w.reps, warmup=60.0)
    else:
        def simulate():
            return checks.check_replications(work / "simulate", fluid_ref,
                                             erlang_figs, seed, w.reps)
    return [("fluid", lambda: checks.check_fluid(work / "fluid", fluid_ref, GRID)),
            ("erlang", erlang), ("simulate", simulate), ("oracle", oracle)]


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_1m": os.getloadavg()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "orbitq" / "cli.py").is_file():
        print(f"error: no orbitq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print(f"# env {json.dumps(env)}")
    tag = f"{args.workload}_seed{args.seed}"
    work = OUT / "work" / args.workload
    session = make_session(WORKLOADS[args.workload], args.seed, work)
    warm_up(work)
    rounds, samples, failures, mismatches, tracer = run_rounds(
        session, args.seconds, bool(args.trace))
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup_s, setup_samples = measure_setup()

    correct = True
    check_figures = {}
    for name, thunk in session_checks(session):
        try:
            check_figures[name] = thunk()
            print(f"# check {name}: ok {json.dumps(check_figures[name], default=str)}")
        except Exception as exc:  # report every check, whatever breaks
            correct = False
            check_figures[name] = f"FAILED: {type(exc).__name__}: {exc}"
            print(f"# check {name}: {check_figures[name]}")
    for line in failures:
        print(f"# failed: {line}")
    for line in mismatches:
        correct = False
        print(f"# not reproducible: {line}")

    def median_times(traced: bool) -> dict:
        return {m: statistics.median(t for flag, t in samples[m] if flag == traced)
                for m in E2E}

    untraced = median_times(False)
    if args.trace:
        # each traced call against the untraced call of its kind just before
        # it, so that drift in machine speed cancels
        overhead = {m: statistics.median(t / u for (_, u), (_, t)
                                         in zip(samples[m][::2], samples[m][1::2])) - 1.0
                    for m in E2E}
        print("# tracing overhead (median of traced / preceding untraced - 1): "
              + ", ".join(f"{m} {100 * v:+.1f}%" for m, v in overhead.items()))
        # the paired figure carries the machine's noise; the spans' own cost
        # bounds what tracing can add
        cost, per_call = span_cost(), spans_per_call(tracer.spans)
        estimate = {m: per_call[session.calls[m][0]] * cost / untraced[m] for m in E2E}
        print(f"# span cost {1e6 * cost:.2f} us, so tracing adds about: "
              + ", ".join(f"{m} {100 * v:.4f}%" for m, v in estimate.items()))
        overhead = {"paired": overhead, "span_cost_s": cost, "spans_per_call": per_call,
                    "estimated": estimate}
        metrics = layer_metrics(tracer.spans)
        (OUT / f"spans_{tag}.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    else:
        overhead = None
        metrics = {**untraced, "setup_s": setup_s, "peak_rss_mb": usage / 1024.0}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "declared in BENCHMARK.json, or not measured")

    attempted = rounds * len(session.workload.pattern)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "rounds": rounds, "samples": samples,
              "setup_samples": setup_samples, "checks": check_figures,
              "failures": failures, "mismatches": mismatches,
              "tracing_overhead": overhead, "metrics": metrics}
    (OUT / f"run_{tag}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
