"""Spans around orbitq's public functions, recorded from outside the package.

A :class:`Tracer` patches the module attributes through which the CLI
reaches each layer, so one span is recorded per call with the span that
was open when it started as its parent. Spans stay in memory; the
benchmark writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time


def _path_counts(out) -> dict:
    transitions = (out.pi_lam[-1] + out.d_s[-1] + out.d_a[-1]
                   + out.d_rd[-1] + out.d_rc[-1])
    return {"n_events": int(out.n_events), "transitions": int(transitions)}


# (module, attribute, span name, counts taken from the return value).
# The CLI binds most layer functions into its own namespace, so they are
# patched there; total_arrival_rate is also patched in orbitq.fluid, where
# the trajectory writer looks it up, and simulate_path in orbitq.simulation,
# where run_replications does.
TRACE_POINTS = (
    ("orbitq.cli", "load_config", "model.load_config", None),
    ("orbitq.cli", "refine_schedule", "validation.refine_schedule", None),
    ("orbitq.cli", "integrate_schedule", "fluid.integrate_schedule",
     lambda r: {"samples": len(r)}),
    ("orbitq.cli", "stationary_state", "fluid.stationary_state", None),
    ("orbitq.cli", "total_arrival_rate", "fluid.total_arrival_rate", None),
    ("orbitq.fluid", "total_arrival_rate", "fluid.total_arrival_rate", None),
    ("orbitq.cli", "psa_performance", "erlang.psa_performance",
     lambda r: {"intervals": len(r.intervals)}),
    ("orbitq.cli", "run_replications", "simulation.run_replications", None),
    ("orbitq.simulation", "simulate_path", "simulation.simulate_path", _path_counts),
    ("orbitq.cli", "build_chain", "ctmc.build_chain",
     lambda r: {"states": int(r.n_states)}),
    ("orbitq.cli", "solve_stationary", "ctmc.solve_stationary",
     lambda r: {"iterations": int(r.iterations), "method": r.method}),
    ("orbitq.cli", "_atomic", "cli.write", lambda r: {"bytes": r.stat().st_size}),
)


class Tracer:
    """In-memory span recorder; ``patched()`` activates the trace points."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent else None,
                "root": parent["root"] if parent else len(self.spans),
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span["attrs"].update(counts(result))
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every trace point through a span for the duration."""
        saved = []
        try:
            for module_name, attr, name, counts in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to the function it wraps (mean of ``calls``)."""
    def noop():
        return None
    traced = Tracer()._wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def spans_per_call(spans: list[dict]) -> dict[str, float]:
    """Median number of spans under one CLI call, per kind of call."""
    counts: dict[int, int] = {}
    for s in spans:
        counts[s["root"]] = counts.get(s["root"], 0) + 1
    kinds: dict[str, list[int]] = {}
    for root, n in counts.items():
        kinds.setdefault(spans[root]["name"], []).append(n)
    return {kind: statistics.median(ns) for kind, ns in kinds.items()}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _call_figures(subtree: list[dict]) -> dict:
    """What one CLI call spent in each layer, from the spans below its root."""
    f = {"solve": 0.0, "samples": 0, "rates": 0.0, "psa": 0.0, "intervals": 0,
         "paths": [], "transitions": 0, "events": 0, "replications": 0.0,
         "build": 0.0, "ctmc_solve": 0.0, "iterations": 0, "states": 0,
         "write": 0.0, "bytes": 0}
    for s in subtree:
        d, a = _duration(s), s["attrs"]
        if s["name"] == "fluid.integrate_schedule":
            f["solve"] += d
            f["samples"] += a["samples"]
        elif s["name"] == "fluid.total_arrival_rate":
            f["rates"] += d
        elif s["name"] == "erlang.psa_performance":
            f["psa"] += d
            f["intervals"] += a["intervals"]
        elif s["name"] == "simulation.simulate_path":
            f["paths"].append(d)
            f["transitions"] += a["transitions"]
            f["events"] += a["n_events"]
        elif s["name"] == "simulation.run_replications":
            f["replications"] += d
        elif s["name"] == "ctmc.build_chain":
            f["build"] += d
            f["states"] += a["states"]
        elif s["name"] == "ctmc.solve_stationary":
            f["ctmc_solve"] += d
            f["iterations"] += a["iterations"]
        elif s["name"] == "cli.write":
            f["write"] += d
            f["bytes"] += a["bytes"]
    return f


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one session (one call of each kind).

    ``spans`` may hold several traced calls of each kind; each figure is
    the median over the calls of a kind, summed over the kinds that reach
    the layer (both ``fluid`` and ``erlang`` integrate the fluid model).
    """
    calls: dict[str, list[dict]] = {}
    subtrees: dict[int, list[dict]] = {}
    for s in spans:
        subtrees.setdefault(s["root"], []).append(s)
    for root, subtree in subtrees.items():
        calls.setdefault(spans[root]["name"], []).append(_call_figures(subtree))

    def med(kind: str, key: str) -> float:
        return statistics.median(c[key] for c in calls[kind])

    def over(prefix: str, key: str) -> float:
        return sum(med(kind, key) for kind in calls if kind.startswith(prefix))

    m: dict[str, float] = {}
    m["fluid.solve_s"] = over("cli.", "solve")
    m["fluid.samples"] = over("cli.", "samples")
    m["fluid.us_per_sample"] = 1e6 * m["fluid.solve_s"] / m["fluid.samples"]
    m["fluid.rates_s"] = over("cli.", "rates")

    m["erlang.psa_s"] = med("cli.erlang", "psa")
    m["erlang.intervals"] = med("cli.erlang", "intervals")
    m["erlang.ms_per_interval"] = 1e3 * m["erlang.psa_s"] / m["erlang.intervals"]

    sim = calls["cli.simulate"]
    paths = [d for c in sim for d in c["paths"]]
    transitions = sum(c["transitions"] for c in sim)
    m["simulation.path_s"] = statistics.median(paths)
    m["simulation.transitions_per_s"] = transitions / sum(paths)
    m["simulation.pops_per_transition"] = sum(c["events"] for c in sim) / transitions
    m["simulation.aggregate_s"] = statistics.median(
        c["replications"] - sum(c["paths"]) for c in sim)

    for box in ("small", "large"):
        kind = f"cli.oracle.{box}"
        m[f"ctmc.{box}.build_s"] = med(kind, "build")
        m[f"ctmc.{box}.solve_s"] = med(kind, "ctmc_solve")
        m[f"ctmc.{box}.iterations"] = med(kind, "iterations")
        m[f"ctmc.{box}.states"] = med(kind, "states")

    for sub in ("fluid", "erlang", "simulate", "oracle"):
        m[f"cli.{sub}.write_s"] = over(f"cli.{sub}", "write")
        m[f"cli.{sub}.bytes"] = over(f"cli.{sub}", "bytes")
    return m
