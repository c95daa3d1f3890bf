"""Jump-chain simulation of the call-center model with orbits.

Stochastic ground truth for the fluid solver: an exact continuous-time
simulation with Poisson fresh arrivals, exponential services,
per-customer exponential patience, and per-customer exponential orbit
residence. Every abandonment enters the redial orbit with probability p;
every completed service enters the reconnect orbit with probability q;
orbit exits re-arrive as new call attempts sharing the FCFS queue.

Randomness comes from a counter-based Philox generator so replication
streams are independent by construction: replication r of a run seeded
with base_seed uses key = base_seed * 2**64 + r. A path draws standard
exponentials and uniforms from that one stream in blocks of 4096, a new
block of a kind whenever the last one is used up, so a fixed seed
reproduces the exact path and the output grid never changes what is
drawn.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .artifacts import write_csv, write_json
from .model import (
    MAX_GRID_NODES,
    ParameterError,
    Schedule,
    Trajectory,
    check_tau,
    schedule_grid,
)
from .fluid import TRAJECTORY_CSV_HEADER, total_arrival_rate

RNG_NAME = "philox4x64"
SEED_DERIVATION = ("key = base_seed * 2**64 + rep_index; standard exponentials "
                   "and uniforms drawn from it in blocks of 4096")
# bumped whenever the same seed starts to give a different path
STREAM_VERSION = 2

_INF = float("inf")

# random numbers drawn per call into the generator
_BLOCK = 4096
# queue slots allowed beyond twice the callers waiting before a trim
_SLACK = 64

# per-attempt status codes
_WAITING, _IN_SERVICE, _SERVED, _ABANDONED = 0, 1, 2, 3


class SimulationError(RuntimeError):
    """Event-budget overflow, conservation violation, or empty measurement."""


# records.csv labels, indexed by class code and by status code; attempts
# still waiting or in service at the horizon are censored
_CLASS_NAMES = ("fresh", "redial", "reconnect")
_OUTCOME_NAMES = ("censored", "censored", "served", "abandoned")


class SimOutput:
    """One simulated path: grid samples, cumulative counters, attempts.

    States are sampled left-continuously at grid points (the value just
    before any event at that instant). Counters at grid point t are
    cumulative event counts on [0, t]: pi_lam fresh arrivals, d_s service
    completions, d_a abandonments, d_rd redial-orbit exits, d_rc
    reconnect-orbit exits, e_rd redial-orbit entries, e_rc
    reconnect-orbit entries. Attempt-level data is kept in parallel
    ``rec_*`` arrays, one entry per attempt in arrival order: arrival
    time, class code (0 fresh, 1 redial, 2 reconnect), status code
    (0 waiting, 1 in service, 2 served, 3 abandoned), wait, service start
    and service end (NaN where undefined). ``n_events`` is the number of
    transitions: arrivals, completions, abandonments and orbit exits.
    """

    def __init__(self, grid, z_q, z_rd, z_rc, pi_lam, d_s, d_a, d_rd, d_rc,
                 e_rd, e_rc, rec_arrival, rec_class, rec_status, rec_wait,
                 rec_sstart, rec_send, seed, grid_step, initial, n_events):
        self.grid = grid
        self.z_q = z_q
        self.z_rd = z_rd
        self.z_rc = z_rc
        self.pi_lam = pi_lam
        self.d_s = d_s
        self.d_a = d_a
        self.d_rd = d_rd
        self.d_rc = d_rc
        self.e_rd = e_rd
        self.e_rc = e_rc
        self.rec_arrival = np.frombuffer(rec_arrival, dtype=np.float64)
        self.rec_class = np.frombuffer(rec_class, dtype=np.int8)
        self.rec_status = np.frombuffer(rec_status, dtype=np.int8)
        self.rec_wait = np.frombuffer(rec_wait, dtype=np.float64)
        self.rec_sstart = np.frombuffer(rec_sstart, dtype=np.float64)
        self.rec_send = np.frombuffer(rec_send, dtype=np.float64)
        self.seed = seed
        self.grid_step = grid_step
        self.initial = initial
        self.n_events = n_events

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def values(self) -> np.ndarray:
        """Grid samples as an (n, 3) float array, fluid-trajectory layout."""
        return np.column_stack([self.z_q, self.z_rd, self.z_rc]).astype(float)


def verify_conservation(out: SimOutput) -> None:
    """Check the flow identities exactly (integer equality) per grid point.

    Queue:   Z_Q(t)  = Z_Q(0)  + Pi_lam(t) + D_RD(t) + D_RC(t) - D_s(t) - D_a(t)
    Redial:  Z_RD(t) = Z_RD(0) + E_RD(t) - D_RD(t)
    Reconn:  Z_RC(t) = Z_RC(0) + E_RC(t) - D_RC(t)
    """
    zq0, zrd0, zrc0 = out.initial
    ok_q = np.array_equal(
        out.z_q, zq0 + out.pi_lam + out.d_rd + out.d_rc - out.d_s - out.d_a)
    ok_rd = np.array_equal(out.z_rd, zrd0 + out.e_rd - out.d_rd)
    ok_rc = np.array_equal(out.z_rc, zrc0 + out.e_rc - out.d_rc)
    if not (ok_q and ok_rd and ok_rc):
        bad = [name for name, ok in
               (("queue", ok_q), ("redial", ok_rd), ("reconnect", ok_rc)) if not ok]
        raise SimulationError(
            f"flow conservation violated for {', '.join(bad)} (seed {out.seed})"
        )


def _stream(draw) -> Callable[[], float]:
    """A function returning the next value of draw(_BLOCK), block by block."""
    return chain.from_iterable(iter(lambda: draw(_BLOCK).tolist(), None)).__next__


def simulate_path(
    schedule: Schedule,
    seed: int,
    grid_step: float = 0.1,
    initial: tuple[int, int, int] = (0, 0, 0),
    max_events: int = 10 ** 9,
) -> SimOutput:
    """Simulate one path on [0, horizon], sampling on the shared grid.

    The path is a jump chain (Gillespie's direct method): from the total
    rate R of the five moves (fresh arrival, service completion,
    abandonment, redial exit, reconnect exit) each step draws an
    exponential holding time E/R and one uniform U, and U·R picks the
    move. The completing caller is picked uniformly among those in
    service from U's residual in the move's band; the abandoner uniformly
    among those waiting. A holding time that would cross an interval
    boundary is discarded and redrawn under the new rates (memoryless, so
    this is exact). On a staffing decrease, in-progress services finish
    (no preemption) and freed slots are not refilled until the busy count
    drops below the new s. ``initial`` puts customers in the system at
    t=0: queue members are recorded as fresh attempts arriving at 0
    (served FCFS), orbit members carry no record until they re-attempt.
    ``max_events`` bounds the number of transitions; one more raises.
    """
    grid = schedule_grid(schedule, grid_step)
    n_nodes = len(grid)
    grid_l = grid.tolist() + [_INF]

    zq0, zrd0, zrc0 = initial
    if min(initial) < 0:
        raise ParameterError(f"initial state must be nonnegative, got {initial}")

    mu, theta = schedule.mu, schedule.theta
    p, q = schedule.p, schedule.q
    drd_rate, drc_rate = schedule.delta_rd, schedule.delta_rc
    boundaries = schedule.boundaries
    lambdas = schedule.lambdas
    agents = schedule.agents
    m = schedule.m

    rng = np.random.Generator(np.random.Philox(key=seed))
    exponential = _stream(rng.standard_exponential)
    uniform = _stream(rng.random)

    s = agents[0]
    lam = lambdas[0]
    nan = float("nan")

    # Per-attempt records in arrival order, starting with the initial
    # queue: fresh attempts at t=0, the first s of them in service. rt is
    # the time an attempt left the queue (service start or abandonment),
    # rse its service end; waits and service starts follow from rt.
    busy = min(zq0, s)
    n_wait = zq0 - busy
    ra = array("d", [0.0] * zq0)
    rk = array("b", [0] * zq0)
    rstat = array("b", [_IN_SERVICE] * busy + [_WAITING] * n_wait)
    rt = array("d", [0.0] * busy + [nan] * n_wait)
    rse = array("d", [nan] * zq0)
    n_att = zq0
    # callers in service, in no order (swap-remove); callers waiting, in
    # arrival order from qh on, with those who abandoned left in place as
    # tombstones
    serving = list(range(busy))
    queue = list(range(busy, zq0))
    qh = 0

    def serve_next(t: float) -> None:
        # the head of the queue, past any tombstones, enters service
        nonlocal busy, qh
        cid = queue[qh]
        while rstat[cid] != _WAITING:
            qh += 1
            cid = queue[qh]
        qh += 1
        busy += 1
        serving.append(cid)
        rstat[cid] = _IN_SERVICE
        rt[cid] = t

    def trim_queue() -> None:
        # drop served callers and tombstones, so that the queue holds
        # about as many slots as callers waiting: memory follows the queue,
        # not the path, and the abandoner's rejection needs under two tries
        # on average
        nonlocal qh
        queue[:] = [c for c in queue[qh:] if rstat[c] == _WAITING]
        qh = 0

    # grid samples, ten counters per node in SimOutput's column order
    samples = array("q")
    zq, zrd, zrc = zq0, zrd0, zrc0
    pi_lam = d_s = d_a = d_rd = d_rc = e_rd = e_rc = 0
    gi = 0
    next_g = grid_l[0]
    events = 0

    t = 0.0
    bi = 1
    next_b = boundaries[1]

    while True:
        c_svc = lam + mu * busy
        c_ab = c_svc + theta * (zq - busy)
        c_rd = c_ab + drd_rate * zrd
        total = c_rd + drc_rate * zrc
        t_next = t + exponential() / total if total > 0.0 else _INF
        crossing = t_next >= next_b
        if crossing:
            t_next = next_b
        # left-continuous sampling: the state just before the move
        while next_g <= t_next:
            samples.extend((zq, zrd, zrc, pi_lam, d_s, d_a, d_rd, d_rc, e_rd, e_rc))
            gi += 1
            next_g = grid_l[gi]
        t = t_next
        if crossing:
            if bi == m:
                break
            s = agents[bi]
            lam = lambdas[bi]
            while busy < s and zq > busy:
                serve_next(t)
            bi += 1
            next_b = boundaries[bi]
            continue

        events += 1
        if events > max_events:
            raise SimulationError(
                f"event budget {max_events} exceeded at t={t:.6g} "
                f"(seed {seed}, state Z=({zq}, {zrd}, {zrc}), "
                f"{n_att} attempts so far)"
            )
        # U < 1 gives u < total, so a move of zero rate is never picked
        u = uniform() * total
        if u < lam:
            pi_lam += 1
            klass = 0
        elif u < c_svc:
            k = int((u - lam) / mu)
            if k == busy:  # rounding at the band's top
                k -= 1
            cid = serving[k]
            serving[k] = serving[-1]
            serving.pop()
            busy -= 1
            zq -= 1
            d_s += 1
            rstat[cid] = _SERVED
            rse[cid] = t
            if q > 0.0 and uniform() < q:
                zrc += 1
                e_rc += 1
            if busy < s and zq > busy:
                serve_next(t)
            continue
        elif u < c_ab:
            # uniform over the waiting callers: a uniform slot of the
            # queue, redrawn while it holds a tombstone
            n_slots = len(queue) - qh
            cid = queue[qh + int(uniform() * n_slots)]
            while rstat[cid] != _WAITING:
                cid = queue[qh + int(uniform() * n_slots)]
            rstat[cid] = _ABANDONED
            rt[cid] = t
            zq -= 1
            d_a += 1
            if p > 0.0 and uniform() < p:
                zrd += 1
                e_rd += 1
            if len(queue) > 2 * (zq - busy) + _SLACK:
                trim_queue()
            continue
        elif u < c_rd:
            zrd -= 1
            d_rd += 1
            klass = 1
        else:
            zrc -= 1
            d_rc += 1
            klass = 2
        # the attempt goes straight into service if an agent is free
        ra.append(t)
        rk.append(klass)
        rse.append(nan)
        zq += 1
        if busy < s:
            busy += 1
            serving.append(n_att)
            rstat.append(_IN_SERVICE)
            rt.append(t)
        else:
            queue.append(n_att)
            rstat.append(_WAITING)
            rt.append(nan)
            if len(queue) > 2 * (zq - busy) + _SLACK:
                trim_queue()
        n_att += 1

    cols = np.frombuffer(samples, dtype=np.int64).reshape(n_nodes, 10).T
    status = np.frombuffer(rstat, dtype=np.int8)
    left = np.frombuffer(rt)
    out = SimOutput(
        grid, *cols, rec_arrival=ra, rec_class=rk, rec_status=rstat,
        rec_wait=left - np.frombuffer(ra),
        rec_sstart=np.where(status == _ABANDONED, nan, left), rec_send=rse,
        seed=seed, grid_step=grid_step, initial=initial, n_events=events,
    )
    verify_conservation(out)
    return out


def _sl_ap_counts(out: SimOutput, tau: float,
                  window: tuple[float, float] | None) -> tuple[int, int, int]:
    """(served, abandoned, served within tau) over non-censored attempts."""
    served = out.rec_status == _SERVED
    abandoned = out.rec_status == _ABANDONED
    if window is not None:
        w0, w1 = window
        in_win = (out.rec_arrival >= w0) & (out.rec_arrival < w1)
        served = served & in_win
        abandoned = abandoned & in_win
    n_s = int(served.sum())
    n_a = int(abandoned.sum())
    n_sl = int((served & (out.rec_wait <= tau)).sum())
    return n_s, n_a, n_sl


def measure_sl_ap(
    out: SimOutput,
    tau: float,
    window: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Service level and abandonment probability of one simulated path.

    AP = abandoned / (served + abandoned) and SL = served within ``tau``
    / (served + abandoned). Censored attempts are excluded everywhere.
    ``window`` restricts to attempts arriving in [w0, w1). Every attempt
    counts separately, whatever its class.
    """
    check_tau(tau)
    n_s, n_a, n_sl = _sl_ap_counts(out, tau, window)
    if n_s + n_a == 0:
        raise SimulationError("no served or abandoned attempts to measure")
    return n_sl / (n_s + n_a), n_a / (n_s + n_a)


@dataclass(frozen=True)
class ReplicationSummary:
    """Cross-replication aggregate.

    ``mean``/``std`` are per-grid-point sample statistics of the three
    state components, shape (n, 3), ddof=1 (zero when r == 1). SL and AP
    pool outcome counts over all replications; half-widths are 95%
    normal-approximation intervals from the per-replication spread.
    ``first_path`` is replication 0's full output.
    """

    r: int
    base_seed: int
    grid: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    sl: float
    ap: float
    sl_half_width: float
    ap_half_width: float
    sl_reps: np.ndarray
    ap_reps: np.ndarray
    n_served: int
    n_abandoned: int
    tau: float
    first_path: SimOutput


def run_replications(
    schedule: Schedule,
    r: int,
    base_seed: int,
    grid_step: float = 0.1,
    tau: float = 0.5,
    window: tuple[float, float] | None = None,
    initial: tuple[int, int, int] = (0, 0, 0),
) -> ReplicationSummary:
    """Run ``r`` independent replications and aggregate.

    Replication i uses Philox key base_seed * 2**64 + i, so the set of
    paths is fixed by ``base_seed`` alone and aggregation in index order
    makes the summary bit-reproducible. Every path's samples are held until
    the end, so r times the grid's node count may not exceed
    ``MAX_GRID_NODES`` (240 MB of float64 triples).
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    check_tau(tau)
    nodes = len(schedule_grid(schedule, grid_step))
    if r * nodes > MAX_GRID_NODES:
        raise ParameterError(
            f"{r} replications of {nodes} grid nodes exceed the limit of "
            f"{MAX_GRID_NODES} path samples held in memory until aggregation: "
            f"at most {MAX_GRID_NODES // nodes} replications fit on this grid, "
            "and a coarser grid step admits more")
    values = None
    sl_reps = np.empty(r)
    ap_reps = np.empty(r)
    tot_s = tot_a = tot_sl = 0
    for i in range(r):
        out = simulate_path(schedule, base_seed * 2 ** 64 + i,
                            grid_step=grid_step, initial=initial)
        if values is None:
            values = np.empty((r, len(out.grid), 3))
            first = out
        values[i] = out.values
        n_s, n_a, n_sl = _sl_ap_counts(out, tau, window)
        tot_s += n_s
        tot_a += n_a
        tot_sl += n_sl
        n = n_s + n_a
        sl_reps[i] = n_sl / n if n else math.nan
        ap_reps[i] = n_a / n if n else math.nan

    mean = values.mean(axis=0)
    std = values.std(axis=0, ddof=1) if r > 1 else np.zeros_like(mean)
    if tot_s + tot_a == 0:
        raise SimulationError("no served or abandoned attempts across replications")
    ap = tot_a / (tot_s + tot_a)
    sl = tot_sl / (tot_s + tot_a)
    if r > 1:
        sl_hw = 1.96 * np.nanstd(sl_reps, ddof=1) / math.sqrt(r)
        ap_hw = 1.96 * np.nanstd(ap_reps, ddof=1) / math.sqrt(r)
    else:
        sl_hw = ap_hw = 0.0
    return ReplicationSummary(
        r=r, base_seed=base_seed, grid=first.grid, mean=mean, std=std, sl=sl,
        ap=ap, sl_half_width=float(sl_hw), ap_half_width=float(ap_hw),
        sl_reps=sl_reps, ap_reps=ap_reps, n_served=tot_s, n_abandoned=tot_a,
        tau=tau, first_path=first,
    )


PATH_CSV_HEADER = TRAJECTORY_CSV_HEADER + ",d_s,d_a,d_rd,d_rc"
RECORDS_CSV_HEADER = "arrival_time,class,outcome,wait"
SUMMARY_CSV_HEADER = ("t,mean_z_q,mean_z_rd,mean_z_rc,"
                      "std_z_q,std_z_rd,std_z_rc")


def write_summary_csv(path: str | Path, summary: ReplicationSummary) -> None:
    """Per-grid-point cross-replication statistics."""
    write_csv(path, SUMMARY_CSV_HEADER,
              [summary.grid, *summary.mean.T, *summary.std.T])


def write_path_csv(path: str | Path, out: SimOutput, schedule: Schedule) -> None:
    """Trajectory-schema CSV plus cumulative counter columns.

    The rate columns are :func:`orbitq.fluid.total_arrival_rate` of the
    simulated path, so they follow the fluid writer's rules exactly.
    """
    rates = total_arrival_rate(Trajectory(out.grid, out.values), schedule)
    write_csv(path, PATH_CSV_HEADER,
              [out.grid, out.z_q, out.z_rd, out.z_rc,
               rates.total, rates.fresh, rates.redial, rates.reconnect,
               out.d_s, out.d_a, out.d_rd, out.d_rc])


def write_records_csv(path: str | Path, out: SimOutput) -> None:
    """One row per attempt; the wait cell is empty for censored attempts."""
    # object arrays index by reference, so no string is copied per attempt
    classes = np.array(_CLASS_NAMES, dtype=object)[out.rec_class]
    outcome = np.array(_OUTCOME_NAMES, dtype=object)[out.rec_status]
    wait = np.ma.masked_array(out.rec_wait, mask=out.rec_status < _SERVED)
    write_csv(path, RECORDS_CSV_HEADER, [out.rec_arrival, classes, outcome, wait])


def write_metadata_json(path: str | Path, seed: int, r: int,
                        grid_step: float, extra: dict | None = None) -> None:
    payload = {
        "seed": seed,
        "replications": r,
        "grid_step": grid_step,
        "rng": RNG_NAME,
        "seed_derivation": SEED_DERIVATION,
        "stream_version": STREAM_VERSION,
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)
