"""Discrete-event simulation of the call-center model with orbits.

Stochastic ground truth for the fluid solver: an exact continuous-time
event simulation with Poisson fresh arrivals, exponential services,
per-customer exponential patience, and per-customer exponential orbit
residence. Every abandonment enters the redial orbit with probability p;
every completed service enters the reconnect orbit with probability q;
orbit exits re-arrive as new call attempts sharing the FCFS queue.

Randomness comes from a counter-based Philox generator so replication
streams are independent by construction: replication r of a run seeded
with base_seed uses key = base_seed * 2**64 + r. All draws for one path
come from a single stream in event order, so a fixed seed reproduces the
exact event sequence.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heappush, heappop
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .model import ParameterError, Schedule, Trajectory, check_tau, schedule_grid
from .fluid import TRAJECTORY_CSV_HEADER, total_arrival_rate

RNG_NAME = "philox4x64"
SEED_DERIVATION = "key = base_seed * 2**64 + rep_index"

_INF = float("inf")

# event codes; heap entries are (time, sequence, code, payload)
_FRESH, _SVC_END, _ABANDON, _RD_EXIT, _RC_EXIT = 0, 1, 2, 3, 4

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
    and service end (NaN where undefined).
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
    def n_attempts(self) -> int:
        return len(self.rec_arrival)

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


def simulate_path(
    schedule: Schedule,
    seed: int,
    grid_step: float = 0.1,
    initial: tuple[int, int, int] = (0, 0, 0),
    max_events: int = 10 ** 9,
) -> SimOutput:
    """Simulate one path on [0, horizon], sampling on the shared grid.

    Fresh arrivals are Poisson at the current interval's rate; a pending
    fresh arrival is invalidated and redrawn at each boundary (memoryless,
    so the stream restarts exactly). On a staffing decrease, in-progress
    services finish (no preemption) and freed slots are not refilled
    until the busy count drops below the new s. ``initial`` puts
    customers in the system at t=0: queue members are recorded as fresh
    attempts arriving at 0 (served FCFS), orbit members carry no record
    until they re-attempt. Raises after ``max_events`` processed events.
    """
    grid = schedule_grid(schedule, grid_step)
    n_nodes = len(grid)
    grid_l = grid.tolist()

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
    rexp = rng.exponential
    rnd = rng.random

    # grid sample storage
    g_zq = np.zeros(n_nodes, dtype=np.int64)
    g_zrd = np.zeros(n_nodes, dtype=np.int64)
    g_zrc = np.zeros(n_nodes, dtype=np.int64)
    g_pi = np.zeros(n_nodes, dtype=np.int64)
    g_ds = np.zeros(n_nodes, dtype=np.int64)
    g_da = np.zeros(n_nodes, dtype=np.int64)
    g_drd = np.zeros(n_nodes, dtype=np.int64)
    g_drc = np.zeros(n_nodes, dtype=np.int64)
    g_erd = np.zeros(n_nodes, dtype=np.int64)
    g_erc = np.zeros(n_nodes, dtype=np.int64)

    # compact per-attempt storage
    ra = array("d")
    rk = array("b")
    rstat = array("b")
    rw = array("d")
    rss = array("d")
    rse = array("d")
    nan = float("nan")

    heap: list = []
    queue: deque[int] = deque()
    seq = 0

    zq, zrd, zrc = zq0, zrd0, zrc0
    busy = 0
    pi_lam = d_s = d_a = d_rd = d_rc = e_rd = e_rc = 0
    n_att = 0
    gi = 0
    events = 0

    s = agents[0]
    lam = lambdas[0]
    horizon = boundaries[m]
    fresh_ver = 0

    def attempt(t: float, klass: int) -> None:
        nonlocal zq, busy, n_att, seq
        cid = n_att
        n_att += 1
        ra.append(t)
        rk.append(klass)
        zq += 1
        if busy < s:
            busy += 1
            rstat.append(_IN_SERVICE)
            rw.append(0.0)
            rss.append(t)
            rse.append(nan)
            seq += 1
            heappush(heap, (t + rexp() / mu, seq, _SVC_END, cid))
        else:
            rstat.append(_WAITING)
            rw.append(nan)
            rss.append(nan)
            rse.append(nan)
            queue.append(cid)
            seq += 1
            heappush(heap, (t + rexp() / theta, seq, _ABANDON, cid))

    def start_from_queue(t: float) -> None:
        # skip abandoned entries lazily; start at most one service
        nonlocal busy, seq
        while queue:
            cid = queue.popleft()
            if rstat[cid] == _WAITING:
                rstat[cid] = _IN_SERVICE
                busy += 1
                rw[cid] = t - ra[cid]
                rss[cid] = t
                seq += 1
                heappush(heap, (t + rexp() / mu, seq, _SVC_END, cid))
                return

    # initial population: queue members as fresh attempts at t=0,
    # orbit members scheduled for their (memoryless) exits
    for _ in range(zq0):
        zq -= 1          # attempt() re-increments
        attempt(0.0, 0)
    for _ in range(zrd0):
        seq += 1
        heappush(heap, (rexp() / drd_rate, seq, _RD_EXIT, 0))
    for _ in range(zrc0):
        seq += 1
        heappush(heap, (rexp() / drc_rate, seq, _RC_EXIT, 0))

    if lam > 0:
        seq += 1
        heappush(heap, (rexp() / lam, seq, _FRESH, fresh_ver))

    bi = 1
    next_b = boundaries[1]

    while True:
        te = heap[0][0] if heap else _INF
        if next_b <= te:
            # left-continuous sampling: record state before boundary actions
            while gi < n_nodes and grid_l[gi] <= next_b:
                g_zq[gi] = zq; g_zrd[gi] = zrd; g_zrc[gi] = zrc
                g_pi[gi] = pi_lam; g_ds[gi] = d_s; g_da[gi] = d_a
                g_drd[gi] = d_rd; g_drc[gi] = d_rc
                g_erd[gi] = e_rd; g_erc[gi] = e_rc
                gi += 1
            if bi >= m:
                break
            s = agents[bi]
            lam = lambdas[bi]
            fresh_ver += 1
            if lam > 0:
                seq += 1
                heappush(heap, (next_b + rexp() / lam, seq, _FRESH, fresh_ver))
            while busy < s and queue:
                start_from_queue(next_b)
            bi += 1
            next_b = boundaries[bi]
            continue

        t, _, code, payload = heappop(heap)
        while gi < n_nodes and grid_l[gi] <= t:
            g_zq[gi] = zq; g_zrd[gi] = zrd; g_zrc[gi] = zrc
            g_pi[gi] = pi_lam; g_ds[gi] = d_s; g_da[gi] = d_a
            g_drd[gi] = d_rd; g_drc[gi] = d_rc
            g_erd[gi] = e_rd; g_erc[gi] = e_rc
            gi += 1
        events += 1
        if events > max_events:
            raise SimulationError(
                f"event budget {max_events} exceeded at t={t:.6g} "
                f"(seed {seed}, state Z=({zq}, {zrd}, {zrc}), "
                f"{n_att} attempts so far)"
            )

        if code == _FRESH:
            if payload != fresh_ver:
                continue  # drawn under a previous interval's rate
            pi_lam += 1
            attempt(t, 0)
            seq += 1
            heappush(heap, (t + rexp() / lam, seq, _FRESH, fresh_ver))
        elif code == _SVC_END:
            busy -= 1
            zq -= 1
            d_s += 1
            rstat[payload] = _SERVED
            rse[payload] = t
            if q > 0.0 and rnd() < q:
                zrc += 1
                e_rc += 1
                seq += 1
                heappush(heap, (t + rexp() / drc_rate, seq, _RC_EXIT, 0))
            if busy < s:
                start_from_queue(t)
        elif code == _ABANDON:
            if rstat[payload] != _WAITING:
                continue  # already in service; patience no longer applies
            rstat[payload] = _ABANDONED
            zq -= 1
            d_a += 1
            rw[payload] = t - ra[payload]
            if p > 0.0 and rnd() < p:
                zrd += 1
                e_rd += 1
                seq += 1
                heappush(heap, (t + rexp() / drd_rate, seq, _RD_EXIT, 0))
        elif code == _RD_EXIT:
            zrd -= 1
            d_rd += 1
            attempt(t, 1)
        else:  # _RC_EXIT
            zrc -= 1
            d_rc += 1
            attempt(t, 2)

    out = SimOutput(
        grid=grid, z_q=g_zq, z_rd=g_zrd, z_rc=g_zrc, pi_lam=g_pi, d_s=g_ds,
        d_a=g_da, d_rd=g_drd, d_rc=g_drc, e_rd=g_erd, e_rc=g_erc,
        rec_arrival=ra, rec_class=rk, rec_status=rstat, rec_wait=rw,
        rec_sstart=rss, rec_send=rse, seed=seed, grid_step=grid_step,
        initial=initial, n_events=events,
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
    makes the summary bit-reproducible.
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    check_tau(tau)
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
    wait = np.where(out.rec_status < _SERVED, "", out.rec_wait.astype(object))
    write_csv(path, RECORDS_CSV_HEADER, [out.rec_arrival, classes, outcome, wait])


def write_metadata_json(path: str | Path, seed: int, r: int,
                        grid_step: float, extra: dict | None = None) -> None:
    payload = {
        "seed": seed,
        "replications": r,
        "grid_step": grid_step,
        "rng": RNG_NAME,
        "seed_derivation": SEED_DERIVATION,
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)
