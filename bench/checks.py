"""Correctness checks on orbitq's CLI artifacts, computed apart from orbitq.

Every reference number here comes from code in this file: the fluid ODE
is solved with scipy's DOP853, the Erlang-A law by its own birth-death
recursion, and the simulator's counters are recounted from its per-attempt
records. Only the CTMC check asks orbitq for the stationary vector, and
then tests it against flow-balance identities that orbitq never uses.

Each ``check_*`` function raises :class:`CheckError` with a reason when an
artifact is wrong and returns a few figures for the report when it is not.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# The program's RK4 loses order where z_q crosses s; its largest gap from
# the kink-aware reference below is 4.6e-7 of a column's largest value
# (reference scenario). 1e-5 leaves a factor of 20.
FLUID_RTOL = 1e-5
# Erlang AP is a closed sum, so both sides agree to rounding and the
# program's 1e-10 truncation tail.
AP_ATOL = 1e-9
AP_RTOL = 1e-7
# Acceptance criteria 2 and 3 at rho_hat >= 1.2.
E_RD_MAX = 0.05
E_RC_MAX = 0.03
SL_GAP_MAX = 0.03
AP_GAP_MAX = 0.02
# Truncated-CTMC bounds (criterion 4 and the solver's own tolerance).
CTMC_RESIDUAL_MAX = 1e-10
CTMC_REFLECTED_MAX = 1e-8
CTMC_BOX_DRIFT_MAX = 1e-6
CTMC_BALANCE_RTOL = 1e-6


class CheckError(AssertionError):
    """An artifact disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_numeric_csv(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_csv(path)
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------- fluid


class FluidReference:
    """The three fluid ODEs solved piece by piece with scipy.

    Each piece is one regime (z_q below or above s) inside one schedule
    interval, so the integrator never steps across a kink of the drift.
    """

    def __init__(self, cfg: dict):
        mu, theta, p, q = cfg["mu"], cfg["theta"], cfg["p"], cfg["q"]
        d_rd, d_rc = cfg["delta_rd"], cfg["delta_rc"]
        self.cfg = cfg
        self.pieces: list[tuple[float, float, object]] = []
        z = np.zeros(3)
        for iv in cfg["intervals"]:
            lam, s = iv["lambda"], iv["s"]
            t, t_end = float(iv["t_start"]), float(iv["t_end"])
            while t < t_end:
                dq = lam + d_rd * z[1] + d_rc * z[2] - mu * min(z[0], s) \
                    - theta * max(z[0] - s, 0.0)
                above = z[0] > s or (z[0] == s and dq > 0)
                if above:
                    def rhs(_t, y, lam=lam, s=s):
                        ex = y[0] - s
                        return [lam + d_rd * y[1] + d_rc * y[2] - mu * s - theta * ex,
                                p * theta * ex - d_rd * y[1],
                                q * mu * s - d_rc * y[2]]
                else:
                    def rhs(_t, y, lam=lam):
                        return [lam + d_rd * y[1] + d_rc * y[2] - mu * y[0],
                                -d_rd * y[1],
                                q * mu * y[0] - d_rc * y[2]]

                def crossing(_t, y, s=s):
                    return y[0] - s
                crossing.terminal = True
                crossing.direction = -1 if above else 1
                sol = solve_ivp(rhs, (t, t_end), z, method="DOP853", rtol=1e-11,
                                atol=1e-10, dense_output=True, events=crossing)
                _require(sol.success, f"reference ODE solve failed: {sol.message}")
                self.pieces.append((t, float(sol.t[-1]), sol.sol))
                z = sol.y[:, -1].copy()
                if sol.status == 1:
                    z[0] = s
                t = float(sol.t[-1])
        self._ends = np.array([b for _, b, _ in self.pieces])

    def states(self, times: np.ndarray) -> np.ndarray:
        """(len(times), 3) states; continuous, so boundary times may use either side."""
        times = np.asarray(times, dtype=float)
        which = np.minimum(np.searchsorted(self._ends, times, side="left"),
                           len(self.pieces) - 1)
        out = np.empty((len(times), 3))
        for i in np.unique(which):
            sel = which == i
            out[sel] = self.pieces[i][2](times[sel]).T
        return out

    def fresh_rate(self, times: np.ndarray) -> np.ndarray:
        """Right-continuous fresh arrival rate; the horizon keeps the last interval."""
        ivs = self.cfg["intervals"]
        starts = np.array([iv["t_start"] for iv in ivs], dtype=float)
        lams = np.array([iv["lambda"] for iv in ivs], dtype=float)
        idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, len(ivs) - 1)
        return lams[idx]

    def orbit_rate_mean(self, t0: float, t1: float, grid: float) -> float:
        """Trapezoid time-average of delta_rd*z_rd + delta_rc*z_rc over [t0, t1]."""
        n = max(1, round((t1 - t0) / grid))
        tt = np.linspace(t0, t1, n + 1)
        z = self.states(tt)
        rate = self.cfg["delta_rd"] * z[:, 1] + self.cfg["delta_rc"] * z[:, 2]
        return float(np.trapezoid(rate, tt) / (t1 - t0))

    def drift(self, z: np.ndarray, lam: float, s: int) -> np.ndarray:
        c = self.cfg
        sv, ex = min(z[0], s), max(z[0] - s, 0.0)
        return np.array([
            lam + c["delta_rd"] * z[1] + c["delta_rc"] * z[2] - c["mu"] * sv - c["theta"] * ex,
            c["p"] * c["theta"] * ex - c["delta_rd"] * z[1],
            c["q"] * c["mu"] * sv - c["delta_rc"] * z[2],
        ])


def check_fluid(out: Path, ref: FluidReference, grid: float) -> dict:
    """trajectory.csv and stationary.json from ``orbitq fluid``."""
    traj = read_numeric_csv(out / "trajectory.csv")
    t = traj["t"]
    horizon = ref.cfg["intervals"][-1]["t_end"]
    n = round(horizon / grid)
    _require(len(t) == n + 1 and np.allclose(t, np.linspace(0.0, horizon, n + 1),
                                             rtol=0, atol=1e-9),
             f"trajectory grid is not 0..{horizon} in steps of {grid}")
    z = np.column_stack([traj["z_q"], traj["z_rd"], traj["z_rc"]])
    expect = ref.states(t)
    scale = np.maximum(np.abs(expect).max(axis=0), 1e-12)
    gap = (np.abs(z - expect) / scale).max(axis=0)
    _require(bool(np.all(gap <= FLUID_RTOL)),
             f"fluid states differ from the reference ODE solve by "
             f"{gap.max():.2e} of the column scale (> {FLUID_RTOL:g})")

    c = ref.cfg
    fresh = ref.fresh_rate(t)
    _require(np.array_equal(traj["lambda_fresh"], fresh),
             "lambda_fresh is not the interval's fresh rate")
    for col, rate in (("lambda_rd", c["delta_rd"] * z[:, 1]),
                      ("lambda_rc", c["delta_rc"] * z[:, 2])):
        _require(np.allclose(traj[col], rate, rtol=1e-12, atol=0),
                 f"{col} is not delta * orbit content")
    total = traj["lambda_fresh"] + traj["lambda_rd"] + traj["lambda_rc"]
    _require(np.allclose(traj["lambda_total"], total, rtol=1e-12, atol=0),
             "lambda_total != fresh + delta_rd*z_rd + delta_rc*z_rc")

    stat = json.loads((out / "stationary.json").read_text(encoding="utf-8"))
    _require(len(stat["intervals"]) == len(c["intervals"]),
             "stationary.json has the wrong number of intervals")
    worst_drift = 0.0
    for row, iv in zip(stat["intervals"], c["intervals"]):
        lam, s = iv["lambda"], iv["s"]
        z_star = np.array([row["z_q"], row["z_rd"], row["z_rc"]])
        # the stationary point is where the drift vanishes
        d = np.abs(ref.drift(z_star, lam, s)).max() / max(lam, 1.0)
        worst_drift = max(worst_drift, d)
        rho_hat = lam / ((1.0 - c["q"]) * s * c["mu"])
        _require(math.isclose(row["rho_hat"], rho_hat, rel_tol=1e-12),
                 f"interval {row['index']}: rho_hat {row['rho_hat']} != {rho_hat}")
        regime = "overloaded" if rho_hat >= 1.0 else "underloaded"
        _require(row["regime"] == regime and (z_star[0] >= s) == (rho_hat >= 1.0),
                 f"interval {row['index']}: regime does not match rho_hat {rho_hat}")
    _require(worst_drift <= 1e-9,
             f"stationary states leave a drift of {worst_drift:.2e} x lambda")
    final = stat["final_state"]
    z_end = np.array([final["z_q"], final["z_rd"], final["z_rc"]])
    _require(final["t"] == horizon and np.all(
        np.abs(z_end - expect[-1]) <= FLUID_RTOL * scale),
        "final_state does not match the reference solve at the horizon")
    return {"max_rel_gap": float(gap.max()), "samples": int(len(t))}


# ---------------------------------------------------------------- erlang


def erlang_a_ap(lam: float, s: int, mu: float, theta: float) -> float:
    """Abandonment probability of M/M/s+M from its birth-death law."""
    # terms beyond the mode fall at least geometrically once the death
    # rate passes lam; stop when they are 1e-40 of the largest
    log_pi = [0.0]
    n = 0
    while True:
        n += 1
        death = mu * min(n, s) + theta * max(n - s, 0)
        log_pi.append(log_pi[-1] + math.log(lam) - math.log(death))
        if death > lam and log_pi[-1] < max(log_pi) - 92.0:
            break
    lp = np.array(log_pi)
    w = np.exp(lp - lp.max())
    w /= w.sum()
    excess = np.maximum(np.arange(len(w)) - s, 0)
    return float(theta * (w @ excess) / lam)


def check_erlang(out: Path, ref: FluidReference, block: float, grid: float) -> dict:
    """performance.csv from ``orbitq erlang --block <block>``."""
    header, rows = read_csv(out / "performance.csv")
    _require(header == ["interval", "t_start", "t_end", "lambda_mean", "s", "sl", "ap"],
             f"unexpected performance.csv header {header}")
    _require(rows and rows[-1][0] == "aggregate", "aggregate row missing")
    c = ref.cfg
    body, agg = rows[:-1], rows[-1]
    pieces = []
    for iv in c["intervals"]:
        t0, t1 = float(iv["t_start"]), float(iv["t_end"])
        k = max(1, math.ceil((t1 - t0) / block - 1e-9))
        pieces += [(t0 + (t1 - t0) * i / k, t0 + (t1 - t0) * (i + 1) / k,
                    iv["lambda"], iv["s"]) for i in range(k)]
    _require(len(body) == len(pieces),
             f"{len(body)} blocks written, expected {len(pieces)}")
    weights, sls, aps = [], [], []
    worst_ap = 0.0
    for r, (t0, t1, lam, s) in zip(body, pieces):
        lam_mean, sl, ap = float(r[3]), float(r[5]), float(r[6])
        _require(int(r[4]) == s and math.isclose(float(r[1]), t0, abs_tol=1e-9)
                 and math.isclose(float(r[2]), t1, abs_tol=1e-9),
                 f"block {r[0]} is not [{t0}, {t1}) with s={s}")
        expect_lam = lam + ref.orbit_rate_mean(t0, t1, grid)
        _require(math.isclose(lam_mean, expect_lam, rel_tol=1e-5),
                 f"block {r[0]}: lambda_mean {lam_mean} != {expect_lam}")
        expect_ap = erlang_a_ap(lam_mean, s, c["mu"], c["theta"])
        gap = abs(ap - expect_ap)
        worst_ap = max(worst_ap, gap)
        _require(gap <= AP_ATOL + AP_RTOL * expect_ap,
                 f"block {r[0]}: AP {ap} != birth-death {expect_ap}")
        _require(-1e-12 <= sl <= 1.0 - ap + 1e-12,
                 f"block {r[0]}: SL {sl} outside [0, 1 - AP]")
        weights.append(lam_mean * (t1 - t0))
        sls.append(sl)
        aps.append(ap)
    w = np.array(weights) / sum(weights)
    _require(math.isclose(float(agg[5]), float(w @ sls), rel_tol=1e-9, abs_tol=1e-12)
             and math.isclose(float(agg[6]), float(w @ aps), rel_tol=1e-9, abs_tol=1e-12),
             "aggregate SL/AP is not the arrival-weighted mean of the blocks")
    return {"blocks": len(body), "max_ap_gap": worst_ap,
            "sl": float(agg[5]), "ap": float(agg[6])}


# ------------------------------------------------------------ simulation


def _metadata(out: Path, seed: int, reps: int) -> dict:
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    _require(meta["seed"] == seed and meta["replications"] == reps,
             f"metadata records seed {meta['seed']} x {meta['replications']}, "
             f"ran {seed} x {reps}")
    n_s, n_a = meta["n_served"], meta["n_abandoned"]
    _require(n_s + n_a > 0 and math.isclose(meta["ap"], n_a / (n_s + n_a), rel_tol=1e-12),
             "metadata AP != n_abandoned / (n_served + n_abandoned)")
    _require(0.0 <= meta["sl"] <= 1.0 - meta["ap"] + 1e-12, "metadata SL outside [0, 1 - AP]")
    return meta


def _integrated_error(t: np.ndarray, sim: np.ndarray, fluid: np.ndarray) -> float:
    return float(np.trapezoid(np.abs(sim - fluid), t) / np.trapezoid(sim, t))


def check_replications(out: Path, ref: FluidReference, erlang: dict,
                       seed: int, reps: int) -> dict:
    """summary.csv and metadata.json of a replicated run, against the fluid
    reference (criterion 2) and the checked Erlang-A aggregate (criterion 3)."""
    meta = _metadata(out, seed, reps)
    summ = read_numeric_csv(out / "summary.csv")
    t = summ["t"]
    fluid = ref.states(t)
    e_rd = _integrated_error(t, summ["mean_z_rd"], fluid[:, 1])
    e_rc = _integrated_error(t, summ["mean_z_rc"], fluid[:, 2])
    d_sl = abs(meta["sl"] - erlang["sl"])
    d_ap = abs(meta["ap"] - erlang["ap"])
    _require(e_rd <= E_RD_MAX and e_rc <= E_RC_MAX,
             f"mean path vs fluid: e_RD {e_rd:.4f} (<= {E_RD_MAX}), "
             f"e_RC {e_rc:.4f} (<= {E_RC_MAX})")
    _require(d_sl <= SL_GAP_MAX and d_ap <= AP_GAP_MAX,
             f"simulation vs Erlang-A: |dSL| {d_sl:.4f} (<= {SL_GAP_MAX}), "
             f"|dAP| {d_ap:.4f} (<= {AP_GAP_MAX})")
    return {"e_rd": e_rd, "e_rc": e_rc, "d_sl": d_sl, "d_ap": d_ap}


def check_single_path(out: Path, cfg: dict, seed: int) -> dict:
    """path.csv, records.csv, summary.csv and metadata.json of ``--reps 1``:
    every counter recounted from the attempt records at every grid point."""
    meta = _metadata(out, seed, 1)
    path = read_numeric_csv(out / "path.csv")
    header, rows = read_csv(out / "records.csv")
    _require(header == ["arrival_time", "class", "outcome", "wait"],
             f"unexpected records.csv header {header}")
    arrival = np.array([float(r[0]) for r in rows])
    klass = np.array([r[1] for r in rows])
    outcome = np.array([r[2] for r in rows])
    wait = np.array([float(r[3]) if r[3] else math.nan for r in rows])
    _require(bool(np.all(np.diff(arrival) >= 0)), "records are not in arrival order")
    done = outcome != "censored"
    _require(bool(np.all(wait[done] >= 0)) and bool(np.all(np.isnan(wait[~done]))),
             "waits must be >= 0 for finished attempts and empty for censored ones")

    t = path["t"]

    def count_by(times: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.sort(times), t, side="right")

    fresh = count_by(arrival[klass == "fresh"])
    d_rd = count_by(arrival[klass == "redial"])
    d_rc = count_by(arrival[klass == "reconnect"])
    ab = outcome == "abandoned"
    d_a = count_by(arrival[ab] + wait[ab])
    for name, recount in (("d_rd", d_rd), ("d_rc", d_rc), ("d_a", d_a)):
        _require(np.array_equal(path[name], recount),
                 f"path.csv {name} disagrees with the records at "
                 f"{int(np.sum(path[name] != recount))} grid points")
    z_q, z_rd, z_rc, d_s = path["z_q"], path["z_rd"], path["z_rc"], path["d_s"]
    _require(np.array_equal(z_q, fresh + d_rd + d_rc - d_s - d_a),
             "queue identity Z_Q = fresh + D_RD + D_RC - D_s - D_a fails")
    served = outcome == "served"
    # a completion needs a start; every served record completed by the horizon
    _require(bool(np.all(d_s <= count_by(arrival[served] + wait[served])))
             and d_s[-1] == served.sum() and d_a[-1] == ab.sum(),
             "service completions disagree with the served records")
    # orbit entries come from abandonments and completions only
    _require(bool(np.all(z_rd + d_rd <= d_a)) and bool(np.all(z_rc + d_rc <= d_s)),
             "orbit contents exceed the flows that feed them")
    for counter in (d_s, d_a, d_rd, d_rc):
        _require(bool(np.all(np.diff(counter) >= 0)), "cumulative counter decreases")
    _require(meta["n_served"] == served.sum() and meta["n_abandoned"] == ab.sum(),
             "metadata counts disagree with the records")
    summ = read_numeric_csv(out / "summary.csv")
    _require(np.array_equal(summ["t"], t)
             and np.array_equal(summ["mean_z_q"], z_q)
             and np.array_equal(summ["mean_z_rd"], z_rd)
             and np.array_equal(summ["mean_z_rc"], z_rc)
             and not any(summ[f"std_z_{c}"].any() for c in ("q", "rd", "rc")),
             "single-path summary.csv is not the path itself")
    for col, rate in (("lambda_rd", cfg["delta_rd"] * z_rd),
                      ("lambda_rc", cfg["delta_rc"] * z_rc)):
        _require(np.allclose(path[col], rate, rtol=1e-12, atol=0),
                 f"path.csv {col} is not delta * orbit content")
    return {"records": len(rows), "transitions": int(
        fresh[-1] + d_s[-1] + d_a[-1] + d_rd[-1] + d_rc[-1])}


def check_replications_vs_oracle(out: Path, oracle: dict, seed: int, reps: int,
                                 warmup: float) -> dict:
    """Time-averaged mean path after ``warmup`` against the CTMC moments.

    The allowance is four times sum_t w_t sd_t / sqrt(R), which bounds the
    standard error of any weighted time-average of the mean path whatever
    the time correlation, so a working simulator fails it essentially never.
    """
    _metadata(out, seed, reps)
    summ = read_numeric_csv(out / "summary.csv")
    keep = summ["t"] >= warmup
    gaps = {}
    for comp, key in (("q", "e_zq"), ("rd", "e_zrd"), ("rc", "e_zrc")):
        avg = float(summ[f"mean_z_{comp}"][keep].mean())
        allowance = 4.0 * float(summ[f"std_z_{comp}"][keep].mean()) / math.sqrt(reps)
        gap = abs(avg - oracle["moments"][key])
        _require(gap <= allowance,
                 f"time-averaged mean Z_{comp.upper()} {avg:.4f} vs oracle "
                 f"{oracle['moments'][key]:.4f}: gap {gap:.4f} > {allowance:.4f}")
        gaps[comp] = gap / allowance
    return {"gap_over_allowance": max(gaps.values())}


# ------------------------------------------------------------------ ctmc


def check_oracle(small_out: Path, large_out: Path, stationary_law) -> dict:
    """oracle.json of two boxes, plus flow balance of the stationary law.

    ``stationary_law(caps)`` returns (params, pi, caps) from orbitq's public
    API; the identities checked on it are derived here, not in orbitq.
    """
    docs = [json.loads((o / "oracle.json").read_text(encoding="utf-8"))
            for o in (small_out, large_out)]
    for doc in docs:
        nq, nrd, nrc = doc["caps"]
        _require(doc["n_states"] == (nq + 1) * (nrd + 1) * (nrc + 1),
                 f"n_states {doc['n_states']} does not match caps {doc['caps']}")
        _require(doc["residual"] <= CTMC_RESIDUAL_MAX,
                 f"caps {doc['caps']}: residual {doc['residual']:.2e} > {CTMC_RESIDUAL_MAX}")
        _require(doc["redirected_fraction"] < CTMC_REFLECTED_MAX,
                 f"caps {doc['caps']}: reflected fraction "
                 f"{doc['redirected_fraction']:.2e} >= {CTMC_REFLECTED_MAX}")
    m0, m1 = docs[0]["moments"], docs[1]["moments"]
    drift = max(abs(m0[k] - m1[k]) for k in ("e_zq", "e_zrd", "e_zrc"))
    _require(drift < CTMC_BOX_DRIFT_MAX,
             f"moments move by {drift:.2e} between boxes (>= {CTMC_BOX_DRIFT_MAX})")

    worst = 0.0
    for doc in docs:
        pr, pi, caps = stationary_law(tuple(doc["caps"]))
        nq, nrd, nrc = caps
        law = pi.reshape(nq + 1, nrd + 1, nrc + 1)
        n = np.arange(nq + 1)
        p_n = law.sum(axis=(1, 2))
        e_zrd = float(law.sum(axis=(0, 2)) @ np.arange(nrd + 1))
        e_zrc = float(law.sum(axis=(0, 1)) @ np.arange(nrc + 1))
        busy = float(p_n @ np.minimum(n, pr["s"]))
        waiting = float(p_n @ np.maximum(n - pr["s"], 0))
        for got, key in ((float(p_n @ n), "e_zq"), (e_zrd, "e_zrd"), (e_zrc, "e_zrc")):
            _require(math.isclose(got, doc["moments"][key], rel_tol=1e-9, abs_tol=1e-12),
                     f"caps {caps}: {key} in oracle.json is not the law's moment")
        sides = (
            ("reconnect balance", pr["delta_rc"] * e_zrc, pr["q"] * pr["mu"] * busy),
            ("redial balance", pr["delta_rd"] * e_zrd, pr["p"] * pr["theta"] * waiting),
            ("fresh balance", pr["lam"],
             (1 - pr["q"]) * pr["mu"] * busy + (1 - pr["p"]) * pr["theta"] * waiting),
        )
        for name, lhs, rhs in sides:
            rel = abs(lhs - rhs) / abs(lhs)
            worst = max(worst, rel)
            _require(rel <= CTMC_BALANCE_RTOL,
                     f"caps {caps}: {name} off by {rel:.2e} (> {CTMC_BALANCE_RTOL:g})")
    return {"box_drift": drift, "max_balance_gap": worst}
