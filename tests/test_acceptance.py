"""Acceptance gate: eight numbered criteria, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
the full suite takes a few minutes, dominated by the replicated
simulation studies. Tolerances and scenario constants are stated inline
next to each criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from orbitq.cli import main as cli_main
from orbitq.ctmc import build_chain, embed_pi, solve_stationary
from orbitq.erlang import ErlangAInput, abandonment_prob, service_level, steady_state
from orbitq.fluid import integrate_schedule, stationary_state
from orbitq.model import ModelParams, Schedule, single_interval
from orbitq.simulation import run_replications, simulate_path, verify_conservation
from orbitq.validation import (
    DEFAULT_RHO_GRID,
    run_single_interval_table,
    run_sl_ap_table,
    single_interval_family,
    staffing_for,
    two_peak_schedule,
)

TABLE_BASE = ModelParams(lam=40.0, s=1, mu=0.25, theta=0.5, p=0.5, q=0.1,
                         delta_rd=0.05, delta_rc=0.01)
ORACLE_FIXTURE = ModelParams(lam=2.0, s=2, mu=1.0, theta=1.0, p=0.3, q=0.2,
                             delta_rd=0.5, delta_rc=0.5)
BASE_SEED = 424242


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_stationary_transient_consistency():
    """The exact fluid solve at T=5000 matches the closed forms, rel < 1e-3,
    under 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for rho in DEFAULT_RHO_GRID:
        params = TABLE_BASE.with_interval(
            40.0, staffing_for(40.0, TABLE_BASE.mu, TABLE_BASE.q, rho))
        traj = integrate_schedule(single_interval(params, 5000.0), grid_step=10.0)
        target = stationary_state(params).state.as_array()
        assert target.min() > 0.0
        rel = (np.abs(traj.final_state.as_array() - target) / target).max()
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 10.0
    _report(1, ok, f"seven loads, max rel err {worst:.2e} (< 1e-3), "
                   f"{elapsed:.1f}s (< 10s)")


def test_criterion_2_single_interval_error_table():
    """R=100, T=480 orbit errors: e_RC <= 3%; e_RD <= 5% at rho >= 1.2;
    e_RD blows past 30% at rho = 1.01."""
    t0 = time.perf_counter()
    rows = run_single_interval_table(TABLE_BASE, DEFAULT_RHO_GRID, r=100,
                                     horizon=480.0, base_seed=BASE_SEED)
    elapsed = time.perf_counter() - t0
    by_rho = {r.rho_hat: r for r in rows}
    worst_rc = max(r.e_rc for r in rows)
    worst_rd_heavy = max(r.e_rd for r in rows if r.rho_hat >= 1.2)
    near_critical_rd = by_rho[1.01].e_rd
    ok = (worst_rc <= 0.03 and worst_rd_heavy <= 0.05
          and near_critical_rd > 0.30 and elapsed < 600.0)
    _report(2, ok,
            f"max e_RC {100 * worst_rc:.2f}% (<= 3%), "
            f"max e_RD at rho>=1.2 {100 * worst_rd_heavy:.2f}% (<= 5%), "
            f"e_RD at rho=1.01 {100 * near_critical_rd:.1f}% (> 30%), "
            f"{elapsed:.0f}s (< 600s)")


def test_criterion_3_sl_ap_pipeline_vs_simulation():
    """|SL^a - SL^sim| <= 3pp and |AP^a - AP^sim| <= 2pp at five loads."""
    rows = run_sl_ap_table(
        single_interval_family(TABLE_BASE, (1.1, 1.2, 1.3, 1.4, 1.5), 480.0),
        tau=0.5, r=100, base_seed=BASE_SEED)
    sl_gap = max(abs(r.sl_a - r.sl_sim) for r in rows)
    ap_gap = max(abs(r.ap_a - r.ap_sim) for r in rows)
    ok = sl_gap <= 0.03 and ap_gap <= 0.02
    _report(3, ok, f"max |SL gap| {100 * sl_gap:.2f}pp (<= 3pp), "
                   f"max |AP gap| {100 * ap_gap:.2f}pp (<= 2pp)")


def test_criterion_4_oracle_equivalence():
    """Truncation sanity plus DES batch means inside oracle 99% intervals."""
    caps = (60, 40, 40)
    chain = build_chain(ORACLE_FIXTURE, caps)
    sol = solve_stationary(chain)
    redirected_ok = sol.redirected_fraction < 1e-8

    big_caps = (120, 80, 80)
    big = build_chain(ORACLE_FIXTURE, big_caps)
    warm = embed_pi(sol.pi, caps, big_caps)
    sol_big = solve_stationary(big, x0=warm)
    drift = max(abs(sol_big.e_zq - sol.e_zq), abs(sol_big.e_zrd - sol.e_zrd),
                abs(sol_big.e_zrc - sol.e_zrc))
    drift_ok = drift < 1e-6

    horizon = 1_000_000.0
    out = simulate_path(single_interval(ORACLE_FIXTURE, horizon),
                        seed=BASE_SEED * 2 ** 64, grid_step=1.0)
    warmup, n_batches = 1000, 20
    data = out.values[warmup + 1:]
    per_batch = len(data) // n_batches
    batches = data[:per_batch * n_batches].reshape(n_batches, per_batch, 3)
    bmeans = batches.mean(axis=1)
    center = bmeans.mean(axis=0)
    se = bmeans.std(axis=0, ddof=1) / math.sqrt(n_batches)
    oracle = np.array([sol.e_zq, sol.e_zrd, sol.e_zrc])
    z = (center - oracle) / se
    ci_ok = bool(np.all(np.abs(z) <= 2.576))

    ok = redirected_ok and drift_ok and ci_ok
    _report(4, ok,
            f"redirected fraction {sol.redirected_fraction:.1e} (< 1e-8), "
            f"cap-doubling drift {drift:.1e} (< 1e-6), "
            f"batch-mean z-scores ({z[0]:+.2f}, {z[1]:+.2f}, {z[2]:+.2f}) "
            f"all within 2.576")


def test_criterion_5_erlang_identities():
    """SL(inf)+AP=1 on a 50-point grid; theta=mu Poisson law; DES match."""
    worst_gap = 0.0
    count = 0
    for lam in np.linspace(5.0, 95.0, 10):
        for theta in (0.25, 0.5, 1.0, 2.0, 4.0):
            s = max(1, round(lam / 0.25 / 1.1))
            inp = ErlangAInput(arrival_rate=float(lam), s=s, mu=0.25,
                               theta=theta)
            tau_inf = 16.0 / theta
            gap = abs(service_level(inp, tau_inf) + abandonment_prob(inp) - 1.0)
            worst_gap = max(worst_gap, gap)
            count += 1
    assert count == 50
    identity_ok = worst_gap <= 1e-6

    inp = ErlangAInput(arrival_rate=2.0, s=2, mu=1.0, theta=1.0, n_max=80)
    pi = steady_state(inp)
    n = np.arange(len(pi))
    poisson = np.exp(n * math.log(2.0) - 2.0
                     - np.array([math.lgamma(x + 1) for x in n]))
    poisson_gap = np.abs(pi - poisson).max()
    poisson_ok = poisson_gap <= 1e-10

    params = ModelParams(lam=40.0, s=148, mu=0.25, theta=0.5, p=0.0, q=0.0,
                         delta_rd=0.05, delta_rc=0.01)
    summary = run_replications(single_interval(params, 480.0), r=100,
                               base_seed=BASE_SEED, tau=0.5,
                               window=(120.0, 470.0))
    analytic = ErlangAInput(arrival_rate=40.0, s=148, mu=0.25, theta=0.5)
    sl_a = service_level(analytic, 0.5)
    ap_a = abandonment_prob(analytic)
    se_sl = summary.sl_half_width / 1.96
    se_ap = summary.ap_half_width / 1.96
    z_sl = abs(summary.sl - sl_a) / se_sl
    z_ap = abs(summary.ap - ap_a) / se_ap
    des_ok = z_sl <= 3.0 and z_ap <= 3.0

    ok = identity_ok and poisson_ok and des_ok
    _report(5, ok,
            f"max |SL(inf)+AP-1| {worst_gap:.1e} (<= 1e-6) on 50 points, "
            f"Poisson gap {poisson_gap:.1e} (<= 1e-10), "
            f"p=q=0 DES z-scores SL {z_sl:.2f} / AP {z_ap:.2f} (<= 3)")


def test_criterion_6_flow_conservation():
    """Integer conservation identities at every grid point of every path.

    ``simulate_path`` itself verifies every path it returns, so the whole
    suite enforces this criterion implicitly; here a battery of awkward
    schedules is checked explicitly.
    """
    battery = [
        (single_interval(ORACLE_FIXTURE, 500.0), (0, 0, 0)),
        (single_interval(ORACLE_FIXTURE, 200.0), (7, 5, 3)),
        (two_peak_schedule(TABLE_BASE, 1.3), (0, 0, 0)),
        (Schedule(boundaries=(0.0, 40.0, 80.0, 120.0),
                  lambdas=(6.0, 0.0, 6.0), agents=(6, 1, 3),
                  mu=0.1, theta=0.2, p=0.6, q=0.3,
                  delta_rd=0.7, delta_rc=0.9), (3, 2, 2)),
    ]
    points = 0
    for i, (sch, initial) in enumerate(battery):
        out = simulate_path(sch, seed=BASE_SEED + i, initial=initial)
        verify_conservation(out)
        points += len(out.grid)
    _report(6, True, f"exact conservation at {points} grid points across "
                     f"{len(battery)} schedules (suite-wide: checked on "
                     f"every simulated path)")


def test_criterion_7_scaling_convergence():
    """Scaled mean paths approach the fluid path: sup-norm deviation
    nonincreasing in n in {1, 4, 16} up to 2 standard errors."""
    params = TABLE_BASE.with_interval(
        40.0, staffing_for(40.0, TABLE_BASE.mu, TABLE_BASE.q, 1.2))
    fluid = integrate_schedule(single_interval(params, 480.0), grid_step=0.1)
    devs, ses = [], []
    for n in (1, 4, 16):
        scaled = params.with_interval(params.lam * n, params.s * n)
        summary = run_replications(single_interval(scaled, 480.0), r=50,
                                   base_seed=BASE_SEED + n)
        diff = np.abs(summary.mean / n - fluid.values)
        t_idx, comp = np.unravel_index(np.argmax(diff), diff.shape)
        devs.append(float(diff[t_idx, comp]))
        ses.append(float(summary.std[t_idx, comp] / n / math.sqrt(50)))
    ok = all(
        devs[i + 1] <= devs[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(2)
    )
    _report(7, ok,
            "sup-norm deviations "
            f"n=1: {devs[0]:.3f} (SE {ses[0]:.3f}), "
            f"n=4: {devs[1]:.3f} (SE {ses[1]:.3f}), "
            f"n=16: {devs[2]:.3f} (SE {ses[2]:.3f}) nonincreasing within 2 SE")


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand rerun with identical flags is byte-identical."""
    small = {
        "mu": 1.0, "theta": 1.0, "p": 0.3, "q": 0.2,
        "delta_rd": 0.5, "delta_rc": 0.5,
        "intervals": [{"t_start": 0, "t_end": 60, "lambda": 2, "s": 2}],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small), encoding="utf-8")
    invocations = [
        ["fluid", "--step", "0.05", "--grid", "0.5"],
        ["simulate", "--reps", "2", "--seed", "9", "--grid", "0.5"],
        ["erlang", "--block", "30"],
        ["oracle", "--caps", "10,6,6"],
        ["validate", "--table", "slap", "--rho-grid", "1.2", "--reps", "2",
         "--markdown"],
    ]
    mismatches = []
    for inv in invocations:
        a = tmp_path / f"{inv[0]}_a"
        b = tmp_path / f"{inv[0]}_b"
        for out in (a, b):
            code = cli_main(inv + ["--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{inv[0]} exited {code}"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{inv[0]}/{name}")
    ok = not mismatches
    _report(8, ok, "all five subcommands byte-identical on rerun"
            if ok else f"divergent files: {', '.join(mismatches)}")
