"""Truncated CTMC oracle: generator assembly and stationary solves."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from orbitq.model import ModelParams, ParameterError
from orbitq.ctmc import (
    MAX_STATES,
    CTMCError,
    build_chain,
    embed_pi,
    solve_stationary,
    write_fixture_json,
)

FIXTURE = ModelParams(lam=2.0, s=2, mu=1.0, theta=1.0, p=0.3, q=0.2,
                      delta_rd=0.5, delta_rc=0.5)
# heavy enough that a small box's half box cuts off real mass
HEAVY = ModelParams(lam=3.0, s=2, mu=1.0, theta=0.3, p=0.6, q=0.3,
                    delta_rd=0.2, delta_rc=0.3)


def lu_reference(chain):
    """pi from sparse LU: pi G = 0 with the first equation replaced by sum(pi) = 1."""
    a = chain.generator.T.tolil()
    a[0, :] = 1.0
    b = np.zeros(chain.n_states)
    b[0] = 1.0
    return spsolve(sp.csr_matrix(a), b)


def coo_reference(params, caps):
    """(G, reflected) by the plain COO assembly: each move's kept triplets,
    reflected rates by ``np.add.at`` and the diagonal by ``np.bincount``,
    all in move order, then COO -> CSR with duplicates summed."""
    nq, nrd, nrc = caps
    n = (nq + 1) * (nrd + 1) * (nrc + 1)
    ii, jj, kk = np.indices((nq + 1, nrd + 1, nrc + 1))
    i, j, k = ii.ravel(), jj.ravel(), kk.ravel()
    idx = (i * (nrd + 1) + j) * (nrc + 1) + k
    in_service = np.minimum(i, params.s).astype(float)
    excess = np.maximum(i - params.s, 0).astype(float)
    rows, cols, vals = [], [], []
    reflected = np.zeros(n)

    def add(rate, di, dj, dk):
        ti, tj, tk = i + di, j + dj, k + dk
        inside = (ti >= 0) & (ti <= nq) & (tj >= 0) & (tj <= nrd) & (tk >= 0) & (tk <= nrc)
        live = rate > 0
        keep = inside & live
        rows.append(idx[keep])
        cols.append(((ti * (nrd + 1) + tj) * (nrc + 1) + tk)[keep])
        vals.append(rate[keep])
        lost = live & ~inside
        np.add.at(reflected, idx[lost], rate[lost])

    add(np.full(n, params.lam), +1, 0, 0)
    add(params.mu * in_service * (1.0 - params.q), -1, 0, 0)
    add(params.mu * in_service * params.q, -1, 0, +1)
    add(params.theta * excess * (1.0 - params.p), -1, 0, 0)
    add(params.theta * excess * params.p, -1, +1, 0)
    add(params.delta_rd * j.astype(float), +1, -1, 0)
    add(params.delta_rc * k.astype(float), +1, 0, -1)
    row, col, val = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    diag = -np.bincount(row, weights=val, minlength=n)
    gen = sp.coo_matrix(
        (np.concatenate([val, diag]),
         (np.concatenate([row, np.arange(n)]), np.concatenate([col, np.arange(n)]))),
        shape=(n, n),
    ).tocsr()
    gen.sum_duplicates()
    return gen, reflected


def birth_death_chain(lam, mu, s, cap):
    """Degenerate no-orbit model (p = q = 0, caps squeeze the orbits away)."""
    params = ModelParams(lam=lam, s=s, mu=mu, theta=mu, p=0.0, q=0.0,
                         delta_rd=0.5, delta_rc=0.5)
    return build_chain(params, (cap, 0, 0))


class TestBuildChain:
    def test_state_index_is_lexicographic(self):
        chain = build_chain(FIXTURE, (2, 1, 1))
        order = [(i, j, k) for i in range(3) for j in range(2) for k in range(2)]
        for expected, (i, j, k) in enumerate(order):
            assert chain.state_index(i, j, k) == expected

    def test_row_sums_vanish(self):
        chain = build_chain(FIXTURE, (5, 3, 3))
        rowsum = np.asarray(chain.generator.sum(axis=1)).ravel()
        assert np.abs(rowsum).max() < 1e-12

    def test_reflected_tracks_blocked_arrivals(self):
        chain = birth_death_chain(lam=1.5, mu=1.0, s=1, cap=1)
        # only the full state (1,0,0) redirects, at the arrival rate
        assert chain.reflected[chain.state_index(0, 0, 0)] == 0.0
        assert chain.reflected[chain.state_index(1, 0, 0)] == pytest.approx(1.5)

    def test_cap_validation(self):
        with pytest.raises(ParameterError, match="caps"):
            build_chain(FIXTURE, (0, 3, 3))
        with pytest.raises(ParameterError, match="caps"):
            build_chain(FIXTURE, (3, -1, 3))

    def test_state_space_limit(self):
        with pytest.raises(ParameterError, match="exceeds"):
            build_chain(FIXTURE, (1000, 1000, 1000))

    def test_limit_refused_before_allocation(self):
        # 201 * 101 * 100 = 2,030,100 states, just above the limit; building
        # them would take about 1.4 GB, so refusing must allocate nothing
        caps = (200, 100, 99)
        assert 201 * 101 * 100 > MAX_STATES
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="exceeds"):
                build_chain(FIXTURE, caps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestAssembly:
    @pytest.mark.parametrize("params", [FIXTURE, HEAVY, replace(FIXTURE, lam=0.0)],
                             ids=["fixture", "heavy", "lam-0"])
    @pytest.mark.parametrize("caps", [(1, 0, 0), (3, 0, 0), (1, 1, 1), (4, 3, 0),
                                      (5, 0, 3), (12, 8, 8)])
    def test_transpose_matches_coo_reference_exactly(self, params, caps):
        chain = build_chain(params, caps)
        gen, reflected = coo_reference(params, caps)
        want = gen.T.tocsr()
        got = chain.generator_t
        assert got.has_sorted_indices and want.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        # bitwise, so a -0.0 diagonal (lam = 0, empty state) matches too
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(chain.reflected, reflected)
        assert np.array_equal(got.data[chain.diag], want.diagonal())
        assert (chain.generator != gen).nnz == 0

    def test_build_and_solve_memory_bounded(self):
        # about 22 MB (217 bytes per state) for the 102,541 states, against
        # 68 MB (666 bytes per state) for COO assembly plus a transposed copy
        tracemalloc.start()
        try:
            solve_stationary(build_chain(FIXTURE, (60, 40, 40)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 33e6


class TestSolve:
    def test_two_state_chain_by_hand(self):
        # N_Q = 1, s = 1: empty <-> busy, pi = (mu, lam) / (lam + mu)
        chain = birth_death_chain(lam=1.5, mu=1.0, s=1, cap=1)
        sol = solve_stationary(chain)
        assert sol.pi == pytest.approx([1.0 / 2.5, 1.5 / 2.5], rel=1e-12)
        assert sol.e_zq == pytest.approx(0.6, rel=1e-12)
        assert sol.redirected_rate == pytest.approx(0.6 * 1.5, rel=1e-12)

    def test_theta_equals_mu_gives_poisson_mean(self):
        # death rate is mu * i regardless of s, so Z_Q is Poisson(lam / mu)
        chain = birth_death_chain(lam=2.0, mu=1.0, s=2, cap=30)
        sol = solve_stationary(chain)
        assert sol.e_zq == pytest.approx(2.0, abs=1e-9)
        grid = np.arange(31)
        poisson = np.exp(grid * math.log(2.0) - 2.0
                         - np.array([math.lgamma(x + 1) for x in grid]))
        marg = np.zeros(31)
        np.add.at(marg, chain.marginals()[0], sol.pi)
        assert np.abs(marg - poisson).max() < 1e-9

    def test_direct_and_power_agree(self):
        for caps in ((12, 8, 8), (20, 12, 12)):
            chain = build_chain(FIXTURE, caps)
            power = solve_stationary(chain)
            assert np.abs(lu_reference(chain) - power.pi).max() < 1e-9
            assert power.method == "power"
            assert power.iterations > 0

    def test_frozen_fixture_moments(self):
        chain = build_chain(FIXTURE, (20, 12, 12))
        sol = solve_stationary(chain, tol=1e-12)
        assert sol.e_zq == pytest.approx(2.6201214420346157, rel=1e-9)
        assert sol.e_zrd == pytest.approx(0.5765829209964534, rel=1e-9)
        assert sol.e_zrc == pytest.approx(0.6636599622143038, rel=1e-9)
        assert sol.e_lambda == pytest.approx(
            FIXTURE.lam + 0.5 * sol.e_zrd + 0.5 * sol.e_zrc, rel=1e-12)
        assert sol.redirected_fraction < 1e-8
        assert sol.residual < 1e-10

    def test_warm_start_converges_to_same_answer(self):
        small = build_chain(FIXTURE, (10, 6, 6))
        big = build_chain(FIXTURE, (12, 8, 8))
        cold = solve_stationary(big)
        x0 = embed_pi(solve_stationary(small).pi, (10, 6, 6), (12, 8, 8))
        warm = solve_stationary(big, x0=x0)
        assert np.abs(cold.pi - warm.pi).max() < 1e-9


class TestCascade:
    def test_heavy_config_matches_lu(self):
        chain = build_chain(HEAVY, (16, 12, 12))
        half = solve_stationary(build_chain(HEAVY, (8, 6, 6)))
        assert half.redirected_fraction > 1e-3
        sol = solve_stationary(chain)
        assert np.abs(lu_reference(chain) - sol.pi).max() < 1e-9

    def test_sweeps_on_the_box_bounded(self):
        # a cold start needs 600 sweeps here
        sol = solve_stationary(build_chain(FIXTURE, (30, 20, 20)))
        assert sol.iterations <= 200

    def test_explicit_x0_skips_cascade(self):
        chain = build_chain(FIXTURE, (30, 20, 20))
        sol = solve_stationary(chain, x0=np.ones(chain.n_states))
        assert sol.iterations == 600


class TestSolveInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0(self, bad):
        chain = build_chain(FIXTURE, (6, 4, 4))
        x0 = np.ones(chain.n_states)
        x0[3] = bad
        with pytest.raises(CTMCError, match="x0"):
            solve_stationary(chain, x0=x0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0])
    def test_tol_finite_and_positive(self, tol):
        with pytest.raises(ParameterError, match="tol"):
            solve_stationary(build_chain(FIXTURE, (6, 4, 4)), tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_at_least_one(self, max_iter):
        with pytest.raises(ParameterError, match="max_iter"):
            solve_stationary(build_chain(FIXTURE, (6, 4, 4)), max_iter=max_iter)

    def test_one_sweep_budget_reports_residual(self):
        with pytest.raises(CTMCError, match="no convergence after 1 iterations"):
            solve_stationary(build_chain(FIXTURE, (6, 4, 4)), max_iter=1)


class TestEmbedAndExport:
    def test_embed_preserves_mass_layout(self):
        chain = build_chain(FIXTURE, (4, 2, 2))
        sol = solve_stationary(chain)
        big = embed_pi(sol.pi, (4, 2, 2), (6, 3, 3))
        assert big.shape == (7 * 4 * 4,)
        assert big.sum() == pytest.approx(1.0)
        big_chain = build_chain(FIXTURE, (6, 3, 3))
        for i in range(5):
            for j in range(3):
                for k in range(3):
                    a = sol.pi[chain.state_index(i, j, k)]
                    b = big[big_chain.state_index(i, j, k)]
                    assert b == pytest.approx(a, rel=1e-12)

    def test_fixture_json(self, tmp_path):
        chain = build_chain(FIXTURE, (6, 4, 4))
        sol = solve_stationary(chain)
        path = tmp_path / "oracle.json"
        write_fixture_json(path, chain, sol)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["caps"] == [6, 4, 4]
        assert data["n_states"] == 7 * 5 * 5
        assert data["moments"]["e_zq"] == pytest.approx(sol.e_zq)
        assert data["method"] == "power"
        assert data["iterations"] == sol.iterations > 0
