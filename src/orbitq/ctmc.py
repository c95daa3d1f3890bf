"""Steady-state oracle: the truncated 3-D Markov chain solved exactly.

States are (i, j, k) = (queue+service, redial orbit, reconnect orbit)
on [0..N_Q] x [0..N_RD] x [0..N_RC], indexed lexicographically with i
outermost:

    index(i, j, k) = (i*(N_RD+1) + j)*(N_RC+1) + k

Transitions that would leave the box are redirected to self (reflection),
which keeps the generator conservative; the rate lost this way is kept
per state so truncation error can be reported against the solved pi.

The chain stores G^T, built straight into CSR from the seven moves' rate
fields, as the sweeps and the residual read it; ``generator`` is G as a
transposed view.

The stationary law is found by jump-chain power iteration, one sparse
matvec per sweep, started coarse to fine: each box starts from the
solution on the half box, padded with zeros, so the sweeps on the large
box only polish a law that already sits where it should. This is the
plainest form of the multi-level start of Horton & Leutenegger (1994)
and Stewart (1994, ch. 6).

Only small instances are tractable here; production-size scenarios are
exactly what the fluid approximation is for.

``scipy.sparse`` is imported by :func:`build_chain`, so only building a
chain loads it: ``orbitq fluid`` and ``orbitq simulate`` run on numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import write_json
from .model import ModelParams, ParameterError, validate

if TYPE_CHECKING:
    import scipy.sparse as sp

# build plus solve peaks at about 217 bytes per state (tracemalloc, 60x40x40:
# G^T, P^T's values and the solve vectors), so this many need about 0.45 GB
MAX_STATES = 2_000_000


class CTMCError(RuntimeError):
    """Stationary solve failed (non-convergence or a malformed warm start)."""


@dataclass(frozen=True)
class TruncatedChain:
    """Finite generator of the model on a box, with reflection bookkeeping.

    ``generator_t`` is G^T in CSR (int32, sorted columns): row v holds the
    rates into v, and ``diag`` the position of its diagonal entry in
    ``data``. ``generator`` is G, its transposed view, with zero row sums.
    ``reflected`` holds, per state, the total rate of transitions that
    were redirected to self because the target fell outside the box.
    """

    params: ModelParams
    caps: tuple[int, int, int]
    generator_t: sp.csr_matrix
    diag: np.ndarray
    reflected: np.ndarray

    @property
    def generator(self) -> sp.csc_matrix:
        return self.generator_t.T

    @property
    def n_states(self) -> int:
        return self.generator_t.shape[0]

    def state_index(self, i: int, j: int, k: int) -> int:
        nq, nrd, nrc = self.caps
        if not (0 <= i <= nq and 0 <= j <= nrd and 0 <= k <= nrc):
            raise ParameterError(f"state ({i}, {j}, {k}) outside caps {self.caps}")
        return (i * (nrd + 1) + j) * (nrc + 1) + k

    def marginals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays (i, j, k) aligned with the flat state indexing."""
        nq, nrd, nrc = self.caps
        ii, jj, kk = np.indices((nq + 1, nrd + 1, nrc + 1))
        return ii.ravel(), jj.ravel(), kk.ravel()


@dataclass(frozen=True)
class StationarySolution:
    pi: np.ndarray
    e_zq: float
    e_zrd: float
    e_zrc: float
    e_lambda: float
    residual: float
    redirected_rate: float      # expected reflected rate, events per minute
    redirected_fraction: float  # share of total transition flow reflected
    method: str                 # always "power"; recorded in oracle.json
    iterations: int


def build_chain(params: ModelParams, caps: tuple[int, int, int]) -> TruncatedChain:
    """Assemble the transposed truncated generator with reflecting boundaries.

    Transition rates out of (i, j, k): fresh arrivals lam to (i+1,j,k);
    service completions mu*min(i,s) split (1-q)/(q) between (i-1,j,k)
    and (i-1,j,k+1); abandonments theta*(i-s)^+ split (1-p)/(p) between
    (i-1,j,k) and (i-1,j+1,k); redials delta_rd*j to (i+1,j-1,k);
    reconnects delta_rc*k to (i+1,j,k-1).

    G^T is written straight into CSR from each move's rate field: row v
    holds the positive rates into v, sources ascending, and the diagonal
    -out_v; the two moves to (i-1,j,k) share an entry. Out-rates and
    reflected rates are summed in the move order above, so each entry
    equals that of G assembled from COO triplets, then transposed.
    """
    import scipy.sparse as sp

    validate(params)
    nq, nrd, nrc = caps
    if nq < 1 or nrd < 0 or nrc < 0:
        raise ParameterError(f"caps must satisfy N_Q >= 1, N_RD, N_RC >= 0, got {caps}")
    n = (nq + 1) * (nrd + 1) * (nrc + 1)
    if n > MAX_STATES:
        raise ParameterError(f"state space size {n} exceeds limit {MAX_STATES}")

    shape = (nq + 1, nrd + 1, nrc + 1)
    step = ((nrd + 1) * (nrc + 1), nrc + 1, 1)
    i, j, k = np.ogrid[: nq + 1, : nrd + 1, : nrc + 1]
    in_service = np.minimum(i, params.s).astype(float)
    excess = np.maximum(i - params.s, 0).astype(float)
    moves = (
        ((+1, 0, 0), params.lam),
        ((-1, 0, 0), params.mu * in_service * (1.0 - params.q)),
        ((-1, 0, +1), params.mu * in_service * params.q),
        ((-1, 0, 0), params.theta * excess * (1.0 - params.p)),
        ((-1, +1, 0), params.theta * excess * params.p),
        ((+1, -1, 0), params.delta_rd * j.astype(float)),
        ((+1, 0, -1), params.delta_rc * k.astype(float)),
    )

    def box(d):  # the states from which step d stays inside the box
        return tuple(slice(max(-s, 0), c + min(-s, 0)) for s, c in zip(d, shape))

    # one column per flat offset, sources ascending (source = target - offset);
    # a move that never lands inside (a j step with N_RD = 0, a k step with
    # N_RC = 0) has empty slices, so a column it shares gets nothing from it
    offsets = sorted({0, *(np.dot(d, step) for d, _ in moves)}, reverse=True)
    vals = np.zeros((*shape, len(offsets)))
    out_rate = np.zeros(shape)
    reflected = np.zeros(shape)
    for d, rate in moves:
        rate = np.broadcast_to(rate, shape)
        source, target = box(d), box([-s for s in d])
        out_rate[source] += rate[source]
        lost = rate.copy()
        lost[source] = 0.0
        reflected += lost
        vals[(*target, offsets.index(np.dot(d, step)))] += rate[source]
    col = offsets.index(0)
    vals[..., col] = -out_rate
    vals = vals.reshape(n, -1)
    nonzero = vals != 0
    nonzero[:, col] = True
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    sources = np.arange(n, dtype=np.int32)[:, None] - np.array(offsets, dtype=np.int32)
    gen_t = sp.csr_matrix((vals[nonzero], sources[nonzero], indptr), shape=(n, n))
    diag = indptr[:-1] + nonzero[:, :col].sum(axis=1, dtype=np.int32)
    return TruncatedChain(params=params, caps=(nq, nrd, nrc), generator_t=gen_t,
                          diag=diag, reflected=reflected.ravel())


def _solve_power(chain: TruncatedChain, x0: np.ndarray | None, tol: float,
                 max_iter: int) -> tuple[np.ndarray, int]:
    # jump-chain form: pi G = 0 iff y P = y for P = I + inv(L) G with
    # L_v = 1.05 * out_rate_v and y = pi * L. Scaling by the local
    # out-rate instead of the global maximum makes each sweep advance the
    # chain by roughly one transition everywhere, and the 5% slack keeps
    # self-loop probability positive so period-2 modes are damped. Any
    # positive L keeps the fixed point exact, so an absorbing state
    # (out-rate 0, e.g. the empty state when lam = 0) gets L_v = 1.
    gen_t = chain.generator_t
    n = gen_t.shape[0]
    out_rate = -gen_t.data[chain.diag]
    lam_u = np.where(out_rate > 0, 1.05 * out_rate, 1.0)
    inv_lam = 1.0 / lam_u
    # P^T = I + G^T inv(L), sharing G^T's index arrays; its columns sum to
    # one, so a sweep keeps sum(y) up to rounding and y is renormalised
    # only at the checks. P^T y - y = G^T pi * sum(inv_lam * y).
    data = gen_t.data * inv_lam[gen_t.indices]
    data[chain.diag] += 1.0
    pt = type(gen_t)((data, gen_t.indices, gen_t.indptr), shape=gen_t.shape)

    if x0 is None:
        y = np.full(n, 1.0 / n)
    else:
        y = x0 * lam_u
        y /= y.sum()

    check_every = 50
    best = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        z = pt @ y
        if it % check_every == 0 or it == max_iter:
            residual = np.abs(z - y).max() / (inv_lam @ y)
            if residual <= tol:
                pi = inv_lam * y
                return pi / pi.sum(), it
            if residual < 0.5 * best:
                best = residual
                stalled = 0
            else:
                stalled += 1
                if stalled >= 40:
                    raise CTMCError(
                        f"power iteration stalled at residual {residual:.3e} "
                        f"after {it} iterations (tol {tol:.1e})"
                    )
            z /= z.sum()
        y = z
    raise CTMCError(
        f"no convergence after {max_iter} iterations; residual {residual:.3e}"
    )


def solve_stationary(
    chain: TruncatedChain,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> StationarySolution:
    """Solve pi G = 0, sum(pi) = 1 by jump-chain power iteration.

    Without ``x0`` the iteration starts from the solution on the half box
    (max(1, N_Q//2), N_RD//2, N_RC//2), got by this same call at the same
    ``tol`` and ``max_iter`` and padded by :func:`embed_pi`; the cascade
    bottoms out at the box that halving leaves unchanged, which starts
    from the uniform jump-chain law. An explicit ``x0`` (finite,
    nonnegative, not all zero) is the start itself and skips the cascade.
    ``iterations`` counts the sweeps on this box only. The returned
    residual is max |pi G|, recomputed here, and must come out <= tol.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    if x0 is None:
        nq, nrd, nrc = chain.caps
        half = (max(1, nq // 2), nrd // 2, nrc // 2)
        if half != chain.caps:
            coarse = solve_stationary(build_chain(chain.params, half),
                                      tol=tol, max_iter=max_iter)
            x0 = embed_pi(coarse.pi, half, chain.caps)
    elif (x0.shape != (chain.n_states,) or not np.all(np.isfinite(x0))
          or np.any(x0 < 0) or x0.sum() <= 0):
        raise CTMCError("x0 must be a finite nonnegative nonzero vector over "
                        "the state space")
    pi, iterations = _solve_power(chain, x0, tol, max_iter)
    residual = float(np.abs(chain.generator_t @ pi).max())
    if residual > tol:
        raise CTMCError(f"solve residual {residual:.3e} exceeds tolerance {tol:.1e}")

    i, j, k = chain.marginals()
    e_zq = float(pi @ i)
    e_zrd = float(pi @ j)
    e_zrc = float(pi @ k)
    p = chain.params
    e_lambda = p.lam + p.delta_rd * e_zrd + p.delta_rc * e_zrc
    redirected_rate = float(pi @ chain.reflected)
    total_flow = float(pi @ -chain.generator_t.data[chain.diag]) + redirected_rate
    redirected_fraction = redirected_rate / total_flow if total_flow > 0 else 0.0
    return StationarySolution(
        pi=pi, e_zq=e_zq, e_zrd=e_zrd, e_zrc=e_zrc, e_lambda=e_lambda,
        residual=residual, redirected_rate=redirected_rate,
        redirected_fraction=redirected_fraction, method="power",
        iterations=iterations,
    )


def embed_pi(pi: np.ndarray, caps: tuple[int, int, int],
             caps_big: tuple[int, int, int]) -> np.ndarray:
    """Pad a solved pi onto a larger box (zeros outside), for warm starts."""
    nq, nrd, nrc = caps
    bq, brd, brc = caps_big
    if bq < nq or brd < nrd or brc < nrc:
        raise ParameterError(f"target caps {caps_big} must dominate {caps}")
    small = pi.reshape(nq + 1, nrd + 1, nrc + 1)
    big = np.zeros((bq + 1, brd + 1, brc + 1))
    big[: nq + 1, : nrd + 1, : nrc + 1] = small
    return big.ravel()


def write_fixture_json(path: str | Path, chain: TruncatedChain,
                       solution: StationarySolution) -> None:
    """Persist params, caps, and solved moments as a regression fixture."""
    p = chain.params
    payload = {
        "params": {
            "lam": p.lam, "s": p.s, "mu": p.mu, "theta": p.theta,
            "p": p.p, "q": p.q, "delta_rd": p.delta_rd, "delta_rc": p.delta_rc,
        },
        "caps": list(chain.caps),
        "n_states": chain.n_states,
        "moments": {
            "e_zq": solution.e_zq,
            "e_zrd": solution.e_zrd,
            "e_zrc": solution.e_zrc,
            "e_lambda": solution.e_lambda,
        },
        "residual": solution.residual,
        "redirected_rate": solution.redirected_rate,
        "redirected_fraction": solution.redirected_fraction,
        "method": solution.method,
        "iterations": solution.iterations,
    }
    write_json(path, payload)
