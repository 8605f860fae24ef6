"""Full-kernel and dense-solve references for :mod:`cogrelay.oracle`.

``build_transitions`` assembles the whole one-slot kernel of a chain pair on
a finite lattice as a sparse matrix, with ``spec.truncation`` phases (primary
counts) and, by default, as many partner levels; transitions that would leave
the lattice stay at its edge. It is the oracle's original statement of the
transition law, kept unchanged but for the level count, so the five blocks
``cogrelay.oracle`` builds can be checked against it entry for entry, and so
kernel-level properties (stochastic rows, the primary marginal, the relay
coupling) and a direct solve (``solve_direct``) can be tested on the whole lattice.

The oracle stores each block as its three diagonals; ``dense`` gives the
T x T matrix such a block stands for.

``solve_levels`` and ``residual`` are the oracle's earlier level-by-level
solve of that lattice, with its dense T x T solves and no flush of tiny
entries, and its residual from dense block products. Its top level folds the
up-step into ``Ltop = L + Up``. Only its dense solves have changed since. The
solve for a stationary vector is refined against a residual computed exactly
in ``Fraction``, so at level 0 the reference is exact to rounding for any
elimination order. The solves of ``I - U`` and ``I - Ltop`` take each
diagonal entry as the sum of the row's exits, never as ``1 - U[i, i]``.
``solve_stationary`` runs them on the densified blocks through the same
normalisation and residual check as the oracle, and by the same rule for the
phase cut: a lattice whose phases leave more than 2^-53 of the primary
queue's tail, in closed form, from its edge phase on is refused.
Levels 0 to K - 2 of a K-level lattice are the infinite chain's levels,
scaled: a first passage down lands in the same phases from every level, the
top one included, so only the top level and the normalisation see the edge.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from reference_closed_forms import service_rate_primary

from cogrelay.oracle import (
    RESIDUAL_TOLERANCE,
    ChainSpec,
    ConvergenceError,
    StationarySolution,
    TruncationError,
    _blocks,
)

# most refinement steps of a stationary vector; each one leaves about the
# dense solve's relative error of the error before it
_REFINE_STEPS = 8


def build_transitions(spec: ChainSpec, levels: int | None = None, phases: int | None = None) -> sp.csr_matrix:
    """Row-stochastic one-slot kernel of the selected bivariate chain.

    The lattice has ``phases`` phases (``spec.truncation`` by default) and
    ``levels`` partner levels (as many as phases by default). State (i, j)
    is flattened to i * levels + j. Departures happen before arrivals within a slot (arrivals
    are first served the next slot), and transitions that would leave the
    lattice stay at the edge.
    """
    ch, pol, pt = spec.channel, spec.policy, spec.point
    T = spec.truncation if phases is None else phases
    K = T if levels is None else levels
    idx = np.arange(T * K, dtype=np.int64)
    i = idx // K
    j = idx % K

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def emit(weight: np.ndarray, di: np.ndarray | int, dj: np.ndarray | int, xp: int, xs: int) -> None:
        mask = weight > 0.0
        if not mask.any():
            return
        ni = np.minimum(i[mask] + di + xp, T - 1)
        nj = np.minimum(j[mask] + dj + xs, K - 1)
        rows.append(idx[mask])
        cols.append(ni * K + nj)
        vals.append(weight[mask])

    lp = pt.lambda_p
    arr_p = (1.0 - lp, lp)
    if spec.pair == "primary_secondary":
        mu = service_rate_primary(ch, pol.p_a)
        dep_p = np.where(i > 0, mu, 0.0)
        dep_s = np.where((i == 0) & (j > 0), pol.p_q * ch.f_sd, 0.0)
        ls = pt.lambda_s
        arr_s = (1.0 - ls, ls)
        for yp in (0, 1):
            wp = dep_p if yp else 1.0 - dep_p
            for ys in (0, 1):
                ws = dep_s if ys else 1.0 - dep_s
                for xp in (0, 1):
                    for xs in (0, 1):
                        w = wp * ws * (arr_p[xp] * arr_s[xs])
                        emit(w, -yp, -ys, xp, xs)
    else:
        # Relay pair: a relayed packet is simultaneously a Q_p departure and a
        # Q_sp arrival, so the kernel carries the joint event explicitly; the
        # relay queue has no exogenous arrival stream.
        relay = pol.p_a * ch.f_ps * (1.0 - ch.f_pd)
        p_dest = np.where(i > 0, ch.f_pd, 0.0)
        p_relay = np.where(i > 0, relay, 0.0)
        p_spdep = np.where((i == 0) & (j > 0), (1.0 - pol.p_q) * ch.f_sd, 0.0)
        p_none = 1.0 - p_dest - p_relay - p_spdep
        events = ((p_none, 0, 0), (p_dest, -1, 0), (p_relay, -1, 1), (p_spdep, 0, -1))
        for prob, di, dj in events:
            for xp in (0, 1):
                emit(prob * arr_p[xp], di, dj, xp, 0)

    kernel = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(T * K, T * K),
    ).tocsr()
    kernel.sum_duplicates()
    return kernel


def solve_direct(spec: ChainSpec, levels: int, phases: int) -> np.ndarray:
    """The stationary law of the lattice's whole kernel, ``[phase, level]``, from one sparse direct solve.

    State (0, 0) is pinned at 1 in place of its balance equation, so the
    system stays banded: in level-major order its bandwidth is about twice
    the phase count, and LU takes it in that order without fill-in past the band.
    """
    n = phases * levels
    order = np.arange(n).reshape(phases, levels).T.ravel()
    system = (sp.eye(n) - build_transitions(spec, levels, phases).T).tocsc()[order][:, order]
    x = np.empty(n)
    x[order] = np.concatenate(([1.0], spla.spsolve(system[1:, 1:], -system[1:, 0].toarray().ravel(),
                                                   permc_spec="NATURAL")))
    return (x / x.sum()).reshape(phases, levels)


def dense(block: np.ndarray) -> np.ndarray:
    """The T x T matrix of a block stored as ``[block[i, i - 1], block[i, i], block[i, i + 1]]``."""
    return np.diag(block[0, 1:], -1) + np.diag(block[1]) + np.diag(block[2, :-1], 1)


def _stationary_vector(chain: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix with a single closed class.

    A dense solve loses up to about 1e-14 where exits are slow, because the
    diagonal 1 - chain[i, i] is rounded. So the solve is refined against the
    balance equations of the chain's off-diagonal entries, each phase's exit
    rate being their exact sum: the residual is computed exactly in
    ``Fraction`` and corrected by the same dense solve until the correction
    rounds to 0.
    """
    n = len(chain)
    system = np.eye(n) - chain.T
    # the balance equations are dependent: normalise in place of the one for
    # phase 0, whose large mass keeps the rounding of the sum relatively small
    system[0] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    x = np.linalg.solve(system, rhs)
    rows, cols = np.nonzero(chain)
    moves = [(i, j, Fraction(chain[i, j])) for i, j in zip(rows.tolist(), cols.tolist()) if i != j]
    exits = [Fraction(0)] * n
    for i, _, p in moves:
        exits[i] += p
    for _ in range(_REFINE_STEPS):
        pi = list(map(Fraction, x.tolist()))
        # b - A pi: inflow minus outflow at phases 1.., 1 - sum(pi) at phase 0
        residual = [-pi[j] * exits[j] for j in range(n)]
        for i, j, p in moves:
            residual[j] += pi[i] * p
        residual[0] = 1 - sum(pi)
        refined = x + np.linalg.solve(system, np.array([float(r) for r in residual]))
        if np.array_equal(refined, x):
            break
        x = refined
    return x


def _minus(block: np.ndarray, leak: np.ndarray) -> np.ndarray:
    """``I - block``, with each diagonal entry the sum of the row's off-diagonal entries and its ``leak``.

    ``1 - block[i, i]`` keeps only the rounding of a slow exit, and a dense
    solve of a slow chain then loses up to about 1e-14; a sum of the exits,
    each nonnegative, keeps their digits (Grassmann, Taksar & Heyman 1985).
    """
    off = block - np.diag(np.diag(block))
    return np.diag(off.sum(axis=1) + leak) - off


def solve_levels(blocks: tuple[np.ndarray, ...], count: int) -> np.ndarray:
    """Exact stationary distribution of the ``count``-level lattice with these blocks, as ``[level, phase]``.

    Levels are partner counts j and phases primary counts i. The kernel is
    block tridiagonal in the level: ``L0``/``Up0`` at level 0, ``D``/``L``/``Up``
    at every interior level and ``D``/``Ltop`` at the top level, where the
    lattice folds the up-step into ``Ltop = L + Up``. Down-steps leave only
    from phase 0, so a first passage down always lands in
    ``d = D[0] / D[0].sum()`` and the matrix-geometric rates are exact:
    ``R = Up (I - U)^-1`` with ``U = L + (Up 1) d``, ``R0 = Up0 (I - U)^-1``,
    ``Rtop = Up (I - Ltop)^-1``; level 0 is stationary for ``L0 + (Up0 1) d``.
    The result is unnormalised.
    """
    L0, Up0, D, L, Up = blocks
    Ltop = L + Up
    T = len(L0)
    if D[1:].any():
        raise ValueError("kernel serves the partner queue while the primary queue is busy")

    levels = np.zeros((count, T))
    served = D[0].sum()
    if served == 0.0:
        # the partner queue is never served: it only grows, or never moves
        if Up0.any() or Up.any():
            levels[count - 1] = _stationary_vector(Ltop)
        else:
            levels[0] = _stationary_vector(L0)
        return levels

    d = D[0] / served
    leak = D.sum(axis=1)  # what the rows of U and Ltop lack of 1
    U = L + np.outer(Up.sum(axis=1), d)
    levels[0] = _stationary_vector(L0 + np.outer(Up0.sum(axis=1), d))
    # R0 and Rtop are each applied once, so pi_1 and the top level are solved for directly
    solved = np.linalg.solve(_minus(U, leak).T, np.column_stack((Up.T, levels[0] @ Up0)))
    R, levels[1] = solved[:, :T].T, solved[:, T]
    for j in range(1, count - 2):
        levels[j + 1] = levels[j] @ R
    levels[count - 1] = np.linalg.solve(_minus(Ltop, leak).T, levels[count - 2] @ Up)
    return levels


def residual(levels: np.ndarray, blocks: tuple[np.ndarray, ...]) -> float:
    """max|pi K - pi| for ``levels`` laid out ``[level, phase]``, one block product at a time."""
    L0, Up0, D, L, Up = blocks
    out = levels @ L
    out[0] = levels[0] @ L0
    out[-1] = levels[-1] @ (L + Up)
    out[:-1] += levels[1:] @ D
    out[1] += levels[0] @ Up0
    out[2:] += levels[1:-1] @ Up
    return float(np.abs(out - levels).max())


def solve_stationary(
    spec: ChainSpec, levels: int, phases: int | None = None
) -> tuple[StationarySolution, np.ndarray]:
    """``cogrelay.oracle.solve_stationary`` on the lattice of ``phases`` phases and ``levels`` levels, and its law.

    ``phases`` is ``spec.truncation`` by default; it may be below the 4 a
    spec allows, as the oracle's own phase count may. Where the Geo/Geo/1
    primary queue's tail from the edge phase ``phases - 1`` on passes 2^-53,
    the cut is not exact and ``TruncationError`` is raised before the solve.

    It is solved by the dense level solve above, and the law, laid out
    ``[phase, level]``, is its whole lattice's. The means are the lattice's,
    so they differ from the oracle's by the mass the level edge folds in.
    """
    T = spec.truncation if phases is None else phases
    lp, mu = spec.point.lambda_p, service_rate_primary(spec.channel, spec.policy.p_a)
    if lp > 0.0 and lp / mu * (lp * (1.0 - mu) / (mu * (1.0 - lp))) ** (T - 2) > 2.0**-53:
        raise TruncationError(f"the primary queue's tail from phase {T - 1} on passes 2^-53")
    blocks = tuple(map(dense, _blocks(spec, T)))
    dist = solve_levels(blocks, levels).T
    dist /= dist.sum()
    res = residual(dist.T, blocks)
    if not res < RESIDUAL_TOLERANCE:
        raise ConvergenceError(f"residual {res:.3e} not below tolerance {RESIDUAL_TOLERANCE:.3e}")

    primary = dist.sum(axis=1)
    return StationarySolution(
        primary_law=primary,
        mean_first=float(primary @ np.arange(T)),
        mean_second=float(dist.sum(axis=0) @ np.arange(levels)),
        p00=float(dist[0, 0]),
        mass_at_boundary=float(primary[T - 1]),
        residual=res,
        iterations=1,
    ), dist
