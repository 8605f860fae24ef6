"""Exact numerical cross-check of the closed forms via truncated Markov chains.

The non-work-conserving policy makes the SU's own queue and the relay queue
conditionally independent given the primary queue, so two bivariate chains,
(Q_p, Q_s) and (Q_p, Q_sp), capture everything the closed forms describe with
squared rather than cubed state counts. Each chain is truncated to a square
lattice whose edges absorb overflow transitions; the reported boundary mass
quantifies the induced bias and rejects under-truncated solves.

Both chains are quasi-birth-death chains (Neuts 1981, *Matrix-Geometric
Solutions in Stochastic Models*) whose level is the partner count and phase
the primary count; ``_solve_levels`` gives their stationary distribution
level by level, with no iteration and no dense solve. No T x T block of the
kernel K is built: the transition law writes the three diagonals of each of
its six blocks.
Every result must then pass a residual check: the true residual
max|pi K - pi| of the returned distribution must be below
``RESIDUAL_TOLERANCE``, or the solve is rejected.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .model import ChannelProfile, OperatingPoint, Policy

__all__ = ["CHAIN_PAIRS", "BOUNDARY_MASS_LIMIT", "RESIDUAL_TOLERANCE", "ConvergenceError",
           "TruncationError", "ChainSpec", "StationarySolution", "solve_stationary"]

CHAIN_PAIRS = ("primary_secondary", "primary_relay")

#: Stationary probability allowed on the truncation edge before a solve is rejected.
BOUNDARY_MASS_LIMIT = 1e-6

#: Bound the true residual max|pi K - pi| of a solved distribution must stay below.
RESIDUAL_TOLERANCE = 1e-12

# level-vector peak above which the level loop rescales
_RESCALE_ABOVE = 1e100

# entries below this are set to 0: a product of two kept entries is a normal float64
_FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))


class ConvergenceError(RuntimeError):
    """The residual max|pi K - pi| of the solved distribution is not below ``RESIDUAL_TOLERANCE``."""


class TruncationError(RuntimeError):
    """Too much stationary mass sits on the truncation edge; enlarge the lattice."""


@dataclass(frozen=True)
class ChainSpec:
    """One truncated-chain solve.

    The solve is only meaningful at operating points comfortably inside the
    stable region (roughly >= 5% margin); closer to the boundary the edge mass
    grows until the solve is rejected. A truncation whose solve would not fit
    in the machine's physical memory is refused.
    """

    channel: ChannelProfile
    policy: Policy
    point: OperatingPoint
    pair: str = "primary_secondary"
    truncation: int = 400

    def __post_init__(self) -> None:
        if self.pair not in CHAIN_PAIRS:
            raise ValueError(f"pair must be one of {CHAIN_PAIRS}, got {self.pair!r}")
        if self.truncation < 4:
            raise ValueError("truncation must be >= 4")
        # the solve holds at most five T x T float64 lattices
        need, memory = 5 * 8 * self.truncation**2, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > memory:
            raise ValueError(f"truncation {self.truncation} needs {need / 2**30:.0f} GiB for the solve, "
                             f"more than the {memory / 2**30:.1f} GiB of physical memory")


@dataclass(frozen=True, eq=False)
class StationarySolution:
    """Stationary distribution on the truncated lattice plus derived moments.

    ``distribution[i, j]`` is the stationary probability of i packets in the
    primary queue and j in the partner queue (Q_s or Q_sp depending on the
    chain pair). ``residual`` is max|pi K - pi| of that distribution, and
    ``iterations`` counts the kernel applications the solve made: always 1,
    the residual check.
    """

    distribution: np.ndarray
    mean_first: float
    mean_second: float
    p00: float
    mass_at_boundary: float
    residual: float
    iterations: int


def _primary_rate(ch: ChannelProfile, pol: Policy) -> float:
    """mu: the slot law's chance that the head of a busy primary queue leaves, by direct delivery or a handoff."""
    return ch.f_pd + pol.p_a * ch.f_ps * (1.0 - ch.f_pd)


def _blocks(spec: ChainSpec) -> tuple[np.ndarray, ...]:
    """``L0, Up0, D, L, Up, Ltop``: the blocks of the chain's one-slot kernel, as diagonals.

    Block rows are phases before the slot and columns phases after it; see
    ``_solve_levels`` for where each block sits. The primary count moves by
    at most one per slot, so each block B is tridiagonal and is returned as
    the (3, T) array ``[B[i, i - 1], B[i, i], B[i, i + 1]]`` over phases i,
    with 0 where the entry falls outside the block. Departures happen before
    arrivals within a slot (arrivals are first served the next slot), and
    transitions that would leave the lattice stay at the edge.
    """
    ch, pol, pt = spec.channel, spec.policy, spec.point
    T = spec.truncation
    i = np.arange(T)
    arr_p = (1.0 - pt.lambda_p, pt.lambda_p)

    def level(j: int) -> dict[int, np.ndarray]:
        """Blocks leaving partner level j, keyed by the level step -1, 0 or 1."""
        steps = {step: np.zeros((3, T)) for step in (-1, 0, 1)}

        def emit(weight: np.ndarray, di: int, dj: int, xp: int, xs: int) -> None:
            mask = weight > 0.0
            rows = i[mask]
            ni = np.minimum(rows + di + xp, T - 1)
            nj = min(j + dj + xs, T - 1)
            steps[nj - j][ni - rows + 1, rows] += weight[mask]

        if spec.pair == "primary_secondary":
            dep_p = np.where(i > 0, _primary_rate(ch, pol), 0.0)
            dep_s = np.where((i == 0) & (j > 0), pol.p_q * ch.f_sd, 0.0)
            arr_s = (1.0 - pt.lambda_s, pt.lambda_s)
            for yp, ys, xp, xs in itertools.product((0, 1), repeat=4):
                wp, ws = (dep_p if yp else 1.0 - dep_p), (dep_s if ys else 1.0 - dep_s)
                emit(wp * ws * (arr_p[xp] * arr_s[xs]), -yp, -ys, xp, xs)
        else:
            # Relay pair: a relayed packet is simultaneously a Q_p departure and
            # a Q_sp arrival, so the kernel carries the joint event explicitly;
            # the relay queue has no exogenous arrival stream.
            p_dest = np.where(i > 0, ch.f_pd, 0.0)
            p_relay = np.where(i > 0, pol.p_a * ch.f_ps * (1.0 - ch.f_pd), 0.0)
            p_spdep = np.where((i == 0) & (j > 0), (1.0 - pol.p_q) * ch.f_sd, 0.0)
            p_none = 1.0 - p_dest - p_relay - p_spdep
            for prob, di, dj in ((p_none, 0, 0), (p_dest, -1, 0), (p_relay, -1, 1), (p_spdep, 0, -1)):
                for xp in (0, 1):
                    emit(prob * arr_p[xp], di, dj, xp, 0)
        return steps

    bottom, interior, top = level(0), level(1), level(T - 1)
    return bottom[0], bottom[1], interior[-1], interior[0], interior[1], top[0]


def _transposed(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the T x T transpose of ``block`` into the zeroed ``out[:T, :T]``."""
    i = np.arange(block.shape[1])
    out[i, i] = block[1]
    out[i[1:], i[:-1]] = block[2, :-1]
    out[i[:-1], i[1:]] = block[0, 1:]
    return out


def _stationary_phases(
    block: np.ndarray, into_0: np.ndarray | None = None, into_1: np.ndarray | None = None
) -> np.ndarray:
    """Stationary vector, with phase 0 at 1, of ``block`` plus the moves ``into_0`` and ``into_1``.

    ``into_0[n]`` and ``into_1[n]`` are phase n's moves to phases 0 and 1 on
    top of the tridiagonal ``block``, so GTH elimination (Grassmann, Taksar
    & Heyman 1985) takes O(T) scalar steps. Phases are censored out from the
    top down: only phase n - 1 enters phase n, so censoring n out adds to no
    exit of the chain left but n - 1's moves to 0 and to 1 (its down-step
    returns to n - 1 itself). Each phase's exit rate S_n is a sum of
    nonnegative terms, never a difference, and ``pi_n = pi_{n-1} up_{n-1} /
    S_n``. An entry below ``_FLUSH_BELOW`` is set to 0 as it is made; with a
    stable primary queue the phases past 1 decay, so none needs a rescale. A
    phase with no exit below it leaves the vector undetermined and raises
    ``LinAlgError``.
    """
    T = block.shape[1]
    up = block[2].tolist()  # block[n, n + 1]
    down = block[0].tolist()  # block[n, n - 1]
    to_0 = [0.0] * T if into_0 is None else into_0.tolist()
    to_1 = [0.0] * T if into_1 is None else into_1.tolist()
    ratios = [0.0] * T
    for n in range(T - 1, 1, -1):
        exits = down[n] + to_0[n] + to_1[n]
        if exits == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        ratios[n] = ratio = up[n - 1] / exits
        to_0[n - 1] += ratio * to_0[n]
        to_1[n - 1] += ratio * to_1[n]
    exits = down[1] + to_0[1]  # phase 1's move to phase 1 is no exit
    if exits == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    ratios[1] = (up[0] + to_1[0]) / exits
    pi = [0.0] * T
    pi[0] = value = 1.0
    for n in range(1, T):
        value *= ratios[n]
        if value < _FLUSH_BELOW:
            break  # every phase above is 0 as well
        pi[n] = value
    return np.array(pi)


def _flush(x: np.ndarray, peak: float = 1.0) -> np.ndarray:
    """``x / peak`` in place for ``x >= 0``; entries that would fall below ``_FLUSH_BELOW`` become 0 first."""
    x[x < _FLUSH_BELOW * peak] = 0.0
    return x if peak == 1.0 else np.divide(x, peak, out=x)


def _times(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``v @ block`` from the block's three diagonals; ``v`` is 1-D or 2-D."""
    out = v * block[1]
    out[..., 1:] += v[..., :-1] * block[2, :-1]
    out[..., :-1] += v[..., 1:] * block[0, 1:]
    return out


def _pivots(block: np.ndarray, leak: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """``block``'s sub- and superdiagonal and the pivots of Thomas elimination on ``I - block``.

    ``block`` is substochastic and ``leak`` is what its rows lack of 1, so
    ``I - block`` is a diagonally dominant M-matrix: Thomas elimination needs
    no row exchanges. It runs from the top phase down, and each pivot is
    built from the leak and the off-diagonals as a sum of nonnegative terms
    (Grassmann, Taksar & Heyman 1985), never as a difference that cancels;
    an exactly zero pivot means the matrix is singular.
    """
    above = block[2].tolist()  # block[i, i + 1]
    below = block[0].tolist()  # block[i, i - 1]
    leak = leak.tolist()
    T = len(leak)
    pivots = [0.0] * T
    excess = leak[T - 1]
    for i in range(T - 1, 0, -1):
        pivots[i] = below[i] + excess
        if pivots[i] == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        excess = leak[i - 1] + above[i - 1] * excess / pivots[i]
    pivots[0] = excess
    if excess == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return below, above, pivots


def _solve_right(block: np.ndarray, leak: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``X`` with ``X (I - block) = rhs``, one row per column of ``x`` as ``rhs``; ``x`` is overwritten.

    Thomas elimination with ``_pivots``: each step is one vector operation
    across all right-hand sides, and a row that may have decayed below
    ``_FLUSH_BELOW`` is flushed before it is multiplied.
    """
    below, above, pivots = _pivots(block, leak)

    def sweep(targets: list[np.ndarray], sources: list[np.ndarray], factors: list[float]) -> None:
        bound = 1.0  # every nonzero entry of the row last made is >= bound * _FLUSH_BELOW
        for target, source, factor in zip(targets, sources, factors):
            if bound * factor < _FLUSH_BELOW:
                _flush(source)
                bound = 1.0
            target += factor * source
            bound = min(1.0, bound * factor) or 1.0  # a zero factor adds nothing to the target

    rows = list(_flush(x))
    sweep(rows[-2::-1], rows[:0:-1], [b / p for b, p in zip(below[:0:-1], pivots[:0:-1])])
    _flush(x)
    x /= np.array(pivots)[:, None]
    sweep(rows[1:], rows[:-1], [a / p for a, p in zip(above, pivots[1:])])
    return _flush(x).T


def _solve_levels(blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """Exact stationary distribution of the chain with these blocks, as ``[level, phase]``.

    Levels are partner counts j and phases primary counts i; each block is
    given by its three diagonals (see ``_blocks``). The kernel is block
    tridiagonal in the level: ``L0``/``Up0`` at level 0, ``D``/``L``/``Up`` at
    every interior level and ``D``/``Ltop`` at level T - 1, where the
    truncation folds the up-step into ``Ltop``. Down-steps leave only from
    phase 0, so ``D`` is 0 off that phase's row, a first passage down always
    lands in ``d``, that row over its sum, and the matrix-geometric rate is exact:
    ``R = Up (I - U)^-1`` with ``U = L + u d`` and ``u = Up 1``. Level 0 is
    stationary for ``L0 + (Up0 1) d``, level 1 is ``pi_0 Up0 (I - U)^-1``, each
    interior level is the one below times R, and the top level is
    ``pi_{T-2} Up (I - Ltop)^-1``, a second Thomas elimination.

    Level 0 comes from GTH elimination over the phases (``_stationary_phases``),
    as ``(Up0 1) d`` lands in phases 0 and 1 only. One tridiagonal solve gives
    ``Up (I - L)^-1``, ``d (I - L)^-1`` and ``pi_0 Up0 (I - L)^-1`` together,
    and the Sherman-Morrison formula adds the rank-one ``u d``; its
    denominator ``1 - w u``, with ``w = d (I - L)^-1``, is taken as
    ``served * w[0]``, which is equal because ``(I - L) 1 = u + served e_0``
    and never cancels.

    Every entry of R and of each level below ``_FLUSH_BELOW`` (about 1.5e-154)
    is set to 0 as it is made, so no product of two kept entries underflows
    into the slow subnormal range. Phase 0 of level 0 holds 1 and every term
    is nonnegative, so a flush is one comparison, and after normalisation it
    changes each entry of a level's defect ``pi_{j+1} - pi_j R`` by less than
    1.5e-154; the residual check is made on the flushed result, and the edge
    mass of a lattice whose tail lies below the threshold reads 0. The
    primary queue is stable (``solve_stationary`` refuses it otherwise), so
    only the level loop, where R may grow, rescales. The result is unnormalised.
    """
    L0, Up0, D, L, Up, Ltop = blocks
    T = L0.shape[1]
    if D[:, 1:].any():
        raise ValueError("kernel serves the partner queue while the primary queue is busy")

    levels = np.zeros((T, T))
    served = D[:, 0].sum()
    if served == 0.0:
        # the partner queue is never served: it only grows, or never moves
        grows = Up0.any() or Up.any()
        levels[T - 1 if grows else 0] = _stationary_phases(Ltop if grows else L0)
        return levels

    d = np.pad(D[1:, 0] / served, (0, T - 2))
    u, u0 = Up.sum(axis=0), Up0.sum(axis=0)
    levels[0] = _stationary_phases(L0, u0 * d[0], u0 * d[1])
    at_0 = np.eye(1, T)[0]
    leak = u + served * at_0  # what the rows of L lack of 1: up- and down-steps
    rhs = _transposed(Up, np.zeros((T, T + 2)))  # Up's rows, d and pi_0 Up0 as columns
    rhs[:, T:] = np.column_stack((d, _times(levels[0], Up0)))
    solved = _solve_right(L, leak, rhs)
    X, w, pi1 = solved[:T], solved[T], solved[T + 1]
    scale = 1.0 / (served * w[0])
    R = np.outer(X @ u * scale, w)
    R = _flush(np.add(X, R, out=R))
    levels[1] = _flush(pi1 + (pi1 @ u * scale) * w)
    last = T  # phases past the level's last nonzero entry add nothing to the product
    for j in range(1, T - 2):
        level = np.matmul(levels[j, :last], R[:last], out=levels[j + 1])
        small = level < _FLUSH_BELOW
        level[small] = 0.0
        peak = level.max()
        if peak == 0.0:
            break  # every level above is 0 as well
        # outside the stable region R grows the levels geometrically; rescaling
        # keeps them finite, and the lower levels flush to 0
        if peak > _RESCALE_ABOVE:
            _flush(levels[: j + 2], peak)
        last = T - small[::-1].argmin()
    if levels[T - 2].any():
        # the top level is left only from phase 0, so only phase 0 leaks
        levels[T - 1] = _solve_right(Ltop, served * at_0, _times(levels[T - 2], Up)[:, None])[0]
    return levels


def _residual(levels: np.ndarray, blocks: tuple[np.ndarray, ...]) -> float:
    """max|pi K - pi| for ``levels`` laid out ``[level, phase]``, from the blocks' diagonals.

    Down-steps land in phase 0 or 1 and the blocks are tridiagonal, so both
    sides are 0 from two phases past the last nonzero one; those are skipped.
    """
    phases = np.flatnonzero(levels.any(axis=0))[-1] + 2
    levels = levels[:, :phases]
    L0, Up0, D, L, Up, Ltop = (block[:, :phases] for block in blocks)
    out = _times(levels, L)
    out[0] = _times(levels[0], L0)
    out[-1] = _times(levels[-1], Ltop)
    out[:-1, :2] += np.outer(levels[1:, 0], D[1:, 0])
    out[1] += _times(levels[0], Up0)
    out[2:] += _times(levels[1:-1], Up)
    return float(np.abs(out - levels).max())


def solve_stationary(spec: ChainSpec) -> StationarySolution:
    """Stationary distribution of the truncated chain and its moments.

    A primary queue with lambda_p >= mu is unstable (Loynes 1962) and raises
    ``ValueError`` before anything is built. Otherwise the distribution comes
    from the exact level-by-level solve. Its true residual max|pi K - pi|
    must be below ``RESIDUAL_TOLERANCE``, or ``ConvergenceError`` is raised;
    too much mass on the truncation edge raises ``TruncationError``.
    """
    mu = _primary_rate(spec.channel, spec.policy)
    if 0.0 < spec.point.lambda_p >= mu:
        raise ValueError(f"lambda_p={spec.point.lambda_p!r} is not below the primary service rate "
                         f"mu={mu!r}: the primary queue is unstable")
    T = spec.truncation
    blocks = _blocks(spec)
    pi = _solve_levels(blocks).T.ravel()
    pi /= pi.sum()
    dist = pi.reshape(T, T)
    residual = _residual(dist.T, blocks)
    if not residual < RESIDUAL_TOLERANCE:
        raise ConvergenceError(f"residual {residual:.3e} not below tolerance {RESIDUAL_TOLERANCE:.3e}")

    mass_at_boundary = float(dist[T - 1, :].sum() + dist[:, T - 1].sum() - dist[T - 1, T - 1])
    if mass_at_boundary > BOUNDARY_MASS_LIMIT:
        raise TruncationError(
            f"boundary mass {mass_at_boundary:.3e} exceeds {BOUNDARY_MASS_LIMIT:.0e}; "
            f"truncation {T} is too small for this operating point"
        )
    levels = np.arange(T)
    return StationarySolution(
        distribution=dist,
        mean_first=float(dist.sum(axis=1) @ levels),
        mean_second=float(dist.sum(axis=0) @ levels),
        p00=float(dist[0, 0]),
        mass_at_boundary=mass_at_boundary,
        residual=residual,
        iterations=1,
    )
