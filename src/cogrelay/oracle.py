"""Exact numerical cross-check of the closed forms via truncated Markov chains.

The non-work-conserving policy makes the SU's own queue and the relay queue
conditionally independent given the primary queue, so two bivariate chains,
(Q_p, Q_s) and (Q_p, Q_sp), capture everything the closed forms describe with
squared rather than cubed state counts. Each chain is truncated to a square
lattice whose edges absorb overflow transitions; the reported boundary mass
quantifies the induced bias and rejects under-truncated solves.

Both chains are quasi-birth-death chains: the level is the partner count,
which moves by at most one per slot, and the phase is the primary count. The
SU serves its queues only when Q_p is empty, so every down-step leaves from
phase 0 and lands in the same phase distribution d. The first-passage matrix
to the level below is therefore exactly 1 d, and the matrix-geometric method
(Neuts 1981, *Matrix-Geometric Solutions in Stochastic Models*) gives the
stationary distribution level by level, with no iteration. The primary
count moves by at most one per slot, so the blocks are tridiagonal in the
phase: the rate matrix R comes from one tridiagonal (Thomas) solve across
all right-hand sides plus a Sherman-Morrison rank-one correction, and only
level 0 takes a dense T x T solve. Entries below about 1.5e-154 are set to
0 as they are made, which keeps the arithmetic out of the slow subnormal
range; each entry of a normalised level then differs from the one below
times R by less than that. The kernel K is never
assembled: the transition law fills the six T x T blocks it is made of.
Every result must then pass a residual check: the true residual
max|pi K - pi| of the returned distribution, computed from the blocks'
diagonals, must be below the tolerance, or the solve is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import service_rate_primary
from .model import ChannelProfile, OperatingPoint, Policy

__all__ = [
    "CHAIN_PAIRS",
    "BOUNDARY_MASS_LIMIT",
    "ConvergenceError",
    "TruncationError",
    "ChainSpec",
    "StationarySolution",
    "solve_stationary",
]

CHAIN_PAIRS = ("primary_secondary", "primary_relay")

#: Stationary probability allowed on the truncation edge before a solve is rejected.
BOUNDARY_MASS_LIMIT = 1e-6

# level-vector peak above which the level-by-level solve rescales
_RESCALE_ABOVE = 1e100

# entries below this are set to 0: a product of two kept entries is a normal float64
_FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))


class ConvergenceError(RuntimeError):
    """The residual max|pi K - pi| of the solved distribution is not below the tolerance."""


class TruncationError(RuntimeError):
    """Too much stationary mass sits on the truncation edge; enlarge the lattice."""


@dataclass(frozen=True)
class ChainSpec:
    """One truncated-chain solve.

    The solve is only meaningful at operating points comfortably inside the
    stable region (roughly >= 5% margin); closer to the boundary the edge mass
    grows until the solve is rejected.
    """

    channel: ChannelProfile
    policy: Policy
    point: OperatingPoint
    pair: str = "primary_secondary"
    truncation: int = 400
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.pair not in CHAIN_PAIRS:
            raise ValueError(f"pair must be one of {CHAIN_PAIRS}, got {self.pair!r}")
        if self.truncation < 4:
            raise ValueError("truncation must be >= 4")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


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


def _blocks(spec: ChainSpec) -> tuple[np.ndarray, ...]:
    """``L0, Up0, D, L, Up, Ltop``: the T x T blocks of the chain's one-slot kernel.

    Block rows are phases before the slot and columns phases after it; see
    ``_solve_levels`` for where each block sits. Departures happen before
    arrivals within a slot (arrivals are first served the next slot), and
    transitions that would leave the lattice stay at the edge.
    """
    ch, pol, pt = spec.channel, spec.policy, spec.point
    T = spec.truncation
    i = np.arange(T)
    lp = pt.lambda_p
    arr_p = (1.0 - lp, lp)

    def level(j: int) -> dict[int, np.ndarray]:
        """Blocks leaving partner level j, keyed by the level step -1, 0 or 1."""
        steps = {step: np.zeros((T, T)) for step in (-1, 0, 1)}

        def emit(weight: np.ndarray, di: int, dj: int, xp: int, xs: int) -> None:
            mask = weight > 0.0
            if not mask.any():
                return
            ni = np.minimum(i[mask] + di + xp, T - 1)
            nj = min(j + dj + xs, T - 1)
            steps[nj - j][i[mask], ni] += weight[mask]

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
            # Relay pair: a relayed packet is simultaneously a Q_p departure and
            # a Q_sp arrival, so the kernel carries the joint event explicitly;
            # the relay queue has no exogenous arrival stream.
            relay = pol.p_a * ch.f_ps * (1.0 - ch.f_pd)
            p_dest = np.where(i > 0, ch.f_pd, 0.0)
            p_relay = np.where(i > 0, relay, 0.0)
            p_spdep = np.where((i == 0) & (j > 0), (1.0 - pol.p_q) * ch.f_sd, 0.0)
            p_none = 1.0 - p_dest - p_relay - p_spdep
            events = ((p_none, 0, 0), (p_dest, -1, 0), (p_relay, -1, 1), (p_spdep, 0, -1))
            for prob, di, dj in events:
                for xp in (0, 1):
                    emit(prob * arr_p[xp], di, dj, xp, 0)
        return steps

    bottom, interior, top = level(0), level(1), level(T - 1)
    return bottom[0], bottom[1], interior[-1], interior[0], interior[1], top[0]


def _stationary_vector(chain: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix with a single closed class."""
    n = len(chain)
    system = np.eye(n) - chain.T
    # the balance equations are dependent: normalise in place of the one for
    # phase 0, whose large mass keeps the rounding of the sum relatively small
    system[0] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return np.linalg.solve(system, rhs)


def _flush(x: np.ndarray) -> np.ndarray:
    """``x`` with every entry of magnitude below ``_FLUSH_BELOW`` set to 0, in place."""
    x[np.abs(x) < _FLUSH_BELOW] = 0.0
    return x


def _is_tridiagonal(block: np.ndarray) -> bool:
    return np.count_nonzero(block) == sum(np.count_nonzero(np.diagonal(block, k)) for k in (-1, 0, 1))


def _times(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``v @ block`` for a tridiagonal ``block``, from its three diagonals; ``v`` is 1-D or 2-D."""
    out = v * np.diagonal(block)
    out[..., 1:] += v[..., :-1] * np.diagonal(block, 1)
    out[..., :-1] += v[..., 1:] * np.diagonal(block, -1)
    return out


def _solve_right(block: np.ndarray, leak: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``X`` with ``X (I - block) = rhs`` for a tridiagonal ``block``, one system per row of ``rhs``.

    ``block`` is substochastic and ``leak`` is what its rows lack of 1, so
    ``I - block`` is a diagonally dominant M-matrix: Thomas elimination needs
    no row exchanges. It runs from the top phase down, and each pivot is
    built from the leak and the off-diagonals as a sum of nonnegative terms
    (Grassmann, Taksar & Heyman 1985), never as a difference that cancels;
    an exactly zero pivot means the matrix is singular. Every step is one
    vector operation across all right-hand sides.
    """
    above = np.diagonal(block, 1).tolist()  # block[i, i + 1]
    below = [0.0, *np.diagonal(block, -1).tolist()]  # block[i, i - 1]
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
    x = rhs.T.copy()
    for i in range(T - 2, -1, -1):
        x[i] += below[i + 1] / pivots[i + 1] * x[i + 1]
    x /= np.array(pivots)[:, None]
    for i in range(1, T):
        x[i] += above[i - 1] / pivots[i] * x[i - 1]
    return x.T


def _solve_levels(blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """Exact stationary distribution of the chain with these blocks, as ``[level, phase]``.

    Levels are partner counts j and phases primary counts i. The kernel is
    block tridiagonal in the level: ``L0``/``Up0`` at level 0, ``D``/``L``/``Up``
    at every interior level and ``D``/``Ltop`` at level T - 1, where the
    truncation folds the up-step into ``Ltop``. The primary queue moves by at
    most one packet a slot, so every block except ``D`` is tridiagonal in the
    phase. Down-steps leave only from phase 0, so a first passage down always
    lands in ``d = D[0] / D[0].sum()`` and the matrix-geometric rate is exact:
    ``R = Up (I - U)^-1`` with ``U = L + u d`` and ``u = Up 1``. Level 0 is
    stationary for ``L0 + (Up0 1) d``, level 1 is ``pi_0 Up0 (I - U)^-1``, each
    interior level is the one below times R, and the top level is
    ``pi_{T-2} Up (I - Ltop)^-1``.

    No dense solve is made beyond level 0's. One tridiagonal solve gives
    ``Up (I - L)^-1``, ``d (I - L)^-1`` and ``pi_0 Up0 (I - L)^-1`` together,
    and the Sherman-Morrison formula adds the rank-one ``u d``; its denominator
    ``1 - w u``, with ``w = d (I - L)^-1``, is taken as ``served * w[0]``, which
    is equal because ``(I - L) 1 = u + served e_0`` and never cancels.

    Every entry of R and of each level below ``_FLUSH_BELOW`` (about 1.5e-154)
    is set to 0 before it is used, so no product of two kept entries
    underflows into the slow subnormal range. Level 0 holds mass 1 and every
    term is nonnegative, so after normalisation the flush changes each entry
    of a level's defect ``pi_{j+1} - pi_j R`` by less than 1.5e-154, and the
    residual check is made on the flushed result. The edge mass of a lattice
    whose tail lies below the threshold reads 0. The result is unnormalised.
    """
    L0, Up0, D, L, Up, Ltop = blocks
    T = len(L0)
    if D[1:].any():
        raise ValueError("kernel serves the partner queue while the primary queue is busy")
    if not all(map(_is_tridiagonal, blocks)):
        raise ValueError("kernel moves the primary queue by more than one packet a slot")

    levels = np.zeros((T, T))
    served = D[0].sum()
    if served == 0.0:
        # the partner queue is never served: it only grows, or never moves
        if Up0.any() or Up.any():
            levels[T - 1] = _flush(_stationary_vector(Ltop))
        else:
            levels[0] = _flush(_stationary_vector(L0))
        return levels

    d = D[0] / served
    u = Up.sum(axis=1)
    levels[0] = _flush(_stationary_vector(L0 + np.outer(Up0.sum(axis=1), d)))
    leak = u.copy()  # what the rows of L lack of 1: up- and down-steps
    leak[0] += served
    solved = _flush(_solve_right(L, leak, np.vstack((Up, d, _times(levels[0], Up0)))))
    X, w, pi1 = solved[:T], solved[T], solved[T + 1]
    scale = 1.0 / (served * w[0])
    R = _flush(X + np.outer(X @ u * scale, w))
    levels[1] = _flush(pi1 + (pi1 @ u * scale) * w)
    for j in range(1, T - 2):
        support = np.flatnonzero(levels[j])
        if not support.size:
            break  # every level above is 0 as well
        # phases past the level's last nonzero entry add nothing to the product
        last = support[-1] + 1
        levels[j + 1] = _flush(levels[j, :last] @ R[:last])
        # outside the stable region R grows the levels geometrically; rescaling
        # keeps them finite, and the lower levels flush to 0
        peak = levels[j + 1].max()
        if peak > _RESCALE_ABOVE:
            _flush(np.divide(levels[: j + 2], peak, out=levels[: j + 2]))
    if levels[T - 2].any():
        leak_top = np.zeros(T)
        leak_top[0] = served
        levels[T - 1] = _flush(_solve_right(Ltop, leak_top, _times(levels[T - 2], Up)[None])[0])
    return levels


def _residual(levels: np.ndarray, blocks: tuple[np.ndarray, ...]) -> float:
    """max|pi K - pi| for ``levels`` laid out ``[level, phase]``, from the blocks' diagonals.

    Down-steps land in phase 0 or 1 and the blocks are tridiagonal, so both
    sides are 0 from two phases past the last nonzero one; those are skipped.
    """
    phases = np.flatnonzero(levels.any(axis=0))[-1] + 2
    levels = levels[:, :phases]
    L0, Up0, D, L, Up, Ltop = (block[:phases, :phases] for block in blocks)
    out = _times(levels, L)
    out[0] = _times(levels[0], L0)
    out[-1] = _times(levels[-1], Ltop)
    out[:-1] += np.outer(levels[1:, 0], D[0])
    out[1] += _times(levels[0], Up0)
    out[2:] += _times(levels[1:-1], Up)
    return float(np.abs(out - levels).max())


def solve_stationary(spec: ChainSpec) -> StationarySolution:
    """Stationary distribution of the truncated chain and its moments.

    The distribution comes from the exact level-by-level solve. Its true
    residual max|pi K - pi| must then be below ``spec.tolerance``, or
    ``ConvergenceError`` is raised; too much mass on the truncation edge
    raises ``TruncationError``.
    """
    T = spec.truncation
    blocks = _blocks(spec)
    pi = _solve_levels(blocks).T.ravel()
    pi /= pi.sum()
    dist = pi.reshape(T, T)
    residual = _residual(dist.T, blocks)
    if not residual < spec.tolerance:
        raise ConvergenceError(f"residual {residual:.3e} not below tolerance {spec.tolerance:.3e}")

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
