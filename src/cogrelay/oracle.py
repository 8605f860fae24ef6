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
stationary distribution level by level from a few dense T x T solves, with
no iteration. The kernel K is never assembled: the transition law fills
the six T x T blocks it is made of. Every result must then pass a residual
check: the true residual max|pi K - pi| of the returned distribution,
computed block by block, must be below the tolerance, or the solve is
rejected.
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


def _solve_levels(blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """Exact stationary distribution of the chain with these blocks, as ``[level, phase]``.

    Levels are partner counts j and phases primary counts i. The kernel is
    block tridiagonal in the level: ``L0``/``Up0`` at level 0, ``D``/``L``/``Up``
    at every interior level and ``D``/``Ltop`` at level T - 1, where the
    truncation folds the up-step into ``Ltop``. Down-steps leave only from
    phase 0, so a first passage down always lands in ``d = D[0] / D[0].sum()``
    and the matrix-geometric rates are exact:
    ``R = Up (I - U)^-1`` with ``U = L + (Up 1) d``, ``R0 = Up0 (I - U)^-1``,
    ``Rtop = Up (I - Ltop)^-1``; level 0 is stationary for ``L0 + (Up0 1) d``.
    The result is unnormalised.
    """
    L0, Up0, D, L, Up, Ltop = blocks
    T = len(L0)
    if D[1:].any():
        raise ValueError("kernel serves the partner queue while the primary queue is busy")

    levels = np.zeros((T, T))
    served = D[0].sum()
    if served == 0.0:
        # the partner queue is never served: it only grows, or never moves
        if Up0.any() or Up.any():
            levels[T - 1] = _stationary_vector(Ltop)
        else:
            levels[0] = _stationary_vector(L0)
        return levels

    d = D[0] / served
    eye = np.eye(T)
    U = L + np.outer(Up.sum(axis=1), d)
    levels[0] = _stationary_vector(L0 + np.outer(Up0.sum(axis=1), d))
    # R0 and Rtop are each applied once, so pi_1 and pi_{T-1} are solved for directly
    solved = np.linalg.solve((eye - U).T, np.column_stack((Up.T, levels[0] @ Up0)))
    R, levels[1] = solved[:, :T].T, solved[:, T]
    for j in range(1, T - 2):
        levels[j + 1] = levels[j] @ R
        # outside the stable region R grows the levels geometrically; rescaling
        # keeps them finite, and the lower levels underflow harmlessly
        peak = levels[j + 1].max()
        if peak > _RESCALE_ABOVE:
            levels[: j + 2] /= peak
    levels[T - 1] = np.linalg.solve((eye - Ltop).T, levels[T - 2] @ Up)
    return levels


def _residual(levels: np.ndarray, blocks: tuple[np.ndarray, ...]) -> float:
    """max|pi K - pi| for ``levels`` laid out ``[level, phase]``, one block product at a time."""
    L0, Up0, D, L, Up, Ltop = blocks
    out = levels @ L
    out[0] = levels[0] @ L0
    out[-1] = levels[-1] @ Ltop
    out[:-1] += levels[1:] @ D
    out[1] += levels[0] @ Up0
    out[2:] += levels[1:-1] @ Up
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
