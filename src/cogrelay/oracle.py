"""Exact numerical cross-check of the closed forms via bivariate Markov chains.

The non-work-conserving policy makes the SU's own queue and the relay queue
conditionally independent given the primary queue, so two bivariate chains,
(Q_p, Q_s) and (Q_p, Q_sp), capture everything the closed forms describe with
squared rather than cubed state counts.

Both chains are quasi-birth-death chains (Neuts 1981, *Matrix-Geometric
Solutions in Stochastic Models*; Latouche & Ramaswami 1999, *Introduction to
Matrix Analytic Methods in Stochastic Modeling*) whose level is the partner
count and phase the primary count. The level axis is not truncated: the
stationary law is matrix-geometric in the level, so its level sums, and with
them every mean, close exactly (``_solve_levels``). The phase is Q_p, an
autonomous Geo/Geo/1 queue with a geometric law, so the phase axis is cut
before the solve, where that law's tail falls below float64 rounding or at
``ChainSpec.truncation`` phases if that comes first (``_phases``); the mass
the cut leaves on the phase edge is reported, and a solve is rejected where
that mass exceeds ``BOUNDARY_MASS_LIMIT``, or where the mass past the cut
moves the partner queue's drift, and with it the partner's mean, by more
than that share. A partner queue whose mean drift is not positive has no
stationary law and is refused up front, as is an unstable primary queue. No
T x T block of the kernel is built: the transition law writes the three
diagonals of each of its five blocks, and every solve is a tridiagonal
elimination of O(T) scalar steps. The joint law, level by level, is built
only as far as the residual check needs it. Every result must then pass a
residual check: the balance equations of levels 0 to 2 and the linear
systems of the level sums must hold within ``RESIDUAL_TOLERANCE``, or the
solve is rejected.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .model import ChannelProfile, OperatingPoint, Policy

__all__ = ["CHAIN_PAIRS", "BOUNDARY_MASS_LIMIT", "RESIDUAL_TOLERANCE", "ConvergenceError",
           "TruncationError", "UnstableError", "ChainSpec", "StationarySolution", "solve_stationary"]

CHAIN_PAIRS = ("primary_secondary", "primary_relay")

#: Stationary probability allowed on the phase edge before a solve is rejected.
BOUNDARY_MASS_LIMIT = 1e-6

#: Bound the residuals of a solve must stay below (see ``solve_stationary``).
RESIDUAL_TOLERANCE = 1e-12

# the phase axis ends once the primary queue's tail on its edge is at most the unit roundoff
_PHASE_TAIL = 2.0**-53

# entries below this are set to 0: a product of two kept entries is a normal float64
_FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))


class ConvergenceError(RuntimeError):
    """A residual of the solve is not below ``RESIDUAL_TOLERANCE``."""


class TruncationError(RuntimeError):
    """Too much stationary mass sits on the phase edge; raise the truncation."""


class UnstableError(ValueError):
    """The operating point has no stationary law: a queue's mean drift toward empty is not positive."""


@dataclass(frozen=True)
class ChainSpec:
    """One chain solve.

    ``truncation`` is the most phases (primary counts) the solve may use; it
    uses fewer where the primary queue's tail falls below float64 rounding
    sooner. The partner count is not truncated. A truncation whose rate
    matrix R, with the arrays around it, would not fit in the machine's
    physical memory is refused.
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
        # R and the Thomas right-hand sides around it are at most five T x T float64 arrays
        need, memory = 5 * 8 * self.truncation**2, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > memory:
            raise ValueError(f"truncation {self.truncation} needs {need / 2**30:.0f} GiB for the solve, "
                             f"more than the {memory / 2**30:.1f} GiB of physical memory")


@dataclass(frozen=True, eq=False)
class StationarySolution:
    """Stationary law of a chain pair, with its moments.

    ``primary_law[i]`` is the stationary probability of i packets in the
    primary queue, over the T phases the solve used. ``mean_second`` is the
    partner queue's mean (Q_s or Q_sp depending on the chain pair); it and
    ``p00`` are over the whole, untruncated level axis.
    ``mass_at_boundary`` is ``primary_law[T - 1]``, the mass on the phase
    edge. ``residual`` is the largest residual of the solve (see
    ``solve_stationary``), and ``iterations`` counts the kernel applications
    the solve made: always 1, the residual check.
    """

    primary_law: np.ndarray
    mean_first: float
    mean_second: float
    p00: float
    mass_at_boundary: float
    residual: float
    iterations: int


def _primary_rate(ch: ChannelProfile, pol: Policy) -> float:
    """mu: the slot law's chance that the head of a busy primary queue leaves, by direct delivery or a handoff."""
    return ch.f_pd + pol.p_a * ch.f_ps * (1.0 - ch.f_pd)


def _phases(spec: ChainSpec, mu: float) -> tuple[int, float]:
    """``T, P(Q_p >= T)``: the phases the solve uses, and the infinite queue's mass beyond them.

    T is the fewest phases whose tail from the edge phase T - 1 on is at most
    ``_PHASE_TAIL``, or ``spec.truncation`` if that comes first.

    Q_p is autonomous, a Geo/Geo/1 queue: P(Q_p >= n) = (lambda_p / mu)
    rho^(n - 1) for n >= 1, with rho = lambda_p (1 - mu) / (mu (1 - lambda_p)).
    The cut chain keeps that law on its T phases, restricted and
    renormalised, so every phase's probability moves by the mass beyond them,
    relatively. At least two phases are kept.
    """
    lambda_p = spec.point.lambda_p
    tail = rho = 0.0
    if lambda_p > 0.0:
        tail, rho = lambda_p / mu, lambda_p * (1.0 - mu) / (mu * (1.0 - lambda_p))
    phases = 2
    while tail > _PHASE_TAIL and phases < spec.truncation:
        tail *= rho
        phases += 1
    return phases, tail * rho


def _blocks(spec: ChainSpec, T: int) -> tuple[np.ndarray, ...]:
    """``L0, Up0, D, L, Up``: the blocks of the chain's one-slot kernel over T phases, as diagonals.

    Block rows are phases before the slot and columns phases after it; see
    ``_solve_levels`` for where each block sits. The primary count moves by
    at most one per slot, so each block B is tridiagonal and is returned as
    the (3, T) array ``[B[i, i - 1], B[i, i], B[i, i + 1]]`` over phases i,
    with 0 where the entry falls outside the block. Departures happen before
    arrivals within a slot (arrivals are first served the next slot), and
    transitions that would leave the phase axis stay at its edge.
    """
    ch, pol, pt = spec.channel, spec.policy, spec.point
    i = np.arange(T)
    arr_p = (1.0 - pt.lambda_p, pt.lambda_p)

    def level(j: int) -> dict[int, np.ndarray]:
        """Blocks leaving partner level j, keyed by the level step -1, 0 or 1."""
        steps = {step: np.zeros((3, T)) for step in (-1, 0, 1)}

        def emit(weight: np.ndarray, di: int, dj: int, xp: int, xs: int) -> None:
            mask = weight > 0.0
            rows = i[mask]
            ni = np.minimum(rows + di + xp, T - 1)
            steps[dj + xs][ni - rows + 1, rows] += weight[mask]

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

    bottom, interior = level(0), level(1)
    return bottom[0], bottom[1], interior[-1], interior[0], interior[1]


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


def _drift(blocks: tuple[np.ndarray, ...]) -> tuple[np.ndarray, float]:
    """``a, a D 1 - a Up 1``: the phase law a above level 0, and the partner queue's mean drift down.

    a is the normalised stationary vector of ``D + L + Up``, the phase chain
    of every level above 0: Q_p's own birth-death chain, so a is also the
    primary queue's law over the cut phase axis. A level-independent QBD is
    positive recurrent exactly where this drift is positive (Neuts 1981,
    ch. 1; Latouche & Ramaswami 1999). It needs no level solve, so it holds
    at unstable points.
    """
    _, _, D, L, Up = blocks
    a = _stationary_phases(D + L + Up)
    a /= a.sum()
    return a, float(D[:, 0].sum() * a[0] - a @ Up.sum(axis=0))


def _solve_levels(blocks: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """``pi_0, pi_1, R, x, y, drift, residual``: the chain's unnormalised levels, their sums, and the partner's drift.

    Levels are partner counts j and phases primary counts i; each block is
    given by its three diagonals (see ``_blocks``). The kernel is block
    tridiagonal in the level: ``L0``/``Up0`` at level 0 and ``D``/``L``/``Up``
    at every level above it, with no top level. Down-steps leave only from
    phase 0, so ``D`` is 0 off that phase's row, a first passage down always
    lands in ``d``, that row over its sum, and the chain is matrix-geometric:
    ``pi_{j+1} = pi_j R`` for j >= 1, with ``R = Up (I - U)^-1``,
    ``U = L + u d`` and ``u = Up 1``. Level 0 is stationary for
    ``L0 + (Up0 1) d``, and level 1 is ``pi_0 Up0 (I - U)^-1``.

    A partner queue that grows with a mean drift (``_drift``) that is not
    positive has no stationary law, and raises ``UnstableError`` before any
    level is solved. Level 0 comes from GTH elimination over the phases
    (``_stationary_phases``), as ``(Up0 1) d`` lands in phases 0 and 1 only.
    One tridiagonal solve gives ``Up (I - L)^-1``, ``d (I - L)^-1`` and
    ``pi_0 Up0 (I - L)^-1`` together, and the Sherman-Morrison formula adds
    the rank-one ``u d``; its denominator ``1 - w u``, with
    ``w = d (I - L)^-1``, is taken as ``served * w[0]``, which is equal
    because ``(I - L) 1 = u + served e_0`` and never cancels. Every entry of
    R and of pi_1 below ``_FLUSH_BELOW`` (about 1.5e-154) is set to 0 as it is
    made. A partner queue that never grows stays at level 0: R, x and y are
    0 and the drift is infinite.

    The level sums are ``x = sum_{j >= 1} pi_j = pi_1 (I - R)^-1`` and
    ``y = sum_{j >= 1} j pi_j = x (I - R)^-1``. Multiplied by ``I - U`` these
    read ``x (A - u d) = pi_0 Up0`` and ``y (A - u d) = pi_0 Up0 + x Up``,
    with ``A = I - L - Up``, whose rows lack only the down-steps
    ``D = served e_0 d``; the right-hand sides are sums of nonnegative terms.
    Each is one tridiagonal solve ``q = rhs A^-1`` and a rank-one correction.
    As ``a (D + L + Up) = a``, ``a A = a_0 served d``, so
    ``d A^-1 = a / (a_0 served)`` with no solve, and the Sherman-Morrison
    formula reads ``q + (q u / drift) a``: its denominator ``1 - d A^-1 u``
    is the drift over ``a_0 served``. Every term is nonnegative, so nothing
    cancels but the drift itself, a difference of rates whose rounding is
    that of the stability margin: at a relative margin delta the sums are
    accurate to about eps / delta. ``residual`` is the larger relative
    residual max|z (A - u d) - rhs| / max z of the two; the relative error
    of z is at most that times the condition number of ``A - u d``.
    """
    L0, Up0, D, L, Up = blocks
    T = L0.shape[1]
    if D[:, 1:].any():
        raise ValueError("kernel serves the partner queue while the primary queue is busy")
    if not (Up0.any() or Up.any()):
        zeros = np.zeros(T)
        return _stationary_phases(L0), zeros, np.zeros((T, T)), zeros, zeros, np.inf, 0.0
    a, drift = _drift(blocks)
    if not drift > 0.0:
        raise UnstableError(f"the partner queue's mean drift {drift!r} toward empty is not positive: "
                            "the partner queue is unstable")
    served = D[:, 0].sum()
    d = np.pad(D[1:, 0] / served, (0, T - 2))
    u, u0 = Up.sum(axis=0), Up0.sum(axis=0)
    pi0 = _stationary_phases(L0, u0 * d[0], u0 * d[1])
    down = served * np.eye(1, T)[0]  # what the rows of L + Up lack of 1
    rhs = _transposed(Up, np.zeros((T, T + 2)))  # Up's rows, d and pi_0 Up0 as columns
    source = _times(pi0, Up0)
    rhs[:, T:] = np.column_stack((d, source))
    solved = _solve_right(L, u + down, rhs)
    X, w, pi1 = solved[:T], solved[T], solved[T + 1]
    scale = 1.0 / (served * w[0])
    R = np.outer(X @ u * scale, w)
    R = _flush(np.add(X, R, out=R))
    pi1 = _flush(pi1 + (pi1 @ u * scale) * w)

    M = L + Up
    residual = 0.0

    def summed(rhs: np.ndarray) -> np.ndarray:
        """z with z (A - u d) = rhs."""
        nonlocal residual
        q = _solve_right(M, down, rhs[:, None].copy())[0]
        z = _flush(q + (q @ u / drift) * a)
        if z.any():
            defect = z - _times(z, M) - (z @ u) * d - rhs
            residual = max(residual, float(np.abs(defect).max() / z.max()))
        return z

    x = summed(source)
    return pi0, pi1, R, x, summed(source + _times(x, Up)), drift, residual


def _joint(pi0: np.ndarray, pi1: np.ndarray, R: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` levels, laid out ``[level, phase]``: pi_0, pi_1, and above them each level below times R.

    A level entry below ``_FLUSH_BELOW`` is set to 0, so no product of two
    kept entries underflows into the slow subnormal range; once a whole
    level is 0, every level above it is too.
    """
    T = len(pi0)
    levels = np.zeros((count, T))
    levels[:2] = np.array((pi0, pi1))[:count]
    last = T  # phases past the level's last nonzero entry add nothing to the product
    for j in range(1, count - 1):
        level = np.matmul(levels[j, :last], R[:last], out=levels[j + 1])
        small = level < _FLUSH_BELOW
        level[small] = 0.0
        if not level.any():
            break
        last = T - small[::-1].argmin()
    return levels


def _residual(levels: np.ndarray, blocks: tuple[np.ndarray, ...]) -> float:
    """max|pi K - pi| over the balance equations of levels 0 to K - 2, for K levels laid out ``[level, phase]``.

    The equation of level K - 1 needs level K, so it is left out. Down-steps
    land in phase 0 or 1 and the blocks are tridiagonal, so both sides are 0
    from two phases past the last nonzero one; those are skipped.
    """
    phases = np.flatnonzero(levels.any(axis=0))[-1] + 2
    levels = levels[:, :phases]
    L0, Up0, D, L, Up = (block[:, :phases] for block in blocks)
    out = _times(levels[:-1], L)
    out[0] = _times(levels[0], L0)
    out[:, :2] += np.outer(levels[1:, 0], D[1:, 0])
    out[1] += _times(levels[0], Up0)
    out[2:] += _times(levels[1:-2], Up)
    return float(np.abs(out - levels[:-1]).max())


def solve_stationary(spec: ChainSpec) -> StationarySolution:
    """Stationary law of the chain pair and its moments.

    A primary queue with lambda_p >= mu is unstable (Loynes 1962), and so is
    a partner queue that grows with a mean drift that is not positive; either
    raises ``UnstableError`` before any level is solved. Otherwise levels 0
    and 1, the rate matrix and the level sums are solved exactly
    (``_solve_levels``), over ``_phases`` phases. The true residual
    max|pi K - pi| of the balance equations of levels 0 to 2, and the
    relative residuals of the level sums' systems, must be below
    ``RESIDUAL_TOLERANCE``, or ``ConvergenceError`` is raised.

    ``TruncationError`` is raised where the phase edge holds more than
    ``BOUNDARY_MASS_LIMIT``, or where the cut moves the partner's mean by more
    than that, relatively. The cut leaves out the primary queue's mass b past
    the phase axis (``_phases``), and every probability of the cut chain's
    phase law moves by b, relatively; so the partner queue's mean drift moves
    by up to 2b, and the partner's mean by about 2b over the drift. So b may
    not exceed the larger of ``_PHASE_TAIL`` and the limit's share of half the
    drift: below the first, the cut is within float64 rounding.
    """
    mu = _primary_rate(spec.channel, spec.policy)
    if 0.0 < spec.point.lambda_p >= mu:
        raise UnstableError(f"lambda_p={spec.point.lambda_p!r} is not below the primary service rate "
                            f"mu={mu!r}: the primary queue is unstable")
    T, beyond = _phases(spec, mu)
    blocks = _blocks(spec, T)
    pi0, pi1, R, x, y, drift, residual = _solve_levels(blocks)
    total = pi0.sum() + x.sum()
    residual = max(residual, _residual(_joint(pi0, pi1, R, 4) / total, blocks))
    if not residual < RESIDUAL_TOLERANCE:
        raise ConvergenceError(f"residual {residual:.3e} not below tolerance {RESIDUAL_TOLERANCE:.3e}")

    primary = (pi0 + x) / total
    mass_at_boundary = float(primary[T - 1])
    edge, limit = mass_at_boundary > BOUNDARY_MASS_LIMIT, max(0.5 * BOUNDARY_MASS_LIMIT * drift, _PHASE_TAIL)
    if edge or beyond > limit:
        cause = (f"phase-edge mass {mass_at_boundary:.3e} exceeds {BOUNDARY_MASS_LIMIT:.0e}" if edge else
                 f"primary mass {beyond:.3e} beyond the phase edge exceeds {limit:.3e}, "
                 f"the most a partner drift of {drift:.3e} allows")
        raise TruncationError(f"{cause}; truncation {spec.truncation} is too small for this operating point")
    return StationarySolution(
        primary_law=primary,
        mean_first=float(primary @ np.arange(T)),
        mean_second=float(y.sum() / total),
        p00=float(pi0[0] / total),
        mass_at_boundary=mass_at_boundary,
        residual=residual,
        iterations=1,
    )
