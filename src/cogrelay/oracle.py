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
autonomous Geo/Geo/1 queue whose geometric law is stated once
(``_phases``): it cuts the phase axis before the solve, where its tail
falls below float64 rounding, so the cut is exact to rounding, and it is
the phase law above level 0. An unstable primary queue (lambda_p >= mu),
or a point whose tail needs more phases than ``ChainSpec.truncation``, is
refused before any block is built; a partner queue whose mean drift is not
positive has no stationary law and is refused before any level is solved.
No T x T array is built, so memory is linear in the phases: the transition
law writes the three diagonals of each of its five blocks, and every solve
is a tridiagonal elimination of O(T) scalar steps with one right-hand side.
Every reported number comes from level 0 and the two level sums above it;
no level above 0 is solved. Every result must then pass a residual check:
level 0's balance equations and the linear systems of the level sums, which
fix all three and hold only where the kernel's primary dynamics are that
law, must hold within ``RESIDUAL_TOLERANCE``, or the solve is rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelProfile, OperatingPoint, Policy, _require_memory

__all__ = ["CHAIN_PAIRS", "RESIDUAL_TOLERANCE", "ConvergenceError", "TruncationError",
           "UnstableError", "RangeError", "ChainSpec", "StationarySolution", "solve_stationary"]

CHAIN_PAIRS = ("primary_secondary", "primary_relay")

#: Bound the residuals of a solve must stay below (see ``solve_stationary``).
RESIDUAL_TOLERANCE = 1e-12

# the phase axis ends once the primary queue's tail on its edge is at most the unit roundoff
_PHASE_TAIL = 2.0**-53

# entries below this are set to 0: a product of two kept entries is a normal float64
_FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))

# a solve holds a few dozen length-T float64 arrays and lists of Python floats at once, about
# 400 bytes a phase; a truncation is refused where this much a phase would not fit in memory
_BYTES_PER_PHASE = 1024


class ConvergenceError(RuntimeError):
    """A residual of the solve is not below ``RESIDUAL_TOLERANCE``."""


class TruncationError(RuntimeError):
    """The primary queue's tail needs more phases than the truncation allows."""


class UnstableError(ValueError):
    """The operating point has no stationary law: a queue's mean drift toward empty is not positive."""


class RangeError(ValueError):
    """The operating point's stationary law spans more than float64's range, so a queue would read wrong."""


@dataclass(frozen=True)
class ChainSpec:
    """One chain solve.

    ``truncation`` is the most phases (primary counts) the solve may use: a
    point whose primary queue's tail needs more is refused. The partner
    count is not truncated. A solve's memory is linear in its phases, and a
    truncation whose solve would not fit in the machine's physical memory is
    refused; the default, 2^16 phases, asks 64 MiB.
    """

    channel: ChannelProfile
    policy: Policy
    point: OperatingPoint
    pair: str = "primary_secondary"
    truncation: int = 2**16

    def __post_init__(self) -> None:
        if self.pair not in CHAIN_PAIRS:
            raise ValueError(f"pair must be one of {CHAIN_PAIRS}, got {self.pair!r}")
        if self.truncation < 4:
            raise ValueError("truncation must be >= 4")
        _require_memory(_BYTES_PER_PHASE * self.truncation, f"truncation {self.truncation}", "the solve")


@dataclass(frozen=True, eq=False)
class StationarySolution:
    """Stationary law of a chain pair, with its moments.

    ``primary_law[i]`` is the stationary probability of i packets in the
    primary queue, over the T phases the solve used. ``mean_second`` is the
    partner queue's mean (Q_s or Q_sp depending on the chain pair); it and
    ``p00`` are over the whole, untruncated level axis.
    ``mass_at_boundary`` is ``primary_law[T - 1]``, the mass on the phase
    edge, at most ``_PHASE_TAIL``. ``residual`` is the largest relative
    residual of the solve: level 0's balance and the level sums' systems
    (see ``_solve_levels``). ``iterations`` is always 1: the solve is direct.
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


def _phases(spec: ChainSpec, mu: float) -> np.ndarray:
    """a: Q_p's law, with a_0 = 1, over the fewest phases T >= 2 whose tail from phase T - 1 is at most ``_PHASE_TAIL``.

    Q_p is autonomous, a Geo/Geo/1 queue served at mu > lambda_p: its law is
    a_0 = 1, a_1 = lambda_p / (mu (1 - lambda_p)) and a_{n+1} = rho a_n, with
    rho = lambda_p (1 - mu) / (mu (1 - lambda_p)), up to its normalisation,
    and P(Q_p >= n) = (lambda_p / mu) rho^(n - 1) for n >= 1. So T - 2 is the
    fewest k >= 0 with (lambda_p / mu) rho^k at most ``_PHASE_TAIL``, read
    from their logarithms. The cut chain keeps that law on its T phases,
    restricted and renormalised, so every phase's probability moves by at
    most ``_PHASE_TAIL``, relatively. Entries below ``_FLUSH_BELOW`` are 0.
    A T above ``spec.truncation`` raises ``TruncationError`` before anything
    of length T is built. This law alone sets the cut and the phase law
    above level 0 (``_drift``); the kernel is checked against it.
    """
    T, lambda_p = 2, spec.point.lambda_p
    first, rho = lambda_p / (mu * (1.0 - lambda_p)), lambda_p * (1.0 - mu) / (mu * (1.0 - lambda_p))
    head = lambda_p / mu
    if head > _PHASE_TAIL:
        T += math.ceil(math.log(_PHASE_TAIL / head) / math.log(rho)) if rho > 0.0 else 1
    if T > spec.truncation:
        raise TruncationError(f"the primary queue's tail needs {T} phases; "
                              f"truncation {spec.truncation} is too small")
    law = np.full(T, rho)
    law[:2] = 1.0, first
    return _flush(np.cumprod(law))


def _blocks(spec: ChainSpec, T: int) -> tuple[np.ndarray, ...]:
    """``L0, Up0, D, L, Up``: the blocks of the chain's one-slot kernel over T phases, as diagonals.

    Block rows are phases before the slot and columns phases after it; see
    ``_solve_levels`` for where each block sits. The primary count moves by
    at most one per slot, so each block B is tridiagonal and is returned as
    the (3, T) array ``[B[i, i - 1], B[i, i], B[i, i + 1]]`` over phases i,
    with 0 where the entry falls outside the block. Departures happen before
    arrivals within a slot (arrivals are first served the next slot), and
    transitions that would leave the phase axis stay at its edge.

    Each event adds its weights, in a fixed event order, to one diagonal of
    one block by slices: a move of 0 or -1 phases to ``block[move + 1]``, a
    move of +1 to ``block[2, :-1]``, but from the edge phase T - 1, which
    stays at the edge, to ``block[1, -1]``. Phase 0 has no departure to move
    it down, so ``block[0, 0]`` and ``block[2, -1]`` stay 0.
    """
    ch, pol, pt = spec.channel, spec.policy, spec.point
    i = np.arange(T)
    arr_p = (1.0 - pt.lambda_p, pt.lambda_p)

    def level(j: int) -> dict[int, np.ndarray]:
        """Blocks leaving partner level j, keyed by the level step -1, 0 or 1."""
        steps = {step: np.zeros((3, T)) for step in (-1, 0, 1)}

        def emit(weight: np.ndarray, di: int, dj: int, xp: int, xs: int) -> None:
            block, move = steps[dj + xs], di + xp
            if move < 1:
                block[move + 1] += weight
            else:
                block[2, :-1] += weight[:-1]
                block[1, -1] += weight[-1]

        if spec.pair == "primary_secondary":
            dep_p = np.where(i > 0, _primary_rate(ch, pol), 0.0)
            dep_s = np.where((i == 0) & (j > 0), pol.p_q * ch.f_sd, 0.0)
            arr_s = (1.0 - pt.lambda_s, pt.lambda_s)
            for yp, ys in itertools.product((0, 1), repeat=2):
                departures = (dep_p if yp else 1.0 - dep_p) * (dep_s if ys else 1.0 - dep_s)
                for xp, xs in itertools.product((0, 1), repeat=2):
                    emit(departures * (arr_p[xp] * arr_s[xs]), -yp, -ys, xp, xs)
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


def _flush(x: np.ndarray) -> np.ndarray:
    """``x`` with its entries below ``_FLUSH_BELOW`` set to 0, in place."""
    x[x < _FLUSH_BELOW] = 0.0
    return x


def _times(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``v @ block`` from the block's three diagonals."""
    out = v * block[1]
    out[1:] += v[:-1] * block[2, :-1]
    out[:-1] += v[1:] * block[0, 1:]
    return out


def _pivots(block: np.ndarray, leak: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """The pivots of Thomas elimination on ``I - block`` and, for each phase i > 0, the
    ratios ``block[i, i - 1] / pivot[i]`` and ``block[i - 1, i] / pivot[i]`` (0 at i = 0).

    ``block`` is substochastic and ``leak`` is what its rows lack of 1, so
    ``I - block`` is a diagonally dominant M-matrix: Thomas elimination needs
    no row exchanges. It runs from the top phase down, and each pivot is
    built from the leak and the off-diagonals as a sum of nonnegative terms
    (Grassmann, Taksar & Heyman 1985), never as a difference that cancels;
    an exactly zero pivot means the matrix is singular. The ratios are taken
    once here for every right-hand side that :func:`_solve_right` solves.
    """
    above = block[2].tolist()  # block[i, i + 1]
    below = block[0].tolist()  # block[i, i - 1]
    leak = leak.tolist()
    T = len(leak)
    pivots, down, up = [0.0] * T, [0.0] * T, [0.0] * T
    excess = leak[T - 1]
    for i in range(T - 1, 0, -1):
        b, a = below[i], above[i - 1]
        pivots[i] = pivot = b + excess
        if pivot == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        down[i], up[i] = b / pivot, a / pivot
        excess = leak[i - 1] + a * excess / pivot
    pivots[0] = excess
    if excess == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return pivots, down, up


def _solve_right(elimination: tuple[list[float], ...], rhs: np.ndarray) -> np.ndarray:
    """``z`` with ``z (I - block) = rhs``, for ``rhs >= 0`` and ``elimination = _pivots(block, leak)``.

    Thomas elimination over Python floats: the subdiagonal is eliminated
    from the top phase down, then the pivots are substituted back up. Every
    step adds nonnegative terms, and an entry below ``_FLUSH_BELOW``, of
    ``rhs`` or made by a step, is set to 0.
    """
    pivots, down, up = elimination
    z = [value if value >= _FLUSH_BELOW else 0.0 for value in rhs.tolist()]
    for i in range(len(z) - 1, 0, -1):
        value = z[i - 1] + down[i] * z[i]
        z[i - 1] = value if value >= _FLUSH_BELOW else 0.0
    value = 0.0  # phase 0 has no phase below it, so its term adds 0
    for i in range(len(z)):
        value = z[i] / pivots[i] + up[i] * value
        z[i] = value = value if value >= _FLUSH_BELOW else 0.0
    return np.array(z)


def _drift(blocks: tuple[np.ndarray, ...], law: np.ndarray) -> tuple[np.ndarray, float]:
    """``a, a D 1 - a Up 1``: the phase law a above level 0, and the partner queue's mean drift down.

    a is ``law``, the primary queue's Geo/Geo/1 law over the cut phase axis
    (``_phases``), normalised. Q_p is autonomous, so a is also the stationary
    vector of ``D + L + Up``, the phase chain of every level above 0, where
    the kernel holds the law; ``_solve_levels``' residuals check that it
    does. A level-independent QBD is positive recurrent exactly where this
    drift is positive (Neuts 1981, ch. 1; Latouche & Ramaswami 1999). It
    needs no level solve, so it holds at unstable points.
    """
    _, _, D, _, Up = blocks
    a = law / law.sum()
    return a, float(D[:, 0].sum() * a[0] - a @ Up.sum(axis=0))


def _balance0(pi0: np.ndarray, blocks: tuple[np.ndarray, ...]) -> float:
    """Level 0's balance residual ``max|pi_0 - pi_0 L0 - pi_1 D| / max pi_0``, from the blocks alone.

    Down-steps leave only from phase 0, so ``pi_1 D`` is ``pi_1[0]`` times
    D's phase-0 row, and the flow balance across the cut between levels 0
    and 1, ``pi_0 Up0 1 = served pi_1[0]``, gives ``pi_1[0]``. A partner
    queue that never grows has no flow up, and level 0 is the whole chain.
    """
    L0, Up0, D, _, _ = blocks
    defect = pi0 - _times(pi0, L0)
    up = pi0 @ Up0.sum(axis=0)
    if up:
        defect[:2] -= up / D[:, 0].sum() * D[1:, 0]
    return float(np.abs(defect).max() / pi0.max())


def _solve_levels(blocks: tuple[np.ndarray, ...], law: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``pi_0, x, y, residual``: unnormalised level 0 and the level sums above it, given the primary law.

    Levels are partner counts j and phases primary counts i; each block is
    given by its three diagonals (see ``_blocks``). The kernel is block
    tridiagonal in the level: ``L0``/``Up0`` at level 0 and ``D``/``L``/``Up``
    at every level above it, with no top level. Down-steps leave only from
    phase 0, so ``D`` is 0 off that phase's row and a first passage down
    always lands in ``d``, that row over its sum ``served``. Level 0's
    balance ``pi_0 (I - L0) = pi_1 D = (served pi_1[0]) d`` makes it
    ``d (I - L0)^-1`` up to a scale the normalisation removes, or ``e_0``
    where it never leaves phase 0. No level above 0 is solved.

    A partner queue that grows with a mean drift (``_drift``) that is not
    positive has no stationary law, and raises ``UnstableError`` before any
    level is solved. Level 0's scale, about 1 over the rate at which the
    partner leaves it, sets ``served pi_1[0] = 1``, so rare partner arrivals
    are not flushed; where it overflows float64, ``RangeError`` is raised.
    A partner queue that never grows stays at level 0, which is then the
    primary queue's ``law`` (``_phases``): x and y are 0.

    The level sums ``x = sum_{j >= 1} pi_j`` and ``y = sum_{j >= 1} j pi_j``
    solve ``x (I - R) = pi_1`` and ``y (I - R) = x``, with R the rate matrix
    ``Up (I - U)^-1``, ``U = L + u d`` and ``u = Up 1`` (Neuts 1981), which
    is never formed. Multiplied by ``I - U`` these read ``x (A - u d) =
    pi_0 Up0`` and ``y (A - u d) = pi_0 Up0 + x Up``, with ``A = I - L -
    Up``, whose rows lack only the down-steps ``D = served e_0 d``; the
    right-hand sides are sums of nonnegative terms. Each is one tridiagonal
    solve ``q = rhs A^-1`` and a rank-one correction. Where the kernel's
    primary dynamics hold the law a (``_drift``), ``a (D + L + Up) = a``, so
    ``a A = a_0 served d`` and ``d A^-1 = a / (a_0 served)`` with no solve,
    and the Sherman-Morrison formula reads ``q + (q u / drift) a``:
    its denominator ``1 - d A^-1 u`` is the drift over ``a_0 served``. Every
    term is nonnegative, so nothing cancels but the drift itself, a
    difference of rates whose rounding is that of the stability margin: at
    a relative margin delta the sums are accurate to about eps / delta.
    Every entry below ``_FLUSH_BELOW`` (about 1.5e-154) is set to 0 as it
    is made.

    Where the drift is positive, level 0's balance and the two level-sum
    systems fix pi_0, x and y uniquely (Neuts 1981, ch. 1). ``residual`` is
    the largest relative residual of the three: level 0's (``_balance0``)
    and ``max|z (A - u d) - rhs| / max z`` of each sum; the relative error of
    z is at most that times the condition number of ``A - u d``. The sums'
    residuals are taken from the blocks, so they also check the kernel's
    primary dynamics against the law that set the phase cut: a kernel whose
    phase chain is not the law's fails them.
    """
    L0, Up0, D, L, Up = blocks
    T = L0.shape[1]
    if D[:, 1:].any():
        raise ValueError("kernel serves the partner queue while the primary queue is busy")
    if not (Up0.any() or Up.any()):
        zeros = np.zeros(T)
        return law, zeros, zeros, _balance0(law, blocks)
    a, drift = _drift(blocks, law)
    if not drift > 0.0:
        raise UnstableError(f"the partner queue's mean drift {drift!r} toward empty is not positive: "
                            "the partner queue is unstable")
    served = D[:, 0].sum()
    e0, d = np.zeros(T), np.zeros(T)
    e0[0], d[:2] = 1.0, D[1:, 0] / served
    u, u0 = Up.sum(axis=0), Up0.sum(axis=0)
    pi0 = e0 if u0[0] == 0.0 == L0[2, 0] else _solve_right(_pivots(L0, u0), d)
    if not pi0.max() < np.finfo(float).max / T:  # so that no sum of a level overflows
        raise RangeError("level 0's mass, about 1 over the rate at which the partner leaves it, overflows float64")
    M = L + Up
    across = _pivots(M, served * e0)  # A = I - L - Up: every move but the down-steps
    residual = _balance0(pi0, blocks)

    def summed(rhs: np.ndarray) -> np.ndarray:
        """z with z (A - u d) = rhs."""
        nonlocal residual
        q = _solve_right(across, rhs)
        z = _flush(q + (q @ u / drift) * a)
        if z.any():
            defect = z - _times(z, M) - (z @ u) * d - rhs
            residual = max(residual, float(np.abs(defect).max() / z.max()))
        return z

    source = _times(pi0, Up0)
    x = summed(source)
    return pi0, x, summed(source + _times(x, Up)), residual


def solve_stationary(spec: ChainSpec) -> StationarySolution:
    """Stationary law of the chain pair and its moments.

    A primary queue with lambda_p >= mu, mu = 0 included, is unstable (Loynes
    1962) and raises ``UnstableError`` before any block is built, as does a
    point whose primary queue's tail needs more than ``spec.truncation``
    phases (``_phases``) with ``TruncationError``. That queue's Geo/Geo/1 law
    sets the phases; a partner queue that grows with a mean drift that is not
    positive raises ``UnstableError`` before any level is solved. Otherwise
    level 0 and the level sums above it are solved exactly
    (``_solve_levels``), over those phases, and every reported quantity is
    read from them. The relative residuals of level 0's balance equations
    and of the level sums' systems, which bound the error of all three and
    check the kernel against the law, must be below ``RESIDUAL_TOLERANCE``,
    or ``ConvergenceError`` is raised.
    A primary queue with arrivals whose mass off empty was flushed to 0
    raises ``RangeError``; the partner's cannot be, as ``served pi_1[0] = 1``.
    """
    mu = _primary_rate(spec.channel, spec.policy)
    if spec.point.lambda_p >= mu:
        raise UnstableError(f"lambda_p={spec.point.lambda_p!r} is not below the primary service rate "
                            f"mu={mu!r}: the primary queue is unstable")
    law = _phases(spec, mu)
    T = len(law)
    pi0, x, y, residual = _solve_levels(_blocks(spec, T), law)
    if not residual < RESIDUAL_TOLERANCE:
        raise ConvergenceError(f"residual {residual:.3e} not below tolerance {RESIDUAL_TOLERANCE:.3e}")

    total = pi0.sum() + x.sum()
    primary = (pi0 + x) / total
    mean_first = float(primary @ np.arange(T))
    if spec.point.lambda_p > 0.0 and mean_first == 0.0:
        raise RangeError("the primary queue receives arrivals, but the solve flushed its mass off empty to 0: "
                         "the stationary law spans more than float64's range")
    return StationarySolution(
        primary_law=primary,
        mean_first=mean_first,
        mean_second=float(y.sum() / total),
        p00=float(pi0[0] / total),
        mass_at_boundary=float(primary[T - 1]),
        residual=residual,
        iterations=1,
    )
