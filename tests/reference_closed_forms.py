"""Term-by-term scalar reference for :mod:`cogrelay.analytics` and :mod:`cogrelay.optimizer`.

These are the modules' original point-by-point implementations in Python
floats (their own exception classes included), so that the array-valued core
can be checked against them for equality: the same IEEE operations in the
same order give the same bits, and where a denominator vanishes Python's
float division raises, which the core's masks must match. Two rules have
changed since, in both places: without relay inflow the primary bound is
the primary service rate and the relay queue's mean length is 0, so no
cooperation, Policy(1, 0), is an ordinary stable policy; and the secondary
optimum must have a delay report, as ``delay`` requires of it. The verdict
and the delay report are types of this module alone: :func:`is_stable` must
give the core's (stable, margin_p, margin_s), and :func:`delay_report` must
return exactly where the core's point is stable and evaluable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from cogrelay.model import ChannelProfile, OperatingPoint, Policy


#: Sentinel for the secondary margin where the primary queue itself cannot be
#: drained.
MOST_NEGATIVE_MARGIN = -sys.float_info.max


class AnalyticsError(ValueError):
    """Base class for closed-form evaluation errors."""


class InstabilityError(AnalyticsError):
    """The operating point violates a stability precondition."""


class UndefinedRateError(AnalyticsError):
    """A rate in a denominator is zero, so the requested quantity is undefined."""


@dataclass(frozen=True)
class StabilityVerdict:
    """Stability decision plus per-queue margins to the boundary.

    Stability is the conjunction of strictly positive margins. When the
    primary queue itself cannot be drained the secondary margin carries the
    MOST_NEGATIVE_MARGIN sentinel.
    """

    stable: bool
    margin_p: float
    margin_s: float


def _relay_rate(ch: ChannelProfile, p_a: float) -> float:
    # probability that a PU transmission ends up admitted to the relay queue
    return p_a * ch.f_ps * (1.0 - ch.f_pd)


def service_rate_primary(ch: ChannelProfile, p_a: float) -> float:
    """Primary-queue service rate: direct delivery or decode-and-admit handoff."""
    return ch.f_pd + _relay_rate(ch, p_a)


def relay_fraction_epsilon(ch: ChannelProfile, p_a: float) -> float:
    """Probability that a departing PU packet leaves via the relay path."""
    mu = service_rate_primary(ch, p_a)
    if mu == 0.0:
        raise UndefinedRateError("primary service rate is zero; relay fraction undefined")
    return _relay_rate(ch, p_a) / mu


def max_arrival_primary(ch: ChannelProfile, pol: Policy) -> float:
    """Largest sustainable lambda_p under the policy (relay-queue constraint)."""
    own = ch.f_sd * (1.0 - pol.p_q)
    relay = _relay_rate(ch, pol.p_a)
    if relay == 0.0:
        # an empty relay queue never limits the primary queue (own / own is 1)
        return service_rate_primary(ch, pol.p_a)
    return own / (own + relay) * service_rate_primary(ch, pol.p_a)


def max_arrival_secondary(ch: ChannelProfile, pol: Policy, lambda_p: float) -> float:
    """Largest sustainable lambda_s given the primary load lambda_p."""
    mu = service_rate_primary(ch, pol.p_a)
    if lambda_p >= mu:
        raise InstabilityError(
            f"lambda_p={lambda_p!r} not below the primary service rate {mu!r}"
        )
    return pol.p_q * ch.f_sd * (1.0 - lambda_p / mu)


def is_stable(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> StabilityVerdict:
    """Stability verdict with per-queue margins (strict inequalities, no tolerance).

    Where lambda_p reaches the primary service rate the secondary margin is
    the MOST_NEGATIVE_MARGIN sentinel rather than an error.
    """
    mu = service_rate_primary(ch, pol.p_a)
    margin_p = max_arrival_primary(ch, pol) - pt.lambda_p
    if pt.lambda_p >= mu:
        margin_s = MOST_NEGATIVE_MARGIN
    else:
        margin_s = max_arrival_secondary(ch, pol, pt.lambda_p) - pt.lambda_s
    return StabilityVerdict(margin_p > 0.0 and margin_s > 0.0, margin_p, margin_s)


def _require_stable(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> None:
    verdict = is_stable(ch, pol, pt)
    if not verdict.stable:
        raise InstabilityError(
            f"operating point {pt} is not stable under {pol}: "
            f"margin_p={verdict.margin_p!r}, margin_s={verdict.margin_s!r}"
        )


def phase_transition_pq(ch: ChannelProfile) -> float:
    """The p_q at which the primary rate bound becomes insensitive to p_a."""
    return 1.0 - ch.f_pd / ch.f_sd


def union_region_max_lambda_s(ch: ChannelProfile, lambda_p: float) -> float:
    """Outer stability boundary over all policies (floored at zero)."""
    relay = ch.f_ps * (1.0 - ch.f_pd)
    slope = (ch.f_sd + relay) / (ch.f_pd + relay)
    # the boundary meets the lambda_s axis at f_sd, also where the slope overflows to inf
    value = ch.f_sd if lambda_p == 0.0 else ch.f_sd - slope * lambda_p
    return max(value, 0.0)


def mean_queue_primary(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> float:
    """Mean primary queue length (Pollaczek-Khinchine form for a Bernoulli/geometric queue)."""
    mu = service_rate_primary(ch, pol.p_a)
    lp = pt.lambda_p
    if lp >= mu:
        raise InstabilityError(f"lambda_p={lp!r} not below the primary service rate {mu!r}")
    return (lp - lp * lp) / (mu - lp)


@dataclass(frozen=True)
class RelayCoefficients:
    """Coefficients of the relay-queue mean-length rational function of lambda_p."""

    m: float
    n: float
    alpha: float
    beta: float
    gamma: float


def relay_coefficients(ch: ChannelProfile, pol: Policy) -> RelayCoefficients:
    """Coefficients (m, n, alpha, beta, gamma) of the relay queue's mean length."""
    mu = service_rate_primary(ch, pol.p_a)
    if mu == 0.0:
        raise UndefinedRateError("primary service rate is zero; relay coefficients undefined")
    own = (1.0 - pol.p_q) * ch.f_sd
    relay = _relay_rate(ch, pol.p_a)
    m = relay * ((own - ch.f_pd) / mu - own - relay)
    n = relay * mu
    alpha = own + relay
    beta = mu * (-2.0 * own - relay)
    gamma = own * mu * mu
    return RelayCoefficients(m, n, alpha, beta, gamma)


def mean_queue_relay(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> float:
    """Mean relay queue length at a stable operating point."""
    _require_stable(ch, pol, pt)
    if _relay_rate(ch, pol.p_a) == 0.0:
        return 0.0  # no PU packet ever enters the relay queue
    c = relay_coefficients(ch, pol)
    lp = pt.lambda_p
    num = c.m * lp * lp + c.n * lp
    den = c.alpha * lp * lp + c.beta * lp + c.gamma
    if not den > 0.0:
        raise AssertionError(
            f"relay-queue denominator {den!r} not positive at a stable point "
            f"(ch={ch}, pol={pol}, pt={pt}); coefficient transcription bug"
        )
    return num / den


@dataclass(frozen=True)
class SecondaryCoefficients:
    """Coefficients of the secondary queue's mean-length expression."""

    a_coef: float
    b_coef: float
    c_coef: float


def secondary_coefficients(
    ch: ChannelProfile, pol: Policy, pt: OperatingPoint
) -> SecondaryCoefficients:
    """Coefficients (A, B, C) of the secondary queue's mean length."""
    _require_stable(ch, pol, pt)
    mu = service_rate_primary(ch, pol.p_a)
    a = pol.p_q * ch.f_sd * (mu - 1.0)
    b = mu - pt.lambda_p
    c = (pt.lambda_s - pol.p_q * ch.f_sd) * mu + pol.p_q * ch.f_sd * pt.lambda_p
    if b <= 0.0 or c == 0.0:
        raise AssertionError(
            f"secondary coefficients out of domain at a stable point: B={b!r}, C={c!r} "
            f"(ch={ch}, pol={pol}, pt={pt}); transcription bug"
        )
    return SecondaryCoefficients(a, b, c)


def mean_queue_secondary(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> float:
    """Mean secondary (own-data) queue length at a stable operating point."""
    co = secondary_coefficients(ch, pol, pt)
    lp, ls = pt.lambda_p, pt.lambda_s
    num = lp * ls * co.a_coef + (ls * ls - ls) * co.b_coef * (co.b_coef + lp)
    return num / (co.b_coef * co.c_coef)


def delay_primary(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> float:
    """Mean delay of a primary packet: queueing at the PU plus, for relayed packets, at the SU."""
    if pt.lambda_p <= 0.0:
        raise UndefinedRateError("primary delay undefined at lambda_p = 0")
    _require_stable(ch, pol, pt)
    return (mean_queue_primary(ch, pol, pt) + mean_queue_relay(ch, pol, pt)) / pt.lambda_p


def delay_secondary(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> float:
    """Mean delay of a secondary packet."""
    if pt.lambda_s <= 0.0:
        raise UndefinedRateError("secondary delay undefined at lambda_s = 0")
    return mean_queue_secondary(ch, pol, pt) / pt.lambda_s


def empty_joint_probability(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> float:
    """Stationary probability that the primary and secondary queues are both empty."""
    _require_stable(ch, pol, pt)
    mu = service_rate_primary(ch, pol.p_a)
    own = pol.p_q * ch.f_sd
    return (own * (mu - pt.lambda_p) - pt.lambda_s * mu) / (own * mu)


def prob_primary_empty(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> float:
    """Stationary probability that the primary queue is empty."""
    mu = service_rate_primary(ch, pol.p_a)
    if pt.lambda_p >= mu:
        raise InstabilityError(
            f"lambda_p={pt.lambda_p!r} not below the primary service rate {mu!r}"
        )
    return 1.0 - pt.lambda_p / mu


@dataclass(frozen=True)
class DelayReport:
    """Bundle of all closed-form queue metrics at one stable operating point.

    A delay is ``None`` where its arrival rate is zero. Validated with a 1e-9
    slack against the mathematical bounds (lengths nonnegative, delays at
    least one slot, probabilities in [0, 1]) to absorb floating-point
    rounding at extreme channels.
    """

    n_p: float
    n_sp: float
    n_s: float
    d_p: float | None
    d_s: float | None
    g00: float
    epsilon: float

    def __post_init__(self) -> None:
        slack = 1e-9
        checks = (
            self.n_p >= -slack,
            self.n_sp >= -slack,
            self.n_s >= -slack,
            self.d_p is None or self.d_p >= 1.0 - slack,
            self.d_s is None or self.d_s >= 1.0 - slack,
            -slack <= self.g00 <= 1.0 + slack,
            -slack <= self.epsilon <= 1.0 + slack,
        )
        if not all(checks):
            raise ValueError(f"delay report violates its bounds: {self!r}")


def delay_report(ch: ChannelProfile, pol: Policy, pt: OperatingPoint) -> DelayReport:
    """Evaluate every closed form once at a stable point.

    The delays are those of :func:`delay_primary` and :func:`delay_secondary`,
    from the same operations, and ``None`` where the arrival rate is zero.
    """
    _require_stable(ch, pol, pt)
    n_p = mean_queue_primary(ch, pol, pt)
    n_sp = mean_queue_relay(ch, pol, pt)
    n_s = mean_queue_secondary(ch, pol, pt)
    return DelayReport(
        n_p=n_p,
        n_sp=n_sp,
        n_s=n_s,
        d_p=(n_p + n_sp) / pt.lambda_p if pt.lambda_p > 0.0 else None,
        d_s=n_s / pt.lambda_s if pt.lambda_s > 0.0 else None,
        g00=empty_joint_probability(ch, pol, pt),
        epsilon=relay_fraction_epsilon(ch, pol.p_a),
    )


#: Offset from the feasible interval's endpoints at which optima are reported.
INTERIOR_OFFSET = 1e-6

#: Stability margin below which a reported optimum is flagged near-boundary.
NEAR_BOUNDARY_MARGIN = 1e-3


class InfeasibleError(ValueError):
    """No policy stabilizes the system at the requested operating point."""


@dataclass(frozen=True)
class PrimaryDelayDecision:
    """Outcome of the primary-delay minimization.

    ``p_q_star``/``p_a_star`` are set only in cooperate mode; ``d_p_star`` is
    set unless the problem is infeasible. ``near_boundary`` flags optima whose
    stability margin is below NEAR_BOUNDARY_MARGIN (expected in cooperate mode,
    where the optimum hugs the feasibility boundary).
    """

    mode: str
    p_q_star: float | None = None
    p_a_star: float | None = None
    d_p_star: float | None = None
    near_boundary: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("cooperate", "no_cooperation", "infeasible"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.mode == "cooperate") != (self.p_q_star is not None and self.p_a_star is not None):
            raise ValueError("p_q_star/p_a_star are present exactly in cooperate mode")


def pq_lower_bound(ch: ChannelProfile, pt: OperatingPoint, p_a: float) -> float:
    """Smallest p_q keeping the secondary queue stable at this p_a."""
    mu = service_rate_primary(ch, p_a)
    if pt.lambda_p >= mu:
        raise InfeasibleError(
            f"lambda_p={pt.lambda_p!r} not below the primary service rate {mu!r} at p_a={p_a!r}"
        )
    return pt.lambda_s * mu / (ch.f_sd * (mu - pt.lambda_p))


def pq_upper_bound(ch: ChannelProfile, pt: OperatingPoint, p_a: float) -> float:
    """Largest p_q keeping the relay queue stable at this p_a."""
    mu = service_rate_primary(ch, p_a)
    if pt.lambda_p >= mu:
        raise InfeasibleError(
            f"lambda_p={pt.lambda_p!r} not below the primary service rate {mu!r} at p_a={p_a!r}"
        )
    return 1.0 - pt.lambda_p * _relay_rate(ch, p_a) / (ch.f_sd * (mu - pt.lambda_p))


def no_cooperation_delay_primary(ch: ChannelProfile, lambda_p: float) -> float:
    """Primary delay with relaying disabled (single queue served at f_pd)."""
    if lambda_p >= ch.f_pd:
        raise InfeasibleError(
            f"lambda_p={lambda_p!r} not below f_pd={ch.f_pd!r}; no-cooperation system unstable"
        )
    return (1.0 - lambda_p) / (ch.f_pd - lambda_p)


def _feasible_interval_at_full_admission(
    ch: ChannelProfile, pt: OperatingPoint
) -> tuple[float, float] | None:
    """Open p_q interval stabilizing the system at p_a = 1, or None if no wider than INTERIOR_OFFSET."""
    if pt.lambda_p >= service_rate_primary(ch, 1.0):
        return None
    lo = pq_lower_bound(ch, pt, 1.0)
    hi = min(pq_upper_bound(ch, pt, 1.0), 1.0)
    if not hi - lo > INTERIOR_OFFSET:
        return None
    return lo, hi


def _interior(value: float, lo: float, hi: float, from_low: bool) -> float:
    # keep the offset point strictly inside even when the interval is narrow
    if from_low:
        return min(value + INTERIOR_OFFSET, 0.5 * (lo + hi))
    return max(value - INTERIOR_OFFSET, 0.5 * (lo + hi))


def minimize_primary_delay(ch: ChannelProfile, pt: OperatingPoint) -> PrimaryDelayDecision:
    """Minimize the primary delay over (p_q, p_a) subject to full-system stability.

    Feasibility is decided at p_a = 1 (the admission that admits the widest
    p_q interval); with no stabilizing p_q there the problem is infeasible.
    """
    if pt.lambda_p <= 0.0:
        raise UndefinedRateError("primary-delay minimization undefined at lambda_p = 0")
    interval = _feasible_interval_at_full_admission(ch, pt)
    if interval is None:
        return PrimaryDelayDecision(mode="infeasible")
    lo, hi = interval
    if lo <= phase_transition_pq(ch):
        p_q_star = _interior(lo, lo, hi, from_low=True)
        policy = Policy(p_q_star, 1.0)
        verdict = is_stable(ch, policy, pt)
        return PrimaryDelayDecision(
            mode="cooperate",
            p_q_star=p_q_star,
            p_a_star=1.0,
            d_p_star=delay_primary(ch, policy, pt),
            near_boundary=min(verdict.margin_p, verdict.margin_s) < NEAR_BOUNDARY_MARGIN,
        )
    try:
        d_p = no_cooperation_delay_primary(ch, pt.lambda_p)
    except InfeasibleError:
        return PrimaryDelayDecision(mode="infeasible")
    return PrimaryDelayDecision(mode="no_cooperation", d_p_star=d_p)


def minimize_secondary_delay(ch: ChannelProfile, pt: OperatingPoint) -> tuple[float, float]:
    """Minimize the secondary delay; returns (p_q_star, d_s_star) at p_a = 1.

    The secondary delay decreases monotonically in p_q, so the optimum is the
    feasible supremum minus the strict-interior offset. The delay is read
    from the full delay report there, which raises wherever ``delay`` cannot
    report the optimum (a mean delay below one slot, say).
    """
    if pt.lambda_s <= 0.0:
        raise UndefinedRateError("secondary-delay minimization undefined at lambda_s = 0")
    interval = _feasible_interval_at_full_admission(ch, pt)
    if interval is None:
        raise InfeasibleError(f"no p_q stabilizes the system at p_a=1 for {pt}")
    lo, hi = interval
    p_q_star = _interior(hi, lo, hi, from_low=False)
    d_s_star = delay_report(ch, Policy(p_q_star, 1.0), pt).d_s
    return p_q_star, d_s_star
