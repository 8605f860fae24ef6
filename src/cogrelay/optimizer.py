"""Constrained delay minimization over the policy pair (p_q, p_a).

The feasible set at a fixed operating point is an interval of p_q values per
p_a. Since the primary delay increases with p_q and the lower end of the
interval drops as p_a grows, the primary optimum sits at the interval's lower
end with p_a = 1 whenever relaying helps at all, i.e. whenever that lower end
lies below the phase-transition value 1 - f_pd/f_sd; above it, not cooperating
gives the smaller primary delay. The secondary optimum adopts p_a = 1 and the
upper end of the interval (the secondary delay decreases in both knobs); the
test suite brute-forces the full 2-D grid as a guard rather than asserting
that choice axiomatically.

Returned optima sit a strict-interior offset inside the open feasible
interval, because its endpoints are critically stable (infinite delay). An
interval no wider than that offset counts as infeasible: its ends can agree
to rounding, and no p_q inside it is stable in float64.

:func:`optima` evaluates both optimizations at once over arrays of channels
and loads, through the array core of :mod:`cogrelay.analytics`; the scalar
functions are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytics import (
    UndefinedRateError,
    _divisible,
    closed_forms,
    delay_primary,
    delay_secondary,
)
from .model import ChannelProfile, OperatingPoint, Policy

__all__ = [
    "INTERIOR_OFFSET",
    "NEAR_BOUNDARY_MARGIN",
    "InfeasibleError",
    "PrimaryDelayDecision",
    "Optima",
    "optima",
    "pq_lower_bound",
    "pq_upper_bound",
    "minimize_primary_delay",
    "minimize_secondary_delay",
    "no_cooperation_delay_primary",
]

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


@np.errstate(all="ignore")
def _pq_interval(f_pd, f_sd, f_ps, p_a, lambda_p, lambda_s):
    # (p_q lower bound, p_q upper bound, their denominator, the closed forms)
    cf = closed_forms(f_pd, f_sd, f_ps, p_a=p_a, lambda_p=lambda_p, lambda_s=lambda_s)
    den = f_sd * (cf.mu - lambda_p)
    return lambda_s * cf.mu / den, 1.0 - lambda_p * cf.relay / den, den, cf


def _pq_bound(ch: ChannelProfile, pt: OperatingPoint, p_a: float, upper: bool) -> float:
    lower_value, upper_value, den, cf = _pq_interval(
        ch.f_pd, ch.f_sd, ch.f_ps, p_a, pt.lambda_p, pt.lambda_s
    )
    if pt.lambda_p >= cf.mu:
        raise InfeasibleError(
            f"lambda_p={pt.lambda_p!r} not below the primary service rate {float(cf.mu)!r} "
            f"at p_a={p_a!r}"
        )
    _divisible(den)
    return float(upper_value if upper else lower_value)


def pq_lower_bound(ch: ChannelProfile, pt: OperatingPoint, p_a: float) -> float:
    """Smallest p_q keeping the secondary queue stable at this p_a."""
    return _pq_bound(ch, pt, p_a, upper=False)


def pq_upper_bound(ch: ChannelProfile, pt: OperatingPoint, p_a: float) -> float:
    """Largest p_q keeping the relay queue stable at this p_a."""
    return _pq_bound(ch, pt, p_a, upper=True)


def _no_cooperation_delay(f_pd, lambda_p):
    # a single Geo/Geo/1 queue served at f_pd
    return (1.0 - lambda_p) / (f_pd - lambda_p)


def no_cooperation_delay_primary(ch: ChannelProfile, lambda_p: float) -> float:
    """Primary delay with relaying disabled (single queue served at f_pd)."""
    if lambda_p >= ch.f_pd:
        raise InfeasibleError(
            f"lambda_p={lambda_p!r} not below f_pd={ch.f_pd!r}; no-cooperation system unstable"
        )
    return _no_cooperation_delay(ch.f_pd, lambda_p)


class Optima(NamedTuple):
    """Both delay optima at broadcast (channel, point) arrays.

    Feasibility is decided at p_a = 1, the admission that admits the widest
    p_q interval. Entries are meaningful where their masks say so.
    """

    p_q_lower: np.ndarray  # the p_q bounds at p_a = 1, where bounds_defined
    p_q_upper: np.ndarray
    bounds_defined: np.ndarray  # lambda_p below the primary service rate at p_a = 1
    bounds_den: np.ndarray  # the bounds' denominator
    threshold: np.ndarray  # phase-transition p_q
    feasible: np.ndarray  # the stabilizing p_q interval at p_a = 1 is wider than INTERIOR_OFFSET
    cooperate: np.ndarray  # the primary optimum relays (p_a = 1 at pu_p_q_star)
    pu_p_q_star: np.ndarray
    pu_d_p_star: np.ndarray  # primary delay at the cooperating optimum
    pu_near_boundary: np.ndarray
    no_coop_ok: np.ndarray  # the primary queue alone is stable without relaying
    no_coop_d_p: np.ndarray
    su_p_q_star: np.ndarray  # secondary optimum, where feasible
    su_d_s_star: np.ndarray
    fault: np.ndarray  # where the scalar functions raise other than InfeasibleError


@np.errstate(all="ignore")
def optima(f_pd, f_sd, f_ps, lambda_p, lambda_s) -> Optima:
    """Evaluate both optimizations on arrays, as the scalar functions do point by point.

    ``fault`` marks where :func:`pq_lower_bound` at p_a = 1,
    :func:`minimize_primary_delay` (at lambda_p > 0) or
    :func:`minimize_secondary_delay` (at lambda_s > 0) raise an error other
    than InfeasibleError: an optimum the closed forms cannot evaluate.
    """
    lambda_p = np.asarray(lambda_p, dtype=np.float64)
    lambda_s = np.asarray(lambda_s, dtype=np.float64)
    lower, upper, den, cf = _pq_interval(f_pd, f_sd, f_ps, 1.0, lambda_p, lambda_s)
    defined = ~(lambda_p >= cf.mu)
    # Python's min and max keep their first argument on a tie
    hi = np.where(1.0 < upper, 1.0, upper)
    # an interval no wider than the offset has no interior point in float64
    feasible = defined & (hi - lower > INTERIOR_OFFSET)
    cooperate = feasible & (lower <= cf.threshold)
    mid = 0.5 * (lower + hi)
    pu_star = np.where(mid < lower + INTERIOR_OFFSET, mid, lower + INTERIOR_OFFSET)
    su_star = np.where(mid > hi - INTERIOR_OFFSET, mid, hi - INTERIOR_OFFSET)
    pu = closed_forms(f_pd, f_sd, f_ps, pu_star, 1.0, lambda_p, lambda_s)
    su = closed_forms(f_pd, f_sd, f_ps, su_star, 1.0, lambda_p, lambda_s)
    fault = (
        (defined & (den == 0.0))
        | ((lambda_p > 0.0) & cooperate & ~(pu.stable & pu.relay_ok))
        | ((lambda_s > 0.0) & feasible & ~(su.stable & su.secondary_ok & (su.n_s_den != 0.0)))
    )
    return Optima(
        lower, upper, defined, den, cf.threshold, feasible, cooperate,
        pu_star, pu.d_p, np.where(pu.margin_s < pu.margin_p, pu.margin_s, pu.margin_p)
        < NEAR_BOUNDARY_MARGIN,
        ~(lambda_p >= f_pd), _no_cooperation_delay(f_pd, lambda_p), su_star, su.d_s, fault,
    )


def _optima_at(ch: ChannelProfile, pt: OperatingPoint) -> Optima:
    o = optima(ch.f_pd, ch.f_sd, ch.f_ps, pt.lambda_p, pt.lambda_s)
    if o.bounds_defined:
        _divisible(o.bounds_den)
    return o


def minimize_primary_delay(ch: ChannelProfile, pt: OperatingPoint) -> PrimaryDelayDecision:
    """Minimize the primary delay over (p_q, p_a) subject to full-system stability.

    Feasibility is decided at p_a = 1 (the admission that admits the widest
    p_q interval); with no stabilizing p_q there the problem is infeasible.
    """
    if pt.lambda_p <= 0.0:
        raise UndefinedRateError("primary-delay minimization undefined at lambda_p = 0")
    o = _optima_at(ch, pt)
    if o.cooperate:
        p_q_star = float(o.pu_p_q_star)
        return PrimaryDelayDecision(
            mode="cooperate",
            p_q_star=p_q_star,
            p_a_star=1.0,
            d_p_star=delay_primary(ch, Policy(p_q_star, 1.0), pt),
            near_boundary=bool(o.pu_near_boundary),
        )
    if o.feasible and o.no_coop_ok:
        return PrimaryDelayDecision(mode="no_cooperation", d_p_star=float(o.no_coop_d_p))
    return PrimaryDelayDecision(mode="infeasible")


def minimize_secondary_delay(ch: ChannelProfile, pt: OperatingPoint) -> tuple[float, float]:
    """Minimize the secondary delay; returns (p_q_star, d_s_star) at p_a = 1.

    The secondary delay decreases monotonically in p_q, so the optimum is the
    feasible supremum minus the strict-interior offset.
    """
    if pt.lambda_s <= 0.0:
        raise UndefinedRateError("secondary-delay minimization undefined at lambda_s = 0")
    o = _optima_at(ch, pt)
    if not o.feasible:
        raise InfeasibleError(f"no p_q stabilizes the system at p_a=1 for {pt}")
    p_q_star = float(o.su_p_q_star)
    return p_q_star, delay_secondary(ch, Policy(p_q_star, 1.0), pt)
