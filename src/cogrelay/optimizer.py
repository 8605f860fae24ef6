"""Constrained delay minimization over the policy pair (p_q, p_a).

The feasible set at a fixed operating point is an interval of p_q values per
p_a. Since the primary delay increases with p_q and the lower end of the
interval drops as p_a grows, the primary optimum sits at the interval's lower
end with p_a = 1 whenever relaying helps at all, i.e. whenever that lower end
lies below the phase-transition value 1 - f_pd/f_sd; above it, not cooperating
gives the smaller primary delay. The secondary optimum adopts p_a = 1 and the
upper end of the interval (the secondary delay decreases in both knobs); the
test suite brute-forces the full 2-D grid as a guard rather than asserting
that choice axiomatically. Without relaying the primary queue is a single
Geo/Geo/1 queue served at f_pd.

Returned optima sit a strict-interior offset inside the open feasible
interval, because its endpoints are critically stable (infinite delay). An
interval no wider than that offset counts as infeasible: its ends can agree
to rounding, and no p_q inside it is stable in float64.

:func:`optima` evaluates both optimizations at once over arrays of channels
and loads, through the array core of :mod:`cogrelay.analytics`, and reports
each outcome as a mask.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .analytics import closed_forms

__all__ = ["INTERIOR_OFFSET", "Optima", "optima"]

#: Offset from the feasible interval's endpoints at which optima are reported.
INTERIOR_OFFSET = 1e-6


@np.errstate(all="ignore")
def _pq_interval(f_pd, f_sd, f_ps, p_a, lambda_p, lambda_s):
    # (p_q lower bound, p_q upper bound, their denominator, the closed forms)
    cf = closed_forms(f_pd, f_sd, f_ps, p_a=p_a, lambda_p=lambda_p, lambda_s=lambda_s)
    den = f_sd * (cf.mu - lambda_p)
    return lambda_s * cf.mu / den, 1.0 - lambda_p * cf.relay / den, den, cf


class Optima(NamedTuple):
    """Both delay optima at broadcast (channel, point) arrays.

    Feasibility is decided at p_a = 1, the admission that admits the widest
    p_q interval. Entries are meaningful where their masks say so.
    """

    p_q_lower: np.ndarray  # the p_q bounds at p_a = 1, where bounds_defined
    p_q_upper: np.ndarray
    bounds_defined: np.ndarray  # lambda_p below the primary service rate at p_a = 1
    threshold: np.ndarray  # phase-transition p_q
    feasible: np.ndarray  # the stabilizing p_q interval at p_a = 1 is wider than INTERIOR_OFFSET
    cooperate: np.ndarray  # the primary optimum relays (p_a = 1 at pu_p_q_star)
    pu_p_q_star: np.ndarray
    pu_d_p_star: np.ndarray  # primary delay at the cooperating optimum
    no_coop_ok: np.ndarray  # the primary queue alone is stable without relaying
    no_coop_d_p: np.ndarray  # primary delay of a single Geo/Geo/1 queue served at f_pd
    su_p_q_star: np.ndarray  # secondary optimum, where feasible
    su_d_s_star: np.ndarray
    pu_fault: np.ndarray  # the primary optimum exists but the closed forms cannot evaluate it
    su_fault: np.ndarray  # the secondary optimum exists but the closed forms cannot evaluate it


@np.errstate(all="ignore")
def optima(f_pd, f_sd, f_ps, lambda_p, lambda_s) -> Optima:
    """Evaluate both optimizations on broadcast arrays of channels and loads.

    ``pu_fault`` and ``su_fault`` mark an optimum the closed forms cannot
    evaluate. Both are set where the p_q bounds' denominator is 0 below the
    primary service rate. ``pu_fault`` is also set where the primary optimum
    (at lambda_p > 0) cooperates at a p_q where the point is not stable or
    its relay form not evaluable, and ``su_fault`` where the secondary
    optimum (at lambda_s > 0) is feasible at a p_q where ``delay`` would fail.
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
    undefined = defined & (den == 0.0)
    return Optima(
        lower, upper, defined, cf.threshold, feasible, cooperate, pu_star, pu.d_p,
        ~(lambda_p >= f_pd), (1.0 - lambda_p) / (f_pd - lambda_p), su_star, su.d_s,
        undefined | ((lambda_p > 0.0) & cooperate & ~(pu.stable & pu.relay_ok)),
        undefined | ((lambda_s > 0.0) & feasible & ~(su.stable & su.evaluable)),
    )
