"""Closed-form stability and delay results for the cooperative relaying policy.

Every closed form is written once, in :func:`closed_forms`, and evaluated
term by term in 64-bit floating arithmetic with no algebraic simplification,
so that transcription mistakes surface when cross-checked against the
Markov-chain solver in :mod:`cogrelay.oracle` and against simulation. The
core takes broadcastable numpy arrays and uses only elementwise ``+ - * /``
and comparisons, which round exactly as Python floats do: a whole sweep
evaluated in one call holds the same bits as the same points evaluated one
at a time. It never raises; instead it reports masks. A stable point is not
evaluable only where rounding makes the relay denominator nonpositive, the
one of n_s zero, or a mean delay fall below one slot; a caller refusing such
a point raises :class:`UnevaluableError`, as the CLI does.

No cooperation is the policy (p_q, p_a) = (1, 0). Without relay inflow
(p_a = 0 or f_ps = 0) the primary bound is mu and the relay queue stays empty.

The core is the library's surface: a point is the same call on floats, run
on 0-d arrays. Stability uses strict inequalities with zero tolerance;
callers wanting a safety band apply it to the reported margins.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "UnevaluableError",
    "ClosedForms",
    "closed_forms",
    "union_region",
    "MOST_NEGATIVE_MARGIN",
]

#: Sentinel for the secondary margin where the primary queue itself cannot be
#: drained (lambda_p at or above its service rate).
MOST_NEGATIVE_MARGIN = -sys.float_info.max

#: Slack of the mean delays' bound of one slot, absorbing rounding at extreme channels.
REPORT_SLACK = 1e-9


class UnevaluableError(ValueError):
    """The closed forms cancel or underflow at a stable point, so they cannot be evaluated there."""


class ClosedForms(NamedTuple):
    """Every closed form at broadcast (channel, policy, point) arrays.

    Entries where a form is undefined (an unstable point, a zero rate) hold
    whatever IEEE arithmetic gives there; read them through the masks, and
    ``evaluable`` only where ``stable``. The secondary quantities are those of
    the own-data queue, the relay quantities those of the admitted PU packets.
    """

    relay: np.ndarray  # rate at which PU transmissions enter the relay queue
    mu: np.ndarray  # primary service rate: direct delivery or relay handoff
    epsilon: np.ndarray  # fraction of departing PU packets that leave via the relay
    threshold: np.ndarray  # phase-transition p_q, where the primary bound ignores p_a
    bound_p: np.ndarray  # largest sustainable lambda_p (relay-queue constraint)
    p_empty: np.ndarray  # probability that the primary queue is empty
    bound_s: np.ndarray  # largest sustainable lambda_s at lambda_p
    margin_p: np.ndarray  # bound_p - lambda_p
    margin_s: np.ndarray  # bound_s - lambda_s, or MOST_NEGATIVE_MARGIN
    stable: np.ndarray  # both margins strictly positive
    m: np.ndarray  # relay-queue coefficients (m, n, alpha, beta, gamma)
    n: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    relay_den: np.ndarray  # relay-queue denominator, positive wherever the form is valid
    a_coef: np.ndarray  # secondary-queue coefficients (A, B, C)
    b_coef: np.ndarray
    c_coef: np.ndarray
    n_p: np.ndarray  # mean queue lengths
    n_sp: np.ndarray
    n_s: np.ndarray
    n_s_den: np.ndarray  # B * C, the denominator of n_s
    d_p: np.ndarray  # mean delays; undefined where the arrival rate is zero
    d_s: np.ndarray
    g00: np.ndarray  # probability that the primary and secondary queues are both empty
    g00_den: np.ndarray
    relay_ok: np.ndarray  # relay_den > 0, or no relay inflow
    in_bounds: np.ndarray  # d_p and d_s are at least one slot (an absent delay counts as 1.0)

    @property
    def evaluable(self) -> np.ndarray:
        """Where a stable point's queue metrics are defined and in bounds; these three checks imply the rest."""
        return self.relay_ok & (self.n_s_den != 0.0) & self.in_bounds


def _operands(*values):
    # float64 arrays broadcast to one shape; a point is 0-d arrays and takes the sweep's path
    return np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in values))


@np.errstate(all="ignore")
def closed_forms(f_pd, f_sd, f_ps, p_q=0.0, p_a=1.0, lambda_p=0.0, lambda_s=0.0) -> ClosedForms:
    """Evaluate every closed form on broadcastable arrays (or floats, giving 0-d arrays).

    A quantity that does not depend on an argument ignores its default, so
    channel-level forms need only the channel and policy-level forms only
    the policy. Every argument is a probability: a negative lambda_s is
    outside the domain, and the CLI refuses it.
    """
    f_pd, f_sd, f_ps, p_q, p_a, lp, ls = _operands(f_pd, f_sd, f_ps, p_q, p_a, lambda_p, lambda_s)
    relay = p_a * f_ps * (1.0 - f_pd)
    mu = f_pd + relay
    epsilon = relay / mu
    threshold = 1.0 - f_pd / f_sd

    serve_relay = f_sd * (1.0 - p_q)  # relay-queue service rate in a PU-idle slot
    serve_own = p_q * f_sd  # own-data queue service rate in a PU-idle slot
    alpha = serve_relay + relay
    # without relay inflow the forms give serve_relay / alpha = 1 and a relay
    # numerator of 0 wherever they are defined; at p_q = 1 they are 0 / 0
    idle_relay = relay == 0.0
    bound_p = np.where(idle_relay, mu, serve_relay / alpha * mu)
    p_empty = 1.0 - lp / mu
    bound_s = serve_own * p_empty
    margin_p = bound_p - lp
    margin_s = np.where(lp >= mu, MOST_NEGATIVE_MARGIN, bound_s - ls)
    stable = (margin_p > 0.0) & (margin_s > 0.0)

    n_p = (lp - lp * lp) / (mu - lp)

    m = relay * ((serve_relay - f_pd) / mu - serve_relay - relay)
    n = relay * mu
    beta = mu * (-2.0 * serve_relay - relay)
    gamma = serve_relay * mu * mu
    relay_den = alpha * lp * lp + beta * lp + gamma
    n_sp = np.where(idle_relay, 0.0, (m * lp * lp + n * lp) / relay_den)

    a_coef = serve_own * (mu - 1.0)
    b_coef = mu - lp
    c_coef = (ls - serve_own) * mu + serve_own * lp
    n_s_den = b_coef * c_coef
    n_s = (lp * ls * a_coef + (ls * ls - ls) * b_coef * (b_coef + lp)) / n_s_den

    d_p = (n_p + n_sp) / lp
    d_s = n_s / ls
    g00_den = serve_own * mu
    g00 = (serve_own * (mu - lp) - ls * mu) / g00_den
    # evaluable is read only where stable; there, for arguments in [0, 1] and
    # monotone rounding, no other term can refuse a point. B > 0: alpha >=
    # serve_relay gives lambda_p < bound_p <= mu. C != 0: else n_s_den = B * C
    # is 0. g00_den != 0: lambda_s < bound_s <= serve_own and lambda_p < mu, so
    # g00_den bounds both products of C; if it rounds to 0, so do C and n_s_den.
    # g00 >= -REPORT_SLACK: g00 = p_empty - lambda_s / serve_own exactly, and
    # lambda_s < bound_s, so g00 >= -(2 eps + 2^-1074 / g00_den) > -6e-11 where
    # g00_den >= 2^-1040. Below, serve_own < 2^-1023 keeps g00's numerator >= 0;
    # else mu < 2^-17, the numerator and C are >= -2^-1074, and C <= 0 rounds
    # n_s_den to 0 while C > 0 gives n_s <= 0 (A <= 0), refused by d_s. g00 <=
    # 1, n_p >= 0 and 0 <= epsilon <= 1 hold outright, and d_s bounds n_s, whose
    # sign it has.
    # n_sp >= 0 where relay > 0 and relay_ok: its numerator m * lp**2 + n * lp
    # is >= 0 once fl(m * lp) >= -n = -fl(relay * mu) (m = inf makes it nan at
    # lp = 0, but needs mu < 2^-1023, where relay_den = gamma rounds to 0).
    # Write u = 2^-53, s = serve_relay, t1 = fl(s - f_pd) >= -mu, t2 = fl(t1 /
    # mu) >= -1, t3 = fl(t2 - s) and k = fl(t3 - relay), m's factor. k >= -1
    # gives m >= -relay, and lp < mu closes it. Exactly, t2 - s = -1 + rho + W
    # + e1 + e2 with rho = mu - f_pd >= 0, W = (t1 + mu)(1 - mu) / mu >= 0 and
    # roundings |e1|, |e2| <= u/2 (t1 > mu gives t2 >= 1 and k >= -1). So t3 >=
    # -1, k < -1 needs relay > u, and e_mu = f_pd + relay - mu <= u/2 gives k
    # >= -1 - 2u, so |m| <= relay * c with c = 1 + 3u + 2u^2, and lp * c <= mu
    # suffices. If alpha - s >= 3.5u alpha, fl(s / alpha) <= 1 - 4u and lp < (1
    # - 4u)(1 + u) mu. Else s > 0.22 and relay < 4.6u, k < -1 needs W < u, so
    # mu >= 1 - 4u, and mu = 1 gives W = e2 = 0, e_mu <= 0 and k >= -1. So
    # f_pd, mu and rho lie on the grid of step u below 1, with g = -1 + rho on
    # it. If e1 = 0, W > 0 and t2 - s > g - u/2 give t3 >= g and k >= fl(-1 -
    # e_mu) = -1. Else s < f_pd / 2 (Sterbenz) and f_pd - s >= 1/2 (else s >
    # 1/4 and s - f_pd is exact on s's grid), so t1 and t2 lie in [-1, -1/2], R
    # = W + e2 = t2 + 1 - t1 - mu is 0 or u, and t2 - s = g + R + e1 rounds to
    # g + R unless e1 = -u/2 ties it down; there k < -1 needs R = 0 < e_mu:
    # relay > rho >= u, and W = -e2 <= u/2 gives s + rho <= mu/2 + u/2 <= 1/2.
    # Then alpha <= 1/2 and alpha - s >= min(relay - u/4, rho) > 1.5u alpha, so
    # fl(s / alpha) <= 1 - 2u, bound_p <= mu - 2u, lp <= mu - 3u and lp * c <
    # mu.
    # d_p >= 1 does not follow: where mu rounds to 1, n_p's numerator lp -
    # lp**2 loses up to u/2 against 1 - lp, and near lp = 1 - 2^-27 that is
    # 7e-9 of it (f = (1 - u, 1, 1), p = (0.5, 1), lambda =
    # (0.9999999925489673, 0): d_p = 1 - 2.5e-9 with n_sp = 5e-9), so the d_p
    # bound stays.
    in_bounds = (
        (np.where(lp > 0.0, d_p, 1.0) >= 1.0 - REPORT_SLACK)
        & (np.where(ls > 0.0, d_s, 1.0) >= 1.0 - REPORT_SLACK)
    )
    return ClosedForms(*map(np.asarray, (  # a 0-d operation gives a numpy scalar; fields stay arrays
        relay, mu, epsilon, threshold, bound_p, p_empty, bound_s,
        margin_p, margin_s, stable, m, n, alpha, beta, gamma, relay_den,
        a_coef, b_coef, c_coef, n_p, n_sp, n_s, n_s_den, d_p, d_s, g00, g00_den,
        idle_relay | (relay_den > 0.0), in_bounds,
    )))


@np.errstate(all="ignore")
def union_region(f_pd, f_sd, f_ps, lambda_p=0.0):
    """Outer stability boundary over all policies, reached at full admission.

    Returns ``(max_lambda_s, max_lambda_p, slope_den)`` as arrays: the
    largest lambda_s at ``lambda_p`` (floored at zero), the boundary's root
    on the lambda_p axis, and the primary service rate at p_a = 1 that
    divides the slope (zero only when nothing reaches the destination).
    """
    f_pd, f_sd, f_ps, lambda_p = _operands(f_pd, f_sd, f_ps, lambda_p)
    cf = closed_forms(f_pd, f_sd, f_ps)
    # at lambda_p = 0 the boundary is f_sd, also where a subnormal mu overflows the slope to inf
    value = np.where(lambda_p == 0.0, f_sd, f_sd - (f_sd + cf.relay) / cf.mu * lambda_p)
    # max(value, 0.0) keeps value unless 0.0 is larger, so -0.0 and nan stay
    return np.where(0.0 > value, 0.0, value), f_sd * cf.mu / (f_sd + cf.relay), cf.mu
