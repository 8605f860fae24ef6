"""One point of the closed forms or of the optima, read through the array core on 0-d arrays."""

import numpy as np

from cogrelay.analytics import ClosedForms, closed_forms
from cogrelay.model import ChannelProfile, OperatingPoint, Policy
from cogrelay.optimizer import Optima, optima

IDLE = OperatingPoint(0.0, 0.0)


def at(ch: ChannelProfile, pol: Policy = Policy(0.0, 1.0), pt: OperatingPoint = IDLE) -> ClosedForms:
    """Every closed form at one (channel, policy, point); fields are 0-d arrays."""
    return closed_forms(ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s)


def optimum(ch: ChannelProfile, pt: OperatingPoint) -> Optima:
    """Both delay optima at one (channel, point); fields are numpy scalars, taken from 0-d arrays."""
    return Optima(*(value[()] for value in optima(ch.f_pd, ch.f_sd, ch.f_ps, pt.lambda_p, pt.lambda_s)))


def primary_decision(o: Optima) -> tuple:
    """The primary optimum's mode and delay as ``optimize`` reports them; no delay where infeasible."""
    if o.cooperate:
        return "cooperate", o.pu_d_p_star
    if o.feasible and o.no_coop_ok:
        return "no_cooperation", o.no_coop_d_p
    return "infeasible", None


def ulps_under(value, k: int):
    """The float ``k`` steps below ``value``: a load that far under its stability bound."""
    for _ in range(k):
        value = np.nextafter(value, -np.inf)
    return value
