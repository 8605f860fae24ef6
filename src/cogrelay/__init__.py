"""Queueing toolkit for two-user cooperative spectrum sharing with probabilistic relaying.

A cognitive secondary user relays overheard primary packets through a
dedicated queue, governed by a queue-selection probability p_q and an
admission probability p_a. The package evaluates the closed-form stability
region and delay results for that policy, simulates the slot-level protocol,
cross-checks both against an exact quasi-birth-death chain solver, and
solves the delay-minimization problems over (p_q, p_a).
"""

from . import analytics, model, optimizer, oracle, simulator
from .analytics import *
from .model import *
from .optimizer import *
from .oracle import *
from .simulator import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *analytics.__all__,
    *simulator.__all__,
    *oracle.__all__,
    *optimizer.__all__,
    "__version__",
]
