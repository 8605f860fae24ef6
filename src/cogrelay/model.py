"""Domain types for the two-user cooperative spectrum-sharing system.

A licensed primary user (PU) and a cognitive secondary user (SU) share a
slotted channel. Links are Bernoulli success processes, arrivals are Bernoulli
streams, and the SU policy is the pair (p_q, p_a): the probability of serving
its own queue in a PU-idle slot, and the probability of admitting an overheard
PU packet into the relay queue.

All types validate at construction and are immutable afterwards, so instances
can be shared freely across threads. A point's stability verdict and queue
metrics are not types of their own: they are the fields and masks of
:class:`cogrelay.analytics.ClosedForms`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = [
    "ChannelProfile",
    "Policy",
    "OperatingPoint",
    "NO_COOPERATION",
    "STRICT_PRIORITY",
]


def _unit_interval(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0.0 or v > 1.0:
        raise ValueError(f"{name} must be a finite probability in [0, 1], got {value!r}")
    return v


def _require_memory(need: int, what: str, use: str) -> None:
    """Raise ValueError where ``what`` needs ``need`` bytes for ``use``, more than the physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ValueError(f"{what} needs {need / 2**30:.0f} GiB for {use}, "
                         f"more than the {memory / 2**30:.1f} GiB of physical memory")


@dataclass(frozen=True)
class ChannelProfile:
    """Per-link success probabilities.

    f_pd: PU -> destination, f_sd: SU -> destination, f_ps: PU -> SU (decode).
    Requires f_pd < f_sd strictly: relaying through the SU is only meaningful
    when the SU has the better link to the destination.
    """

    f_pd: float
    f_sd: float
    f_ps: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_pd", _unit_interval("f_pd", self.f_pd))
        object.__setattr__(self, "f_sd", _unit_interval("f_sd", self.f_sd))
        object.__setattr__(self, "f_ps", _unit_interval("f_ps", self.f_ps))
        if not self.f_pd < self.f_sd:
            raise ValueError(
                f"channel requires f_pd < f_sd, got f_pd={self.f_pd!r}, f_sd={self.f_sd!r}"
            )


@dataclass(frozen=True)
class Policy:
    """Secondary-user policy knobs.

    p_q: probability the SU serves its own queue in a PU-idle slot.
    p_a: probability an overheard PU packet is admitted to the relay queue.
    """

    p_q: float
    p_a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_q", _unit_interval("p_q", self.p_q))
        object.__setattr__(self, "p_a", _unit_interval("p_a", self.p_a))


#: No cooperation: the SU always serves its own queue and never admits a PU packet.
NO_COOPERATION = Policy(1.0, 0.0)

#: Strict priority's policy: the SU always picks the relay queue and admits every decoded PU packet. The
#: simulator adds one fallback: a PU-idle slot whose relay queue is empty serves the SU's own queue.
STRICT_PRIORITY = Policy(0.0, 1.0)


@dataclass(frozen=True)
class OperatingPoint:
    """Bernoulli arrival rates (packets/slot) at the PU and SU queues."""

    lambda_p: float
    lambda_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_p", _unit_interval("lambda_p", self.lambda_p))
        object.__setattr__(self, "lambda_s", _unit_interval("lambda_s", self.lambda_s))
