"""Queueing toolkit for two-user cooperative spectrum sharing with probabilistic relaying.

A cognitive secondary user relays overheard primary packets through a
dedicated queue, governed by a queue-selection probability p_q and an
admission probability p_a. The package evaluates the closed-form stability
region and delay results for that policy, simulates the slot-level protocol,
cross-checks both against a truncated-Markov-chain solver, and solves the
delay-minimization problems over (p_q, p_a).
"""

from .analytics import (
    DegeneratePolicyError,
    DelayReport,
    InstabilityError,
    RelayCoefficients,
    SecondaryCoefficients,
    UndefinedRateError,
    delay_primary,
    delay_report,
    delay_secondary,
    empty_joint_probability,
    is_stable,
    max_arrival_primary,
    max_arrival_secondary,
    mean_queue_primary,
    mean_queue_relay,
    mean_queue_secondary,
    phase_transition_pq,
    prob_primary_empty,
    relay_coefficients,
    relay_fraction_epsilon,
    secondary_coefficients,
    service_rate_primary,
    union_region_max_lambda_s,
)
from .model import ChannelProfile, OperatingPoint, Policy, StabilityVerdict
from .optimizer import (
    InfeasibleError,
    PrimaryDelayDecision,
    minimize_primary_delay,
    minimize_secondary_delay,
    no_cooperation_delay_primary,
    pq_lower_bound,
    pq_upper_bound,
)
from .oracle import ChainSpec, StationarySolution, solve_stationary
from .simulator import QueueOverflowError, Scenario, SimStats, replicate, simulate

__version__ = "0.1.0"

__all__ = [
    "ChannelProfile",
    "Policy",
    "OperatingPoint",
    "StabilityVerdict",
    "RelayCoefficients",
    "SecondaryCoefficients",
    "DelayReport",
    "InstabilityError",
    "DegeneratePolicyError",
    "UndefinedRateError",
    "service_rate_primary",
    "relay_fraction_epsilon",
    "max_arrival_primary",
    "max_arrival_secondary",
    "is_stable",
    "phase_transition_pq",
    "union_region_max_lambda_s",
    "mean_queue_primary",
    "relay_coefficients",
    "mean_queue_relay",
    "secondary_coefficients",
    "mean_queue_secondary",
    "delay_primary",
    "delay_secondary",
    "empty_joint_probability",
    "prob_primary_empty",
    "delay_report",
    "Scenario",
    "SimStats",
    "simulate",
    "replicate",
    "QueueOverflowError",
    "ChainSpec",
    "StationarySolution",
    "solve_stationary",
    "InfeasibleError",
    "PrimaryDelayDecision",
    "pq_lower_bound",
    "pq_upper_bound",
    "minimize_primary_delay",
    "minimize_secondary_delay",
    "no_cooperation_delay_primary",
    "__version__",
]
