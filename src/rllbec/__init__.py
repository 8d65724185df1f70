"""Feedback capacity and zero-error coding for run-length limited
binary erasure channels."""

from .capacity import (
    CapacityResult,
    DomainError,
    SchemeParams,
    capacity_12,
    capacity_curve,
    delta_chain,
    fb_upper_2inf,
    feedback_capacity,
    grid_argmax_rate,
    grid_max_rate,
    h2,
    nc_capacity_d_inf,
    rate,
    stationarity_residual,
)
from .codec import (
    TILDE0,
    ArrayCodec,
    EmptySet,
    MessageInterval,
    MessageOutsideLiveSet,
    SchemeSession,
    UseBudgetExceeded,
    input_bit,
    label_names,
    label_of,
    next_label,
    partition,
    transmit_message,
    update_live,
)
from .constraint import (
    INF,
    IllegalEdge,
    RllConstraint,
    first_violation,
    initial_state,
    next_state,
    validate_sequence,
)
from .markov import build_labeling_chain, stationary
from .sim import (
    BecChannel,
    SimReport,
    label_occupancy_check,
    run_feedback_sim,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityResult", "DomainError", "SchemeParams",
    "capacity_12", "capacity_curve", "delta_chain", "fb_upper_2inf", "feedback_capacity",
    "grid_argmax_rate", "grid_max_rate", "h2", "nc_capacity_d_inf", "rate",
    "stationarity_residual",
    "TILDE0", "ArrayCodec", "EmptySet", "MessageInterval", "MessageOutsideLiveSet",
    "SchemeSession", "UseBudgetExceeded", "input_bit", "label_names",
    "label_of", "next_label", "partition", "transmit_message", "update_live",
    "INF", "IllegalEdge", "RllConstraint", "first_violation",
    "initial_state", "next_state", "validate_sequence",
    "build_labeling_chain", "stationary",
    "BecChannel", "SimReport", "label_occupancy_check", "run_feedback_sim",
    "__version__",
]
