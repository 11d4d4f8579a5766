"""Feedback coding over the additive white Gaussian broadcast channel.

A simulator and numerical toolkit for linear-feedback transmission schemes
in which a single encoder drives one message point per receiver through a
shared channel, every receiver feeds its observation back, and decoding
reduces to replaying an affine contraction.  Three parameter schedules are
provided: a two-user correlation-tracking scheme, a degraded-channel
schedule for power-of-two receiver counts, and a symmetric schedule whose
steady state matches the solution of an algebraic fixed point.
"""

from .channel import ChannelConfig, channel_outputs, draw_trial, spawn_trial_seeds
from .core import (
    DecoderState,
    IntervalPolicy,
    StepParams,
    decode_interval,
    decoder_absorb,
    embed_message,
    encode,
    update_sources,
)
from .fixedpoint import (
    SCHEME_IDS,
    BGamma,
    FixedPointError,
    OzarowFixedPoint,
    RateReport,
    SumRateSolution,
    WarmupPlan,
    build_warmup_plan,
    rate_report,
    rho_map,
    solve_b_gamma,
    solve_lambda_bc,
    solve_lambda_mac,
    solve_rho,
)
from .montecarlo import (
    BatchStats,
    ErrorEstimate,
    PreparedScheme,
    default_policies,
    estimate,
    prepare_scheme,
    run_batch,
    run_trial,
    wilson_interval,
    write_csv,
    write_trajectory_csv,
)
from .numerics import (
    NoSignChangeError,
    RootFindingError,
    RootResult,
    largest_root,
    std_normal_cdf,
    std_normal_quantile,
    sylvester_hadamard,
)
from .schedules import (
    DegradedSchedule,
    OzarowSchedule,
    ScheduleInvariantError,
    SymmetricSchedule,
    covariance_update,
    make_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig", "channel_outputs", "draw_trial", "spawn_trial_seeds",
    "DecoderState", "IntervalPolicy", "StepParams",
    "decode_interval", "decoder_absorb", "embed_message", "encode",
    "update_sources",
    "BGamma", "FixedPointError", "OzarowFixedPoint", "RateReport",
    "SumRateSolution", "WarmupPlan", "build_warmup_plan", "rate_report",
    "rho_map", "solve_b_gamma", "solve_lambda_bc", "solve_lambda_mac", "solve_rho",
    "BatchStats", "ErrorEstimate", "PreparedScheme", "default_policies",
    "estimate", "prepare_scheme", "run_batch", "run_trial", "wilson_interval",
    "write_csv", "write_trajectory_csv",
    "NoSignChangeError", "RootFindingError", "RootResult",
    "largest_root", "std_normal_cdf", "std_normal_quantile", "sylvester_hadamard",
    "SCHEME_IDS", "DegradedSchedule", "OzarowSchedule", "ScheduleInvariantError",
    "SymmetricSchedule", "covariance_update", "make_schedule",
    "__version__",
]
