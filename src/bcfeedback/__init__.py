"""Feedback coding over the additive white Gaussian broadcast channel.

A simulator and numerical toolkit for linear-feedback transmission schemes
in which a single encoder drives one message point per receiver through a
shared channel, every receiver feeds its observation back, and decoding
reduces to replaying an affine contraction.  Three parameter schedules are
provided: a two-user correlation-tracking scheme, a degraded-channel
schedule for power-of-two receiver counts, and a symmetric schedule whose
steady state matches the solution of an algebraic fixed point.

The package root holds the documented surface below; everything else is
imported from its module (``bcfeedback.core``, ``bcfeedback.montecarlo``, ...).
"""

from .channel import ChannelConfig
from .fixedpoint import solve_lambda_bc, solve_lambda_mac, solve_rho
from .montecarlo import prepare_scheme
from .schedules import make_schedule, rate_report

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "solve_lambda_bc", "solve_lambda_mac", "solve_rho", "rate_report",
    "make_schedule", "prepare_scheme",
    "__version__",
]
