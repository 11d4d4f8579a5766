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
Each root name is imported from its module at its first use (PEP 562), so
``import bcfeedback`` loads none of them.  The solvers, ``rate_report`` and
``ChannelConfig`` compute on floats; numpy is imported only by the array
code: ``prepare_scheme`` (``montecarlo``, ``core`` and the channel's draws)
and a schedule's ``unroll()``.
"""

import importlib

__version__ = "0.1.0"

# each root name and the module that defines it
_SOURCES = {
    "ChannelConfig": "channel",
    "solve_lambda_bc": "fixedpoint",
    "solve_lambda_mac": "fixedpoint",
    "solve_rho": "fixedpoint",
    "rate_report": "schedules",
    "make_schedule": "schedules",
    "prepare_scheme": "montecarlo",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
