"""Encoder/decoder recursion shared by every schedule and both Monte Carlo runners.

Message m is a point theta in (0, 1), embedded as a Gaussian source value
s = sqrt(p0) * quantile(theta).  Each channel use n transmits
x = beta * sum_m alpha_m s_m and every receiver refines its own source by
s <- (s - b y) / a.  Because each update is affine and invertible, receiver m
can replay the inverse maps: with w_k(x) = a_k x + b_k y_k, the composition

    T_n = w_1 o w_2 o ... o w_n       (w_1 applied last, i.e. outermost)

satisfies T_n(s_{n+1}) = s_1 identically, so mapping a pivot interval
(-t, t) through T_n and then through the source cdf yields the decoded
subinterval of (0, 1).  Absorbing step n therefore composes on the *inside*:
slope <- slope * a_n, intercept <- intercept + slope_before * b_n * y_n.
The slope is held in log space; products like slope * t are formed as
exp(log_slope + log t) so thousand-step horizons cannot underflow pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import std_normal_cdf, std_normal_quantile

__all__ = [
    "StepParams",
    "DecoderState",
    "IntervalPolicy",
    "embed_message",
    "encode",
    "update_sources",
    "decoder_absorb",
    "decode_interval",
    "instant_rate",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class StepParams:
    """Schedule output for one channel use.

    alpha: per-source mixing weights; beta: common input scaling;
    a, b: per-receiver update coefficients (all a entries strictly positive).
    """

    alpha: np.ndarray
    beta: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if not (alpha.shape == a.shape == b.shape) or alpha.ndim != 1:
            raise ValueError("alpha, a, b must be 1-d arrays of one common length")
        if not np.all(a > 0.0):
            raise ValueError("all source contraction factors a must be positive")
        for name, arr in (("alpha", alpha), ("a", a), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        beta = float(self.beta)
        if not math.isfinite(beta):
            raise ValueError("beta must be finite")
        object.__setattr__(self, "beta", beta)

    @property
    def num_receivers(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class DecoderState:
    """Affine replay map T_n(x) = exp(log_slope) * x + intercept for one receiver."""

    log_slope: float
    intercept: float
    step: int

    @property
    def slope(self) -> float:
        return math.exp(self.log_slope)


@dataclass(frozen=True)
class IntervalPolicy:
    """Pivot halfwidth schedule t_n = base_halfwidth * 2**(n * growth_rate_bits)."""

    base_halfwidth: float
    growth_rate_bits: float

    def __post_init__(self):
        if not (self.base_halfwidth > 0.0 and math.isfinite(self.base_halfwidth)):
            raise ValueError("base_halfwidth must be positive and finite")
        if not (self.growth_rate_bits >= 0.0 and math.isfinite(self.growth_rate_bits)):
            raise ValueError("growth_rate_bits must be nonnegative and finite")

    def halfwidth(self, n: int) -> float:
        return self.base_halfwidth * 2.0 ** (n * self.growth_rate_bits)

    def log_halfwidth(self, n: int) -> float:
        """Natural log of halfwidth(n); stays finite when the power of two overflows."""
        return math.log(self.base_halfwidth) + n * self.growth_rate_bits * _LN2


def embed_message(theta: float, p0: float):
    """Gaussian source value of message point theta under source variance p0."""
    if not (p0 > 0.0 and math.isfinite(p0)):
        raise ValueError("p0 must be positive and finite")
    return math.sqrt(p0) * std_normal_quantile(theta)


def encode(s: np.ndarray, params: StepParams):
    """Channel input beta * <alpha, s> for sources s of shape (M,) or (trials, M)."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1:] != params.alpha.shape:
        raise ValueError(
            f"source array has shape {s.shape}, schedule width is {params.alpha.shape[0]}"
        )
    return (s @ params.alpha) * params.beta


def update_sources(s: np.ndarray, params: StepParams, y: np.ndarray) -> np.ndarray:
    """Per-receiver refinement s <- (s - b y) / a after observing outputs y."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape[-1:] != params.a.shape or y.shape != s.shape:
        raise ValueError("source and output arrays must match each other and the schedule width")
    return (s - params.b * y) / params.a


def decoder_absorb(dec: DecoderState, a_n: float, b_n: float, y_n: float) -> DecoderState:
    """Fold step n into the replay map.

    The new step is the innermost map of the composition, so the intercept
    picks up the *previous* slope: T_new(x) = T_old(a_n x + b_n y_n).
    """
    a_n = float(a_n)
    if not (a_n > 0.0 and math.isfinite(a_n)):
        raise ValueError("contraction factor a must be positive and finite")
    intercept = dec.intercept + math.exp(dec.log_slope) * float(b_n) * float(y_n)
    return DecoderState(
        log_slope=dec.log_slope + math.log(a_n),
        intercept=intercept,
        step=dec.step + 1,
    )


def decode_interval(dec: DecoderState, policy: IntervalPolicy, n: int,
                    p0: float) -> tuple[float, float]:
    """Decoded subinterval of (0, 1) after n absorbed steps.

    Maps the pivot interval (-t_n, t_n) through the replay map and the source
    cdf.  At n = 0 nothing has been observed and the decoder reports the whole
    message interval.
    """
    if n != dec.step:
        raise ValueError(f"decoder has absorbed {dec.step} steps, asked to decode at {n}")
    if not (p0 > 0.0 and math.isfinite(p0)):
        raise ValueError("p0 must be positive and finite")
    if n == 0:
        return (0.0, 1.0)
    mag = math.exp(dec.log_slope + policy.log_halfwidth(n))
    scale = math.sqrt(p0)
    lo = std_normal_cdf((dec.intercept - mag) / scale)
    hi = std_normal_cdf((dec.intercept + mag) / scale)
    return (lo, hi)


def instant_rate(interval: tuple[float, float], n: int) -> float:
    """Rate -log2(|interval|) / n of a decoded interval after n steps."""
    if n < 1:
        raise ValueError("instant rate needs n >= 1")
    lo, hi = interval
    length = hi - lo
    if not (length > 0.0):
        raise ValueError("decoded interval has nonpositive length")
    return -math.log2(length) / n
