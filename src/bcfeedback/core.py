"""Encoder/decoder recursion shared by every schedule and the Monte Carlo runner.

Message m is a point theta in (0, 1), embedded as a Gaussian source value
s = sqrt(p0) * quantile(theta).  Each channel use n transmits
x = beta * sum_m alpha_m s_m and every receiver refines its own source by
s <- (s - b y) / a.  Because each update is affine and invertible, receiver m
can replay the inverse maps: with w_k(x) = a_k x + b_k y_k, the composition

    T_n = w_1 o w_2 o ... o w_n       (w_1 applied last, i.e. outermost)

satisfies T_n(s_{n+1}) = s_1 identically.  Absorbing step n therefore
composes on the *inside*: slope <- slope * a_n, intercept <- intercept +
slope_before * b_n * y_n.  The slope is held in log space, so thousand-step
horizons cannot underflow pairwise.

Mapping a pivot interval (-t, t) through T_n and then through the source cdf
yields the decoded subinterval of (0, 1), with Phi the standard normal cdf:

    (Phi((intercept - slope * t) / sqrt(p0)), Phi((intercept + slope * t) / sqrt(p0)))

where slope * t is formed as exp(log_slope + log t).  Theta lies in it
exactly when |s_{n+1}| < t, up to the cdf's rounding at the endpoints, so
``montecarlo`` counts that pivot test and forms no interval.

Like the encoder step, the replay takes one trial's receivers (M,) or a batch
(trials, M); exp and log go through libm per element, so a batch row and a
single trial fold bitwise alike.

Step n's coefficients arrive as plain arrays that ``montecarlo._run_chunk``
forms from the rows ``montecarlo.prepare_scheme`` unrolls and checks once:
alpha and b are M wide, and a is M wide or a single contraction shared by
every receiver.  The functions here check only shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecoderState",
    "IntervalPolicy",
    "embed_message",
    "encode",
    "update_sources",
    "decoder_absorb",
    "std_normal_quantile",
]


def _libm(fn, x):
    """``fn`` (a ``math`` function) of a float, or of each element of an array.

    numpy's SIMD exp, log and log1p can differ from libm in the last bit, so
    array code that must agree bitwise with float code maps libm instead.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


# scipy.special is imported where it is called, so importing this module does
# not load it: the quantile runs once per chunk, never per step.


def std_normal_quantile(p):
    """Inverse standard normal cdf on the open interval (0, 1).

    Raises ValueError outside (0, 1); the embedding step relies on this to
    reject degenerate message points rather than emitting infinities.
    """
    from scipy.special import ndtri

    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    if np.ndim(p) == 0:
        return float(ndtri(float(p)))
    return ndtri(arr)


@dataclass(frozen=True)
class DecoderState:
    """Replay maps T_n(x) = exp(log_slope) * x + intercept, one per receiver.

    log_slope has shape (M,), since the contraction factors are common to all
    trials; intercept is (M,) for one trial or (trials, M) for a batch.
    """

    log_slope: np.ndarray
    intercept: np.ndarray

    @property
    def slope(self) -> np.ndarray:
        return _libm(math.exp, self.log_slope)


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
        """t_n, or +inf (which holds every finite residual) once 2**(n g) overflows."""
        try:
            return self.base_halfwidth * 2.0 ** (n * self.growth_rate_bits)
        except OverflowError:
            return math.inf


def embed_message(theta: float, p0: float):
    """Gaussian source value of message point theta under source variance p0."""
    if not (p0 > 0.0 and math.isfinite(p0)):
        raise ValueError("p0 must be positive and finite")
    return math.sqrt(p0) * std_normal_quantile(theta)


def encode(s: np.ndarray, alpha: np.ndarray, beta: float):
    """Channel input beta * <alpha, s> for sources s of shape (M,) or (trials, M)."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1:] != alpha.shape:
        raise ValueError(f"source array has shape {s.shape}, schedule width is {alpha.shape[0]}")
    return (s @ alpha) * beta


def update_sources(s: np.ndarray, a: np.ndarray, b: np.ndarray, y: np.ndarray,
                   out=None) -> np.ndarray:
    """Per-receiver refinement s <- (s - b y) / a after observing outputs y.

    a is M wide, or 1 wide for every receiver.  The result is written into
    ``out`` when one is given; it must not overlap s.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.shape not in ((1,), s.shape[-1:]) or y.shape != s.shape:
        raise ValueError("source and output arrays must match each other and the schedule width")
    if out is not None and np.may_share_memory(out, s):
        raise ValueError("out must not overlap the sources")
    # b y, then s - (b y), then / a: (s - b * y) / a op for op
    out = np.multiply(b, y, out=out)
    np.subtract(s, out, out=out)
    return np.divide(out, a, out=out)


def decoder_absorb(dec: DecoderState, a: np.ndarray, b: np.ndarray,
                   y: np.ndarray) -> DecoderState:
    """Fold step n, with outputs y shaped like the intercept, into every replay map.

    The new step is the innermost map of the composition, so the intercept
    picks up the *previous* slope: T_new(x) = T_old(a_n x + b_n y_n).  a is
    M wide or 1 wide, as in ``update_sources``; an a <= 0 has no log and
    raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    if a.shape not in ((1,), dec.log_slope.shape) or y.shape != dec.intercept.shape:
        raise ValueError("output and decoder arrays must match each other and the schedule width")
    return DecoderState(
        log_slope=dec.log_slope + _libm(math.log, a),
        intercept=dec.intercept + (dec.slope * b) * y,
    )
