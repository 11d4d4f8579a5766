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


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989; scipy.special.ndtri runs the same code).  For e**-2 < y < 1 - e**-2 a
# rational function of t = y - 1/2; in the tails, with x = sqrt(-2 log y), a
# rational function of 1/x corrects x - log(x) / x.  Coefficients run from the
# highest degree down; each Q's leading 1 is written out, since 1 * x is exact.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# 2 <= x < 8, i.e. exp(-32) < y <= exp(-2)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# 8 <= x, i.e. y <= exp(-32)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule over a new array, op for op as Cephes polevl."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _ratio(z: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """z * P(z) / Q(z), left to right as in C."""
    out = _polevl(z, p)
    out *= z
    out /= _polevl(z, q)
    return out


def std_normal_quantile(p):
    """Inverse standard normal cdf on the open interval (0, 1).

    A port of Cephes ndtri that agrees bitwise with scipy.special.ndtri: numpy's
    + - * / and sqrt round correctly, and both logs go through libm.  Raises
    ValueError outside (0, 1); the embedding step relies on this to reject
    degenerate message points rather than emitting infinities.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    y = arr.ravel()
    upper = y > 1.0 - _EXPM2
    y = np.subtract(1.0, y, out=y.copy(), where=upper)  # the upper tail mirrored
    central = y > _EXPM2
    out = np.empty(y.shape)
    ci = np.flatnonzero(central)
    t = y.take(ci)
    t -= 0.5
    x = _ratio(t * t, _P0, _Q0)
    x *= t
    x += t
    x *= _S2PI
    out.put(ci, x)

    ti = np.flatnonzero(~central)
    x = _libm(math.log, y.take(ti))
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    far = x >= 8.0
    x1 = np.empty(x.shape)
    x1[far] = _ratio(z[far], _P2, _Q2)
    x1[~far] = _ratio(z[~far], _P1, _Q1)
    x0 = _libm(math.log, x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    x0 -= x1
    # negated in the lower tail, where y was not mirrored
    np.negative(x0, out=x0, where=~upper.take(ti))
    out.put(ti, x0)
    out = out.reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


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
