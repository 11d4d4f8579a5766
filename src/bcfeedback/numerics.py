"""Numeric primitives: Hadamard matrices and the largest-root search.

Sylvester Hadamard matrices supply the per-step mixing weights of the
multi-receiver schedules, and ``largest_root`` solves the scalar fixed-point
equations behind the rate formulas, which want the *largest* admissible root.
It needs a bracket: it calls f on floats only, and where f's end values have
opposite signs it narrows the bracket between them by ITP steps, then by
bisection, which finds the largest root when f changes sign once.  End values
of one sign are an error, not a search.

Only the Hadamard table is an array, so numpy is imported where it is built,
at a schedule's first step; the root search runs on floats alone.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_HADAMARD_LOG2",
    "RootFindingError",
    "NoSignChangeError",
    "sylvester_hadamard",
    "largest_root",
]

MAX_HADAMARD_LOG2 = 10
_NAN_PROBE = "f evaluated to NaN in the bracket"
# ITP's n0: the bracket lags bisection's by at most this many halvings, plus one
_ITP_SLACK = 3


class RootFindingError(RuntimeError):
    """The root finder could not certify a root in the requested bracket."""


class NoSignChangeError(RootFindingError):
    """f is nonzero with one sign at both ends of the bracket."""


@dataclass(frozen=True)
class RootResult:
    """A bracketed root: location, |f(root)|, and the probes of f after the two ends."""

    root: float
    residual: float
    iterations: int


def _as_int(value, message: str) -> int:
    """``operator.index(value)``; a bool or a non-integer raises ValueError(message)."""
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(message) from None


def sylvester_hadamard(k: int) -> np.ndarray:
    """Hadamard matrix of order 2**k via the doubling construction [[H, H], [H, -H]].

    Entries are +1.0 and -1.0 with H @ H.T = 2**k I, and the first row and
    column are all +1.  H is symmetric, so row j is column j.  The float64
    array is read-only and built once per order, so every schedule of one
    width shares one instance and mixes with its rows as they stand.
    Supported up to k = MAX_HADAMARD_LOG2, the receiver limit that
    ``schedules.check_channel`` enforces for the Hadamard schedules.
    """
    k = _as_int(k, "k must be an integer")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_HADAMARD_LOG2:
        raise ValueError(
            f"order 2**{k} exceeds the supported limit 2**{MAX_HADAMARD_LOG2}"
        )
    return _sylvester_table(k)


@functools.cache
def _sylvester_table(k: int) -> np.ndarray:
    import numpy as np

    # doubled in place, each quadrant copied from one it does not overlap in memory
    h = np.empty((1 << k, 1 << k))
    h[0, 0] = 1.0
    for i in range(k):
        n = 1 << i
        h[n:2 * n, :n] = h[:n, :n]
        h[:n, n:2 * n] = h[n:2 * n, :n]
        np.negative(h[:n, :n], out=h[n:2 * n, n:2 * n])
    h.setflags(write=False)
    return h


def largest_root(f: Callable, lo: float, hi: float, tol: float = 1e-12) -> RootResult:
    """Largest x in [lo, hi] with f(x) = 0, for f that changes sign once there.

    f is called on floats only: at lo, at hi, then at points strictly inside
    the current bracket.  An exact zero at hi, else at lo, is returned as is.
    Where f(lo) and f(hi) are nonzero with opposite signs, the search keeps
    the part of the bracket whose end values have opposite signs, down to an
    exact zero or to adjacent floats, which finds the largest root when f
    changes sign once.  Other end values raise NoSignChangeError, and a NaN
    at any probe raises ValueError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("largest_root needs finite bounds with lo < hi")
    lo, hi = float(lo), float(hi)
    flo, fhi = float(f(lo)), float(f(hi))
    if math.isnan(flo) or math.isnan(fhi):
        raise ValueError(_NAN_PROBE)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0)
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):  # signs compared, not multiplied: no underflow
        raise NoSignChangeError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    return _itp(f, lo, hi, flo, fhi, tol)


def _itp(f, a: float, b: float, fa: float, fb: float, tol: float) -> RootResult:
    """Narrow [a, b], whose end values fa and fb have opposite signs, on floats.

    Each probe is an ITP point (Oliveira & Takahashi, ACM TOMS 47(1), 2020)
    for a bracket of width w: the regula falsi point of the end values as
    Anderson & Björck (1973) scale them, moved k1·w**2 toward the midpoint
    (truncate) and kept within r of it (project).  The first bracket w0 it
    interpolates in fixes k1 = 0.2/w0 and, at the j-th probe,
    r = eps·2**(n + n0 - j) - w/2: eps is 2 ulps of that bracket's larger
    end, n the bisection steps from w0 down to 2·eps and n0 = _ITP_SLACK.
    So after j probes the bracket is narrower than 2**(n0 + 1)·w0/2**j, at
    most n0 + 1 halvings behind bisection's.  Where it is within 4 ulps of
    its larger end, or its width overflows, the probe is the midpoint
    instead, down to an exact zero or adjacent floats.
    """
    iterations = 0
    ga, gb, last = fa, fb, 0  # scaled end values; the end probed last, -1 for a
    aim = reach = math.inf
    while True:
        w = b - a
        if w <= aim:  # interpolate down to 4 ulps of the larger end (inf: halve first)
            aim = 4.0 * math.ulp(max(-a, b)) if w < math.inf else w
            if aim < w and reach == math.inf:  # the first ITP probe
                k1 = 0.2 / w
                n = math.ceil(math.log2(w / aim))
                reach = min(math.ldexp(0.5 * aim, n) * 2.0**_ITP_SLACK, sys.float_info.max)
        if aim < w:
            half = 0.5 * w
            mid = a + half
            r = reach - half
            t = ga / (ga - gb)
            if t == 0.0 and ga:  # ga - gb overflowed
                t = 0.5 * ga / (0.5 * ga - 0.5 * gb)
            x = a + t * w
            if x <= mid:  # truncate toward mid, then project within r of it
                x += k1 * w * w
                if x > mid:
                    x = mid
                elif x < mid - r:
                    x = mid - r
            else:
                x -= k1 * w * w
                if x < mid:
                    x = mid
                elif x > mid + r:
                    x = mid + r
            if not a < x < b:  # rounded onto an end: the float next to it; NaN (inf ends): mid
                x = math.nextafter(b, a) if x >= b else math.nextafter(a, b) if x <= a else mid
        else:
            x = 0.5 * (a + b)
            if not (a < x < b):
                if math.isinf(x):  # a + b overflowed: halve each end first
                    x = 0.5 * a + 0.5 * b
                if not (a < x < b):
                    break  # bracket is at floating-point resolution
        reach *= 0.5
        fx = float(f(x))
        iterations += 1
        if fx == 0.0:
            return RootResult(x, 0.0, iterations)
        if fx != fx:  # NaN
            raise ValueError(_NAN_PROBE)
        if (fx < 0.0) == (fa < 0.0):
            if last < 0:  # a moves twice running: scale b's value down
                m = 1.0 - fx / fa
                gb *= m if m > 0.0 else 0.5
            a, fa, ga, last = x, fx, fx, -1
        else:
            if last > 0:
                m = 1.0 - fx / fb
                ga *= m if m > 0.0 else 0.5
            b, fb, gb, last = x, fx, fx, 1
    root, res = (a, abs(fa)) if abs(fa) <= abs(fb) else (b, abs(fb))
    if res > tol:
        raise RootFindingError(
            f"bisection hit float resolution at x={root!r} with |f|={res:.3g} > tol {tol:g}"
        )
    return RootResult(root, res, iterations)
