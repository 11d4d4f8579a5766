"""Numeric primitives: Hadamard matrices and the largest-root search.

Sylvester Hadamard matrices supply the per-step mixing weights of the
multi-receiver schedules, and ``largest_root`` solves the scalar fixed-point
equations behind the rate formulas, which want the *largest* admissible root.
It needs a bracket: it calls f on floats only, and where f's end values have
opposite signs it bisects between them, which finds the largest root when f
changes sign once.  End values of one sign are an error, not a search.

Only the Hadamard table is an array, so numpy is imported where it is built,
at a schedule's first step; the root search runs on floats alone.
"""

from __future__ import annotations

import functools
import math
import operator
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


class RootFindingError(RuntimeError):
    """The root finder could not certify a root in the requested bracket."""


class NoSignChangeError(RootFindingError):
    """f is nonzero with one sign at both ends of the bracket."""


@dataclass(frozen=True)
class RootResult:
    """A bracketed root: location, |f(root)|, and bisection iterations used."""

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

    Entries are +1 and -1 with H @ H.T = 2**k I, and the first row and column
    are all +1.  The int64 array is read-only and built once per order, so
    every schedule of one width shares one instance.  Supported up to
    k = MAX_HADAMARD_LOG2, the receiver limit that ``schedules.check_channel``
    enforces for the Hadamard schedules; the construction is exact in int64
    far beyond that.
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

    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def largest_root(f: Callable, lo: float, hi: float, tol: float = 1e-12) -> RootResult:
    """Largest x in [lo, hi] with f(x) = 0, for f that changes sign once there.

    f is called on floats only: at lo, at hi, then at midpoints of the
    bracket.  An exact zero at hi, else at lo, is returned as is.  Where f(lo)
    and f(hi) are nonzero with opposite signs, bisection keeps the half whose
    end values have opposite signs, down to an exact zero or to adjacent
    floats, which finds the largest root when f changes sign once.  Other end
    values raise NoSignChangeError, and a NaN at any probe raises ValueError.
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
    return _bisect(f, lo, hi, flo, fhi, tol)


def _bisect(f, a: float, b: float, fa: float, fb: float, tol: float) -> RootResult:
    """Bisect [a, b], whose end values fa and fb have opposite signs, on floats."""
    iterations = 0
    while True:
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            if math.isinf(mid):  # a + b overflowed: halve each end first
                mid = 0.5 * a + 0.5 * b
            if not (a < mid < b):
                break  # bracket is at floating-point resolution
        fm = float(f(mid))
        iterations += 1
        if fm == 0.0:
            return RootResult(mid, 0.0, iterations)
        if math.isnan(fm):
            raise ValueError(_NAN_PROBE)
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    root, res = (a, abs(fa)) if abs(fa) <= abs(fb) else (b, abs(fb))
    if res > tol:
        raise RootFindingError(
            f"bisection hit float resolution at x={root!r} with |f|={res:.3g} > tol {tol:g}"
        )
    return RootResult(root, res, iterations)
