"""Numeric primitives: normal quantile, Hadamard matrices, largest-root search.

Everything downstream builds on these three operations.  The quantile
carries message points from the uniform to the Gaussian picture, Sylvester
Hadamard matrices supply the per-step mixing weights of the multi-receiver
schedules, and ``largest_root`` solves the scalar fixed-point equations behind
the rate formulas, which want the *largest* admissible root.  It needs a
bracket: it calls f on floats only, and where f's end values have opposite
signs it bisects the index of a grid over the bracket, which finds the
largest root when f changes sign once.  End values of one sign are an error,
not a search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MAX_HADAMARD_LOG2",
    "RootFindingError",
    "NoSignChangeError",
    "std_normal_quantile",
    "sylvester_hadamard",
    "largest_root",
]

MAX_HADAMARD_LOG2 = 10
_CELLS = 10_000  # cells of the grid whose index largest_root bisects


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


def _libm(fn, x):
    """``fn`` (a ``math`` function) of a float, or of each element of an array.

    numpy's SIMD exp, log and log1p can differ from libm in the last bit, so
    array code that must agree bitwise with float code maps libm instead.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


# scipy.special is imported where it is called, so the solve path never loads
# it: the quantile runs once per chunk, never per step.


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


def sylvester_hadamard(k: int) -> np.ndarray:
    """Hadamard matrix of order 2**k via the doubling construction [[H, H], [H, -H]].

    Entries are +1 and -1 with H @ H.T = 2**k I, and the first row and column
    are all +1.  The int64 array is read-only and built once per order, so
    every schedule of one width shares one instance.  Supported up to
    k = MAX_HADAMARD_LOG2, the receiver limit that ``schedules.check_channel``
    enforces for the Hadamard schedules; the construction is exact in int64
    far beyond that.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError("k must be an integer")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_HADAMARD_LOG2:
        raise ValueError(
            f"order 2**{k} exceeds the supported limit 2**{MAX_HADAMARD_LOG2}"
        )
    return _sylvester_table(int(k))


@functools.cache
def _sylvester_table(k: int) -> np.ndarray:
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def largest_root(f: Callable, lo: float, hi: float, tol: float = 1e-12) -> RootResult:
    """Largest x in [lo, hi] with f(x) = 0, for f that changes sign once there.

    f is called on floats only, at points of a 10 001-point grid over the
    bracket, ``k·step + lo`` with ``step = (hi - lo)/10 000`` and ``hi`` at
    the last index: bitwise ``np.linspace``, so ``lo = -0.0`` is probed as
    0.0.  An exact zero at hi, else at lo, is returned as is.  Where f(lo)
    and f(hi) are nonzero with opposite signs, bisecting the grid index
    (about 14 calls) finds a cell where f turns negative or stops being
    negative, the largest one when f changes sign once; a cell that ends on
    an exact zero returns that point, any other is bisected on floats to
    floating-point resolution.  Other end values raise NoSignChangeError, and
    a NaN at any probe raises ValueError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("largest_root needs finite bounds with lo < hi")
    lo, hi = float(lo), float(hi)
    step = (hi - lo) / _CELLS

    def probe(k: int) -> tuple[float, float]:
        x = hi if k == _CELLS else k * step + lo
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError("f evaluated to NaN on the scan grid")
        return x, fx

    (a, fa), (b, fb) = probe(0), probe(_CELLS)
    if fb == 0.0:
        return RootResult(b, 0.0, 0)
    if fa == 0.0:
        return RootResult(a, 0.0, 0)
    if not (fa < 0.0 < fb or fb < 0.0 < fa):  # signs compared, not multiplied: no underflow
        raise NoSignChangeError(
            f"no sign change on [{lo}, {hi}]: f(lo)={fa:.6g}, f(hi)={fb:.6g}"
        )
    i, j = 0, _CELLS
    while j - i > 1:
        k = (i + j) // 2
        x, fx = probe(k)
        if (fx < 0.0) == (fb < 0.0):
            j, b, fb = k, x, fx
        else:
            i, a, fa = k, x, fx
    if fb == 0.0:
        return RootResult(b, 0.0, 0)
    return _bisect(f, a, b, fa, fb, tol)


def _bisect(f, a: float, b: float, fa: float, fb: float, tol: float) -> RootResult:
    iterations = 0
    while True:
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            break  # bracket is at floating-point resolution
        fm = float(f(mid))
        iterations += 1
        if fm == 0.0:
            return RootResult(mid, 0.0, iterations)
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
