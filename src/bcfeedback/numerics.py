"""Numeric primitives: normal cdf/quantile, Hadamard matrices, largest-root search.

Everything downstream builds on these four operations.  The cdf and quantile
carry message points between the uniform and Gaussian pictures, Sylvester
Hadamard matrices supply the per-step mixing weights of the multi-receiver
schedules, and ``largest_root`` solves the scalar fixed-point equations behind
the rate formulas, which want the *largest* admissible root.  It calls f on
floats only: where f's end values have opposite signs it bisects the index of
a grid over the bracket, which finds the largest root when f changes sign
once, and otherwise it walks the whole grid for the last sign change.
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
    "std_normal_cdf",
    "std_normal_quantile",
    "sylvester_hadamard",
    "largest_root",
]

MAX_HADAMARD_LOG2 = 10
_GRID_POINTS = 10_001  # samples in the scan grid of largest_root


class RootFindingError(RuntimeError):
    """The root finder could not certify a root in the requested bracket."""


class NoSignChangeError(RootFindingError):
    """f kept one sign on the whole scan grid and never came within tol of zero."""


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
# it: the cdf and quantile run once per chunk or decoded trial, never per step.


def std_normal_cdf(x):
    """Standard normal cdf.  Scalars in, float out; ndarrays map elementwise."""
    from scipy.special import ndtr

    if np.ndim(x) == 0:
        return float(ndtr(float(x)))
    return ndtr(np.asarray(x, dtype=float))


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
    """Largest x in [lo, hi] with f(x) = 0, from float calls of f on a grid.

    The grid has 10 001 uniform points over the bracket, and its values are
    classed as negative or not.  When f(lo) and f(hi) are nonzero and of
    opposite sign, bisecting the grid index (about 14 calls) finds a cell
    where the class changes: the largest one whenever the class changes
    once.  Otherwise, and on a NaN probe, f is called at every grid point
    and the largest cell where the class changes or that ends on an exact
    zero is taken; there a NaN raises ValueError, and with no such cell the
    largest grid point with |f| <= tol is accepted (tangent roots), failing
    which NoSignChangeError carries the grid's diagnostics.  A cell that
    ends on an exact zero returns that point; any other is bisected on
    floats to floating-point resolution.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("largest_root needs finite bounds with lo < hi")
    xs = _scan_grid(float(lo), float(hi), math.copysign(1.0, lo), math.copysign(1.0, hi))
    i, j = 0, _GRID_POINTS - 1
    fi, fj = float(f(float(xs[i]))), float(f(float(xs[j])))
    if fi < 0.0 < fj or fj < 0.0 < fi:  # signs compared, not multiplied: no underflow
        while j - i > 1:
            k = (i + j) // 2
            fk = float(f(float(xs[k])))
            if math.isnan(fk):
                break
            if (fk < 0.0) == (fj < 0.0):
                j, fj = k, fk
            else:
                i, fi = k, fk
        else:
            return _cell(f, xs, i, fi, fj, tol)

    vals = [float(f(x)) for x in xs.tolist()]
    if any(map(math.isnan, vals)):
        raise ValueError("f evaluated to NaN on the scan grid")
    for j in range(_GRID_POINTS - 1, 0, -1):
        if vals[j] == 0.0 or (vals[j] < 0.0) != (vals[j - 1] < 0.0):
            return _cell(f, xs, j - 1, vals[j - 1], vals[j], tol)
    if vals[0] == 0.0:
        return RootResult(float(xs[0]), 0.0, 0)
    near = [i for i, v in enumerate(vals) if abs(v) <= tol]
    if near:
        return RootResult(float(xs[near[-1]]), abs(vals[near[-1]]), 0)
    raise NoSignChangeError(
        f"no sign change on [{lo}, {hi}]: f(lo)={vals[0]:.6g}, f(hi)={vals[-1]:.6g}, "
        f"min |f| on grid {min(map(abs, vals)):.6g} exceeds tol {tol:g}"
    )


def _cell(f, xs, i: int, fa: float, fb: float, tol: float) -> RootResult:
    """The root in the grid cell [xs[i], xs[i + 1]] whose end values are fa and fb."""
    b = float(xs[i + 1])
    if fb == 0.0:
        return RootResult(b, 0.0, 0)
    return _bisect(f, float(xs[i]), b, fa, fb, tol)


@functools.lru_cache(maxsize=16)  # 80 KB per bracket
def _scan_grid(lo: float, hi: float, lo_sign: float, hi_sign: float) -> np.ndarray:
    # the signs keep apart the brackets of 0.0 and -0.0, which compare equal
    xs = np.linspace(lo, hi, _GRID_POINTS)
    xs.setflags(write=False)
    return xs


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
