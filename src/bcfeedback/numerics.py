"""Numeric primitives: normal cdf/quantile, Hadamard matrices, largest-root search.

Everything downstream builds on these four operations.  The cdf and quantile
carry message points between the uniform and Gaussian pictures, Sylvester
Hadamard matrices supply the per-step mixing weights of the multi-receiver
schedules, and ``largest_root`` solves the scalar fixed-point equations behind
the rate formulas (which always want the *largest* admissible root, hence the
scan for the last sign change).
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
_ARRAY_SLACK = 1e3  # default slack of largest_root, in units of tol


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


def largest_root(
    f: Callable,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    slack: float | None = None,
) -> RootResult:
    """Largest x in [lo, hi] with f(x) = 0.

    ``f`` must act elementwise on a 1-D float array and also accept a float.
    It is called once on the whole uniform grid of 10 001 samples, and then
    on floats only.  The grid is read-only and shared by every scan of the
    bracket: f must not write to its argument.  f on an array may differ
    from f on a float by less than ``slack`` (default 1e3·tol), and is NaN
    exactly where the float is.  The caller sizes ``slack`` to its f: a sum
    of terms whose array and float forms differ only in the last bits may
    pass a band proportional to the terms' size, far below 1e3·tol where
    they are small.  Every grid value within slack + tol of zero is
    evaluated again as a float, and no other value can differ from its
    float value in sign, in being zero or in |f| <= tol: the scan finds
    what one float call per grid point would.  The largest cell whose
    values change sign (or that ends on an exact zero) is bisected on
    floats to floating-point resolution; a grid point where f vanishes
    exactly short-circuits.  If no sign change exists, the largest grid
    point with |f| <= tol is accepted (tangent roots), otherwise
    NoSignChangeError carries the scan diagnostics, read off the whole grid
    on floats.  A NaN on the grid raises ValueError (numpy's warnings off).
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("largest_root needs finite bounds with lo < hi")
    if slack is None:
        slack = _ARRAY_SLACK * tol
    elif not slack >= 0.0:
        raise ValueError("largest_root needs slack >= 0")
    xs = _scan_grid(float(lo), float(hi), math.copysign(1.0, lo), math.copysign(1.0, hi))
    with np.errstate(all="ignore"):
        vals = np.array(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("f must map the scan grid elementwise")
    if np.isnan(vals).any():
        raise ValueError("f evaluated to NaN on the scan grid")
    recheck = (np.abs(vals) <= slack + tol).nonzero()[0]
    vals[recheck] = [f(x) for x in xs[recheck].tolist()]

    neg = vals < 0.0
    hits = ((vals[1:] == 0.0) | (neg[1:] != neg[:-1])).nonzero()[0]
    if hits.size:
        i = int(hits[-1]) + 1
        if vals[i] == 0.0:
            return RootResult(float(xs[i]), 0.0, 0)
        a, b = float(xs[i - 1]), float(xs[i])
        return _bisect(f, a, b, float(f(a)), float(f(b)), tol)
    if vals[0] == 0.0:
        return RootResult(float(xs[0]), 0.0, 0)

    near = np.flatnonzero(np.abs(vals) <= tol)
    if near.size:
        i = int(near[-1])
        return RootResult(float(xs[i]), float(abs(vals[i])), 0)
    vals = np.array([f(x) for x in xs.tolist()], dtype=float)
    raise NoSignChangeError(
        f"no sign change on [{lo}, {hi}]: f(lo)={vals[0]:.6g}, f(hi)={vals[-1]:.6g}, "
        f"min |f| on grid {np.min(np.abs(vals)):.6g} exceeds tol {tol:g}"
    )


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
