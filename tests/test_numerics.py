import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcfeedback.core import std_normal_quantile
from bcfeedback.numerics import (
    MAX_HADAMARD_LOG2,
    NoSignChangeError,
    RootFindingError,
    RootResult,
    largest_root,
    sylvester_hadamard,
)
from oracles import (
    PHI_1,
    PHI_M2_5,
    float_bisect,
    normal_cdf_quad,
    scan_largest_root,
    std_normal_cdf,
)


# ----------------------------------------------------------------------------
# normal cdf / quantile
# ----------------------------------------------------------------------------

# The package forms no decoded interval, so its only normal primitive is the
# quantile; the cdf is the oracles' (scalar_trial maps intervals through it).
# Both are checked here, each against the other and against quadrature.


def test_cdf_matches_quadrature_oracle():
    for x in np.linspace(-8.0, 8.0, 33):
        assert std_normal_cdf(float(x)) == pytest.approx(normal_cdf_quad(float(x)), abs=1e-12)


def test_cdf_frozen_values():
    assert std_normal_cdf(1.0) == pytest.approx(PHI_1, abs=1e-14)
    assert std_normal_cdf(-2.5) == pytest.approx(PHI_M2_5, abs=1e-14)
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_scalar_returns_python_float():
    assert isinstance(std_normal_cdf(0.3), float)
    assert isinstance(std_normal_quantile(0.3), float)


def test_cdf_vectorises():
    xs = np.array([-1.0, 0.0, 1.0])
    out = std_normal_cdf(xs)
    assert out.shape == (3,)
    assert out[1] == 0.5
    assert out[0] + out[2] == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_quantile_inverts_cdf(x):
    # above ~5.5 the round trip is limited by float64 spacing near 1.0
    # (ulp/pdf exceeds 1e-9), not by the implementation, so stop at 5
    assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-9)


@pytest.mark.parametrize("x", [-8.0, -7.0, -6.0])
def test_quantile_inverts_cdf_deep_lower_tail(x):
    # tiny probabilities keep full relative precision, so the lower tail
    # round-trips accurately even where the upper tail cannot
    assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-9)


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
@settings(max_examples=200, deadline=None)
def test_cdf_inverts_quantile(p):
    assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, float("nan")])
def test_quantile_rejects_outside_open_interval(bad):
    with pytest.raises(ValueError):
        std_normal_quantile(bad)


def test_quantile_rejects_bad_array_entries():
    with pytest.raises(ValueError):
        std_normal_quantile(np.array([0.5, 1.0]))


def test_quantile_symmetry():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.25) == pytest.approx(-std_normal_quantile(0.75), abs=1e-15)


def _ulps_around(c: float, n: int) -> list[float]:
    """The n floats on each side of c, and c."""
    lo, hi, out = c, c, [c]
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_quantile_is_bitwise_scipy_ndtri():
    # the port runs Cephes ndtri op for op, so it must equal scipy's compiled
    # one bit for bit: every branch, the mirrored upper tail, and each side of
    # the branch points e**-2, 1 - e**-2 and the x = 8 switch at exp(-32).
    # Moving any coefficient by one ulp fails it, but for the constant terms
    # of P2 and Q2, whose last bit moved no output on 15 M inputs below e**-32
    from scipy.special import ndtri

    rng = np.random.default_rng(35)
    uniform = rng.random(1_000_000)
    lower = np.exp(rng.uniform(math.log(1e-300), 0.0, 200_000))
    upper = 1.0 - lower[lower < 0.5]
    switch = math.exp(-32)
    # 1 - exp(-32) lies only ~114 floats below 1
    edges = [*(c for c in (0.5, math.exp(-2), 1.0 - math.exp(-2), switch)
               for c in _ulps_around(c, 2000)), *_ulps_around(1.0 - switch, 50)]
    # the x = 8 switch lies inside the points around exp(-32), in both tails
    for ys in (_ulps_around(switch, 2000), [1.0 - y for y in _ulps_around(1.0 - switch, 50)]):
        xs = [math.sqrt(-2.0 * math.log(y)) for y in ys]
        assert min(xs) < 8.0 <= max(xs)
    cases = {
        "uniform": uniform[uniform > 0.0],
        "lower tail": np.append(lower, [5e-324, 2.2250738585072014e-308, 1e-300]),
        "upper tail": upper[upper < 1.0],
        "branch points": np.array(edges),
        "(trials, M)": rng.random((100, 128)),
        # found by search: a one-ulp move of Q0's x**7 or of P2's x**8
        # coefficient changes the last bit here, and at none of the points above
        "rare last bits": np.array([float.fromhex(h) for h in (
            "0x1.1b2678488c32bp-3", "0x1.18288124a247ep-3", "0x1.32e530e69648cp-3",
            "0x1.135c824f62726p-47", "0x1.daeae55c9c3efp-51", "0x1.faa62a4a24fa5p-50")]),
    }
    for name, p in cases.items():
        got, want = std_normal_quantile(p), ndtri(p)
        assert got.shape == p.shape
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, f"{name}: {bad.size} differ, first at p = {p.flat[bad[0]]!r}"
    for p in (0.3, 0.5, 0.9, 5e-324, 1.0 - 2.0**-53):
        got = std_normal_quantile(p)
        assert isinstance(got, float)
        assert got.hex() == float(ndtri(p)).hex(), p


def test_quantile_within_4_ulps_of_mpmath():
    # 50-digit root of ncdf(x) = p from the exact float p; above 1/2 the
    # root of ncdf(-x) = 1 - p, whose right side mpmath forms exactly
    import mpmath

    rng = np.random.default_rng(36)
    lower = np.exp(rng.uniform(math.log(1e-300), math.log(0.5), 150))
    ps = [*lower, *(1.0 - lower[lower > 1e-15]), *rng.random(100), 5e-324]
    got = std_normal_quantile(np.array(ps))
    with mpmath.workdps(50):
        for p, x in zip(ps, got):
            if p < 0.5:
                root = mpmath.findroot(lambda t: mpmath.ncdf(t) - p, x)
            else:
                q = 1 - mpmath.mpf(p)
                root = -mpmath.findroot(lambda t: mpmath.ncdf(t) - q, -x)
            want = float(root)
            assert abs(x - want) <= 4 * math.ulp(want), (p, x, want)


# ----------------------------------------------------------------------------
# Hadamard matrices
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(6))
def test_hadamard_orthogonality_exact(k):
    h = sylvester_hadamard(k)
    order = 1 << k
    assert len(h) == order
    gram = h @ h.T  # exact: +-1 entries, integer partial sums far below 2**53
    assert np.array_equal(gram, order * np.eye(order))


def test_hadamard_entries_are_signs_and_first_line_is_ones():
    h = sylvester_hadamard(4)
    assert h.dtype == np.float64
    assert set(np.unique(h)) == {-1, 1}
    assert np.all(h[0] == 1)
    assert np.all(h[:, 0] == 1)


def test_hadamard_entries_read_only():
    h = sylvester_hadamard(3)
    with pytest.raises(ValueError):
        h[0, 0] = -1


def test_hadamard_doubling_structure():
    h2 = sylvester_hadamard(2)
    h3 = sylvester_hadamard(3)
    assert np.array_equal(h3[:4, :4], h2)
    assert np.array_equal(h3[:4, 4:], h2)
    assert np.array_equal(h3[4:, :4], h2)
    assert np.array_equal(h3[4:, 4:], -h2)


@pytest.mark.parametrize("bad", [-1, MAX_HADAMARD_LOG2 + 1, 1.5, "2", True])
def test_hadamard_rejects_bad_order(bad):
    with pytest.raises(ValueError):
        sylvester_hadamard(bad)


def test_hadamard_order_is_any_integer_index():
    # operator.index: a numpy integer is an order, a bool, float or string is not
    assert sylvester_hadamard(np.int64(4)) is sylvester_hadamard(4)
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="^k must be an integer$"):
            sylvester_hadamard(bad)


# ----------------------------------------------------------------------------
# largest_root
# ----------------------------------------------------------------------------


def test_largest_root_exact_grid_hit():
    # root at 1.0 is the first midpoint of [0, 2]
    res = largest_root(lambda x: x - 1.0, 0.0, 2.0)
    assert res == RootResult(1.0, 0.0, 1)


def test_largest_root_no_sign_change_diagnostics():
    calls = []

    def f(x):
        calls.append(x)
        return x * x + 1.0

    with pytest.raises(NoSignChangeError) as err:
        largest_root(f, -1.0, 2.0)
    assert "f(lo)=2," in str(err.value) and "f(hi)=5" in str(err.value)
    assert calls == [-1.0, 2.0]  # the end values decide; nothing else is probed


def test_largest_root_rejects_bad_bracket():
    with pytest.raises(ValueError):
        largest_root(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        largest_root(lambda x: x, 0.0, float("inf"))
    with pytest.raises(ValueError):
        largest_root(lambda x: float("nan"), 0.0, 1.0)
    # a NaN at the first midpoint, between bracketing end values
    with pytest.raises(ValueError, match="NaN"):
        largest_root(lambda x: x - 0.3 if x != 0.5 else float("nan"), 0.0, 1.0)
    # a NaN only on (0.30003, 0.30006), around the root: the bisection probes
    # in there before it reaches adjacent floats
    with pytest.raises(ValueError, match="NaN"):
        largest_root(lambda x: float("nan") if 0.30003 < x < 0.30006 else x - 0.30004,
                     0.0, 1.0)


def test_largest_root_bisects_where_the_bracket_ends_sum_past_the_largest_float():
    # 1e308 + 1.7e308 overflows; each end is halved first, so the first
    # midpoint is 1.35e308, not inf
    res = largest_root(lambda x: x - 1.5e308, 1e308, 1.7e308)
    assert (res.root, res.residual) == (1.5e308, 0.0)
    top = sys.float_info.max
    below = math.nextafter(top, 0.0)
    res = largest_root(lambda x: -1.0 if x < top else 1.0, below, top, tol=1.0)
    assert res == RootResult(below, 1.0, 0)  # adjacent floats: nothing to probe


def test_largest_root_searches_between_end_values_of_1e308():
    # f(lo) - f(hi) overflows to -inf, yet the regula falsi point of -1e308
    # and 1e308 is the midpoint, 0; on [-1e308, 1e308] the width overflows
    # too, and the first probe is the midpoint.  Every probe is a float
    # strictly inside the bracket, and the root is exact
    for f, lo, hi, root in [(lambda x: 1e308 * math.tanh(x - 0.3), -1e3, 1e3, 0.3),
                            (lambda x: x - 3.0, -1e308, 1e308, 3.0)]:
        assert (f(lo), f(hi)) == (-1e308, 1e308)
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        res = largest_root(counted, lo, hi)
        assert len(calls) == 2 + res.iterations and calls[2] == 0.0
        assert all(type(x) is float and lo < x < hi for x in calls[2:])
        assert abs(res.root - root) <= 1e-16 and res.residual <= 1e-12
        bisection = float_bisect(f, lo, hi, f(lo), f(hi), 1e-12)
        assert (res.root, res.residual) == (bisection.root, bisection.residual)
        assert res.iterations < bisection.iterations


def test_largest_root_residual_tolerance_enforced():
    # a steep function whose residual at float resolution stays large
    with pytest.raises(RootFindingError):
        largest_root(lambda x: 1e9 * (x - 0.333333) ** 3 + 1e-3, 0.0, 1.0, tol=1e-18)


def _outcome(fn, *args):
    """The RootResult, or the exception's type and message."""
    try:
        return fn(*args)
    except (ValueError, RootFindingError) as exc:
        return type(exc), str(exc)


def _brackets(f, lo, hi):
    """Whether f is nonzero at both ends of the bracket, with opposite signs."""
    flo, fhi = f(lo), f(hi)
    return flo < 0.0 < fhi or fhi < 0.0 < flo


@st.composite
def scan_cases(draw):
    """(f, lo, hi, tol): f changes sign at exactly one float, or its end
    values do not bracket a root (cubics, a root at lo, tangent roots and
    functions with no root).  Roots fall on the scan oracle's grid or
    anywhere."""
    lo = draw(st.floats(min_value=-10.0, max_value=10.0))
    hi = lo + draw(st.floats(min_value=1e-3, max_value=20.0))
    xs = np.linspace(lo, hi, 10_001)
    on_grid = st.integers(min_value=0, max_value=len(xs) - 1).map(lambda i: float(xs[i]))
    anywhere = st.floats(min_value=lo - 1.0, max_value=hi + 1.0)
    point = st.one_of(on_grid, anywhere)
    sign = draw(st.sampled_from([1.0, -1.0]))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    kind = draw(st.sampled_from(["one_crossing", "cubic", "root_at_lo", "tangent"]))
    if kind == "one_crossing":  # a factor >= 1 keeps the sign of x - r and never underflows
        r, s = draw(point), draw(point)
        lift = draw(st.sampled_from([1e-13, 1e-10, 1e-7, 1.0]))
        f = lambda x: sign * (x - r) * (1.0 + (x - s) * (x - s) / lift)
    elif kind == "cubic":
        r1, r2, r3 = draw(st.lists(point, min_size=3, max_size=3))
        f = lambda x: sign * (x - r1) * (x - r2) * (x - r3)
        assume(not _brackets(f, lo, hi))
    elif kind == "root_at_lo":
        c = lo - draw(st.floats(min_value=1e-3, max_value=5.0))
        f = lambda x: sign * (x - lo) * (x - c)
    else:  # tangent at r, lifted by an offset that may leave no root at all
        r = draw(point)
        lift = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1.0]))
        f = lambda x: sign * ((x - r) * (x - r) + lift)
    return f, lo, hi, tol


@given(scan_cases())
@settings(max_examples=150, deadline=None)
def test_largest_root_matches_the_point_by_point_scan(case):
    # where f changes sign at one float, the scan and the bisection meet
    # there; they differ in the probes they take on the way
    f, lo, hi, tol = case
    got = _outcome(largest_root, f, lo, hi, tol)
    if _brackets(f, lo, hi):
        want = _outcome(scan_largest_root, f, lo, hi, tol)
        assert (got.root, got.residual) == (want.root, want.residual)
    elif f(hi) == 0.0:
        assert repr(got) == repr(RootResult(hi, 0.0, 0))
    elif f(lo) == 0.0:
        assert repr(got) == repr(RootResult(lo, 0.0, 0))
    else:
        assert got[0] is NoSignChangeError


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_largest_root_brackets_end_values_of_5e_324(sign):
    # f(lo)·f(hi) underflows to -0.0, so only comparing signs sees the bracket
    calls = []

    def f(x):
        calls.append(x)
        return sign * math.copysign(5e-324, x - 0.3)

    res = largest_root(f, 0.0, 1.0)
    assert len(calls) == 2 + res.iterations
    want = scan_largest_root(f, 0.0, 1.0)
    assert (res.root, res.residual) == (want.root, want.residual)
    assert res.residual == 5e-324 and abs(res.root - 0.3) <= 1e-16


# f's sign is that of x - r: a step with no slope, a line, a cubic, an
# exponential (regula falsi is one-sided there) and a tanh of height 1e308
SHAPES = [lambda u: float((u > 0.0) - (u < 0.0)), lambda u: u,
          lambda u: u + 100.0 * u**3, lambda u: math.expm1(30.0 * u),
          lambda u: 1e308 * math.tanh(1e3 * u)]


def _search_for(lo, hi, r, shape):
    """largest_root's result and probes for f(x) = shape((x - r)/(hi - lo))."""
    calls = []

    def f(x):
        calls.append(x)
        return shape((x - r) / (hi - lo))

    return largest_root(f, lo, hi), calls


def test_largest_root_probes_floats_strictly_inside_the_bracket():
    # after the two ends, each probe, interpolated or a midpoint, is a float
    # strictly between the ends of the current bracket, which keeps r.  Down
    # to 4 ulps of its larger end, the bracket after j probes is narrower
    # than 2**(n0 + 1)·(hi - lo)/2**j (n0 = 3, ITP's slack over bisection).
    # The search ends on r.  Brackets of signed zeros, subnormal ones and
    # [1, M], the lambda brackets
    brackets = [(-1.0, -0.0), (-1.0, 0.0), (-0.0, 1.0), (0.0, 1.0), (0.0, 1e-320),
                (-5e-324, 5e-324), (1.0, 2.0), (1.0, 1024.0)]
    for lo, hi in brackets:
        rs = [math.nextafter(lo, hi), math.nextafter(hi, lo), 0.5 * lo + 0.5 * hi,
              lo + (hi - lo) / 3.0, hi - (hi - lo) / 7.0, lo + 1e-9 * (hi - lo)]
        for r in rs:
            if not lo < r < hi:
                continue
            for k, shape in enumerate(SHAPES):
                res, calls = _search_for(lo, hi, r, shape)
                assert [repr(x) for x in calls[:2]] == [repr(lo), repr(hi)]
                assert len(calls) == 2 + res.iterations and res.root == r, (lo, hi, r, k)
                a, b = lo, hi
                for j, x in enumerate(calls[2:], 1):
                    assert type(x) is float and a < x < b, (lo, hi, r, k)
                    if x == r:  # the last probe
                        break
                    a, b = (x, b) if x < r else (a, x)
                    lag = b - a >= math.ldexp(hi - lo, 4 - j)
                    assert not lag or b - a <= 4.0 * math.ulp(max(-a, b)), (lo, hi, r, k, j)
