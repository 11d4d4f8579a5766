import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcfeedback import numerics
from bcfeedback.numerics import (
    _GRID_POINTS,
    MAX_HADAMARD_LOG2,
    NoSignChangeError,
    RootFindingError,
    largest_root,
    std_normal_cdf,
    std_normal_quantile,
    sylvester_hadamard,
)
from oracles import PHI_1, PHI_M2_5, bisect, normal_cdf_quad, scan_largest_root


# ----------------------------------------------------------------------------
# normal cdf / quantile
# ----------------------------------------------------------------------------


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


# ----------------------------------------------------------------------------
# Hadamard matrices
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(6))
def test_hadamard_orthogonality_exact(k):
    h = sylvester_hadamard(k)
    order = 1 << k
    assert len(h) == order
    gram = h @ h.T  # int64: exact
    assert np.array_equal(gram, order * np.eye(order, dtype=np.int64))


def test_hadamard_entries_are_signs_and_first_line_is_ones():
    h = sylvester_hadamard(4)
    assert h.dtype == np.int64
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


# ----------------------------------------------------------------------------
# largest_root
# ----------------------------------------------------------------------------


def test_largest_root_picks_largest():
    # f(1.5) and f(3.5) are both positive, so every grid point is called
    f = lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0)
    res = largest_root(f, 1.5, 3.5)
    assert res.root == pytest.approx(3.0, abs=1e-12)
    assert res.residual <= 1e-12
    # independent bisection oracle on the top bracket
    assert res.root == pytest.approx(bisect(f, 2.5, 3.5), abs=1e-12)


def test_largest_root_exact_grid_hit():
    # root at 1.0 lies exactly on the default grid over [0, 2]
    res = largest_root(lambda x: x - 1.0, 0.0, 2.0)
    assert res.root == 1.0
    assert res.residual == 0.0


def test_largest_root_tangent_fallback():
    # (x - 1)^2 never changes sign; the tolerance window must still find 1.0
    res = largest_root(lambda x: (x - 1.0) ** 2, 0.0, 2.0, tol=1e-9)
    assert res.root == pytest.approx(1.0, abs=1e-4)


def test_largest_root_no_sign_change_diagnostics():
    with pytest.raises(NoSignChangeError) as err:
        largest_root(lambda x: x * x + 1.0, -1.0, 1.0)
    msg = str(err.value)
    assert "f(lo)" in msg and "f(hi)" in msg and "min |f|" in msg


def test_largest_root_rejects_bad_bracket():
    with pytest.raises(ValueError):
        largest_root(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        largest_root(lambda x: x, 0.0, float("inf"))
    with pytest.raises(ValueError):
        largest_root(lambda x: float("nan"), 0.0, 1.0)


def test_largest_root_residual_tolerance_enforced():
    # a steep function whose residual at float resolution stays large
    with pytest.raises(RootFindingError):
        largest_root(lambda x: 1e9 * (x - 0.333333) ** 3 + 1e-3, 0.0, 1.0, tol=1e-18)


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3, unique=True)
)
@settings(max_examples=100, deadline=None)
def test_largest_root_on_integer_lattice_cubics(roots):
    # r2 and r3 lie in the bracket, and f is positive at both of its ends
    r1, r2, r3 = sorted(roots)
    f = lambda x: (x - r1) * (x - r2) * (x - r3)
    res = largest_root(f, r1 + 0.5, r3 + 0.5)
    assert res.root == pytest.approx(r3, abs=1e-9)


def _outcome(fn, *args):
    """The RootResult, or the exception's type and message."""
    try:
        return fn(*args)
    except (ValueError, RootFindingError) as exc:
        return type(exc), str(exc)


def _brackets(f, lo, hi):
    """Whether f is nonzero at both ends of the bracket, with opposite signs."""
    xs = np.linspace(lo, hi, _GRID_POINTS)
    flo, fhi = f(float(xs[0])), f(float(xs[-1]))
    return flo < 0.0 < fhi or fhi < 0.0 < flo


@st.composite
def scan_cases(draw):
    """(f, lo, hi, tol): f changes sign once on the grid, or its end values do
    not bracket a root (cubics with roots on or off the grid, a root at lo,
    tangent roots and functions with no root)."""
    lo = draw(st.floats(min_value=-10.0, max_value=10.0))
    hi = lo + draw(st.floats(min_value=1e-3, max_value=20.0))
    xs = np.linspace(lo, hi, _GRID_POINTS)
    on_grid = st.integers(min_value=0, max_value=_GRID_POINTS - 1).map(lambda i: float(xs[i]))
    anywhere = st.floats(min_value=lo - 1.0, max_value=hi + 1.0)
    point = st.one_of(on_grid, anywhere)
    sign = draw(st.sampled_from([1.0, -1.0]))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    kind = draw(st.sampled_from(["one_crossing", "cubic", "root_at_lo", "tangent"]))
    if kind == "one_crossing":  # a positive factor keeps the sign of x - r exactly
        r, s = draw(point), draw(point)
        lift = draw(st.sampled_from([1e-13, 1e-10, 1e-7, 1.0]))
        f = lambda x: sign * (x - r) * ((x - s) * (x - s) + lift)
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
    f, lo, hi, tol = case
    assert _outcome(largest_root, f, lo, hi, tol) == _outcome(scan_largest_root, f, lo, hi, tol)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_largest_root_bisects_the_index_between_end_values_of_5e_324(sign):
    # f(lo)·f(hi) underflows to -0.0, so only comparing signs sees the bracket
    calls = []

    def f(x):
        calls.append(x)
        return sign * math.copysign(5e-324, x - 0.3)

    res = largest_root(f, 0.0, 1.0)
    assert len(calls) <= 2 + 14 + res.iterations
    assert res == scan_largest_root(f, 0.0, 1.0)
    assert res.residual == 5e-324 and abs(res.root - 0.3) <= 1e-16


def _calls_of_a_walk(lo, hi):
    """The points, in order, at which largest_root calls an f without a root."""
    calls = []

    def f(x):
        calls.append(x)
        return 1.0

    with pytest.raises(NoSignChangeError):
        largest_root(f, lo, hi)
    return calls


def test_largest_root_grid_is_bitwise_linspace():
    # built once per bracket and then shared: every bracket the solvers scan,
    # [1, M] for M <= 1024 and [0, 1], and signed zeros that compare equal
    brackets = [(0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-0.0, 1.0)]
    brackets += [(1.0, float(m)) for m in range(2, 1025)]
    for lo, hi in brackets:
        want = np.linspace(lo, hi, _GRID_POINTS).view(np.int64)
        signs = math.copysign(1.0, lo), math.copysign(1.0, hi)
        first, again = numerics._scan_grid(lo, hi, *signs), numerics._scan_grid(lo, hi, *signs)
        assert again is first and not first.flags.writeable
        assert np.array_equal(first.view(np.int64), want), (lo, hi)
    # and f is called at those points, as floats: the walk calls it at each
    for lo, hi in brackets[:6] + brackets[-1:]:
        calls = _calls_of_a_walk(lo, hi)
        assert all(type(x) is float for x in calls)
        assert np.array_equal(np.array(calls[2:]).view(np.int64),
                              np.linspace(lo, hi, _GRID_POINTS).view(np.int64)), (lo, hi)


def test_largest_root_keeps_a_bounded_number_of_grids():
    for k in range(200):
        largest_root(lambda x: x - 1.0, 0.0, 2.0 + k)
    info = numerics._scan_grid.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert info.maxsize * _GRID_POINTS * 8 <= 2**21  # at most 2 MiB of grids
