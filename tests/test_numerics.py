import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcfeedback import numerics
from bcfeedback.numerics import (
    _ARRAY_SLACK,
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
    f = lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0)
    res = largest_root(f, 0.0, 3.5)
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
    r1, r2, r3 = sorted(roots)
    f = lambda x: (x - r1) * (x - r2) * (x - r3)
    res = largest_root(f, r1 - 0.5, r3 + 0.5)
    assert res.root == pytest.approx(r3, abs=1e-9)


def _outcome(fn, *args):
    """The RootResult, or the exception's type and message."""
    try:
        return fn(*args)
    except (ValueError, RootFindingError) as exc:
        return type(exc), str(exc)


@st.composite
def scan_cases(draw):
    """(f, lo, hi, tol) for cubics with roots on or off the grid, a root at lo,
    tangent roots and functions with no root; every f works on floats and arrays."""
    lo = draw(st.floats(min_value=-10.0, max_value=10.0))
    hi = lo + draw(st.floats(min_value=1e-3, max_value=20.0))
    xs = np.linspace(lo, hi, 10_001)
    on_grid = st.integers(min_value=0, max_value=10_000).map(lambda i: float(xs[i]))
    anywhere = st.floats(min_value=lo - 1.0, max_value=hi + 1.0)
    point = st.one_of(on_grid, anywhere)
    sign = draw(st.sampled_from([1.0, -1.0]))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    kind = draw(st.sampled_from(["cubic", "root_at_lo", "tangent"]))
    if kind == "cubic":
        r1, r2, r3 = draw(st.lists(point, min_size=3, max_size=3))
        f = lambda x: sign * (x - r1) * (x - r2) * (x - r3)
    elif kind == "root_at_lo":
        c = lo - draw(st.floats(min_value=1e-3, max_value=5.0))
        f = lambda x: sign * (x - lo) * (x - c)
    else:  # tangent at r, lifted by an offset that may leave no root at all
        r = draw(point)
        lift = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1.0]))
        f = lambda x: sign * ((x - r) * (x - r) + lift)
    return f, lo, hi, tol


@given(scan_cases())
@settings(max_examples=120, deadline=None)
def test_largest_root_matches_the_point_by_point_scan(case):
    f, lo, hi, tol = case
    assert _outcome(largest_root, f, lo, hi, tol) == _outcome(scan_largest_root, f, lo, hi, tol)


def _slacks(tol):
    """None (the default, 1e3·tol), 0, tiny absolute slacks, or 1e-3 to 1e3 times the default."""
    return st.one_of(
        st.sampled_from([None, 0.0, 5e-324, 1e-300, 1e-20]),
        st.floats(min_value=1e-3, max_value=1e3).map(lambda k: k * _ARRAY_SLACK * tol),
    )


@given(scan_cases(), st.data(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_largest_root_ignores_array_errors_inside_the_slack(case, data, seed, push):
    # f on an array may differ from f on a float by less than the slack: an
    # array path off by up to half that, at random or pushing every value
    # toward and across zero, still gives what one float call per point
    # gives, diagnostics included
    f, lo, hi, tol = case
    slack = data.draw(_slacks(tol), label="slack")
    half = 0.5 * (_ARRAY_SLACK * tol if slack is None else slack)
    rng = np.random.default_rng(seed)

    def perturbed(x):
        v = f(x)
        if np.ndim(x) == 0:
            return v
        return v - half * np.sign(v) if push else v + rng.uniform(-half, half, v.shape)

    got = _outcome(largest_root, perturbed, lo, hi, tol, slack)
    assert got == _outcome(scan_largest_root, f, lo, hi, tol)


def test_largest_root_rejects_a_negative_or_nan_slack():
    for slack in (-1e-12, float("nan")):
        with pytest.raises(ValueError, match="slack"):
            largest_root(lambda x: x, 0.0, 1.0, 1e-12, slack)


def test_largest_root_rejects_f_that_is_not_elementwise():
    with pytest.raises(ValueError, match="elementwise"):
        largest_root(lambda x: 1.0, 0.0, 1.0)


def _grid_of(lo, hi):
    """The grid that largest_root hands to f for the bracket [lo, hi]."""
    grids = []

    def f(x):
        if isinstance(x, np.ndarray):
            grids.append(x)
        return x - hi  # an exact zero at hi, the last grid point

    largest_root(f, lo, hi)
    return grids[0]


def test_largest_root_grid_is_bitwise_linspace():
    # built once per bracket and then shared: every bracket the solvers scan,
    # [1, M] for M <= 1024 and [0, 1], and signed zeros that compare equal
    brackets = [(0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-0.0, 1.0)]
    brackets += [(1.0, float(m)) for m in range(2, 1025)]
    for lo, hi in brackets:
        want = np.linspace(lo, hi, _GRID_POINTS).view(np.int64)
        first, again = _grid_of(lo, hi), _grid_of(lo, hi)
        assert again is first and not first.flags.writeable
        assert np.array_equal(first.view(np.int64), want), (lo, hi)


def test_largest_root_grid_is_read_only():
    def writes_its_argument(x):
        if isinstance(x, np.ndarray):
            x[0] = 0.5
        return x - 1.0

    with pytest.raises(ValueError, match="read-only"):
        largest_root(writes_its_argument, 0.0, 2.0)
    f = lambda x: x - 1.0
    assert largest_root(f, 0.0, 2.0) == scan_largest_root(f, 0.0, 2.0)


def test_largest_root_keeps_a_bounded_number_of_grids():
    for k in range(200):
        largest_root(lambda x: x - 1.0, 0.0, 2.0 + k)
    info = numerics._scan_grid.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert info.maxsize * _GRID_POINTS * 8 <= 2**21  # at most 2 MiB of grids
