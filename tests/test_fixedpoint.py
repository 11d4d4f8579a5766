import contextlib
import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bcfeedback.fixedpoint as fixedpoint
from bcfeedback.channel import ChannelConfig
from bcfeedback.cli import DUALITY_TOL
from bcfeedback.fixedpoint import (
    FixedPointError,
    b_gamma_residuals,
    build_warmup_plan,
    rho_map,
    solve_b_gamma,
    solve_lambda_bc,
    solve_lambda_mac,
    solve_rho,
)
from bcfeedback.numerics import RootFindingError, RootResult, largest_root
from bcfeedback.schedules import rate_report
from oracles import (
    A1_STAR_SQ_10,
    A_SQ_2_10,
    B_2_10,
    BETA_2_10,
    GAMMA_2_10,
    LAMBDA0_2_10,
    LAMBDA_2_1,
    LAMBDA_2_10,
    LAMBDA_4_10,
    P0_2_10,
    RHO_STAR_10,
    U1_2_10,
    bisect,
    float_bisect,
    libm_bc_log_gap,
    libm_mac_log_gap,
    mp_lambda,
    mp_rho_map,
    mp_solve_b_gamma,
    scan_largest_root,
)

MP_GRID = [(2, 0.5), (2, 1.0), (2, 10.0), (4, 1.0), (4, 10.0), (8, 10.0),
           (8, 100.0), (16, 3.0)]


# ----------------------------------------------------------------------------
# sum-rate fixed points
# ----------------------------------------------------------------------------


def test_lambda_frozen_values():
    assert solve_lambda_bc(2, 10.0).lam == pytest.approx(LAMBDA_2_10, abs=1e-12)
    assert solve_lambda_bc(2, 1.0).lam == pytest.approx(LAMBDA_2_1, abs=1e-12)
    assert solve_lambda_bc(4, 10.0).lam == pytest.approx(LAMBDA_4_10, abs=1e-12)


def test_lambda_2_10_satisfies_eliminated_cubic():
    # clearing logs from the sum-rate equation at M=2, P=10 leaves
    # 5 x^3 - 20 x^2 + 18 x + 2 = 0; the solver's root must satisfy it
    lam = solve_lambda_bc(2, 10.0).lam
    assert 5 * lam**3 - 20 * lam**2 + 18 * lam + 2 == pytest.approx(0.0, abs=1e-12)


def test_lambda_matches_independent_bisection():
    for m, p in MP_GRID:
        f = lambda x: m * math.log1p((p / m) * x * (m - x)) - (m - 1) * math.log1p(p * x)
        # bracket the largest root away from the x = m endpoint where f < 0
        oracle = bisect(f, 1.0 + 1e-9, m - 1e-12)
        got = solve_lambda_bc(m, p)
        assert got.lam == pytest.approx(oracle, abs=1e-9)
        assert got.residual <= 1e-10
        assert 1.0 < got.lam < m


def test_lambda_single_receiver_degenerates_to_capacity():
    sol = solve_lambda_bc(1, 10.0)
    assert sol.lam == 1.0
    assert sol.sum_rate == pytest.approx(0.5 * math.log2(11.0), abs=1e-15)


def test_sum_rate_keeps_its_digits_at_small_gain():
    # log1p(gain·lambda)/(2 ln 2): 0.5·log2(1 + gain·lambda) lost the digits
    # of gain·lambda that 1 + gain·lambda rounds away, all of them below ~1e-16.
    # What is left is lambda's own error, within 1e-12 of the 60-digit root
    for m in (2, 8, 1024):
        for p in (1e-307, 1e-100, 1e-20, 1e-13, 1e-9, 1e-6, 1e-3):
            for solve, twin in ((solve_lambda_bc, False), (solve_lambda_mac, True)):
                with mpmath.workdps(60):
                    gain = mpmath.mpf(m) * p if twin else mpmath.mpf(p)
                    want = mpmath.log1p(gain * mp_lambda(m, p, twin=twin)) / (2 * mpmath.log(2))
                got = solve(m, p).sum_rate
                assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), (m, p)


def test_lambda_monotone_in_power():
    lams = [solve_lambda_bc(2, p).lam for p in (0.1, 1.0, 10.0, 100.0)]
    assert lams == sorted(lams)
    assert all(1.0 < x < 2.0 for x in lams)


def test_sum_rate_between_single_user_and_full_cooperation():
    for m, p in MP_GRID:
        sol = solve_lambda_bc(m, p)
        single = 0.5 * math.log2(1.0 + p)
        coop = 0.5 * math.log2(1.0 + p * m)
        assert single < sol.sum_rate < coop


def test_lambda_validation():
    with pytest.raises(ValueError):
        solve_lambda_bc(0, 1.0)
    with pytest.raises(ValueError):
        solve_lambda_bc(2, 0.0)
    with pytest.raises(ValueError):
        solve_lambda_bc(2, float("inf"))
    with pytest.raises(ValueError):
        solve_lambda_bc(True, 1.0)
    # gain·M overflows, so the residual tolerance 1e-12·(M - 1)·log1p(gain·M)
    # would be inf; at M = 1 there is no scan and P = 1.7e308 has a rate
    for m in (2, 3, 4, 1024):
        with pytest.raises(ValueError, match=f"gain 1.7e\\+308 times M={m} overflows"):
            solve_lambda_bc(m, 1.7e308)
        with pytest.raises(ValueError, match=f"gain inf times M={m} overflows"):
            solve_lambda_mac(m, 1.7e308)
    assert solve_lambda_bc(1, 1.7e308).lam == 1.0


def test_receiver_count_is_any_integer_index():
    # operator.index: a numpy integer is a receiver count, a bool, float or string is not
    assert solve_lambda_bc(np.int64(4), 10.0) == solve_lambda_bc(4, 10.0)
    assert solve_lambda_mac(np.int64(4), 2.5) == solve_lambda_mac(4, 2.5)
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="^M must be a positive integer$"):
            solve_lambda_bc(bad, 10.0)


def test_duality_on_grid():
    for m, p in MP_GRID + [(1, 1.0), (1, 50.0), (16, 100.0)]:
        bc = solve_lambda_bc(m, p)
        mac = solve_lambda_mac(m, p / m)
        assert abs(bc.sum_rate - mac.sum_rate) <= 1e-10


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=math.log(1e-3), max_value=math.log(1e4)),
)
@settings(max_examples=150, deadline=None)
def test_duality_property(m, logp):
    p = math.exp(logp)
    bc = solve_lambda_bc(m, p)
    mac = solve_lambda_mac(m, p / m)
    assert abs(bc.sum_rate - mac.sum_rate) <= 1e-10


@given(
    st.integers(min_value=1, max_value=1024),
    st.floats(min_value=math.log(5e-324), max_value=math.log(1e9)),
)
@example(2, math.log(1e9))
@example(1, math.log(5e-324))
@settings(max_examples=100, deadline=None)
def test_lambda_solvers_cover_the_whole_input_range(m, logp):
    p = math.exp(logp)
    assume(p / m > 0.0)  # the twin's power P/M must not underflow
    bc = solve_lambda_bc(m, p)
    mac = solve_lambda_mac(m, p / m)
    assert 1.0 <= bc.lam <= m and 1.0 <= mac.lam <= m
    assert abs(bc.sum_rate - mac.sum_rate) <= DUALITY_TOL


# ----------------------------------------------------------------------------
# root scans: float calls only, the two ends and one per probe inside
# ----------------------------------------------------------------------------

SCAN_M = (2, 3, 7, 64, 100, 1000, 1024)
SCAN_P = (1e-9, 1e-6, 1e-3, 1.0, 10.0, 1e3, 1e6, 1e9)
# the scans' bytes are pinned far below and above SCAN_P too, errors included
WIDE_P = (5e-324, 1e-300, 1e-100, 1e-20, 1e-12) + SCAN_P + (1e12, 1e100, 1e300)
OZAROW_NOISES = ((0.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.5, 1.0, 2.0), (0.0, 0.3, 3.0))
# rho's single crossing is measured, not proved: a wide spread of gains and powers
OZAROW_G = (1e-3, 0.5, 1.0, 1.3, 10.0, 1e3)
OZAROW_P = SCAN_P + (1e12, 1e20, 1e50, 1e100, 1e200)
LAMBDA_SOLVERS = ((solve_lambda_bc, libm_bc_log_gap), (solve_lambda_mac, libm_mac_log_gap))


def _outcome(fn, *args):
    """The RootResult, or the exception's type and message."""
    try:
        return fn(*args)
    except (ValueError, RootFindingError) as exc:
        return type(exc), str(exc)


def _scan_of(solve, monkeypatch, errors=()):
    """(f, lo, hi, tol, outcome) of the one root scan that ``solve()`` runs.

    The outcome is the scan's result, or its error's type and message; the
    ``errors`` that ``solve()`` raises, in the scan or after it, are let pass.
    """
    seen = []

    def recording_largest_root(f, lo, hi, tol):
        try:
            res = largest_root(f, lo, hi, tol)
        except (ValueError, RootFindingError) as exc:
            seen.append((f, lo, hi, tol, (type(exc), str(exc))))
            raise
        seen.append((f, lo, hi, tol, res))
        return res

    monkeypatch.setattr(fixedpoint, "largest_root", recording_largest_root)
    with contextlib.suppress(*errors):
        solve()
    (scan,) = seen
    return scan


def _agrees_with_the_scan(res, f, lo, hi, tol):
    """Whether a scan's outcome is the point-by-point scan's error type, or a
    root within 1e-12·max(1, |root|) of the scan's with residual <= tol."""
    want = _outcome(scan_largest_root, f, lo, hi, tol)
    if not isinstance(want, RootResult):
        return not isinstance(res, RootResult) and res[0] is want[0]
    return (isinstance(res, RootResult) and res.residual <= tol
            and abs(res.root - want.root) <= 1e-12 * max(1.0, abs(want.root)))


@pytest.mark.parametrize("m", SCAN_M)
def test_lambda_scans_return_the_pure_float_scan_result(m, monkeypatch):
    for p in WIDE_P:
        for solve, oracle in LAMBDA_SOLVERS:
            gain = p if solve is solve_lambda_bc else m * p
            if gain > fixedpoint._SMALL_GAIN:
                _, lo, hi, tol, res = _scan_of(lambda: solve(m, p), monkeypatch,
                                               (ValueError, RuntimeError))
                f = lambda x: oracle(x, m, p)
                assert _agrees_with_the_scan(res, f, lo, hi, tol), (solve.__name__, p)
            else:  # the closed form, with no scan
                monkeypatch.setattr(fixedpoint, "largest_root", None)
                lam = solve(m, p).lam
                assert lam == 1.0 + (m - 1) * gain / (2 * m), (solve.__name__, p)


# P from the smallest float up: the closed form below gain 1e-10, the scans
# just above it, the gated range and, where the scans answer, the pinned
# powers above it
ORACLE_P = (5e-324, 1e-320, 1e-300, 1e-100, 1e-20, 1e-16, 1.33e-15, 4.26e-14, 1e-13,
            1e-12, 1e-10) + SCAN_P
ORACLE_HIGH_P = (1e12, 1e20, 1e40, 1e100, 1e160, 1e200, 1e300)


@pytest.mark.parametrize("m", SCAN_M + (4,))  # with 4, every M > 1 of the pin below
def test_lambda_scans_match_a_60_digit_root(m):
    for p in ORACLE_P + ORACLE_HIGH_P:
        for solve, twin in ((solve_lambda_bc, False), (solve_lambda_mac, True)):
            try:
                lam = solve(m, p).lam
            except RootFindingError:  # lambda sits closer to M than float resolution
                assert p in ORACLE_HIGH_P, (solve.__name__, p)
                continue
            assert lam == pytest.approx(mp_lambda(m, p, twin=twin), rel=1e-12), (solve.__name__, p)


@pytest.mark.parametrize("noise", OZAROW_NOISES)
def test_rho_scans_return_the_pure_float_scan_result(noise, monkeypatch):
    for p in OZAROW_P:
        for g in OZAROW_G:
            f, lo, hi, tol, res = _scan_of(lambda: solve_rho(p, *noise, g), monkeypatch,
                                           (ValueError, RuntimeError))
            assert _agrees_with_the_scan(res, f, lo, hi, tol), (p, g)


def _scan_calls(solve, monkeypatch):
    """The one root scan that ``solve()`` runs: its f and bracket, the
    arguments of every f call, and its result or error; the errors that
    ``solve()`` raises, in the scan or after it, are let pass."""
    seen = []

    def counting_largest_root(f, lo, hi, tol):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        try:
            res = largest_root(counted, lo, hi, tol)
        except (ValueError, RootFindingError) as exc:
            seen.append((f, lo, hi, calls, exc))
            raise
        seen.append((f, lo, hi, calls, res))
        return res

    monkeypatch.setattr(fixedpoint, "largest_root", counting_largest_root)
    with contextlib.suppress(ValueError, RuntimeError):
        solve()
    (scan,) = seen
    return scan


def _bisection_probes(f, lo, hi):
    """The calls of f, the two ends among them, that float bisection makes on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        return 2
    return 2 + float_bisect(f, lo, hi, flo, fhi, math.inf).iterations


@pytest.mark.parametrize("solve", [
    lambda: solve_lambda_bc(2, 10.0),
    lambda: solve_lambda_bc(1024, 1e9),
    lambda: solve_lambda_mac(64, 1e-6),
    lambda: solve_rho(10.0, 0.0, 1.0, 1.0, 1.0),
    lambda: solve_rho(1e3, 0.5, 1.0, 2.0, 2.0),
    lambda: solve_lambda_bc(2, 1e-9),
    lambda: solve_lambda_mac(1024, 1e-6),
])
def test_solver_scans_call_f_on_floats_once_per_probe(solve, monkeypatch):
    # two calls at the bracket ends, then one per probe inside it
    _, _, _, calls, res = _scan_calls(solve, monkeypatch)
    assert all(type(x) is float for x in calls)
    assert len(calls) == 2 + res.iterations


# ITP's n0 (numerics._ITP_SLACK): over the wide sweeps no scan takes more
# probes than float bisection on the same f and bracket plus this many.  Over
# the gated range (SCAN_P) the mean stays below the ceiling: bisection's was
# 52.5 for lambda and 64.6 for rho, ITP's is ~11 and ~13
N0 = 3
MEAN_PROBES_CEILING = 15.0


def test_solver_scans_take_at_most_n0_probes_more_than_bisection(monkeypatch):
    lam_solves = [(p in SCAN_P, lambda m=m, p=p, solve=solve: solve(m, p))
                  for m in SCAN_M for p in WIDE_P for solve, _ in LAMBDA_SOLVERS
                  if (p if solve is solve_lambda_bc else m * p) > fixedpoint._SMALL_GAIN]
    rho_solves = [(p in SCAN_P, lambda p=p, noise=noise, g=g: solve_rho(p, *noise, g))
                  for p in OZAROW_P for noise in OZAROW_NOISES for g in OZAROW_G]
    for solves in (lam_solves, rho_solves):
        gated = []
        for in_gated_range, solve in solves:
            f, lo, hi, calls, res = _scan_calls(solve, monkeypatch)
            assert all(type(x) is float for x in calls)
            if isinstance(res, ValueError):  # a NaN probe: f fails inside the bracket
                continue
            if isinstance(res, RootResult):
                assert len(calls) == 2 + res.iterations
            assert len(calls) <= _bisection_probes(f, lo, hi) + N0, (lo, hi)
            if in_gated_range:
                gated.append(len(calls))
        assert sum(gated) / len(gated) <= MEAN_PROBES_CEILING


# sha256 of repr of every solver result over the whole accepted range, errors
# as repr(exc): the bytes that every change to the root scans must keep
PIN_P = ((5e-324, 1e-300, 1e-200, 1e-100, 1e-40, 1e-20, 1e-13) + SCAN_P
         + (1e12, 1e20, 1e40, 1e100, 1e160, 1e200, 1e300, 1.7e308))
PIN_M = (1, 2, 3, 4, 7, 64, 100, 1000, 1024)
WIDE_RANGE_SHA256 = "f820b3d23ed8314809d314c5ea8eeaf74833af76f48915ff7eb980ad6acf5106"


def test_solver_results_over_the_whole_input_range_are_pinned():
    def outcome(solve, *args):
        try:
            return repr(solve(*args))
        except Exception as exc:  # the error is part of the pinned bytes
            return repr(exc)

    lines = [outcome(solve, m, p) for p in PIN_P for m in PIN_M
             for solve in (solve_lambda_bc, solve_lambda_mac)]
    lines += [outcome(solve_rho, p, *noise, g)
              for p in PIN_P for noise in OZAROW_NOISES for g in (0.5, 1.0, 1.3)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WIDE_RANGE_SHA256


# ----------------------------------------------------------------------------
# (b, gamma) closed form
# ----------------------------------------------------------------------------


def test_b_gamma_frozen_values():
    bg = solve_b_gamma(LAMBDA_2_10, 2, 10.0)
    assert bg.b == pytest.approx(B_2_10, abs=1e-14)
    assert bg.gamma == pytest.approx(GAMMA_2_10, abs=1e-14)


def test_b_gamma_residuals_small_on_grid():
    for m, p in MP_GRID:
        lam = solve_lambda_bc(m, p).lam
        bg = solve_b_gamma(lam, m, p)
        r10, r11, rq = b_gamma_residuals(bg.b, bg.gamma, lam, m, p)
        assert max(abs(r10), abs(r11), abs(rq)) <= 1e-10


def test_b_gamma_matches_high_precision_newton():
    # solve the two defining identities directly, with no closed form in sight
    for m, p in [(2, 10.0), (4, 1.0), (8, 10.0)]:
        lam = solve_lambda_bc(m, p).lam
        bg = solve_b_gamma(lam, m, p)
        start = (bg.b * 1.07, bg.gamma * 0.9)
        b_hat, gamma_hat = mp_solve_b_gamma(lam, m, p, start)
        assert b_hat == pytest.approx(bg.b, abs=1e-12)
        assert gamma_hat == pytest.approx(bg.gamma, abs=1e-12)


def test_b_gamma_bounds():
    for m, p in MP_GRID:
        lam = solve_lambda_bc(m, p).lam
        bg = solve_b_gamma(lam, m, p)
        assert bg.gamma < 0.0
        assert bg.gamma >= -lam / (1.0 + p * lam) - 1e-12
        assert lam + bg.gamma > 0.0
        assert bg.b > 0.0


def test_b_is_smaller_quadratic_root():
    for m, p in MP_GRID:
        lam = solve_lambda_bc(m, p).lam
        bg = solve_b_gamma(lam, m, p)
        # M b^2 - 2 b sqrt(lam+gamma) + (P/M) lam^2/(1+P lam) = 0 has two
        # positive roots; the schedule needs the smaller one
        s = math.sqrt(lam + bg.gamma)
        c = (p / m) * lam * lam / (1.0 + p * lam)
        other = (s + math.sqrt(s * s - m * c)) / m
        assert bg.b < other


def test_b_gamma_rejects_wrong_lambda():
    with pytest.raises(FixedPointError):
        solve_b_gamma(1.2, 2, 10.0)  # not the fixed point for these (M, P)
    with pytest.raises(ValueError):
        solve_b_gamma(0.0, 2, 10.0)
    with pytest.raises(ValueError):
        solve_b_gamma(2.5, 2, 10.0)  # outside (0, M]


def test_lambda_sequence_shape_and_ratios():
    plan = build_warmup_plan(4, 10.0)
    lam = plan.lam
    seq = np.array(plan.lambda_seq)
    assert seq.shape == (4,)
    assert seq[0] == lam
    ratios = seq[1:] / seq[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert np.all(seq > 0.0)
    assert np.all(np.diff(seq) < 0.0)  # strictly shrinking along the cycle


# ----------------------------------------------------------------------------
# warmup plan
# ----------------------------------------------------------------------------


def test_warmup_plan_frozen_values():
    plan = build_warmup_plan(2, 10.0)
    assert plan.lam == pytest.approx(LAMBDA_2_10, abs=1e-12)
    assert plan.lambda0 == pytest.approx(LAMBDA0_2_10, abs=1e-13)
    assert plan.steady_a**2 == pytest.approx(A_SQ_2_10, abs=1e-13)
    assert plan.steady_beta == pytest.approx(BETA_2_10, abs=1e-13)
    assert plan.beta_b[0] == pytest.approx(U1_2_10, abs=1e-13)
    # the embedding variance (P/M)(lambda0 + gamma)
    assert 5.0 * (plan.lambda0 + plan.bgamma.gamma) == pytest.approx(P0_2_10, abs=1e-12)


def test_warmup_plan_structure():
    for m, p in [(1, 10.0), (2, 1.0), (4, 10.0), (8, 3.0)]:
        plan = build_warmup_plan(m, p)
        assert len(plan.beta_b) == m - 1
        assert len(plan.lambda_seq) == m
        a2 = plan.steady_a**2
        gamma = plan.bgamma.gamma
        # warmup step n acts on lam_n = lambda0 / a**(2(n-1)) and targets
        # d_n = a**(2n); beta_b[n - 1] is the smaller positive root of the
        # documented quadratic, checked here without the plan's shortcut
        for n, u in enumerate(plan.beta_b, start=1):
            lam_n = plan.lambda0 / a2 ** (n - 1)
            shifted = lam_n + gamma
            quad = m * u * u * shifted - 2.0 * u * shifted + (1.0 - a2**n) / m * lam_n
            assert abs(quad) <= 1e-12 * shifted / m
            assert 0.0 < u <= 1.0 / m
        assert plan.steady_beta == pytest.approx(
            1.0 / math.sqrt(plan.lam + plan.bgamma.gamma), rel=1e-15
        )
        assert plan.lambda0 + plan.bgamma.gamma > 0.0
        for u in plan.beta_b:
            assert 0.0 < u < 2.0 / m


def test_warmup_plan_embedding_variance():
    # (P/M)(lambda0 + gamma) embeds the message points; it must stay positive
    # and below the per-source budget P/M over the whole accepted range
    for m in (1, 2, 64, 1024):
        for p in (1e-9, 1.0, 1e9):
            plan = build_warmup_plan(m, p)
            p0 = (p / m) * (plan.lambda0 + plan.bgamma.gamma)
            assert 0.0 < p0 < p / m, (m, p)


def test_warmup_plan_extreme_power_stays_finite():
    # effectively noiseless: discriminant cancellation must be clamped, not fatal
    plan = build_warmup_plan(4, 1e13)
    assert plan.lambda0 + plan.bgamma.gamma > 0.0
    assert all(0.0 < u < 0.5 for u in plan.beta_b)
    assert math.isfinite(plan.steady_beta)


def test_warmup_plan_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        build_warmup_plan(3, 10.0)
    with pytest.raises(ValueError):
        build_warmup_plan(12, 10.0)


# ----------------------------------------------------------------------------
# two-user correlation recursion
# ----------------------------------------------------------------------------

OZ_NOISE = dict(P=10.0, sigma2=0.0, sigma1_2=1.0, sigma2_2=1.0, g=1.0)


def test_rho_star_frozen_value():
    fp = solve_rho(**OZ_NOISE)
    assert fp.rho == pytest.approx(RHO_STAR_10, abs=1e-12)
    # rho* solves 55 x^2 - 127 x + 60 = 0 (see oracles module)
    assert 55 * fp.rho**2 - 127 * fp.rho + 60 == pytest.approx(0.0, abs=1e-10)
    assert fp.a1_star**2 == pytest.approx(A1_STAR_SQ_10, abs=1e-12)
    assert fp.a2_star == pytest.approx(fp.a1_star, rel=1e-12)  # symmetric noises


def test_rho_map_alternates_at_fixed_point():
    fp = solve_rho(**OZ_NOISE)
    assert rho_map(fp.rho, **OZ_NOISE) == pytest.approx(-fp.rho, abs=1e-9)
    assert rho_map(-fp.rho, **OZ_NOISE) == pytest.approx(fp.rho, abs=1e-9)


def test_rho_map_flips_sign():
    assert rho_map(0.5, **OZ_NOISE) < 0.0
    assert rho_map(-0.5, **OZ_NOISE) > 0.0
    assert rho_map(0.0, **OZ_NOISE) < 0.0  # the drift term alone


def test_rho_map_zero_input_hand_value():
    # P=10, g=1, unit private noises, rho=0: the mixing weight halves the
    # drift term, num = -P (P + 2) / 2 = -60 and den = sqrt(11 * 11) * 6 = 66,
    # so one step from independence lands at exactly -10/11
    assert rho_map(0.0, **OZ_NOISE) == pytest.approx(-10.0 / 11.0, rel=1e-14)


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=math.log(0.1), max_value=math.log(100.0)),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=300, deadline=None)
def test_rho_map_is_a_correlation(rho, logp, g, s1, s2):
    out = rho_map(rho, math.exp(logp), 0.0, s1, s2, g)
    assert abs(out) <= 1.0 + 1e-12


def test_rho_map_validation():
    with pytest.raises(ValueError):
        rho_map(1.5, **OZ_NOISE)
    with pytest.raises(ValueError):
        rho_map(0.0, 10.0, 0.0, 0.0, 0.0, 1.0)  # receiver with zero total noise
    with pytest.raises(ValueError):
        rho_map(0.0, 10.0, 0.0, 1.0, 1.0, 0.0)  # g must be positive
    with pytest.raises(ValueError):
        rho_map(0.0, -1.0, 0.0, 1.0, 1.0, 1.0)


def test_solve_rho_asymmetric_noises():
    fp = solve_rho(5.0, 0.25, 1.0, 2.0, 1.3)
    assert 0.0 < fp.rho < 1.0
    assert 0.0 < fp.a1_star < 1.0
    assert 0.0 < fp.a2_star < 1.0
    assert fp.residual <= 1e-10
    assert rho_map(fp.rho, 5.0, 0.25, 1.0, 2.0, 1.3) == pytest.approx(-fp.rho, abs=1e-9)


def test_solve_rho_common_noise_only():
    fp = solve_rho(10.0, 1.0, 0.0, 0.0, 1.0)
    assert 0.0 < fp.rho < 1.0
    assert 0.0 < fp.a1_star < 1.0


@pytest.mark.parametrize("p", SCAN_P)
@pytest.mark.parametrize("noise", OZAROW_NOISES)
def test_rho_map_matches_a_50_digit_reference(p, noise):
    # the textbook numerator, evaluated in floats, is off by up to 3.8e-7 at
    # P = 1e9 (worst at rho = -1); a few ulps of 1 is what rounding allows
    rhos = np.concatenate([np.linspace(-1.0, 1.0, 41), [-0.99995, -1e-4, 1e-4, 0.99995]])
    for g in (0.5, 1.0, 1.3):
        for rho in rhos:
            want = mp_rho_map(rho, p, *noise, g)
            assert rho_map(rho, p, *noise, g) == pytest.approx(want, abs=2e-15), (rho, g)


def test_solve_rho_answers_across_the_power_range():
    # 10 P x 4 noise patterns x 3 g; with the textbook numerator 7 of these
    # stop at float resolution with |f| above the tolerance (P = 1e8, 1e9)
    assert fixedpoint._ROOT_TOL == 1e-12
    for p in (1e-9, 1e-6, 1e-3, 1.0, 10.0, 1e3, 1e4, 1e6, 1e8, 1e9):
        for noise in ((0.0, 1.0, 1.0), (0.0, 0.3, 3.0), (1.0, 0.0, 0.5), (0.5, 1.0, 2.0)):
            for g in (0.5, 1.0, 1.3):
                fp = solve_rho(p, *noise, g)
                assert 0.0 <= fp.rho <= 1.0 and fp.residual <= fixedpoint._ROOT_TOL
                # the root also solves the 50-digit map to the tolerance
                assert abs(fp.rho + mp_rho_map(fp.rho, p, *noise, g)) <= fixedpoint._ROOT_TOL


# ----------------------------------------------------------------------------
# rate reports
# ----------------------------------------------------------------------------


def test_rate_report_symmetric_noise_scaling():
    # rates depend on the noise scale only through P / s
    a = rate_report("symmetric", ChannelConfig(2, 10.0, 0.0, (1.0, 1.0)))
    b = rate_report("symmetric", ChannelConfig(2, 20.0, 0.0, (2.0, 2.0)))
    assert a.per_user == pytest.approx(b.per_user, rel=1e-14)
    assert a.lam == pytest.approx(b.lam, rel=1e-14)


def test_rate_report_symmetric_per_user_value():
    rep = rate_report("symmetric", ChannelConfig(2, 10.0, 0.0, (1.0, 1.0)))
    lam = LAMBDA_2_10
    expect = 0.5 * math.log2((1.0 + 10.0 * lam) / (1.0 + 5.0 * lam * (2.0 - lam)))
    assert rep.per_user[0] == pytest.approx(expect, abs=1e-12)
    # at the fixed point this equals the equal split of the sum rate
    assert rep.per_user[0] == pytest.approx(rep.sum_rate / 2.0, abs=1e-10)


def test_rate_report_degraded_extras():
    rep = rate_report("degraded", ChannelConfig(2, 3.0, 0.5, (0.0, 0.0)))
    p_eff = 3.0 / 0.5
    sol = solve_lambda_bc(2, p_eff)
    assert rep.lam == pytest.approx(sol.lam, rel=1e-14)
    assert rep.avg_power == pytest.approx(3.0 * sol.lam, rel=1e-14)
    assert rep.capacity_at_budget == pytest.approx(0.5 * math.log2(1.0 + p_eff), rel=1e-14)


def test_rate_report_ozarow_per_user():
    rep = rate_report("ozarow2", ChannelConfig(2, 10.0, 0.0, (1.0, 1.0)))
    fp = solve_rho(**OZ_NOISE)
    assert rep.per_user[0] == pytest.approx(-math.log2(fp.a1_star), rel=1e-14)
    assert rep.per_user[1] == pytest.approx(-math.log2(fp.a2_star), rel=1e-14)
    assert rep.rho == pytest.approx(fp.rho, rel=1e-14)


def test_rate_report_targets_and_bases():
    rep = rate_report("symmetric", ChannelConfig(2, 10.0, 0.0, (1.0, 1.0)),
                      rate_fraction=0.25)
    for r, t, base in zip(rep.per_user, rep.target_rates, rep.exponent_bases):
        assert t == pytest.approx(0.25 * r, rel=1e-15)
        assert base == pytest.approx(2.0 ** (2.0 * (r - t)), rel=1e-15)
        assert base > 1.0


def test_rate_report_validation():
    ch = ChannelConfig(2, 10.0, 0.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        rate_report("nope", ch)
    with pytest.raises(ValueError):
        rate_report("symmetric", ch, rate_fraction=1.0)
    with pytest.raises(ValueError):
        rate_report("symmetric", ChannelConfig(2, 1.0, 0.5, (1.0, 1.0)))
    with pytest.raises(ValueError):
        rate_report("degraded", ChannelConfig(2, 1.0, 0.5, (1.0, 0.0)))
    with pytest.raises(ValueError):
        rate_report("ozarow2", ChannelConfig(4, 1.0, 0.0, (1.0,) * 4))
    with pytest.raises(ValueError):
        rate_report("symmetric", ChannelConfig(3, 1.0, 0.0, (1.0,) * 3))
    with pytest.raises(ValueError):
        rate_report("degraded", ChannelConfig(3, 1.0, 1.0, (0.0,) * 3))
