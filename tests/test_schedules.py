import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcfeedback.channel import ChannelConfig
from bcfeedback.fixedpoint import build_warmup_plan, rho_map, solve_lambda_bc, solve_rho
from bcfeedback.montecarlo import prepare_scheme
from bcfeedback.numerics import sylvester_hadamard
from bcfeedback.schedules import (
    _CHECK_TOL,
    DEFAULT_NOISE,
    SCHEME_IDS,
    HadamardSchedule,
    ScheduleInvariantError,
    check_channel,
    covariance_update,
    hadamard_eigen_profile,
    make_schedule,
    rate_report,
)
from oracles import (
    LAMBDA_2_1,
    dense_eigen_profile,
    dense_step,
    dense_update,
    hadamard_eigen_step,
    mmse_steps,
    mp_degraded_steps,
    mp_dense_eigenvalues,
)

OZ_CHANNEL = ChannelConfig(2, 10.0, 0.0, (1.0, 1.0))
DEG_CHANNEL = ChannelConfig(2, 1.0, 1.0, (0.0, 0.0))
SYM_CHANNEL = ChannelConfig(2, 10.0, 0.0, (1.0, 1.0))


# ----------------------------------------------------------------------------
# covariance propagation
# ----------------------------------------------------------------------------


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def test_covariance_update_reproduces_correlation_recursion():
    # the schedule-independent moment update must agree with the dedicated
    # two-user correlation map, step after step
    ch = OZ_CHANNEL
    sched = HadamardSchedule.ozarow2(ch, mode="tracked")
    p_share = ch.power_budget / 2.0
    R = np.eye(2)  # sources start independent with variance p0 = P/2
    rho_pred = 0.0
    for _ in range(12):
        R = dense_update(R, dense_step(sched, sched.unroll(1)), ch, p_share)
        rho_pred = rho_map(rho_pred, ch.power_budget, ch.common_noise_var,
                           ch.private_noise_vars[0], ch.private_noise_vars[1], 1.0)
        rho_from_r = R[0, 1] / math.sqrt(R[0, 0] * R[1, 1])
        assert rho_from_r == pytest.approx(rho_pred, abs=1e-12)
        # the correlation map's derivation also pins the diagonal to 1
        assert R[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert R[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_covariance_update_shape_and_symmetry_checks():
    ch = DEG_CHANNEL
    step = (np.ones(2), 1.0, np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        covariance_update(np.eye(3), *step, ch, 1.0)
    with pytest.raises(ValueError):
        covariance_update(np.eye(2), *step, ch, 0.0)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=-0.9, max_value=0.9),
)
@settings(max_examples=150, deadline=None)
def test_covariance_update_keeps_symmetry_and_psd(seed, scale, rho):
    rng = np.random.default_rng(seed)
    R = scale * np.array([[1.0, rho], [rho, 1.0]])
    alpha = rng.uniform(-1.5, 1.5, 2)
    beta = float(rng.uniform(0.2, 1.5))
    a = rng.uniform(0.3, 1.4, 2)
    b = rng.uniform(-0.8, 0.8, 2)
    out = covariance_update(R, alpha, beta, a, b, OZ_CHANNEL, 5.0)
    assert np.array_equal(out, out.T)
    evals = np.linalg.eigvalsh(out)
    assert evals.min() >= -1e-12 * max(1.0, evals.max())


def test_hadamard_eigen_profile_on_known_matrix():
    cols = np.array([[1.0, 1.0], [1.0, -1.0]])
    G = np.array([[2.0, 0.5], [0.5, 2.0]])
    vals, resid = dense_eigen_profile(G, cols)
    assert vals == pytest.approx([2.5, 1.5], rel=1e-15)
    assert resid == pytest.approx([0.0, 0.0], abs=1e-14)


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-16.0, max_value=0.0),
    st.floats(min_value=-0.05, max_value=0.05),
)
@settings(max_examples=80, deadline=None)
def test_dyadic_profile_matches_the_dense_oracle_and_is_never_weaker(k, seed, log_eps, mu_min):
    # a dyadic matrix with eigenvalues mu (one of them near zero) plus a
    # symmetric perturbation of relative size 10^log_eps
    m = 2**k
    rng = np.random.default_rng(seed)
    cols = sylvester_hadamard(k).astype(float)
    i = np.arange(m)
    mu = rng.uniform(0.01, 1.0, m)
    mu[rng.integers(m)] = mu_min
    G = (cols.T @ mu / m)[i[:, None] ^ i]
    E = rng.standard_normal((m, m))
    E = E + E.T
    G = G + 10.0**log_eps * np.linalg.norm(G) * E / np.linalg.norm(E)
    scale = np.linalg.norm(G)

    vals, resid = hadamard_eigen_profile(G, cols, (i[:, None] ^ i) + m * i)
    want_vals, col_resid = dense_eigen_profile(G, cols)
    assert vals == pytest.approx(want_vals, rel=1e-12, abs=1e-12 * scale)
    rms = math.sqrt(np.mean(col_resid**2))
    assert resid == pytest.approx(rms, rel=1e-12, abs=1e-12 * scale)
    # a dyadic residual within tol ||G||_F / sqrt(M) bounds every column residual ...
    if resid <= _CHECK_TOL * scale / math.sqrt(m):
        assert np.max(col_resid) <= _CHECK_TOL * scale
    # ... and, by Weyl, Rayleigh quotients above the residual imply lambda_min > 0
    if np.min(vals) > resid:
        assert np.min(np.linalg.eigvalsh(G)) > 0.0


@pytest.mark.parametrize("scheme, m, horizon", [
    ("symmetric", 64, 1000),
    ("degraded", 64, 1000),
    ("symmetric", 256, 200),
])
def test_covariance_update_follows_the_hadamard_eigenvalue_recursion(scheme, m, horizon):
    if scheme == "symmetric":
        ch = ChannelConfig(m, 10.0, 0.0, (1.0,) * m)
    else:
        ch = ChannelConfig(m, 10.0, 1.0, (0.0,) * m)
    # neither schedule keeps a dense R, so it is propagated here from the
    # emitted steps; both carry its Hadamard eigenvalues mu
    sched = make_schedule(scheme, ch, check_invariants=True)
    if scheme == "symmetric":
        R = (sched.plan.lambda0 + sched.gamma) * np.eye(m)
    else:
        R = np.eye(m)
    mu = sched.table.T @ R[0]
    worst = 0.0
    for n in range(horizon):
        j = n % m
        step = sched.unroll(1)
        assert step[0].tolist() == [j]
        dense = dense_step(sched, step)
        assert np.array_equal(dense.alpha, sched.table[:, j])
        mu = hadamard_eigen_step(mu, j, dense, ch, sched.p_share)
        R = dense_update(R, dense, ch, sched.p_share)
        got = sched.table.T @ R[0]
        worst = max(worst, np.max(np.abs(got - mu)) / np.max(np.abs(got)))
        if scheme == "symmetric":
            assert _rel_err(sched.mu, got) <= 1e-11
    assert worst <= 1e-11


@pytest.mark.parametrize("scheme", ["degraded", "symmetric"])
def test_hadamard_schedules_step_without_dense_state(scheme):
    # a step at M = 1024, checked or not, touches O(M) memory; a dense M x M
    # covariance update would allocate several 8 MiB temporaries
    m = 1024
    if scheme == "symmetric":
        ch = ChannelConfig(m, 10.0, 0.0, (1.0,) * m)
    else:
        ch = ChannelConfig(m, 10.0, 1.0, (0.0,) * m)
    for checked in (False, True):
        sched = make_schedule(scheme, ch, check_invariants=checked)
        sched.table  # the shared Hadamard table, built once per order at the first use
        tracemalloc.start()
        try:
            for _ in range(32):
                sched.unroll(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_hadamard_schedules_share_one_read_only_table():
    m = 64
    tables = [
        make_schedule("degraded", ChannelConfig(m, 10.0, 1.0, (0.0,) * m)).table,
        make_schedule("symmetric", ChannelConfig(m, 10.0, 0.0, (1.0,) * m)).table,
        make_schedule("symmetric", ChannelConfig(m, 1e3, 0.0, (2.0,) * m),
                      check_invariants=False).table,
    ]
    assert all(t is tables[0] for t in tables)
    assert tables[0] is sylvester_hadamard(6)
    assert not tables[0].flags.writeable
    # every scheme mixes with float64 rows of one table per width: ozarow2
    # and the two-receiver Hadamard schemes share H_2
    two = []
    for scheme in SCHEME_IDS:
        common, private = DEFAULT_NOISE[scheme]
        two.append(make_schedule(scheme, ChannelConfig(2, 10.0, common, (private,) * 2)).table)
    assert all(t is sylvester_hadamard(1) for t in two)
    assert tables[0].dtype == two[0].dtype == np.float64


# ----------------------------------------------------------------------------
# two-user schedule
# ----------------------------------------------------------------------------


def test_ozarow_tracked_correlation_converges_to_alternating_fixed_point():
    # the tracked recursion contracts at roughly 0.83 per step here, so 150
    # steps push the magnitude gap well under 1e-9
    sched = HadamardSchedule.ozarow2(OZ_CHANNEL, mode="tracked")
    rho_star = sched.fixed_point.rho
    rhos = []
    for _ in range(150):
        sched.unroll(1)
        rhos.append(sched.rho)
    tail = rhos[-6:]
    assert [abs(abs(r) - rho_star) < 1e-9 for r in tail] == [True] * 6
    signs = [r > 0 for r in tail]
    assert signs == [not signs[0] if i % 2 else signs[0] for i in range(6)]


def test_ozarow_pinned_alternates_exactly():
    sched = HadamardSchedule.ozarow2(OZ_CHANNEL, mode="pinned")
    rho_star = sched.fixed_point.rho
    assert sched.rho == rho_star
    sched.unroll(1)
    assert sched.rho == -rho_star
    sched.unroll(1)
    assert sched.rho == rho_star


def test_ozarow_pinned_params_match_fixed_point():
    sched = HadamardSchedule.ozarow2(OZ_CHANNEL, mode="pinned")
    fp = sched.fixed_point
    _, _, a, _, power = sched.unroll(1)
    # one formula for the contraction factors, so the pinned step is exact
    assert a[0, 0] == fp.a1_star
    assert a[0, 1] == fp.a2_star
    assert power[0] == OZ_CHANNEL.power_budget


def test_ozarow_tracked_power_is_budget_each_step():
    # beta renormalises to the tracked second moments, so the analytic power
    # equals the budget at every step, including the transient
    sched = HadamardSchedule.ozarow2(OZ_CHANNEL, mode="tracked")
    for _ in range(50):
        assert sched.unroll(1)[4].tolist() == [OZ_CHANNEL.power_budget]


def test_ozarow_rate_limits():
    sched = HadamardSchedule.ozarow2(OZ_CHANNEL)
    fp = sched.fixed_point
    limits = sched.rate_limits()
    assert limits[0] == pytest.approx(-math.log2(fp.a1_star), rel=1e-14)
    assert limits[1] == pytest.approx(-math.log2(fp.a2_star), rel=1e-14)


def test_ozarow_asymmetric_gain_changes_split():
    even = HadamardSchedule.ozarow2(OZ_CHANNEL, g=1.0).rate_limits()
    skew = HadamardSchedule.ozarow2(OZ_CHANNEL, g=2.0).rate_limits()
    assert even[0] == pytest.approx(even[1], rel=1e-12)
    assert skew[0] != pytest.approx(skew[1], rel=1e-6)


@pytest.mark.parametrize("g, common, private", [
    (1.0, 0.0, (1.0, 1.0)), (1.3, 0.0, (1.0, 1.0)), (0.5, 0.5, (1.0, 2.0)),
])
def test_ozarow_tracked_steps_are_the_mmse_recursion(g, common, private):
    # the Ozarow-Leung scheme: mix with alpha = (1, +-g), the sign following
    # the source correlation, and give each receiver its MMSE coefficients
    ch = ChannelConfig(2, 10.0, common, private)
    sched = make_schedule("ozarow2", ch, g=g)
    want = [dense_step(sched, sched.unroll(1)) for _ in range(300)]
    got = mmse_steps(ch, lambda n, R: (1.0, g if R[0, 1] >= 0.0 else -g), 300)
    for u, v in zip(want, got):
        assert np.array_equal(u.alpha, v.alpha)
        assert v.beta == pytest.approx(u.beta, rel=1e-14)
        assert v.a == pytest.approx(u.a, rel=1e-14)
        assert v.b == pytest.approx(u.b, rel=1e-14)
    assert -np.log2(got[-1].a) == pytest.approx(sched.rate_limits(), rel=1e-13)


@pytest.mark.parametrize("m, p, kramer", [(2, 1.0, 0.5605), (4, 10.0, 2.2399), (8, 100.0, 4.3492)])
def test_symmetric_beats_the_kramer_style_sum_rate(m, p, kramer):
    # Kramer (2002) rebuilt with real Hadamard columns: step n mixes with
    # column (n - 1) mod M and every receiver takes its MMSE coefficients.
    # Its sum rate, read off the last cycle's contractions, stays strictly
    # below the symmetric scheme's
    ch = ChannelConfig(m, p, 0.0, (1.0,) * m)
    columns = sylvester_hadamard(m.bit_length() - 1)
    steps = mmse_steps(ch, lambda n, R: columns[:, (n - 1) % m], 60 * m)
    sum_rate = float(-np.log2([s.a for s in steps[-m:]]).sum()) / m
    assert sum_rate == pytest.approx(kramer, abs=5e-5)
    assert sum_rate < HadamardSchedule.symmetric(ch).solved()["sum_rate"]


@pytest.mark.parametrize("g, excess", [
    (0.25, 0.0979), (0.5, 0.1492), (1.0, 0.1353), (2.0, 0.0676), (4.0, 0.0173),
])
def test_ozarow_pair_lies_outside_the_no_feedback_region(g, excess):
    # feedback enlarges the region: private noises N1 = 1 < N2 = 2 make a
    # degraded channel, whose no-feedback region is superposition coding's.
    # The power split that gives R1 = 1/2 log2(1 + split P / N1) leaves
    # R2 <= 1/2 log2(1 + (1 - split) P / (split P + N2)), and the ozarow2
    # pair's R2 exceeds that bound at its own R1
    p, n1, n2 = 10.0, 1.0, 2.0
    r1, r2 = rate_report("ozarow2", ChannelConfig(2, p, 0.0, (n1, n2)), g=g).per_user
    split = n1 * (2.0 ** (2.0 * r1) - 1.0) / p
    assert 0.0 < split < 1.0
    bound = 0.5 * math.log2(1.0 + (1.0 - split) * p / (split * p + n2))
    assert r2 - bound == pytest.approx(excess, abs=1e-4)
    assert r2 > bound


# the two-user unroll over modes, gains, noises (common, private, both,
# unequal) and powers: the bytes of every prepared row, errors by type only.
# The first tracked step rounds rho past 1 at P = 1e17, g = 1.3, on every noise
UNROLL_NOISES = ((0.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.5, 1.0, 2.0), (0.0, 0.3, 3.0))
UNROLL_P = (1e-9, 1e-3, 1.0, 10.0, 1e3, 1e6, 1e9, 1e12, 1e14, 1e17)
UNROLL_FAILS = {("tracked", 1.3, noise, 1e17) for noise in UNROLL_NOISES}
OZAROW2_UNROLL_SHA256 = "66f83bcd7e334340e2d4a81e5b452bf425c7f249f18650faced3c76663915c25"


def test_ozarow2_unroll_bytes_are_pinned():
    digest, fails = hashlib.sha256(), set()
    for mode in ("tracked", "pinned"):
        for g in (0.5, 1.0, 1.3):
            for noise in UNROLL_NOISES:
                for p in UNROLL_P:
                    ch = ChannelConfig(2, p, noise[0], noise[1:])
                    try:
                        pr = prepare_scheme("ozarow2", ch, 300, g=g, rho_mode=mode)
                    except ValueError as exc:
                        fails.add((mode, g, noise, p))
                        digest.update(type(exc).__name__.encode())
                        continue
                    for arr in (pr.row, pr.beta, pr.a, pr.b, pr.expected_power,
                                pr.rate_limits, np.float64(pr.p0)):
                        digest.update(arr.tobytes())
    assert fails == UNROLL_FAILS
    assert digest.hexdigest() == OZAROW2_UNROLL_SHA256


# the Hadamard unroll with the symmetric checks on, over both schemes, M up
# to 1024 and P over 1e-9..1e9: the bytes of every prepared row, errors by
# type only.  The second horizon ends inside a block of checked states: a
# block holds 2**16 floats, so from M = 16 on it crosses at least one
HADAMARD_UNROLL_M = (1, 2, 4, 16, 128, 1024)
HADAMARD_UNROLL_P = (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)
HADAMARD_UNROLL_SHA256 = "cecb7f5bab12f0406b95a2c3d2e94c1b34313ae0f2675e0e8a8c55c297a144bd"


def test_hadamard_unroll_bytes_are_pinned():
    digest, fails = hashlib.sha256(), set()
    for scheme in ("symmetric", "degraded"):
        common, private = DEFAULT_NOISE[scheme]
        for m in HADAMARD_UNROLL_M:
            for p in HADAMARD_UNROLL_P:
                ch = ChannelConfig(m, p, common, (private,) * m)
                for horizon in (2 * m + 1, min(6200, 3 * 2**15 // m + 1)):
                    try:
                        pr = prepare_scheme(scheme, ch, horizon, check_invariants=True)
                    except (ValueError, RuntimeError) as exc:
                        fails.add((scheme, m, p, horizon))
                        digest.update(type(exc).__name__.encode())
                        continue
                    for arr in (pr.row, pr.beta, pr.a, pr.b, pr.expected_power,
                                pr.rate_limits, np.float64(pr.p0)):
                        digest.update(arr.tobytes())
    assert fails == set()
    assert digest.hexdigest() == HADAMARD_UNROLL_SHA256


def test_ozarow_validation():
    with pytest.raises(ValueError):
        HadamardSchedule.ozarow2(ChannelConfig(4, 1.0, 0.0, (1.0,) * 4))
    with pytest.raises(ValueError):
        HadamardSchedule.ozarow2(OZ_CHANNEL, mode="drifting")


# ----------------------------------------------------------------------------
# degraded schedule
# ----------------------------------------------------------------------------


def test_degraded_first_normalised_powers_are_exact_fractions():
    # hand-propagated moments for M=2, P=1, sigma^2=1: the normalised
    # per-step power q_n / M starts 1, 4/3, 14/13 (see the covariance algebra)
    sched = HadamardSchedule.degraded(DEG_CHANNEL)
    mus = []
    for _ in range(3):
        power = sched.unroll(1)[4]
        mus.append(power[0] / DEG_CHANNEL.power_budget)
    assert mus[0] == pytest.approx(1.0, abs=1e-14)
    assert mus[1] == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert mus[2] == pytest.approx(14.0 / 13.0, abs=1e-14)


def test_degraded_diagonal_stays_unit():
    # a dense R propagated by covariance_update from the emitted steps: the
    # coefficients are the MMSE ones read off R, mu holds R's Hadamard eigenvalues,
    # and R's diagonal (the mean of mu) stays 1
    for m in (1, 2, 64, 256):
        ch = ChannelConfig(m, 10.0, 1.0, (0.0,) * m)
        sched = HadamardSchedule.degraded(ch)
        cols = sched.table
        R = np.eye(m)
        for _ in range(2 * m + 20):
            alpha = cols[:, (sched.step_index - 1) % m]
            w = R @ alpha
            q = float(alpha @ w)
            out_var = q + ch.common_noise_var / sched.p_share
            step = dense_step(sched, sched.unroll(1))
            assert _rel_err(step.b, w / out_var) <= 1e-11
            assert _rel_err(step.a, np.sqrt(np.diag(R) - w * w / out_var)) <= 1e-11
            assert step.expected_power == pytest.approx(sched.p_share * q, rel=1e-11)
            R = dense_update(R, step, ch, sched.p_share)
            assert _rel_err(cols.T @ R[0], sched.mu) <= 1e-11
            assert np.max(np.abs(np.diag(R) - 1.0)) < 1e-12
            assert abs(np.mean(sched.mu) - 1.0) < 1e-12


def test_degraded_coefficients_match_a_40_digit_dense_oracle():
    # at P = 1e4 the updated mu_j is ~1e-4 of mu_j, so a form that subtracts
    # M mu_j^2 / out_var from mu_j loses four digits; these stay at ulp level
    m, p = 8, 1e4
    ch = ChannelConfig(m, p, 1.0, (0.0,) * m)
    sched = HadamardSchedule.degraded(ch)
    for a, b, power in mp_degraded_steps(m, p, 1.0, 100):
        step = dense_step(sched, sched.unroll(1))
        assert _rel_err(step.a, a) <= 1e-14
        assert _rel_err(step.b, b) <= 1e-14
        assert step.expected_power == pytest.approx(power, rel=1e-14)


def test_degraded_power_converges_to_lambda_budget():
    sched = HadamardSchedule.degraded(DEG_CHANNEL)
    mus = sched.unroll(4000)[4]
    # pointwise oscillation collapses onto lambda and the running mean lands there
    assert mus[-1] == pytest.approx(LAMBDA_2_1, abs=1e-9)
    assert mus.mean() == pytest.approx(LAMBDA_2_1, rel=1e-3)


def test_degraded_eigen_current_tracks_lambda_for_m4():
    ch = ChannelConfig(4, 10.0, 1.0, (0.0,) * 4)
    sched = HadamardSchedule.degraded(ch)
    lam = solve_lambda_bc(4, 10.0).lam
    q_tail = (sched.unroll(2000)[4] / (10.0 / 4))[-8:]
    assert np.mean(q_tail) / 4 == pytest.approx(lam, abs=1e-9)


def test_degraded_rate_limits_use_effective_power():
    ch = ChannelConfig(2, 4.0, 2.0, (0.0, 0.0))
    sched = HadamardSchedule.degraded(ch)
    lam = solve_lambda_bc(2, 2.0).lam  # P_eff = 4 / 2
    expect = 0.5 * math.log2((1.0 + 2.0 * lam) / (1.0 + lam * (2.0 - lam)))
    assert sched.rate_limits() == pytest.approx([expect, expect], rel=1e-13)


def test_degraded_validation():
    with pytest.raises(ValueError):
        HadamardSchedule.degraded(ChannelConfig(2, 1.0, 1.0, (0.5, 0.0)))
    with pytest.raises(ValueError):
        HadamardSchedule.degraded(ChannelConfig(2, 1.0, 0.0, (1.0, 1.0)))
    with pytest.raises(ValueError):
        HadamardSchedule.degraded(ChannelConfig(3, 1.0, 1.0, (0.0,) * 3))


# ----------------------------------------------------------------------------
# symmetric schedule
# ----------------------------------------------------------------------------


def test_symmetric_power_exact_after_warmup():
    sched = HadamardSchedule.symmetric(SYM_CHANNEL)
    powers = sched.unroll(40)[4].tolist()
    m = SYM_CHANNEL.num_receivers
    for n, pw in enumerate(powers, start=1):
        if n >= m:
            assert pw == pytest.approx(SYM_CHANNEL.power_budget, rel=1e-10)
        else:
            assert pw < SYM_CHANNEL.power_budget


def test_symmetric_warmup_powers_increase():
    ch = ChannelConfig(8, 10.0, 0.0, (1.0,) * 8)
    sched = HadamardSchedule.symmetric(ch)
    powers = sched.unroll(8)[4].tolist()
    assert powers[:7] == sorted(powers[:7])
    assert powers[7] == pytest.approx(10.0, rel=1e-10)


@pytest.mark.parametrize("m", [2, 4, 8, 64])
@pytest.mark.parametrize("p", [1.0, 10.0, 100.0])
def test_symmetric_table_spends_p_while_contracting_at_the_rate_limit(m, p):
    # The LQG claim without the sum-rate equation: over the last cycle of M
    # steps the unrolled table spends P on average and each receiver's source
    # contracts at its reported rate.  The invariant checks are off, so this
    # stands on its own: lambda·(1 + 1e-9) moves the mean power by 1.6e-9 to
    # 2.5e-8 of P
    ch = ChannelConfig(m, p, 0.0, (1.0,) * m)
    table = prepare_scheme("symmetric", ch, 8 * m, check_invariants=False)
    assert math.fsum(table.expected_power[-m:]) / m == pytest.approx(p, rel=1e-12)
    rates = -np.log2(np.broadcast_to(table.a[-m:], (m, m))).mean(axis=0)  # one a for all
    assert rates == pytest.approx(table.rate_limits, rel=1e-12)


def _dense_R(sched, steps, R=None):
    """R propagated densely through the next emitted steps, from R or the schedule's start."""
    ch = sched.channel
    if R is None:
        R = (sched.plan.lambda0 + sched.gamma) * np.eye(ch.num_receivers)
    for _ in range(steps):
        R = dense_update(R, dense_step(sched, sched.unroll(1)), ch, sched.p_share)
    return R


def test_symmetric_eigen_multiset_is_the_lambda_cycle():
    ch = ChannelConfig(4, 10.0, 0.0, (1.0,) * 4)
    sched = HadamardSchedule.symmetric(ch)
    R = _dense_R(sched, 4)
    got = np.sort(np.linalg.eigvalsh(R - sched.gamma * np.eye(4)))
    want = np.sort(np.asarray(sched.plan.lambda_seq))
    assert got == pytest.approx(want, rel=1e-9)


def test_symmetric_eigen_assignment_rotates_one_column_per_step():
    ch = ChannelConfig(4, 10.0, 0.0, (1.0,) * 4)
    sched = HadamardSchedule.symmetric(ch)
    R = _dense_R(sched, 8)
    before, _ = dense_eigen_profile(R - sched.gamma * np.eye(4), sched.table)
    R = _dense_R(sched, 1, R)
    after, _ = dense_eigen_profile(R - sched.gamma * np.eye(4), sched.table)
    # one step advances every eigenvalue one position along the column cycle
    assert after == pytest.approx(np.roll(before, 1), rel=1e-9)
    assert sorted(after) == pytest.approx(sorted(before), rel=1e-9)


def test_symmetric_invariants_hold_for_300_steps():
    sched = HadamardSchedule.symmetric(SYM_CHANNEL, check_invariants=True)
    sched.unroll(300)  # _verify raises on any drift
    assert sched.step_index >= sched.plan.M  # past warmup


def test_symmetric_invariant_check_names_the_first_failing_step(monkeypatch):
    # Two faults planted in one run of prepare_scheme, well inside the first
    # block of checked states.  Row 9 starts between gamma and 0 and its
    # warmup scaling is spoilt so that its reset at step 10 multiplies it by
    # (1 - 5.5)^2: the state before step 11 has an eigenvalue below gamma.
    # Row 20 starts at the largest float times a^(2 * 10.5), and 1/a^2 per
    # step carries it past the largest float during step 11.  The report
    # names step 11 and positivity, and nothing warns: no step after a bad
    # state may print an overflow
    m, bad = 64, 9

    def spoilt(*args, **kwargs):
        sched = make_schedule(*args, **kwargs)
        plan = sched.plan
        beta_b = list(plan.beta_b)
        beta_b[bad] = 5.5 / m
        sched.plan = dataclasses.replace(plan, beta_b=tuple(beta_b))
        sched.mu[bad] = sched.gamma / 2.0
        sched.mu[20] = 1.7976931348623157e308 * plan.steady_a ** 21
        return sched

    monkeypatch.setattr("bcfeedback.montecarlo.make_schedule", spoilt)
    ch = ChannelConfig(m, 10.0, 0.0, (1.0,) * m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScheduleInvariantError) as info:
            prepare_scheme("symmetric", ch, 40)
    assert str(info.value) == "G lost positive definiteness at step 11"


def test_symmetric_invariant_check_catches_eigenvalue_drift():
    # moving two eigenvalues apart leaves them positive but off the planned profile
    sched = HadamardSchedule.symmetric(SYM_CHANNEL)
    sched.unroll(1)  # finish warmup so the steady profile is in force
    sched.mu += np.array([0.05, -0.05])
    with pytest.raises(ScheduleInvariantError, match="drifted"):
        sched.unroll(1)


def test_symmetric_invariant_check_catches_lost_positive_definiteness():
    # a uniform shift drives every eigenvalue of G negative
    sched = HadamardSchedule.symmetric(ChannelConfig(4, 10.0, 0.0, (1.0,) * 4))
    sched.mu -= 10.0
    with pytest.raises(ScheduleInvariantError, match="lost positive definiteness"):
        sched.unroll(1)


def test_symmetric_invariant_check_catches_lost_finiteness():
    sched = HadamardSchedule.symmetric(ChannelConfig(4, 10.0, 0.0, (1.0,) * 4))
    sched.mu[1] = np.nan
    with pytest.raises(ScheduleInvariantError, match="lost finiteness"):
        sched.unroll(1)


@pytest.mark.parametrize("m", [2, 8])
@pytest.mark.parametrize("p", [1e6, 1e9])
def test_symmetric_eigenvalue_carry_matches_a_40_digit_dense_oracle(m, p):
    # at these powers a float64 dense R drifts from these eigenvalues by up to
    # 4e-9 (P = 1e6) and 3e-6 (P = 1e9) relative; the factored carry stays at ulp level
    ch = ChannelConfig(m, p, 0.0, (1.0,) * m)
    sched = HadamardSchedule.symmetric(ch, check_invariants=True)
    r0 = float(sched.mu[0])
    steps, carried = [], []
    for _ in range(3 * m):
        steps.append(dense_step(sched, sched.unroll(1)))
        carried.append(sched.mu.copy())
    oracle = mp_dense_eigenvalues(steps, ch, sched.p_share, r0)
    for got, want in zip(carried, oracle):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
    # E[x^2] is read off column j's eigenvalue as it stands before the step
    before = [np.full(m, r0)] + oracle[:-1]
    for n, (step, mu) in enumerate(zip(steps, before)):
        want = sched.p_share * m * step.beta**2 * mu[n % m]
        assert abs(step.expected_power - want) <= 1e-14 * want


def test_symmetric_checks_run_without_an_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the invariant checks called an eigendecomposition")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    sched = HadamardSchedule.symmetric(ChannelConfig(16, 10.0, 0.0, (1.0,) * 16), check_invariants=True)
    sched.unroll(32)
    assert sched.step_index >= sched.plan.M  # past warmup


def test_symmetric_noise_scale_invariance():
    # (a, b, beta) depend on the noise scale only through P / s
    a = HadamardSchedule.symmetric(ChannelConfig(2, 10.0, 0.0, (1.0, 1.0)))
    b = HadamardSchedule.symmetric(ChannelConfig(2, 40.0, 0.0, (4.0, 4.0)))
    (row_a, *sa), (row_b, *sb) = a.unroll(1), b.unroll(1)
    assert row_a.tolist() == row_b.tolist()
    for u, v in zip(sa[:3], sb[:3]):  # beta, a, b
        assert u == pytest.approx(v, rel=1e-13)
    # the embedding variance carries the physical scale back in
    assert b.p0 == pytest.approx(4.0 * a.p0, rel=1e-13)


def test_symmetric_single_receiver_runs():
    ch = ChannelConfig(1, 10.0, 0.0, (1.0,))
    sched = HadamardSchedule.symmetric(ch)
    power = sched.unroll(1)[4]
    assert power[0] == pytest.approx(10.0, rel=1e-12)
    # one receiver: the rate limit is the point-to-point capacity
    assert sched.rate_limits()[0] == pytest.approx(0.5 * math.log2(11.0), rel=1e-12)


def test_symmetric_validation():
    with pytest.raises(ValueError):
        HadamardSchedule.symmetric(ChannelConfig(2, 1.0, 0.5, (1.0, 1.0)))
    with pytest.raises(ValueError):
        HadamardSchedule.symmetric(ChannelConfig(2, 1.0, 0.0, (1.0, 2.0)))
    with pytest.raises(ValueError):
        HadamardSchedule.symmetric(ChannelConfig(6, 1.0, 0.0, (1.0,) * 6))


def test_symmetric_steady_state_agrees_with_plan_p0():
    ch = ChannelConfig(4, 10.0, 0.0, (2.0, 2.0, 2.0, 2.0))
    sched = HadamardSchedule.symmetric(ch)
    plan = build_warmup_plan(4, 5.0)
    assert sched.p0 == pytest.approx((10.0 / 4) * (plan.lambda0 + plan.bgamma.gamma),
                                     rel=1e-13)


# ----------------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------------


def test_make_schedule_dispatch():
    assert isinstance(make_schedule("ozarow2", OZ_CHANNEL), HadamardSchedule)
    assert isinstance(make_schedule("degraded", DEG_CHANNEL), HadamardSchedule)
    assert isinstance(make_schedule("symmetric", SYM_CHANNEL), HadamardSchedule)
    assert set(SCHEME_IDS) == {"ozarow2", "degraded", "symmetric"}
    with pytest.raises(ValueError):
        make_schedule("other", OZ_CHANNEL)


def test_check_channel_names_the_schemes_for_an_unknown_one():
    with pytest.raises(ValueError, match=r"unknown scheme 'nope'; expected one of \('ozarow2'"):
        check_channel("nope", SYM_CHANNEL)


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_default_noise_is_a_channel_the_scheme_accepts(scheme):
    assert set(DEFAULT_NOISE) == set(SCHEME_IDS)
    common, private = DEFAULT_NOISE[scheme]
    for m in (2,) if scheme == "ozarow2" else (1, 2, 4):
        check_channel(scheme, ChannelConfig(m, 10.0, common, (private,) * m))
