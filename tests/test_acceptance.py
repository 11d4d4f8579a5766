"""Acceptance suite: ten end-to-end criteria, one test (one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py``; every criterion prints its
measured numbers, which pytest shows on failure (or under -s).  Time budgets
are asserted with generous margins so a regression to quadratic behaviour
fails loudly rather than silently slowing the suite.
"""

import math
import time

import numpy as np
import pytest

from bcfeedback.channel import ChannelConfig
from bcfeedback.core import IntervalPolicy
from bcfeedback.fixedpoint import (
    b_gamma_residuals,
    build_warmup_plan,
    rho_map,
    solve_b_gamma,
    solve_lambda_bc,
    solve_lambda_mac,
    solve_rho,
)
from bcfeedback.montecarlo import default_policies, prepare_scheme, run_batch
from bcfeedback.numerics import sylvester_hadamard
from bcfeedback.schedules import HadamardSchedule, rate_report
from oracles import (
    LAMBDA_2_1,
    LAMBDA_2_10,
    RHO_STAR_10,
    dense_eigen_profile,
    dense_step,
    dense_update,
    mp_solve_b_gamma,
)

# receiver counts x power budgets; odd receiver counts keep the solver honest
# away from the power-of-two schedule cases
GRID_SOLVER = [(m, p) for m in (1, 2, 4, 8) for p in (0.1, 1.0, 10.0, 100.0)]
GRID_EXTRA = [(3, 10.0), (5, 2.0), (16, 3.0), (16, 50.0)]
GRID_DUALITY = [(m, p) for m in (2, 4, 8) for p in (1.0, 10.0, 100.0)]


def test_criterion_01_sum_rate_solver_grid_and_frozen_roots():
    t0 = time.monotonic()
    for m, p in GRID_SOLVER + GRID_EXTRA:
        sol = solve_lambda_bc(m, p)
        assert sol.residual <= 1e-10, (m, p, sol.residual)
        assert 1.0 <= sol.lam <= m
        total = 0.5 * math.log2(1.0 + p * sol.lam)
        assert abs(sol.sum_rate - total) <= 1e-10, (m, p)
    got_10 = solve_lambda_bc(2, 10.0).lam
    got_1 = solve_lambda_bc(2, 1.0).lam
    elapsed = time.monotonic() - t0
    print(f"lambda(2,10)={got_10!r} lambda(2,1)={got_1!r} elapsed={elapsed:.3f}s")
    assert got_10 == pytest.approx(LAMBDA_2_10, abs=1e-12)
    assert got_1 == pytest.approx(LAMBDA_2_1, abs=1e-12)
    assert elapsed < 1.0


def test_criterion_02_broadcast_multiple_access_duality():
    t0 = time.monotonic()
    worst = 0.0
    for m, p in GRID_DUALITY + GRID_EXTRA:
        bc = solve_lambda_bc(m, p)
        mac = solve_lambda_mac(m, p / m)
        worst = max(worst, abs(bc.sum_rate - mac.sum_rate))
    elapsed = time.monotonic() - t0
    print(f"worst sum-rate gap {worst:.3g} over {len(GRID_DUALITY) + len(GRID_EXTRA)} points, {elapsed:.3f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_b_gamma_closed_form_vs_newton_oracle():
    worst = 0.0
    for m, p in [(2, 1.0), (2, 10.0), (4, 10.0), (8, 10.0), (16, 3.0)]:
        lam = solve_lambda_bc(m, p).lam
        bg = solve_b_gamma(lam, m, p)
        r10, r11, rq = b_gamma_residuals(bg.b, bg.gamma, lam, m, p)
        assert max(abs(r10), abs(r11), abs(rq)) <= 1e-10
        assert bg.gamma < 0.0 and lam + bg.gamma > 0.0
        assert bg.gamma >= -lam / (1.0 + p * lam) - 1e-12

        b_hat, g_hat = mp_solve_b_gamma(lam, m, p, (bg.b * 1.05, bg.gamma * 0.95))
        worst = max(worst, abs(b_hat - bg.b), abs(g_hat - bg.gamma))
    print(f"worst closed-form vs Newton deviation {worst:.3g}")
    assert worst <= 1e-9


def test_criterion_04_symmetric_schedule_structure_1000_steps():
    t0 = time.monotonic()
    m, p = 8, 10.0
    ch = ChannelConfig(m, p, 0.0, (1.0,) * m)
    sched = HadamardSchedule.symmetric(ch, check_invariants=True)
    assert sched.mu - sched.gamma == pytest.approx(np.full(m, sched.plan.lambda0), abs=1e-14)
    # the schedule carries only eigenvalues; a dense R propagated from the
    # emitted steps shows that the Hadamard rows stay its eigenvectors
    eye = np.eye(m)
    R = (sched.plan.lambda0 + sched.gamma) * eye
    want_multiset = np.sort(np.asarray(sched.plan.lambda_seq))
    prev_vals = None
    for n in range(1, 1001):
        step = dense_step(sched, sched.unroll(1))
        R = dense_update(R, step, ch, sched.p_share)
        if n >= m:
            rel = abs(step.expected_power - p) / p
            assert rel <= 1e-10, (n, rel)
            G = R - sched.gamma * eye
            vals, resid = dense_eigen_profile(G, sched.table)
            scale = np.linalg.norm(G) * math.sqrt(m)
            assert np.max(resid) <= 1e-9 * scale
            assert np.sort(vals) == pytest.approx(want_multiset, rel=1e-9)
            if prev_vals is not None:
                assert vals == pytest.approx(np.roll(prev_vals, 1), rel=1e-9)
            prev_vals = vals
    elapsed = time.monotonic() - t0
    print(f"1000 steps with invariants at M={m}: {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_05_empirical_power_meets_budget():
    t0 = time.monotonic()
    trials = 10_000

    # symmetric: budget within 5 standard errors plus the analytic warmup gap
    ch = ChannelConfig(2, 10.0, 0.0, (1.0, 1.0))
    prep = prepare_scheme("symmetric", ch, 200)
    stats = run_batch(prep, 200, default_policies(prep, 0.5), 1001, trials,
                      checkpoints=(200,), threads=4)
    mean = stats.cum_power_sum[0] / trials
    var = stats.cum_power_sumsq[0] / trials - mean * mean
    se = math.sqrt(var / (trials - 1))
    deficit = float(np.sum(10.0 - prep.expected_power[: ch.num_receivers - 1])) / 200.0
    gap = abs(mean - 10.0)
    print(f"symmetric: mean={mean:.4f} gap={gap:.4f} allow={5 * se + deficit:.4f}")
    assert gap <= 5.0 * se + deficit

    # two-user tracked: power is exact at every step, no warmup allowance
    prep_oz = prepare_scheme("ozarow2", ch, 200)
    assert np.max(np.abs(prep_oz.expected_power - 10.0)) == 0.0
    stats_oz = run_batch(prep_oz, 200, default_policies(prep_oz, 0.5), 1002, trials,
                         checkpoints=(200,), threads=4)
    mean_oz = stats_oz.cum_power_sum[0] / trials
    var_oz = stats_oz.cum_power_sumsq[0] / trials - mean_oz * mean_oz
    se_oz = math.sqrt(var_oz / (trials - 1))
    print(f"ozarow2: mean={mean_oz:.4f} allow={5 * se_oz:.4f}")
    assert abs(mean_oz - 10.0) <= 5.0 * se_oz

    # degraded: cumulative mean approaches P * lambda, within 5 percent
    chd = ChannelConfig(2, 1.0, 1.0, (0.0, 0.0))
    prepd = prepare_scheme("degraded", chd, 500)
    statsd = run_batch(prepd, 500, default_policies(prepd, 0.5), 1003, trials,
                       checkpoints=(500,), threads=4)
    meand = statsd.cum_power_sum[0] / trials
    target = 1.0 * solve_lambda_bc(2, 1.0).lam
    rel = abs(meand - target) / target
    elapsed = time.monotonic() - t0
    print(f"degraded: mean={meand:.5f} target={target:.5f} rel={rel:.4f}; total {elapsed:.1f}s")
    assert rel <= 0.05
    assert elapsed < 120.0


def test_criterion_06_decoder_replay_roundtrip_1000_trials():
    worst = 0.0
    for scheme, ch in (
        ("symmetric", ChannelConfig(2, 10.0, 0.0, (1.0, 1.0))),
        ("ozarow2", ChannelConfig(2, 10.0, 0.5, (1.0, 2.0))),
        ("degraded", ChannelConfig(4, 10.0, 1.0, (0.0,) * 4)),
    ):
        prep = prepare_scheme(scheme, ch, 120)
        stats = run_batch(prep, 120, default_policies(prep, 0.5), 2024, 1000,
                          check_roundtrip=True, threads=4)
        print(f"{scheme}: max replay error {stats.roundtrip_max_relerr:.3g}")
        worst = max(worst, stats.roundtrip_max_relerr)
    assert worst <= 1e-9


def test_criterion_07_error_probability_decays():
    # the default decoding policy drives errors to zero long before n = 50,
    # which leaves nothing to compare across checkpoints, so each scheme runs
    # a deliberately tight policy instead: a slow interval growth of
    # log2(3)/150 bits per step from a base of 0.693 stationary sigmas of the
    # residual source error, still strictly inside the reliability window
    # 0 < growth < R* - R.  Decay stays geometric either way; this choice
    # just makes it measurable at 1e4 trials.
    trials = 10_000
    growth = math.log2(3.0) / 150.0
    plan = build_warmup_plan(2, 10.0)
    # the symmetric profile cycles, so its stationary scale averages the
    # planned eigenvalues; the other two schemes hold unit normalized
    # variance, so their scale is the embedding sigma itself
    sigma_sym = math.sqrt((10.0 / 2) * (np.mean(plan.lambda_seq) + plan.bgamma.gamma))
    cases = (
        ("symmetric", ChannelConfig(2, 10.0, 0.0, (1.0, 1.0)), sigma_sym, 20_260_819),
        ("ozarow2", ChannelConfig(2, 10.0, 0.0, (1.0, 1.0)), None, 11),
        ("degraded", ChannelConfig(2, 1.0, 1.0, (0.0, 0.0)), None, 12),
    )
    for scheme, ch, sigma_s, seed in cases:
        prep = prepare_scheme(scheme, ch, 200)
        if sigma_s is None:
            sigma_s = math.sqrt(prep.p0)
        r_star = float(np.min(prep.rate_limits))
        assert 0.0 < growth < (1.0 - 0.5) * r_star
        policy = IntervalPolicy(base_halfwidth=0.693 * sigma_s, growth_rate_bits=growth)
        stats = run_batch(prep, 200, [policy, policy], seed, trials,
                          checkpoints=(50, 100, 150, 200), threads=4)
        err = stats.err_counts
        print(f"{scheme}: errors per {trials} trials at n=50,100,150,200: {err.tolist()}")
        for j in range(2):
            col = err[:, j]
            assert np.all(np.diff(col) < 0), \
                f"{scheme} receiver {j + 1} not strictly decreasing: {col}"
        if scheme == "symmetric":
            assert np.all(err[-1] / trials < 0.01), "symmetric above 1% at n=200"


def test_criterion_08_two_user_fixed_point_and_tracked_power():
    fp = solve_rho(10.0, 0.0, 1.0, 1.0, 1.0)
    assert fp.rho == pytest.approx(RHO_STAR_10, abs=1e-12)
    mapped = rho_map(fp.rho, 10.0, 0.0, 1.0, 1.0, 1.0)
    print(f"rho*={fp.rho!r} map(rho*)={mapped!r}")
    assert mapped == pytest.approx(-fp.rho, abs=1e-9)
    assert 0.0 < fp.a1_star < 1.0 and 0.0 < fp.a2_star < 1.0

    # pinned coefficients sit exactly at the fixed point
    ch = ChannelConfig(2, 10.0, 0.0, (1.0, 1.0))
    pinned = HadamardSchedule.ozarow2(ch, mode="pinned")
    (a,) = pinned.unroll(1)[2]
    assert 0.0 < a[0] < 1.0 and 0.0 < a[1] < 1.0
    assert a[0] == pytest.approx(fp.a1_star, rel=1e-14)

    # tracked mode: second moments propagated through the generic covariance
    # update reproduce E[x^2] = P at every one of 200 steps
    tracked = HadamardSchedule.ozarow2(ch, mode="tracked")
    p_share = ch.power_budget / 2.0
    R = np.eye(2)
    worst = 0.0
    for _ in range(200):
        step = dense_step(tracked, tracked.unroll(1))
        q = float(step.alpha @ (R @ step.alpha))
        power = p_share * step.beta**2 * q
        worst = max(worst, abs(power - ch.power_budget) / ch.power_budget)
        R = dense_update(R, step, ch, p_share)
    print(f"tracked power worst relative deviation over 200 steps: {worst:.3g}")
    assert worst <= 1e-10


def test_criterion_09_single_receiver_reaches_capacity():
    ch = ChannelConfig(1, 10.0, 1.0, (0.0,))
    rep = rate_report("degraded", ch)
    capacity = 0.5 * math.log2(1.0 + 10.0)
    print(f"per_user={rep.per_user[0]!r} capacity={capacity!r} "
          f"avg_power={rep.avg_power!r} capacity_at_budget={rep.capacity_at_budget!r}")
    assert rep.per_user[0] == pytest.approx(capacity, abs=1e-12)
    assert rep.capacity_at_budget == pytest.approx(capacity, abs=1e-12)
    assert rep.lam == 1.0
    assert rep.avg_power == pytest.approx(10.0, rel=1e-14)  # P * lambda at lambda = 1


def test_criterion_10_hadamard_exact_orthogonality_up_to_1024():
    t0 = time.monotonic()
    for k in range(11):
        h = sylvester_hadamard(k)
        order = 1 << k
        # float64 BLAS is exact here: entries are +-1 and every partial sum
        # is an integer bounded by 1024, far inside the 2^53 integer range
        gram = h.astype(float) @ h.astype(float).T
        assert np.array_equal(gram, order * np.eye(order))
        want_signs = {1} if k == 0 else {-1, 1}
        assert set(np.unique(h)) == want_signs
    elapsed = time.monotonic() - t0
    print(f"orders 1..1024 exactly orthogonal, {elapsed:.2f}s")
    assert elapsed < 30.0
