import concurrent.futures
import dataclasses
import io
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcfeedback import channel as channel_module
from bcfeedback import montecarlo, numerics
from bcfeedback.channel import ChannelConfig, _block_steps, channel_outputs, spawn_trial_seeds
from bcfeedback.core import IntervalPolicy
from bcfeedback.montecarlo import (
    CHUNK_SIZE,
    csv_rows,
    default_checkpoints,
    default_policies,
    prepare_scheme,
    run_batch,
    wilson_interval,
    write_csv,
)
from bcfeedback.schedules import DEFAULT_NOISE
from oracles import draw_trial, scalar_trial

SYM_CHANNEL = ChannelConfig(2, 10.0, 0.0, (1.0, 1.0))
OZ_CHANNEL = ChannelConfig(2, 10.0, 0.0, (1.0, 1.0))
DEG_CHANNEL = ChannelConfig(2, 1.0, 1.0, (0.0, 0.0))

# produced by this module's own pipeline at a pinned seed and frozen; guards
# the whole chain (seeding, draw order, schedule, policies, formatting)
GOLDEN_CSV = (
    "scheme,M,P,checkpoint_n,receiver,target_rate,errors,trials,"
    "err_rate,wilson_lo,wilson_hi,mean_power\n"
    "symmetric,2,10,4,1,0.512052349779,64,256,0.25,0.200916865682,0.306475062531,7.83706542444\n"
    "symmetric,2,10,4,2,0.512052349779,62,256,0.2421875,0.193770153351,0.298227772619,7.83706542444\n"
    "symmetric,2,10,8,1,0.512052349779,7,256,0.02734375,0.0133071563551,0.0553557079225,9.07886343273\n"
    "symmetric,2,10,8,2,0.512052349779,10,256,0.0390625,0.0213540358427,0.0703998317999,9.07886343273\n"
    "symmetric,2,10,12,1,0.512052349779,0,256,0,0,0.0147838564259,9.63631802584\n"
    "symmetric,2,10,12,2,0.512052349779,0,256,0,0,0.0147838564259,9.63631802584\n"
    "symmetric,2,10,16,1,0.512052349779,0,256,0,0,0.0147838564259,9.88758654189\n"
    "symmetric,2,10,16,2,0.512052349779,0,256,0,0,0.0147838564259,9.88758654189\n"
)


# ----------------------------------------------------------------------------
# preparation and policies
# ----------------------------------------------------------------------------


def test_prepare_scheme_unrolls():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 25)
    assert prep.horizon == 25
    assert prep.table.shape == (2, 2)
    assert prep.weights.shape == (1,)
    assert prep.a.shape == prep.b.shape == (25, 1)
    assert prep.row.shape == prep.beta.shape == (25,)
    assert prep.expected_power.shape == (25,)
    assert prep.row.tolist() == [n % 2 for n in range(25)]
    oz = prepare_scheme("ozarow2", OZ_CHANNEL, 25)
    assert oz.weights.shape == (2,)
    assert oz.a.shape == oz.b.shape == (25, 2)
    assert prep.rate_limits.shape == (2,)
    assert prep.p0 > 0.0


def test_prepare_scheme_zero_horizon():
    prep = prepare_scheme("ozarow2", OZ_CHANNEL, 0)
    assert prep.horizon == 0
    with pytest.raises(ValueError):
        prepare_scheme("symmetric", SYM_CHANNEL, -1)


class _StubSchedule:
    """Unrolls the given arrays on H_2 with weights (1, 1)."""

    p0 = 1.0
    table = np.array([[1.0, 1.0], [1.0, -1.0]])
    weights = (1.0, 1.0)

    def __init__(self, unrolled):
        self._unrolled = unrolled

    def rate_limits(self):
        return np.ones(2)

    def unroll(self, n):
        return self._unrolled


def _three_two_wide_steps(**spoil):
    """Per-field lists of three two-wide steps; each field named in ``spoil``
    takes the given value at the third step."""
    steps = dict(row=[1, 1, 1], beta=[2.0] * 3, a=[(0.5, 0.8)] * 3, b=[(0.1, 0.2)] * 3,
                 expected_power=[1.0] * 3)
    for field, last in spoil.items():
        steps[field] = steps[field][:2] + [last]
    return steps


def test_prepare_scheme_validates_the_table(monkeypatch):
    def prepare(steps, **whole):
        steps = {**steps, **whole}
        arrays = (np.array(steps["row"]),
                  *(np.array(steps[f], dtype=float) for f in ("beta", "a", "b", "expected_power")))
        monkeypatch.setattr("bcfeedback.montecarlo.make_schedule",
                            lambda *args, **kw: _StubSchedule(arrays))
        return prepare_scheme("symmetric", SYM_CHANNEL, 3)

    prep = prepare(_three_two_wide_steps())
    assert np.array_equal(prep.b, [[0.1, 0.2]] * 3)
    assert prep.row.tolist() == [1, 1, 1]
    for spoil in (
        dict(a=(0.5, 0.0)),  # every a must be positive
        dict(a=(0.5, -0.3)),
        dict(b=(0.1, np.nan)),  # every value finite
        dict(beta=np.inf),
        dict(row=2),  # every row index inside the table
        dict(row=-1),
    ):
        with pytest.raises(ValueError):
            prepare(_three_two_wide_steps(**spoil))
    for whole in (
        dict(a=[(0.5,)] * 3),  # every row as wide as the weights
        dict(b=[(0.1, 0.2, 0.3)] * 3),
        dict(a=np.ones((3, 2, 2))),
        dict(beta=[2.0] * 2),  # every array one entry per step
        dict(row=[[1]] * 3),
        dict(expected_power=[1.0] * 4),
    ):
        with pytest.raises(ValueError, match="not 3 steps 2 wide"):
            prepare(_three_two_wide_steps(), **whole)


@pytest.mark.parametrize("scheme", ["symmetric", "degraded"])
def test_prepare_scheme_memory_is_bounded_in_m_times_horizon(scheme):
    # M x horizon = 1024 x 4000: a first unroll holds the shared 8 MiB table
    # and rows of one or two columns, no (horizon, M) coefficient table
    m, horizon = 1024, 4000
    common, private = DEFAULT_NOISE[scheme]
    ch = ChannelConfig(m, 10.0, common, (private,) * m)
    numerics._sylvester_table.cache_clear()  # so the call builds its table
    tracemalloc.start()
    try:
        prep = prepare_scheme(scheme, ch, horizon)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 17 * 2**20
    assert peak <= 20 * 2**20
    for field in dataclasses.fields(prep):
        shape = np.shape(getattr(prep, field.name))
        assert not (horizon in shape and m in shape), field.name


def test_prepare_scheme_table_is_read_only():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 4)
    for arr in (prep.table, prep.weights, prep.row, prep.beta, prep.a, prep.b,
                prep.expected_power):
        with pytest.raises(ValueError):
            arr[0] = 2.0


@given(st.floats(min_value=-9.0, max_value=9.0), st.integers(min_value=0, max_value=10),
       st.sampled_from(["symmetric", "degraded"]))
@settings(max_examples=30, deadline=None)
def test_unroll_holds_over_the_whole_input_range(log10_p, k, scheme):
    # P log-uniform in [1e-9, 1e9], M = 1..1024; horizon 2M + 1 runs one full
    # steady cycle, with the symmetric invariant checks on as simulate runs them
    m, p = 2**k, 10.0**log10_p
    noise = (0.0, (1.0,) * m) if scheme == "symmetric" else (1.0, (0.0,) * m)
    prep = prepare_scheme(scheme, ChannelConfig(m, p, *noise), 2 * m + 1, check_invariants=True)
    assert prep.horizon == 2 * m + 1  # and the table validated
    assert np.all((prep.a > 0.0) & (prep.a <= 1.0))
    assert np.all(np.isfinite(prep.expected_power) & (prep.expected_power > 0.0))
    assert np.all(np.isfinite(prep.rate_limits) & (prep.rate_limits >= 0.0))


def test_default_checkpoints():
    assert default_checkpoints(200) == (50, 100, 150, 200)
    assert default_checkpoints(0) == (0,)
    assert default_checkpoints(1) == (1,)
    assert default_checkpoints(3) == (1, 2, 3)
    marks = default_checkpoints(7)
    assert marks[-1] == 7 and all(m >= 1 for m in marks)


def test_default_policies_growth_inside_reliability_window():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 10)
    for f in (0.1, 0.5, 0.9):
        pols = default_policies(prep, f)
        assert len(pols) == 2
        for pol, r_star in zip(pols, prep.rate_limits):
            slack = (1.0 - f) * r_star
            assert 0.0 < pol.growth_rate_bits < slack
            assert pol.base_halfwidth == pytest.approx(math.sqrt(prep.p0))


def test_default_policies_overrides():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 10)
    pols = default_policies(prep, 0.5, base_halfwidth=2.5, growth_fraction=0.25)
    assert pols[0].base_halfwidth == 2.5
    assert pols[0].growth_rate_bits == pytest.approx(
        0.25 * 0.5 * prep.rate_limits[0]
    )
    with pytest.raises(ValueError):
        default_policies(prep, 1.5)
    with pytest.raises(ValueError):
        default_policies(prep, 0.5, growth_fraction=1.0)


def test_one_policy_stands_for_every_receiver():
    prep = prepare_scheme("symmetric", ChannelConfig(4, 10.0, 0.0, (1.0,) * 4), 16)
    pol = IntervalPolicy(base_halfwidth=1.2, growth_rate_bits=0.1)
    one = run_batch(prep, 16, pol, 5, 200)
    each = run_batch(prep, 16, [pol] * 4, 5, 200)
    for name in ("err_counts", "cum_power_sum", "cum_power_sumsq"):
        assert np.array_equal(getattr(one, name), getattr(each, name))
    assert 0 < one.err_counts.sum() and one.err_counts.max() < 200  # the policy decides


# ----------------------------------------------------------------------------
# the scalar oracle vs vectorised batches; one trial is a batch of one
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("scheme, channel, kw", [
    ("symmetric", ChannelConfig(8, 10.0, 0.0, (1.0,) * 8), {}),
    ("ozarow2", ChannelConfig(2, 10.0, 0.5, (1.0, 2.0)), {"g": 1.3, "rho_mode": "pinned"}),
    ("degraded", ChannelConfig(4, 10.0, 1.0, (0.0,) * 4), {}),
], ids=["symmetric", "ozarow2", "degraded"])
def test_trial_matches_batch_error_counts(scheme, channel, kw):
    prep = prepare_scheme(scheme, channel, 30, **kw)
    # tighter than the default policy, which leaves most of these cases error-free
    pol = IntervalPolicy(base_halfwidth=1.0, growth_rate_bits=0.05)
    marks = (0, 10, 20, 30)
    trials = 64
    stats = run_batch(prep, 30, pol, 2024, trials, checkpoints=marks)
    assert 0 < stats.err_counts.sum() and stats.err_counts.max() < trials
    err = np.zeros_like(stats.err_counts)
    policies = [pol] * channel.num_receivers
    for seed in spawn_trial_seeds(2024, trials):
        err += ~scalar_trial(prep, 30, policies, np.random.default_rng(seed), marks).success
    assert np.array_equal(err, stats.err_counts)


def _capture_kernel_steps(monkeypatch):
    """Copies of every x, y, s and replay map that run_batch's stepping loop makes.

    The loop writes y and s into buffers it reuses, so each value is copied
    out as its function returns it.
    """
    steps = {"x": [], "y": [], "s": [], "slope": [], "intercept": []}

    def spy(name, keep):
        original = getattr(montecarlo, name)

        def wrapper(*args, **kw):
            out = original(*args, **kw)
            keep(out)
            return out

        monkeypatch.setattr(montecarlo, name, wrapper)

    spy("encode", lambda x: steps["x"].append(x.copy()))
    spy("channel_outputs", lambda y: steps["y"].append(y.copy()))
    spy("update_sources", lambda s: steps["s"].append(s.copy()))
    spy("decoder_absorb", lambda dec: (steps["slope"].append(dec.slope.copy()),
                                       steps["intercept"].append(dec.intercept.copy())))
    return steps


@pytest.mark.parametrize("scheme, channel, horizon, kw", [
    ("symmetric", SYM_CHANNEL, 24, {}),
    ("symmetric", ChannelConfig(8, 5.0, 0.0, (2.0,) * 8), 20, {}),
    ("ozarow2", ChannelConfig(2, 10.0, 0.5, (1.0, 2.0)), 24, {}),
    ("degraded", ChannelConfig(4, 10.0, 0.5, (0.0,) * 4), 20, {}),
    # weights (1, +-1.3): a (1, M) @ alpha product must still round like (M,) @ alpha
    ("ozarow2", ChannelConfig(2, 10.0, 0.5, (1.0, 2.0)), 24, {"g": 1.3}),
    ("ozarow2", ChannelConfig(2, 10.0, 0.5, (1.0, 2.0)), 24, {"g": 1.3, "rho_mode": "pinned"}),
], ids=["symmetric-channel0-24", "symmetric-channel1-20", "ozarow2-channel2-24",
        "degraded-channel3-20", "ozarow2-g1.3-tracked-24", "ozarow2-g1.3-pinned-24"])
def test_trial_is_bitwise_the_scalar_oracle(monkeypatch, scheme, channel, horizon, kw):
    # a one-trial batch checked at every step, with its replay maps folded,
    # against the scalar loop fed the same spawned stream
    prep = prepare_scheme(scheme, channel, horizon, **kw)
    pol = default_policies(prep, 0.5)
    m = channel.num_receivers
    steps = _capture_kernel_steps(monkeypatch)
    for h in (horizon, 0):
        marks = tuple(range(h + 1))
        for seed in range(3):
            for seen in steps.values():
                seen.clear()
            stats = run_batch(prep, h, pol, seed, 1, checkpoints=marks, check_roundtrip=True)
            rng = np.random.default_rng(spawn_trial_seeds(seed, 1)[0])
            want = scalar_trial(prep, h, pol, rng, marks)
            assert np.array_equal(stats.err_counts == 0, want.success)
            assert len(want.steps) == h
            # steps' keys run in the order of scalar_trial's step fields
            for i, (name, seen) in enumerate(steps.items()):
                width = 1 if name == "x" else m
                assert len(seen) == h, name
                got = np.array(seen, dtype=float).reshape(h, width)
                col = np.array([row[i] for row in want.steps], dtype=float).reshape(h, width)
                assert got.tobytes() == col.tobytes(), (name, h, seed)
            cum = 0.0
            for n, (x, *_) in enumerate(want.steps, start=1):
                cum += x * x
                assert stats.cum_power_sum[n] == cum / n
                assert stats.cum_power_sumsq[n] == (cum / n) * (cum / n)


def test_trial_trajectory_rows(monkeypatch):
    # a one-trial batch makes one x, y, s and replay map per step, one entry
    # per receiver (the maps under check_roundtrip), and its running power is
    # the mean of those x squared
    prep = prepare_scheme("ozarow2", OZ_CHANNEL, 8)
    pol = default_policies(prep, 0.5)
    steps = _capture_kernel_steps(monkeypatch)
    stats = run_batch(prep, 8, pol, 3, 1, checkpoints=tuple(range(9)), check_roundtrip=True)
    assert {name: len(seen) for name, seen in steps.items()} == dict.fromkeys(steps, 8)
    for name in ("y", "s", "slope", "intercept"):
        assert np.size(steps[name][-1]) == 2, name
    x = np.array(steps["x"], dtype=float).reshape(8)
    assert stats.cum_power_sum[8] == pytest.approx(float(np.mean(x * x)), rel=1e-15)


def test_batch_counts_a_nan_residual_as_an_error(monkeypatch):
    def nan_outputs(config, x, z, out=None):
        y = channel_outputs(config, x, z, out=out)
        y[..., 0] = np.nan  # receiver 1's residual, and from step 2 on every one, is NaN
        return y

    monkeypatch.setattr(montecarlo, "channel_outputs", nan_outputs)
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 8)
    pol = default_policies(prep, 0.5)
    marks = (0, 1, 8)
    stats = run_batch(prep, 8, pol, 3, 100, checkpoints=marks)
    assert stats.err_counts[:, 0].tolist() == [0, 100, 100]
    assert stats.err_counts[1, 1] < 100 and stats.err_counts[2, 1] == 100


def test_trial_checkpoint_zero_always_succeeds():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 5)
    tight = IntervalPolicy(base_halfwidth=1e-9, growth_rate_bits=0.0)  # fails every trial at 5
    stats = run_batch(prep, 5, tight, 1, 100, checkpoints=(0, 5))
    assert stats.err_counts.tolist() == [[0, 0], [100, 100]]


def test_batch_rejects_checkpoints_that_are_not_integers():
    # a float or bool checkpoint matched no step (2.5) or was printed as it
    # came (True, 8.0): the first counted no errors and no power
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 8)
    pol = default_policies(prep, 0.5)
    for marks in ([2.5, 8], [True, 8], [8.0]):
        with pytest.raises(ValueError, match="checkpoints must be integers"):
            run_batch(prep, 8, pol, 0, 200, checkpoints=marks)
    # numpy integers are integers, and become Python ints
    got = run_batch(prep, 8, pol, 0, 200, checkpoints=[np.int64(2), np.int32(8)])
    want = run_batch(prep, 8, pol, 0, 200, checkpoints=[2, 8])
    assert [type(n) for n in got.checkpoints] == [int, int]
    assert got.checkpoints == want.checkpoints
    assert np.array_equal(got.err_counts, want.err_counts)
    assert np.array_equal(got.cum_power_sum, want.cum_power_sum)


def test_trial_zero_horizon_decodes_whole_interval():
    # nothing is observed, so the decoded interval is all of (0, 1) and the
    # one checkpoint counts no error
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 0)
    pol = default_policies(prep, 0.5)
    stats = run_batch(prep, 0, pol, 1, 1)
    assert stats.checkpoints == (0,)
    assert not stats.err_counts.any()
    rng = np.random.default_rng(spawn_trial_seeds(1, 1)[0])
    assert scalar_trial(prep, 0, pol, rng, (0,)).final_intervals == ((0.0, 1.0), (0.0, 1.0))


def test_trial_validates_horizon_and_checkpoints():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 5)
    pol = default_policies(prep, 0.5)
    with pytest.raises(ValueError, match="horizon exceeds"):
        run_batch(prep, 6, pol, 0, 1)
    with pytest.raises(ValueError, match="checkpoints must lie"):
        run_batch(prep, 5, pol, 0, 1, checkpoints=(7,))
    with pytest.raises(ValueError, match="need one policy or 2"):
        run_batch(prep, 5, [pol[0]] * 3, 0, 1)
    # an empty batch has no error rate or mean power to write
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_batch(prep, 5, pol, 0, 0)


def test_batch_rejects_duplicate_checkpoints():
    # a repeated checkpoint used to leave all but its last row empty: zero
    # errors and zero power
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 40)
    pol = default_policies(prep, 0.5)
    for marks in ((40, 40), (0, 10, 0), (5, 10, 5, 40)):
        for trials in (1, 200):
            with pytest.raises(ValueError, match="checkpoints must be distinct"):
                run_batch(prep, 40, pol, 1, trials, checkpoints=marks)


def test_trial_success_agrees_with_decoded_interval_membership():
    # run_batch counts the pivot test |s_{n+1}| < t_n; the paper's error event
    # is the message point leaving the decoded interval.  They must agree for
    # every receiver whose theta is not within rounding of an endpoint
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 12)
    pol = IntervalPolicy(base_halfwidth=1.0, growth_rate_bits=0.05)  # fails some trials
    inside = outside = 0
    for seed in range(100):
        stats = run_batch(prep, 12, pol, seed, 1, checkpoints=(12,))
        child = spawn_trial_seeds(seed, 1)[0]
        theta = np.random.default_rng(child).random(2)  # a trial's first draws
        want = scalar_trial(prep, 12, [pol] * 2, np.random.default_rng(child), (12,))
        for j in range(2):
            lo, hi = want.final_intervals[j]
            if min(abs(theta[j] - lo), abs(theta[j] - hi)) > 1e-12:
                held = bool(lo < theta[j] < hi)
                assert held == (stats.err_counts[0, j] == 0), (seed, j)
                inside += held
                outside += not held
    assert inside + outside >= 150  # the endpoint-tie guard should almost never trigger
    assert inside and outside, (inside, outside)


def test_batch_thread_count_does_not_change_a_byte(monkeypatch):
    # claim four CPUs, so both chunks run in worker threads on any host
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    trials = CHUNK_SIZE + 257  # force an irregular chunk boundary
    # the second input streams its noise across blocks of 240 steps, ending mid-block
    m16 = ChannelConfig(16, 10.0, 0.0, (1.0,) * 16)
    for scheme, channel, horizon in (("degraded", DEG_CHANNEL, 40), ("symmetric", m16, 600)):
        prep = prepare_scheme(scheme, channel, horizon)
        pol = default_policies(prep, 0.5)
        one = run_batch(prep, horizon, pol, 99, trials, threads=1)
        four = run_batch(prep, horizon, pol, 99, trials, threads=4)
        assert np.array_equal(one.err_counts, four.err_counts)
        assert np.array_equal(one.cum_power_sum, four.cum_power_sum)
        assert np.array_equal(one.cum_power_sumsq, four.cum_power_sumsq)


def _sleeping_helpers(fill):
    """_fill that sleeps before filling in every thread but this one."""
    me = threading.get_ident()

    def slow(claims, lock):
        if threading.get_ident() != me:
            time.sleep(2e-3)
        fill(claims, lock)

    return slow


def _sleeping_outputs(config, x, z, out=None):
    time.sleep(2e-5)
    return channel_outputs(config, x, z, out=out)


def _assert_draw_split_keeps_the_bytes():
    # a lone chunk's noise fills split four ways against one thread; the
    # second block ends mid-block, or exactly on the block edge
    m8 = ChannelConfig(8, 10.0, 0.0, (1.0,) * 8)
    block = _block_steps(8)
    prep = prepare_scheme("symmetric", m8, 2 * block)
    pol = default_policies(prep, 0.5)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        # 3 and 101 trials do not divide into four parts, 1 and 2 are fewer than four
        for trials, horizon, check in itertools.product(
                (1, 2, 3, 101, CHUNK_SIZE), (block + 7, 2 * block), (False, True)):
            case = (trials, horizon, check)
            one = run_batch(prep, horizon, pol, 21, trials, threads=1, check_roundtrip=check)
            four = run_batch(prep, horizon, pol, 21, trials, threads=4, check_roundtrip=check)
            assert one.err_counts.tobytes() == four.err_counts.tobytes(), case
            assert one.cum_power_sum.tobytes() == four.cum_power_sum.tobytes(), case
            assert one.cum_power_sumsq.tobytes() == four.cum_power_sumsq.tobytes(), case
            assert one.roundtrip_max_relerr == four.roundtrip_max_relerr, case
    finally:
        sys.setswitchinterval(switch)


def test_batch_draws_split_over_spare_cpus_do_not_change_a_byte(monkeypatch):
    # claim four CPUs, so a lone chunk's noise fills split four ways on any host
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    _assert_draw_split_keeps_the_bytes()


@pytest.mark.parametrize("slow", ["helpers", "chunk"])
def test_batch_draw_split_keeps_the_bytes_under_skewed_timing(monkeypatch, slow):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    if slow == "helpers":  # the chunk thread claims most trials and waits on the rest
        monkeypatch.setattr(channel_module, "_fill", _sleeping_helpers(channel_module._fill))
    else:  # the helpers fill each next block long before it is needed
        monkeypatch.setattr(montecarlo, "channel_outputs", _sleeping_outputs)
    _assert_draw_split_keeps_the_bytes()


def test_batch_step_error_ends_the_fill_threads(monkeypatch):
    # a step that raises mid-horizon while a helper fills the next block must
    # leave no thread behind: the chunk closes its noise, which joins the fill
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    m8 = ChannelConfig(8, 10.0, 0.0, (1.0,) * 8)
    horizon = 3 * _block_steps(8)
    prep = prepare_scheme("symmetric", m8, horizon)
    pol = default_policies(prep, 0.5)
    me = threading.get_ident()
    filling = threading.Event()
    fill = channel_module._fill

    def slow_helper(claims, lock):
        if threading.get_ident() != me:
            filling.set()
            time.sleep(0.05)  # still filling when the step raises
        fill(claims, lock)

    def failing(config, x, z, out=None):
        if filling.wait(timeout=10) and failing.steps == horizon // 2:
            raise RuntimeError("step failed")
        failing.steps += 1
        return channel_outputs(config, x, z, out=out)

    failing.steps = 0
    monkeypatch.setattr(channel_module, "_fill", slow_helper)
    monkeypatch.setattr(montecarlo, "channel_outputs", failing)
    live = threading.active_count()
    with pytest.raises(RuntimeError, match="step failed") as caught:
        run_batch(prep, horizon, pol, 5, 40, threads=2)
    assert failing.steps == horizon // 2
    # counted while the traceback still holds every frame of the run, so no
    # garbage collection of the noise iterator can have ended the helper
    assert caught.tb is not None
    assert threading.active_count() == live


class _RecordingPool:
    """A ThreadPoolExecutor stand-in that records max_workers and runs work serially."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def test_batch_workers_are_capped_by_chunks_and_cpus(monkeypatch):
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 2)
    pol = default_policies(prep, 0.5)
    five_chunks = 4 * CHUNK_SIZE + 1
    serial = run_batch(prep, 2, pol, 3, five_chunks, threads=1)
    live = threading.active_count()

    # real threads: at most min(threads, usable CPUs) of them work at once,
    # counting this thread as busy throughout when it runs a lone chunk (it
    # steps while its helpers fill) and not when it waits for worker threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    alive = []
    fill = channel_module._fill

    def counting(claims, lock):
        alive.append(threading.active_count() - live)
        fill(claims, lock)

    monkeypatch.setattr(channel_module, "_fill", counting)
    for trials, threads in ((five_chunks, 64), (CHUNK_SIZE + 1, 64), (CHUNK_SIZE, 64),
                            (5, 64), (CHUNK_SIZE, 2)):
        alive.clear()
        run_batch(prep, 2, pol, 3, trials, threads=threads)
        busy = max(alive) + (trials <= CHUNK_SIZE)
        assert 1 <= busy <= min(threads, 3), (trials, threads, alive)
    monkeypatch.setattr(channel_module, "_fill", fill)
    assert threading.active_count() == live

    # the channel imports the pool class from concurrent.futures at each draw
    for module in (montecarlo, concurrent.futures):
        monkeypatch.setattr(module, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])

    def workers(trials, threads=64):
        _RecordingPool.created.clear()
        stats = run_batch(prep, 2, pol, 3, trials, threads=threads)
        if trials == five_chunks:
            assert np.array_equal(stats.err_counts, serial.err_counts)
            assert stats.cum_power_sum.tobytes() == serial.cum_power_sum.tobytes()
        return _RecordingPool.created

    assert workers(five_chunks) == [3]
    assert workers(CHUNK_SIZE + 1) == [2]  # two chunks, too few spare CPUs to split
    # one chunk runs on this thread, and two helpers fill parts of its noise blocks
    assert workers(CHUNK_SIZE) == [2]
    assert workers(CHUNK_SIZE, threads=2) == [1]
    assert workers(CHUNK_SIZE, threads=1) == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert workers(CHUNK_SIZE) == []  # one usable CPU
    # a platform without sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert workers(five_chunks) == [4]
    assert workers(2 * CHUNK_SIZE) == [2, 1, 1]  # two workers, each with one helper
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
    assert workers(five_chunks) == []
    assert workers(CHUNK_SIZE) == []
    assert threading.active_count() == live


def test_batch_consumes_the_trial_streams_across_noise_blocks(monkeypatch):
    # M = 64 streams noise in blocks of 31 steps: horizon 150 crosses four block
    # boundaries and ends mid-block, 10 stays inside one block, 0 draws none
    m = 64
    block = _block_steps(m)
    assert 4 * block < 150 < 5 * block
    prep = prepare_scheme("symmetric", ChannelConfig(m, 10.0, 0.0, (1.0,) * m), 150)
    pol = default_policies(prep, 0.5)
    seeds = spawn_trial_seeds(8, 5)
    consumed = []
    original = montecarlo.channel_outputs

    def recording(config, x, z, out=None):
        consumed.append(z.copy())  # the noise buffers are reused block after block
        return original(config, x, z, out=out)

    monkeypatch.setattr(montecarlo, "channel_outputs", recording)
    for horizon in (150, 10, 0):
        consumed.clear()
        run_batch(prep, horizon, pol, 8, len(seeds), checkpoints=(horizon,))
        assert len(consumed) == horizon
        rows = np.array(consumed).reshape(horizon, len(seeds), 1 + m)
        for i, seed in enumerate(seeds):
            _, want = draw_trial(np.random.default_rng(seed), m, horizon)
            assert rows[:, i].tobytes() == want.tobytes(), (horizon, i)


def test_batch_memory_does_not_grow_with_the_horizon():
    prep = prepare_scheme("symmetric", ChannelConfig(8, 10.0, 0.0, (1.0,) * 8), 4096)
    pol = default_policies(prep, 0.5)

    def peak(horizon):
        tracemalloc.start()
        try:
            run_batch(prep, horizon, pol, 1, 100)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(1024), peak(4096)
    # a (trials, horizon, 1 + M) noise array would add 100 * 3072 * 9 * 8 B = 21 MiB
    assert long - short <= 64 * 1024, (short, long)


def test_batch_roundtrip_identity_across_schemes():
    for scheme, channel in (("symmetric", SYM_CHANNEL), ("ozarow2", OZ_CHANNEL),
                            ("degraded", DEG_CHANNEL)):
        prep = prepare_scheme(scheme, channel, 60)
        pol = default_policies(prep, 0.5)
        stats = run_batch(prep, 60, pol, 5, 128, check_roundtrip=True)
        assert stats.roundtrip_max_relerr <= 1e-9, scheme


def test_batch_statistics_do_not_depend_on_the_roundtrip_check():
    # the replay maps are folded only to measure the round trip; they feed
    # no error count or power sum
    for scheme, channel in (("symmetric", SYM_CHANNEL), ("ozarow2", OZ_CHANNEL),
                            ("degraded", DEG_CHANNEL)):
        prep = prepare_scheme(scheme, channel, 30)
        pol = default_policies(prep, 0.5)
        off = run_batch(prep, 30, pol, 12, 200, checkpoints=(0, 10, 30))
        on = run_batch(prep, 30, pol, 12, 200, checkpoints=(0, 10, 30), check_roundtrip=True)
        assert np.array_equal(off.err_counts, on.err_counts), scheme
        assert np.array_equal(off.cum_power_sum, on.cum_power_sum), scheme
        assert np.array_equal(off.cum_power_sumsq, on.cum_power_sumsq), scheme
        assert off.roundtrip_max_relerr == 0.0 < on.roundtrip_max_relerr


def test_batch_reproducible_across_calls():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 20)
    pol = default_policies(prep, 0.5)
    a = run_batch(prep, 20, pol, 7, 300)
    b = run_batch(prep, 20, pol, 7, 300)
    assert np.array_equal(a.err_counts, b.err_counts)
    assert np.array_equal(a.cum_power_sum, b.cum_power_sum)


# ----------------------------------------------------------------------------
# estimates and reporting
# ----------------------------------------------------------------------------


def test_wilson_interval_frozen_value():
    # 5 successes in 100 trials at the two-sided 95 percent level
    lo, hi = wilson_interval(5, 100)
    assert lo == pytest.approx(0.02154367915436796, abs=1e-14)
    assert hi == pytest.approx(0.11175046923191913, abs=1e-14)


def test_wilson_interval_edges_and_ordering():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and 0.9 < lo < 1.0
    lo1, hi1 = wilson_interval(10, 100)
    assert lo1 < 0.1 < hi1
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def _csv_cells(prep, stats, rate_fraction):
    """csv_rows split into cells, with every number parsed back."""
    return [[c if i == 0 else float(c) for i, c in enumerate(line.split(","))]
            for line in csv_rows(prep, stats, rate_fraction)]


def test_estimate_shapes_and_targets():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 12)
    stats = run_batch(prep, 12, default_policies(prep, 0.25), 1, 200)
    rows = _csv_cells(prep, stats, 0.25)
    assert [row[3] for row in rows] == [3, 3, 6, 6, 9, 9, 12, 12]
    assert [row[4] for row in rows] == [1, 2] * 4
    assert [row[6] for row in rows] == stats.err_counts.ravel().tolist()
    for row in rows:
        _, _, _, _, receiver, target, errors, trials, rate, lo, hi, _ = row
        assert trials == 200
        assert rate == errors / 200
        assert lo <= rate <= hi
        assert target == pytest.approx(0.25 * prep.rate_limits[int(receiver) - 1])


def test_estimate_zero_horizon_reports_zero_errors():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 0)
    stats = run_batch(prep, 0, default_policies(prep, 0.5), 0, 128)
    rows = _csv_cells(prep, stats, 0.5)
    assert len(rows) == 2
    assert all(row[3] == 0 for row in rows)
    assert all(row[6] == 0 for row in rows)
    assert all(row[11] == 0.0 for row in rows)


def test_csv_golden_output():
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 16)
    stats = run_batch(prep, 16, default_policies(prep, 0.5), 424242, 256)
    buf = io.StringIO()
    write_csv(buf, prep, stats, 0.5)
    assert buf.getvalue() == GOLDEN_CSV


def test_estimate_error_rates_decay_with_time():
    # coarse sanity on the reliability direction at desk scale
    prep = prepare_scheme("symmetric", SYM_CHANNEL, 40)
    stats = run_batch(prep, 40, default_policies(prep, 0.5), 31, 800)
    first, last = stats.err_counts[0], stats.err_counts[-1]
    assert int(first.sum()) >= int(last.sum())
    assert int(last.sum()) == 0  # default policy is very forgiving by n=40


def test_csv_cells_are_shared_only_by_equal_targets():
    # at checkpoint 0 both receivers have 0 errors, but g = 2 gives them
    # different rate limits: each row must carry its own target
    prep = prepare_scheme("ozarow2", OZ_CHANNEL, 0, g=2.0)
    stats = run_batch(prep, 0, default_policies(prep, 0.5), 0, 100)
    targets = (0.5 * prep.rate_limits).tolist()
    assert targets[0] != targets[1]
    rows = _csv_cells(prep, stats, 0.5)
    assert [row[6] for row in rows] == [0, 0]
    assert [row[5] for row in rows] == pytest.approx(targets, rel=1e-11)
