import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcfeedback.core import (
    DecoderState,
    IntervalPolicy,
    decoder_absorb,
    embed_message,
    encode,
    update_sources,
)
from oracles import PHI_1, affine_chain, decode_interval


# one two-receiver step
ALPHA, BETA, A, B = np.array([1.0, -1.0]), 2.0, np.array([0.5, 0.8]), np.array([0.1, 0.2])


# ----------------------------------------------------------------------------
# containers
# ----------------------------------------------------------------------------


def test_interval_policy():
    pol = IntervalPolicy(base_halfwidth=0.5, growth_rate_bits=0.25)
    assert pol.halfwidth(0) == 0.5
    assert pol.halfwidth(4) == 1.0  # 0.5 * 2^(4 * 0.25)
    with pytest.raises(ValueError):
        IntervalPolicy(base_halfwidth=0.0, growth_rate_bits=0.1)
    with pytest.raises(ValueError):
        IntervalPolicy(base_halfwidth=1.0, growth_rate_bits=-0.1)


def test_interval_policy_halfwidth_past_the_float_range_is_inf():
    # 2**1200 overflows a float; a halfwidth that large holds every finite residual
    assert IntervalPolicy(1.0, 2.0).halfwidth(600) == math.inf
    assert IntervalPolicy(1.0, 2.0).halfwidth(511) == 2.0 ** 1022


def test_decoder_state_slope():
    dec = DecoderState(log_slope=np.log([0.25, 2.0]), intercept=np.zeros(2))
    assert dec.slope == pytest.approx([0.25, 2.0], rel=1e-15)


# ----------------------------------------------------------------------------
# embedding and the step map
# ----------------------------------------------------------------------------


def test_embed_message_values():
    assert embed_message(0.5, 1.0) == 0.0
    assert embed_message(PHI_1, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert embed_message(PHI_1, 4.0) == pytest.approx(2.0, abs=1e-12)
    assert embed_message(0.25, 1.0) == -embed_message(0.75, 1.0)


def test_embed_message_vector():
    out = embed_message(np.array([0.25, 0.5, 0.75]), 9.0)
    assert out.shape == (3,)
    assert out[1] == 0.0
    assert out[0] == -out[2]


def test_embed_message_validation():
    with pytest.raises(ValueError):
        embed_message(0.5, 0.0)
    with pytest.raises(ValueError):
        embed_message(0.0, 1.0)
    with pytest.raises(ValueError):
        embed_message(1.0, 1.0)


def test_encode_hand_value():
    assert encode(np.array([1.0, 2.0]), ALPHA, BETA) == -2.0  # 2 * (1 - 2)


def test_encode_shape_check():
    for s in (np.array([1.0, 2.0, 3.0]), np.ones((4, 3)), np.float64(1.0)):
        with pytest.raises(ValueError):
            encode(s, ALPHA, BETA)
    with pytest.raises(ValueError):
        update_sources(np.ones((4, 3)), A, B, np.ones((4, 3)))
    with pytest.raises(ValueError):
        update_sources(np.ones((4, 2)), A, B, np.ones(2))  # no broadcasting


def test_update_sources_hand_value():
    new = update_sources(np.array([1.0, 2.0]), A, B, np.array([0.5, -1.0]))
    # (1 - 0.1 * 0.5) / 0.5 = 1.9 ; (2 - 0.2 * (-1)) / 0.8 = 2.75
    assert new == pytest.approx([1.9, 2.75], rel=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_encode_and_update_sources_take_a_batch_of_rows(m):
    rng = np.random.default_rng(m)
    alpha, beta = rng.standard_normal(m), 1.7
    a, b = rng.uniform(0.3, 1.2, m), rng.standard_normal(m)
    s = rng.standard_normal((5, m))
    y = rng.standard_normal((5, m))
    rows = np.array([update_sources(si, a, b, yi) for si, yi in zip(s, y)])
    assert np.array_equal(update_sources(s, a, b, y), rows)
    x = encode(s, alpha, beta)
    assert x.shape == (5,)
    # a matrix-vector product may sum in another order than a dot product,
    # so the encoder output agrees with the per-row calls to rounding only
    bound = 1e-14 * (np.abs(s) @ np.abs(alpha)) * beta
    assert np.all(np.abs(x - [encode(si, alpha, beta) for si in s]) <= bound)


# ----------------------------------------------------------------------------
# decoder replay
# ----------------------------------------------------------------------------


def fresh_decoder(shape):
    return DecoderState(np.zeros(shape[-1]), np.zeros(shape))


def scalar_step(a_k, b_k):
    """One receiver's (a, b) with contraction a_k and feedback gain b_k."""
    return np.array([a_k]), np.array([b_k])


def test_decoder_absorb_composes_inside():
    # two steps with distinct coefficients per receiver; compare against
    # explicit nesting, receiver by receiver
    steps = [  # (a, b, y) for k = 1, 2; one column per receiver
        (np.array([0.5, 0.9]), np.array([0.3, -0.6]), np.array([1.1, 0.4])),
        (np.array([0.8, 0.7]), np.array([-0.2, 0.5]), np.array([0.7, -1.3])),
    ]
    dec = fresh_decoder((2,))
    for a_k, b_k, y_k in steps:
        dec = decoder_absorb(dec, a_k, b_k, y_k)
    # T_2(x) = w_1(w_2(x)) with w_k(x) = a_k x + b_k y_k
    for j in range(2):
        for x in (-1.3, 0.0, 2.4):
            expect = affine_chain([(a[j], b[j] * y[j]) for a, b, y in steps], x)
            got = dec.slope[j] * x + dec.intercept[j]
            assert got == pytest.approx(expect, rel=1e-14, abs=1e-14)
    assert dec.slope == pytest.approx([0.5 * 0.8, 0.9 * 0.7], rel=1e-15)


def test_decoder_absorb_rejects_bad_a():
    # a nonpositive contraction has no log: math.log, mapped by _libm, refuses it
    with pytest.raises(ValueError):
        decoder_absorb(fresh_decoder((2,)), np.array([0.0, 0.5]), B, np.ones(2))
    with pytest.raises(ValueError):
        decoder_absorb(fresh_decoder((2,)), np.array([-0.5, 0.5]), B, np.ones(2))
    # and the outputs must match the decoder's shape and the schedule width
    with pytest.raises(ValueError):
        decoder_absorb(fresh_decoder((3, 2)), A, B, np.ones(2))
    with pytest.raises(ValueError):
        decoder_absorb(fresh_decoder((3,)), A, B, np.ones(3))


def test_decoder_absorb_folds_a_batch_row_like_one_trial():
    rng = np.random.default_rng(4)
    a, b = np.array([0.6, 1.1]), np.array([0.4, -0.7])
    y = rng.standard_normal((5, 2))
    batch, single = fresh_decoder((5, 2)), [fresh_decoder((2,)) for _ in range(5)]
    for _ in range(3):
        batch = decoder_absorb(batch, a, b, y)
        single = [decoder_absorb(d, a, b, yi) for d, yi in zip(single, y)]
    assert np.array_equal(batch.intercept, [d.intercept for d in single])
    assert np.array_equal(batch.log_slope, single[0].log_slope)


def test_a_of_width_one_stands_for_every_receiver():
    # one contraction shared by every receiver gives the floats of that
    # contraction repeated M wide; any other width is refused
    rng = np.random.default_rng(7)
    s, y = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    b = rng.standard_normal(4)
    one, wide = np.array([0.6]), np.full(4, 0.6)
    assert np.array_equal(update_sources(s, one, b, y), update_sources(s, wide, b, y))
    dec, ref = fresh_decoder((5, 4)), fresh_decoder((5, 4))
    for _ in range(2):
        dec, ref = decoder_absorb(dec, one, b, y), decoder_absorb(ref, wide, b, y)
    assert np.array_equal(dec.log_slope, ref.log_slope)
    assert np.array_equal(dec.intercept, ref.intercept)
    with pytest.raises(ValueError):
        update_sources(s, np.full(2, 0.6), b, y)
    with pytest.raises(ValueError):
        decoder_absorb(dec, np.full(2, 0.6), b, y)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.3, max_value=1.5),   # a
            st.floats(min_value=-0.8, max_value=0.8),  # b
            st.floats(min_value=-3.0, max_value=3.0),  # y
        ),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=200, deadline=None)
def test_replay_roundtrip_identity(steps, theta):
    # run the real source recursion and the replay map side by side:
    # T_n(s_{n+1}) must reproduce s_1 and the slope must be the product of a
    p0 = 2.0
    s = embed_message(theta, p0)
    s1 = s
    dec = fresh_decoder((1,))
    for a_k, b_k, y_k in steps:
        dec = decoder_absorb(dec, *scalar_step(a_k, b_k), np.array([y_k]))
        s = (s - b_k * y_k) / a_k
    recon = dec.slope[0] * s + dec.intercept[0]
    assert recon == pytest.approx(s1, rel=1e-12, abs=1e-12)
    log_prod = sum(math.log(a_k) for a_k, _, _ in steps)
    assert dec.log_slope[0] == pytest.approx(log_prod, rel=1e-12, abs=1e-12)


def test_decode_interval_initial_state():
    pol = IntervalPolicy(base_halfwidth=1.0, growth_rate_bits=0.0)
    dec = fresh_decoder((2,))
    assert decode_interval(dec.log_slope, dec.intercept, [pol, pol], 1.0, 0) == ((0.0, 1.0),) * 2


def test_decode_interval_membership_matches_pivot_test():
    # the interval that the folded replay map decodes contains theta exactly
    # when |s_{n+1}| < t_n, up to cdf rounding at the endpoints
    rng = np.random.default_rng(5)
    p0 = 1.5
    pol = IntervalPolicy(base_halfwidth=1.0, growth_rate_bits=0.05)
    for _ in range(200):
        theta = float(rng.uniform(0.02, 0.98))
        s = embed_message(theta, p0)
        dec = fresh_decoder((1,))
        n = int(rng.integers(1, 6))
        for _ in range(n):
            a_k = float(rng.uniform(0.4, 1.2))
            b_k = float(rng.uniform(-0.5, 0.5))
            y_k = float(rng.normal())
            dec = decoder_absorb(dec, *scalar_step(a_k, b_k), np.array([y_k]))
            s = (s - b_k * y_k) / a_k
        t_n = pol.halfwidth(n)
        if abs(abs(s) - t_n) < 1e-9 * t_n:
            continue  # endpoint tie: either answer is defensible
        ((lo, hi),) = decode_interval(dec.log_slope, dec.intercept, [pol], p0, n)
        assert (lo < theta < hi) == (abs(s) < t_n)


def test_long_horizon_slope_stays_in_log_space():
    # 5000 steps at a = 0.5 would underflow a direct product; the log form
    # keeps the slope's exponent
    dec = fresh_decoder((1,))
    a, b = scalar_step(0.5, 0.0)
    for _ in range(5000):
        dec = decoder_absorb(dec, a, b, np.zeros(1))
    assert dec.slope[0] == 0.0  # underflows only at the final exp, as it should
    assert dec.log_slope[0] == pytest.approx(5000 * math.log(0.5), rel=1e-12)
