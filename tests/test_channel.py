import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcfeedback.channel import (
    BLOCK_NORMALS,
    ChannelConfig,
    _block_steps,
    channel_outputs,
    draw_batch,
    spawn_trial_seeds,
)
from oracles import draw_trial


def one_trial(seed, m, horizon):
    """draw_batch's message points and stacked noise rows for one trial."""
    theta, rows = draw_batch([np.random.default_rng(seed)], m, horizon)
    return theta[0], np.array([row[0].copy() for row in rows]).reshape(horizon, 1 + m)


def make_config(**kw):
    base = dict(num_receivers=2, power_budget=10.0, common_noise_var=0.5,
                private_noise_vars=(1.0, 2.0))
    base.update(kw)
    return ChannelConfig(**base)


# ----------------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------------


def test_config_accepts_and_coerces():
    cfg = ChannelConfig(num_receivers=np.int64(3), power_budget=1,
                        common_noise_var=0, private_noise_vars=[1, 2, 3])
    assert cfg.num_receivers == 3 and isinstance(cfg.num_receivers, int)
    assert cfg.power_budget == 1.0 and isinstance(cfg.power_budget, float)
    assert cfg.private_noise_vars == (1.0, 2.0, 3.0)
    assert isinstance(cfg.private_noise_vars, tuple)


@pytest.mark.parametrize("kw", [
    dict(num_receivers=0),
    dict(num_receivers=-1),
    dict(num_receivers=1.5),
    dict(num_receivers=True),
    dict(power_budget=0.0),
    dict(power_budget=-3.0),
    dict(power_budget=float("inf")),
    dict(common_noise_var=-0.1),
    dict(common_noise_var=float("nan")),
    dict(private_noise_vars=(1.0,)),          # wrong length
    dict(private_noise_vars=(1.0, -1.0)),
    dict(common_noise_var=0.0, private_noise_vars=(0.0, 0.0)),  # noiseless
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        make_config(**kw)


def test_config_receivers_are_any_integer_index():
    # operator.index: a numpy integer counts receivers, a bool, float or string does not
    assert make_config(num_receivers=np.int64(2)) == make_config(num_receivers=2)
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="^num_receivers must be a positive integer$"):
            make_config(num_receivers=bad)


def test_config_is_frozen():
    cfg = make_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.power_budget = 5.0


def test_noise_stds():
    # outputs scale the common normal by sqrt(common var), the private ones by
    # sqrt(private var)
    cfg = make_config(common_noise_var=4.0, private_noise_vars=(9.0, 0.0))
    assert np.array_equal(channel_outputs(cfg, 0.0, np.ones(3)), [5.0, 2.0])


def test_outputs_add_the_private_noise_last():
    # y = (x + sigma z_0) + sigma_m z_m, rounded in that order, for a batch and
    # for one trial's 0-d x; a different grouping moves the last bits
    cfg = make_config(common_noise_var=0.3, private_noise_vars=(0.7, 1.9))
    rng = np.random.default_rng(5)
    x, z = 3.0 * rng.standard_normal(200), rng.standard_normal((200, 3))
    c, p = np.sqrt(0.3), np.sqrt([0.7, 1.9])
    want = (x[:, None] + c * z[:, :1]) + p * z[:, 1:]
    assert channel_outputs(cfg, x, z).tobytes() == want.tobytes()
    for i in range(200):
        assert channel_outputs(cfg, x[i], z[i]).tobytes() == want[i].tobytes()


# ----------------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------------


def test_sample_noise_shapes_and_determinism():
    theta1, z1 = one_trial(7, 2, 5)
    theta2, z2 = one_trial(7, 2, 5)
    assert theta1.shape == (2,) and z1.shape == (5, 3)
    assert np.array_equal(theta1, theta2)
    assert np.array_equal(z1, z2)
    assert channel_outputs(make_config(), 0.0, z1[0]).shape == (2,)
    assert channel_outputs(make_config(), np.zeros(5), z1).shape == (5, 2)


def test_sample_noise_stream_alignment_across_variance_patterns():
    # switching a variance off must not change which normals later components
    # read: each step's row keeps one slot per component whatever its variance
    noisy = make_config(common_noise_var=1.0, private_noise_vars=(1.0, 1.0))
    silent = make_config(common_noise_var=0.0, private_noise_vars=(1.0, 0.0))
    _, z = one_trial(3, 2, 4)
    assert np.array_equal(channel_outputs(silent, np.zeros(4), z)[:, 0], z[:, 1])
    assert np.array_equal(channel_outputs(noisy, np.zeros(4), z)[:, 1], z[:, 0] + z[:, 2])


def test_sample_noise_zero_variance_gives_exact_zero():
    cfg = make_config(common_noise_var=0.0, private_noise_vars=(0.0, 2.0))
    _, z = one_trial(0, 2, 1)
    y = channel_outputs(cfg, 0.0, z[0])
    assert y[0] == 0.0
    assert y[1] != 0.0


def test_sample_noise_consumes_one_plus_m_normals():
    cfg = make_config()
    ref = np.random.default_rng(11)
    theta, z = one_trial(11, 2, 3)
    assert np.array_equal(theta, ref.random(2))
    for row in z:  # one step at a time gives the same normals as the block
        assert np.array_equal(row, ref.standard_normal(3))
    y = channel_outputs(cfg, 0.0, z[0])
    assert y == pytest.approx(np.sqrt(0.5) * z[0, 0] + np.sqrt([1.0, 2.0]) * z[0, 1:],
                              rel=1e-15)


@pytest.mark.parametrize("m, horizon", [(1, 0), (1, 5), (2, 1), (4, 7), (8, 3)])
def test_draw_trial_stream_layout(m, horizon):
    # after a trial the generator sits exactly M + H (1 + M) draws further on
    rng = np.random.default_rng(23)
    _, rows = draw_batch([rng], m, horizon)
    for _ in rows:
        pass
    ref = np.random.default_rng(23)
    for _ in range(m):
        ref.random()
    for _ in range(horizon * (1 + m)):
        ref.standard_normal()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("m, horizon", [
    (1, 0), (2, 5), (64, 31), (64, 62), (64, 63), (64, 64), (64, 150),
    (2047, 3), (4095, 3), (5000, 3),
])
def test_draw_batch_is_draw_trial_in_blocks(m, horizon):
    # with blocks of _block_steps(M) steps (31 at M = 64): no block, part of
    # one, exactly one, exactly two, two and a step or two, five ending
    # mid-block, and one step per block without and with the floor
    assert _block_steps(64) == 31 and 2 * 31 * 65 <= BLOCK_NORMALS
    assert _block_steps(2047) == _block_steps(4095) == 1 and BLOCK_NORMALS // 2 // 4096 == 0
    for threads in (1, 2, 4):
        # generators pass through default_rng as they are, so their end state shows
        rngs = [np.random.default_rng(s) for s in (4, 5, 6)]
        theta, rows = draw_batch(rngs, m, horizon, threads)
        got = np.array([row.copy() for row in rows]).reshape(horizon, 3, 1 + m)
        for i, seed in enumerate((4, 5, 6)):
            ref = np.random.default_rng(seed)
            want_theta, want_z = draw_trial(ref, m, horizon)
            assert theta[i].tobytes() == want_theta.tobytes()
            assert got[:, i].tobytes() == want_z.tobytes()
            # the generator stops where draw_trial's does: no draw is wasted,
            # and no fill of a next block starts past the horizon
            assert rngs[i].bit_generator.state == ref.bit_generator.state, threads


def test_sample_noise_moments():
    cfg = make_config(common_noise_var=0.25, private_noise_vars=(1.0, 4.0))
    _, z = one_trial(19, 2, 20000)
    draws = channel_outputs(cfg, np.zeros(20000), z)
    var = draws.var(axis=0)
    # y_m = z + z_m so Var = common + private
    assert var[0] == pytest.approx(1.25, rel=0.05)
    assert var[1] == pytest.approx(4.25, rel=0.05)
    cov = np.cov(draws.T)[0, 1]
    assert cov == pytest.approx(0.25, abs=0.1)  # shared component only


def test_transmit_adds_components():
    cfg = make_config()
    _, z = one_trial(2, 2, 1)
    y = channel_outputs(cfg, 1.5, z[0])
    assert y.shape == (2,)
    assert y == pytest.approx(1.5 + np.sqrt(0.5) * z[0, 0] + np.sqrt([1.0, 2.0]) * z[0, 1:])
    # a batch of inputs gives each row the outputs of the single call
    batch = channel_outputs(cfg, np.full(3, 1.5), np.repeat(z, 3, axis=0))
    assert np.array_equal(batch, np.tile(y, (3, 1)))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_spawn_trial_seeds_prefix_stable(seed):
    # restarting with more trials must reproduce the original trials verbatim
    small = spawn_trial_seeds(seed, 3)
    large = spawn_trial_seeds(seed, 5)
    for a, b in zip(small, large):
        assert a.spawn_key == b.spawn_key
        assert np.array_equal(a.generate_state(4), b.generate_state(4))


def test_spawn_trial_seeds_distinct_streams():
    seeds = spawn_trial_seeds(123, 8)
    states = {tuple(s.generate_state(2)) for s in seeds}
    assert len(states) == 8


def test_spawn_trial_seeds_rejects_negative():
    with pytest.raises(ValueError):
        spawn_trial_seeds(1, -1)
