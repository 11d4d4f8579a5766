"""Additive white Gaussian broadcast channel with one common and M private noises.

Receiver m observes y_m = x + z + z_m, where z is shared by every receiver
(variance ``common_noise_var``) and z_m is receiver-private (variance
``private_noise_vars[m]``).  Either component may be switched off per receiver;
an entirely noiseless channel is rejected because every schedule divides by an
output variance.

``ChannelConfig`` is plain floats, so the solve path never loads numpy; the
array code (``draw_batch``, ``channel_outputs``, ``spawn_trial_seeds``)
imports it when it runs, and ``draw_batch`` the thread pool that fills the
noise.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .numerics import _as_int

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ChannelConfig",
    "draw_batch",
    "channel_outputs",
    "spawn_trial_seeds",
]


@dataclass(frozen=True)
class ChannelConfig:
    num_receivers: int
    power_budget: float
    common_noise_var: float
    private_noise_vars: tuple[float, ...]

    def __post_init__(self):
        message = "num_receivers must be a positive integer"
        m = _as_int(self.num_receivers, message)
        if m < 1:
            raise ValueError(message)
        object.__setattr__(self, "num_receivers", m)
        p = float(self.power_budget)
        if not (math.isfinite(p) and p > 0.0):
            raise ValueError("power_budget must be positive and finite")
        object.__setattr__(self, "power_budget", p)
        c = float(self.common_noise_var)
        if not (math.isfinite(c) and c >= 0.0):
            raise ValueError("common_noise_var must be nonnegative and finite")
        object.__setattr__(self, "common_noise_var", c)
        priv = tuple(float(v) for v in self.private_noise_vars)
        if len(priv) != self.num_receivers:
            raise ValueError(
                f"private_noise_vars has length {len(priv)}, expected {self.num_receivers}"
            )
        if any(not (math.isfinite(v) and v >= 0.0) for v in priv):
            raise ValueError("private noise variances must be nonnegative and finite")
        if c == 0.0 and max(priv) == 0.0:
            raise ValueError("completely noiseless channel is not supported")
        object.__setattr__(self, "private_noise_vars", priv)

    @functools.cached_property
    def _noise_std(self) -> tuple[float, np.ndarray]:
        """The noise scales, worked out at the first use: channel_outputs runs every step."""
        import numpy as np

        private_std = np.sqrt(np.asarray(self.private_noise_vars, dtype=float))
        private_std.setflags(write=False)
        return math.sqrt(self.common_noise_var), private_std


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


# Normals per trial over draw_batch's two noise buffers: 32 KiB of float64.
BLOCK_NORMALS = 4096


def _block_steps(M: int) -> int:
    """Steps in one of draw_batch's two noise buffers at M receivers."""
    return max(1, BLOCK_NORMALS // 2 // (1 + M))


def draw_batch(seeds: list, M: int, horizon: int, threads: int = 1):
    """The trial stream layout for each of ``seeds``: the only code that draws.

    A trial's stream holds M message-point uniforms, then 1 + M standard
    normals per step, the common component first.  Zero-variance components
    still consume theirs, so streams stay aligned whichever variances are
    switched off.  Each trial's generator is ``np.random.default_rng(seed)``,
    made once; a Generator passes through it as it is and is advanced.

    Returns the (trials, M) message points, drawn now, and an iterator over
    steps 1..horizon that yields each step's (trials, 1 + M) noise row.  The
    normals are drawn lazily in blocks of k = ``_block_steps(M)`` steps into
    two buffers used in turn (one if the horizon fits in it), so memory does
    not grow with the horizon: both together hold BLOCK_NORMALS normals per
    trial, or two steps' once M > 2047.  A row is valid only until the next
    one is taken.  Successive fills continue each generator's stream, so the
    rows are the whole stream's normals in order, bit for bit.

    With threads > 1, min(threads, trials) - 1 helper threads fill the next
    block while the caller steps through this one's rows; after the last row
    the caller fills what they have not claimed, waits for them, and only
    then is the next block yielded.  The filling threads claim trials one at
    a time from one shared iterator per block, so a helper slowed by other
    load holds up one trial's fill, not a share of the block.  A block's fill
    starts only after the previous one is complete and each trial is claimed
    once per block, so each generator is advanced by one thread at a time, in
    stream order, and the normals do not depend on ``threads``.  No fill
    starts past the horizon.  Closing the iterator early waits for the
    helpers and ends their threads.
    """
    import numpy as np

    k = _block_steps(M)
    # allocated before the generators, whose small allocations would otherwise
    # pin a worker thread's heap above it and hold it resident after the chunk
    bufs = np.empty((1 + (horizon > k), len(seeds), min(k, horizon), 1 + M))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    theta = np.empty((len(rngs), M))
    for row, rng in zip(theta, rngs):
        row[:] = rng.random(M)
    return theta, _noise_rows(rngs, bufs, horizon, max(1, min(threads, len(rngs))))


def _fill(claims, lock) -> None:
    """Fill each (rng, row block) this thread claims from ``claims`` until none is left."""
    while True:
        with lock:
            claim = next(claims, None)
        if claim is None:
            return
        rng, out = claim
        rng.standard_normal(out=out)  # releases the GIL while it fills


def _noise_rows(rngs, bufs: np.ndarray, horizon: int, parts: int):
    import threading
    from concurrent.futures import ThreadPoolExecutor

    k = bufs.shape[2]
    lock = threading.Lock()
    with ThreadPoolExecutor(parts - 1) if parts > 1 else nullcontext() as helpers:

        def start(buf, steps):
            claims = zip(rngs, buf[:, :steps])
            return claims, [helpers.submit(_fill, claims, lock) for _ in range(parts - 1)]

        done, b, fill = 0, 0, None
        while done < horizon:
            steps = min(k, horizon - done)
            claims, helped = fill or start(bufs[b], steps)  # only block 0 starts here
            _fill(claims, lock)  # this thread takes the trials no helper has claimed
            for fut in helped:
                fut.result()
            if done + steps < horizon:  # the next block, filled while this one is stepped
                fill = start(bufs[1 - b], min(k, horizon - done - steps))
            for j in range(steps):
                yield bufs[b, :, j]
            done, b = done + steps, 1 - b


def channel_outputs(config: ChannelConfig, x, z: np.ndarray, out=None) -> np.ndarray:
    """Per-receiver outputs x + sigma z_0 + sigma_m z_m for standard normals z.

    x has any shape and z that shape plus a trailing 1 + M axis; the result
    ends in an M axis.  It is written into ``out`` when one is given.
    """
    import numpy as np

    common_std, private_std = config._noise_std
    # (x + common) + private, added in place: addition commutes bit for bit
    y = np.multiply(private_std, z[..., 1:], out=out)
    y += np.asarray(x)[..., None] + common_std * z[..., :1]
    return y


def spawn_trial_seeds(seed: int, trials: int) -> list[np.random.SeedSequence]:
    """Independent child seed sequences, one per trial, keyed by trial index."""
    import numpy as np

    if trials < 0:
        raise ValueError("trials must be nonnegative")
    return np.random.SeedSequence(seed).spawn(trials)
