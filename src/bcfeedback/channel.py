"""Additive white Gaussian broadcast channel with one common and M private noises.

Receiver m observes y_m = x + z + z_m, where z is shared by every receiver
(variance ``common_noise_var``) and z_m is receiver-private (variance
``private_noise_vars[m]``).  Either component may be switched off per receiver;
an entirely noiseless channel is rejected because every schedule divides by an
output variance.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

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
        m = self.num_receivers
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
            raise ValueError("num_receivers must be a positive integer")
        object.__setattr__(self, "num_receivers", int(m))
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


# Normals per trial in one block of draw_batch's noise: 32 KiB of float64.
BLOCK_NORMALS = 4096


def draw_batch(seeds: list, M: int, horizon: int, threads: int = 1):
    """The trial stream layout for each of ``seeds``: the only code that draws.

    A trial's stream holds M message-point uniforms, then 1 + M standard
    normals per step, the common component first.  Zero-variance components
    still consume theirs, so streams stay aligned whichever variances are
    switched off.  Each trial's generator is ``np.random.default_rng(seed)``,
    made once; a Generator passes through it as it is and is advanced.

    Returns the (trials, M) message points, drawn now, and an iterator over
    steps 1..horizon that yields each step's (trials, 1 + M) noise row.  The
    normals are drawn lazily in blocks of max(1, BLOCK_NORMALS // (1 + M))
    steps into one buffer reused block after block, so memory does not grow
    with the horizon.  A row is valid only until the next one is taken.
    Successive fills continue each generator's stream, so the rows are the
    whole stream's normals in order, bit for bit.

    Each block fill is split into min(threads, trials) contiguous slices of
    trials, filled side by side before the block's rows are yielded, so each
    generator is advanced by one thread only, in stream order, and the
    normals do not depend on ``threads``.
    """
    block = max(1, BLOCK_NORMALS // (1 + M))
    # allocated before the generators, whose small allocations would otherwise
    # pin a worker thread's heap above it and hold it resident after the chunk
    buf = np.empty((len(seeds), min(block, horizon), 1 + M))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    theta = np.empty((len(rngs), M))
    for row, rng in zip(theta, rngs):
        row[:] = rng.random(M)
    return theta, _noise_rows(rngs, buf, horizon, max(1, min(threads, len(rngs))))


def _fill(rngs, block: np.ndarray) -> None:
    for out, rng in zip(block, rngs):
        rng.standard_normal(out=out)  # releases the GIL while it fills


def _noise_rows(rngs, buf: np.ndarray, horizon: int, parts: int):
    cuts = [len(rngs) * i // parts for i in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) if parts > 1 else nullcontext() as helpers:
        done = 0
        while done < horizon:
            k = min(buf.shape[1], horizon - done)
            slices = [(rngs[lo:hi], buf[lo:hi, :k]) for lo, hi in zip(cuts, cuts[1:])]
            helped = [helpers.submit(_fill, *part) for part in slices[1:]]
            _fill(*slices[0])
            for fut in helped:
                fut.result()
            for j in range(k):
                yield buf[:, j]
            done += k


def channel_outputs(config: ChannelConfig, x, z: np.ndarray) -> np.ndarray:
    """Per-receiver outputs x + sigma z_0 + sigma_m z_m for standard normals z.

    x has any shape and z that shape plus a trailing 1 + M axis; the result
    ends in an M axis.
    """
    common_std = math.sqrt(config.common_noise_var)
    private_std = np.sqrt(np.asarray(config.private_noise_vars, dtype=float))
    # (x + common) + private, added in place: addition commutes bit for bit
    y = private_std * z[..., 1:]
    y += np.asarray(x)[..., None] + common_std * z[..., :1]
    return y


def spawn_trial_seeds(seed: int, trials: int) -> list[np.random.SeedSequence]:
    """Independent child seed sequences, one per trial, keyed by trial index."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    return np.random.SeedSequence(seed).spawn(trials)
