"""Monte Carlo harness: per-trial streams, vectorised batches, CSV rows.

``prepare_scheme`` unrolls a schedule over the horizon with one
``unroll(horizon)`` call and checks the stacked rows once; the trials share
them.

Reproducibility contract: trial i draws from a child stream spawned from the
master seed by trial index, laid out by ``channel.draw_batch`` (M uniforms for
the message points, then 1 + M standard normals per step), the only code that
draws.  ``_run_chunk`` is the one stepping loop: it draws a batch of trials
and steps them, encoding, forming outputs with ``channel_outputs`` and
updating the sources into buffers it makes once.  ``run_batch``, the one
runner, runs trials in fixed chunks of ``CHUNK_SIZE`` reduced in chunk order,
and folds the decoder replay maps only to check the round trip; one trial is
a batch of one.  Threads run chunks side by side, and spare
threads fill a chunk's next noise block by trial while the chunk's thread
steps through this one, each generator advanced by one thread at a time, so
results are byte-identical for any thread count.  The normals are drawn in
blocks of steps into two (trials, k, 1 + M) buffers used in turn, k = max(1,
BLOCK_NORMALS // 2 // (1 + M)) and ``channel.BLOCK_NORMALS`` = 4096.  So the
noise takes at most 32 KiB per trial (32 MiB for a full chunk; two steps'
1 + M normals once M > 2047), whatever the horizon.

Success at checkpoint n for receiver m means the residual source value lies
inside the pivot interval: |s_{n+1}| < t_n.  That is the same event as "the
message point lies in the decoded subinterval" (see ``core``), exact up to
cdf rounding, but stays evaluable long after the decoded interval's float
endpoints saturate.

``csv_rows`` formats a ``run_batch`` result straight into the report's rows.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channel import (
    ChannelConfig,
    _usable_cpus,
    channel_outputs,
    draw_batch,
    spawn_trial_seeds,
)
from .core import (
    DecoderState,
    IntervalPolicy,
    decoder_absorb,
    embed_message,
    encode,
    update_sources,
)
from .numerics import _as_int
from .schedules import make_schedule

__all__ = [
    "CHUNK_SIZE",
    "prepare_scheme",
    "default_policies",
    "default_checkpoints",
    "run_batch",
    "csv_rows",
    "write_csv",
    "CSV_HEADER",
]

CHUNK_SIZE = 1024
WILSON_Z = 1.959963984540054  # two-sided 95%
CSV_HEADER = (
    "scheme,M,P,checkpoint_n,receiver,target_rate,errors,trials,"
    "err_rate,wilson_lo,wilson_hi,mean_power"
)


@dataclass(frozen=True)
class PreparedScheme:
    """A schedule unrolled over a horizon into read-only rows, shared across trials.

    Step n mixes with alpha = weights * h, feeds back b[n - 1] * h and divides
    by a[n - 1], with h = table[row[n - 1]], a row of the schedule's shared
    (M, M) +-1 table.  weights, a and b are 1 wide (Hadamard schemes) or 2
    (ozarow2), so no array has both a step and a receiver axis.
    """

    scheme: str
    channel: ChannelConfig
    p0: float
    table: np.ndarray
    weights: np.ndarray
    row: np.ndarray
    beta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    expected_power: np.ndarray
    rate_limits: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.beta)


def prepare_scheme(scheme: str, channel: ChannelConfig, horizon: int, *,
                   g: float = 1.0, rho_mode: str = "tracked",
                   check_invariants: bool = True) -> PreparedScheme:
    """Unroll ``horizon`` steps of the named schedule in one call and check the arrays.

    The table must be (M, M) and every row index inside it; weights, a and
    b must share one width, 1 or M; every coefficient must be finite and
    every a > 0.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    sched = make_schedule(scheme, channel, g=g, rho_mode=rho_mode,
                          check_invariants=check_invariants)
    m = channel.num_receivers
    table = sched.table
    weights = np.array(sched.weights, dtype=float)
    if table.shape != (m, m) or weights.shape not in ((1,), (m,)):
        raise ValueError(f"schedule table or weights do not fit {m} receivers")
    k = weights.size
    row, beta, a, b, power = sched.unroll(horizon)
    # a row of another width would broadcast silently into the table
    if not (row.shape == beta.shape == power.shape == (horizon,)
            and a.shape == b.shape == (horizon, k)):
        raise ValueError(f"schedule unroll is not {horizon} steps {k} wide")
    if not ((row >= 0) & (row < m)).all():
        raise ValueError("schedule rows must index the table")
    if not all(np.isfinite(arr).all() for arr in (weights, beta, a, b)):
        raise ValueError("schedule coefficients must be finite")
    if not (a > 0.0).all():
        raise ValueError("all source contraction factors a must be positive")
    for arr in (weights, row, beta, a, b, power):
        arr.setflags(write=False)
    return PreparedScheme(scheme, channel, float(sched.p0), table, weights, row, beta, a, b,
                          power, np.asarray(sched.rate_limits(), dtype=float))


def default_policies(prepared: PreparedScheme, rate_fraction: float, *,
                     base_halfwidth: float | None = None,
                     growth_fraction: float = 0.5) -> list[IntervalPolicy]:
    """Per-receiver pivot policies for a target rate of rate_fraction * R*.

    The default halfwidth growth is growth_fraction * (R* - R) bits per step
    with base sqrt(p0); both knobs are overridable, and the growth must stay
    strictly inside (0, R* - R) for the reliability argument to close.
    """
    if not (0.0 < rate_fraction < 1.0):
        raise ValueError("rate_fraction must lie strictly between 0 and 1")
    if not (0.0 < growth_fraction < 1.0):
        raise ValueError("growth_fraction must lie strictly between 0 and 1")
    base = math.sqrt(prepared.p0) if base_halfwidth is None else float(base_halfwidth)
    policies = []
    for r_star in prepared.rate_limits:
        slack = (1.0 - rate_fraction) * float(r_star)
        policies.append(IntervalPolicy(base_halfwidth=base,
                                       growth_rate_bits=growth_fraction * slack))
    return policies


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Quarter-horizon checkpoints; horizon 0 degenerates to the single point 0."""
    if horizon == 0:
        return (0,)
    marks = sorted({max(1, round(horizon * f)) for f in (0.25, 0.5, 0.75, 1.0)})
    return tuple(marks)


def _halfwidths(policies: list[IntervalPolicy], n: int) -> np.ndarray:
    return np.array([pol.halfwidth(n) for pol in policies])


def _run_chunk(prepared: PreparedScheme, horizon: int,
               policies: list[IntervalPolicy], marks: tuple[int, ...],
               seeds, check_roundtrip: bool, draw_threads: int):
    """Step a batch of trials: (err_counts, cum_sum, cum_sumsq, roundtrip).

    The outputs and sources are written into buffers made once, so x, y and
    s are valid only until the next step.  The decoder replay maps are folded
    only under ``check_roundtrip``, to measure the round trip.
    """
    m = prepared.channel.num_receivers
    theta, noise = draw_batch(seeds, m, horizon, draw_threads)

    s1 = embed_message(theta, prepared.p0)
    dec = DecoderState(np.zeros(m), np.zeros(s1.shape))
    cum_power = np.zeros(len(seeds))
    err_counts = np.zeros((len(marks), m), dtype=np.int64)
    cum_sum = np.zeros(len(marks))
    cum_sumsq = np.zeros(len(marks))
    mark_index = {n: i for i, n in enumerate(marks)}
    roundtrip = 0.0
    s, y, sources = s1, np.empty(s1.shape), np.empty((2, *s1.shape))

    # closed however the loop ends, so no helper thread outlives the chunk
    with closing(noise):
        for n, z in enumerate(noise, start=1):
            h = prepared.table[prepared.row[n - 1]]
            a, b = prepared.a[n - 1], prepared.b[n - 1] * h
            x = encode(s, prepared.weights * h, prepared.beta[n - 1])
            channel_outputs(prepared.channel, x, z, out=y)
            s = update_sources(s, a, b, y, out=sources[n % 2])  # never writes s1
            cum_power += x * x
            if check_roundtrip:
                dec = decoder_absorb(dec, a, b, y)
                recon = dec.slope * s + dec.intercept
                rel = np.abs(recon - s1) / np.maximum(1.0, np.abs(s1))
                roundtrip = max(roundtrip, float(rel.max()))
            if n in mark_index:
                i = mark_index[n]
                # not "|s| >= t": a NaN residual is an error too
                err_counts[i] += (~(np.abs(s) < _halfwidths(policies, n))).sum(axis=0)
                mp = cum_power / n
                cum_sum[i] = mp.sum()
                cum_sumsq[i] = (mp * mp).sum()

    return err_counts, cum_sum, cum_sumsq, roundtrip


# ----------------------------------------------------------------------------
# vectorised batches
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchStats:
    """Chunk-reduced statistics over a batch of trials."""

    trials: int
    checkpoints: tuple[int, ...]
    err_counts: np.ndarray  # (len(checkpoints), M) integer error counts
    cum_power_sum: np.ndarray  # per checkpoint: sum over trials of (1/n) sum x_k^2
    cum_power_sumsq: np.ndarray
    roundtrip_max_relerr: float  # max over steps/trials of |T_n(s_{n+1}) - s_1| / max(1, |s_1|)


def run_batch(prepared: PreparedScheme, horizon: int, policy, seed: int,
              trials: int, *, checkpoints: Sequence[int] | None = None,
              threads: int = 1, check_roundtrip: bool = False) -> BatchStats:
    """Vectorised trials in fixed chunks; reduction order is chunk order.

    At most cpus = min(threads, usable CPUs) threads run at once: one worker
    per chunk, up to cpus of them, and when fewer chunks than that run, each
    chunk's noise blocks are filled by cpus // workers threads: its worker,
    which steps through one block while cpus // workers - 1 helpers fill the
    next one, and then fills what they have left.  Threads only decide where
    a chunk runs and which thread advances a trial's generator, never the
    arithmetic or its order, so every (seed, trials, horizon) triple gives
    identical statistics.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if horizon > prepared.horizon:
        raise ValueError("horizon exceeds the prepared schedule")
    m = prepared.channel.num_receivers
    policies = [policy] * m if isinstance(policy, IntervalPolicy) else list(policy)
    if len(policies) != m:
        raise ValueError(f"need one policy or {m} of them, got {len(policies)}")
    marks = default_checkpoints(horizon) if checkpoints is None else tuple(
        _as_int(c, "checkpoints must be integers") for c in checkpoints)
    if any(c < 0 or c > horizon for c in marks):
        raise ValueError("checkpoints must lie in [0, horizon]")
    if len(set(marks)) != len(marks):
        raise ValueError("checkpoints must be distinct")

    seeds = spawn_trial_seeds(seed, trials)
    chunks = [seeds[i:i + CHUNK_SIZE] for i in range(0, trials, CHUNK_SIZE)]

    cpus = max(1, min(threads, _usable_cpus()))
    workers = min(cpus, len(chunks))

    def work(chunk):
        return _run_chunk(prepared, horizon, policies, marks, chunk, check_roundtrip,
                          cpus // workers)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(c) for c in chunks]

    err = np.zeros((len(marks), m), dtype=np.int64)
    cum_sum = np.zeros(len(marks))
    cum_sumsq = np.zeros(len(marks))
    roundtrip = 0.0
    for res in results:  # chunk order, independent of completion order
        err += res[0]
        cum_sum += res[1]
        cum_sumsq += res[2]
        roundtrip = max(roundtrip, res[3])
    return BatchStats(trials=trials, checkpoints=marks, err_counts=err,
                      cum_power_sum=cum_sum, cum_power_sumsq=cum_sumsq,
                      roundtrip_max_relerr=roundtrip)


# ----------------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    # at the extremes center -+ half is an exact cancellation; pin it
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def write_csv(fh, prepared: PreparedScheme, stats: BatchStats, rate_fraction: float) -> None:
    """CSV_HEADER, then ``csv_rows(prepared, stats, rate_fraction)``."""
    fh.write(CSV_HEADER + "\n")
    fh.writelines(csv_rows(prepared, stats, rate_fraction))


def csv_rows(prepared: PreparedScheme, stats: BatchStats,
             rate_fraction: float) -> Iterator[str]:
    """CSV lines, one per (checkpoint, receiver) of a batch; floats at 12 significant digits.

    Receiver m's row gives its target rate rate_fraction * R*_m, its error
    count, the error rate errors / trials with its 95% Wilson interval, and
    the checkpoint's mean over trials of (1/n) sum_{k<=n} x_k^2 (0 at n = 0).
    Repeated cells are formatted once: P per call, mean_power per checkpoint
    and target_rate .. wilson_hi per distinct (target, errors) pair, of which
    a batch of a wide M has few.
    """
    ch = prepared.channel
    trials = stats.trials
    head = f"{prepared.scheme},{ch.num_receivers},{_fmt(ch.power_budget)},"
    targets = (rate_fraction * prepared.rate_limits).tolist()
    cells = {}  # keyed by value: -0.0 would hit 0.0's cell, but no rate limit is -0.0
    for n, errors, power in zip(stats.checkpoints, stats.err_counts.tolist(),
                                stats.cum_power_sum.tolist()):
        tail = f",{_fmt(power / trials)}\n"
        for j, key in enumerate(zip(targets, errors)):
            cell = cells.get(key)
            if cell is None:
                target, k = key
                lo, hi = wilson_interval(k, trials)
                cell = cells[key] = (f"{_fmt(target)},{k},{trials},"
                                     f"{_fmt(k / trials)},{_fmt(lo)},{_fmt(hi)}")
            yield f"{head}{n},{j + 1},{cell}{tail}"
