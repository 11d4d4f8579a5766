"""Layer probes: direct public calls that compare two settings of one layer.

They run after the timed passes of a traced run, with tracing removed, on the
workload's first simulate config.  Each timing is the median of ``reps``
interleaved repetitions.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

from bcfeedback.channel import ChannelConfig
from bcfeedback.montecarlo import CHUNK_SIZE, default_policies, prepare_scheme, run_batch

NAMES = (
    "schedules.invariant_share",
    "montecarlo.thread_speedup",
    "montecarlo.roundtrip_overhead",
    "montecarlo.noise_mib_per_chunk",
    "montecarlo.peak_traced_mib",
)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def layer_probes(config: dict, threads: int, reps: int = 3) -> dict[str, float]:
    """Per-layer ratios measured on the simulate run that ``config`` describes."""
    m, horizon, trials, seed = (config["num_receivers"], config["horizon"],
                                config["trials"], config["seed"])
    channel = ChannelConfig(m, config["power_budget"], config["common_noise_var"],
                            tuple(config["private_noise_vars"]))
    checked, unchecked, single, multi, roundtrip = [], [], [], [], []
    for _ in range(reps):
        t, prepared = _timed(prepare_scheme, config["scheme"], channel, horizon)
        checked.append(t)
        unchecked.append(_timed(prepare_scheme, config["scheme"], channel, horizon,
                                check_invariants=False)[0])
        policies = default_policies(prepared, 0.5)
        batch = (prepared, horizon, policies, seed, trials)
        single.append(_timed(run_batch, *batch, threads=1)[0])
        multi.append(_timed(run_batch, *batch, threads=threads)[0])
        roundtrip.append(_timed(run_batch, *batch, threads=threads, check_roundtrip=True)[0])
    tracemalloc.start()
    try:
        run_batch(*batch, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    med = statistics.median
    return {
        "schedules.invariant_share": 1.0 - med(unchecked) / med(checked),
        "montecarlo.thread_speedup": med(single) / med(multi),
        "montecarlo.roundtrip_overhead": med(roundtrip) / med(multi) - 1.0,
        # computed from the (chunk, horizon, 1 + M) float64 noise array shape
        "montecarlo.noise_mib_per_chunk": min(CHUNK_SIZE, trials) * horizon * (1 + m) * 8 / 2**20,
        "montecarlo.peak_traced_mib": peak / 2**20,
    }
