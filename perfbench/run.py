#!/usr/bin/env python3
"""Benchmark of the bcfeedback CLI: end-to-end metrics and per-layer tracing.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve_grid --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 0

One run measures one workload (see ``workloads.py``).  It first times the
set-up every CLI invocation pays -- spawning a fresh interpreter until
``import bcfeedback.cli`` returns -- as the median over several spawns.  It
then imports ``bcfeedback.cli`` in this process, runs one untimed warm-up
operation, and repeats passes over the workload's operation list, each
operation a ``bcfeedback.cli.main(argv)`` call with its stdout and stderr
captured, until ``--seconds`` have passed.  Every operation's output is
checked (``checks.py``).

End-to-end timings come from the untraced passes: ``wall_s`` and ``cpu_s``
are the medians over passes of the sum of the operations' wall times and of
this process's user + system CPU time during them (sample count: passes), and
``op_p50_ms`` / ``op_p90_ms`` are percentiles over every untraced operation
latency (sample count: passes times operations per pass).  ``setup_s`` is the
median over its spawns and ``peak_rss_mib`` is ``ru_maxrss`` of this process
after the passes.

The speed of one core of a shared host changes by up to 1.5x over minutes,
with the load other tenants put on it, which moves every timing of pure
Python code by as much.  So after each operation the benchmark times a fixed
reference loop (``reference_s``, which calls no package code), and divides
each operation's wall and CPU time by the median reference time around it
(``local_references``).  The timings in the result line are the same
statistics in those reference units (unit ``ref``): ``wall_ref``, ``cpu_ref``
and ``op_p50_ref``.  A change to the package moves them as it moves the raw
times; a change in host speed mostly cancels.  ``op_p90_ref``, the raw times
and the median reference time are printed beside them but left out of the
result line: a simulate pass holds only 2-4 operations, too few for a steady
p90.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones: it alternates untraced and traced passes, where the traced passes wrap
the package's layer functions from outside (``tracing.py``), and then runs the
layer probes (``probes.py``).  Tracing overhead is the traced minus the
untraced median pass time.  Each traced operation's spans must nest and their
self times must add up to the latency measured around the operation's call.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations whose
outcome is wrong; ``failed_ops_frac`` counts every nonzero exit, including the
known solve_grid failures (``workloads.KNOWN_FAILURES``) that fail the
recorded way and so are not wrong.  Lines before it give every metric
with its unit and sample count, the output-check status and the environment.
The full record (environment, every operation, and in traced runs every span)
is written to ``perfbench/out/``.  ``--workload all`` runs each workload in a
fresh process and ends with the same kind of line over all of them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, build_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

SETUP_SPAWNS = 9
# Largest allowed gap between an operation's measured latency and the sum of
# its span self times: the call overhead of the root span and the output
# capture lie outside the spans.
BALANCE_TOL_S = 1e-3
SPAWN_TIMEOUT_S = 60.0
# Reference-loop samples taken per pass, spread over its operations.
REF_SAMPLES_PER_PASS = 128
# An operation's reference time is the median of the samples taken after the
# operations at most this many places before or after it in the pass.
REF_WINDOW_OPS = 4

# End-to-end metrics in the result line; the timings are in reference units.
END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "cpu_ref": "ref",
    "peak_rss_mib": "MiB",
    "op_p50_ref": "ref",
}
# Printed beside them: p90 and the timings in seconds and milliseconds.
RAW = {
    "op_p90_ref": "ref",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "reference_ms": "ms",
}
PER_LAYER = {
    "numerics.largest_root.calls": "count",
    "numerics.largest_root.self_s": "s",
    "numerics.largest_root.f_calls": "count",
    "numerics.largest_root.bisect_iters": "count",
    "fixedpoint.self_s": "s",
    "fixedpoint.calls": "count",
    "fixedpoint.max_residual": "abs_f",
    "fixedpoint.failures": "count",
    "schedules.make_schedule.self_s": "s",
    "schedules.covariance_update.calls": "count",
    "schedules.covariance_update.self_s": "s",
    "schedules.hadamard_eigen_profile.calls": "count",
    "schedules.hadamard_eigen_profile.self_s": "s",
    "schedules.unroll_s": "s",
    "schedules.invariant_share": "ratio",
    "channel.spawn_trial_seeds.self_s": "s",
    "channel.seeds": "count",
    "montecarlo.run_batch.self_s": "s",
    "montecarlo.trial_steps_per_s": "1/s",
    "montecarlo.chunks": "count",
    "montecarlo.noise_mib_per_chunk": "MiB",
    "montecarlo.peak_traced_mib": "MiB",
    "montecarlo.thread_speedup": "ratio",
    "montecarlo.roundtrip_overhead": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "core.embed_message.calls": "count",
    "failed_ops_frac": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; exit nonzero without a result."""


# ----------------------------------------------------------------------------
# set-up time and environment
# ----------------------------------------------------------------------------


def measure_setup(spawns: int) -> list[float]:
    """Seconds from spawning an interpreter until ``import bcfeedback.cli`` returns.

    One uncounted spawn goes first, so bytecode compiled on first import is
    not charged to the samples.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import bcfeedback.cli, sys; sys.stdout.write('ok'); sys.stdout.flush()"
    samples = []
    for i in range(spawns + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SPAWN_TIMEOUT_S)
            got = proc.stdout.read(2) if ready else b""
            elapsed = time.perf_counter() - start
        finally:
            if proc.poll() is None and not got:
                proc.kill()
            proc.stdout.close()
            rc = proc.wait(timeout=SPAWN_TIMEOUT_S)
        if got != b"ok" or rc != 0:
            raise BenchError(f"'import bcfeedback.cli' failed in a fresh interpreter (exit {rc})")
        if i:
            samples.append(elapsed)
    return samples


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
        "simulate_threads": threads,
        "note": "simulate runs with --threads equal to nproc (CPUs in sched_getaffinity)",
    }


# ----------------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------------


def _invoke(main, argv) -> int | None:
    """Exit code of one CLI call; None when it raised instead of returning."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # counted as a failed operation, traceback kept
        traceback.print_exc()
        return None


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


_REF_XS = [i / 8000 for i in range(8001)]


def reference_s() -> float:
    """Seconds one fixed pure-Python float loop takes (about 1 ms)."""
    start = time.perf_counter()
    acc = 0.0
    for x in _REF_XS:
        acc += math.log1p(x) - x * math.sqrt(x)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise BenchError("reference loop gave a non-finite sum")
    return elapsed


def run_pass(ops, main, tracer=None, first_op_id: int = 0) -> dict:
    """Run every operation once, in order, each followed by reference-loop
    samples; checks happen after the pass."""
    results, refs = [], []
    ref_reps = math.ceil(REF_SAMPLES_PER_PASS / len(ops))
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        op_cpu = _cpu_s()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = _invoke(main, op.argv)
            else:
                rc = tracer.run_op(first_op_id + i, _invoke, main, op.argv)
        latency = time.perf_counter() - start
        results.append((op, latency, _cpu_s() - op_cpu, rc, out.getvalue(), err.getvalue()))
        refs.append([reference_s() for _ in range(ref_reps)])
    return {"wall_s": sum(r[1] for r in results), "cpu_s": sum(r[2] for r in results),
            "refs": refs, "results": results, "traced": tracer is not None}


def local_references(refs: list[list[float]], window: int = REF_WINDOW_OPS) -> list[float]:
    """Per operation, the median of the reference samples taken after the
    operations within ``window`` places of it."""
    n = len(refs)
    return [
        statistics.median(x for r in refs[max(0, i - window):i + window + 1] for x in r)
        for i in range(n)
    ]


def check_pass(pass_, golden: list[str] | None, records: list[dict]) -> None:
    """Check each operation's output, append its record, and drop the output."""
    from checks import check_op, sha256

    ref = local_references(pass_["refs"])
    pass_["wall_ref"] = sum(r[1] / t for r, t in zip(pass_["results"], ref))
    pass_["cpu_ref"] = sum(r[2] / t for r, t in zip(pass_["results"], ref))
    pass_["reference_s"] = statistics.median(x for r in pass_["refs"] for x in r)
    for i, (op, latency, cpu, rc, stdout, stderr) in enumerate(pass_.pop("results")):
        want = golden[i] if golden is not None and op.kind == "simulate" else None
        problem = check_op(op, rc, stdout, stderr, want)
        records.append({
            "index": i, "op": " ".join(op.argv), "latency_s": latency,
            "latency_ref": latency / ref[i], "reference_s": pass_["refs"][i],
            "cpu_s": cpu, "rc": rc,
            "failed": rc != 0 or problem is not None,
            "problem": problem, "known_failure": op.known_failure,
            "stdout_sha256": sha256(stdout), "output_bytes": len(stdout.encode()),
            "stderr": stderr.strip()[:500], "traced": pass_["traced"],
        })


def _unexpected(record: dict) -> bool:
    """Failed, and not a known failure that failed the recorded way."""
    return record["failed"] and not (record["known_failure"] and record["problem"] is None)


def _load_golden(workload: str, seed: int, toy: bool) -> list[str] | None:
    if toy or seed != DEFAULT_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload)


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ----------------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 toy: bool = False) -> dict:
    """Measure one workload; returns metrics (value, unit, n) and the run record."""
    if not (SRC / "bcfeedback" / "cli.py").is_file():
        raise BenchError(f"no bcfeedback sources under {SRC}; run from a source checkout")
    setup = measure_setup(1 if toy else SETUP_SPAWNS)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bcfeedback.cli
    from bcfeedback.montecarlo import CHUNK_SIZE

    if Path(bcfeedback.cli.__file__).resolve().parent != (SRC / "bcfeedback").resolve():
        raise BenchError(f"imported bcfeedback from {bcfeedback.cli.__file__}, not {SRC}")
    import tracing

    threads = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    ops = build_ops(workload, seed, OUT, threads, toy=toy)
    golden = _load_golden(workload, seed, toy)
    main = bcfeedback.cli.main

    records: list[dict] = []
    warm = run_pass(ops[:1], main)
    check_pass(warm, golden[:1] if golden else None, records)
    warmup_records, records = records, []

    passes, traced_metrics, spans, counts, span_problems = [], [], [], {}, []
    balance_err = 0.0
    min_passes = 4 if trace else 3
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        tracer = tracing.Tracer() if trace and len(passes) % 2 == 1 else None
        if tracer is None:
            p = run_pass(ops, main)
        else:
            first = len(passes) * len(ops)
            tracer.install()
            try:
                p = run_pass(ops, main, tracer, first_op_id=first)
            finally:
                tracer.uninstall()
            m = tracing.pass_metrics(tracer, CHUNK_SIZE)
            m["cli.output_bytes"] = sum(len(r[4].encode()) for r in p["results"])
            traced_metrics.append(m)
            latency = {first + i: r[1] for i, r in enumerate(p["results"])}
            balance_err = max(balance_err, tracing.op_balance_error(tracer.spans, latency))
            span_problems += tracing.nesting_problems(tracer.spans)
            spans += [dataclasses.asdict(s) for s in tracer.spans]
            for k, v in tracer.counts.items():
                counts[k] = counts.get(k, 0) + v
        check_pass(p, golden, records)
        passes.append(p)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = [p for p in passes if not p["traced"]]
    failed_ops = sum(r["failed"] for r in records)
    unexpected = [r for r in records if _unexpected(r)]
    problems = [r["problem"] for r in warmup_records + records if _unexpected(r)]
    if balance_err > BALANCE_TOL_S:
        problems.append(f"span self times miss op wall time by {balance_err:.3g} s")
    problems += span_problems
    med = statistics.median
    op_ms = [r["latency_s"] * 1e3 for r in records if not r["traced"]]
    op_ref = [r["latency_ref"] for r in records if not r["traced"]]
    n_pass, n_op = len(untraced), len(op_ms)

    metrics: dict[str, tuple[float, str, int]] = {}
    if not trace:
        metrics = {
            "wall_ref": (med([p["wall_ref"] for p in untraced]), "ref", n_pass),
            "setup_s": (med(setup), "s", len(setup)),
            "cpu_ref": (med([p["cpu_ref"] for p in untraced]), "ref", n_pass),
            "peak_rss_mib": (peak_rss_mib, "MiB", 1),
            "op_p50_ref": (med(op_ref), "ref", n_op),
            "op_p90_ref": (_p90(op_ref), "ref", n_op),
            "wall_s": (med([p["wall_s"] for p in untraced]), "s", n_pass),
            "cpu_s": (med([p["cpu_s"] for p in untraced]), "s", n_pass),
            "op_p50_ms": (med(op_ms), "ms", n_op),
            "op_p90_ms": (_p90(op_ms), "ms", n_op),
            "reference_ms": (med([p["reference_s"] * 1e3 for p in untraced]), "ms", n_pass),
        }
    else:
        import probes

        for name in traced_metrics[0]:
            metrics[name] = (med([m[name] for m in traced_metrics]), PER_LAYER[name],
                             len(traced_metrics))
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        metrics["trace.overhead_s"] = (
            med(traced_walls) - med([p["wall_s"] for p in untraced]), "s", len(passes))
        sim = next((op for op in ops if op.kind == "simulate"), None)
        probe = probes.layer_probes(sim.config, threads, reps=1 if toy else 3) if sim else {}
        for name in probes.NAMES:
            metrics[name] = (probe.get(name, 0.0), PER_LAYER[name], 1 if sim else 0)
    metrics["failed_ops_frac"] = (failed_ops / len(records), "ratio", len(records))

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "toy": toy, "ops_per_pass": len(ops), "passes": len(passes),
        "correct": not problems, "attempted": len(records), "failed": len(unexpected),
        "known_failures": sum(r["known_failure"] and r["failed"] for r in records),
        "golden_checked": golden is not None, "self_time_balance_error_s": balance_err,
        "metrics": metrics, "environment": environment(threads),
        "problems": problems[:20],
        "warmup": warmup_records, "ops": records, "spans": spans, "counts": counts,
    }


# ----------------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------------


def report_lines(res: dict) -> list[str]:
    lines = [
        f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
        f"passes {res['passes']} x {res['ops_per_pass']} ops",
    ]
    for name, (value, unit, n) in res["metrics"].items():
        lines.append(f"  {name:42s} {value:14.6g} {unit:6s} n={n}")
    status = "PASS" if res["correct"] else "FAIL"
    golden = "sha256 vs recorded CSVs" if res["golden_checked"] else "structural"
    lines.append(
        f"  output checks: {status} ({res['attempted']} ops, {golden}; "
        f"{res['failed']} failed unexpectedly, {res['known_failures']} known failures)"
    )
    lines += [f"  problem: {p}" for p in res["problems"]]
    if res["trace"]:
        err = res["self_time_balance_error_s"]
        lines.append(f"  span self times vs op wall: max error {err:.3g} s")
    lines.append("  environment: " + json.dumps(res["environment"], sort_keys=True))
    return lines


def summary_line(res: dict) -> str:
    """The result line: every per-layer metric when traced, else every end-to-end one."""
    names = PER_LAYER if res["trace"] else END_TO_END
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k][0], "unit": u} for k, u in names.items()},
    })


def _run_all(args) -> int:
    """Each workload in a fresh process; one summary line over all of them."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            metrics[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")
    print("\n".join(report_lines(res)))
    print(f"  record: {path.relative_to(ROOT)}")
    print(summary_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
