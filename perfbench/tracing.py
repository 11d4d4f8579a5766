"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions at the module attribute each
caller resolves at call time (for example ``bcfeedback.fixedpoint.largest_root``
is what the fixedpoint solvers call), so spans and counts are recorded at the
layer boundaries without any edit to the package.  ``uninstall`` puts the
originals back.

Spans are kept in memory: name, start, end, parent and the id of the CLI
operation they belong to.  Only the thread that runs the operations records
spans; a wrapped function called from a worker thread is counted, not timed,
so spans of one operation nest and the self times of its spans add up to the
operation's wall time.  ``nesting_problems`` and ``op_balance_error`` check
both.
"""

from __future__ import annotations

import inspect
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass

import bcfeedback.cli
import bcfeedback.fixedpoint
import bcfeedback.montecarlo
import bcfeedback.schedules

ROOT = "cli.main"

# (module, attribute, span name); the layer is the span name's first part.
SPANNED = (
    (bcfeedback.cli, "solve_lambda_bc", "fixedpoint.solve_lambda_bc"),
    (bcfeedback.cli, "solve_lambda_mac", "fixedpoint.solve_lambda_mac"),
    (bcfeedback.cli, "rate_report", "fixedpoint.rate_report"),
    (bcfeedback.cli, "prepare_scheme", "schedules.prepare_scheme"),
    (bcfeedback.schedules, "solve_lambda_bc", "fixedpoint.solve_lambda_bc"),
    (bcfeedback.schedules, "solve_rho", "fixedpoint.solve_rho"),
    (bcfeedback.schedules, "build_warmup_plan", "fixedpoint.build_warmup_plan"),
    (bcfeedback.schedules, "covariance_update", "schedules.covariance_update"),
    (bcfeedback.schedules, "hadamard_eigen_profile", "schedules.hadamard_eigen_profile"),
    (bcfeedback.montecarlo, "make_schedule", "schedules.make_schedule"),
    (bcfeedback.montecarlo, "spawn_trial_seeds", "channel.spawn_trial_seeds"),
    (bcfeedback.montecarlo, "run_batch", "montecarlo.run_batch"),
    (bcfeedback.fixedpoint, "largest_root", "numerics.largest_root"),
)
# core.embed_message runs inside the batch worker threads: a count only.
COUNTED = ((bcfeedback.montecarlo, "embed_message", "core.embed_message.calls"),)

_RUN_BATCH_SIG = inspect.signature(bcfeedback.montecarlo.run_batch)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    failed: bool

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.residuals: list[float] = []
        self.batches: list[tuple[int, int]] = []  # (trials, horizon) per run_batch
        self._stack: list[int] = []
        self._op = -1
        self._thread = threading.get_ident()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._replace(module, attr, self._spanned(getattr(module, attr), name))
        for module, attr, key in COUNTED:
            self._replace(module, attr, self._counted(getattr(module, attr), key))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _replace(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- recording ---------------------------------------------------------

    def _count(self, key: str) -> None:
        with self._lock:
            self.counts[key] += 1

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id under the root span."""
        self._op = op_id
        return self._in_span(ROOT, fn, args, {})

    def _in_span(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id, name, 0.0, 0.0, parent, self._op, False)
        self.spans.append(span)
        self._stack.append(span_id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _spanned(self, fn, name: str):
        hooks = {
            "numerics.largest_root": self._largest_root,
            "montecarlo.run_batch": self._run_batch,
            "channel.spawn_trial_seeds": self._spawn_trial_seeds,
        }
        hook = hooks.get(name, self._residual if name.startswith("fixedpoint.") else None)

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                self._count(name + ".offthread_calls")
                return fn(*args, **kwargs)
            if hook is None:
                return self._in_span(name, fn, args, kwargs)
            return hook(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, key: str):
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function hooks ------------------------------------------------

    def _largest_root(self, name, fn, args, kwargs):
        f = args[0]

        def counted_f(x):
            self.counts["numerics.largest_root.f_calls"] += 1
            return f(x)

        res = self._in_span(name, fn, (counted_f,) + tuple(args[1:]), kwargs)
        self.counts["numerics.largest_root.bisect_iters"] += res.iterations
        return res

    def _residual(self, name, fn, args, kwargs):
        res = self._in_span(name, fn, args, kwargs)
        residual = getattr(res, "residual", getattr(res, "lam_residual", None))
        if residual is not None:
            self.residuals.append(float(residual))
        return res

    def _run_batch(self, name, fn, args, kwargs):
        bound = _RUN_BATCH_SIG.bind(*args, **kwargs)
        self.batches.append((int(bound.arguments["trials"]), int(bound.arguments["horizon"])))
        return self._in_span(name, fn, args, kwargs)

    def _spawn_trial_seeds(self, name, fn, args, kwargs):
        seeds = self._in_span(name, fn, args, kwargs)
        self.counts["channel.seeds"] += len(seeds)
        return seeds


# ----------------------------------------------------------------------------
# reduction of one traced pass to per-layer metrics
# ----------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def nesting_problems(spans: list[Span]) -> list[str]:
    """Spans that do not nest: each operation has one root span, and every
    other span lies inside its parent, belongs to the parent's operation and
    has a self time of at least 0."""
    problems = []
    roots = Counter(s.op for s in spans if s.parent is None)
    problems += [f"operation {op} has {n} root spans" for op, n in roots.items() if n != 1]
    for s, own in zip(spans, self_times(spans)):
        if s.parent is None:
            if s.name != ROOT:
                problems.append(f"span {s.id} {s.name} has no parent")
        else:
            p = spans[s.parent]
            if s.op != p.op or s.start < p.start or s.end > p.end:
                problems.append(f"span {s.id} {s.name} lies outside its parent {p.id} {p.name}")
        if own < 0:
            problems.append(f"span {s.id} {s.name} has self time {own:.3g} s < 0")
    return problems


def op_balance_error(spans: list[Span], latency: dict[int, float]) -> float:
    """Largest |sum of span self times - measured latency| over the operations.

    ``latency`` maps each operation id to the wall time measured around the
    operation's call, independently of the spans; an operation without spans
    counts with a self-time sum of 0.
    """
    sums = dict.fromkeys(latency, 0.0)
    for s, t in zip(spans, self_times(spans)):
        sums[s.op] = sums.get(s.op, 0.0) + t
    return max((abs(t - latency.get(op, 0.0)) for op, t in sums.items()), default=0.0)


def pass_metrics(tracer: Tracer, chunk_size: int) -> dict[str, float]:
    """Per-layer totals of one traced pass over the workload's operations."""
    spans = tracer.spans
    own = self_times(spans)
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    calls: Counter = Counter()
    for s, t in zip(spans, own):
        self_by_name[s.name] += t
        self_by_layer[s.layer] += t
        calls[s.name] += 1
    top_fixedpoint = [
        s for s in spans
        if s.layer == "fixedpoint" and (s.parent is None or spans[s.parent].layer != "fixedpoint")
    ]
    batch_wall = sum(s.end - s.start for s in spans if s.name == "montecarlo.run_batch")
    trial_steps = sum(t * h for t, h in tracer.batches)
    c = tracer.counts
    return {
        "numerics.largest_root.calls": calls["numerics.largest_root"],
        "numerics.largest_root.self_s": self_by_name["numerics.largest_root"],
        "numerics.largest_root.f_calls": c["numerics.largest_root.f_calls"],
        "numerics.largest_root.bisect_iters": c["numerics.largest_root.bisect_iters"],
        "fixedpoint.self_s": self_by_layer["fixedpoint"],
        "fixedpoint.calls": len(top_fixedpoint),
        "fixedpoint.max_residual": max(tracer.residuals, default=0.0),
        "fixedpoint.failures": sum(s.failed for s in top_fixedpoint),
        "schedules.make_schedule.self_s": self_by_name["schedules.make_schedule"],
        "schedules.covariance_update.calls": calls["schedules.covariance_update"],
        "schedules.covariance_update.self_s": self_by_name["schedules.covariance_update"],
        "schedules.hadamard_eigen_profile.calls": calls["schedules.hadamard_eigen_profile"],
        "schedules.hadamard_eigen_profile.self_s":
            self_by_name["schedules.hadamard_eigen_profile"],
        "schedules.unroll_s": sum(
            s.end - s.start for s in spans if s.name == "schedules.prepare_scheme"
        ),
        "channel.spawn_trial_seeds.self_s": self_by_name["channel.spawn_trial_seeds"],
        "channel.seeds": c["channel.seeds"],
        "montecarlo.run_batch.self_s": self_by_name["montecarlo.run_batch"],
        "montecarlo.trial_steps_per_s": trial_steps / batch_wall if batch_wall > 0 else 0.0,
        "montecarlo.chunks": sum(math.ceil(t / chunk_size) for t, _ in tracer.batches),
        "cli.self_s": self_by_layer["cli"],
        "core.embed_message.calls": c["core.embed_message.calls"],
    }
