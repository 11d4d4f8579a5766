"""Smoke test of the benchmark at toy sizes: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import BENCHMARK_WORKLOADS, WORKLOADS, Op, build_ops  # noqa: E402


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARK_WORKLOADS)
    assert set(BENCHMARK_WORKLOADS) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_every_metric(workload, trace):
    res = run.run_workload(workload, seed=3, seconds=0.01, trace=bool(trace), toy=True)
    assert res["correct"], res["problems"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    for name, unit in (run.PER_LAYER if trace else run.END_TO_END | run.RAW).items():
        value, got_unit, n = res["metrics"][name]
        assert got_unit == unit and n >= (0 if trace else 1), name
        assert isinstance(value, float | int), name
    line = json.loads(run.summary_line(res))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    text = "\n".join(run.report_lines(res))
    assert "output checks: PASS" in text
    if trace:
        assert res["self_time_balance_error_s"] <= run.BALANCE_TOL_S
        assert res["spans"] and res["counts"]


def test_reference_time_is_the_median_of_nearby_samples():
    refs = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [9.0, 9.0]]
    assert run.local_references(refs, window=0) == [1.0, 2.0, 3.0, 9.0]
    assert run.local_references(refs, window=1) == [1.5, 2.0, 3.0, 6.0]
    assert run.local_references(refs, window=9) == [2.5] * 4
    assert 0 < run.reference_s() < 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_a_changed_csv_and_a_changed_failure(tmp_path):
    import checks

    (sim,) = build_ops("sim_narrow", 3, tmp_path, 1, toy=True)
    csv_text = checks.CSV_HEADER + "\n"
    assert checks.check_op(sim, 0, csv_text, "", checks.sha256(csv_text)) is None
    assert "sha256" in checks.check_op(sim, 0, csv_text, "", "0" * 64)
    assert "rows" in checks.check_op(sim, 0, csv_text, "", None)

    known = Op("duality", ("duality", "-M", "2", "-P", "1e9"), 2, 1e9)
    assert known.known_failure
    recorded = checks.KNOWN_FAILURE_STDERR + " at x=0.99 with |f|=1.2e-12 > tol 1e-12\n"
    assert checks.check_op(known, 1, "", recorded, None) is None
    for stderr in ("error: lambda residual is NaN\n", "error: no sign change\n"):
        assert checks.check_op(known, 1, "", stderr, None) is not None
    assert checks.check_op(known, 2, "", recorded, None) is not None


def test_span_checks_catch_bad_nesting_and_uncovered_time():
    import tracing
    from tracing import ROOT, Span

    good = [Span(0, ROOT, 0.0, 1.0, None, 0, False),
            Span(1, "fixedpoint.solve_rho", 0.1, 0.6, 0, 0, False),
            Span(2, "numerics.largest_root", 0.2, 0.5, 1, 0, False)]
    assert tracing.nesting_problems(good) == []
    assert tracing.op_balance_error(good, {0: 1.0}) < 1e-12
    # time measured around the call that no span covers
    assert tracing.op_balance_error(good, {0: 1.5}) == pytest.approx(0.5)
    # an operation that recorded no spans at all
    assert tracing.op_balance_error(good, {0: 1.0, 1: 0.2}) == pytest.approx(0.2)

    overlapping = good[:2] + [Span(2, "numerics.largest_root", 0.5, 0.8, 1, 0, False)]
    assert any("outside its parent" in p for p in tracing.nesting_problems(overlapping))
    crowded = good + [Span(3, "numerics.largest_root", 0.1, 0.5, 1, 0, False)]
    assert any("self time" in p for p in tracing.nesting_problems(crowded))
    orphan = good + [Span(3, "schedules.covariance_update", 1.1, 1.2, None, 0, False)]
    assert any("root spans" in p for p in tracing.nesting_problems(orphan))
