"""Output checks for every benchmark operation.

A check returns None when the operation's outcome is right and a one-line
reason when it is not.  A nonzero exit fails its operation unless the
operation is a known failure (see ``workloads.KNOWN_FAILURES``) that failed
the recorded way: exit code 1 and ``KNOWN_FAILURE_STDERR`` at the start of
stderr.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from bcfeedback.montecarlo import CSV_HEADER, default_checkpoints

# What the CLI prints for the RootFindingError of a known failure.
KNOWN_FAILURE_STDERR = "error: bisection hit float resolution"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_op(op, rc, stdout: str, stderr: str, golden: str | None) -> str | None:
    """Why the outcome of ``op`` is wrong, or None.

    ``golden`` is the recorded sha256 of a simulate CSV, when one exists for
    this operation and seed; the CSV must then match it byte for byte.
    """
    if op.known_failure and rc == 1 and stderr.startswith(KNOWN_FAILURE_STDERR):
        return None
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[:200]}"
    if op.kind == "duality":
        return _check_duality(op, stdout)
    if op.kind == "solve":
        return _check_solve(stdout)
    if golden is not None:
        digest = sha256(stdout)
        return None if digest == golden else f"CSV sha256 {digest} != recorded {golden}"
    return _check_simulate_csv(op.config, stdout)


def _check_duality(op, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != "M,P,rate_bc_bits,rate_mac_bits,abs_diff,ok":
        return f"unexpected duality output {stdout[:200]!r}"
    fields = lines[1].split(",")
    if int(fields[0]) != op.M or float(fields[1]) != op.P:
        return f"duality row is for M={fields[0]} P={fields[1]}"
    if fields[-1] != "yes":
        return f"duality row not ok: {lines[1]}"
    return None


def _check_solve(stdout: str) -> str | None:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"solve output is not JSON: {exc}"
    for key in ("rho", "sum_rate_bits"):
        val = payload.get(key)
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            return f"solve {key} = {val!r} is not finite"
    return None


def _check_simulate_csv(config: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "CSV header differs from CSV_HEADER"
    rows = list(csv.DictReader(io.StringIO(stdout)))
    m, trials = config["num_receivers"], config["trials"]
    want_rows = len(default_checkpoints(config["horizon"])) * m
    if len(rows) != want_rows:
        return f"CSV has {len(rows)} rows, expected checkpoints x M = {want_rows}"
    for row in rows:
        if (row["scheme"] != config["scheme"] or int(row["M"]) != m
                or int(row["trials"]) != trials):
            return f"CSV row describes another run: {row}"
        errors = row["errors"]
        if not errors.isdigit() or int(errors) > trials:
            return f"error count {errors!r} is not an integer in [0, {trials}]"
    return None
