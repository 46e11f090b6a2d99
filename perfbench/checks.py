"""Output checks whose failures the benchmark counts as failed operations.

A decision vector holds one entry per trajectory: the 1-based step at which
the monitor rejected it, or 0 if it was accepted.
"""

from __future__ import annotations

import json
from pathlib import Path


def first_crossing(process, threshold: float) -> int:
    """Batch replay of the ratio rule: first step whose value is >= threshold."""
    for t, value in enumerate(process, start=1):
        if value >= threshold:
            return t
    return 0


def parse_verdict(line: str, n_scores: int):
    """Decision encoded by a final ``seqgate monitor`` line, or None if the
    line is not a well-formed final answer for a trajectory of n_scores."""
    word, _, rest = line.strip().partition(" t=")
    if not rest.isdigit():
        return None
    step = int(rest)
    if word == "REJECT" and 1 <= step <= n_scores:
        return step
    if word == "ACCEPT" and step == n_scores:
        return 0
    return None


def mismatches(expected, actual) -> list:
    """Indices at which two decision vectors differ; a length difference
    counts every index past the shorter vector."""
    n = max(len(expected), len(actual))
    return [
        i
        for i in range(n)
        if i >= len(expected) or i >= len(actual) or expected[i] != actual[i]
    ]


def first_byte_difference(expected: bytes, actual: bytes):
    """Offset of the first differing byte, or None if the two are identical."""
    if expected == actual:
        return None
    n = min(len(expected), len(actual))
    return next((i for i in range(n) if expected[i] != actual[i]), n)


def golden_paths(golden_dir: Path, workload: str):
    return golden_dir / f"{workload}.csv", golden_dir / f"{workload}.decisions.json"


def write_golden(golden_dir: Path, workload: str, seed: int, csv: bytes, decisions):
    csv_path, dec_path = golden_paths(golden_dir, workload)
    golden_dir.mkdir(parents=True, exist_ok=True)
    csv_path.write_bytes(csv)
    dec_path.write_text(
        json.dumps({"seed": seed, "decisions": list(decisions)}) + "\n",
        encoding="utf-8",
    )


def read_golden(golden_dir: Path, workload: str):
    """(seed, csv bytes, decision list) recorded for this workload, or None."""
    csv_path, dec_path = golden_paths(golden_dir, workload)
    if not (csv_path.is_file() and dec_path.is_file()):
        return None
    payload = json.loads(dec_path.read_text(encoding="utf-8"))
    return payload["seed"], csv_path.read_bytes(), payload["decisions"]
