"""Tests of the benchmark itself: span arithmetic, the output checkers that
feed failure_share, and a tiny-size run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    tree = [
        ["root", -1, 0.0, 10.0, None],
        ["a", 0, 1.0, 4.0, None],
        ["a.leaf", 1, 2.0, 3.0, None],
        ["b", 0, 5.0, 9.0, None],
        ["a", 3, 6.0, 6.5, None],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    assert spans.self_totals(tree) == pytest.approx(
        {"b": 3.5, "root": 3.0, "a": 2.5, "a.leaf": 1.0}
    )


@pytest.fixture()
def fake_package(monkeypatch):
    """A package whose `harness` imports `ratio.eval_process` by name."""

    def eval_process(model, seq):
        return [model * s for s in seq]

    ratio = types.ModuleType("fakepkg.ratio")
    ratio.eval_process = eval_process
    harness = types.ModuleType("fakepkg.harness")
    harness.eval_process = eval_process

    class MonitorState:
        def observe(self, score):
            return harness.eval_process(2, [score])

    monitor = types.ModuleType("fakepkg.monitor")
    monitor.MonitorState = MonitorState
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")), ("fakepkg.ratio", ratio),
                      ("fakepkg.harness", harness), ("fakepkg.monitor", monitor)):
        monkeypatch.setitem(sys.modules, name, mod)
    return ratio, harness, monitor, eval_process


def test_tracer_wraps_every_binding_and_reports_missing_targets(fake_package):
    ratio, harness, monitor, original = fake_package
    tracer = spans.Tracer("fakepkg")
    tracer.install(["ratio.eval_process", "monitor.MonitorState.observe", "ratio.gone"])
    assert tracer.missing == ["ratio.gone"]
    assert harness.eval_process(3, [1, 2]) == [3, 6]
    monitor.MonitorState().observe(5.0)
    names = [(s[0], s[1]) for s in tracer.spans]
    assert names == [
        ("ratio.eval_process", -1),
        ("monitor.MonitorState.observe", -1),
        ("ratio.eval_process", 1),
    ]
    assert tracer.spans[0][4] == 2  # steps noted at the boundary
    tracer.uninstall()
    assert ratio.eval_process is original and harness.eval_process is original
    assert not hasattr(monitor.MonitorState.observe, "__wrapped__")


def _pinned_bench(tmp_path):
    return run.Bench("offline-eval", run.PINNED_SEED, 1.0, 1.0, tmp_path)


def test_checker_counts_a_tampered_csv_byte_as_a_failure(tmp_path):
    _, csv, decisions = checks.read_golden(run.GOLDEN, "offline-eval")
    bench = _pinned_bench(tmp_path)
    bench.check_golden(csv, decisions)
    assert bench.ledger.failures == []

    tampered = bytearray(csv)
    tampered[len(csv) // 2] ^= 0x01
    assert checks.first_byte_difference(csv, bytes(tampered)) == len(csv) // 2
    bench.check_golden(bytes(tampered), decisions)
    assert len(bench.ledger.failures) == 1
    assert "CSV" in bench.ledger.failures[0]


def test_checker_counts_a_flipped_decision_as_a_failure(tmp_path):
    _, csv, decisions = checks.read_golden(run.GOLDEN, "offline-eval")
    flipped = list(decisions)
    flipped[7] = 0 if flipped[7] else 1
    assert checks.mismatches(decisions, flipped) == [7]
    bench = _pinned_bench(tmp_path)
    bench.check_golden(csv, flipped)
    assert len(bench.ledger.failures) == 1
    assert "decisions" in bench.ledger.failures[0]


def test_verdict_parsing_and_batch_first_crossing():
    assert checks.parse_verdict("REJECT t=3\n", 5) == 3
    assert checks.parse_verdict("ACCEPT t=5\n", 5) == 0
    assert checks.parse_verdict("ACCEPT t=4\n", 5) is None
    assert checks.parse_verdict("", 5) is None
    assert checks.first_crossing([0.5, 2.0, 9.0], 2.0) == 2
    assert checks.first_crossing([0.5, 1.9], 2.0) == 0


def _bench_run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared(kind):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in config[kind]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _bench_run("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", trace, "--scale", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == _declared(kind)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench_run("--workload", "offline-eval", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
