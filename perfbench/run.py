#!/usr/bin/env python3
"""seqgate benchmark: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload offline-eval --seed 0 --seconds 15 --trace 0

Run from anywhere inside a checkout that has ``src/seqgate``. With
``--trace 0`` the CLI runs as child processes and the end-to-end metrics are
printed; with ``--trace 1`` the same jobs run in this process, once plainly
and once with spans around every layer, and the per-layer metrics are
printed. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import speedprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden"

PINNED_SEED = 0
ALPHAS = "0.05,0.1,0.2,0.5"
MONITOR_ALPHA = "0.1"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
CALIBRATE_POOLS = 4  # calibrate data sets per run, each with its own split
WINDOW_STEPS = 1000
WINDOW_PROBE_ITERATIONS = 30
# A window whose two probes differ by more than this straddles a speed switch.
SWITCH_TOLERANCE = 0.25
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 120.0
# A child's BLAS threads would run on the other vCPU, whose speed the probe
# on the child's own vCPU does not see; set to 1 in children unless set.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# What the installed ``seqgate`` console script runs, plus a speed probe
# sampled through the run that also reports the child's own peak RSS.
CLI = [
    sys.executable,
    "-c",
    "import sys, speedprobe; speedprobe.report_at_exit(); "
    "from seqgate.cli import main; sys.argv[0] = 'seqgate'; main()",
]


@dataclass(frozen=True)
class Workload:
    """Input shape and the jobs of one round; rounds repeat for --seconds.

    Every workload runs every job, so every end-to-end metric exists on every
    workload; the sizes make the named job dominate.
    """

    stop_prob: float   # geometric stop probability: 0.25 short, 0.05 long
    max_len: int       # scores kept per trajectory, so t_max is the same on every seed
    eval_n: int        # trajectories `seqgate evaluate` reads; the monitor's artifact too
    eval_splits: int
    cal_n: int         # trajectories `seqgate calibrate` reads
    stream_n: int      # fresh test trajectories streamed per pass
    round_calibrates: int  # `seqgate calibrate` runs per round
    round_passes: int    # passes over the stream set per round
    round_sessions: int  # `seqgate monitor` child processes per round


WORKLOADS = {
    # The researcher's batch job: per-trajectory statistic replay dominates.
    "offline-eval": Workload(
        stop_prob=0.25, max_len=10, eval_n=2000, eval_splits=10, cal_n=2000,
        stream_n=2000, round_calibrates=2, round_passes=6, round_sessions=6,
    ),
    # The researcher's fit job on long trajectories: per-step fitting dominates.
    "calibrate-long": Workload(
        stop_prob=0.05, max_len=80, eval_n=300, eval_splits=4, cal_n=4000,
        stream_n=2000, round_calibrates=2, round_passes=2, round_sessions=4,
    ),
    # The agent's closed loop, one client: one prefix at a time, streaming.
    "monitor-stream": Workload(
        stop_prob=0.05, max_len=80, eval_n=2000, eval_splits=2, cal_n=2000,
        stream_n=2000, round_calibrates=2, round_passes=6, round_sessions=10,
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "evaluate_s": "s",
    "evaluate_peak_rss_mb": "MB",
    "calibrate_s": "s",
    "calibrate_peak_rss_mb": "MB",
    "decision_p50_us": "us",
    "decision_p99_us": "us",
    "decisions_per_s": "1/s",
    "monitor_session_p50_ms": "ms",
}

LAYER_UNITS = {
    "cli.startup_ms": "ms",
    "cli.self_s": "s",
    "dataio.read_dataset_s": "s",
    "dataio.save_calibration_s": "s",
    "dataio.load_calibration_ms": "ms",
    "dataio.write_dataset_s": "s",
    "synthetic.sample_dataset_s": "s",
    "synthetic.trajectories_per_s": "1/s",
    "trajectories.split_calibration_s": "s",
    "trajectories.split_calibration_calls": "count",
    "kernels.fit_logistic_s": "s",
    "kernels.fit_logistic_calls": "count",
    "kernels.fit_logistic_rows": "count",
    "kernels.apply_isotonic_s": "s",
    "kernels.apply_isotonic_calls": "count",
    "kernels.predict_proba_p50_us": "us",
    "ratio.eval_ratio_self_p50_us": "us",
    "monitor.observe_self_p50_us": "us",
    "monitor.observe_self_p99_us": "us",
    "ratio.fit_ratio_model_self_s": "s",
    "ratio.eval_process_s": "s",
    "ratio.eval_process_steps": "count",
    "ratio.eval_step_us": "us",
    "thresholds.null_maxima_self_s": "s",
    "thresholds.pac_threshold_s": "s",
    "thresholds.pac_threshold_calls": "count",
    "monitor.pooled_isotonic_s": "s",
    "harness.evaluate_split_self_s": "s",
    "harness.pac_infeasible_share": "share",
    "trace.overhead_s": "s",
}


class Ledger:
    """Attempted and failed operations; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED {what}", file=sys.stderr)
        return ok


def to_reference(seconds: float, probe_us: float) -> float:
    """Time in reference units: as if the CPU ran the probe in REFERENCE_US."""
    return seconds * speedprobe.REFERENCE_US / probe_us


def child_report(stderr: str):
    """(mean probe us, peak RSS MB) from the shim's line, or None."""
    for line in stderr.splitlines():
        if line.startswith("PERFBENCH "):
            mean_us, _, hwm_kb = line.split()[1:]
            return float(mean_us), int(hwm_kb) / 1024.0
    return None


@dataclass
class ChildRun:
    code: int
    wall_s: float
    norm_s: float       # wall time in reference units
    peak_rss_mb: float  # the child's own VmHWM; wait4's includes ours
    cpu_s: float
    stderr: str


def _child_env() -> dict:
    env = {var: "1" for var in BLAS_THREAD_VARS}  # unless set (README)
    env.update(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p
    )
    return env


def _reap(proc):
    """Wait for the child, killing it after CHILD_TIMEOUT_S; its rusage."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_cli(args, log: Path) -> ChildRun:
    """One `seqgate` child with stdout/stderr in files; wall time to exit."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            CLI + [str(a) for a in args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=_child_env(), cwd=ROOT,
        )
        usage = _reap(proc)
        wall = time.perf_counter() - start
    stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    probe, peak_mb = child_report(stderr) or (speedprobe.REFERENCE_US, float("nan"))
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        norm_s=to_reference(wall, probe),
        peak_rss_mb=peak_mb,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stderr=stderr,
    )


def has_error_line(stderr: str) -> bool:
    return any(line.startswith("ERROR") for line in stderr.splitlines())


def cli_ok(ledger: Ledger, run: ChildRun, what: str, expect: int = 0) -> bool:
    return ledger.check(
        run.code == expect and not has_error_line(run.stderr)
        and child_report(run.stderr) is not None,
        f"{what}: exit {run.code} (expected {expect}) {run.stderr.strip()[-200:]}",
    )


def monitor_session(artifact: Path, scores, log: Path):
    """Closed loop over one `seqgate monitor` child: send a score, wait for
    its answer. Returns (spawn-to-final-line seconds in reference units,
    final line, exit code, stderr)."""
    final = ""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            CLI + ["monitor", "--model", str(artifact)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            env=_child_env(), cwd=ROOT,
        )
        try:
            for score in scores:
                proc.stdin.write(f"{score!r}\n".encode())
                proc.stdin.flush()
                line = proc.stdout.readline().decode()
                if line != "CONTINUE\n":
                    final = line
                    break
            else:
                proc.stdin.close()
                final = proc.stdout.readline().decode()
        except BrokenPipeError:
            pass
        elapsed = time.perf_counter() - start
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        proc.stdout.close()
        _reap(proc)
    stderr = log.read_text(errors="replace")
    probe = (child_report(stderr) or (speedprobe.REFERENCE_US,))[0]
    return to_reference(elapsed, probe), final, proc.returncode, stderr


def stream_pass(rule, trajectories):
    """Observe every trajectory step by step through a fresh MonitorState.

    Returns the decision vector and the pass cut into windows of
    WINDOW_STEPS consecutive steps, each (observe latencies in ns, wall s,
    speed probe just before it, just after it, in us); a shorter last
    window is kept only if it is the only one.
    """
    from seqgate.monitor import MonitorState

    clock = time.perf_counter_ns
    decisions, windows, latencies = [], [], []
    probe = speedprobe.probe_us(WINDOW_PROBE_ITERATIONS)
    start = time.perf_counter()
    for scores in trajectories:
        state = MonitorState(rule)
        decision = 0
        for score in scores:
            t0 = clock()
            status = state.observe(score)
            latencies.append(clock() - t0)
            if len(latencies) == WINDOW_STEPS:
                wall = time.perf_counter() - start
                after = speedprobe.probe_us(WINDOW_PROBE_ITERATIONS)
                windows.append((latencies, wall, probe, after))
                latencies, probe = [], after
                start = time.perf_counter()
            if status.decision == "rejected":
                decision = status.step
                break
        else:
            if state.finalize().step != len(scores):
                decision = -1
        decisions.append(decision)
    if latencies and not windows:
        wall = time.perf_counter() - start
        windows.append((latencies, wall, probe, speedprobe.probe_us(WINDOW_PROBE_ITERATIONS)))
    return decisions, windows


def cap_lengths(path: Path, max_len: int) -> None:
    """Keep the first max_len scores of every trajectory in a JSONL file."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        record["scores"] = record["scores"][:max_len]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def read_scores(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["scores"] for line in fh if line.strip()]


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Prepared:
    eval_data: Path
    cal_pools: list  # calibrate data sets
    stream_data: Path
    artifact: Path
    rule: object
    model: object
    threshold: float


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, scale: float, workdir: Path):
        w = WORKLOADS[name]
        self.name, self.seed, self.seconds, self.w = name, seed, seconds, w
        self.eval_n = max(100, int(w.eval_n * scale))
        self.cal_n = max(100, int(w.cal_n * scale))
        self.stream_n = max(100, int(w.stream_n * scale))
        self.splits = max(1, round(w.eval_splits * scale))
        self.full_size = scale == 1.0
        self.workdir = workdir
        self.ledger = Ledger()
        self.spec = json.dumps({"stop_prob": w.stop_prob})

    # -- set-up ---------------------------------------------------------
    def synth(self, n: int, seed: int, out: Path) -> ChildRun:
        run = run_cli(
            ["synth", "--n", n, "--seed", seed, "--spec", self.spec, "--out", out], out
        )
        cli_ok(self.ledger, run, f"synth n={n}")
        cap_lengths(out, self.w.max_len)
        return run

    def calibrate_args(self, data: Path, out: Path, split: int = 0) -> list:
        return ["calibrate", "--data", data, "--alpha", MONITOR_ALPHA, "--threshold",
                "pac", "--seed", CALIBRATE_POOLS * self.seed + split, "--out", out]

    def evaluate_args(self, data: Path, out: Path) -> list:
        return ["evaluate", "--data", data, "--alphas", ALPHAS,
                "--splits", self.splits, "--seed", self.seed, "--out", out]

    def setup(self, k: int):
        """Inputs from `seqgate synth`: the evaluate data (seed 2s), the
        calibrate pools as consecutive slices of one data set (seed 2s+2),
        the stream set (seed 2s+1); then the monitor's artifact from
        `seqgate calibrate` on the evaluate data, loaded. All in a fresh
        directory. Returns the prepared inputs and the set-up time in
        reference units: each child's own, plus this process's share."""
        from seqgate import dataio, monitor

        start = time.perf_counter()
        d = self.workdir / f"setup-{k}"
        d.mkdir(parents=True)
        eval_data, pooled, stream = d / "eval.jsonl", d / "pools.jsonl", d / "stream.jsonl"
        children = [
            self.synth(self.eval_n, 2 * self.seed, eval_data),
            self.synth(self.cal_n * CALIBRATE_POOLS, 2 * self.seed + 2, pooled),
            self.synth(self.stream_n, 2 * self.seed + 1, stream),
        ]
        lines = pooled.read_text(encoding="utf-8").splitlines(keepends=True)
        pools = [d / f"pool-{j}.jsonl" for j in range(CALIBRATE_POOLS)]
        for j, pool in enumerate(pools):
            pool.write_text("".join(lines[j * self.cal_n:(j + 1) * self.cal_n]), encoding="utf-8")
        artifact = d / "artifact.json"
        children.append(run_cli(self.calibrate_args(eval_data, artifact), artifact))
        cli_ok(self.ledger, children[-1], "setup calibrate")
        model, spec, _ = dataio.load_calibration(artifact)
        rule = monitor.ratio_rule(model, spec.value)
        own = time.perf_counter() - start - sum(c.wall_s for c in children)
        seconds = sum(c.norm_s for c in children) + to_reference(own, speedprobe.probe_us())
        return Prepared(eval_data, pools, stream, artifact, rule, model, spec.value), seconds

    # -- checks -----------------------------------------------------------
    def batch_decisions(self, prep: Prepared, trajectories) -> list:
        from seqgate.ratio import eval_process

        return [checks.first_crossing(eval_process(prep.model, s), prep.threshold)
                for s in trajectories]

    def check_decisions(self, what: str, expected, actual) -> None:
        bad = checks.mismatches(expected, actual)
        self.ledger.check(not bad, f"{what}: {len(bad)} trajectories disagree, first {bad[:5]}")

    def check_golden(self, csv: bytes, decisions) -> None:
        """At the pinned seed and full size, outputs must equal the record."""
        if not (self.seed == PINNED_SEED and self.full_size):
            return
        golden = checks.read_golden(GOLDEN, self.name)
        if not self.ledger.check(golden is not None, f"no golden record in {GOLDEN}"):
            return
        seed, golden_csv, golden_dec = golden
        off = checks.first_byte_difference(golden_csv, csv)
        self.ledger.check(seed == self.seed and off is None,
                          f"golden evaluate CSV differs at byte {off}")
        self.check_decisions("golden decisions", golden_dec, decisions)

    # -- timed run ----------------------------------------------------------
    def run_timed(self, record_golden: bool):
        """Rounds of evaluate, calibrate, stream passes and monitor sessions,
        interleaved so that every job samples the whole run."""
        prep, first_setup = self.setup(0)
        setup_times = [first_setup]
        stream = read_scores(prep.stream_data)
        library = self.batch_decisions(prep, stream)
        d = self.workdir / "jobs"
        d.mkdir()
        evals, cals, windows, sessions, csvs = [], [], [], [], []

        def evaluate(k):
            out = d / f"evaluate-{k}.csv"
            run = run_cli(self.evaluate_args(prep.eval_data, out), out)
            evals.append(run)
            if cli_ok(self.ledger, run, f"evaluate #{k}"):
                csvs.append(out.read_bytes())
                self.ledger.check(csvs[-1] == csvs[0], f"evaluate #{k} CSV differs from #0")

        def calibrate(k):
            # Newton step halving makes fit time depend on the data and the
            # split (README), so each run covers several pools; repeating a
            # pool checks determinism.
            pool = k % CALIBRATE_POOLS
            out = d / f"artifact-{k}.json"
            run = run_cli(self.calibrate_args(prep.cal_pools[pool], out, pool), out)
            cals.append(run)
            first = d / f"artifact-{pool}.json"
            if cli_ok(self.ledger, run, f"calibrate #{k}") and k >= CALIBRATE_POOLS:
                self.ledger.check(out.read_bytes() == first.read_bytes(),
                                  f"calibrate #{k} artifact differs from #{pool}")

        def stream_once(k):
            decisions, pass_windows = stream_pass(prep.rule, stream)
            windows.extend(pass_windows)
            self.check_decisions(f"stream pass #{k} vs batch replay", library, decisions)

        def session(k):
            i = k % len(stream)
            elapsed, final, code, err = monitor_session(
                prep.artifact, stream[i], d / f"monitor-{k}.err")
            verdict = checks.parse_verdict(final, len(stream[i]))
            ok = (verdict is not None and verdict == library[i]
                  and code == (3 if verdict else 0) and not has_error_line(err))
            self.ledger.check(ok, f"monitor session #{k}: {final.strip()!r} exit {code}, "
                                  f"batch replay says {library[i]}")
            sessions.append(elapsed)

        start, r = time.perf_counter(), 0
        while r < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            if len(setup_times) < SETUP_REPEATS:
                setup_times.append(self.setup(len(setup_times))[1])
            evaluate(r)
            for k in range(self.w.round_calibrates):
                calibrate(r * self.w.round_calibrates + k)
            for k in range(self.w.round_passes):
                stream_once(r * self.w.round_passes + k)
            for k in range(self.w.round_sessions):
                session(r * self.w.round_sessions + k)
            r += 1
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(self.setup(len(setup_times))[1])
        while len(cals) < CALIBRATE_POOLS:
            calibrate(len(cals))  # every pool at least once
        calibrate(-(-len(cals) // CALIBRATE_POOLS) * CALIBRATE_POOLS)  # pool 0 again

        if record_golden:
            checks.write_golden(GOLDEN, self.name, self.seed, csvs[0], library)
        else:
            self.check_golden(csvs[0] if csvs else b"", library)

        steady = [(lat, wall, (a + b) / 2) for lat, wall, a, b in windows
                  if abs(a - b) <= SWITCH_TOLERANCE * min(a, b)
                  ] or [(lat, wall, (a + b) / 2) for lat, wall, a, b in windows]
        steps_us = [to_reference(v / 1e3, probe) for lat, _, probe in steady for v in lat]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "evaluate_s": statistics.median(r.norm_s for r in evals),
            "evaluate_peak_rss_mb": statistics.median(r.peak_rss_mb for r in evals),
            "calibrate_s": statistics.mean(
                statistics.median(r.norm_s for r in cals[pool::CALIBRATE_POOLS])
                for pool in range(CALIBRATE_POOLS)),
            "calibrate_peak_rss_mb": statistics.median(r.peak_rss_mb for r in cals),
            "decision_p50_us": percentile(steps_us, 0.5),
            "decision_p99_us": percentile(steps_us, 0.99),
            "decisions_per_s": len(steps_us) / sum(to_reference(w, p) for _, w, p in steady),
            "monitor_session_p50_ms": 1e3 * statistics.median(sessions),
        }
        samples = {
            "setup_s": len(setup_times), "evaluate_s": len(evals),
            "evaluate_peak_rss_mb": len(evals), "calibrate_s": len(cals),
            "calibrate_peak_rss_mb": len(cals), "decision_p50_us": len(steps_us),
            "decision_p99_us": len(steps_us), "decisions_per_s": len(steady),
            "monitor_session_p50_ms": len(sessions),
        }
        extra = {
            "rounds": r,
            "stream_steps": sum(len(w[0]) for w in windows),
            "setup_s": setup_times,
            "evaluate_s": [r.norm_s for r in evals],
            "evaluate_wall_s": [r.wall_s for r in evals],
            "evaluate_cpu_s": [r.cpu_s for r in evals],
            "calibrate_s": [r.norm_s for r in cals],
            "calibrate_wall_s": [r.wall_s for r in cals],
            "calibrate_cpu_s": [r.cpu_s for r in cals],
            "session_s": sessions,
            "windows_dropped": len(windows) - len(steady),
        }
        return metrics, samples, extra

    # -- traced run ---------------------------------------------------------
    def _inprocess(self, d: Path, prep: Prepared, trajectories, tracer) -> tuple:
        """synth, calibrate (first pool) and evaluate through `cli_dispatch`,
        then load the set-up's monitor artifact and stream its test
        trajectories once; wrappers on while a tracer is given."""
        import spans
        from seqgate import cli, dataio, monitor

        d.mkdir()
        data, stream = d / "data.jsonl", d / "stream.jsonl"
        eval_data = d / "eval.jsonl"
        argv = [
            ["synth", "--n", self.cal_n, "--seed", 2 * self.seed + 2, "--spec", self.spec, "--out", data],
            ["synth", "--n", self.eval_n, "--seed", 2 * self.seed, "--spec", self.spec, "--out", eval_data],
            ["synth", "--n", self.stream_n, "--seed", 2 * self.seed + 1, "--spec", self.spec, "--out", stream],
            self.calibrate_args(data, d / "artifact.json"),
            self.evaluate_args(eval_data, d / "evaluate.csv"),
        ]
        start = time.perf_counter()
        if tracer:
            tracer.install(spans.BATCH_TARGETS)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.cli_dispatch([str(a) for a in args]) for args in argv[:3]]
                for path in (data, eval_data, stream):
                    cap_lengths(path, self.w.max_len)
                codes += [cli.cli_dispatch([str(a) for a in args]) for args in argv[3:]]
            model, spec, _ = dataio.load_calibration(prep.artifact)
            rule = monitor.ratio_rule(model, spec.value)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            tracer.install(spans.STEP_TARGETS)
        try:
            decisions, _ = stream_pass(rule, trajectories)
        finally:
            if tracer:
                tracer.uninstall()
        wall = time.perf_counter() - start
        for args, code in zip(argv, codes):
            self.ledger.check(code == 0, f"in-process {args[0]} exit {code}")
        for ours, theirs in ((data, prep.cal_pools[0]), (eval_data, prep.eval_data),
                             (stream, prep.stream_data)):
            self.ledger.check(ours.read_bytes() == theirs.read_bytes(),
                              f"in-process synth {ours.name} differs from the CLI's")
        return wall, (d / "evaluate.csv").read_bytes(), decisions

    def run_traced(self):
        import spans

        prep, _ = self.setup(0)
        stream = read_scores(prep.stream_data)
        expected = self.batch_decisions(prep, stream)
        # the first pass pays one-off costs (lazy imports, allocator growth)
        self._inprocess(self.workdir / "warm-up", prep, stream, None)
        plain_wall, plain_csv, plain_dec = self._inprocess(
            self.workdir / "plain", prep, stream, None)
        tracer = spans.Tracer()
        traced_wall, csv, decisions = self._inprocess(
            self.workdir / "traced", prep, stream, tracer)
        self.ledger.check(csv == plain_csv, "traced evaluate CSV differs from untraced")
        self.check_decisions("untraced stream vs batch replay", expected, plain_dec)
        self.check_decisions("traced stream vs batch replay", expected, decisions)
        self.check_golden(csv, decisions)

        startups = []
        (self.workdir / "probes").mkdir()
        for k in range(STARTUP_PROBES):
            run = run_cli(["--help"], self.workdir / "probes" / f"help-{k}")
            cli_ok(self.ledger, run, "seqgate --help")
            startups.append(run.wall_s)

        metrics = {"cli.startup_ms": 1e3 * statistics.median(startups)}
        metrics.update(spans.layer_metrics(tracer.spans))
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        (self.workdir / "trace.json").write_text(
            json.dumps({"missing": tracer.missing, "spans": tracer.spans}), encoding="utf-8"
        )
        extra = {"missing": tracer.missing, "spans": len(tracer.spans),
                 "self_s": spans.self_totals(tracer.spans),
                 "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
        return metrics, {}, extra


def machine_record() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_threads": {k: _child_env()[k] for k in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqgate benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply input sizes; below 1 for smoke runs only")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the golden outputs at the pinned seed")
    args = parser.parse_args(argv)
    if args.record_golden and (args.trace or args.seed != PINNED_SEED or args.scale != 1.0):
        parser.error("--record-golden needs --trace 0, the pinned seed and --scale 1")
    if not (SRC / "seqgate" / "cli.py").is_file():
        print(f"perfbench: no seqgate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    machine = machine_record()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, args.scale, workdir)
    if args.trace:
        metrics, samples, extra = bench.run_traced()
        units = LAYER_UNITS
    else:
        metrics, samples, extra = bench.run_timed(args.record_golden)
        units = E2E_UNITS
    machine["loadavg_end"] = os.getloadavg()

    ledger = bench.ledger
    failed = len(ledger.failures)
    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} scale {args.scale:g}")
    for name, unit in units.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{n}")
    for target, self_s in list(extra.get("self_s", {}).items())[:5]:
        print(f"  self time {target} = {self_s:.6g} s")
    for target in extra.get("missing", []):
        print(f"  MISSING wrap target {target}")
    print(f"  failure_share = {failed / max(ledger.attempted, 1):.6g} "
          f"({failed} of {ledger.attempted} operations failed)")

    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (workdir / "result.json").write_text(json.dumps(
        {"machine": machine, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "samples": samples, "extra": extra,
         "failures": ledger.failures, **result}, indent=1) + "\n", encoding="utf-8")
    for child in workdir.iterdir():  # keep the record, drop the inputs
        if child.is_dir():
            shutil.rmtree(child)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
