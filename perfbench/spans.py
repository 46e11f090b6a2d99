"""Span recording around calls into seqgate's layers, from outside the package.

A wrap target names a public function by its home module ("ratio.eval_process")
or a method by its class ("monitor.MonitorState.observe"). Installing a target
replaces the function at every seqgate module that binds the same object, so
``from .ratio import eval_process`` in ``harness`` and ``thresholds`` is timed
too. A target that no longer exists is reported as missing, not as an error.

Spans live in memory as ``[name, parent_index, start, end, note]`` lists and
are written out once, by the caller, when the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time

# Called once or a few times per job: safe to wrap inside batch jobs.
BATCH_TARGETS = (
    "cli.cli_dispatch",
    "dataio.read_dataset",
    "dataio.write_dataset",
    "dataio.save_calibration",
    "dataio.load_calibration",
    "synthetic.sample_dataset",
    "trajectories.split_calibration",
    "kernels.fit_logistic",
    "kernels.apply_isotonic",
    "ratio.fit_ratio_model",
    "ratio.eval_process",
    "thresholds.null_maxima",
    "thresholds.pac_threshold",
    "monitor.pooled_isotonic",
    "harness.run_experiment",
    "harness.evaluate_split",
)

# Called once per observed step; wrapped only while streaming, where the
# per-step cost is what is measured.
STEP_TARGETS = (
    "monitor.MonitorState.observe",
    "ratio.eval_ratio",
    "kernels.predict_proba",
)


def _rows_times_features(args, result):
    features = args[0]
    return len(features) * (len(features[0]) if len(features) else 0)


def _n_trajectories(args, result):
    return args[1]


def _n_steps(args, result):
    return len(result)


def _infeasible_cells(args, result):
    return (sum(1 for far, _ in result.values() if far != far), len(result))


# Counts taken at the boundary where the work happens.
NOTES = {
    "kernels.fit_logistic": _rows_times_features,
    "synthetic.sample_dataset": _n_trajectories,
    "ratio.eval_process": _n_steps,
    "harness.evaluate_split": _infeasible_cells,
}


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self, package: str = "seqgate"):
        self.package = package
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _modules(self):
        prefix = self.package + "."
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(prefix))
        ]

    def install(self, targets) -> None:
        """Wrap every target at every module binding it; note the missing."""
        for target in targets:
            module_name, *attrs = target.split(".")
            owner = sys.modules.get(f"{self.package}.{module_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, attrs[-1], None) if owner is not None else None
            if original is None:
                if target not in self.missing:
                    self.missing.append(target)
                continue
            wrapper = self.wrap(target, original)
            if len(attrs) > 1:  # a method: the class is the only binding
                self._bind(owner, attrs[-1], original, wrapper)
                continue
            for mod in self._modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)

    def _bind(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Calls in one thread nest and do not overlap, so the children's
    durations add up to the part of the parent they cover.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, _, start, end, _) in enumerate(spans)]


def self_totals(spans) -> dict:
    """Summed self time per wrap target, largest first."""
    own: dict = {}
    for (name, *_), self_s in zip(spans, self_times(spans)):
        own[name] = own.get(name, 0.0) + self_s
    return dict(sorted(own.items(), key=lambda kv: -kv[1]))


def _pct(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans) -> dict:
    """Per-layer figures from a span list; a missing target's figures read 0."""
    selfs = self_times(spans)
    total, own, calls, durs, notes = {}, {}, {}, {}, {}
    for (name, _, start, end, note), self_s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        durs.setdefault(name, []).append(end - start)
        if note is not None:
            notes.setdefault(name, []).append(note)
    step_self = {
        name: [s for (n, *_), s in zip(spans, selfs) if n == name]
        for name in ("monitor.MonitorState.observe", "ratio.eval_ratio")
    }
    sampled = sum(n for n in notes.get("synthetic.sample_dataset", []))
    steps = sum(notes.get("ratio.eval_process", []))
    cells = notes.get("harness.evaluate_split", [])
    nan_cells, all_cells = sum(c[0] for c in cells), sum(c[1] for c in cells)

    def p(values, q, scale=1e6):
        return _pct(values, q) * scale if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.self_s": own.get("cli.cli_dispatch", 0.0),
        "dataio.read_dataset_s": total.get("dataio.read_dataset", 0.0),
        "dataio.save_calibration_s": total.get("dataio.save_calibration", 0.0),
        "dataio.load_calibration_ms": 1e3 * statistics.median(
            durs.get("dataio.load_calibration", [0.0])
        ),
        "dataio.write_dataset_s": total.get("dataio.write_dataset", 0.0),
        "synthetic.sample_dataset_s": total.get("synthetic.sample_dataset", 0.0),
        "synthetic.trajectories_per_s": ratio(
            sampled, total.get("synthetic.sample_dataset", 0.0)
        ),
        "trajectories.split_calibration_s": total.get(
            "trajectories.split_calibration", 0.0
        ),
        "trajectories.split_calibration_calls": calls.get(
            "trajectories.split_calibration", 0
        ),
        "kernels.fit_logistic_s": total.get("kernels.fit_logistic", 0.0),
        "kernels.fit_logistic_calls": calls.get("kernels.fit_logistic", 0),
        "kernels.fit_logistic_rows": sum(notes.get("kernels.fit_logistic", [])),
        "kernels.apply_isotonic_s": total.get("kernels.apply_isotonic", 0.0),
        "kernels.apply_isotonic_calls": calls.get("kernels.apply_isotonic", 0),
        "kernels.predict_proba_p50_us": p(durs.get("kernels.predict_proba"), 0.5),
        "ratio.eval_ratio_self_p50_us": p(step_self["ratio.eval_ratio"], 0.5),
        "monitor.observe_self_p50_us": p(
            step_self["monitor.MonitorState.observe"], 0.5
        ),
        "monitor.observe_self_p99_us": p(
            step_self["monitor.MonitorState.observe"], 0.99
        ),
        "ratio.fit_ratio_model_self_s": own.get("ratio.fit_ratio_model", 0.0),
        "ratio.eval_process_s": own.get("ratio.eval_process", 0.0),
        "ratio.eval_process_steps": steps,
        "ratio.eval_step_us": 1e6 * ratio(own.get("ratio.eval_process", 0.0), steps),
        "thresholds.null_maxima_self_s": own.get("thresholds.null_maxima", 0.0),
        "thresholds.pac_threshold_s": total.get("thresholds.pac_threshold", 0.0),
        "thresholds.pac_threshold_calls": calls.get("thresholds.pac_threshold", 0),
        "monitor.pooled_isotonic_s": total.get("monitor.pooled_isotonic", 0.0),
        "harness.evaluate_split_self_s": own.get("harness.evaluate_split", 0.0),
        "harness.pac_infeasible_share": ratio(nan_cells, all_cells),
    }
