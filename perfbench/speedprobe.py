"""A fixed reference loop that measures how fast this CPU runs right now.

The hosts this benchmark runs on switch, every few seconds and per vCPU,
between speeds about 2x apart. Timing the reference loop next to a sample,
on the same CPU, lets the benchmark express the sample in reference units:
``seconds * REFERENCE_US / probe_us``. The loop mixes small numpy calls and
interpreter work, like one monitor step.

Imported by the benchmark and by the shim that starts each ``seqgate`` child
(`report_at_exit`), so it may import nothing from the benchmark.
"""

import atexit
import os
import sys
import threading
import time

import numpy as np

# The loop's time per iteration on an uncontended vCPU of the reference host.
REFERENCE_US = 4.0
SAMPLE_EVERY_S = 0.1
_WEIGHTS = tuple(0.01 * i for i in range(20))
_PREFIX = [0.5] * 20


def probe_us(iterations: int = 300) -> float:
    """Median time of one reference iteration, in microseconds."""
    clock = time.perf_counter_ns
    times = []
    for _ in range(iterations):
        start = clock()
        z = float(np.dot(_WEIGHTS, np.asarray(_PREFIX, dtype=float)))
        sum(v * z for v in _PREFIX)
        times.append(clock() - start)
    times.sort()
    return times[iterations // 2] / 1e3


def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _current_cpu() -> int:
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39


def report_at_exit() -> None:
    """Pin this process to its current CPU and sample the probe there every
    SAMPLE_EVERY_S from a daemon thread. At exit, print on stderr the mean
    probe time and the peak RSS since exec (VmHWM)."""
    os.sched_setaffinity(0, {_current_cpu()})
    samples = [probe_us()]

    def sample():
        while True:
            time.sleep(SAMPLE_EVERY_S)
            samples.append(probe_us(30))

    threading.Thread(target=sample, daemon=True).start()

    def report():
        samples.append(probe_us())
        mean = sum(samples) / len(samples)
        sys.stderr.write(f"PERFBENCH {mean} {len(samples)} {_status_kb('VmHWM')}\n")

    atexit.register(report)
