"""Scale wall times to a fixed reference CPU speed.

On a shared 2-vCPU machine the speed of a vCPU drifts by 10-40% over
seconds to minutes, and the two vCPUs drift independently of each other. A
fixed pure-Python loop timed in 30-60 s windows spread by 0.17-0.20
(quartile distance over median) within four minutes. Raw wall times of the
program's stages inherit that drift, so two sets of runs of the same code
disagree by more than any useful bound.

The benchmark therefore pins itself, and with it every process it starts,
to one CPU (`pin_to_one_cpu`). While it runs, a thread of the benchmark
process times a fixed pure-Python kernel every `INTERVAL_S` on that same
CPU, by thread CPU time, so time spent preempted by the stage does not
count. The stage and the kernel share the CPU at scheduler granularity and
see the same speed. A stage that ran from t0 to t1 then took

    scaled = (t1 - t0) * REF_KERNEL_S / mean(kernel time of the samples in [t0, t1])

seconds at the speed at which the kernel takes `REF_KERNEL_S`. On one
3-second simulate cell repeated for 100 s, this cut the spread of the
stage's time from 0.23 (raw wall) to 0.05. The sampler takes about 4% of
the CPU, the same share in every run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# About the kernel's time on a 2 vCPU x86-64 VM at 2.1 GHz, so that scaled
# times there read close to wall times.
REF_KERNEL_S = 0.002
INTERVAL_S = 0.05


def pin_to_one_cpu() -> int:
    """Restrict this process, and every process it starts later, to the highest allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel() -> float:
    """Fixed interpreter work: dict reads and writes, list appends, int and float arithmetic."""
    table: dict[int, int] = {}
    kept = []
    acc = 0.0
    for i in range(6000):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
        if i & 3 == 0:
            kept.append(key * 0.5)
        acc += key / (i + 1)
    return acc + len(kept)


class SpeedProbe:
    """Background samples (monotonic end time, kernel thread CPU s), taken while the probe is open."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedprobe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            cpu = time.thread_time()
            kernel()
            self.samples.append((time.monotonic(), time.thread_time() - cpu))
            self._stop.wait(INTERVAL_S)

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time of the samples taken in [t0, t1] (monotonic clock), widened if there are none."""
        if not self.samples:
            raise RuntimeError("the speed probe has taken no samples")
        pad = 0.0
        while True:
            window = [s for t, s in self.samples if t0 - pad <= t <= t1 + pad]
            if window:
                return statistics.fmean(window)
            pad += INTERVAL_S

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1] would have taken at the reference speed."""
        return (t1 - t0) * REF_KERNEL_S / self.kernel_s(t0, t1)
