"""Host-speed monitor: a side process that times a fixed probe, four times a
second, while the benchmark runs.

The benchmark runs on shared hosts whose speed drifts with their other
tenants, by a quarter or more within seconds to minutes, and identical work
then takes that much longer.  The probe does a fixed mix of the work bcs
spends its time on (interpreted float loops with ``math`` calls,
``scipy.integrate.quad`` over a Python integrand, small numpy array
operations) and never calls bcs, so a change to bcs cannot change what the
probe does.  It is timed in the monitor's own CPU time, so the time it
waits for a core that the benchmark's threads hold does not count.

``scaled`` turns a time measured while the probe took ``probe_s`` into
seconds at the reference speed.  A host running 20 % slow makes both
times 20 % longer and leaves the scaled time where it was; bcs running
20 % slower makes only the measured time longer, and the scaled time shows
all of it.

    python3 bench/speed.py SAMPLES_PATH PARENT_PID   # started by Monitor
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

# CPU seconds one probe takes at the reference speed: its median on the
# 2-core host the benchmark was defined on.  It sets the scale of every
# scaled time and is the same for every commit measured with this benchmark.
REFERENCE_S = 0.039
PERIOD_S = 0.25      # a probe starts every PERIOD_S seconds
LIFETIME_S = 178.0   # the monitor never outlives a benchmark run


def _integrand(x: float, k: float) -> float:
    return math.exp(-k * x) * math.cos(7.0 * x) / (1.0 + x * x)


def probe() -> float:
    """CPU seconds this thread spends on the fixed reference computation."""
    start = time.thread_time()
    acc = 0.0
    for i in range(50_000):
        acc += math.sin(i * 1e-3) * math.sqrt(i + 1.0)
    for k in range(60):
        acc += integrate.quad(_integrand, 0.0, 30.0, args=(0.05 + 1e-3 * k,),
                              limit=200)[0]
    x = np.linspace(0.0, 1.0, 2048)
    for k in range(250):
        acc += float(np.sum(np.exp(-x * k * 1e-3) * np.cos(x)))
    if not math.isfinite(acc):
        raise ArithmeticError("the speed probe computed a non-finite value")
    return time.thread_time() - start


def _monitor(path: str, parent: int) -> None:
    """Append ``start end cpu_seconds`` (monotonic clock) for one probe per
    period until the parent is gone or the lifetime is over."""
    deadline = time.monotonic() + LIFETIME_S
    ready = False
    with open(path, "w", encoding="utf-8") as out:
        while os.getppid() == parent and time.monotonic() < deadline:
            began = time.monotonic()
            cpu = probe()
            ended = time.monotonic()
            out.write(f"{began!r} {ended!r} {cpu!r}\n")
            out.flush()
            if not ready:
                print("ready", flush=True)   # one sample is on file
                ready = True
            time.sleep(max(0.0, began + PERIOD_S - time.monotonic()))


class Monitor:
    """The side process; ``stop`` ends it, waits for it and returns its
    samples as ``(start, end, cpu_seconds)`` tuples."""

    def __init__(self, path: str):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path, str(os.getpid())],
            stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed monitor did not start")

    def stop(self) -> list:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        samples = []
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    if line.endswith("\n"):   # not cut short by terminate()
                        samples.append(tuple(float(f) for f in line.split()))
        return samples


def probe_during(samples, start: float, end: float) -> float:
    """Mean probe time of the samples whose midpoint falls in [start, end];
    for an interval shorter than a period, that of the nearest sample."""
    mids = [(0.5 * (a + b), cpu) for a, b, cpu in samples]
    inside = [cpu for mid, cpu in mids if start <= mid <= end]
    if inside:
        return sum(inside) / len(inside)
    centre = 0.5 * (start + end)
    return min(mids, key=lambda m: abs(m[0] - centre))[1]


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, in seconds at
    the reference speed."""
    return seconds * REFERENCE_S / probe_s


if __name__ == "__main__":
    _monitor(sys.argv[1], int(sys.argv[2]))
