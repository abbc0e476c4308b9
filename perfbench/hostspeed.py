"""Measure how fast the host core runs while the benchmark works.

On a shared host the same work can take 1.4x longer for minutes at a time, and
the speed of the two cores moves separately. A sampler process pinned to the
benchmark's core wakes every 50 ms and times a fixed pure-Python task of about
2 ms (no muxepi code, a working set that fits in L1). The median task time over
an interval is the core's speed over that interval, and a time measured in
the interval is scaled to the nominal task time:

    scaled = measured * NOMINAL_TASK_S / median task time

The sampler takes about 4% of the core; it does so on every commit alike.

    python3 perfbench/hostspeed.py CPU OUTFILE   # the sampler loop itself
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

NOMINAL_TASK_S = 0.002
_PERIOD_S = 0.05


def _task() -> int:
    s = 0
    for i in range(20000):
        s += i * i
    return s


def sample_forever(out_path: str) -> None:
    with open(out_path, "w", encoding="ascii", buffering=1) as out:
        while True:
            time.sleep(_PERIOD_S)
            start = time.perf_counter()
            _task()
            out.write(f"{start!r} {time.perf_counter() - start!r}\n")


class Sampler:
    """Runs the sampler on this process's core; pins this process to that core."""

    def __init__(self, out_path):
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.out_path = str(out_path)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.cpu), self.out_path])
        self._wait_for_first_sample()

    def _wait_for_first_sample(self) -> None:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if os.path.exists(self.out_path) and os.path.getsize(self.out_path):
                return
            time.sleep(0.01)
        raise RuntimeError("host-speed sampler wrote nothing within 30 s")

    def task_time(self, start: float, end: float) -> float:
        """Median sampled task time between two `time.perf_counter()` readings."""
        times = []
        with open(self.out_path, encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and start <= float(parts[0]) <= end:
                    times.append(float(parts[1]))
        if not times:
            raise RuntimeError(f"no host-speed sample between {start} and {end}")
        return statistics.median(times)

    def factor(self, start: float, end: float) -> float:
        """Multiplier taking a time measured in [start, end] to the nominal speed."""
        return NOMINAL_TASK_S / self.task_time(start, end)

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    sample_forever(sys.argv[2])
