"""Machine-speed references for the benchmark's timings.

The CPU speed this benchmark sees on a shared 2-core VM drifts by up to
about 20 % over seconds to minutes (a fixed pure-Python loop measured
between 116 and 178 ms in 1.4 s windows), which swamps the run-to-run
differences the benchmark must resolve.  So every timed op is preceded by a
reference of the same kind, outside its timed region: a fixed pure-Python
loop before an in-process op, a child that only imports numpy before a
whole process.  (Process start and imports track machine slowdowns that a
pure-Python loop misses; numpy is the heaviest import every margraph
process pays that margraph's own code does not change.)  Each wall time is
scaled by the reference's nominal time over the median reference time of
the samples around it.
Times then read as milliseconds at the reference speed, and drift that
slows the op and its reference alike cancels.  Raw times are printed beside
them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Median reference times on the 2-core x86-64 VM the benchmark was tuned on
# (Python 3.11); they only set the scale of the reported times.
LOOP_S = 1.25e-3
PROCESS_S = 0.15
WINDOW = 5  # samples on each side whose reference times set a sample's scale


def loop_reference() -> float:
    """Time a fixed pure-Python loop, in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - t0


def process_reference(env) -> float:
    """Time a child that imports numpy, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def scaled(samples: list[float], refs: list[float], nominal: float) -> list[float]:
    """Each sample at the reference speed, by the median of the reference
    times within ``WINDOW`` positions of it (``refs`` aligns with
    ``samples``)."""
    out = []
    for i, sample in enumerate(samples):
        local = statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(sample * nominal / local)
    return out
