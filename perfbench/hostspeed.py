"""Host-speed normalisation of measured times.

On a shared 2-CPU host the same pure-Python loop runs up to 45% slower
or faster from one minute to the next, with no steal time reported:
neighbours slow every instruction, not just the scheduling.

A fixed reference loop, timed between measurements, tracks that speed.
Each job's wall time is scaled by ``REFERENCE_SECONDS`` over the mean of
the reference times taken just before and just after it, so job times
read as seconds on a host where the loop takes ``REFERENCE_SECONDS``.
On five runs of cat2_repair this cut the quartile spread of the median
job time from 22% to 4%, of the tail from 34% to 6% and of jobs per
second from 27% to 5%; on cli_session the median's spread went from 15%
to 9%.  One factor per run, from the median reference time, left a
wider spread of the median and of jobs per second on every workload.
Set-up is a fresh interpreter's import work, which the loop tracks
poorly (correlation 0.39 over twelve rounds of five set-ups).  Set-up
times are scaled instead by ``PROCESS_REFERENCE_SECONDS`` over the median
time of a reference process, a fresh interpreter importing networkx and
a fixed set of standard modules, run after each set-up.  Over those
rounds it correlated 0.89 with set-up time and cut the spread of the
rounds' medians from 27% to 12%.  Both references are the benchmark's
own code, so a change to the program moves its times but not theirs.
"""

from __future__ import annotations

import bisect
import random
import statistics
import sys
import time

#: what the reference loop takes, in seconds, on a calm 2-CPU x86 host.
REFERENCE_SECONDS = 0.05
#: what the reference process takes, in seconds, on the same host.
PROCESS_REFERENCE_SECONDS = 0.25
#: the reference process: a fresh interpreter importing these modules.
PROCESS_REFERENCE = [
    sys.executable, "-c",
    "import networkx, json, argparse, multiprocessing, email.message, "
    "xml.etree.ElementTree, logging, inspect, dataclasses, csv, gzip, pickle, subprocess",
]


def reference_loop() -> float:
    """A fixed mix of dict, tuple, list, bisect and float work."""
    rng = random.Random(12345)
    table = {}
    ordered = []
    total = 0.0
    for i in range(24000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + rng.random()
        x = rng.random() * 1000.0
        j = bisect.bisect_left(ordered, x)
        if len(ordered) < 256:
            ordered.insert(j, x)
        else:
            ordered[j % 256] = x
            ordered.sort()
        total += min(x, table[key])
    return total


def _timed_reference() -> float:
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


class HostSpeed:
    """Scales each measured time to the reference host speed.

    Create it right before the first measurement and call :meth:`scale`
    right after each one: every measurement then sits between two
    reference times.
    """

    def __init__(self) -> None:
        #: every reference time taken, in order.
        self.references = [_timed_reference()]

    def scale(self, seconds: float) -> float:
        self.references.append(_timed_reference())
        return seconds * REFERENCE_SECONDS / statistics.mean(self.references[-2:])
