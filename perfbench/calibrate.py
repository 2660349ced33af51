"""Host-speed calibration between timed passes.

This benchmark runs on shared 2-CPU containers whose speed shifts by up
to ~80% for tens of seconds at a time as neighbours load the machine
(measured: back-to-back ``campaign_compare`` passes of one process
moved between 0.47 s and 0.94 s, and fixed-input ``soak`` passes
between 1.24 s and 2.21 s, each level holding for 10-30 s).  CPU time
follows wall time, so it does not help, and a 10-run spread of raw wall
times exceeds any usable bound.

So every timed interval is bracketed by fixed pure-Python kernels that
touch no ``repro`` code, and each time is reported as
``seconds / kernel seconds * REFERENCE_S``: the time the interval would
take on a host where the kernels take ``REFERENCE_S``.  A change to the
program moves the numerator only; a change of host speed moves both.
The kernels cover the three kinds of work the simulator does, because
neighbours slow them by different amounts: interpreter dispatch over
small ints and dicts, Python function calls and small objects (the soak
loop), and big-int bit-plane operations (the packed campaign kernels).
A pass that computes on several CPUs (the sharded workload) is scaled
by the kernels run on that many CPUs at once (:class:`Calibrator`):
with the kernels on the parent's CPU only, the scaled spread of that
workload came out wider than the raw one.  Raw wall times are kept in
the run's record beside the scaled ones; README.md lists the measured
raw and scaled spreads that keep this scaling on both timed metrics.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# About what measure() reads on the 2-CPU Linux container the bounds were
# set on; it only sets the scale of the reported times.
REFERENCE_S = 0.009
REPEATS = 5


def _dispatch() -> int:
    table: dict[int, int] = {}
    x = 12345
    for _ in range(12_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + (x >> 7)
    return len(table)


class _Event:
    __slots__ = ("kind", "value")

    def __init__(self, kind: int, value: int) -> None:
        self.kind = kind
        self.value = value


def _step(state: int) -> int:
    bit = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1
    return (state >> 1) | (bit << 15)


def _calls() -> int:
    state = 0xACE1
    total = 0
    for i in range(6_000):
        state = _step(state)
        event = _Event(i & 1, state & 255)
        total += event.value if event.kind else -event.value
    return total


def _bitplanes() -> int:
    plane = (1 << 400_000) // 7
    acc = plane ^ (plane >> 3)
    for shift in range(80):
        acc = (acc & (plane >> shift)) | (((plane << 1) ^ acc) & plane)
    return acc.bit_length()


KERNELS = (_dispatch, _calls, _bitplanes)


def measure() -> float:
    """Sum over the kernels of the fastest of ``REPEATS`` runs each: a
    run is only ever delayed, so the minimum is the steadiest reading
    of the current speed."""
    total = 0.0
    for kernel in KERNELS:
        samples = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - started)
        total += min(samples)
    return total


class Calibrator:
    """Host speed over *cpus* CPUs: :func:`measure` in this process and,
    at the same moment, in ``cpus - 1`` helper processes; the mean of
    their times.  Helpers idle on a pipe between measurements and exit
    when it closes."""

    def __init__(self, cpus: int = 1) -> None:
        self.helpers = [
            subprocess.Popen(
                [sys.executable, "-B", __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(cpus - 1)
        ]

    def measure(self) -> float:
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [measure()]
        times += [float(helper.stdout.readline()) for helper in self.helpers]
        return statistics.mean(times)

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
            helper.wait(timeout=30)
        self.helpers = []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:  # one measurement per request line
        print(measure(), flush=True)
