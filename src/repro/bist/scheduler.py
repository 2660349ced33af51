"""Periodic transparent testing in system idle time.

Transparent tests run non-concurrently: the BIST borrows the memory
during idle cycles and must leave the content intact.  This module
models that life-time scenario as a cycle-based discrete-event
simulation:

* each cycle the *workload* either accesses the memory (busy) or leaves
  it idle; the BIST executes a bounded number of test operations per
  idle cycle;
* a system **write** during an active session invalidates the predicted
  signature (the content the prediction pass hashed has changed), so
  the session aborts and restarts — this is why the paper stresses that
  *shorter tests reduce the probability of interference*;
* permanent faults can be injected mid-simulation; the report records
  the detection latency (fault injection to first failing session).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..core.march import MarchTest
from ..core.signature import prediction_test
from ..engine.base import ExecutionError
from ..memory.model import Memory
from ..memory.traces import AccessEvent
from .misr import Misr


@dataclass
class SchedulerReport:
    """Outcome of an online-testing simulation."""

    cycles: int = 0
    idle_cycles: int = 0
    sessions_completed: int = 0
    sessions_aborted: int = 0
    detections: list[int] = field(default_factory=list)
    fault_cycle: int | None = None

    @property
    def detection_latency(self) -> int | None:
        """Cycles from fault injection to the first detecting session."""
        if self.fault_cycle is None:
            return None
        later = [c for c in self.detections if c >= self.fault_cycle]
        return (later[0] - self.fault_cycle) if later else None


Workload = Callable[[int, random.Random], AccessEvent | None]


def random_workload(
    n_words: int,
    width: int,
    *,
    idle_fraction: float = 0.5,
    write_fraction: float = 0.3,
) -> Workload:
    """A memoryless workload: idle with probability *idle_fraction*,
    otherwise a uniformly random read or write."""
    if not 0.0 <= idle_fraction <= 1.0:
        raise ValueError("idle_fraction must be in [0, 1]")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")

    def workload(cycle: int, rng: random.Random) -> AccessEvent | None:
        if rng.random() < idle_fraction:
            return None
        addr = rng.randrange(n_words)
        if rng.random() < write_fraction:
            return AccessEvent("w", addr, rng.randrange(1 << width))
        return AccessEvent("r", addr, 0)

    return workload


class SessionStepper:
    """Incremental two-phase BIST session (prediction then test).

    The stepper owns the snapshot semantics: expected values and
    prediction corrections refer to the memory content at session start.
    ``phase`` reports which phase the next operation belongs to
    (``"prediction"`` or ``"test"``), so a scheduler aborting on an
    interfering write can attribute the abort to the phase it hit.

    With ``track_stream=True`` the stepper also runs the alias-free
    checker next to the MISRs: the prediction phase's expected read
    stream is kept (bounded by one session, discarded at session end)
    and every test-phase read is compared against it on the fly, so a
    finished session reports ``stream_detected`` — the ground truth
    that exposes aliasing escapes (stream mismatch, signatures equal).
    """

    def __init__(
        self,
        memory: Memory,
        test: MarchTest,
        prediction: MarchTest,
        misr_width: int,
        *,
        track_stream: bool = False,
    ) -> None:
        self.memory = memory
        self.snapshot = memory.snapshot()
        self.predict_misr = Misr(misr_width)
        self.test_misr = Misr(misr_width)
        self.phase = "prediction"
        self.track_stream = track_stream
        self.stream_mismatches = 0
        self._expected: list[int] = []
        self._cursor = 0
        self._ops = self._session(test, prediction)
        self.finished = False
        self.detected = False

    @property
    def stream_detected(self) -> bool:
        """Whether the alias-free elementwise compare saw a mismatch
        (only meaningful with ``track_stream=True``)."""
        return self.stream_mismatches > 0

    def _phase(self, test: MarchTest, predicting: bool) -> Iterator[None]:
        width = self.memory.width
        for element_index, element in enumerate(test.elements):
            resolved = [(op, op.data.mask.resolve(width)) for op in element.ops]
            for addr in element.order.addresses(self.memory.n_words):
                last_raw = last_mask = None
                for op, mask_value in resolved:
                    if op.is_read:
                        raw = self.memory.read(addr)
                        if predicting:
                            self.predict_misr.absorb(raw ^ mask_value)
                            if self.track_stream:
                                self._expected.append(raw ^ mask_value)
                        else:
                            self.test_misr.absorb(raw)
                            if self.track_stream:
                                if (
                                    self._cursor >= len(self._expected)
                                    or self._expected[self._cursor] != raw
                                ):
                                    self.stream_mismatches += 1
                                self._cursor += 1
                        last_raw, last_mask = raw, mask_value
                    else:
                        if op.is_relative:
                            if last_raw is None:
                                raise ExecutionError(
                                    f"{test.name}: transparent write {op} at "
                                    f"element {element_index} has no preceding "
                                    "read in its element-visit; the BIST "
                                    "datapath cannot derive its data"
                                )
                            value = last_raw ^ last_mask ^ mask_value
                        else:
                            value = mask_value
                        self.memory.write(addr, value)
                    yield None

    def _session(self, test: MarchTest, prediction: MarchTest) -> Iterator[None]:
        yield from self._phase(prediction, predicting=True)
        self.phase = "test"
        yield from self._phase(test, predicting=False)

    def step(self, max_ops: int) -> int:
        """Execute up to *max_ops* operations; returns ops executed."""
        done = 0
        for _ in range(max_ops):
            try:
                next(self._ops)
            except StopIteration:
                self.finished = True
                self.phase = "done"
                self.detected = (
                    self.predict_misr.signature != self.test_misr.signature
                )
                self._expected.clear()
                break
            done += 1
        else:
            return done
        return done


class OnlineTestScheduler:
    """Schedules transparent BIST sessions into workload idle time."""

    def __init__(
        self,
        memory: Memory,
        test: MarchTest,
        prediction: MarchTest | None = None,
        *,
        misr_width: int = 16,
        ops_per_idle_cycle: int = 1,
        rng: random.Random | None = None,
    ) -> None:
        if not test.is_transparent_form:
            raise ValueError("online testing requires a transparent test")
        self.memory = memory
        self.test = test
        self.prediction = (
            prediction if prediction is not None else prediction_test(test)
        )
        self.misr_width = misr_width
        self.ops_per_idle_cycle = ops_per_idle_cycle
        self.rng = rng if rng is not None else random.Random(0)
        self._session: SessionStepper | None = None

    @property
    def session_ops(self) -> int:
        """Total BIST operations in one full session (TCP + TCM)."""
        return (self.prediction.op_count + self.test.op_count) * self.memory.n_words

    def run(
        self,
        workload: Workload,
        cycles: int,
        *,
        fault_at: tuple[int, Callable[[Memory], None]] | None = None,
    ) -> SchedulerReport:
        """Simulate *cycles* cycles of interleaved workload and testing.

        ``fault_at = (cycle, injector)`` calls ``injector(memory)`` at
        the given cycle (e.g. injecting a stuck-at into a
        :class:`~repro.memory.injection.FaultyMemory`).
        """
        report = SchedulerReport(cycles=cycles)
        for cycle in range(cycles):
            if fault_at is not None and cycle == fault_at[0]:
                fault_at[1](self.memory)
                report.fault_cycle = cycle

            access = workload(cycle, self.rng)
            if access is not None:
                # System owns the memory this cycle.
                if access.kind == "w":
                    self.memory.write(access.addr, access.value)
                    if self._session is not None:
                        # Content changed under the session: predicted
                        # signature is stale. Abort and retry later.
                        self._session = None
                        report.sessions_aborted += 1
                else:
                    self.memory.read(access.addr)
                continue

            report.idle_cycles += 1
            if self._session is None:
                self._session = SessionStepper(
                    self.memory, self.test, self.prediction, self.misr_width
                )
            self._session.step(self.ops_per_idle_cycle)
            if self._session.finished:
                report.sessions_completed += 1
                if self._session.detected:
                    report.detections.append(cycle)
                self._session = None
        return report
