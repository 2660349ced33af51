"""Spans recorded from outside the program.

The benchmark wraps public entry points of ``repro`` by patching class
attributes, or the importing module's name for functions imported by
name, for the duration of a traced pass only.  Each span records its
name, start, end, parent span and pass id; spans stay in memory (in
flat arrays: a soak pass makes ~200k of them) and are written as JSON
lines when the run ends.

A span's *self time* is its duration minus what its child spans cover,
so the self times of one pass add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager

from workloads import class_group


class Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    @property
    def n(self) -> int:
        return self.tracer.n[self.index]

    @n.setter
    def n(self, value: int) -> None:
        self.tracer.n[self.index] = value

    @property
    def seconds(self) -> float:
        return self.tracer.end[self.index] - self.tracer.start[self.index]

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer.close(self.index)
        return False


class Tracer:
    """Nested spans of one process, grouped by pass id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.passes: list = []
        self._name_ids: dict[str, int] = {}
        self._pass_ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.pass_of = array("i")
        self.n = array("q")
        self.stack: list[int] = []
        self.set_pass("setup")

    def set_pass(self, pass_id) -> None:
        if pass_id not in self._pass_ids:
            self._pass_ids[pass_id] = len(self.passes)
            self.passes.append(pass_id)
        self._pass = self._pass_ids[pass_id]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str, n: int = 0) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.pass_of.append(self._pass)
        self.n.append(n)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        if self.stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def span(self, name: str, n: int = 0) -> Span:
        return Span(self, self.open(name, n))

    def _wrap(self, fn, name_of):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(*name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced entry point; restore them on exit."""
        saved = []
        try:
            for owner, attr, name_of in _targets():
                raw = owner.__dict__.get(attr)  # None when inherited
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name_of))
                else:
                    patched = self._wrap(getattr(owner, attr), name_of)
                saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                if raw is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct
        children."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def summary(self) -> dict:
        """``pass id -> name -> {"self", "total", "calls", "n"}``.
        ``total`` counts outermost spans of a name only."""
        out: dict = {pass_id: {} for pass_id in self.passes}
        own = self.self_times()
        for index, name in enumerate(self.name):
            rows = out[self.passes[self.pass_of[index]]]
            row = rows.setdefault(
                self.names[name], {"self": 0.0, "total": 0.0, "calls": 0, "n": 0}
            )
            row["self"] += own[index]
            row["calls"] += 1
            row["n"] += self.n[index]
            parent = self.parent[index]
            if parent < 0 or self.name[parent] != name:
                row["total"] += self.end[index] - self.start[index]
        return out

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index in range(len(self.start)):
                record = {
                    "name": self.names[self.name[index]],
                    "start": self.start[index],
                    "end": self.end[index],
                    "parent": self.parent[index],
                    "pass": self.passes[self.pass_of[index]],
                    "n": self.n[index],
                }
                out.write(json.dumps(record) + "\n")


def _fixed(name):
    return lambda args, kwargs: (name,)


def _class_span(args, kwargs):
    # CampaignRunner.detect_class_packed(self, work, faults, *, class_name)
    return class_group(kwargs.get("class_name")), len(args[2])


def _targets():
    import repro.soak.campaign as soak_campaign
    import repro.soak.scenario as soak_scenario
    import repro.soak.scheduler as soak_scheduler
    from repro.bist.scheduler import SessionStepper
    from repro.engine.batch import BatchEngine
    from repro.engine.parallel import CampaignRunner
    from repro.memory.injection import FaultyMemory
    from repro.soak.arrivals import FaultTimeline
    from repro.soak.workload import LfsrWorkload

    return [
        (CampaignRunner, "detect_class_packed", _class_span),
        (BatchEngine, "build_compare_context", _fixed("engine.context_build")),
        (BatchEngine, "build_session_context", _fixed("engine.context_build")),
        (soak_campaign, "run_scenario", _fixed("soak.scheduler")),
        (soak_scenario, "twm_transform", _fixed("core.transform")),
        (FaultTimeline, "generate", _fixed("soak.arrivals")),
        (LfsrWorkload, "__call__", _fixed("soak.workload")),
        (SessionStepper, "step", _fixed("bist.session_step")),
        (FaultyMemory, "inject", _fixed("memory.fault_toggle")),
        (FaultyMemory, "remove", _fixed("memory.fault_toggle")),
        (soak_scheduler, "diagnose_memory", _fixed("analysis.diagnosis")),
    ]
