"""March-test execution against a memory model (engine facade).

The executor implements *operational* transparent semantics: the data of
a content-relative write is computed from the most recent read of the
same element-visit (raw read value XOR the pattern difference), exactly
as the BIST hardware's XOR network derives write-back data from read
data.  On a faulty memory this faithfully propagates wrong read data
into subsequent writes — a first-order effect of transparent testing
that expected-value shortcuts would miss.

Since the engine refactor the actual execution lives in
:mod:`repro.engine`: a :class:`~repro.core.march.MarchTest` is lowered
once to a compiled :class:`~repro.engine.program.MarchProgram` and run
by a pluggable backend.  :func:`run_march` keeps the historical
interface and delegates to the registry (``engine="reference"`` by
default); campaign-scale batch evaluation lives in
:meth:`repro.engine.Engine.detect_compare` and
:func:`repro.analysis.coverage.run_campaign`.

Detection oracles:

* *compare mode* — every read is checked against the value the
  fault-free test would produce given the memory content at test start
  (this equals an alias-free two-phase signature session, see
  :mod:`repro.bist.controller`);
* *signature mode* — the controller runs the prediction and test
  phases through a real MISR and compares signatures (aliasing
  possible).
"""

from __future__ import annotations

from typing import Sequence

from ..core.march import MarchTest
from ..engine import (
    Engine,
    ExecutionError,
    ReadRecord,
    ReadSink,
    RunResult,
    get_engine,
)
from ..memory.model import Memory

__all__ = [
    "ExecutionError",
    "ReadRecord",
    "ReadSink",
    "RunResult",
    "read_stream",
    "run_march",
    "transparent_writes_derivable",
]


def run_march(
    test: MarchTest,
    memory: Memory,
    *,
    snapshot: Sequence[int] | None = None,
    collect: bool = False,
    stop_on_mismatch: bool = False,
    read_sink: ReadSink | None = None,
    derive_writes: bool = True,
    engine: str | Engine | None = None,
) -> RunResult:
    """Execute *test* on *memory*.

    ``snapshot`` is the reference initial content used to compute
    expected read values for content-relative operations; by default the
    memory content at call time.  With ``collect=True`` every read is
    recorded; ``stop_on_mismatch`` aborts at the first failing read
    (useful for large fault campaigns); ``read_sink`` receives every
    read record (e.g. to feed a MISR).

    ``derive_writes`` selects the write datapath for content-relative
    writes: ``True`` (default) is the operational BIST semantics — the
    write value is computed from the most recent read of the same
    element-visit; ``False`` is an idealised oracle that writes the
    fault-free value ``snapshot[addr] ^ mask``.  The oracle mode makes a
    transparent run the exact XOR image of the corresponding
    non-transparent run, which the Section 5 coverage-equality
    experiment relies on.

    ``engine`` selects the simulation backend by name or instance
    (default: the reference interpreter).
    """
    return get_engine(engine).run(
        test,
        memory,
        snapshot=snapshot,
        collect=collect,
        stop_on_mismatch=stop_on_mismatch,
        read_sink=read_sink,
        derive_writes=derive_writes,
    )


def transparent_writes_derivable(test: MarchTest) -> bool:
    """Static check of the executor's write-derivation requirement.

    True when every content-relative write is preceded by a read within
    its own element (so the XOR network always has read data to work
    from).  All tests produced by the library's transformations satisfy
    this by construction.
    """
    for element in test.elements:
        seen_read = False
        for op in element.ops:
            if op.is_read:
                seen_read = True
            elif op.is_relative and not seen_read:
                return False
    return True


def read_stream(
    test: MarchTest,
    memory: Memory,
    *,
    snapshot: Sequence[int] | None = None,
    engine: str | Engine | None = None,
) -> list[int]:
    """The raw read-data stream of executing *test* on *memory*."""
    stream: list[int] = []
    run_march(
        test,
        memory,
        snapshot=snapshot,
        read_sink=lambda rec: stream.append(rec.raw),
        engine=engine,
    )
    return stream
