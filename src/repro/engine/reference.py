"""Reference engine: exact interpretive execution of a march program.

This backend reproduces the operational transparent semantics of the
original op-by-op interpreter (`repro.bist.executor.run_march` before
the engine refactor) — derived writes from the most recent read of the
same element-visit, compare/collect/sink/stop-on-mismatch modes — while
hoisting mask resolution and op dispatch out of the inner loop via the
compiled IR.  It is the semantic baseline every other backend is
equivalence-tested against: its campaign entry points (`detect_compare`,
`detect_session`) are the inherited per-fault loops over
:meth:`ReferenceEngine.run`, so a reference campaign is literally the
classic one-fault-at-a-time sweep — including the per-fault two-phase
TransparentBist session behind the signature and pair-verdict aliasing
oracles.
"""

from __future__ import annotations

from typing import Sequence

from ..memory.model import Memory
from .base import (
    Engine,
    ExecutionError,
    ReadRecord,
    ReadSink,
    RunResult,
    register_engine,
)
from .program import MarchProgram


def execute_program(
    program: MarchProgram,
    memory: Memory,
    *,
    snapshot: Sequence[int] | None = None,
    collect: bool = False,
    stop_on_mismatch: bool = False,
    read_sink: ReadSink | None = None,
    derive_writes: bool = True,
) -> RunResult:
    """Interpret *program* on *memory*.

    ``snapshot`` is the reference initial content used to compute
    expected read values for content-relative operations; by default the
    memory content at call time.  With ``collect=True`` every read is
    recorded; ``stop_on_mismatch`` aborts at the first failing read;
    ``read_sink`` receives every read record (e.g. to feed a MISR);
    ``derive_writes`` selects the operational (True) or oracle (False)
    datapath for content-relative writes.
    """
    initial = list(snapshot) if snapshot is not None else memory.snapshot()
    if len(initial) != memory.n_words:
        raise ExecutionError("snapshot length does not match memory size")

    read = memory.read
    write = memory.write
    result = RunResult()
    records = result.records
    slow = collect or read_sink is not None
    op_index = 0
    for element in program.elements:
        element_index = element.index
        steps = element.steps
        for addr in element.addresses(memory.n_words):
            last_raw: int | None = None
            last_mask = 0
            initial_word = initial[addr]
            for is_read, relative, mask, derivable in steps:
                if is_read:
                    raw = read(addr)
                    expected = (initial_word ^ mask) if relative else mask
                    result.n_reads += 1
                    mismatch = raw != expected
                    if mismatch:
                        result.n_mismatches += 1
                    if slow:
                        record = ReadRecord(
                            op_index, element_index, addr, raw, expected, mask
                        )
                        if collect:
                            records.append(record)
                        if read_sink is not None:
                            read_sink(record)
                    last_raw, last_mask = raw, mask
                    result.ops_executed += 1
                    if mismatch and stop_on_mismatch:
                        result.stopped_early = True
                        return result
                else:
                    if relative and derive_writes:
                        if last_raw is None:
                            raise ExecutionError(
                                f"{program.name}: transparent write "
                                f"{_underivable_label(element)} at element "
                                f"{element_index} has no preceding read in its "
                                "element-visit; the BIST datapath cannot derive "
                                "its data"
                            )
                        value = last_raw ^ last_mask ^ mask
                    elif relative:
                        value = initial_word ^ mask
                    else:
                        value = mask
                    write(addr, value)
                    result.ops_executed += 1
                op_index += 1
    return result


def _underivable_label(element) -> str:
    """Label of the element's first derived write with no feeding read
    (the op the interpreter trips on) — error reporting only."""
    for op in element.ops:
        if op.is_write and op.relative and op.derive_from is None:
            return op.label
    return "?"  # pragma: no cover - unreachable when called on error


class ReferenceEngine(Engine):
    """Exact op-by-op interpretation of the compiled program."""

    name = "reference"

    def run(
        self,
        test,
        memory: Memory,
        *,
        snapshot: Sequence[int] | None = None,
        collect: bool = False,
        stop_on_mismatch: bool = False,
        read_sink: ReadSink | None = None,
        derive_writes: bool = True,
    ) -> RunResult:
        program = self._program(test, memory.width)
        return execute_program(
            program,
            memory,
            snapshot=snapshot,
            collect=collect,
            stop_on_mismatch=stop_on_mismatch,
            read_sink=read_sink,
            derive_writes=derive_writes,
        )


register_engine(ReferenceEngine())
