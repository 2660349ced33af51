"""Engine abstraction: run artifacts, the backend interface, registry.

A *fault-simulation engine* executes compiled
:class:`~repro.engine.program.MarchProgram` IR against a memory model.
Every engine must reproduce the operational
semantics of the original interpreter bit-for-bit (see
``src/repro/engine/README.md`` for the exactness contract); engines are
free to take shortcuts only where the shortcut is provably equivalent.

Two run granularities exist:

* :meth:`Engine.run` — one march execution on one memory, producing a
  full :class:`RunResult` (read records, MISR sinks, early stop);
* one campaign call per oracle context — given the shared initial
  content and a fault list or streaming fault class, return every
  fault's verdict packed:
  :meth:`Engine.detect_compare` (alias-free compare oracle,
  :class:`~repro.engine.verdicts.PackedVerdicts`) and
  :meth:`Engine.detect_session` (two-phase MISR session,
  ``(stream detected, signature detected)``
  :class:`~repro.engine.verdicts.PackedPairVerdicts`; the signature
  oracle is its ``.signature`` plane).  They pair one-to-one with
  :meth:`Engine.build_compare_context` and
  :meth:`Engine.build_session_context`.  The base implementations loop
  :meth:`Engine.run` per fault; vectorized backends override
  :meth:`Engine._detect_compare` / :meth:`Engine._detect_session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.march import MarchTest
    from ..memory.faults import Fault
    from ..memory.model import Memory
    from .program import MarchProgram
    from .verdicts import PackedPairVerdicts, PackedVerdicts


class ExecutionError(RuntimeError):
    """Raised when a test is not executable on the given memory."""


@dataclass(frozen=True)
class ReadRecord:
    """One read observation during a march run."""

    op_index: int
    element_index: int
    addr: int
    raw: int
    expected: int
    mask_value: int

    @property
    def mismatch(self) -> bool:
        return self.raw != self.expected


@dataclass
class RunResult:
    """Outcome of executing a march test."""

    ops_executed: int = 0
    n_reads: int = 0
    n_mismatches: int = 0
    records: list[ReadRecord] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def detected(self) -> bool:
        """True when at least one read disagreed with the fault-free value."""
        return self.n_mismatches > 0


ReadSink = Callable[[ReadRecord], None]


def _check_words(n_words: int, words: Sequence[int]) -> None:
    if len(words) != n_words:
        raise ValueError(f"expected {n_words} words, got {len(words)}")


def compare_verdict(
    run: Callable[..., RunResult],
    program: "MarchProgram",
    n_words: int,
    words: Sequence[int],
    fault: "Fault",
    *,
    derive_writes: bool = True,
) -> bool:
    """Compare-oracle verdict of one fault alone on a fresh memory
    loaded with *words*, executed by *run* (an engine's ``run`` or
    :func:`~repro.engine.reference.execute_program`)."""
    from ..memory.injection import FaultyMemory

    memory = FaultyMemory(n_words, program.width, [fault])
    memory.load(words)
    return run(
        program, memory, stop_on_mismatch=True, derive_writes=derive_writes
    ).detected


def session_verdict(
    run: Callable[..., RunResult],
    test: "MarchProgram",
    prediction: "MarchProgram",
    n_words: int,
    words: Sequence[int],
    fault: "Fault",
    *,
    misr_width: int = 16,
    misr_seed: int = 0,
) -> tuple[bool, bool]:
    """``(stream_detected, signature_detected)`` of one fault's
    two-phase transparent BIST session, executed by *run*."""
    from ..bist.misr import Misr
    from ..memory.injection import FaultyMemory

    memory = FaultyMemory(n_words, test.width, [fault])
    memory.load(words)
    snapshot = memory.snapshot()
    predict_misr = Misr(misr_width, misr_seed)
    run(
        prediction,
        memory,
        snapshot=snapshot,
        read_sink=lambda rec: predict_misr.absorb(rec.raw ^ rec.mask_value),
    )
    test_misr = Misr(misr_width, misr_seed)
    test_run = run(
        test,
        memory,
        snapshot=snapshot,
        read_sink=lambda rec: test_misr.absorb(rec.raw),
    )
    return (
        test_run.n_mismatches > 0,
        predict_misr.signature != test_misr.signature,
    )


class Engine:
    """A fault-simulation backend over compiled march programs."""

    name: str = "base"

    def run(
        self,
        test: "MarchTest | MarchProgram",
        memory: "Memory",
        *,
        snapshot: Sequence[int] | None = None,
        collect: bool = False,
        stop_on_mismatch: bool = False,
        read_sink: ReadSink | None = None,
        derive_writes: bool = True,
    ) -> RunResult:
        """Execute *test* on *memory* (semantics of the classic
        ``run_march``; see :func:`repro.bist.executor.run_march`)."""
        raise NotImplementedError

    def build_compare_context(
        self,
        test: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        *,
        derive_writes: bool = True,
    ) -> object:
        """Reusable compare-oracle campaign state for this engine, or
        ``None`` when the engine has nothing to amortize beyond the
        (already cached) compiled program.  What comes back is opaque:
        hand it to :meth:`detect_compare` via ``context=`` unchanged.
        The base/reference per-fault loop precomputes nothing."""
        return None

    def build_session_context(
        self,
        test: "MarchTest | MarchProgram",
        prediction: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
    ) -> object:
        """Reusable two-phase-session state for :meth:`detect_session`,
        or ``None`` when the engine has nothing to amortize."""
        return None

    def detect_compare(
        self,
        test: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: "Sequence[Fault]",
        *,
        derive_writes: bool = True,
        context: object = None,
    ) -> "PackedVerdicts":
        """Compare-oracle verdict for every fault in *faults*, packed.

        Each fault is simulated alone on a fresh memory loaded with
        *words* (the campaign's shared initial content); the verdict is
        ``RunResult.detected`` of a ``stop_on_mismatch`` run.  *faults*
        is a list or a streaming
        :class:`~repro.memory.injection.FaultClass`; ``context``
        accepts a prebuilt :meth:`build_compare_context` payload.
        The content length is checked here, for every engine; backends
        override :meth:`_detect_compare`.
        """
        _check_words(n_words, words)
        return self._detect_compare(
            test, n_words, width, words, faults,
            derive_writes=derive_writes, context=context,
        )

    def detect_session(
        self,
        test: "MarchTest | MarchProgram",
        prediction: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: "Sequence[Fault]",
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
        context: object = None,
    ) -> "PackedPairVerdicts":
        """``(stream_detected, signature_detected)`` pair verdict for
        every fault in *faults*, packed.

        Each fault is simulated alone on a fresh memory loaded with
        *words*; a two-phase transparent BIST session (prediction phase
        feeding one MISR with pattern-corrected reads, test phase
        feeding a second MISR with raw reads — the semantics of
        :class:`repro.bist.controller.TransparentBist`) runs through
        this engine.  The signature verdict (``.signature``) is whether
        the two signatures differ — aliasing is possible, exactly as in
        hardware; the stream verdict (``.stream``) is whether the ideal
        alias-free compare oracle saw the fault in the test phase's
        read stream (:attr:`repro.bist.controller.BistOutcome.
        stream_detected`).  A fault with ``(True, False)`` *aliased*.
        ``context`` accepts a prebuilt :meth:`build_session_context`
        payload; backends override :meth:`_detect_session`.
        """
        _check_words(n_words, words)
        return self._detect_session(
            test, prediction, n_words, width, words, faults,
            misr_width=misr_width, misr_seed=misr_seed, context=context,
        )

    def _detect_compare(
        self, test, n_words, width, words, faults, *, derive_writes, context
    ) -> "PackedVerdicts":
        """The per-fault compare loop over :meth:`run`; the base engine
        has no context and ignores it."""
        from .verdicts import PackedVerdicts

        program = self._program(test, width)
        return PackedVerdicts.from_bools(
            compare_verdict(
                self.run, program, n_words, words, fault,
                derive_writes=derive_writes,
            )
            for fault in faults
        )

    def _detect_session(
        self, test, prediction, n_words, width, words, faults, *,
        misr_width, misr_seed, context,
    ) -> "PackedPairVerdicts":
        """The per-fault two-phase session loop over :meth:`run`."""
        from .verdicts import PackedPairVerdicts

        test_program = self._program(test, width)
        prediction_program = self._program(prediction, width)
        return PackedPairVerdicts.from_pairs(
            session_verdict(
                self.run, test_program, prediction_program, n_words, words,
                fault, misr_width=misr_width, misr_seed=misr_seed,
            )
            for fault in faults
        )

    def detect_symbolic(
        self,
        test: "MarchTest",
        n_words: int,
        faults: "Sequence[Fault]",
        *,
        derive_writes: bool = True,
    ) -> list:
        """Width-generic verdict objects for every fault in *faults*.

        Only backends with a symbolic state model can answer this (the
        registered ``symbolic`` engine); concrete backends raise
        :class:`ExecutionError`.
        """
        raise ExecutionError(
            f"engine {self.name!r} evaluates faults at a concrete width "
            "and has no width-generic symbolic verdicts; use "
            "get_engine('symbolic')"
        )

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _program(test: "MarchTest | MarchProgram", width: int) -> "MarchProgram":
        from .program import MarchProgram, compile_march

        if isinstance(test, MarchProgram):
            if test.width != width:
                raise ExecutionError(
                    f"program {test.name} compiled for width {test.width}, "
                    f"memory width is {width}"
                )
            return test
        return compile_march(test, width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Engine] = {}

DEFAULT_ENGINE = "reference"


def register_engine(engine: Engine) -> Engine:
    """Register *engine* under its ``name`` (last registration wins)."""
    _REGISTRY[engine.name] = engine
    return engine


def engine_names() -> tuple[str, ...]:
    """Names of all registered engines."""
    return tuple(sorted(_REGISTRY))


def get_engine(spec: "str | Engine | None" = None) -> Engine:
    """Resolve an engine: an instance passes through, a name looks up
    the registry, ``None`` yields the default (reference) engine."""
    if isinstance(spec, Engine):
        return spec
    name = DEFAULT_ENGINE if spec is None else spec
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(engine_names()) or "<none registered>"
        raise ValueError(
            f"unknown engine {name!r}; registered engines: {known}"
        ) from None
