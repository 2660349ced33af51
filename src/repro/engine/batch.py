"""Batch engine: word-parallel single-fault campaign evaluation.

The campaign cost model of the interpretive path is
``n_faults x op_count x n_words`` memory operations, each a Python-level
``Memory.read``/``Memory.write`` with fault-list scans.  This backend
exploits two structural facts of the compare-oracle campaign
(one fault per run, shared initial content):

* **Fault confinement** — every classic fault involves one or two word
  addresses; reads anywhere else return fault-free data.  The fault-free
  mismatch behaviour is precomputed *once* per (program, content) as a
  packed bit-plane (the reused fault-free read stream), so each fault
  only needs its own cells evaluated.

* **Bit-plane parallelism** — word operations are bitwise, so the state
  of cell ``(addr, bit)`` under a single-cell fault hypothesis *at that
  cell* evolves independently of every other bit.  Packing all
  ``n_words * width`` hypotheses into one big Python integer evaluates
  an entire fault class (all SAFs, all TFs of one direction, all RDFs of
  one flavour) in a single O(op_count) pass of big-int arithmetic.

Per fault class:

``SAF``
    closed form: the stuck cell always reads back its forced value and
    the reference snapshot already contains it, so a relative read
    mismatches iff its mask selects the bit, an absolute read iff its
    mask disagrees with the stuck value.  Two width-bit OR-accumulators
    answer the whole class.
``TF`` / ``RDF`` / ``DRDF``
    one packed-plane pass per variant (rising/falling, plain/deceptive).
``CFst`` / ``CFid`` / ``CFin``
    exact two-word (one-word when intra-word) subset simulation —
    O(op_count) per fault instead of O(op_count x n_words).
``AF``
    same subset machinery over the decoder fault's support (the
    addressed word plus its aliased partner): accesses to the faulty
    address are lost, redirected or wired together exactly as in
    :class:`~repro.memory.injection.FaultyMemory`, and no other word is
    ever influenced, so the two-word replay is exact.
anything unrecognised
    full-fidelity fallback through the reference interpreter.

The two-phase session (transparent BIST, MISR compare) gets the same
treatment through :meth:`~repro.engine.base.Engine.detect_session`:
the fault-free read streams of both phases are recorded once per
``(programs, content)``, the MISR's GF(2) linearity turns every read
bit into a precomputed signature weight, and each fault only needs a
subset replay over its own words to know which read bits it corrupts —
O(op_count) per fault instead of two full O(op_count x n_words) runs.
The test-phase leg of the same replay also compares every support read
against its session-snapshot expected value, so the alias-free stream
verdict comes next to the signature verdict at no extra pass; the
signature oracle is the pair's ``.signature`` plane.

For a streaming cell or intra-word CF class the session skips the
per-fault replay altogether: one packed pass per compare-kernel
hypothesis runs both phases and accumulates ``err & W[m]`` into
bit-sliced signature-delta planes, ``W[m]`` being the weights' bit
``m`` laid out at every read's cell positions (see
:class:`_SessionBlock`).

Single executions (:meth:`BatchEngine.run`) use the reference
interpreter unchanged: the batch acceleration is campaign-level.
"""

from __future__ import annotations

from typing import Sequence

from ..memory.faults import (
    AddressDecoderFault,
    CouplingFault,
    Fault,
    IdempotentCouplingFault,
    InversionCouplingFault,
    ReadDisturbFault,
    StateCouplingFault,
    StuckAtFault,
    TransitionFault,
)
from ..memory.injection import (
    FaultClass,
    IntraWordCFClass,
    ReadDisturbClass,
    StuckAtClass,
    TransitionClass,
    cf_variant_params,
)
from .base import (
    Engine,
    ExecutionError,
    ReadSink,
    RunResult,
    _check_words,
    compare_verdict,
    register_engine,
    session_verdict,
)
from .program import MarchProgram, pack_words, replicate_mask
from .reference import execute_program
from .verdicts import PackedPairVerdicts, PackedVerdicts


class BatchEngine(Engine):
    """Vectorized campaign backend over the compiled IR."""

    name = "batch"

    def run(
        self,
        test,
        memory,
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

    # -- campaign contexts (the amortizable per-campaign state) --------
    def build_compare_context(
        self,
        test,
        n_words: int,
        width: int,
        words: Sequence[int],
        *,
        derive_writes: bool = True,
    ) -> "_CampaignContext | None":
        """The compare oracle's whole reusable state — compiled
        program, masked words, packed planes and fault-free baseline
        (built lazily inside).  ``None`` for underivable programs,
        whose campaigns must take the per-fault interpreter path."""
        program = self._program(test, width)
        if derive_writes and not program.derivable:
            return None
        return _CampaignContext(program, n_words, words, derive_writes)

    def build_session_context(
        self,
        test,
        prediction,
        n_words: int,
        width: int,
        words: Sequence[int],
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
    ) -> "_SignatureContext | None":
        """The two-phase session's reusable state — fault-free read
        streams of both phases, MISR weight/fold tables, fault-free
        signature gap and mismatch set — one context answers both the
        stream and the signature verdict of the pair.  ``None`` for
        underivable programs (per-fault interpreter path)."""
        test_program = self._program(test, width)
        prediction_program = self._program(prediction, width)
        if not (test_program.derivable and prediction_program.derivable):
            return None
        return _SignatureContext(
            prediction_program, test_program, n_words, words,
            misr_width, misr_seed,
        )

    @staticmethod
    def _check_context(context, kind, program, n_words, words) -> None:
        """Guard against a context built for a different campaign being
        replayed here — the cache keys prevent it, but a silent
        mismatch would mean silently wrong verdicts.  *program* is the
        context's primary program (the compare program, or the test
        phase of a session)."""
        if not isinstance(context, kind):
            raise ExecutionError(
                f"prebuilt context has type {type(context).__name__}, "
                f"expected {kind.__name__}"
            )
        own_program = (
            context.program if kind is _CampaignContext else context.test
        )
        masked = [w & program.word_mask for w in words]
        if (
            context.n_words != n_words
            or context.width != program.width
            or own_program != program
            or context.words != masked
        ):
            raise ExecutionError(
                "prebuilt campaign context does not match this campaign's "
                "(program, geometry, words); rebuild it through the "
                "context cache"
            )

    def _detect_compare(
        self, test, n_words, width, words, faults, *, derive_writes, context
    ) -> PackedVerdicts:
        """Compare-oracle verdicts off the campaign context: a streaming
        class through its packed class kernel, anything else through
        the exact per-fault dispatch (:meth:`_CampaignContext.verdicts`)."""
        program = self._program(test, width)
        if derive_writes and not program.derivable:
            # An underivable program may still detect (or raise) fault
            # by fault, depending on whether a mismatch stops the run
            # before the first underivable write executes; only the
            # interpreter reproduces that exactly.
            return super()._detect_compare(
                program, n_words, width, words, faults,
                derive_writes=derive_writes, context=None,
            )
        if context is None:
            context = _CampaignContext(program, n_words, words, derive_writes)
        else:
            self._check_context(
                context, _CampaignContext, program, n_words, words
            )
            if context.derive != derive_writes:
                raise ExecutionError(
                    "prebuilt campaign context was built for the other "
                    "derived-write datapath"
                )
        return context.verdicts(faults)

    def _detect_session(
        self, test, prediction, n_words, width, words, faults, *,
        misr_width, misr_seed, context,
    ) -> PackedPairVerdicts:
        """Session pair verdicts off the session context: a streaming
        cell or intra-word CF class of this geometry through the packed
        session kernels, anything else through the per-fault subset
        replay (:meth:`_SignatureContext.verdicts`)."""
        test_program = self._program(test, width)
        prediction_program = self._program(prediction, width)
        if not (test_program.derivable and prediction_program.derivable):
            # The per-fault reference path raises ExecutionError at the
            # first underivable write; only it reproduces that exactly.
            return super()._detect_session(
                test_program, prediction_program, n_words, width, words,
                faults, misr_width=misr_width, misr_seed=misr_seed,
                context=None,
            )
        if context is None:
            context = _SignatureContext(
                prediction_program, test_program, n_words, words,
                misr_width, misr_seed,
            )
        else:
            self._check_context(
                context, _SignatureContext, test_program, n_words, words
            )
            if (
                context.prediction != prediction_program
                or context.misr_width != misr_width
                or context.misr_seed != misr_seed
            ):
                raise ExecutionError(
                    "prebuilt session context was built for a different "
                    "prediction program or MISR configuration"
                )
        return context.verdicts(faults)


class _CampaignContext:
    """Shared per-(program, content) state of one campaign slice.

    Planes are computed lazily, at most once each, and reused for every
    fault of the matching class.
    """

    def __init__(
        self,
        program: MarchProgram,
        n_words: int,
        words: Sequence[int],
        derive_writes: bool,
    ) -> None:
        _check_words(n_words, words)
        self.program = program
        self.n_words = n_words
        self.width = program.width
        self.words = [w & program.word_mask for w in words]
        self.derive = derive_writes
        self._packed = pack_words(self.words, self.width)
        self._full = (1 << (n_words * self.width)) - 1
        self._rep: list[list[int]] | None = None
        self._baseline: int | None = None
        self._saf: tuple[int, int] | None = None
        self._tf: dict[bool, int] = {}
        self._rdf: dict[bool, int] = {}
        self._lane_cache: dict[int, int] = {}
        self._fold_cache: dict[int, int] = {}

    # -- dispatch ------------------------------------------------------
    def detect(self, fault: Fault) -> bool:
        fault.validate(self.n_words, self.width)
        if isinstance(fault, StuckAtFault):
            plane = self._saf_planes()[fault.value]
            if (plane >> fault.cell.bit) & 1:
                return True
            return self._baseline_outside_cell(fault.cell)
        if isinstance(fault, TransitionFault):
            plane = self._tf_plane(fault.rising)
            if (plane >> self._pos(fault.cell)) & 1:
                return True
            return self._baseline_outside_cell(fault.cell)
        if isinstance(fault, ReadDisturbFault):
            plane = self._rdf_plane(fault.deceptive)
            if (plane >> self._pos(fault.cell)) & 1:
                return True
            return self._baseline_outside_cell(fault.cell)
        if isinstance(fault, CouplingFault):
            if self._coupling(fault):
                return True
            return self._baseline_outside_addrs(
                {fault.aggressor.addr, fault.victim.addr}
            )
        if isinstance(fault, AddressDecoderFault):
            support = _SubsetSim.support(fault)
            if self._subset_detect(fault, support):
                return True
            return self._baseline_outside_addrs(support)
        return self._fallback(fault)

    def _pos(self, cell) -> int:
        return cell.addr * self.width + cell.bit

    # -- class-level dispatch ------------------------------------------
    def verdicts(self, faults: Sequence[Fault]) -> PackedVerdicts:
        """Packed verdicts of *faults*, a list or a streaming class.

        The strided class kernels of :meth:`_packed_class` answer a
        covered class in one pass each; everything else — inter-word
        CF classes, AF classes, mismatched geometry, ill-formed tests,
        materialized lists — streams through the exact per-fault
        dispatch one fault at a time, so no path ever materializes a
        class as a list.
        """
        packed = self._packed_class(faults)
        if packed is not None:
            return packed
        return PackedVerdicts.from_bools(self.detect(fault) for fault in faults)

    def _packed_class(self, fault_class) -> PackedVerdicts | None:
        """Verdicts of a class the strided kernels cover, or ``None``.

        Covered: streaming classes at this campaign's geometry (SAF
        classes of any width up to it) when the fault-free baseline is
        clean — always, for well-formed tests.
        """
        if not isinstance(fault_class, FaultClass) or self._baseline_plane():
            return None
        n, w = self.n_words, self.width
        if isinstance(fault_class, StuckAtClass):
            if fault_class.n_words != n or fault_class.width > w:
                return None
            # The SAF verdict is address- and content-independent (see
            # _saf_planes), so a narrower class just replicates the
            # truncated accumulators at its own lane width.
            cw = fault_class.width
            saf0, saf1 = self._saf_planes()
            cmask = (1 << cw) - 1
            return PackedVerdicts(
                len(fault_class),
                (
                    replicate_mask(saf0 & cmask, n, cw),
                    replicate_mask(saf1 & cmask, n, cw),
                ),
                stride=2,
            )
        if fault_class.n_words != n or fault_class.width != w:
            return None
        if isinstance(fault_class, TransitionClass):
            return PackedVerdicts(
                len(fault_class),
                (self._tf_plane(True), self._tf_plane(False)),
                stride=2,
            )
        if isinstance(fault_class, ReadDisturbClass):
            return PackedVerdicts(
                len(fault_class),
                (self._rdf_plane(fault_class.deceptive),),
            )
        if isinstance(fault_class, IntraWordCFClass) and w > 1:
            return self._intra_cf_class(fault_class)
        return None

    def _intra_cf_class(self, fault_class: IntraWordCFClass) -> PackedVerdicts:
        """All intra-word coupling faults of one kind: one packed pass
        per (bit pair, parameter variant) — ``width*(width-1) *
        variants`` passes answer the whole class for every address at
        once, with the per-lane any-bit fold placing each verdict at
        its word lane's bit 0 (``slot_stride = width``)."""
        vectors = []
        for pair_index in range(fault_class.n_pairs):
            a_bit, v_bit = fault_class.pair_bits(pair_index)
            for variant in range(fault_class.variants):
                det = self._packed_coupling_run(
                    fault_class.cf_kind, a_bit, v_bit, variant
                )
                vectors.append(self._lane_any(det))
        return PackedVerdicts(
            len(fault_class),
            vectors,
            stride=fault_class.n_pairs * fault_class.variants,
            slot_stride=self.width,
        )

    def _bit_lane(self, bit: int) -> int:
        """``1 << bit`` replicated across every word lane (cached)."""
        lane = self._lane_cache.get(bit)
        if lane is None:
            lane = replicate_mask(1 << bit, self.n_words, self.width)
            self._lane_cache[bit] = lane
        return lane

    def _lane_any(self, det: int) -> int:
        """OR-fold each word lane of a packed mismatch plane down to
        the lane's bit 0.  Every shifted term is masked to the low
        ``width - shift`` bits of its lane so no bit crosses into the
        neighbouring word (which matters for non-power-of-two widths).
        """
        w = self.width
        shift = 1
        while shift < w:
            fold = self._fold_cache.get(shift)
            if fold is None:
                fold = replicate_mask(
                    (1 << (w - shift)) - 1, self.n_words, w
                )
                self._fold_cache[shift] = fold
            det |= (det >> shift) & fold
            shift <<= 1
        return det & self._bit_lane(0)

    def _packed_coupling_run(
        self, cf_kind: str, a_bit: int, v_bit: int, variant: int
    ) -> int:
        """One word-parallel pass hypothesising the same intra-word
        coupling fault (aggressor bit, victim bit, parameter variant)
        in *every* word lane at once.

        Intra-word coupling confines the fault to its own word, so the
        lanes evolve independently and one pass simulates ``n_words``
        faults; the semantics mirror :meth:`_coupling` bit for bit —
        continuous CFst forcing after the initial load and every store,
        CFid/CFin triggered by aggressor transitions of stores.  The
        returned plane keeps accumulating after a lane's first
        mismatch; the verdict is the lane OR, and detection is
        monotone, so the extra bits are harmless.
        """
        aggr_lane = self._bit_lane(a_bit)
        shift = v_bit - a_bit
        x, y, rising = cf_variant_params(cf_kind, variant)

        def enforce(state: int) -> int:
            cond = (state & aggr_lane) if y else (~state & aggr_lane)
            cond = (cond << shift) if shift >= 0 else (cond >> -shift)
            return (state | cond) if x else (state & ~cond)

        state = self._packed
        if cf_kind == "CFst":
            state = enforce(state)  # loaded content expresses the defect
        snap = state
        det = 0
        derive = self.derive
        for element, rep_masks in zip(self.program.elements, self._replicated()):
            last_raw = 0
            last_mask = 0
            for (is_read, relative, _mask, _ok), mrep in zip(
                element.steps, rep_masks
            ):
                if is_read:
                    det |= state ^ ((snap ^ mrep) if relative else mrep)
                    last_raw, last_mask = state, mrep
                else:
                    if relative and derive:
                        value = last_raw ^ last_mask ^ mrep
                    elif relative:
                        value = snap ^ mrep
                    else:
                        value = mrep
                    if cf_kind == "CFst":
                        state = enforce(value)
                    else:
                        trig = (
                            (state ^ value)
                            & (value if rising else ~value)
                            & aggr_lane
                        )
                        trig = (
                            (trig << shift) if shift >= 0 else (trig >> -shift)
                        )
                        if cf_kind == "CFid":
                            state = (value | trig) if x else (value & ~trig)
                        else:
                            state = value ^ trig
        return det

    # -- fault-free baseline -------------------------------------------
    def _baseline_plane(self) -> int:
        """Packed mismatch plane of the fault-free run: bit
        ``addr*width + bit`` is set iff the fault-free execution already
        disagrees with the snapshot-derived expected value there.  Zero
        for every well-formed march test; non-zero planes keep
        ill-formed tests bit-identical with the interpreter."""
        if self._baseline is None:
            self._baseline = self._packed_run(None, False)
        return self._baseline

    def _baseline_outside_cell(self, cell) -> bool:
        return bool(self._baseline_plane() & ~(1 << self._pos(cell)))

    def _baseline_outside_addrs(self, addrs) -> bool:
        outside = self._baseline_plane()
        for addr in addrs:
            outside &= ~(self.program.word_mask << (addr * self.width))
        return bool(outside)

    # -- packed bit-plane passes ---------------------------------------
    def _replicated(self) -> list[list[int]]:
        if self._rep is None:
            n, w = self.n_words, self.width
            self._rep = [
                [replicate_mask(mask, n, w) for _, _, mask, _ in element.steps]
                for element in self.program.elements
            ]
        return self._rep

    def _packed_run(self, kind: str | None, variant: bool) -> int:
        """One word-parallel pass over the program.

        ``kind`` selects the per-column fault hypothesis: ``None`` is
        the fault-free baseline, ``"TF"`` a transition fault at every
        column (``variant`` = rising), ``"RDF"`` a read-disturb fault at
        every column (``variant`` = deceptive).  Returns the accumulated
        mismatch plane for the hypothesised cell itself.
        """
        snap = self._packed
        full = self._full
        state = snap
        det = 0
        derive = self.derive
        is_tf = kind == "TF"
        is_rdf = kind == "RDF"
        for element, rep_masks in zip(self.program.elements, self._replicated()):
            last_raw = 0
            last_mask = 0
            for (is_read, relative, _mask, _ok), mrep in zip(
                element.steps, rep_masks
            ):
                if is_read:
                    if is_rdf:
                        raw = state if variant else state ^ full
                        state ^= full
                    else:
                        raw = state
                    det |= raw ^ ((snap ^ mrep) if relative else mrep)
                    last_raw, last_mask = raw, mrep
                else:
                    if relative and derive:
                        value = last_raw ^ last_mask ^ mrep
                    elif relative:
                        value = snap ^ mrep
                    else:
                        value = mrep
                    if is_tf:
                        state = (state & value) if variant else (state | value)
                    else:
                        state = value
        return det

    def _tf_plane(self, rising: bool) -> int:
        if rising not in self._tf:
            self._tf[rising] = self._packed_run("TF", rising)
        return self._tf[rising]

    def _rdf_plane(self, deceptive: bool) -> int:
        if deceptive not in self._rdf:
            self._rdf[deceptive] = self._packed_run("RDF", deceptive)
        return self._rdf[deceptive]

    def _saf_planes(self) -> tuple[int, int]:
        """``(detects_saf0, detects_saf1)`` width-bit accumulators.

        The stuck cell reads back its forced value and the reference
        snapshot (taken after static enforcement) already holds it, so
        relative reads mismatch exactly where their mask selects the
        bit, absolute reads exactly where their mask disagrees with the
        stuck value — independent of address and initial content.
        """
        if self._saf is None:
            det0 = det1 = 0
            wm = self.program.word_mask
            for element in self.program.elements:
                for is_read, relative, mask, _ok in element.steps:
                    if not is_read:
                        continue
                    if relative:
                        det0 |= mask
                        det1 |= mask
                    else:
                        det0 |= mask
                        det1 |= ~mask & wm
            self._saf = (det0, det1)
        return self._saf

    # -- coupling-fault subset simulation ------------------------------
    def _coupling(self, fault: CouplingFault) -> bool:
        """Exact simulation restricted to the aggressor/victim words,
        mirroring ``FaultyMemory`` semantics: continuous CFst forcing
        re-established after every store, CFid/CFin triggered by
        aggressor transitions of stores to the aggressor's word."""
        aggr, vict = fault.aggressor, fault.victim
        addrs = sorted({aggr.addr, vict.addr})
        w = {a: self.words[a] for a in addrs}
        v_clear = ~(1 << vict.bit)
        v_set = 1 << vict.bit
        is_cfst = isinstance(fault, StateCouplingFault)
        is_cfid = isinstance(fault, IdempotentCouplingFault)
        is_cfin = isinstance(fault, InversionCouplingFault)

        def enforce() -> None:
            if is_cfst and ((w[aggr.addr] >> aggr.bit) & 1) == fault.aggressor_value:
                w[vict.addr] = (w[vict.addr] & v_clear) | (
                    fault.forced_value << vict.bit
                )

        enforce()  # the loaded content already expresses the defect
        snap = dict(w)
        derive = self.derive
        descending_addrs = addrs[::-1]

        for element in self.program.elements:
            ordered = descending_addrs if element.descending else addrs
            for addr in ordered:
                last_raw = 0
                last_mask = 0
                snap_word = snap[addr]
                for is_read, relative, mask, _ok in element.steps:
                    if is_read:
                        raw = w[addr]
                        if raw != ((snap_word ^ mask) if relative else mask):
                            return True
                        last_raw, last_mask = raw, mask
                    else:
                        if relative and derive:
                            value = last_raw ^ last_mask ^ mask
                        elif relative:
                            value = snap_word ^ mask
                        else:
                            value = mask
                        old = w[addr]
                        w[addr] = value
                        if (is_cfid or is_cfin) and addr == aggr.addr:
                            a_old = (old >> aggr.bit) & 1
                            a_new = (value >> aggr.bit) & 1
                            if a_old != a_new and (a_new == 1) == fault.rising:
                                if is_cfid:
                                    w[vict.addr] = (w[vict.addr] & v_clear) | (
                                        fault.forced_value << vict.bit
                                    )
                                else:
                                    w[vict.addr] ^= v_set
                        enforce()
        return False

    # -- generic subset simulation (AF fast path) ----------------------
    def _subset_detect(self, fault: Fault, addrs: tuple[int, ...]) -> bool:
        """Exact replay of the program restricted to the fault's support
        words through :class:`_SubsetSim`, with the compare oracle's
        stop-at-first-mismatch verdict."""
        sim = _SubsetSim(fault, {a: self.words[a] for a in addrs}, self.width)
        snap = dict(sim.words)  # post static enforcement == run snapshot
        derive = self.derive
        ascending = sorted(addrs)
        descending = ascending[::-1]
        fetch = sim.fetch
        store = sim.store
        for element in self.program.elements:
            ordered = descending if element.descending else ascending
            steps = element.steps
            for addr in ordered:
                last_raw = 0
                last_mask = 0
                snap_word = snap[addr]
                for is_read, relative, mask, _ok in steps:
                    if is_read:
                        raw = fetch(addr)
                        if raw != ((snap_word ^ mask) if relative else mask):
                            return True
                        last_raw, last_mask = raw, mask
                    else:
                        if relative and derive:
                            value = last_raw ^ last_mask ^ mask
                        elif relative:
                            value = snap_word ^ mask
                        else:
                            value = mask
                        store(addr, value)
        return False

    # -- fallback ------------------------------------------------------
    def _fallback(self, fault: Fault) -> bool:
        """Full-fidelity interpretation for fault kinds without a fast
        path (user-defined models)."""
        return compare_verdict(
            execute_program, self.program, self.n_words, self.words, fault,
            derive_writes=self.derive,
        )


# ---------------------------------------------------------------------------
# Subset simulation: FaultyMemory semantics restricted to a fault's support
# ---------------------------------------------------------------------------


class _SubsetSim:
    """Mirror of :class:`~repro.memory.injection.FaultyMemory` for one
    classic fault, restricted to the word addresses the fault can
    influence (its *support*).

    Every classic fault model is word-confined: stuck-at, transition and
    read-disturb faults live in one word, coupling faults in at most
    two, and an address-decoder fault only ever loses, redirects or
    wires accesses between its own address and its aliased partner.
    Accesses to any other word behave exactly like the fault-free
    baseline, so replaying the program on just the support words is an
    exact simulation at O(op_count) instead of O(op_count x n_words).
    """

    __slots__ = (
        "words", "mask",
        "saf", "tf", "rdf", "cfst", "cfid", "cfin", "af",
    )

    def __init__(self, fault: Fault, words: dict[int, int], width: int) -> None:
        self.words = words
        self.mask = (1 << width) - 1
        self.saf = fault if isinstance(fault, StuckAtFault) else None
        self.tf = fault if isinstance(fault, TransitionFault) else None
        self.rdf = fault if isinstance(fault, ReadDisturbFault) else None
        self.cfst = fault if isinstance(fault, StateCouplingFault) else None
        self.cfid = fault if isinstance(fault, IdempotentCouplingFault) else None
        self.cfin = fault if isinstance(fault, InversionCouplingFault) else None
        self.af = fault if isinstance(fault, AddressDecoderFault) else None
        if not (self.saf or self.tf or self.rdf or self.cfst or self.cfid
                or self.cfin or self.af):
            raise ExecutionError(
                f"no subset semantics for fault kind {fault.kind!r}"
            )
        self._enforce()  # loaded content already expresses the defect

    @staticmethod
    def support(fault: Fault) -> "tuple[int, ...] | None":
        """Sorted word addresses the fault can influence, or ``None``
        when the fault kind has no subset semantics (user-defined
        models must take the full-fidelity fallback)."""
        if isinstance(fault, AddressDecoderFault):
            addrs = {fault.addr}
            if fault.other_addr is not None:
                addrs.add(fault.other_addr)
            return tuple(sorted(addrs))
        if isinstance(
            fault,
            (StuckAtFault, TransitionFault, ReadDisturbFault, CouplingFault),
        ):
            return tuple(sorted({cell.addr for cell in fault.cells}))
        return None

    # -- storage semantics (mirrors FaultyMemory._fetch/_store) --------
    def fetch(self, addr: int) -> int:
        af = self.af
        if af is not None:
            if af.addr != addr:
                return self.words[addr]
            code = af.kind_code
            if code == "none":
                return af.float_value & self.mask
            if code == "other":
                return self.words[af.other_addr]
            a = self.words[addr]
            b = self.words[af.other_addr]
            return (a | b) if af.wired_or else (a & b)
        rdf = self.rdf
        if rdf is not None and rdf.cell.addr == addr:
            value = self.words[addr]
            flip = 1 << rdf.cell.bit
            self.words[addr] = value ^ flip
            return value if rdf.deceptive else value ^ flip
        return self.words[addr]

    def store(self, addr: int, value: int) -> None:
        af = self.af
        if af is not None:
            if af.addr != addr:
                self.words[addr] = value
            elif af.kind_code == "other":
                self.words[af.other_addr] = value
            elif af.kind_code == "multi":
                self.words[addr] = value
                self.words[af.other_addr] = value
            # "none": write lost, no cell selected
            return
        old = self.words[addr]
        saf = self.saf
        tf = self.tf
        if saf is not None and saf.cell.addr == addr:
            bit = saf.cell.bit
            value = (value & ~(1 << bit)) | (saf.value << bit)
        elif tf is not None and tf.cell.addr == addr:
            bit = tf.cell.bit
            old_b = (old >> bit) & 1
            new_b = (value >> bit) & 1
            blocked = (
                (tf.rising and old_b == 0 and new_b == 1)
                or (not tf.rising and old_b == 1 and new_b == 0)
            )
            if blocked:
                value = (value & ~(1 << bit)) | (old_b << bit)
        self.words[addr] = value
        coupling = self.cfid or self.cfin
        if coupling is not None and coupling.aggressor.addr == addr:
            aggr_bit = coupling.aggressor.bit
            a_old = (old >> aggr_bit) & 1
            a_new = (value >> aggr_bit) & 1
            if a_old != a_new and (a_new == 1) == coupling.rising:
                victim = coupling.victim
                vw = self.words[victim.addr]
                if self.cfid is not None:
                    self.words[victim.addr] = (
                        vw & ~(1 << victim.bit)
                    ) | (self.cfid.forced_value << victim.bit)
                else:
                    self.words[victim.addr] = vw ^ (1 << victim.bit)
        if self.cfst is not None or saf is not None:
            self._enforce()

    def _enforce(self) -> None:
        saf = self.saf
        if saf is not None:
            cell = saf.cell
            self.words[cell.addr] = (
                self.words[cell.addr] & ~(1 << cell.bit)
            ) | (saf.value << cell.bit)
        cfst = self.cfst
        if cfst is not None:
            aggr = cfst.aggressor
            if ((self.words[aggr.addr] >> aggr.bit) & 1) == cfst.aggressor_value:
                victim = cfst.victim
                self.words[victim.addr] = (
                    self.words[victim.addr] & ~(1 << victim.bit)
                ) | (cfst.forced_value << victim.bit)


# ---------------------------------------------------------------------------
# Batched signature oracle
# ---------------------------------------------------------------------------


class _SignatureContext:
    """Shared per-(programs, content) state of one two-phase session.

    The two-phase session's verdict is ``predicted_signature !=
    test_signature``.  Both signatures are GF(2)-linear in the absorbed
    read streams, and a confined fault only perturbs reads of its
    support words, so:

    ``sig_faulty == sig_fault_free XOR delta`` where ``delta`` XORs the
    precomputed linear weight of every read *bit* the fault corrupts
    (:func:`repro.bist.misr.absorb_weight_table`).  The fault-free
    streams, weights and signature gap are computed once per context.

    Two evaluation paths share that state:

    * **Packed session kernels** (:meth:`verdicts` via
      :meth:`_packed_class`) answer a whole streaming SAF, TF,
      RDF/DRDF or intra-word CFst/CFid/CFin class of this geometry in a
      few packed passes — one per fault hypothesis placed at every cell
      (or in every word lane) at once, through both phases on one
      continuing state.  Each read's error plane is AND-ed with
      per-signature-bit weight planes and XOR-accumulated, so a whole
      class costs ``passes x reads x misr_width`` big-int operations.
      The planes are built lazily per block of :attr:`block_words`
      words (see :class:`_SessionBlock`).
    * **Per-fault subset replay** (:meth:`detect_pair`) covers
      everything else — AF and inter-word CF classes, materialized
      lists, classes of another geometry — at one O(op_count) replay
      of both phases over the fault's support words per fault; unknown
      fault kinds run the full two-phase session.

    Both paths answer the stream verdict from the same evaluation as
    the signature: the test-phase stream verdict is whether any read
    the fault can influence disagrees with its session-snapshot
    expected value, OR-ed with the recorded fault-free mismatch
    behaviour of the reads it cannot (non-empty only for ill-formed
    tests).
    """

    #: Words per packed-kernel block: bounds the weight planes a context
    #: holds to ``reads x misr_width`` planes of this many words.
    block_words = 1024

    def __init__(
        self,
        prediction: MarchProgram,
        test: MarchProgram,
        n_words: int,
        words: Sequence[int],
        misr_width: int,
        misr_seed: int,
    ) -> None:
        from ..bist.misr import (
            absorb_weight_table,
            fold_table,
            signature_of_stream,
        )
        from ..memory.model import Memory

        _check_words(n_words, words)
        self.prediction = prediction
        self.test = test
        self.n_words = n_words
        self.width = test.width
        self.words = [w & test.word_mask for w in words]
        self.misr_width = misr_width
        self.misr_seed = misr_seed

        # Fault-free read streams of both phases, run back to back on
        # one memory (a read-only prediction leaves it untouched, but a
        # user-supplied prediction with writes carries state over — the
        # controller does the same).
        memory = Memory(n_words, self.width)
        memory.load(self.words)
        prediction_raw: list[int] = []
        prediction_absorbed: list[int] = []

        def _sink_prediction(rec) -> None:
            prediction_raw.append(rec.raw)
            prediction_absorbed.append(rec.raw ^ rec.mask_value)

        execute_program(
            prediction, memory, snapshot=self.words, read_sink=_sink_prediction
        )
        test_raw: list[int] = []
        test_mismatch_addrs: set[int] = set()

        def _sink_test(rec) -> None:
            test_raw.append(rec.raw)
            if rec.mismatch:
                test_mismatch_addrs.add(rec.addr)

        execute_program(
            test, memory, snapshot=self.words, read_sink=_sink_test
        )
        self.prediction_raw = prediction_raw
        self.test_raw = test_raw
        # Addresses whose fault-free test-phase reads already mismatch
        # their expected values (empty for well-formed tests).  A fault
        # cannot influence reads outside its support, so these are its
        # stream verdict's contribution from everywhere else.
        self.test_mismatch_addrs = frozenset(test_mismatch_addrs)
        prediction_sig, n_pred = signature_of_stream(
            prediction_absorbed, width=misr_width, seed=misr_seed
        )
        test_sig, n_test = signature_of_stream(
            test_raw, width=misr_width, seed=misr_seed
        )
        # A fault is detected iff its two signature deltas differ by
        # something other than the fault-free signature gap (zero for a
        # well-formed transparent pair).
        self.fault_free_gap = prediction_sig ^ test_sig
        self.prediction_weights = absorb_weight_table(n_pred, misr_width)
        self.test_weights = absorb_weight_table(n_test, misr_width)
        self.fold_positions = fold_table(self.width, misr_width)
        self._block: _SessionBlock | None = None

    # -- class-level dispatch ------------------------------------------
    def verdicts(self, faults: Sequence[Fault]) -> PackedPairVerdicts:
        """Packed ``(stream, signature)`` verdicts of *faults*: the
        packed session kernels where they apply, the per-fault subset
        replay otherwise."""
        packed = self._packed_class(faults)
        if packed is not None:
            return packed
        return PackedPairVerdicts.from_pairs(
            self.detect_pair(fault) for fault in faults
        )

    def _packed_class(
        self, fault_class: Sequence[Fault]
    ) -> PackedPairVerdicts | None:
        """Both verdict planes of a class the packed session kernels
        cover, or ``None``.

        Covered: streaming SAF, TF, RDF/DRDF and intra-word CF classes
        at exactly this context's geometry.  Every such fault is
        confined to one word, so each block of words is evaluated on
        its own and the block planes are shifted into place.
        """
        n, w = self.n_words, self.width
        if not (
            isinstance(fault_class, FaultClass)
            and fault_class.n_words == n
            and fault_class.width == w
        ):
            return None
        lanes = False
        if isinstance(fault_class, StuckAtClass):
            hypotheses = [("SAF", 0), ("SAF", 1)]
        elif isinstance(fault_class, TransitionClass):
            hypotheses = [("TF", True), ("TF", False)]
        elif isinstance(fault_class, ReadDisturbClass):
            hypotheses = [("RDF", fault_class.deceptive)]
        elif isinstance(fault_class, IntraWordCFClass) and w > 1:
            lanes = True
            hypotheses = [
                (fault_class.cf_kind, *fault_class.pair_bits(pair), variant)
                for pair in range(fault_class.n_pairs)
                for variant in range(fault_class.variants)
            ]
        else:
            return None
        stream = [0] * len(hypotheses)
        signature = [0] * len(hypotheses)
        for lo in range(0, n, self.block_words):
            block = self._session_block(lo)
            run = block.coupling if lanes else block.cell
            offset = lo * w
            for i, hypothesis in enumerate(hypotheses):
                hit_stream, hit_signature = run(*hypothesis)
                stream[i] |= hit_stream << offset
                signature[i] |= hit_signature << offset
        geometry = {
            "stride": len(hypotheses),
            "slot_stride": w if lanes else 1,
        }
        return PackedPairVerdicts(
            PackedVerdicts(len(fault_class), stream, **geometry),
            PackedVerdicts(len(fault_class), signature, **geometry),
        )

    def _session_block(self, lo: int) -> "_SessionBlock":
        """The packed-kernel planes of the block starting at word *lo*.
        Only the most recent block is kept, so a context holds one
        block's planes however large the memory is; a memory of one
        block builds them once."""
        block = self._block
        if block is None or block.lo != lo:
            block = _SessionBlock(
                self, lo, min(lo + self.block_words, self.n_words)
            )
            self._block = block
        return block

    # -- per-fault dispatch --------------------------------------------
    def detect_pair(self, fault: Fault) -> tuple[bool, bool]:
        """``(stream_detected, signature_detected)`` of one session,
        bit-identical to :class:`~repro.bist.controller.TransparentBist`
        on the same fault, from the same single subset replay."""
        fault.validate(self.n_words, self.width)
        support = _SubsetSim.support(fault)
        if support is None:
            return self._fallback_pair(fault)
        sim = _SubsetSim(
            fault, {a: self.words[a] for a in support}, self.width
        )
        # The controller snapshots the faulty memory *before* the
        # prediction phase; the subset constructor has just applied the
        # static fault enforcement, so this is that snapshot restricted
        # to the support words.
        session_snap = dict(sim.words)
        delta, _ = self._phase_delta(
            self.prediction, sim, support, self.prediction_raw,
            self.prediction_weights,
        )
        test_delta, mismatched = self._phase_delta(
            self.test, sim, support, self.test_raw, self.test_weights,
            expected_snap=session_snap,
        )
        if not mismatched and self.test_mismatch_addrs:
            mismatched = any(
                addr not in support for addr in self.test_mismatch_addrs
            )
        return mismatched, (delta ^ test_delta) != self.fault_free_gap

    def _phase_delta(
        self,
        program: MarchProgram,
        sim: _SubsetSim,
        addrs: tuple[int, ...],
        fault_free_raw: Sequence[int],
        weights: Sequence[Sequence[int]],
        expected_snap: "dict[int, int] | None" = None,
    ) -> tuple[int, bool]:
        """Subset replay of one phase, XOR-accumulating the signature
        weights of every corrupted read bit.

        The fault-free stream index of the *j*-th read of address *a*
        in element *e* is ``base_e + position(a) * reads_e + j`` —
        exactly the order the interpreter emits reads in.

        With *expected_snap* (the session snapshot of the support
        words) the replay additionally reports whether any read
        disagreed with its snapshot-derived expected value — the
        compare-oracle stream verdict over the support.
        """
        delta = 0
        mismatched = False
        n_words = self.n_words
        fold_positions = self.fold_positions
        ascending = sorted(addrs)
        descending = ascending[::-1]
        fetch = sim.fetch
        store = sim.store
        base = 0
        for element in program.elements:
            steps = element.steps
            n_reads = element.n_reads
            if element.descending:
                ordered = descending
            else:
                ordered = ascending
            for addr in ordered:
                position = (n_words - 1 - addr) if element.descending else addr
                k = base + position * n_reads
                last_raw = 0
                last_mask = 0
                snap_word = (
                    expected_snap[addr] if expected_snap is not None else 0
                )
                for is_read, relative, mask, _ok in steps:
                    if is_read:
                        raw = fetch(addr)
                        if expected_snap is not None and not mismatched:
                            expected = (snap_word ^ mask) if relative else mask
                            mismatched = raw != expected
                        err = raw ^ fault_free_raw[k]
                        if err:
                            weight = weights[k]
                            bit = 0
                            while err:
                                if err & 1:
                                    delta ^= weight[fold_positions[bit]]
                                err >>= 1
                                bit += 1
                        last_raw, last_mask = raw, mask
                        k += 1
                    else:
                        value = (
                            (last_raw ^ last_mask ^ mask) if relative else mask
                        )
                        store(addr, value)
            base += n_reads * n_words
        return delta, mismatched

    # -- fallback ------------------------------------------------------
    def _fallback_pair(self, fault: Fault) -> tuple[bool, bool]:
        """Full-fidelity two-phase session for fault kinds without
        subset semantics (user-defined models)."""
        return session_verdict(
            execute_program, self.test, self.prediction, self.n_words,
            self.words, fault,
            misr_width=self.misr_width, misr_seed=self.misr_seed,
        )


class _SessionBlock:
    """Packed session-kernel planes of words ``[lo, hi)`` of one
    :class:`_SignatureContext`.

    Lane ``i`` of every plane (bits ``i*width`` up to ``(i+1)*width``)
    is word ``lo + i``.  Each phase keeps one step per program op,
    ``(is_read, relative, mask plane, weight planes, fault-free raw
    plane)``:

    * a read's *fault-free raw plane* is the block's packed fault-free
      state at that read (fault-free words never interact);
    * its *weight planes* ``W[m]`` have bit ``i*width + b`` set iff bit
      ``m`` of ``weights[k][fold[b]]`` is set, where ``k = base_e +
      position(lo + i) * reads_e + j`` is the stream index
      :meth:`_SignatureContext._phase_delta` gives this read of word
      ``lo + i``.

    A hypothesis pass (:meth:`cell`, :meth:`coupling`) runs both
    phases on one continuing state and XOR-accumulates ``err & W[m]``
    into ``misr_width`` delta planes, ``err`` being the hypothesis'
    read plane XOR the fault-free one.  The prediction and test deltas
    share the planes, so a hypothesis detects iff its delta differs
    from the fault-free signature gap.  Only word-confined hypotheses
    run here, so a block never needs any word outside it.
    """

    def __init__(self, ctx: _SignatureContext, lo: int, hi: int) -> None:
        from ..bist.misr import absorb_row_table

        n, w = ctx.n_words, ctx.width
        size = hi - lo
        misr_width = ctx.misr_width
        word_mask = ctx.test.word_mask
        self.lo = lo
        self.width = w
        self.size = size
        self.full = full = (1 << (size * w)) - 1
        self.packed = pack_words(ctx.words[lo:hi], w)
        self.lane0 = lane0 = replicate_mask(1, size, w)
        self._folds = [  # (shift, lane mask) of each lane-fold step
            (shift, replicate_mask((1 << (w - shift)) - 1, size, w))
            for shift in (1 << i for i in range((w - 1).bit_length()))
        ]
        # Input bit b folds onto register bit b % misr_width, so a row
        # of register-bit weights repeats every misr_width word bits.
        spread = sum(1 << start for start in range(0, w, misr_width))
        row_mask = (1 << misr_width) - 1
        state = snap = self.packed
        ff_mismatch = 0
        phases = []
        for testing, (program, stream) in enumerate((
            (ctx.prediction, ctx.prediction_raw),
            (ctx.test, ctx.test_raw),
        )):
            rows = absorb_row_table(len(stream), misr_width)
            steps = []
            base = 0
            for element in program.elements:
                n_reads = element.n_reads
                if element.descending:
                    k, stride = base + (n - 1 - lo) * n_reads, -n_reads
                else:
                    k, stride = base + lo * n_reads, n_reads
                last_raw = last_mask = 0
                for is_read, relative, mask, _ok in element.steps:
                    mrep = replicate_mask(mask, size, w)
                    if not is_read:
                        state = (
                            (last_raw ^ last_mask ^ mrep) if relative else mrep
                        )
                        steps.append((False, relative, mrep, None, None))
                        continue
                    block_rows = [
                        rows[index]
                        for index in range(k, k + stride * size, stride)
                    ]
                    weights = tuple(
                        pack_words(
                            [
                                (((row >> at) & row_mask) * spread) & word_mask
                                for row in block_rows
                            ],
                            w,
                        )
                        for at in range(0, misr_width * misr_width, misr_width)
                    )
                    steps.append((True, relative, mrep, weights, state))
                    if testing:
                        ff_mismatch |= state ^ (
                            (snap ^ mrep) if relative else mrep
                        )
                    last_raw, last_mask = state, mrep
                    k += 1
                base += n_reads * n
            phases.append(tuple(steps))
        self.phases = tuple(phases)

        gap = ctx.fault_free_gap
        bits = [(gap >> m) & 1 for m in range(misr_width)]
        self.gap_cells = [full if bit else 0 for bit in bits]
        self.gap_lanes = [lane0 if bit else 0 for bit in bits]
        # Fault-free test-phase mismatches the hypothesis cannot change:
        # for a cell, those of the other bits of its word and of every
        # other word; for a word lane, those of every other word.
        mismatch_addrs = ctx.test_mismatch_addrs
        if not mismatch_addrs:
            self.outside_cells = self.outside_lanes = 0
        elif len(mismatch_addrs) > 1 or not lo <= min(mismatch_addrs) < hi:
            self.outside_cells, self.outside_lanes = full, lane0
        else:
            offset = (min(mismatch_addrs) - lo) * w
            own = (ff_mismatch >> offset) & word_mask
            outside = full & ~(word_mask << offset)
            for bit in range(w):
                if own & ~(1 << bit):
                    outside |= 1 << (offset + bit)
            self.outside_cells = outside
            self.outside_lanes = lane0 & ~(1 << offset)

    def _run(self, state, store, disturb=None) -> tuple[list[int], int]:
        """One hypothesis pass over both phases from the loaded *state*
        (the session snapshot).  ``store(old, value)`` is the stored
        plane of a write (``None``: fault-free); *disturb* selects the
        read-disturb read (``True`` deceptive).  Returns the delta
        planes and the test-phase mismatch plane."""
        full = self.full
        snap = state
        delta = [0] * len(self.gap_cells)
        mismatch = 0
        last_raw = last_mask = 0
        for testing, steps in enumerate(self.phases):
            for is_read, relative, mrep, weights, fault_free in steps:
                if is_read:
                    raw = state
                    if disturb is not None:
                        if not disturb:
                            raw ^= full
                        state ^= full
                    err = raw ^ fault_free
                    if err:
                        delta = [d ^ (err & wp) for d, wp in zip(delta, weights)]
                    if testing:
                        mismatch |= raw ^ ((snap ^ mrep) if relative else mrep)
                    last_raw, last_mask = raw, mrep
                else:
                    value = (last_raw ^ last_mask ^ mrep) if relative else mrep
                    state = value if store is None else store(state, value)
        return delta, mismatch

    def cell(self, kind: str, variant) -> tuple[int, int]:
        """``(stream, signature)`` planes of a SAF (*variant* = stuck
        value), TF (rising) or RDF (deceptive) at every cell at once,
        one bit per cell."""
        store = disturb = None
        state = self.packed
        if kind == "SAF":
            forced = state = self.full if variant else 0

            def store(_old, _value):
                return forced
        elif kind == "TF":
            if variant:
                def store(old, value):
                    return old & value
            else:
                def store(old, value):
                    return old | value
        else:
            disturb = variant
        delta, mismatch = self._run(state, store, disturb)
        signature = 0
        for d, gap in zip(delta, self.gap_cells):
            signature |= d ^ gap
        return mismatch | self.outside_cells, signature

    def coupling(
        self, cf_kind: str, a_bit: int, v_bit: int, variant: int
    ) -> tuple[int, int]:
        """``(stream, signature)`` planes of one intra-word coupling
        fault (aggressor bit, victim bit, parameter variant) in every
        word lane at once, one bit per lane at the lane's bit 0 — the
        semantics of :meth:`_CampaignContext._packed_coupling_run`."""
        aggr = replicate_mask(1 << a_bit, self.size, self.width)
        shift = v_bit - a_bit
        x, y, rising = cf_variant_params(cf_kind, variant)

        def to_victim(bits: int) -> int:
            return (bits << shift) if shift >= 0 else (bits >> -shift)

        state = self.packed
        if cf_kind == "CFst":
            def store(_old, value):
                cond = to_victim((value & aggr) if y else (~value & aggr))
                return (value | cond) if x else (value & ~cond)

            state = store(None, state)  # loaded content expresses the defect
        else:
            def store(old, value):
                trig = to_victim(
                    (old ^ value) & (value if rising else ~value) & aggr
                )
                if cf_kind == "CFin":
                    return value ^ trig
                return (value | trig) if x else (value & ~trig)
        delta, mismatch = self._run(state, store)
        signature = 0
        for d, gap in zip(delta, self.gap_lanes):
            signature |= self._lane_fold(d, xor=True) ^ gap
        stream = self._lane_fold(mismatch, xor=False) | self.outside_lanes
        return stream, signature

    def _lane_fold(self, plane: int, *, xor: bool) -> int:
        """XOR- or OR-fold each word lane onto its bit 0, with the
        masked log-step fold of :meth:`_CampaignContext._lane_any`
        (exact for XOR too: the masks keep every step's two halves
        disjoint)."""
        for shift, mask in self._folds:
            if xor:
                plane ^= (plane >> shift) & mask
            else:
                plane |= (plane >> shift) & mask
        return plane & self.lane0


register_engine(BatchEngine())
