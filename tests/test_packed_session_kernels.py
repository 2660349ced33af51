"""Packed session kernels of the batch engine's two-phase session
oracle.

:meth:`~repro.engine.Engine.detect_session` answers streaming SAF, TF,
RDF/DRDF and intra-word CF classes in packed passes over
per-signature-bit weight planes.  Every test here diffs those packed
``(stream, signature)`` verdicts against the per-fault subset replay
(``_SignatureContext.detect_pair``) and, at small sizes,
against the reference engine's full two-phase session per fault:
across word widths (1, non-power-of-two, > 64), MISR widths narrower
and wider than the word, several catalog tests, non-transparent and
writing prediction programs, multi-block memories, and sharded
campaigns.
"""

import random

import pytest

from repro.analysis.coverage import aliasing_flow, run_campaign, signature_flow
from repro.bist.misr import absorb_row_table, absorb_weight_table
from repro.core.notation import parse_march
from repro.core.signature import prediction_test
from repro.core.twm import twm_transform
from repro.engine import (
    CampaignRunner,
    ExecutionError,
    PackedPairVerdicts,
    PackedVerdicts,
    compile_march,
    get_engine,
)
from repro.engine import batch as batch_module
from repro.library import catalog
from repro.memory.injection import (
    AddressFaultClass,
    InterWordCFClass,
    IntraWordCFClass,
    ReadDisturbClass,
    StuckAtClass,
    TransitionClass,
    standard_fault_universe,
)


def _words(n_words, width, seed):
    rng = random.Random(seed)
    return [rng.randrange(1 << width) for _ in range(n_words)]


def _twm(name, width):
    """TWMarch of a catalog test at *width*.  The transformation needs a
    power-of-two width, so other widths compile the next power of two's
    TWMarch (its masks are width-polymorphic)."""
    generated = 1
    while generated < width:
        generated <<= 1
    return twm_transform(catalog.get(name), generated)


def _context(test, prediction, n_words, width, words, misr_width=16):
    return batch_module._SignatureContext(
        compile_march(prediction, width),
        compile_march(test, width),
        n_words,
        words,
        misr_width,
        0,
    )


def _classes(n_words, width, cf_kinds=("CFst", "CFid", "CFin")):
    out = {
        "SAF": StuckAtClass(n_words, width),
        "TF": TransitionClass(n_words, width),
        "RDF": ReadDisturbClass(n_words, width, deceptive=False),
        "DRDF": ReadDisturbClass(n_words, width, deceptive=True),
    }
    if width > 1:
        for kind in cf_kinds:
            out[kind] = IntraWordCFClass(n_words, width, kind)
    return out


def _assert_packed_equals_per_fault(ctx, classes, label):
    for cname, fc in classes.items():
        packed = ctx._packed_class(fc)
        assert packed is not None, (label, cname)
        assert isinstance(packed, PackedPairVerdicts)
        assert len(packed) == len(fc)
        assert packed == [ctx.detect_pair(f) for f in fc], (label, cname)
        assert isinstance(packed.signature, PackedVerdicts)


class TestRowTable:
    @pytest.mark.parametrize("misr_width", [1, 2, 3, 5, 16, 32])
    def test_rows_transpose_weights(self, misr_width):
        n = 37
        weights = absorb_weight_table(n, misr_width)
        rows = absorb_row_table(n, misr_width)
        for k in range(n):
            for m in range(misr_width):
                expected = sum(
                    ((weights[k][c] >> m) & 1) << c for c in range(misr_width)
                )
                row = (rows[k] >> (m * misr_width)) & ((1 << misr_width) - 1)
                assert row == expected, (k, m)


class TestPackedMatchesPerFault:
    """Packed class verdicts == per-fault subset replay, both oracles."""

    @pytest.mark.parametrize(
        "width, misr_width",
        [(1, 16), (3, 5), (3, 1), (5, 3), (5, 32), (8, 16), (8, 3), (8, 32),
         (4, 1)],
    )
    def test_widths_and_misr_folding(self, width, misr_width):
        twm = _twm("March C-", width)
        n = 5
        words = _words(n, width, seed=width * 100 + misr_width)
        ctx = _context(
            twm.twmarch, twm.prediction, n, width, words, misr_width
        )
        _assert_packed_equals_per_fault(
            ctx, _classes(n, width), (width, misr_width)
        )

    def test_width_beyond_machine_words(self):
        # Width 65 folds into a 16- and a 32-bit MISR.  One CF kind in
        # one word, pair verdicts only, keeps the 65 * 64 bit-pair
        # passes affordable.
        twm = _twm("March C-", 65)
        for misr_width in (16, 32):
            words = _words(2, 65, seed=misr_width)
            ctx = _context(
                twm.twmarch, twm.prediction, 2, 65, words, misr_width
            )
            _assert_packed_equals_per_fault(
                ctx, _classes(2, 65, cf_kinds=()), misr_width
            )
        ctx = _context(
            twm.twmarch, twm.prediction, 1, 65, _words(1, 65, seed=1), 32
        )
        fc = IntraWordCFClass(1, 65, "CFin")
        assert ctx.verdicts(fc) == [ctx.detect_pair(f) for f in fc]

    @pytest.mark.parametrize("name", ["MATS+", "March X", "March U", "March LR"])
    def test_catalog_tests(self, name):
        twm = _twm(name, 4)
        words = _words(4, 4, seed=len(name))
        ctx = _context(twm.twmarch, twm.prediction, 4, 4, words)
        _assert_packed_equals_per_fault(ctx, _classes(4, 4), name)

    def test_ascending_and_descending_only_elements(self):
        for notation in (
            "⇑(rc,w~c,r~c);⇑(r~c,wc,rc)",
            "⇓(rc,w~c,r~c);⇓(r~c,wc,rc)",
            "⇓(rc,w~c);⇑(r~c,wc);⇓(rc)",
        ):
            test = parse_march(notation, name="directions")
            assert test.is_transparent_form
            words = _words(6, 4, seed=7)
            ctx = _context(test, prediction_test(test), 6, 4, words)
            _assert_packed_equals_per_fault(ctx, _classes(6, 4), notation)

    def test_non_transparent_pair(self):
        # A derivable pair whose fault-free session already disagrees:
        # the raw (non-transparent) March C- against the TWMarch's
        # prediction has a non-zero signature gap, and an ill-formed
        # test adds fault-free test-phase mismatches at one address
        # (the per-bit correction) or at several.
        # ``⇕(r0)`` on a word with one set bit is the case where a
        # fault at that very bit (stuck-at-0) clears the only mismatch.
        # Blocks of 2 words put the mismatching word in every position
        # relative to the block being evaluated.
        twm = _twm("March C-", 4)
        raw = catalog.get("March C-")
        ill = parse_march("⇕(r0);⇑(w1,r1)", name="ill-formed")
        read_only = parse_march("⇕(r0)", name="read-only")
        cases = [
            (raw, _words(5, 4, seed=1)),
            (ill, _words(5, 4, seed=2)),
            (ill, [0, 0, 0b0100, 0, 0]),
            (ill, [0, 0b0110, 0, 0, 0]),
            (read_only, [0, 0, 0b0100, 0, 0]),
            (read_only, [0, 0b0011, 0, 0, 0b1000]),
        ]
        for test, words in cases:
            for misr_width, block_words in ((3, 1024), (16, 2)):
                ctx = _context(
                    test, twm.prediction, 5, 4, words, misr_width
                )
                ctx.block_words = block_words
                assert ctx.fault_free_gap != 0
                if test is not raw:
                    assert ctx.test_mismatch_addrs
                _assert_packed_equals_per_fault(
                    ctx, _classes(5, 4), (test.name, words, misr_width)
                )

    def test_prediction_program_that_writes(self):
        # A prediction with writes hands the test phase changed content:
        # the packed pass must carry one state through both phases.
        twm = _twm("March C-", 4)
        for prediction in (
            twm.twmarch,
            parse_march("⇑(rc,w~c)", name="inverting"),
            parse_march("⇓(rc,w~c,r~c)", name="inverting-down"),
        ):
            words = _words(6, 4, seed=3)
            ctx = _context(twm.twmarch, prediction, 6, 4, words)
            _assert_packed_equals_per_fault(
                ctx, _classes(6, 4), prediction.name
            )


class TestLaneFold:
    @pytest.mark.parametrize("width", [2, 3, 5, 8, 65])
    def test_fold_is_lane_parity_and_lane_any(self, width):
        twm = _twm("March C-", width)
        n = 6
        ctx = _context(
            twm.twmarch, twm.prediction, n, width, _words(n, width, seed=0)
        )
        block = ctx._session_block(0)
        rng = random.Random(width)
        mask = (1 << width) - 1
        for _ in range(20):
            lanes = [rng.choice((0, 1 << rng.randrange(width),
                                 rng.randrange(1 << width)))
                     for _ in range(n)]
            plane = sum(word << (i * width) for i, word in enumerate(lanes))
            parity = sum(
                (bin(word & mask).count("1") & 1) << (i * width)
                for i, word in enumerate(lanes)
            )
            any_bit = sum(
                int(word != 0) << (i * width) for i, word in enumerate(lanes)
            )
            assert block._lane_fold(plane, xor=True) == parity
            assert block._lane_fold(plane, xor=False) == any_bit


class TestBlocks:
    def test_blocks_match_one_block(self):
        twm = _twm("March C-", 4)
        words = _words(7, 4, seed=11)
        whole = _context(twm.twmarch, twm.prediction, 7, 4, words)
        blocked = _context(twm.twmarch, twm.prediction, 7, 4, words)
        blocked.block_words = 3  # blocks of 3, 3 and 1 words
        for cname, fc in _classes(7, 4).items():
            assert blocked.verdicts(fc) == whole.verdicts(fc), cname

    def test_planes_are_bounded_by_the_block(self):
        twm = _twm("March C-", 8)
        n, block_words, misr_width = 40, 8, 16
        ctx = _context(
            twm.twmarch, twm.prediction, n, 8, _words(n, 8, seed=2),
            misr_width,
        )
        ctx.block_words = block_words
        ctx.verdicts(TransitionClass(n, 8))
        block = ctx._block
        assert block.size == block_words
        planes = [
            plane
            for steps in block.phases
            for _read, _rel, _mask, weights, _ff in steps
            if weights is not None
            for plane in weights
        ]
        reads = len(ctx.prediction_raw) // n + len(ctx.test_raw) // n
        assert len(planes) == reads * misr_width
        assert max(p.bit_length() for p in planes) <= block_words * 8

    def test_single_block_planes_built_once(self):
        twm = _twm("March C-", 4)
        ctx = _context(
            twm.twmarch, twm.prediction, 6, 4, _words(6, 4, seed=0)
        )
        assert ctx._block is None  # lazy: no class asked for yet
        ctx.verdicts(StuckAtClass(6, 4))
        block = ctx._block
        ctx.verdicts(IntraWordCFClass(6, 4, "CFid"))
        assert ctx._block is block


class TestRouting:
    def setup_method(self):
        self.twm = _twm("March C-", 4)
        self.n, self.w = 5, 4
        self.words = _words(self.n, self.w, seed=9)
        self.ctx = _context(
            self.twm.twmarch, self.twm.prediction, self.n, self.w,
            self.words,
        )

    def test_uncovered_classes_take_the_per_fault_path(self):
        n, w = self.n, self.w
        uncovered = [
            StuckAtClass(n, 2),  # narrower SAF class
            TransitionClass(n, 2),
            AddressFaultClass(n),
            InterWordCFClass(n, w, "CFid", max_pairs=6, rng=random.Random(1)),
            list(TransitionClass(n, w)),  # materialized list
        ]
        for fc in uncovered:
            assert self.ctx._packed_class(fc) is None
            assert self.ctx.verdicts(fc) == [
                self.ctx.detect_pair(f) for f in fc
            ]

    def test_engine_entry_points_match_reference(self):
        batch = get_engine("batch")
        reference = get_engine("reference")
        args = (
            self.twm.twmarch, self.twm.prediction, self.n, self.w, self.words
        )
        classes = _classes(self.n, self.w)
        classes["narrow SAF"] = StuckAtClass(self.n, 2)
        for misr_width in (3, 16):
            for cname, fc in classes.items():
                faults = list(fc)
                pairs = batch.detect_session(
                    *args, fc, misr_width=misr_width
                )
                assert pairs == reference.detect_session(
                    *args, faults, misr_width=misr_width
                ), (cname, misr_width)

    def test_prebuilt_context(self):
        batch = get_engine("batch")
        args = (
            self.twm.twmarch, self.twm.prediction, self.n, self.w, self.words
        )
        ctx = batch.build_session_context(*args)
        fc = IntraWordCFClass(self.n, self.w, "CFst")
        assert batch.detect_session(
            *args, fc, context=ctx
        ) == [ctx.detect_pair(f) for f in fc]
        assert ctx._block is not None
        other = batch.build_session_context(*args, misr_width=8)
        with pytest.raises(ExecutionError):
            batch.detect_session(*args, fc, context=other)

    def test_underivable_programs_fail_like_reference(self):
        test = parse_march("⇑(w~c,r~c)", name="underivable")
        prediction = parse_march("⇑(rc)", name="underivable-SP")
        fc = StuckAtClass(2, 4)
        words = _words(2, 4, seed=0)
        for engine in ("batch", "reference"):
            with pytest.raises(ExecutionError):
                get_engine(engine).detect_session(
                    test, prediction, 2, 4, words, fc
                )


class TestCampaigns:
    def test_sharded_runner_matches_inline(self):
        twm = _twm("March C-", 4)
        n, w = 6, 4

        def universe(streaming):
            return standard_fault_universe(
                n, w, max_inter_pairs=6, rng=random.Random(2),
                include_rdf=True, include_af=True, streaming=streaming,
            )

        for make_flow in (signature_flow, aliasing_flow):
            flow = make_flow(
                twm.twmarch, twm.prediction, n, w, misr_width=3, seed=4
            )
            inline = run_campaign(flow, universe(True), engine="batch")
            with CampaignRunner("batch", jobs=2, min_chunk=8) as runner:
                for streaming in (True, False):
                    sharded = run_campaign(
                        flow, universe(streaming), runner=runner
                    )
                    assert sharded.classes == inline.classes, (
                        make_flow.__name__, streaming
                    )
                    assert sharded.undetected == inline.undetected
            reference = run_campaign(
                flow, universe(False), engine="reference"
            )
            assert reference.classes == inline.classes
