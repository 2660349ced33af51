"""Width-generic symbolic engine: equivalence, properties, Table 2.

The symbolic engine's contract is the same bit-identical campaign
behaviour as every other backend, plus one more guarantee the concrete
engines cannot give: a fault's verdict is evaluated *once*, without a
width, and concretizing it at any width the fault fits in must equal
the reference engine's verdict at that width.  The hypothesis suite
checks exactly that over random catalog faults and widths in
{4, 8, 16, 32}.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.coverage import compare_flow, run_campaign, signature_flow
from repro.analysis.table2 import table2_report
from repro.core.notation import parse_march
from repro.core.twm import twm_transform
from repro.engine import (
    ExecutionError,
    PackedVerdicts,
    SymbolicEngine,
    SymbolicProgram,
    compile_march,
    compile_symbolic,
    engine_names,
    get_engine,
)
from repro.library import catalog
from repro.memory.faults import (
    AddressDecoderFault,
    Cell,
    Fault,
    IdempotentCouplingFault,
    InversionCouplingFault,
    ReadDisturbFault,
    StateCouplingFault,
    StuckAtFault,
    TransitionFault,
)
from repro.memory.injection import (
    enumerate_address_faults,
    enumerate_read_disturb,
    standard_fault_universe,
)

N_WORDS = 3
WIDTHS = (4, 8, 16, 32)

TWM = {
    width: twm_transform(catalog.get("March C-"), width).twmarch
    for width in WIDTHS
}


def small_universe(n_words, width, seed):
    universe = standard_fault_universe(
        n_words, width, max_inter_pairs=6, rng=random.Random(seed)
    )
    universe["RDF"] = list(enumerate_read_disturb(n_words, width))
    universe["AF"] = list(enumerate_address_faults(n_words))
    return universe


def assert_symbolic_identical(test, n_words, width, seed, derive_writes=True):
    universe = small_universe(n_words, width, seed)
    flow = compare_flow(
        test, n_words, width, initial=None, seed=seed, derive_writes=derive_writes
    )
    ref = run_campaign(flow, universe, engine="reference")
    sym = run_campaign(flow, universe, engine="symbolic")
    assert ref.coverage_vector() == sym.coverage_vector()
    for name in universe:
        assert ref.classes[name].detected == sym.classes[name].detected, name
    assert ref.undetected == sym.undetected


class TestRegistry:
    def test_symbolic_registered(self):
        assert "symbolic" in engine_names()
        assert isinstance(get_engine("symbolic"), SymbolicEngine)

    def test_unknown_engine_error_names_choices(self):
        # Regression: the error must spell out every registered engine
        # so an unknown --engine spec is self-explanatory.
        with pytest.raises(ValueError) as excinfo:
            get_engine("warp-core")
        message = str(excinfo.value)
        for name in engine_names():
            assert name in message

    def test_concrete_engines_refuse_symbolic_verdicts(self):
        test = TWM[4]
        fault = StuckAtFault(Cell(0, 0), 1)
        for name in ("reference", "batch"):
            with pytest.raises(ExecutionError, match="symbolic"):
                get_engine(name).detect_symbolic(test, N_WORDS, [fault])


class TestSymbolicProgramIR:
    def test_compile_symbolic_cached(self):
        test = catalog.get("March U")
        assert compile_symbolic(test) is compile_symbolic(test)

    def test_structure_matches_concrete(self):
        test = TWM[8]
        sym = compile_symbolic(test)
        concrete = compile_march(test, 8)
        assert sym.op_count == concrete.op_count
        assert sym.n_reads == concrete.n_reads
        assert sym.derivable == concrete.derivable
        assert sym.at_width(8) is concrete

    def test_bit_plan_resolves_like_masks(self):
        sym = compile_symbolic(TWM[8])
        concrete = compile_march(TWM[8], 8)
        for j in range(8):
            plan = sym.bit_plan(j)
            for element, plan_element in zip(concrete.elements, plan):
                for (_, _, mask, _), (_, _, bit, _) in zip(
                    element.steps, plan_element
                ):
                    assert (mask >> j) & 1 == bit

    def test_bit_signature_shared_between_equal_positions(self):
        # D1 has period 2, so positions 0 and 2 look identical to a
        # test whose only checker background is D1.
        test = parse_march("⇕(rc,wc^D1); ⇕(r(c^D1),wc); ⇕(rc)", name="d1")
        sym = compile_symbolic(test)
        assert sym.bit_signature(0) == sym.bit_signature(2)
        assert sym.bit_signature(0) != sym.bit_signature(1)

    def test_min_width(self):
        assert compile_symbolic(TWM[8]).min_width == 1


class TestCampaignEquivalence:
    """Bit-identical coverage against the reference interpreter."""

    @pytest.mark.parametrize(
        "name", ["March C-", "March U", "March SS", "March LR"]
    )
    def test_transparent_catalog(self, name):
        twm = twm_transform(catalog.get(name), 4)
        assert_symbolic_identical(
            twm.twmarch, N_WORDS, 4, seed=sum(map(ord, name)) % 997
        )

    @pytest.mark.parametrize("name", ["MATS+", "March C-", "March U"])
    def test_solid_catalog(self, name):
        assert_symbolic_identical(catalog.get(name), N_WORDS, 4, seed=13)

    @pytest.mark.parametrize("width", [1, 2, 8, 16])
    def test_word_widths(self, width):
        test = (
            catalog.get("March C-")
            if width == 1
            else twm_transform(catalog.get("March C-"), width).twmarch
        )
        assert_symbolic_identical(test, N_WORDS, width, seed=width)

    def test_oracle_write_mode(self):
        assert_symbolic_identical(TWM[4], N_WORDS, 4, seed=7, derive_writes=False)

    def test_ill_formed_test_matches_interpreter(self):
        # Fault-free mismatches exercise the symbolic baseline tables.
        ill = parse_march("⇑(r1); ⇓(r0,w0)", name="ill")
        assert_symbolic_identical(ill, N_WORDS, 4, seed=23)

    def test_transparent_ill_formed(self):
        ill = parse_march("⇕(rc^1,wc); ⇕(rc)", name="ill-t")
        assert_symbolic_identical(ill, N_WORDS, 4, seed=29)

    def test_underivable_falls_back_to_interpreter(self):
        tricky = parse_march("⇕(rc^1,wc); ⇕(wc)", name="tricky")
        faults = [StuckAtFault(Cell(0, 0), 1), StuckAtFault(Cell(1, 2), 0)]
        verdicts = {
            engine: get_engine(engine).detect_compare(tricky, 2, 4, [0, 0], faults)
            for engine in ("reference", "symbolic")
        }
        assert verdicts["reference"] == verdicts["symbolic"]

    def test_jobs_identical(self):
        universe = small_universe(4, 4, 19)
        flow = compare_flow(TWM[4], 4, 4, initial=None, seed=19)
        seq = run_campaign(flow, universe, engine="symbolic", jobs=1)
        par = run_campaign(flow, universe, engine="symbolic", jobs=4)
        assert seq.coverage_vector() == par.coverage_vector()
        assert seq.undetected == par.undetected
        assert seq.jobs == 1 and par.jobs == 4


class TestWidthGenericVerdicts:
    """One evaluation answers every width the fault fits in."""

    def engine(self):
        return get_engine("symbolic")

    def test_cell_verdicts_width_independent(self):
        test = TWM[32]
        universe = small_universe(N_WORDS, 4, 3)
        faults = [
            fault
            for name, class_faults in universe.items()
            if name != "AF"
            for fault in class_faults
        ]
        verdicts = self.engine().detect_symbolic(test, N_WORDS, faults)
        assert all(v.width_independent for v in verdicts)
        rng = random.Random(5)
        low = [rng.randrange(1 << 4) for _ in range(N_WORDS)]
        for verdict in verdicts:
            # Same low bits, growing width: the verdict cannot change.
            results = {
                width: verdict.concretize(width, low) for width in WIDTHS
            }
            assert len(set(results.values())) == 1, verdict.fault

    def test_af_verdicts_are_word_wide(self):
        verdicts = self.engine().detect_symbolic(
            TWM[8], N_WORDS, list(enumerate_address_faults(N_WORDS))
        )
        assert all(not v.width_independent for v in verdicts)

    def test_verdict_min_width(self):
        fault = StuckAtFault(Cell(0, 6), 1)
        (verdict,) = self.engine().detect_symbolic(TWM[8], N_WORDS, [fault])
        assert verdict.min_width == 7
        with pytest.raises(ValueError, match="bit"):
            verdict.concretize(4, [0, 0, 0])

    def test_underivable_has_no_symbolic_verdicts(self):
        bad = parse_march("⇕(rc^1,wc); ⇕(wc)", name="tricky2")
        with pytest.raises(ExecutionError, match="underivable"):
            self.engine().detect_symbolic(
                bad, 2, [StuckAtFault(Cell(0, 0), 1)]
            )

    def test_unknown_fault_kind(self):
        class WeirdFault(Fault):
            @property
            def cells(self):
                return ()

            @property
            def kind(self):
                return "WEIRD"

            def describe(self):
                return "WEIRD"

            def validate(self, n_words, width):
                pass

        # Symbolically: a loud error.  Concretely: the same
        # full-fidelity fallback as the batch engine.
        with pytest.raises(ExecutionError, match="no symbolic semantics"):
            self.engine().detect_symbolic(TWM[4], N_WORDS, [WeirdFault()])
        verdicts = self.engine().detect_compare(
            TWM[4], N_WORDS, 4, [0] * N_WORDS, [WeirdFault()]
        )
        assert verdicts == [False]

    def test_rejects_width_lowered_program(self):
        program = compile_march(TWM[4], 4)
        with pytest.raises(ExecutionError, match="width-lowered"):
            self.engine().detect_symbolic(program, N_WORDS, [])

    def test_symbolic_program_passthrough(self):
        sym = compile_symbolic(TWM[4])
        assert isinstance(sym, SymbolicProgram)
        fault = StuckAtFault(Cell(0, 0), 1)
        a = self.engine().detect_compare(sym, N_WORDS, 4, [0] * N_WORDS, [fault])
        b = self.engine().detect_compare(
            TWM[4], N_WORDS, 4, [0] * N_WORDS, [fault]
        )
        assert a == b


class TestSignatureModesRejected:
    """MISR folding is width-concrete; symbolic campaigns must say so."""

    def test_signature_batch_raises(self):
        twm = twm_transform(catalog.get("March C-"), 4)
        with pytest.raises(ExecutionError, match="width-concrete"):
            get_engine("symbolic").detect_session(
                twm.twmarch, twm.prediction, N_WORDS, 4, [0] * N_WORDS, []
            ).signature

    def test_aliasing_batch_raises(self):
        twm = twm_transform(catalog.get("March C-"), 4)
        with pytest.raises(ExecutionError, match="width-concrete"):
            get_engine("symbolic").detect_session(
                twm.twmarch, twm.prediction, N_WORDS, 4, [0] * N_WORDS, []
            )

    def test_signature_campaign_raises_cleanly(self):
        twm = twm_transform(catalog.get("March C-"), 4)
        flow = signature_flow(
            twm.twmarch, twm.prediction, N_WORDS, 4, initial=0
        )
        universe = {"SAF": small_universe(N_WORDS, 4, 0)["SAF"]}
        with pytest.raises(ExecutionError, match="signature"):
            run_campaign(flow, universe, engine="symbolic")


# ---------------------------------------------------------------------------
# Hypothesis property suite
# ---------------------------------------------------------------------------


@st.composite
def random_fault(draw, n_words, width):
    cell = st.builds(
        Cell,
        st.integers(0, n_words - 1),
        st.integers(0, width - 1),
    )
    kind = draw(
        st.sampled_from(
            ("SAF", "TF", "RDF", "DRDF", "CFst", "CFid", "CFin", "AF")
        )
    )
    if kind == "SAF":
        return StuckAtFault(draw(cell), draw(st.sampled_from((0, 1))))
    if kind == "TF":
        return TransitionFault(draw(cell), rising=draw(st.booleans()))
    if kind in ("RDF", "DRDF"):
        return ReadDisturbFault(draw(cell), deceptive=kind == "DRDF")
    if kind == "AF":
        addr = draw(st.integers(0, n_words - 1))
        code = draw(st.sampled_from(("none", "other", "multi")))
        if code == "none":
            return AddressDecoderFault(addr, "none")
        other = draw(
            st.integers(0, n_words - 1).filter(lambda a: a != addr)
        )
        return AddressDecoderFault(
            addr, code, other, wired_or=draw(st.booleans())
        )
    aggressor = draw(cell)
    victim = draw(cell.filter(lambda c: c != aggressor))
    if kind == "CFst":
        return StateCouplingFault(
            aggressor,
            victim,
            draw(st.sampled_from((0, 1))),
            draw(st.sampled_from((0, 1))),
        )
    if kind == "CFid":
        return IdempotentCouplingFault(
            aggressor,
            victim,
            rising=draw(st.booleans()),
            forced_value=draw(st.sampled_from((0, 1))),
        )
    return InversionCouplingFault(aggressor, victim, rising=draw(st.booleans()))


class TestHypothesisEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_concretized_verdict_equals_reference(self, data):
        """For random catalog faults and widths in {4, 8, 16, 32}, the
        symbolic verdict concretized at width w equals the reference
        engine verdict at width w."""
        width = data.draw(st.sampled_from(WIDTHS), label="width")
        n_words = data.draw(st.integers(2, 5), label="n_words")
        words = data.draw(
            st.lists(
                st.integers(0, (1 << width) - 1),
                min_size=n_words,
                max_size=n_words,
            ),
            label="words",
        )
        fault = data.draw(random_fault(n_words, width), label="fault")
        test = data.draw(
            st.sampled_from((TWM[width], catalog.get("March C-"))),
            label="test",
        )
        (verdict,) = get_engine("symbolic").detect_symbolic(
            test, n_words, [fault]
        )
        (expected,) = get_engine("reference").detect_compare(
            test, n_words, width, words, [fault]
        )
        assert verdict.concretize(width, words) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_evaluation_covers_every_width(self, data):
        """A single symbolic evaluation of a fixed symbolic test agrees
        with the reference engine at every swept width."""
        n_words = data.draw(st.integers(2, 4), label="n_words")
        fault = data.draw(random_fault(n_words, min(WIDTHS)), label="fault")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        test = TWM[max(WIDTHS)]
        (verdict,) = get_engine("symbolic").detect_symbolic(
            test, n_words, [fault]
        )
        rng = random.Random(seed)
        for width in WIDTHS:
            words = [rng.randrange(1 << width) for _ in range(n_words)]
            (expected,) = get_engine("reference").detect_compare(
                test, n_words, width, words, [fault]
            )
            assert verdict.concretize(width, words) == expected, width


class TestTable2:
    def test_report_matches_concrete_engines(self):
        report = table2_report(
            "March C-",
            widths=(4, 8),
            n_words=3,
            seed=1,
            max_inter_pairs=4,
        )
        assert report.ok
        assert report.total_faults > 0
        # Cell-confined classes keep their coverage rate across widths
        # only when the universe scales uniformly; the single-cell
        # classes always do.
        assert "SAF" in report.width_independent_classes
        rendered = report.render()
        assert "Table 2" in rendered and "vs reference" in rendered

    def test_report_flags_disagreement(self):
        # A deliberately lying engine must be caught by the diff.
        class Liar(SymbolicEngine):
            name = "reference"  # masquerade as the reference column

            def detect_compare(self, test, n_words, width, words, faults, **kw):
                return PackedVerdicts.from_bools([False] * len(faults))

        from repro.engine import register_engine

        real = get_engine("reference")
        register_engine(Liar())
        try:
            report = table2_report(
                "March C-", widths=(4,), n_words=2, max_inter_pairs=2,
                engines=("reference",),
            )
            assert not report.ok
            assert any(
                row.mismatches["reference"] for row in report.rows
            )
        finally:
            register_engine(real)
