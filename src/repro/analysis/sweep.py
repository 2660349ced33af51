"""Word-size coverage sweeps: one symbolic evaluation vs N campaigns.

The paper's Table 3 sweeps word sizes; its Table 2 argues that
transparent-test fault coverage does not depend on the word size at
all.  Put together, a *coverage* width sweep over a fixed fault
population should not cost N campaigns: the ``symbolic`` engine
evaluates every fault exactly once — width-generically — and each
:class:`~repro.engine.SymbolicVerdict` is projected onto every swept
width with a cheap :meth:`~repro.engine.SymbolicVerdict.concretize`
table lookup against that width's seeded content.

The swept population is the standard universe (plus RDF/DRDF/AF)
enumerated once at ``universe_width`` (default: the smallest swept
width, so every fault fits every width) — the Table 2 scenario of one
defect population observed under different word organisations.  The
initial memory content is still drawn *per width* (a ``b``-bit word
memory holds ``b``-bit random content), which is exactly what
``concretize(width, words)`` parameterizes.

Two sweep drivers produce the identical row structure, so they can be
diffed and raced:

* :func:`symbolic_width_sweep` — the one-shot path: one
  ``detect_symbolic`` evaluation per fault class for the *whole*
  sweep, then one concretization per fault per width;
* :func:`campaign_width_sweep` — the classic comparison leg: one full
  ``run_campaign`` of the same universe per width through a concrete
  engine.

Rows are bit-identical between the two by construction (the symbolic
engine is equivalence-tested against ``reference``/``batch``), and the
one-shot path amortizes all replay work across the sweep —
``benchmarks/bench_table3_wordsize_sweep.py`` races the two legs and
gates the speedup.

Both drivers dispatch whole fault classes, never individual faults:
the population is streaming :class:`~repro.memory.injection.FaultClass`
descriptors, the symbolic leg prices each class as a handful of packed
family replays (:meth:`~repro.engine.symbolic._SymbolicCampaign.
_build_family`), and the campaign leg's ``run_campaign`` hands each
descriptor to the batch engine's class kernels
(:meth:`~repro.engine.Engine.detect_compare`).  The SAF
kernel accepts classes *narrower* than the campaign width, so the
sweep's cross-width scenario — one population enumerated at
``universe_width``, simulated at every swept width — stays on the
packed path for its largest class at every width.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..core.march import MarchTest
from ..engine import get_engine
from ..memory.injection import standard_fault_universe
from .coverage import _initial_words, compare_flow, run_campaign
from .reports import render_table

SWEEP_WIDTHS = (4, 8, 16, 32)


@dataclass(frozen=True)
class WidthSweepRow:
    """Coverage of one fault class at one swept width."""

    width: int
    class_name: str
    total: int
    detected: int

    @property
    def percent(self) -> float:
        return 100.0 * self.detected / self.total if self.total else 100.0


@dataclass
class WidthSweepReport:
    """One full word-size coverage sweep of a transparent march."""

    march_name: str
    n_words: int
    widths: tuple[int, ...]
    universe_width: int
    seed: int
    driver: str
    rows: list[WidthSweepRow] = field(default_factory=list)
    seconds: float = 0.0

    def row_map(self) -> dict[tuple[int, str], WidthSweepRow]:
        """``(width, class) -> row`` for cross-driver comparison."""
        return {(row.width, row.class_name): row for row in self.rows}

    def coverage_vector(self, width: int) -> dict[str, float]:
        return {
            row.class_name: row.percent
            for row in self.rows
            if row.width == width
        }

    @property
    def width_independent_classes(self) -> list[str]:
        """Classes whose coverage rate is identical at every swept
        width — the Table 2 width-independence claim, as data."""
        by_class: dict[str, set[float]] = {}
        for row in self.rows:
            by_class.setdefault(row.class_name, set()).add(
                round(row.percent, 6)
            )
        return sorted(
            name for name, rates in by_class.items() if len(rates) == 1
        )

    def render(self) -> str:
        classes = sorted({row.class_name for row in self.rows})
        rows = self.row_map()
        body = []
        for class_name in classes:
            line = [class_name]
            for width in self.widths:
                row = rows.get((width, class_name))
                line.append("-" if row is None else f"{row.percent:.2f}%")
            body.append(line)
        return render_table(
            ["Class"] + [f"b={w}" for w in self.widths],
            body,
            title=(
                f"Word-size coverage sweep of {self.march_name} "
                f"({self.n_words} words, universe at b="
                f"{self.universe_width}, driver: {self.driver}, "
                f"{self.seconds:.3f}s)"
            ),
        )


def _sweep_universe(
    n_words: int,
    universe_width: int,
    seed: int,
    max_inter_pairs: int | None,
):
    """The width-sweep fault population: described once (streaming
    class descriptors — nothing is materialized per fault), evaluated
    at every swept width by both drivers."""
    return standard_fault_universe(
        n_words,
        universe_width,
        max_inter_pairs=max_inter_pairs,
        rng=random.Random(seed),
        include_rdf=True,
        include_af=True,
    )


def symbolic_width_sweep(
    march: MarchTest,
    n_words: int,
    *,
    widths: Sequence[int] = SWEEP_WIDTHS,
    universe_width: int | None = None,
    seed: int = 0,
    max_inter_pairs: int | None = 8,
) -> WidthSweepReport:
    """One-shot coverage sweep: one symbolic evaluation per class plus
    one cheap concretization per ``(fault, width)``.

    Each :class:`~repro.engine.SymbolicVerdict` holds for every width
    its fault fits in, so adding a width to the sweep costs only the
    per-width random content and one table lookup per fault — not
    another campaign.  Within the evaluation, replays are additionally
    shared between faults of equal shape.
    """
    widths = tuple(sorted(widths))
    if universe_width is None:
        universe_width = min(widths)
    engine = get_engine("symbolic")
    report = WidthSweepReport(
        march.name, n_words, widths, universe_width, seed, driver="symbolic"
    )
    # The population is identical (and identically priced) in both
    # drivers, so ``seconds`` times the sweep evaluation itself.
    universe = _sweep_universe(n_words, universe_width, seed, max_inter_pairs)
    started = time.perf_counter()
    words_at = {
        width: _initial_words(n_words, width, None, seed) for width in widths
    }
    for class_name, faults in universe.items():
        verdicts = engine.detect_symbolic(march, n_words, faults)
        # The constant majority (detected for every width and content)
        # is counted once for the whole sweep; only genuinely
        # (width, words)-dependent verdicts are concretized per width.
        constant = sum(1 for verdict in verdicts if verdict.constant)
        variable = [
            verdict for verdict in verdicts if verdict.constant is None
        ]
        for width in widths:
            words = words_at[width]
            detected = constant + sum(
                1
                for verdict in variable
                if verdict.concretize(width, words)
            )
            report.rows.append(
                WidthSweepRow(width, class_name, len(faults), detected)
            )
    report.seconds = time.perf_counter() - started
    return report


def campaign_width_sweep(
    march: MarchTest,
    n_words: int,
    *,
    widths: Sequence[int] = SWEEP_WIDTHS,
    universe_width: int | None = None,
    seed: int = 0,
    max_inter_pairs: int | None = 8,
    engine: str = "batch",
) -> WidthSweepReport:
    """Classic comparison leg: one concrete campaign of the same fault
    population per width."""
    widths = tuple(sorted(widths))
    if universe_width is None:
        universe_width = min(widths)
    report = WidthSweepReport(
        march.name,
        n_words,
        widths,
        universe_width,
        seed,
        driver=f"campaign/{engine}",
    )
    universe = _sweep_universe(n_words, universe_width, seed, max_inter_pairs)
    started = time.perf_counter()
    for width in widths:
        words = _initial_words(n_words, width, None, seed)
        flow = compare_flow(march, n_words, width, initial=words)
        campaign = run_campaign(
            flow,
            universe,
            flow_name=f"{march.name} b={width}",
            engine=engine,
        )
        for class_name, coverage in campaign.classes.items():
            report.rows.append(
                WidthSweepRow(
                    width, class_name, coverage.total, coverage.detected
                )
            )
    report.seconds = time.perf_counter() - started
    return report
