"""Table 2 regeneration: symbolic coverage rows vs concrete engines.

The paper's Table 2 argument is symbolic — transparent-test fault
coverage is established over per-bit masks without committing to a
word width.  This module regenerates those rows with the width-generic
``symbolic`` engine (one evaluation per fault shape, valid for every
width at once) and *diffs every single verdict* against the concrete
``reference``/``batch`` engines at a sweep of widths, turning the
symbolic claim into a checked cross-engine property
(``python -m repro table2``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.march import MarchTest
from ..core.twm import twm_transform
from ..engine import get_engine
from ..library import catalog
from ..memory.injection import standard_fault_universe
from .coverage import _initial_words
from .reports import render_table

DEFAULT_WIDTHS = (4, 8, 16, 32)


@dataclass(frozen=True)
class Table2Row:
    """One fault class at one concrete width.

    ``detected`` counts the symbolic verdicts concretized at the row's
    width; ``mismatches`` maps each concrete engine to the number of
    per-fault verdicts that disagree with the symbolic ones (all zero
    when the Table 2 claim holds).
    """

    class_name: str
    width: int
    total: int
    detected: int
    mismatches: Mapping[str, int]

    @property
    def percent(self) -> float:
        return 100.0 * self.detected / self.total if self.total else 100.0

    @property
    def ok(self) -> bool:
        return all(count == 0 for count in self.mismatches.values())


@dataclass
class Table2Report:
    """The full symbolic-vs-concrete sweep of one transparent test."""

    test_name: str
    march_name: str
    widths: tuple[int, ...]
    n_words: int
    seed: int
    engines: tuple[str, ...]
    rows: list[Table2Row] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def total_faults(self) -> int:
        return sum(row.total for row in self.rows)

    @property
    def width_independent_classes(self) -> list[str]:
        """Classes whose symbolic coverage rate is identical at every
        swept width — the visible face of the Table 2 claim."""
        by_class: dict[str, set[float]] = {}
        for row in self.rows:
            by_class.setdefault(row.class_name, set()).add(round(row.percent, 6))
        return sorted(name for name, rates in by_class.items() if len(rates) == 1)

    def render(self) -> str:
        header = ["Class", "b", "Faults", "Symbolic coverage"]
        header += [f"vs {engine}" for engine in self.engines]
        body = []
        for row in self.rows:
            line = [
                row.class_name,
                row.width,
                row.total,
                f"{row.detected}/{row.total} ({row.percent:.2f}%)",
            ]
            for engine in self.engines:
                count = row.mismatches[engine]
                line.append("ok" if count == 0 else f"{count} differ")
            body.append(line)
        return render_table(
            header,
            body,
            title=(
                f"Table 2 — symbolic verdicts of {self.march_name} "
                f"(from {self.test_name}) vs concrete engines, "
                f"{self.n_words} words"
            ),
        )


def table2_report(
    name: str = "March C-",
    *,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    n_words: int = 4,
    seed: int = 0,
    max_inter_pairs: int | None = 8,
    engines: Sequence[str] = ("reference", "batch"),
    test: MarchTest | None = None,
) -> Table2Report:
    """Cross-check symbolic verdicts against concrete engines.

    The march under evaluation is the TWMarch of catalog test *name*
    generated at the largest swept width (its checkerboard masks are
    width-polymorphic, so the same symbolic test runs at every width);
    pass *test* to evaluate an explicit march instead.  Per width, the
    standard fault universe (plus RDF/DRDF/AF) is enumerated at that
    width with fresh seeded content, the symbolic engine's verdicts
    are concretized, and every verdict is compared against each
    requested concrete engine.
    """
    widths = tuple(sorted(widths))
    if test is None:
        march = twm_transform(catalog.get(name), max(widths)).twmarch
    else:
        march = test
    symbolic = get_engine("symbolic")
    concrete = {engine: get_engine(engine) for engine in engines}
    report = Table2Report(
        name if test is None else march.name,
        march.name,
        widths,
        n_words,
        seed,
        tuple(engines),
    )
    for width in widths:
        words = _initial_words(n_words, width, None, seed)
        universe = standard_fault_universe(
            n_words,
            width,
            max_inter_pairs=max_inter_pairs,
            rng=random.Random(seed),
            include_rdf=True,
            include_af=True,
        )
        for class_name, faults in universe.items():
            verdicts = symbolic.detect_compare(march, n_words, width, words, faults)
            mismatches = {}
            for engine_name, engine in concrete.items():
                others = engine.detect_compare(march, n_words, width, words, faults)
                mismatches[engine_name] = sum(
                    1 for a, b in zip(verdicts, others) if a != b
                )
            report.rows.append(
                Table2Row(
                    class_name,
                    width,
                    len(faults),
                    verdicts.count(),
                    mismatches,
                )
            )
    return report
