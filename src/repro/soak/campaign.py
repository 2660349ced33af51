"""Soak scenario matrices through the supervised campaign fabric.

Scenario sweeps ride the exact machinery every other campaign uses:
:class:`SoakWork` is a work unit in the
:class:`~repro.engine.parallel.CampaignRunner` sense (``context_key`` /
``build_context`` / ``run``), a scenario list is its "fault
class", and :class:`ScenarioVerdicts` is its packed result container —
so soak sweeps are sharded across persistent workers, lease-supervised
(crash/hang/corrupt detection, bounded retries, chaos injection) and
merge deterministically: ``jobs=N`` is bit-identical to ``jobs=1``.

On top of that sits **checkpoint/resume**: the driver runs the matrix
in batches, writing a JSON checkpoint (scenario-name -> report, plus a
fingerprint of the full matrix) after each batch.  A killed run
re-invoked with the same checkpoint path skips every banked scenario
and produces a final report bit-identical to an undisturbed run —
scenarios are pure functions of their specs, so re-execution and
replay-from-checkpoint are indistinguishable.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..engine.parallel import CampaignRunner
from .scenario import SoakReport, SoakScenario, run_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.chaos import FaultPlan
    from ..engine.retry import FaultToleranceStats, RetryPolicy

DEFAULT_BATCH = 4


@dataclass(frozen=True)
class ScenarioVerdicts:
    """Packed result container for a sharded scenario chunk.

    The campaign fabric only needs ``len()`` (integrity check: one
    verdict per input) and ``concat`` (deterministic in-order merge).
    """

    reports: tuple[SoakReport, ...] = ()

    def __len__(self) -> int:
        return len(self.reports)

    def tolist(self) -> list[SoakReport]:
        return list(self.reports)

    @classmethod
    def concat(
        cls, parts: "Sequence[ScenarioVerdicts]"
    ) -> "ScenarioVerdicts":
        reports: list[SoakReport] = []
        for part in parts:
            reports.extend(part.reports)
        return cls(tuple(reports))


@dataclass(frozen=True)
class SoakWork:
    """The soak work unit: evaluates scenarios, ignores the engine.

    Scenarios carry their whole context by value, so there is nothing
    to amortize per worker — ``build_context`` returns ``None`` and the
    context cache simply remembers the probe.
    """

    def context_key(self) -> tuple:
        return ("soak",)

    def build_context(self, engine) -> object:
        return None

    def run(self, engine, scenarios, context=None) -> ScenarioVerdicts:
        return ScenarioVerdicts(
            tuple(run_scenario(scenario) for scenario in scenarios)
        )


def matrix_fingerprint(scenarios: Sequence[SoakScenario]) -> str:
    """A stable identity of the full matrix (checkpoint compatibility)."""
    payload = json.dumps(
        [scenario.as_dict() for scenario in scenarios], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class SoakCampaignReport:
    """A finished (or checkpoint-limited) soak sweep.

    ``reports`` is in matrix order and is the bit-identity surface the
    acceptance tests compare; ``seconds`` and ``fault_tolerance`` are
    run accounting, deliberately outside any equality assertion.
    """

    reports: list[SoakReport] = field(default_factory=list)
    completed: bool = True
    resumed_scenarios: int = 0
    seconds: float = 0.0
    fault_tolerance: "FaultToleranceStats | None" = None

    @property
    def scenarios(self) -> int:
        return len(self.reports)


class SoakCheckpoint:
    """JSON bank of finished scenario reports, keyed by scenario name."""

    def __init__(self, path: Path | str, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.reports: dict[str, SoakReport] = {}

    def load(self) -> int:
        """Read banked reports; returns how many were resumed.  A
        checkpoint written for a different matrix is rejected loudly —
        resuming it would silently splice unrelated results."""
        if not self.path.exists():
            return 0
        payload = json.loads(self.path.read_text(encoding="utf-8"))
        if payload.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"checkpoint {self.path} was written for a different "
                "scenario matrix (fingerprint mismatch); delete it or "
                "point --checkpoint elsewhere"
            )
        self.reports = {
            name: SoakReport.from_dict(report)
            for name, report in payload["reports"].items()
        }
        return len(self.reports)

    def bank(self, reports: Sequence[SoakReport]) -> None:
        for report in reports:
            self.reports[report.scenario] = report
        payload = {
            "fingerprint": self.fingerprint,
            "reports": {
                name: report.as_dict()
                for name, report in sorted(self.reports.items())
            },
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
        tmp.replace(self.path)


def run_soak_campaign(
    scenarios: Sequence[SoakScenario],
    *,
    jobs: int = 1,
    retry: "RetryPolicy | None" = None,
    chaos: "FaultPlan | None" = None,
    degrade: bool = True,
    runner: CampaignRunner | None = None,
    checkpoint: Path | str | None = None,
    batch_size: int = DEFAULT_BATCH,
    max_batches: int | None = None,
) -> SoakCampaignReport:
    """Run a scenario matrix, sharded and supervised.

    ``checkpoint`` banks finished batches to a JSON file and resumes
    from it on re-invocation.  ``max_batches`` bounds how many *new*
    batches this invocation runs (a time-boxed soak slice: the
    checkpoint holds whatever finished; re-invoke to continue) —
    ``completed`` is False on a limited run that stopped early.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    scenarios = list(scenarios)
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique within a matrix")
    started = time.perf_counter()
    bank: SoakCheckpoint | None = None
    resumed = 0
    if checkpoint is not None:
        bank = SoakCheckpoint(checkpoint, matrix_fingerprint(scenarios))
        resumed = bank.load()

    done = dict(bank.reports) if bank is not None else {}
    pending = [s for s in scenarios if s.name not in done]
    batches = [
        pending[i : i + batch_size]
        for i in range(0, len(pending), batch_size)
    ]

    work = SoakWork()
    own_runner = runner is None
    if own_runner:
        # min_chunk=1: scenario lists are short but each element is a
        # whole simulated uptime, so even a handful shards profitably.
        runner = CampaignRunner(
            "reference",
            jobs,
            min_chunk=1,
            chunks_per_job=1,
            retry=retry,
            chaos=chaos,
            degrade=degrade,
        )
    completed = True
    try:
        for ordinal, batch in enumerate(batches):
            if max_batches is not None and ordinal >= max_batches:
                completed = False
                break
            runner.bind(work, {"soak": batch})
            verdicts = runner.detect_class_packed(
                work, batch, class_name="soak"
            )
            for report in verdicts.tolist():
                done[report.scenario] = report
            if bank is not None:
                bank.bank(verdicts.tolist())
        fault_stats = runner.take_fault_stats()
    finally:
        if own_runner:
            runner.close()

    reports = [done[name] for name in names if name in done]
    return SoakCampaignReport(
        reports=reports,
        completed=completed and len(reports) == len(scenarios),
        resumed_scenarios=resumed,
        seconds=time.perf_counter() - started,
        fault_tolerance=fault_stats,
    )
