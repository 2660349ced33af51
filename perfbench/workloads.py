"""The benchmark's workloads: inputs, one timed pass, and its digest.

Every input derives from ``(workload, seed, role, pass index)`` through
CRC-32, so the same seed always yields the same inputs and each pass
gets fresh ones (new memory content for a campaign, new scenario seeds
for a soak sweep).  A pass therefore costs what a user's next
invocation costs, and no cache kept across passes can pass for a
speed-up.

Importing this module imports ``repro``; ``child.py`` starts the
set-up clock before that import on purpose.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass

import repro
from repro.analysis.soak import latency_stats
from repro.engine import CampaignRunner, get_engine
from repro.library import catalog

TEST = "March C-"
MAX_INTER_PAIRS = 24
KEEP_UNDETECTED = 16  # run_campaign's default missed-fault sample
ACCURACY_SAMPLES = 8  # strided faults per class replayed by the reference

# name -> (full geometry, tiny geometry); tiny keeps the self-tests fast.
GEOMETRY = {
    "campaign_compare": ((128, 32), (8, 8)),
    "campaign_session": ((64, 8), (8, 4)),
    "soak": (((16, 8), (32, 8)), ((8, 4),)),
    "campaign_sharded": ((128, 8), (32, 4)),
}
WORKLOADS = tuple(GEOMETRY)
SOAK_CYCLES = {"full": 30_000, "tiny": 3_000}


def sub_seed(*parts) -> int:
    """A 32-bit seed derived from the parts' joined text."""
    return zlib.crc32("|".join(str(p) for p in parts).encode())


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass produced: the checked outputs and the run counters."""

    digest: str
    counts: dict | None  # per-class detected counts (campaigns only)
    units: int  # faults simulated, or simulated uptime cycles
    fault_tolerance: dict  # retries / respawns / degraded_chunks
    context: dict | None = None  # the campaign's ContextStats
    model: dict | None = None  # simulated soak outcomes


def _tolerance(stats) -> dict:
    if stats is None:
        return {"retries": 0, "respawns": 0, "degraded_chunks": 0}
    return {
        "retries": stats.retries,
        "respawns": stats.respawns,
        "degraded_chunks": stats.degraded_chunks,
    }


def class_group(name: str | None) -> str:
    """The per-layer span a fault class's kernel time is charged to."""
    if name in ("SAF", "TF", "RDF", "DRDF"):
        return "engine.cell"
    if name is not None and name.endswith("-intra"):
        return "engine.intra_cf"
    if name is not None and name.endswith("-inter"):
        return "engine.inter_cf"
    if name == "AF":
        return "engine.af"
    return "engine.runner"


class CampaignWorkload:
    """March C- TWMarch coverage campaigns over the Section 2 universe
    plus RDF/DRDF/AF, through the batch engine.

    ``oracle`` is ``"compare"`` (alias-free read compare) or
    ``"signature"`` (two-phase MISR session).  ``jobs > 1`` keeps one
    sharded runner warm across passes over a materialized universe,
    because only lists shard.
    """

    unit = "faults"

    def __init__(self, name, oracle, n_words, width, *, jobs=1, streaming=True):
        self.name = name
        self.oracle = oracle
        self.n_words = n_words
        self.width = width
        self.jobs = jobs
        self.streaming = streaming
        self.runner = None

    # -- set-up ---------------------------------------------------------
    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        with tracer.span("core.transform"):
            self.twm = repro.twm_transform(catalog.get(TEST), self.width)
        with tracer.span("engine.compile"):
            repro.compile_march(self.twm.twmarch, self.width)
            if self.oracle == "signature":
                repro.compile_march(self.twm.prediction, self.width)
        with tracer.span("memory.universe") as span:
            self.universe = repro.standard_fault_universe(
                self.n_words,
                self.width,
                max_inter_pairs=MAX_INTER_PAIRS,
                rng=random.Random(sub_seed(self.name, seed, "universe")),
                include_rdf=True,
                include_af=True,
                streaming=self.streaming,
            )
            span.n = self.faults
        if self.jobs > 1:
            self.runner = CampaignRunner("batch", jobs=self.jobs)
            work = self.prepare(0).work_unit()
            self.runner.bind(work, self.universe)
            # The smallest class that shards starts the pool, through
            # the public per-class entry point.
            name = min(
                (
                    name
                    for name, faults in self.universe.items()
                    if len(faults) >= 2 * self.runner.min_chunk
                ),
                key=lambda name: len(self.universe[name]),
            )
            with tracer.span("parallel.pool_start"):
                self.runner.detect_class_packed(
                    work, self.universe[name], class_name=name
                )

    @property
    def faults(self) -> int:
        return sum(len(f) for f in self.universe.values())

    def close(self) -> None:
        if self.runner is not None:
            self.runner.close()
            self.runner = None

    # -- one pass -------------------------------------------------------
    def prepare(self, index: int):
        """The pass's flow: fresh random memory content."""
        content = sub_seed(self.name, self.seed, "content", index)
        if self.oracle == "compare":
            return repro.compare_flow(
                self.twm.twmarch, self.n_words, self.width, seed=content
            )
        return repro.signature_flow(
            self.twm.twmarch,
            self.twm.prediction,
            self.n_words,
            self.width,
            misr_width=16,
            seed=content,
        )

    def run(self, flow, tracer, *, inline: bool = False) -> PassResult:
        """One full ``run_campaign`` pass; ``inline`` forces jobs=1."""
        with tracer.span("analysis.campaign"):
            if self.runner is not None and not inline:
                report = repro.run_campaign(flow, self.universe, runner=self.runner)
            else:
                report = repro.run_campaign(flow, self.universe, engine="batch")
        classes = {
            name: [
                cov.total,
                cov.detected,
                [f.describe() for f in report.undetected.get(name, [])],
            ]
            for name, cov in report.classes.items()
        }
        stats = report.context_stats
        return PassResult(
            digest=digest_of(classes),
            counts={name: c[1] for name, c in classes.items()},
            units=report.total,
            fault_tolerance=_tolerance(report.fault_tolerance),
            context={
                "builds": stats.builds,
                "hits": stats.hits,
                "build_seconds": stats.build_seconds,
            },
        )

    # -- untimed checks -------------------------------------------------
    def verify(self, flow) -> tuple[str, int, int]:
        """Recompute a pass through an inline ``CampaignRunner(jobs=1)``
        class by class, and replay a strided sample of every class
        through the reference interpreter.

        Returns ``(digest, sampled, mismatches)``; the digest must equal
        the timed pass's.
        """
        work = flow.work_unit()
        reference = get_engine("reference")
        classes = {}
        sampled = mismatches = 0
        with CampaignRunner("batch", jobs=1) as inline:
            for name, faults in self.universe.items():
                packed = inline.detect_class_packed(work, faults, class_name=name)
                missed = packed.missed_indices(KEEP_UNDETECTED)
                classes[name] = [
                    len(faults),
                    packed.count(),
                    [faults[i].describe() for i in missed],
                ]
                step = max(1, len(faults) // ACCURACY_SAMPLES)
                picks = list(range(0, len(faults), step))[:ACCURACY_SAMPLES]
                truth = work.run(reference, [faults[i] for i in picks])
                sampled += len(picks)
                mismatches += sum(packed[i] != t for i, t in zip(picks, truth))
        return digest_of(classes), sampled, mismatches


class SoakWorkload:
    """A 4-scenario online-test soak sweep (2 geometries x 2 fault
    mixes at rate 4 per 10k cycles) through ``run_soak_campaign``."""

    unit = "cycles"
    jobs = 1
    faults = 0

    def __init__(self, name, geometries, cycles):
        self.name = name
        self.geometries = geometries
        self.cycles = cycles

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        widths = sorted({w for _, w in self.geometries})
        with tracer.span("core.transform"):
            twms = [repro.twm_transform(catalog.get(TEST), w) for w in widths]
        with tracer.span("engine.compile"):
            for twm, width in zip(twms, widths):
                repro.compile_march(twm.twmarch, width)

    def close(self) -> None:
        pass

    def prepare(self, index: int):
        """The pass's scenario matrix: fresh scenario seeds."""
        return repro.scenario_matrix(
            geometries=self.geometries,
            rates=(4.0,),
            mixes=("mixed", "permanent"),
            cycles=self.cycles,
            seed=sub_seed(self.name, self.seed, "scenarios", index),
        )

    def run(self, matrix, tracer) -> PassResult:
        with tracer.span("soak.campaign"):
            sweep = repro.run_soak_campaign(matrix, jobs=1)
        if not sweep.completed:
            raise RuntimeError("soak sweep stopped before every scenario ran")
        reports = sweep.reports
        latencies = [x for r in reports for x in r.detection_latencies]
        return PassResult(
            digest=digest_of([r.as_dict() for r in reports]),
            counts=None,
            units=sum(s.cycles for s in matrix),
            fault_tolerance=_tolerance(sweep.fault_tolerance),
            model={
                "sessions_completed": sum(r.sessions_completed for r in reports),
                "episodes_detected": sum(r.detections for r in reports),
                "latency_p50_cycles": latency_stats(latencies).get("p50", 0),
                "bist_ops": sum(r.bist_ops for r in reports),
            },
        )

    def verify(self, matrix) -> tuple[str, int, int]:
        """Rerun the pass; soak has no reference-engine sample."""
        return self.run(matrix, NULL_TRACER).digest, 0, 0


def make(name: str, size: str = "full"):
    geometry = GEOMETRY[name][size == "tiny"]
    if name == "soak":
        return SoakWorkload(name, geometry, SOAK_CYCLES[size])
    oracle = "signature" if name == "campaign_session" else "compare"
    sharded = name == "campaign_sharded"
    return CampaignWorkload(
        name,
        oracle,
        *geometry,
        jobs=2 if sharded else 1,
        streaming=not sharded,
    )


class _NullSpan:
    n = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """The untraced default: a span costs one method call and records
    nothing."""

    _span = _NullSpan()

    def span(self, name, n=0):
        return self._span


NULL_TRACER = NullTracer()
