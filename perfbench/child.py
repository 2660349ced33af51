"""One fresh interpreter's share of a benchmark run.

``run.py`` starts this script once per sample, so every set-up time and
every timed pass comes from a clean process.  Modes:

* ``setup``  — time set-up only (one more ``setup_s`` sample);
* ``timed``  — set up, run untraced passes for ``--seconds``, then check
  pass 0 again through an inline runner and the reference interpreter;
* ``traced`` — set up, then alternate untraced and traced passes over
  the same pass indices and report per-layer numbers from the spans.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import time

import calibrate

CAL0 = calibrate.measure()  # host speed just before set-up
T0 = time.perf_counter()  # set-up is timed from before ``import repro``

import argparse  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_PASSES = 6
KERNEL_GROUPS = ("engine.cell", "engine.intra_cf", "engine.inter_cf", "engine.af")
# Spans whose self time no layer claims: the benchmark's own loop,
# run_campaign's and run_soak_campaign's bookkeeping, and the runner's
# dispatch of soak work (its "class" has no name).
GLUE_SPANS = ("pass", "analysis.campaign", "soak.campaign", "engine.runner")


class SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Compiles a module from its source and never reads bytecode."""

    def get_code(self, fullname):
        return self.source_to_code(self.get_data(self.path), self.path)


def compile_from_source(root: Path) -> None:
    """Import every module under *root* from source, whatever
    ``__pycache__`` directories a test or tool left there, so that
    set-up always includes compiling ``repro`` (as on a host that keeps
    no bytecode).  Modules elsewhere, the standard library among them,
    load as usual."""
    finder = importlib.machinery.FileFinder.path_hook(
        (SourceOnlyLoader, importlib.machinery.SOURCE_SUFFIXES)
    )

    def hook(path):
        if not Path(path or ".").resolve().is_relative_to(root):
            raise ImportError("not under the repository")
        return finder(path)

    sys.path_hooks.insert(0, hook)
    sys.path_importer_cache.clear()


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


class Checker:
    """Counts failed passes: raised, digest mismatch, or any retry."""

    def __init__(self, workload: str, seed: int, size: str, pins: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.pins = pins
        self.failed: set = set()
        self.attempted = 0
        self.digests: dict = {}

    def pinned_differs(self, index: int, result) -> bool:
        """True when a pinned pass (default seed, full size) disagrees."""
        pins = self.pins
        if pins.get("seed") != self.seed or pins.get("size") != self.size:
            return False
        table = pins["passes"].get(self.workload, [])
        if index >= len(table):
            return False
        want = table[index]
        return want["digest"] != result.digest or want["counts"] != result.counts

    def record(self, index, result, problem: str | None = None) -> None:
        if result is not None:
            if self.pinned_differs(index, result):
                problem = f"pass {index}: digest differs from the pinned one"
            elif any(result.fault_tolerance.values()):
                problem = f"pass {index}: needed {result.fault_tolerance}"
            seen = self.digests.setdefault(index, result.digest)
            if seen != result.digest:
                problem = f"pass {index}: rerun digest {result.digest} != {seen}"
        if problem is not None:
            print(problem, file=sys.stderr)
            self.failed.add(index)

    def attempt(self, index, run):
        """Run one pass; a raising pass counts as failed."""
        self.attempted += 1
        try:
            result = run()
        except Exception:
            traceback.print_exc()
            self.record(index, None, f"pass {index} raised")
            return None
        self.record(index, result)
        return result


def recheck(workload, first, checker) -> tuple[int, int]:
    """Untimed: pass 0 again through an inline runner (its digest must
    match) and a strided sample through the reference interpreter."""
    digest, sampled, mismatches = workload.verify(first)
    if digest != checker.digests.get(0):
        checker.record(0, None, f"pass 0: inline recheck digest {digest} differs")
    if mismatches:
        checker.record(0, None, f"pass 0: {mismatches} reference verdicts differ")
    return sampled, mismatches


def setup(workloads, args, tracer):
    workload = workloads.make(args.workload, args.size)
    workload.setup(args.seed, tracer)
    return workload, workload.prepare(0)


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* at the reference host speed (see calibrate.py)."""
    return seconds / ((before + after) / 2) * calibrate.REFERENCE_S


def timed_setup(workloads, args):
    workload, first = setup(workloads, args, workloads.NULL_TRACER)
    setup_s = time.perf_counter() - T0
    setup_scaled = scaled(setup_s, CAL0, calibrate.measure())
    return workload, first, {"setup_s": setup_s, "setup_scaled_s": setup_scaled}


def run_timed(workloads, args, checker) -> dict:
    null = workloads.NULL_TRACER
    workload, inputs, report = timed_setup(workloads, args)
    first = inputs
    times, times_scaled = [], []
    units = 0
    index = 0
    # A pass computes on as many CPUs as the workload has jobs.
    with calibrate.Calibrator(workload.jobs) as calibrator:
        before = calibrator.measure()
        started = time.perf_counter()
        while index == 0 or time.perf_counter() - started < args.seconds:
            if index:
                inputs = workload.prepare(index)
            t = time.perf_counter()
            result = checker.attempt(index, lambda: workload.run(inputs, null))
            elapsed = time.perf_counter() - t
            after = calibrator.measure()
            if result is not None:
                times.append(elapsed)
                times_scaled.append(scaled(elapsed, before, after))
                units = result.units
            before = after
            index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sampled, mismatches = recheck(workload, first, checker)
    workload.close()
    report.update(
        pass_s=times,
        pass_scaled_s=times_scaled,
        units=units,
        unit=workload.unit,
        peak_rss_mb=peak_rss_mb,
        accuracy={"sampled": sampled, "mismatches": mismatches},
    )
    return report


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0


def run_traced(workloads, args, checker) -> dict:
    from tracing import Tracer

    null = workloads.NULL_TRACER
    tracer = Tracer()
    workload, first = setup(workloads, args, tracer)
    sharded = workload.jobs > 1
    # Every index runs untraced and traced, first one then the other.
    # The sharded workload's shared runner keeps the workers' contexts
    # warm, so there a rerun of the same content is cheaper than a
    # timed pass: only each index's first run is timed and summarized,
    # and the order alternates so both modes get first runs.  The
    # other workloads build a fresh runner per pass and use every run.
    # ``fresh`` holds each index's first result, for the context
    # counters and the simulated soak outcomes.
    plain, traced, results, fresh, counted = [], [], [], {}, []
    for index in range(TRACED_PASSES):
        inputs = first if index == 0 else workload.prepare(index)
        order = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        for mode in order:
            cold = mode == order[0] or not sharded
            if mode == "plain":
                t = time.perf_counter()
                result = checker.attempt(index, lambda: workload.run(inputs, null))
                if cold:
                    plain.append(time.perf_counter() - t)
            else:
                tracer.set_pass(index if cold else f"rerun{index}")
                with tracer.installed(), tracer.span("pass") as root:
                    result = checker.attempt(
                        index, lambda: workload.run(inputs, tracer)
                    )
                if cold:
                    traced.append(root.seconds)
                    counted.append(index)
            if result is not None:
                results.append(result)
                fresh.setdefault(index, result)
        if sharded:
            # The same lists through an inline runner: class_s minus
            # this is what sharding costs in transport.
            tracer.set_pass(f"inline{index}")
            with tracer.installed(), tracer.span("pass"):
                checker.attempt(
                    index, lambda: workload.run(inputs, tracer, inline=True)
                )
    sampled, mismatches = recheck(workload, first, checker)
    workload.close()
    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    summary = tracer.summary()
    setup_rows = summary["setup"]
    pass_rows = [summary[i] for i in counted]
    inline_rows = [summary.get(f"inline{i}", {}) for i in counted]

    def layer(name, field="self"):
        """Set-up share plus the median per-pass share of one span name."""
        base = setup_rows.get(name, {}).get(field, 0)
        return base + median(r.get(name, {}).get(field, 0) for r in pass_rows)

    def kernels(rows):
        return sum(rows.get(g, {}).get("total", 0) for g in KERNEL_GROUPS)

    context = {
        key: median(r.context[key] for r in fresh.values() if r.context)
        for key in ("builds", "hits", "build_seconds")
    }
    model = {
        key: median(r.model[key] for r in fresh.values() if r.model)
        for key in (
            "sessions_completed",
            "episodes_detected",
            "latency_p50_cycles",
            "bist_ops",
        )
    }
    tolerance = {
        key: sum(r.fault_tolerance[key] for r in results)
        for key in ("retries", "respawns", "degraded_chunks")
    }
    class_s = median(kernels(r) for r in pass_rows) if sharded else 0.0
    inline_s = median(kernels(r) for r in inline_rows) if sharded else 0.0
    metrics = {
        "core.transform_s": layer("core.transform"),
        "engine.compile_s": layer("engine.compile"),
        "memory.universe_s": layer("memory.universe", "total"),
        "memory.faults": workload.faults,
        "engine.context_build_s": context["build_seconds"],
        "engine.context_builds": context["builds"],
        "engine.context_hits": context["hits"],
        "analysis.campaign_self_s": layer("analysis.campaign"),
        "parallel.pool_start_s": layer("parallel.pool_start", "total"),
        "parallel.class_s": class_s,
        "parallel.inline_class_s": inline_s,
        "parallel.transport_s": class_s - inline_s,
        "parallel.retries": tolerance["retries"],
        "parallel.respawns": tolerance["respawns"],
        "parallel.degraded_chunks": tolerance["degraded_chunks"],
        "parallel.worker_peak_rss_mb": worker_rss if sharded else 0.0,
        "soak.arrivals_s": layer("soak.arrivals"),
        "soak.workload_s": layer("soak.workload"),
        "soak.workload_calls": layer("soak.workload", "calls"),
        "soak.scheduler_self_s": layer("soak.scheduler"),
        "bist.session_step_s": layer("bist.session_step"),
        "bist.session_steps": layer("bist.session_step", "calls"),
        "memory.fault_toggle_s": layer("memory.fault_toggle"),
        "memory.fault_toggles": layer("memory.fault_toggle", "calls"),
        "analysis.diagnosis_s": layer("analysis.diagnosis"),
        "analysis.diagnoses": layer("analysis.diagnosis", "calls"),
        "soak.sessions_completed": model["sessions_completed"],
        "soak.episodes_detected": model["episodes_detected"],
        "soak.latency_p50_cycles": model["latency_p50_cycles"],
        "soak.bist_ops": model["bist_ops"],
        "trace.overhead_s": median(traced) - median(plain),
        "accuracy.sampled": sampled,
        "accuracy.mismatches": mismatches,
    }
    for group in KERNEL_GROUPS:
        metrics[f"{group}_s"] = layer(group)
        metrics[f"{group}_faults"] = layer(group, "n")

    # The self times of a pass add up to its wall time by construction;
    # what the named layers leave over lands in these glue spans.
    unattributed = median(
        sum(rows.get(name, {}).get("self", 0) for name in GLUE_SPANS)
        / rows["pass"]["total"]
        for rows in pass_rows
    )
    names = {name for rows in pass_rows for name in rows}
    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    return {
        "per_layer": metrics,
        "self_time": {
            name: median(r.get(name, {}).get("self", 0) for r in pass_rows)
            for name in names
        },
        "setup_layers": {name: row["total"] for name, row in setup_rows.items()},
        "traced_pass_s": traced,
        "plain_pass_s": plain,
        "glue_spans": GLUE_SPANS,
        "unattributed_share": unattributed,
        "trace_file": str(trace_path),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny geometries, for the self-tests only; run.py always runs full",
    )
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args()

    compile_from_source(ROOT)
    import workloads  # imports repro: the set-up clock is already running

    checker = Checker(args.workload, args.seed, args.size, load_pins())
    if args.mode == "setup":
        workload, _, report = timed_setup(workloads, args)
        workload.close()
    elif args.mode == "timed":
        report = run_timed(workloads, args, checker)
    else:
        report = run_traced(workloads, args, checker)
    report["attempted"] = checker.attempted
    report["failed"] = len(checker.failed)
    report["digests"] = checker.digests
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
