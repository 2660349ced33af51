"""Benchmark of the transparent-BIST simulator, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign_compare --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With ``--trace 0`` the workload runs untraced in fresh interpreters
(``child.py``): ``SETUP_SAMPLES`` of them time set-up, the last one also
times passes for ``--seconds`` and then re-checks pass 0 untimed.  The
end-to-end metrics are printed by name and unit.  With ``--trace 1`` one
fresh interpreter alternates untraced and traced passes and the
per-layer metrics are printed instead, with the self-time table.

Every pass's output is checked: pinned digests at the default seed
(``pins.json``), the untimed inline and reference-interpreter rechecks,
and zero retries, respawns or degraded chunks.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run that cannot produce a result (no
``src/repro`` next to this directory, a child that crashed or overran)
prints none and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("campaign_compare", "campaign_session", "soak", "campaign_sharded")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # one invocation must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.transform_s": "s",
    "engine.compile_s": "s",
    "memory.universe_s": "s",
    "memory.faults": "count",
    "engine.context_build_s": "s",
    "engine.context_builds": "count",
    "engine.context_hits": "count",
    "engine.cell_s": "s",
    "engine.cell_faults": "count",
    "engine.intra_cf_s": "s",
    "engine.intra_cf_faults": "count",
    "engine.inter_cf_s": "s",
    "engine.inter_cf_faults": "count",
    "engine.af_s": "s",
    "engine.af_faults": "count",
    "analysis.campaign_self_s": "s",
    "parallel.pool_start_s": "s",
    "parallel.class_s": "s",
    "parallel.inline_class_s": "s",
    "parallel.transport_s": "s",
    "parallel.retries": "count",
    "parallel.respawns": "count",
    "parallel.degraded_chunks": "count",
    "parallel.worker_peak_rss_mb": "MB",
    "soak.arrivals_s": "s",
    "soak.workload_s": "s",
    "soak.workload_calls": "count",
    "soak.scheduler_self_s": "s",
    "bist.session_step_s": "s",
    "bist.session_steps": "count",
    "memory.fault_toggle_s": "s",
    "memory.fault_toggles": "count",
    "analysis.diagnosis_s": "s",
    "analysis.diagnoses": "count",
    "soak.sessions_completed": "count",
    "soak.episodes_detected": "count",
    "soak.latency_p50_cycles": "cycles",
    "soak.bist_ops": "count",
    "trace.overhead_s": "s",
    "accuracy.sampled": "count",
    "accuracy.mismatches": "count",
}


class RunError(Exception):
    """A child could not produce a result."""


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        # Children run with -B and import this repository's modules
        # from source (child.compile_from_source): setup_s always
        # includes compiling repro, whatever __pycache__ the checkout
        # holds.  The standard library's bytecode is used as usual.
        "repo_bytecode": "neither read nor written",
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
    }


def run_child(args, mode: str, deadline: float) -> dict:
    """One fresh interpreter; its own process group is killed on overrun
    so no pool worker outlives it."""
    command = [
        sys.executable,
        "-B",
        str(HERE / "child.py"),
        *("--workload", args.workload, "--seed", str(args.seed)),
        *("--seconds", str(args.seconds), "--mode", mode),
        *("--out", str(OUT)),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RunError(f"{mode} child overran the {DEADLINE_S:.0f} s budget")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RunError(f"{mode} child exited with code {child.returncode}")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [run_child(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = run_child(args, "timed", deadline)
    setups.append(main)
    if not main["pass_s"]:
        raise RunError("no pass completed")
    setup_raw = statistics.median(s["setup_s"] for s in setups)
    pass_raw = statistics.median(main["pass_s"])
    values = {
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "work_per_s": main["units"] / statistics.median(main["pass_scaled_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    name = "faults_per_s" if main["unit"] == "faults" else "sim_cycles_per_s"
    accuracy = main["accuracy"]
    print(
        f"workload {args.workload}, seed {args.seed}; "
        "times scaled to the reference host speed, raw in brackets"
    )
    print(
        f"  setup_s      {values['setup_s']:.4f} s  [{setup_raw:.4f}]  "
        f"median of {len(setups)} fresh interpreters"
    )
    print(
        f"  work_per_s   {values['work_per_s']:.6g} 1/s  "
        f"[{main['units'] / pass_raw:.6g}]  = {name}: {main['units']} "
        f"{main['unit']} per pass, median of {len(main['pass_s'])} passes"
    )
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(
        f"  ops {main['attempted']}, failed_ops {main['failed']}; accuracy "
        f"{accuracy['sampled']} sampled, {accuracy['mismatches']} mismatches"
    )
    detail = dict(main, setup_samples=setups[:-1])
    return {k: metric(v, END_TO_END[k]) for k, v in values.items()}, detail


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    traced = run_child(args, "traced", deadline)
    layers = traced["per_layer"]
    wall = statistics.median(traced["traced_pass_s"])
    plain = statistics.median(traced["plain_pass_s"])
    print(
        f"workload {args.workload}, seed {args.seed}: "
        f"{len(traced['traced_pass_s'])} traced passes, median {wall:.4f} s; "
        f"untraced median {plain:.4f} s"
    )
    print(f"  {'span':24} {'self s/pass':>12} {'share':>7}")
    for name, seconds in sorted(traced["self_time"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:24} {seconds:12.6f} {seconds / wall:7.1%}")
    print(f"  set-up spans: {traced['setup_layers']}")
    print(
        f"  not attributed to a layer (self time of "
        f"{', '.join(traced['glue_spans'])}): "
        f"{traced['unattributed_share']:.1%} of a traced pass"
    )
    print(
        f"  trace.overhead_s {layers['trace.overhead_s']:.4f} "
        f"({len(traced['traced_pass_s'])} traced against "
        f"{len(traced['plain_pass_s'])} untraced passes)"
    )
    print(f"  spans: {traced['trace_file']}")
    return {k: metric(layers[k], u) for k, u in PER_LAYER.items()}, traced


def run_one(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        metrics, detail = per_layer(args, deadline)
    else:
        metrics, detail = end_to_end(args, deadline)
    facts = host_facts()
    print(f"  host: {facts}")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(result, host=facts, detail=detail), indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload != "all":
            result = run_one(args)
        else:
            results = {}
            for name in WORKLOADS:
                for trace in (0, 1):
                    one = argparse.Namespace(**vars(args))
                    one.workload, one.trace = name, trace
                    results[(name, trace)] = run_one(one)
                    print(json.dumps(results[(name, trace)]))
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}/{key}": value
                    for (name, _), r in results.items()
                    for key, value in r["metrics"].items()
                },
            }
    except RunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
