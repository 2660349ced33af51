"""Regenerate ``pins.json``: the per-pass outputs at the default seed.

For each workload, passes ``0 .. PIN_PASSES[name] - 1`` at seed 0 and
full size are run untraced and their digests (plus per-class detected
counts for campaigns) are written out.  ``child.py`` fails any pass
whose output differs from its pin.  Rerun only when the program's
verdicts are meant to change::

    PYTHONPATH=src python3 -B perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

SEED = 0
# Enough passes to cover a --seconds run on a host a few times faster
# than a 2-CPU container.
PIN_PASSES = {
    "campaign_compare": 96,
    "campaign_session": 32,
    "soak": 48,
    "campaign_sharded": 96,
}


def main() -> int:
    passes = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name)
        workload.setup(SEED, workloads.NULL_TRACER)
        rows = []
        for index in range(PIN_PASSES[name]):
            result = workload.run(workload.prepare(index), workloads.NULL_TRACER)
            rows.append({"digest": result.digest, "counts": result.counts})
        workload.close()
        passes[name] = rows
        print(f"{name}: pinned {len(rows)} passes", file=sys.stderr)
    pins = {"seed": SEED, "size": "full", "passes": passes}
    path = Path(__file__).resolve().parent / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
