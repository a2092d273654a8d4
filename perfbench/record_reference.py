#!/usr/bin/env python3
"""Record reference.json: one operation per input id of every workload.

    python3 perfbench/record_reference.py

Each workload's operation runs once on every input id in its universe, and
the checked outputs are stored. Recording refuses to write a reference
from an operation that fails its own invariant checks.
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import NullTracer  # noqa: E402


def main() -> int:
    warnings.simplefilter("ignore", wl.qa.WeightRankWarning)
    reference = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for name, workload in wl.WORKLOADS.items():
            reference[name] = {}
            for i in range(workload.universe):
                state = workload.setup([i], work_dir)
                output = workload.op(state, 0, NullTracer())
                problems = workload.problems(output)
                if problems:
                    print(f"{name} input {i}: {problems}", file=sys.stderr)
                    return 1
                reference[name][str(i)] = workload.record(output)
            print(f"{name}: {workload.universe} inputs recorded")
    (HERE / "reference.json").write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
