"""Smoke run of the benchmark runner on tiny budgets.

    python3 perfbench/smoke.py

Caps every campaign at two iterations, runs one pass of each workload
untraced and one round traced, and asserts that every metric BENCHMARK.json
names is emitted as a finite number with its unit.  Shrunken budgets change
what the campaigns execute, so the runner reports digest mismatches on
stderr; correctness is not asserted here.
"""

from __future__ import annotations

import copy
import json
import math
import sys

from run import HERE, load_workloads, run_workload


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name, workload in load_workloads().items():
        tiny = copy.deepcopy(workload)
        for step in tiny["steps"]:
            if step["kind"] == "campaign":
                step["campaign"]["iterations"] = min(step["campaign"]["iterations"], 2)
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(tiny, seed=0, seconds=0.001, traced=traced)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
            assert result["attempted"] >= 1, result["attempted"]
            for metric in bench[section]:
                got = result["metrics"].get(metric["name"])
                assert got is not None, f"{name}: {metric['name']} not emitted"
                assert got["unit"] == metric["unit"], f"{name}: {metric['name']} unit {got['unit']}"
                value = got["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), f"{name}: {metric['name']}={value}"
            print(f"{name}: every {section} metric emitted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
