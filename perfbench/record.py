"""Record each workload's output digest into digests.json.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one untraced pass per workload and stores the digest fields it
produced.  Re-record only when a change is meant to alter what the fuzzer
executes or finds; a change that claims a speed-up must leave them equal.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, RUN_LIMIT_S, load_workloads, run_pass


def main(names: list[str]) -> int:
    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    workloads = load_workloads()
    for name in names or list(workloads):
        outputs = run_pass(workloads[name], False, 0, time.monotonic() + RUN_LIMIT_S)
        digests[name] = {
            f"{step}.{field}": value for step, out in outputs.items() for field, value in out["digest"].items()
        }
        print(name, json.dumps(digests[name], indent=1))
    path.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
