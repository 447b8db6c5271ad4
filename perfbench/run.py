"""Campaign benchmark for tracefuzz.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the in-process simulator from one process at a time, in a closed
loop: one campaign, one engine execution in flight.  A run repeats passes of
the workload until ``--seconds`` is spent, and at least one, after timing
the setup of its first step alone a few times.  A pass runs the workload's steps (perfbench/workloads.json)
in order, each in a fresh interpreter (perfbench/worker.py), so in-process
caches start cold as they do for ``tracefuzz run``.  Every pass is checked
against the digest recorded for its workload (perfbench/digests.json).

With ``--trace 0`` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json.  Their times are wall times scaled to a fixed host speed:
a shared host swings in speed by up to a factor of two for seconds to
minutes at a time, so every few milliseconds the step times a fixed piece
of reference work, and each stretch of the step is scaled by how fast that
ran there (see perfbench/tracer.py).  A step's time is the median of its scaled times over
the run's passes; rates divide a pass's work by those times.

With ``--trace 1`` each round is an untraced pass followed by a traced one;
the line carries the per-layer metrics of the traced passes (medians over
rounds) and the tracing overhead, traced minus untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PACKAGE = HERE.parent / "src" / "tracefuzz"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 7  # setup-only processes of the first step, before the passes

FAMILIES = ("F1", "F2", "F3")


class StepFailed(RuntimeError):
    pass


def metric_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json, the names' one source."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[section]}


def load_workloads() -> dict:
    """Workload specs, each with the digest recorded for it (empty if none)."""
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    digests = json.loads((HERE / "digests.json").read_text())
    for name, workload in workloads.items():
        workload["digest"] = digests.get(name, {})
    return workloads


def run_step(request: dict, hash_seed: int, deadline: float) -> dict:
    """Run one step in a fresh interpreter and return its result document."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    request = dict(request, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise StepFailed(f"step {request['step']['name']} overran the run's time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise StepFailed(f"step {request['step']['name']} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: dict, traced: bool, hash_seed: int, deadline: float, full: bool = True) -> dict:
    """The steps of one pass, in order; minimize steps take their source's export.

    Steps marked ``once`` run only in a full pass: they are too long to repeat
    within a run, while the cheaper steps repeat to steady their medians.
    """
    steps = {step["name"]: step for step in workload["steps"]}
    outputs: dict = {}
    for index, step in enumerate(workload["steps"]):
        if step.get("once") and not full:
            continue
        request = {"step": step, "traced": traced}
        if step["kind"] == "minimize":
            request["sim"] = steps[step["source"]]["sim"]
            request["input_traces"] = outputs[step["source"]]["exports"]
        else:
            request["sim"] = step["sim"]
        outputs[step["name"]] = run_step(request, (hash_seed + index) % (1 << 32), deadline)
    return outputs


def check_pass(workload: dict, outputs: dict) -> list[str]:
    """Digest and invariant violations of one pass, each naming its field."""
    problems = []
    recorded = workload["digest"]
    if not recorded:
        problems.append("no digest recorded for this workload")
    for step in workload["steps"]:
        out = outputs.get(step["name"])
        if out is None:
            continue
        for field, value in out["digest"].items():
            key = f"{step['name']}.{field}"
            if recorded and recorded.get(key) != value:
                problems.append(f"digest mismatch: {key} (expected {recorded.get(key)}, got {value})")
        if step["kind"] == "minimize":
            continue
        expect = step["expect"]
        kinds = out["finding_kinds"]
        if expect["finding_kinds"] and not set(kinds) & set(expect["finding_kinds"]):
            problems.append(f"{step['name']}: no finding of {expect['finding_kinds']} confirmed")
        if not expect["finding_kinds"] and kinds:
            problems.append(f"{step['name']}: clean workload confirmed findings {kinds}")
        allowed = expect.get("dismissal_reasons")
        if allowed is not None and not set(out["dismissal_reasons"]) <= set(allowed):
            problems.append(f"{step['name']}: dismissal reasons {out['dismissal_reasons']} outside {allowed}")
    return problems


def failed_operations(outputs: dict) -> int:
    failed = 0
    for out in outputs.values():
        counts = out["layers"]["counts"]
        failed += counts.get("adapter.execute.failed", 0) + counts.get("adapter.reset_server.failed", 0)
        failed += bool(out.get("aborted")) + out.get("refused", 0)
    return failed


def measured_wall(outputs: dict) -> float:
    return sum(out["wall_s"] for out in outputs.values())


def end_to_end(workload: dict, passes: list[dict], setups: list[dict]) -> dict:
    """Median scaled time of each step; rates are a pass's work over them.

    ``setups`` are the setup-only runs of the first step; with that step's
    own runs they give setup_s its median.

    Filler steps, which exist only so that minimize_s has a value on a clean
    workload, stay out of execs_per_s.
    """
    steps = workload["steps"]
    runs = {step["name"]: [outputs[step["name"]] for outputs in passes if step["name"] in outputs]
            for step in steps}
    seconds = {name: statistics.median(out["scaled_s"] for out in outs) for name, outs in runs.items()}
    campaigns = [step["name"] for step in steps if step["kind"] == "campaign"]
    counted = [step["name"] for step in steps if not step.get("filler")]
    minimize = next(step["name"] for step in steps if step["kind"] == "minimize")
    metrics = {
        "iters_per_s": sum(runs[name][0]["iterations"] for name in campaigns) / sum(seconds[n] for n in campaigns),
        "execs_per_s": sum(runs[name][0]["layers"]["calls"].get("adapter.execute", 0) for name in counted)
        / sum(seconds[name] for name in counted),
        "minimize_s": seconds[minimize],
    }
    for family in FAMILIES:
        hunts = [step["name"] for step in steps if step.get("family") == family]
        # No step arms this family's fault: no finding can come, so the time
        # to first finding is right-censored at the campaigns' time.
        metrics[f"ttff_{family.lower()}_s"] = sum(seconds[name] for name in hunts or campaigns)
    metrics["setup_s"] = statistics.median(
        sum(out["setup"].values()) for out in setups + runs[steps[0]["name"]])
    metrics["peak_rss_mb"] = max(out["rss_mb"] for outs in runs.values() for out in outs)
    return metrics


def layer_totals(outputs: dict) -> dict:
    calls, self_s, counts = Counter(), Counter(), Counter()
    for out in outputs.values():
        calls.update(out["layers"]["calls"])
        self_s.update(out["layers"]["self_s"])
        counts.update(out["layers"]["counts"])
        counts["predicate_calls"] += out.get("predicate_calls", 0)
        counts["settled_votes"] += out.get("settled_votes", 0)
    return {"calls": calls, "self_s": self_s, "counts": counts}


def ratio(numerator: float, denominator: float) -> float:
    """A share; 0 when the layer never ran in this workload."""
    return numerator / denominator if denominator else 0.0


def per_layer(outputs: dict) -> dict:
    t = layer_totals(outputs)
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]
    metrics = {}
    for name in ("trace.synthesize_prompt", "hashing.stable_u64", "simulator.step", "adapter.execute",
                 "mutation.mutate", "confirmation.confirm_suspicion"):
        metrics[name + ".calls"] = calls[name]
    for name in ("trace.synthesize_prompt", "hashing.stable_u64", "simulator.step", "adapter.execute",
                 "adapter.reset_server", "oracles.full_sweep", "oracles.structural_forensics",
                 "telemetry.compute_telemetry", "campaign.novelty", "campaign.loop", "mutation.mutate",
                 "confirmation.confirm_suspicion", "campaign.minimize"):
        metrics[name + ".self_s"] = self_s[name]
    metrics.update({
        "trace.prompt_repeat_ratio": ratio(counts["prompt_repeats"], calls["trace.synthesize_prompt"]),
        "simulator.idle_tick_ratio": ratio(counts["idle_steps"], calls["simulator.step"]),
        "simulator.kv_events": counts["kv_events"],
        "simulator.prefix_hit_ratio": ratio(counts["prefix_hits"], counts["prefix_hits"] + counts["allocs"]),
        "simulator.evicts": counts["evicts"],
        "oracles.suspicions": counts["suspicions"],
        "confirmation.replays": counts["replays"],
        "confirmation.yield": ratio(counts["confirm_findings"], calls["confirmation.confirm_suspicion"]),
        "campaign.minimize.predicate_calls": counts["predicate_calls"],
        "campaign.minimize.settled_vote_ratio": ratio(counts["settled_votes"], counts["predicate_calls"]),
    })
    return metrics


def medians(rows: list[dict]) -> dict:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def run_workload(workload: dict, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat passes for about ``seconds`` and return the result document."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    plain: list[dict] = []
    spanned: list[dict] = []
    first = workload["steps"][0]
    setups = [] if traced else [
        run_step({"step": first, "sim": first["sim"], "traced": False, "setup_only": True},
                 (seed + i) % (1 << 32), deadline)
        for i in range(SETUP_REPEATS)]
    while True:
        pass_start = time.monotonic()
        base = seed * 1_000_003 + len(plain) * 101
        plain.append(run_pass(workload, False, base, deadline, full=not plain and not traced))
        if traced:
            # Traced passes are always full, so per-layer medians compare like
            # passes; the untraced reference skips the long once-steps.
            spanned.append(run_pass(workload, True, base + 50, deadline))
        elapsed = time.monotonic() - started
        # Stop where the next pass would end nearer past --seconds than short of it.
        if elapsed + (time.monotonic() - pass_start) / 2 >= seconds:
            break

    passes = plain + spanned
    problems = [p for outputs in passes for p in check_pass(workload, outputs)]
    attempted = sum(layer_totals(outputs)["calls"]["adapter.execute"] for outputs in passes)
    failed = sum(failed_operations(outputs) for outputs in passes) + len(problems)
    for problem in sorted(set(problems)):
        print(problem, file=sys.stderr)

    if traced:
        values = medians([per_layer(outputs) for outputs in spanned])
        # Overhead over the steps both passes of a round ran.
        untraced = statistics.median(measured_wall(outputs) for outputs in plain)
        overhead = statistics.median(
            sum(outputs[name]["wall_s"] for name in reference) for outputs, reference in zip(spanned, plain)
        ) - untraced
        values["tracer.overhead_s"] = overhead
        values["tracer.overhead_ratio"] = overhead / untraced
        units = metric_units("per_layer")
    else:
        values = end_to_end(workload, plain, setups)
        units = metric_units("end_to_end")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_dir():
        print(f"tracefuzz sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r} (have: {', '.join(workloads)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        result = run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    except StepFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
