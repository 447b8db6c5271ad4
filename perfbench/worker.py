"""One step of a benchmark pass, run in a fresh interpreter.

Reads a JSON request on stdin, runs one campaign or one minimize against the
in-process simulator, and prints one JSON result line.  A fresh interpreter
per step starts every in-process cache cold, as ``tracefuzz run`` does.

Request keys: ``step`` (the step spec from workloads.json), ``sim`` (the
simulator spec), ``spawned`` (the parent's ``time.monotonic()`` just before
starting this process; CLOCK_MONOTONIC is shared by all processes on Linux),
``traced``, ``setup_only`` (a campaign step stops once its corpus is
bootstrapped, to time setup alone) and, for minimize steps, ``input_traces``
(serialized traces).

The result carries the step's wall time and, untraced, the same time scaled
to a fixed host speed by the tracer's Yardstick.  The setup time comes in
three parts, scaled by reference timings taken just after the imports.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracefuzz.adapter as adapter  # noqa: E402
import tracefuzz.campaign as campaign  # noqa: E402
from tracefuzz.confirmation import majority_threshold  # noqa: E402
from tracefuzz.hashing import canonical_json  # noqa: E402
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig  # noqa: E402
from tracefuzz.simulator.endpoint import serve  # noqa: E402
from tracefuzz.trace import deserialize, serialize  # noqa: E402

from tracer import REFERENCE_S, Tracer, clock  # noqa: E402

IMPORTED = time.monotonic()

FAMILIES = {"F1": FaultFamily.STALE_KV_REUSE, "F2": FaultFamily.ENGINE_STALL, "F3": FaultFamily.ADAPTER_DRIFT}
PROFILES = {p.name: p for p in campaign.DEFAULT_PROFILES}


def digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:16]


def make_endpoint(sim: dict) -> adapter.EngineEndpoint:
    config = SimConfig(
        seed=sim["seed"],
        near_tie_gap=sim.get("near_tie_gap"),
        faults=tuple(FaultSpec(family=FAMILIES[f]) for f in sim.get("faults", [])),
    )
    return adapter.EngineEndpoint(kind=adapter.EngineKind.SIMULATOR, handle=serve(config))


class VoteLedger:
    """Minimize predicate votes, grouped k at a time per candidate.

    A vote is settled when the group's majority was already decided before it
    was cast; settled votes are what early-exit voting would skip.
    """

    def __init__(self, k: int):
        self.k = k
        self.needed = majority_threshold(k)
        self.candidate = None
        self.cast = self.hits = 0
        self.votes = self.settled = 0

    def record(self, candidate, vote: bool) -> None:
        if candidate is not self.candidate or self.cast == self.k:
            self.candidate, self.cast, self.hits = candidate, 0, 0
        decided = self.hits >= self.needed or self.hits + (self.k - self.cast) < self.needed
        self.settled += decided
        self.votes += 1
        self.cast += 1
        self.hits += vote


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` would do, but Linux carries it over exec from the process
    that spawned this one, so it would report the runner's peak whenever that
    is larger.  VmHWM belongs to this image alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_step(tracer: Tracer, body):
    """Run ``body()``; return its result, wall seconds and scaled seconds.

    Untraced, the reference work runs at both ends so the yardstick covers
    the whole step; its own time is left out of both figures.
    """
    if tracer.timed:
        start = clock()
        result = body()
        wall = clock() - start
        return result, wall, wall
    start = clock()
    tracer.yardstick.measure()
    result = body()
    tracer.yardstick.measure()
    wall, scaled = tracer.yardstick.scaled(start, clock())
    return result, wall, scaled


class SetupDone(Exception):
    """Raised where the first iteration would start, when only setup is timed."""


def run_campaign_step(step: dict, sim: dict, times: dict, tracer: Tracer, setup_only: bool = False) -> dict:
    spec = step["campaign"]
    config = campaign.CampaignConfig(
        rng_seed=spec["rng_seed"],
        iterations=spec["iterations"],
        profiles=tuple(PROFILES[name] for name in spec["profiles"]),
        bootstrap_per_profile=spec["bootstrap_per_profile"],
        corpus_seed=spec["corpus_seed"],
        stop_on_finding=spec["stop_on_finding"],
    )
    endpoint = make_endpoint(sim)

    # Setup ends when the first iteration can start: after bootstrap_corpus.
    bootstrap = campaign.bootstrap_corpus

    def timed_bootstrap(cfg):
        entries = bootstrap(cfg)
        times.setdefault("ready", time.monotonic())
        if setup_only:
            raise SetupDone
        return entries

    campaign.bootstrap_corpus = timed_bootstrap
    if setup_only:
        try:
            campaign.run_campaign(config, endpoint)
        except SetupDone:
            return {}
    result, wall, scaled = measure_step(tracer, lambda: campaign.run_campaign(config, endpoint))
    rss = peak_rss_mb()  # before the result is built: the step's own peak

    findings = {fp: {"kind": rec.finding.kind.value, "first_iteration": rec.first_iteration}
                for fp, rec in result.findings.items()}
    dismissals = {fp: rec.dismissal.reason for fp, rec in result.dismissals.items()}
    # Traces a later minimize step of the pass takes as its input.
    exports = []
    if step.get("export") == "first-executed":
        exports = [result.trace_store[tid] for tid in result.executed_trace_ids[: step["export_count"]]]
    elif step.get("export") == "crash-finding":
        exports = [result.trace_store[result.executed_trace_ids[0]]]
        crashes = sorted((rec.first_iteration, fp) for fp, rec in result.findings.items()
                         if rec.finding.kind.value == "crash")
        if crashes:  # always, unless a shrunken budget stopped the hunt early
            exports = [result.trace_store[result.findings[crashes[0][1]].finding.trace_id]]
    return {
        "wall_s": wall,
        "scaled_s": scaled,
        "rss_mb": rss,
        "iterations": result.iterations_run,
        "aborted": result.aborted,
        "digest": {
            "executed_trace_ids": digest(result.executed_trace_ids),
            "findings": digest(findings),
            "dismissals": digest(dismissals),
        },
        "finding_kinds": sorted({f["kind"] for f in findings.values()}),
        "dismissal_reasons": sorted(set(dismissals.values())),
        "exports": [serialize(trace).decode() for trace in exports],
    }


def run_minimize_step(step: dict, sim: dict, input_traces: list[str], times: dict, tracer: Tracer) -> dict:
    endpoint = make_endpoint(sim)
    originals = [deserialize(text) for text in input_traces]
    ledger = VoteLedger(step["k"])
    want_crash = step["predicate"] == "crash"

    def predicate(candidate) -> bool:
        adapter.reset_server(endpoint)
        report = adapter.execute(candidate, endpoint)
        if want_crash:
            vote = report.server_crashed
        else:  # the clean-engine property: no crash, nothing errored or timed out
            vote = not report.server_crashed and all(
                o.status not in ("server_error", "timeout") for o in report.outcomes.values())
        ledger.record(candidate, vote)
        return vote

    def minimize_all() -> list:
        minimized = []
        for original in originals:
            try:
                minimized.append(serialize(campaign.minimize(original, predicate, k=step["k"])).decode())
            except ValueError:  # the input does not reproduce under majority vote
                minimized.append(None)
        return minimized

    times["ready"] = time.monotonic()
    minimized, wall, scaled = measure_step(tracer, minimize_all)
    rss = peak_rss_mb()  # before the result is built: the step's own peak
    return {
        "wall_s": wall,
        "scaled_s": scaled,
        "rss_mb": rss,
        "refused": minimized.count(None),
        "digest": {"minimized": digest(minimized)},
        "predicate_calls": ledger.votes,
        "settled_votes": ledger.settled,
    }


def main() -> int:
    request = json.loads(sys.stdin.read())
    step = request["step"]
    tracer = Tracer(timed=request["traced"])
    tracer.install()
    # The host's speed during setup, from reference timings taken right after it.
    speed = REFERENCE_S / statistics.median(tracer.yardstick.measure() for _ in range(9))
    times: dict = {"from": time.monotonic()}
    if step["kind"] == "campaign":
        out = run_campaign_step(step, request["sim"], times, tracer, request.get("setup_only", False))
    else:
        out = run_minimize_step(step, request["sim"], request["input_traces"], times, tracer)
    out["setup"] = {
        "interpreter": (STARTED - request["spawned"]) * speed,
        "imports": (IMPORTED - STARTED) * speed,
        "step": (times["ready"] - times["from"]) * speed,
    }
    out["layers"] = tracer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
