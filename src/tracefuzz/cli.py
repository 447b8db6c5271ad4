"""Operator command surface.

Exit codes are a contract scripts can gate on: 0 success, 1 at least one
confirmed finding (run/confirm), 2 usage or configuration error, 3 endpoint
failure or an unreproducible input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .adapter import EndpointUnavailable, EngineEndpoint, EngineKind, UnsupportedOperation, execute, reset_server
from .campaign import (
    DEFAULT_PROFILES,
    CampaignConfig,
    minimize,
    run_campaign,
)
from .confirmation import ConfirmationConfig, Finding, confirm_suspicion, first_difference, replay
from .oracles import BaselineStats, OracleThresholds, full_sweep
from .simulator.config import FaultFamily, FaultSpec, SimConfig
from .simulator.endpoint import serve
from .trace import TraceFormatError, deserialize, serialize

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_ENDPOINT = 3

_FAULTS = {
    "f1": FaultFamily.STALE_KV_REUSE,
    "stale_kv_reuse": FaultFamily.STALE_KV_REUSE,
    "f2": FaultFamily.ENGINE_STALL,
    "engine_stall": FaultFamily.ENGINE_STALL,
    "f3": FaultFamily.ADAPTER_DRIFT,
    "adapter_drift": FaultFamily.ADAPTER_DRIFT,
}

_PROFILES = {p.name: p for p in DEFAULT_PROFILES}


class UsageError(Exception):
    pass


# --------------------------------------------------------------------------
# Shared flag groups and loaders


def _add_endpoint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--endpoint", default=os.environ.get("TRACEFUZZ_ENDPOINT"), help="base URL of a serving endpoint")
    p.add_argument("--sim", action="store_true", help="autostart an in-process simulator endpoint")
    p.add_argument("--sim-config", type=Path, help="simulator config JSON (implies --sim)")
    p.add_argument("--fault", action="append", default=[], metavar="FAMILY", help="arm a simulator fault (F1|F2|F3)")
    p.add_argument("--corpus-seed", type=int, default=0, help="prompt-synthesis seed")


def _sim_config(args) -> SimConfig:
    if getattr(args, "sim_config", None):
        try:
            doc = json.loads(Path(args.sim_config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot load simulator config: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("bad simulator config: the top level must be a JSON object")
        try:
            config = SimConfig.from_dict(doc)
        except (TypeError, ValueError, KeyError) as exc:
            raise UsageError(f"bad simulator config: {exc}") from exc
    else:
        config = SimConfig()
    extra = []
    for name in args.fault:
        family = _FAULTS.get(name.lower())
        if family is None:
            raise UsageError(f"unknown fault family {name!r}; expected one of F1, F2, F3")
        if config.fault(family) is None and family not in [f.family for f in extra]:
            extra.append(FaultSpec(family=family))
    if extra:
        from dataclasses import replace

        config = replace(config, faults=config.faults + tuple(extra))
    return config


def _make_endpoint(args) -> EngineEndpoint:
    if args.sim or getattr(args, "sim_config", None):
        handle = serve(_sim_config(args))
        return EngineEndpoint(kind=EngineKind.SIMULATOR, handle=handle)
    if args.endpoint:
        return EngineEndpoint(kind=EngineKind.OPENAI, base_url=args.endpoint)
    raise UsageError("no endpoint: pass --endpoint URL, --sim, or set TRACEFUZZ_ENDPOINT")


def _load_trace(path: Path):
    try:
        return deserialize(Path(path).read_bytes())
    except OSError as exc:
        raise UsageError(f"cannot read trace file: {exc}") from exc
    except TraceFormatError as exc:
        raise UsageError(f"invalid trace: {exc}") from exc


def _campaign_config(args) -> CampaignConfig:
    doc: dict = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot load campaign config: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("bad campaign config: the top level must be a JSON object")
    # Any key a persisted config.json holds is accepted, so one can be run
    # again; its "endpoint" record is rebuilt from the flags.
    unknown = sorted(set(doc) - set(CampaignConfig().to_dict()))
    if unknown:
        raise UsageError(f"bad campaign config: unknown keys {', '.join(unknown)}")
    kwargs: dict = {}
    for key in (
        "rng_seed",
        "iterations",
        "time_budget_s",
        "mutation_weights",
        "selection_weights",
        "corpus_seed",
        "bootstrap_per_profile",
        "corpus_cap",
        "stop_on_finding",
        "mutation_intensity",
    ):
        if key in doc:
            kwargs[key] = doc[key]
    profile_names = doc.get("profiles")
    if args.profiles:
        profile_names = [s.strip() for s in args.profiles.split(",") if s.strip()]
    if profile_names:
        unknown = [n for n in profile_names if n not in _PROFILES]
        if unknown:
            raise UsageError(f"unknown seed profiles: {', '.join(unknown)} (have: {', '.join(sorted(_PROFILES))})")
        kwargs["profiles"] = tuple(_PROFILES[n] for n in profile_names)
    if args.budget is not None:
        kwargs["iterations"] = args.budget
    if args.seed is not None:
        kwargs["rng_seed"] = args.seed
    if args.stop_on_finding:
        kwargs["stop_on_finding"] = True
    if args.corpus_seed:
        kwargs["corpus_seed"] = args.corpus_seed
    kwargs["endpoint_descriptor"] = {"endpoint": args.endpoint, "sim": bool(args.sim or args.sim_config), "faults": list(args.fault)}
    try:
        if "thresholds" in doc:
            kwargs["thresholds"] = OracleThresholds(**doc["thresholds"])
        if "confirmation" in doc:
            kwargs["confirmation"] = ConfirmationConfig(**doc["confirmation"])
        return CampaignConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad campaign config: {exc}") from exc


# --------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    config = _campaign_config(args)
    endpoint = _make_endpoint(args)
    result = run_campaign(config, endpoint, out_dir=args.out)
    print(f"iterations executed: {result.iterations_run}")
    print(f"suspicions raised:   {len(result.suspicions_raised)}")
    print(f"confirmed findings:  {len(result.findings)}")
    print(f"dismissed:           {len(result.dismissals)}")
    print(f"corpus size:         {len(result.corpus)}")
    print(f"output directory:    {args.out}")
    for fp in result.finding_fingerprints():
        record = result.findings[fp]
        print(f"  finding {fp} kind={record.finding.kind.value} trace={record.finding.trace_id}")
    if result.aborted:
        print("campaign aborted: endpoint permanently unrecoverable (partial results persisted)", file=sys.stderr)
        return EXIT_ENDPOINT
    return EXIT_FINDINGS if result.findings else EXIT_OK


def cmd_replay(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    trace = _load_trace(args.trace)
    endpoint = _make_endpoint(args)
    reports = replay(trace, endpoint, k=args.k, top_n=args.top_n, corpus_seed=args.corpus_seed)
    reference = reports[0]
    identical = 0
    for i, report in enumerate(reports, start=1):
        divergences = []
        for rid in sorted(reference.outcomes):
            ref_out = reference.outcomes[rid]
            out = report.outcomes.get(rid)
            if out is None or out.status != ref_out.status:
                divergences.append(f"{rid}: status {ref_out.status} vs {out.status if out else 'missing'}")
                continue
            ref_tokens = ref_out.output_tokens[0] if ref_out.output_tokens else ()
            tokens = out.output_tokens[0] if out.output_tokens else ()
            pos = first_difference(ref_tokens, tokens)
            if pos is not None:
                divergences.append(f"{rid}: first difference at position {pos}")
        if divergences:
            print(f"replay {i}: " + "; ".join(divergences))
        else:
            identical += 1
            print(f"replay {i}: identical to replay 1")
    print(f"{identical}/{len(reports)} identical")
    return EXIT_OK


def cmd_confirm(args) -> int:
    trace = _load_trace(args.trace)
    endpoint = _make_endpoint(args)
    config = ConfirmationConfig(top_n=args.top_n, epsilon=args.epsilon, k=args.k)
    thresholds = OracleThresholds()
    reset_server(endpoint)
    report = execute(trace, endpoint, corpus_seed=args.corpus_seed)
    suspicions = full_sweep(trace, report, BaselineStats(), thresholds, args.corpus_seed)
    if not suspicions:
        print("no suspicions raised")
        return EXIT_OK
    confirmed = 0
    for susp in suspicions:
        outcome = confirm_suspicion(
            susp, trace, endpoint, config, original_report=report, corpus_seed=args.corpus_seed, thresholds=thresholds
        )
        if isinstance(outcome, Finding):
            confirmed += 1
            print(f"{susp.kind.value} {susp.fingerprint}: TruePositive")
        else:
            print(f"{susp.kind.value} {susp.fingerprint}: {outcome.verdict.value} ({outcome.reason})")
    print(f"{confirmed}/{len(suspicions)} suspicions confirmed")
    return EXIT_FINDINGS if confirmed else EXIT_OK


def cmd_minimize(args) -> int:
    goal = args.predicate
    if goal != "crash" and not goal.startswith("kind:") and not goal.startswith("fingerprint:"):
        raise UsageError("--predicate must be 'crash', 'kind:<suspicion-kind>', or 'fingerprint:<fp>'")
    trace = _load_trace(args.trace)
    endpoint = _make_endpoint(args)
    thresholds = OracleThresholds()

    def predicate(candidate) -> bool:
        # A transient failure is a lost vote; a missing reset control
        # (UnsupportedOperation) ends the command as an endpoint failure.
        try:
            reset_server(endpoint)
            report = execute(candidate, endpoint, corpus_seed=args.corpus_seed)
        except (EndpointUnavailable, OSError):
            return False
        if goal == "crash":
            return report.server_crashed
        suspicions = full_sweep(candidate, report, BaselineStats(), thresholds, args.corpus_seed)
        if goal.startswith("kind:"):
            return any(s.kind.value == goal[len("kind:") :] for s in suspicions)
        return any(s.fingerprint == goal[len("fingerprint:") :] for s in suspicions)

    log: list[dict] = []
    try:
        minimized = minimize(trace, predicate, k=args.k, log_sink=log)
    except ValueError as exc:
        print(f"unreproducible input: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    out = args.out or Path(str(args.trace) + ".min.json")
    Path(out).write_bytes(serialize(minimized))
    for entry in log:
        print(f"{entry['phase']}: {entry['events_before']} -> {entry['events_after']} events")
    if not log:
        print("already minimal: no events removed")
    print(f"events: {len(trace.events)} -> {len(minimized.events)}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_sim(args) -> int:
    from .simulator.http import serve_http

    config = _sim_config(args)
    server = serve_http(config, host=args.host, port=args.port)
    print(f"simulator listening on {server.base_url}", flush=True)
    armed = ", ".join(f.family.value for f in config.faults) or "none"
    print(f"armed faults: {armed}", flush=True)
    try:
        if args.duration_s is not None:
            time.sleep(args.duration_s)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def cmd_report(args) -> int:
    root = Path(args.campaign)
    summary_path = root / "summary.json"
    pressure_path = root / "pressure.csv"
    if not summary_path.exists() or not pressure_path.exists():
        print(f"incomplete campaign directory: {root}", file=sys.stderr)
        return EXIT_USAGE
    summary = json.loads(summary_path.read_text())
    findings = []
    findings_dir = root / "findings"
    if findings_dir.is_dir():
        for path in sorted(findings_dir.glob("*.json")):
            findings.append(json.loads(path.read_text()))

    if args.format == "json":
        doc = {"summary": summary, "findings": findings}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"iterations: {summary.get('iterations_run', 0)}")
        print(f"suspicions: {summary.get('suspicions_raised', 0)}")
        print(f"regression checks skipped: {summary.get('regression_checks_skipped', 0)}")
        print(f"corpus size: {summary.get('corpus_size', 0)}")
        if findings:
            print(f"{'kind':24} {'reproductions':>13}  fingerprint")
            for doc in findings:
                repro = doc.get("duplicates", 0) + 1
                print(f"{doc['kind']:24} {repro:>13}  {doc['fingerprint']}")
        else:
            print("findings: none")
        series = summary.get("pressure_series", [])
        if series:
            finding_iters = set(summary.get("finding_iterations", {}).values())
            peak = max(series, key=lambda row: row["s_total"])
            print(f"pressure: {len(series)} iterations, peak s_total {peak['s_total']:.3f} at iteration {peak['iteration']}")
            if finding_iters:
                flagged = ", ".join(str(i) for i in sorted(finding_iters))
                print(f"findings first confirmed at iterations: {flagged}")

    if args.plot:
        code = _emit_plot(summary, Path(args.plot))
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _emit_plot(summary: dict, out: Path) -> int:
    series = summary.get("pressure_series", [])
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping plot (series data is in summary.json)", file=sys.stderr)
        return EXIT_OK
    xs = [row["iteration"] for row in series]
    parts = ["burst", "multi_adapter", "kv_pressure", "shape_diversity"]
    stacks = [[row["components"][p] for row in series] for p in parts]
    best = [row["best_so_far"] for row in series]
    fig, ax = plt.subplots(figsize=(8, 4))
    if xs:
        ax.stackplot(xs, stacks, labels=parts, alpha=0.8)
        ax.plot(xs, best, color="black", linewidth=1.2, label="highest so far")
    ax.set_xlabel("iteration")
    ax.set_ylabel("pressure score")
    ax.legend(loc="upper left", fontsize=8)
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print(f"wrote {out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracefuzz", description="Greybox fuzzing of LLM serving engines with timed request traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a fuzzing campaign")
    p.add_argument("--config", type=Path, help="campaign config JSON")
    p.add_argument("--out", type=Path, default=Path("campaign-out"))
    p.add_argument("--budget", "--iterations", dest="budget", type=int, default=None, help="iteration budget")
    p.add_argument("--seed", type=int, default=None, help="campaign rng seed")
    p.add_argument("--profiles", help="comma-separated seed profile names")
    p.add_argument("--stop-on-finding", action="store_true")
    _add_endpoint_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("replay", help="replay a trace k times and diff the outputs")
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--top-n", type=int, default=5)
    _add_endpoint_flags(p)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("confirm", help="execute a trace, raise suspicions, and confirm them")
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--top-n", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=0.1)
    _add_endpoint_flags(p)
    p.set_defaults(fn=cmd_confirm)

    p = sub.add_parser("minimize", help="shrink a trace while a predicate keeps reproducing")
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--predicate", default="crash", help="crash | kind:<suspicion-kind> | fingerprint:<fp>")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--out", type=Path, default=None)
    _add_endpoint_flags(p)
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("sim", help="serve the simulator over HTTP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8008)
    p.add_argument("--duration-s", type=float, default=None, help="exit after this many seconds (default: run until interrupted)")
    p.add_argument("--sim-config", type=Path)
    p.add_argument("--fault", action="append", default=[], metavar="FAMILY")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("report", help="summarize a campaign directory")
    p.add_argument("--campaign", type=Path, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--plot", type=Path, default=None, help="write a pressure stack plot PNG")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EndpointUnavailable, UnsupportedOperation) as exc:
        print(f"endpoint failure: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT


if __name__ == "__main__":
    sys.exit(main())
