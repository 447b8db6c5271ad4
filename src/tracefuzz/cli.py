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
from itertools import zip_longest
from pathlib import Path

from .adapter import EndpointUnavailable, EngineEndpoint, EngineKind, UnsupportedOperation, execute, reset_server
from .campaign import CampaignConfig, minimize, run_campaign
from .confirmation import ConfirmationConfig, Finding, confirm_suspicion, replay
from .oracles import BaselineStats, OracleThresholds, SuspicionKind, first_difference, full_sweep
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

# The pressure components `report --plot` stacks, as PressureScore.components() names them.
PLOT_PARTS = ("burst", "multi_adapter", "kv_pressure", "shape_diversity")


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
    """The --config file (any persisted config.json runs again) under the run flags."""
    doc: dict = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot load campaign config: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("bad campaign config: the top level must be a JSON object")
    profiles = [s.strip() for s in (args.profiles or "").split(",") if s.strip()]
    if profiles:
        doc["profiles"] = profiles
    if args.budget is not None:
        doc["iterations"] = args.budget
    if args.seed is not None:
        doc["rng_seed"] = args.seed
    if args.stop_on_finding:
        doc["stop_on_finding"] = True
    if args.corpus_seed is not None:
        doc["corpus_seed"] = args.corpus_seed
    try:
        config = CampaignConfig.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad campaign config: {exc}") from exc
    config.endpoint_descriptor = {"endpoint": args.endpoint, "sim": bool(args.sim or args.sim_config), "faults": list(args.fault)}
    return config


def _confirmation_config(args) -> ConfirmationConfig:
    """The stage-2 flags (replay has no --epsilon); a value stage 2 cannot use is a usage error."""
    epsilon = getattr(args, "epsilon", ConfirmationConfig.epsilon)
    try:
        return ConfirmationConfig(top_n=args.top_n, epsilon=epsilon, k=args.k)
    except ValueError as exc:
        raise UsageError(f"bad confirmation settings: {exc}") from exc


# --------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    config = _campaign_config(args)
    endpoint = _make_endpoint(args)
    result = run_campaign(config, endpoint, out_dir=args.out)
    print(f"iterations executed: {result.iterations_run}")
    print(f"suspicions raised:   {result.suspicions_raised}")
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
    config = _confirmation_config(args)
    trace = _load_trace(args.trace)
    endpoint = _make_endpoint(args)
    reports = replay(trace, endpoint, k=config.k, top_n=config.top_n, corpus_seed=args.corpus_seed)
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
            streams = zip_longest(ref_out.output_tokens, out.output_tokens, fillvalue=())  # a missing stream is empty
            for stream, (ref_tokens, tokens) in enumerate(streams):
                pos = first_difference(ref_tokens, tokens)
                if pos is not None:
                    where = rid if stream == 0 else f"{rid} stream {stream}"
                    divergences.append(f"{where}: first difference at position {pos}")
        if divergences:
            print(f"replay {i}: " + "; ".join(divergences))
        else:
            identical += 1
            print(f"replay {i}: identical to replay 1")
    print(f"{identical}/{len(reports)} identical")
    return EXIT_OK


def cmd_confirm(args) -> int:
    config = _confirmation_config(args)
    trace = _load_trace(args.trace)
    endpoint = _make_endpoint(args)
    thresholds = OracleThresholds()
    reset_server(endpoint)
    report = execute(trace, endpoint, corpus_seed=args.corpus_seed)
    suspicions = full_sweep(report, BaselineStats(), thresholds)
    if not suspicions:
        print("no suspicions raised")
        return EXIT_OK
    confirmed = 0
    for susp in suspicions:
        outcome = confirm_suspicion(susp, report, endpoint, config, thresholds)
        if isinstance(outcome, Finding):
            confirmed += 1
            print(f"{susp.kind.value} {susp.fingerprint}: TruePositive")
        else:
            print(f"{susp.kind.value} {susp.fingerprint}: {outcome.verdict.value} ({outcome.reason})")
    print(f"{confirmed}/{len(suspicions)} suspicions confirmed")
    return EXIT_FINDINGS if confirmed else EXIT_OK


def cmd_minimize(args) -> int:
    goal, _, target = args.predicate.partition(":")
    kinds = [kind.value for kind in SuspicionKind]
    if args.predicate != "crash" and not (goal == "kind" and target in kinds or goal == "fingerprint" and target):
        raise UsageError(f"--predicate must be 'crash', 'kind:<{'|'.join(kinds)}>', or 'fingerprint:<fp>'")
    if args.k < 1:
        raise UsageError("--k must be >= 1")
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
        if args.predicate == "crash":
            return report.server_crashed
        suspicions = full_sweep(report, BaselineStats(), thresholds)
        return any(target == (s.kind.value if goal == "kind" else s.fingerprint) for s in suspicions)

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
    summary = _read_object(summary_path)
    series = summary.get("pressure_series", [])
    rows_hold = isinstance(series, list) and all(
        isinstance(row, dict) and _numeric(row.get("s_total")) and type(row.get("iteration")) is int
        for row in series
    )
    _require(summary_path, "pressure_series", "a list of objects with numeric s_total and int iteration", rows_hold)
    if args.plot:
        plottable = all(
            _numeric(row.get("best_so_far"))
            and isinstance(row.get("components"), dict)
            and all(_numeric(row["components"].get(part)) for part in PLOT_PARTS)
            for row in series
        )
        _require(summary_path, "pressure_series", "plottable: a row lacks numeric best_so_far or components", plottable)
    finding_iterations = summary.get("finding_iterations", {})
    iterations_hold = isinstance(finding_iterations, dict) and all(type(i) is int for i in finding_iterations.values())
    _require(summary_path, "finding_iterations", "an object of int iterations", iterations_hold)
    findings = []
    findings_dir = root / "findings"
    if findings_dir.is_dir():
        for path in sorted(findings_dir.glob("*.json")):
            doc = _read_object(path, "kind", "fingerprint")
            for key in ("kind", "fingerprint"):
                _require(path, key, "a string", isinstance(doc[key], str))
            _require(path, "duplicates", "an int", type(doc.get("duplicates", 0)) is int)
            findings.append(doc)

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
        if series:
            finding_iters = set(finding_iterations.values())
            peak = max(series, key=lambda row: row["s_total"])
            print(f"pressure: {len(series)} iterations, peak s_total {peak['s_total']:.3f} at iteration {peak['iteration']}")
            if finding_iters:
                flagged = ", ".join(str(i) for i in sorted(finding_iters))
                print(f"findings first confirmed at iterations: {flagged}")

    if args.plot:
        _emit_plot(summary, Path(args.plot))
    return EXIT_OK


def _read_object(path: Path, *keys: str) -> dict:
    """A campaign file's JSON object, holding ``keys``; anything else is a usage error."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"unreadable campaign file {path}: {exc}") from exc
    if not isinstance(doc, dict) or not all(key in doc for key in keys):
        with_keys = f" with {', '.join(keys)}" if keys else ""
        raise UsageError(f"unreadable campaign file {path}: not a JSON object{with_keys}")
    return doc


def _require(path: Path, field: str, what: str, holds: bool) -> None:
    """A usage error naming the campaign file and its field unless the field ``holds`` to ``what``."""
    if not holds:
        raise UsageError(f"unreadable campaign file {path}: {field} is not {what}")


def _numeric(value) -> bool:
    return type(value) in (int, float)


def _emit_plot(summary: dict, out: Path) -> None:
    series = summary.get("pressure_series", [])
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping plot (series data is in summary.json)", file=sys.stderr)
        return
    xs = [row["iteration"] for row in series]
    stacks = [[row["components"][p] for row in series] for p in PLOT_PARTS]
    best = [row["best_so_far"] for row in series]
    fig, ax = plt.subplots(figsize=(8, 4))
    if xs:
        ax.stackplot(xs, stacks, labels=PLOT_PARTS, alpha=0.8)
        ax.plot(xs, best, color="black", linewidth=1.2, label="highest so far")
    ax.set_xlabel("iteration")
    ax.set_ylabel("pressure score")
    ax.legend(loc="upper left", fontsize=8)
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print(f"wrote {out}")


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
    p.set_defaults(fn=cmd_run, corpus_seed=None)  # unset, a config file's corpus_seed stands

    p = sub.add_parser("replay", help="replay a trace k times and diff the outputs")
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--k", type=int, default=ConfirmationConfig.k)
    p.add_argument("--top-n", type=int, default=ConfirmationConfig.top_n)
    _add_endpoint_flags(p)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("confirm", help="execute a trace, raise suspicions, and confirm them")
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--k", type=int, default=ConfirmationConfig.k)
    p.add_argument("--top-n", type=int, default=ConfirmationConfig.top_n)
    p.add_argument("--epsilon", type=float, default=ConfirmationConfig.epsilon)
    _add_endpoint_flags(p)
    p.set_defaults(fn=cmd_confirm)

    p = sub.add_parser("minimize", help="shrink a trace while a predicate keeps reproducing")
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--predicate", default="crash", help="crash | kind:<suspicion-kind> | fingerprint:<fp>")
    p.add_argument("--k", type=int, default=ConfirmationConfig.k)
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
