"""Command surface: exit codes, artifact handling, and the HTTP round trip.

All invocations go through main(argv) in-process; stdout/stderr are captured
with capsys.
"""

import dataclasses
import json
import pathlib
import shutil
import sys

import pytest

from tracefuzz import campaign, cli
from tracefuzz.adapter import EndpointUnavailable, EngineEndpoint, EngineKind, UnsupportedOperation, execute
from tracefuzz.campaign import PROFILE_STEADY, CampaignConfig, run_campaign
from tracefuzz.cli import EXIT_ENDPOINT, EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main
from tracefuzz.trace import PromptShape, RequestSpec, SamplingConfig, TimedTrace, TraceEvent, deserialize, serialize

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from drift_schedules import drift_schedule  # noqa: E402

from tracefuzz.oracles import BaselineStats, SuspicionKind, full_sweep  # noqa: E402
from tracefuzz.simulator.config import FaultFamily, SimConfig  # noqa: E402
from tracefuzz.simulator.endpoint import serve  # noqa: E402
from tracefuzz.simulator.engine import ALL_CONDITIONS  # noqa: E402


def send(rid, off, plen=16, mt=4, adapter="BASE", fam=None):
    return TraceEvent.send(
        off,
        RequestSpec(
            request_id=rid,
            shape=PromptShape(0, plen),
            sampling=SamplingConfig(max_tokens=mt, temperature=0.0, seed=0),
            prompt_family_id=fam or f"fam-{rid}",
            adapter=adapter,
        ),
    )


def write_trace(tmp_path, trace, name="trace.json"):
    path = tmp_path / name
    path.write_bytes(serialize(trace))
    return path


def drift_trace():
    events = []
    for seq, (when, rid, length, adapter, mt) in enumerate(drift_schedule(ALL_CONDITIONS, tag=0)):
        events.append(send(rid, int(when), plen=length, adapter=adapter, mt=mt, fam=f"fam-{seq}"))
    return TimedTrace("t~drift", tuple(events))


# -- usage errors ------------------------------------------------------------


def test_no_endpoint_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("TRACEFUZZ_ENDPOINT", raising=False)
    assert main(["run", "--budget", "1"]) == EXIT_USAGE
    assert "no endpoint" in capsys.readouterr().err


def test_unknown_fault_family(capsys):
    assert main(["run", "--sim", "--fault", "F9", "--budget", "1"]) == EXIT_USAGE
    assert "unknown fault family" in capsys.readouterr().err


def test_unknown_profile(capsys):
    assert main(["run", "--sim", "--profiles", "bogus", "--budget", "1"]) == EXIT_USAGE
    assert "unknown seed profiles" in capsys.readouterr().err


def test_missing_trace_file(tmp_path, capsys):
    assert main(["confirm", "--trace", str(tmp_path / "nope.json"), "--sim"]) == EXIT_USAGE
    assert "cannot read trace file" in capsys.readouterr().err


def test_a_mistyped_trace_field_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(serialize(TimedTrace("t~typed", (send("a", 0),))))
    doc["events"][0]["sampling"]["n_completions"] = "2"
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", "--trace", str(path), "--sim"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: invalid trace: $.events[0].sampling.n_completions: expected int, got str\n"


# Traces that parse but that validate() rejects; each would run in-process, and
# report a Send listed out of order as dispatched at the wrong time, or leave
# one outcome for two Sends of one id.
INVALID_TRACES = {
    "unsorted-events": TimedTrace("t~unsorted", (send("late", 50), send("early", 0))),
    "duplicate-request-id": TimedTrace("t~twice", (send("a", 0), send("a", 5))),
    "orphaned-control-event": TimedTrace("t~orphan", (TraceEvent.cancel(0, "a"), send("a", 5))),
}


@pytest.mark.parametrize("command", ["replay", "confirm", "minimize"])
@pytest.mark.parametrize("violation", sorted(INVALID_TRACES))
def test_a_trace_that_validate_rejects_is_a_usage_error(tmp_path, capsys, command, violation):
    path = write_trace(tmp_path, INVALID_TRACES[violation])
    assert main([command, "--trace", str(path), "--sim"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid trace: {violation}: ") and captured.err.count("\n") == 1


def test_bad_predicate(tmp_path, capsys):
    path = write_trace(tmp_path, TimedTrace("t~x", (send("r", 0),)))
    assert main(["minimize", "--trace", str(path), "--predicate", "weird", "--sim"]) == EXIT_USAGE
    assert "--predicate" in capsys.readouterr().err


def test_bad_campaign_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"selection_weights": {"novelty": 1.0, "suspicion": 1.0, "pressure": 0.0, "floor": 0.0}}))
    assert main(["run", "--sim", "--config", str(config), "--budget", "1"]) == EXIT_USAGE
    assert "bad campaign config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"confirmation": {"kk": 3}},
        {"thresholds": {"stall_window": 5}},
        {"confirmation": {"relational_aggregate": "majoritty"}},
        ["not", "an", "object"],
        {"thresholds": {"min_baseline_samples": 0}},
        {"confirmation": {"k": 0}},
        {"confirmation": {"top_n": 0}},
    ],
)
def test_bad_config_sections_are_usage_errors(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--sim", "--config", str(config), "--budget", "1"]) == EXIT_USAGE
    assert "bad campaign config" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"iteratons": 1, "rng_sed": 4}, {"pressure_in_selection": True}])
def test_unknown_campaign_config_keys_are_usage_errors(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--sim", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown keys" in err and all(key in err for key in doc)


@pytest.mark.parametrize("command", [["run", "--budget", "1"], ["sim", "--port", "0", "--duration-s", "0.1"]])
@pytest.mark.parametrize(
    "doc",
    [
        {"vocab": 3},
        [1, 2],
        {"faults": [{"family": "nope"}]},
        {"faults": [{}]},
        {"tick_ms": 0},
    ],
)
def test_bad_sim_config_files_are_usage_errors(tmp_path, capsys, doc, command):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(doc))
    assert main([*command, "--sim-config", str(config)]) == EXIT_USAGE
    assert "bad simulator config" in capsys.readouterr().err


def test_replay_k_must_be_positive(tmp_path, capsys):
    path = write_trace(tmp_path, TimedTrace("t~x", (send("r", 0),)))
    assert main(["replay", "--trace", str(path), "--sim", "--k", "0"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", "--top-n", "0"],
        ["confirm", "--k", "0"],
        ["confirm", "--top-n", "0"],
        ["minimize", "--k", "0"],
        ["minimize", "--predicate", "kind:nonsense"],
    ],
)
def test_stage2_settings_that_cannot_work_are_usage_errors(tmp_path, capsys, argv):
    # Under F3 the drift trace crashes, so each command would reach stage 2 or the minimizer.
    path = write_trace(tmp_path, drift_trace())
    assert main([*argv, "--trace", str(path), "--sim", "--fault", "F3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


REMOVED_SETTINGS = {
    "mutation_intensity": 0.05,
    "confirmation.retry_budget": 2,
    "confirmation.probe_count": 16,
    "confirmation.probe_spacing_ms": 40,
    "confirmation.regression_factor": 10.0,
    "confirmation.recovery_factor": 2.0,
}


@pytest.mark.parametrize("key", sorted(REMOVED_SETTINGS))
def test_a_config_json_with_a_removed_setting_is_refused_by_name(clean_campaign, tmp_path, capsys, key):
    # These settings are constants now; a config.json written while they were
    # settings still carries them, and running it must not silently drop one.
    doc = json.loads((clean_campaign[1] / "config.json").read_text())
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = REMOVED_SETTINGS[key]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--sim", "--config", str(config), "--budget", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad campaign config" in err and key.rpartition(".")[2] in err


# -- run ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    code = main(["run", "--sim", "--budget", "4", "--profiles", "steady", "--seed", "4", "--out", str(out)])
    return code, out


def test_clean_run_exits_zero_and_persists(clean_campaign, capsys):
    code, out = clean_campaign
    assert code == EXIT_OK
    assert (out / "summary.json").exists()
    assert (out / "config.json").exists()
    assert (out / "pressure.csv").exists()


def test_a_persisted_config_runs_again(clean_campaign, tmp_path, capsys):
    _, out = clean_campaign
    args = ["run", "--sim", "--config", str(out / "config.json"), "--budget", "1", "--out", str(tmp_path / "again")]
    assert main(args) == EXIT_OK


def test_corpus_seed_flag_overrides_the_config_file_even_at_zero(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus_seed": 5, "profiles": ["steady"]}))
    for flags, expected in (([], 5), (["--corpus-seed", "0"], 0)):
        out = tmp_path / f"out{expected}"
        assert main(["run", "--sim", "--config", str(config), "--budget", "1", "--out", str(out), *flags]) == EXIT_OK
        assert json.loads((out / "config.json").read_text())["corpus_seed"] == expected


def test_run_with_findings_exits_one(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bootstrap_per_profile": 2}))
    code = main([
        "run", "--sim", "--fault", "F3",
        "--config", str(config),
        "--profiles", "lora-mix",
        "--seed", "11",
        "--budget", "30",
        "--stop-on-finding",
        "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_FINDINGS
    assert "confirmed findings:" in captured.out
    assert "finding " in captured.out
    finding_docs = list((tmp_path / "out" / "findings").glob("*.json"))
    assert finding_docs
    doc = json.loads(finding_docs[0].read_text())
    assert doc["verdict"] == "TruePositive"
    # the offending trace is persisted next to the finding
    assert (tmp_path / "out" / "traces" / f"{doc['trace_id']}.json").exists()


def test_run_aborts_after_three_endpoint_failures_in_a_row(monkeypatch, tmp_path, capsys):
    def unavailable(trace, endpoint, corpus_seed=0, canonical_decode=False):
        raise EndpointUnavailable("engine unreachable")

    monkeypatch.setattr(campaign, "execute", unavailable)
    out = tmp_path / "out"
    code = main(["run", "--sim", "--budget", "6", "--profiles", "steady", "--out", str(out)])
    assert code == EXIT_ENDPOINT
    assert "campaign aborted" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] is True
    assert summary["iterations_run"] == 3


# Nothing listens on port 1: every connection to it is refused at once.
DEAD_ENDPOINT = "http://127.0.0.1:1"


@pytest.mark.parametrize("budget", ["1", "2"])
def test_a_run_against_a_dead_endpoint_ends_with_the_endpoint_code(tmp_path, capsys, budget):
    out = tmp_path / "out"
    code = main(["run", "--endpoint", DEAD_ENDPOINT, "--budget", budget, "--profiles", "steady", "--out", str(out)])
    assert code == EXIT_ENDPOINT
    assert "campaign aborted" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] is True and summary["executed_trace_ids"] == []


@pytest.mark.parametrize("command", ["confirm", "replay"])
def test_a_dead_endpoint_ends_confirm_and_replay_with_the_endpoint_code(tmp_path, capsys, command):
    path = write_trace(tmp_path, TimedTrace("t~dead", (send("a", 0),)))
    assert main([command, "--trace", str(path), "--endpoint", DEAD_ENDPOINT]) == EXIT_ENDPOINT
    assert "endpoint failure" in capsys.readouterr().err


@pytest.mark.parametrize("url", ["localhost:8008", "ftp://127.0.0.1:9", "http://", "http://127.0.0.1:99999"])
@pytest.mark.parametrize("through", ["flag", "environment"])
def test_a_malformed_endpoint_is_a_usage_error(monkeypatch, tmp_path, capsys, url, through):
    monkeypatch.setenv("TRACEFUZZ_ENDPOINT", url)
    flag = ["--endpoint", url] if through == "flag" else []
    path = write_trace(tmp_path, TimedTrace("t~malformed", (send("a", 0),)))
    assert main(["run", *flag, "--budget", "3", "--profiles", "steady", "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert main(["confirm", "--trace", str(path), *flag]) == EXIT_USAGE
    assert "bad endpoint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- replay / confirm --------------------------------------------------------------


def test_replay_identical_on_clean_sim(tmp_path, capsys):
    trace = TimedTrace("t~rep", (send("a", 0), send("b", 1)))
    path = write_trace(tmp_path, trace)
    assert main(["replay", "--trace", str(path), "--sim", "--k", "3"]) == EXIT_OK
    assert "3/3 identical" in capsys.readouterr().out


def test_replay_prints_each_divergence(monkeypatch, tmp_path, capsys):
    real_replay = cli.replay

    def diverging_replay(trace, endpoint, **kwargs):
        reports = real_replay(trace, endpoint, **kwargs)
        outcomes = reports[1].outcomes
        tokens = outcomes["a"].output_tokens[0]
        flipped = (tokens[0], tokens[1] + 1) + tokens[2:]
        outcomes["a"] = dataclasses.replace(outcomes["a"], output_tokens=(flipped,))
        outcomes["b"] = dataclasses.replace(outcomes["b"], status="timeout")
        return reports

    monkeypatch.setattr(cli, "replay", diverging_replay)
    path = write_trace(tmp_path, TimedTrace("t~rep", (send("a", 0), send("b", 1))))
    assert main(["replay", "--trace", str(path), "--sim", "--k", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "replay 2: a: first difference at position 1; b: status completed vs timeout" in out
    assert "replay 3: identical to replay 1" in out
    assert "2/3 identical" in out


def test_replay_compares_every_completion_stream(monkeypatch, tmp_path, capsys):
    real_replay = cli.replay

    def diverging_replay(trace, endpoint, **kwargs):
        reports = real_replay(trace, endpoint, **kwargs)
        outcomes = reports[1].outcomes
        first, second = outcomes["a"].output_tokens
        flipped = second[:2] + (second[2] + 1,) + second[3:]
        outcomes["a"] = dataclasses.replace(outcomes["a"], output_tokens=(first, flipped))
        return reports

    monkeypatch.setattr(cli, "replay", diverging_replay)
    spec = RequestSpec(
        request_id="a",
        shape=PromptShape(0, 16),
        sampling=SamplingConfig(max_tokens=4, temperature=0.0, seed=0, n_completions=2),
        prompt_family_id="fam-a",
    )
    path = write_trace(tmp_path, TimedTrace("t~rep", (TraceEvent.send(0, spec),)))
    assert main(["replay", "--trace", str(path), "--sim", "--k", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "replay 2: a stream 1: first difference at position 2" in out
    assert "replay 3: identical to replay 1" in out
    assert "2/3 identical" in out


def test_confirm_clean_trace(tmp_path, capsys):
    path = write_trace(tmp_path, TimedTrace("t~ok", (send("a", 0),)))
    assert main(["confirm", "--trace", str(path), "--sim"]) == EXIT_OK
    assert "no suspicions raised" in capsys.readouterr().out


def test_confirm_crash_trace_exits_one(tmp_path, capsys):
    path = write_trace(tmp_path, drift_trace())
    code = main(["confirm", "--trace", str(path), "--sim", "--fault", "F3"])
    captured = capsys.readouterr()
    assert code == EXIT_FINDINGS
    assert "crash" in captured.out and "TruePositive" in captured.out


# -- minimize ---------------------------------------------------------------------


def test_minimize_crash_trace(tmp_path, capsys):
    path = write_trace(tmp_path, drift_trace())
    out = tmp_path / "small.json"
    code = main([
        "minimize", "--trace", str(path), "--predicate", "crash",
        "--sim", "--fault", "F3", "--k", "1", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert out.exists()
    small = deserialize(out.read_bytes())
    assert len(small.events) <= len(drift_trace().events)
    assert f"-> {len(small.events)} events" in captured.out or "already minimal" in captured.out


@pytest.mark.parametrize("goal", ["kind", "fingerprint"])
def test_minimize_keeps_a_suspicion_kind_or_fingerprint(tmp_path, capsys, goal):
    trace = drift_trace()
    report = execute(trace, EngineEndpoint(EngineKind.SIMULATOR, handle=serve(SimConfig().with_faults(FaultFamily.ADAPTER_DRIFT))))
    crash = next(s for s in full_sweep(report, BaselineStats()) if s.kind is SuspicionKind.CRASH)
    predicate = f"kind:{crash.kind.value}" if goal == "kind" else f"fingerprint:{crash.fingerprint}"
    path, out = write_trace(tmp_path, trace), tmp_path / "small.json"
    code = main([
        "minimize", "--trace", str(path), "--predicate", predicate,
        "--sim", "--fault", "F3", "--k", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    # The drift trace is event-minimal already; its gaps still collapse.
    assert "collapse:" in capsys.readouterr().out
    assert deserialize(out.read_bytes()).events[-1].offset_ms < trace.events[-1].offset_ms


def test_minimize_unreproducible_exits_three(tmp_path, capsys):
    path = write_trace(tmp_path, TimedTrace("t~calm", (send("a", 0),)))
    code = main(["minimize", "--trace", str(path), "--predicate", "crash", "--sim", "--k", "1"])
    assert code == EXIT_ENDPOINT
    assert "unreproducible" in capsys.readouterr().err


# -- endpoints without a reset control ---------------------------------------------


@pytest.fixture
def no_reset_control(monkeypatch):
    def refuse(endpoint):
        raise UnsupportedOperation("endpoint exposes no reset control")

    monkeypatch.setattr(campaign, "reset_server", refuse)
    monkeypatch.setattr(cli, "reset_server", refuse)


def test_run_without_reset_control_is_an_endpoint_failure(no_reset_control, tmp_path, capsys):
    code = main(["run", "--sim", "--budget", "2", "--profiles", "steady", "--out", str(tmp_path / "out")])
    assert code == EXIT_ENDPOINT
    assert "endpoint failure: endpoint exposes no reset control" in capsys.readouterr().err


def test_confirm_without_reset_control_is_an_endpoint_failure(no_reset_control, tmp_path, capsys):
    path = write_trace(tmp_path, TimedTrace("t~ok", (send("a", 0),)))
    assert main(["confirm", "--trace", str(path), "--sim"]) == EXIT_ENDPOINT
    assert "endpoint failure:" in capsys.readouterr().err


def test_minimize_without_reset_control_is_not_an_unreproducible_input(no_reset_control, tmp_path, capsys):
    path = write_trace(tmp_path, drift_trace())
    code = main(["minimize", "--trace", str(path), "--predicate", "crash", "--sim", "--fault", "F3", "--k", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_ENDPOINT
    assert "endpoint failure:" in err
    assert "unreproducible" not in err


# -- report ----------------------------------------------------------------------


def test_report_table_and_json(clean_campaign, capsys):
    _, out = clean_campaign
    assert main(["report", "--campaign", str(out)]) == EXIT_OK
    table = capsys.readouterr().out
    assert "iterations: 4" in table
    assert "findings: none" in table

    assert main(["report", "--campaign", str(out), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["iterations_run"] == 4
    assert doc["findings"] == []


def test_report_lists_findings_and_their_first_iterations(tmp_path, capsys):
    # F2 stalls under the steady profile: one finding, re-raised as duplicates.
    config = CampaignConfig(rng_seed=11, iterations=20, profiles=(PROFILE_STEADY,), bootstrap_per_profile=2)
    endpoint = EngineEndpoint(EngineKind.SIMULATOR, handle=serve(SimConfig(seed=1).with_faults(FaultFamily.ENGINE_STALL)))
    result = run_campaign(config, endpoint, out_dir=tmp_path)
    assert result.findings
    assert main(["report", "--campaign", str(tmp_path)]) == EXIT_OK
    table = capsys.readouterr().out
    assert f"{'kind':24} {'reproductions':>13}  fingerprint" in table
    for fp, record in result.findings.items():
        assert f"{record.finding.kind.value:24} {record.duplicates + 1:>13}  {fp}" in table
    first = sorted({record.first_iteration for record in result.findings.values()})
    assert f"findings first confirmed at iterations: {', '.join(map(str, first))}" in table


def test_report_missing_directory(tmp_path, capsys):
    assert main(["report", "--campaign", str(tmp_path / "void")]) == EXIT_USAGE
    assert "incomplete campaign directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,text",
    [
        ("summary.json", '{"iterations_run": 4, "suspicions'),
        ("summary.json", "[4, 0]"),
        ("findings/abc.json", "{not json"),
        ("findings/abc.json", '"a string"'),
        ("findings/abc.json", '{"fingerprint": "abc"}'),
    ],
)
def test_report_on_an_unreadable_campaign_file_is_a_usage_error(clean_campaign, tmp_path, capsys, name, text):
    copy = tmp_path / "campaign"
    shutil.copytree(clean_campaign[1], copy)
    (copy / name).write_text(text)
    assert main(["report", "--campaign", str(copy)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable campaign file {copy / name}") and err.count("\n") == 1


FINDING = {"fingerprint": "abc", "kind": "stall", "duplicates": 0}


@pytest.mark.parametrize(
    "name,field,value",
    [
        ("summary.json", "pressure_series", 5),
        ("summary.json", "pressure_series", [5]),
        ("summary.json", "pressure_series", [{"iteration": 0, "s_total": "high"}]),
        ("summary.json", "pressure_series", [{"iteration": 0.5, "s_total": 1.0}]),
        ("summary.json", "finding_iterations", [3]),
        ("summary.json", "finding_iterations", {"abc": "3"}),
        ("findings/abc.json", "duplicates", "2"),
        ("findings/abc.json", "kind", 7),
        ("findings/abc.json", "fingerprint", None),
    ],
)
def test_report_on_a_field_of_the_wrong_type_is_a_usage_error(clean_campaign, tmp_path, capsys, name, field, value):
    copy = tmp_path / "campaign"
    shutil.copytree(clean_campaign[1], copy)
    (copy / "findings").mkdir(exist_ok=True)
    (copy / "findings/abc.json").write_text(json.dumps(FINDING))
    doc = json.loads((copy / name).read_text())
    (copy / name).write_text(json.dumps({**doc, field: value}))
    assert main(["report", "--campaign", str(copy)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable campaign file {copy / name}: {field} is not ") and err.count("\n") == 1


def test_report_reads_a_well_typed_finding(clean_campaign, tmp_path, capsys):
    copy = tmp_path / "campaign"
    shutil.copytree(clean_campaign[1], copy)
    (copy / "findings").mkdir(exist_ok=True)
    (copy / "findings/abc.json").write_text(json.dumps(FINDING))
    assert main(["report", "--campaign", str(copy)]) == EXIT_OK
    assert f"{'stall':24} {1:>13}  abc" in capsys.readouterr().out


def test_report_reads_the_series_rows_it_prints_and_has_no_plot_flag(clean_campaign, tmp_path, capsys):
    # A row needs only its iteration and s_total; pressure.csv holds the series for an outside plotter.
    copy = tmp_path / "campaign"
    shutil.copytree(clean_campaign[1], copy)
    path = copy / "summary.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "pressure_series": [{"iteration": 0, "s_total": 1.0}]}))
    assert main(["report", "--campaign", str(copy)]) == EXIT_OK
    assert "pressure: 1 iterations, peak s_total 1.000 at iteration 0" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["report", "--campaign", str(copy), "--plot", str(tmp_path / "p.png")])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --plot" in capsys.readouterr().err


# -- HTTP round trip ----------------------------------------------------------------


def test_replay_against_http_simulator(tmp_path, capsys):
    from tracefuzz.simulator.config import SimConfig
    from tracefuzz.simulator.http import serve_http

    server = serve_http(SimConfig(seed=3))
    try:
        trace = TimedTrace("t~http", (send("a", 0), send("b", 1)))
        path = write_trace(tmp_path, trace)
        code = main(["replay", "--trace", str(path), "--endpoint", server.base_url, "--k", "2"])
        assert code == EXIT_OK
        assert "2/2 identical" in capsys.readouterr().out
    finally:
        server.stop()


def test_sim_subcommand_serves_and_stops(capsys):
    assert main(["sim", "--port", "0", "--duration-s", "0.2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "simulator listening on http://" in out
    assert "armed faults: none" in out
