from __future__ import annotations

import json
import os
import re
import time

import pytest
from click.testing import CliRunner

from patentgen.agents import AgentError, AgentRuntime
from patentgen.bench import MetricConfig
from patentgen.cli import main
from patentgen.core import draft_to_record, load_json, make_draft
from patentgen.datakit import SFT_KINDS
from patentgen.gateway import HttpBackend, MockBackend, MockPlaybook
from helpers import (FAIL_QUALITY, MATCH_COLLECT, MATCH_EXPAND, MATCH_INVENTOR, MATCH_PLANNER,
                     MATCH_QUALITY, PASS_QUALITY, pipeline_playbook, rule, tree_contents)

RUNNER = CliRunner()


def _write_draft(path, marker="plain"):
    draft = make_draft(
        {
            1: f"The problem is unreliable control ({marker}).",
            2: f"Existing fixed-gain controllers fall short ({marker}).",
            3: f"An adaptive gain loop solves it ({marker}).",
            4: f"Protect the gain scheduler ({marker}).",
            5: f"Figure 1 shows the loop ({marker}).",
        },
        source_id=marker,
    )
    path.write_text(json.dumps(draft_to_record(draft)), "utf-8")
    return path


def _write_config(path, playbook_path, retry_max=0):
    config = {
        "schema_version": "run-config-v1",
        "backends": {
            "default": {
                "kind": "mock",
                "playbook_path": str(playbook_path),
                "retry_max": retry_max,
                "backoff_s": 0.0,
            }
        },
    }
    path.write_text(json.dumps(config), "utf-8")
    return path


def _setup_generate(tmp_path, playbook: MockPlaybook):
    draft_file = _write_draft(tmp_path / "draft.json")
    playbook_path = tmp_path / "playbook.json"
    playbook.save(playbook_path)
    config_file = _write_config(tmp_path / "config.json", playbook_path)
    return draft_file, config_file


def test_generate_complete_run(tmp_path):
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert (out / "patent.txt").exists()
    assert load_json(out / "status.json")["status"] == "complete"


def test_generate_validates_draft(tmp_path):
    record = {"qa": [{"question_id": i, "answer_text": f"a{i}"} for i in (1, 2, 3, 5)]}
    draft_file = tmp_path / "bad_draft.json"
    draft_file.write_text(json.dumps(record), "utf-8")
    playbook_path = tmp_path / "pb.json"
    pipeline_playbook().save(playbook_path)
    config_file = _write_config(tmp_path / "config.json", playbook_path)
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 1
    assert "missing question 4" in result.output


def test_generate_partial_run_exits_2(tmp_path):
    playbook = pipeline_playbook(
        extra_rules=[rule("Just output this subsection", {"error": "transport"})]
    )
    draft_file, config_file = _setup_generate(tmp_path, playbook)
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 2
    assert load_json(out / "status.json")["status"] == "partial"
    assert (out / "components.json").exists()


def test_generate_falls_back_to_one_node_after_empty_expansions(tmp_path):
    playbook = pipeline_playbook(extra_rules=[rule(MATCH_EXPAND, "<Subsection-1> </Subsection-1>")])
    draft_file, config_file = _setup_generate(tmp_path, playbook)
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    tree = load_json(out / "pgtree.json")
    assert [len(section["subsections"]) for section in tree["sections"]] == [1, 1]
    warnings = load_json(out / "warnings.json")["warnings"]
    assert sum("block <Subsection-1> is empty" in w for w in warnings) == 2
    calls = (out / "calls.jsonl").read_text("utf-8").splitlines()
    roles = [json.loads(line)["agent_role"] for line in calls]
    assert roles.count("section_expand") == 6  # each section asked, then re-asked twice


def test_generate_aborts_on_an_agent_error_and_keeps_partial_output(tmp_path, monkeypatch):
    def refuse(self, draft, overview):
        raise AgentError("expansion refused")

    monkeypatch.setattr(AgentRuntime, "expand_section", refuse)
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "run aborted: expansion refused" in result.output
    assert load_json(out / "status.json")["status"] == "partial"
    assert (out / "components.json").exists()


_MALFORMED_DRAFTS = {
    "qa_string": {"qa": "x"},
    "answer_int": {"qa": [{"question_id": i, "answer_text": 5} for i in range(1, 6)]},
    "entry_string": {"qa": ["x"]},
    # Complete drafts but for one ID.
    "question_id_bool": {"qa": [{"question_id": True, "answer_text": "a1"}]
                         + [{"question_id": i, "answer_text": f"a{i}"} for i in range(2, 6)]},
    "source_id_int": {"qa": [{"question_id": i, "answer_text": f"a{i}"} for i in range(1, 6)],
                      "source_id": 7},
    "question_id_twice": {"qa": [{"question_id": i, "answer_text": f"a{i}"}
                                 for i in (1, 1, 2, 3, 4, 5)]},
}


@pytest.mark.parametrize("case", list(_MALFORMED_DRAFTS))
def test_generate_malformed_draft_is_invalid_input(tmp_path, monkeypatch, case):
    draft_file = tmp_path / "bad_draft.json"
    draft_file.write_text(json.dumps(_MALFORMED_DRAFTS[case]), "utf-8")
    playbook_path = tmp_path / "pb.json"
    pipeline_playbook().save(playbook_path)
    config_file = _write_config(tmp_path / "config.json", playbook_path)
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")
    assert not out.exists()
    assert calls == []


def test_generate_rejects_unknown_agent_role(tmp_path):
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    config = load_json(config_file)
    config["agents"] = {"examinr": {"temperature": 0.1}}
    config_file.write_text(json.dumps(config), "utf-8")
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 1
    assert "unknown agent role 'examinr'" in result.output
    assert not out.exists()


def _backend_calls(monkeypatch) -> list:
    """Record every request that reaches a mock backend."""
    calls: list = []
    send = MockBackend.send
    monkeypatch.setattr(MockBackend, "send", lambda self, req: calls.append(req) or send(self, req))
    return calls


def _set_key(config: dict, path: str, value) -> None:
    *parents, key = path.split(".")
    for name in parents:
        config = config.setdefault(name, {})
    config[key] = value


@pytest.mark.parametrize(
    "path, value, named",
    [
        ("agents.title.temperature", "hot", "agents.title.temperature"),
        ("agents.title.max_tokens", 0, "agents.title: max_tokens"),
        ("agents.planner.parse_retry_max", "2", "agents.planner.parse_retry_max"),
        ("agents.examiner.backend", "nope", "agents.examiner.backend"),
        ("backends.default.retry_max", "2", "backends.default.retry_max"),
        ("backends.default.backoff_s", -1, "backends.default: retry_max and backoff_s"),
        ("pipeline.parallel_subsections", 2,
         "pipeline: unknown keys ['parallel_subsections']"),
        ("pipeline.max_refine_rounds", True, "pipeline.max_refine_rounds"),
        ("pipeline.section_order", ["title", "abstract"], "pipeline: section_order"),
        ("cache_dir", 5, "cache_dir"),
        ("agents.examiner.max_tokens", 40000, "agents.examiner.max_tokens: 40000 exceeds"),
        ("backends.default.max_tokens_limit", 4096, "agents.description.max_tokens: 8192"),
        ("backends.default.max_inflight", 0, "backends.default: max_inflight must be >= 1"),
        ("backends.default.max_inflight", 2.5, "backends.default.max_inflight"),
        ("pipeline.seed", 0, "pipeline: unknown keys ['seed']"),
        ("backends.default.playbook_path", "", "backends.default: a mock backend needs a "
                                               "playbook_path"),
        ("agents.title.role", "title", "agents.title: unknown keys ['role']"),
        ("agents.title", "hot", "agents.title must be a JSON object, got 'hot'"),
        ("backends", ["default"], "backends and agents must be JSON objects"),
        ("backends.default.timeout_s", 0,
         "backends.default: timeout_s and max_tokens_limit must be positive"),
        ("backends.default.kind", "http",
         "backends.default: backend 'default': http backend needs an endpoint"),
        ("backends.default.kind", "grpc", "backends.default: unknown backend kind 'grpc'"),
        ("backends.default.rpm", -1, "backends.default: rpm must be positive"),
        ("agents.planner.parse_retry_max", -1, "agents.planner: parse_retry_max must be >= 0"),
        ("agents.title.temperature", 3.0, "agents.title: temperature 3.0 outside [0, 2]"),
        ("agents.examiner.top_p", 0.0, "agents.examiner: top_p 0.0 outside (0, 1]"),
    ],
)
def test_bad_run_config_value_fails_before_any_model_call(tmp_path, monkeypatch, path, value,
                                                          named):
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    config = load_json(config_file)
    _set_key(config, path, value)
    config_file.write_text(json.dumps(config), "utf-8")
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 1, result.output
    assert f"error: {named}" in result.output
    assert not out.exists()
    assert calls == []


def test_backend_option_replaces_a_configured_default(tmp_path):
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    config = load_json(config_file)
    empty_playbook = tmp_path / "empty.json"
    MockPlaybook([]).save(empty_playbook)
    config["backends"]["scripted"] = config["backends"]["default"]
    config["backends"]["default"] = {"kind": "mock", "playbook_path": str(empty_playbook)}
    config_file.write_text(json.dumps(config), "utf-8")
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main,
        ["generate", str(draft_file), "--config", str(config_file), "--out", str(out),
         "--backend", "scripted"],
    )
    assert result.exit_code == 0, result.output
    assert load_json(out / "status.json")["status"] == "complete"


def test_a_backend_option_naming_no_backend_is_invalid_input(tmp_path, monkeypatch):
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "run"
    result = RUNNER.invoke(main, ["generate", str(draft_file), "--config", str(config_file),
                                  "--out", str(out), "--backend", "nope"])
    assert result.exit_code == 1, result.output
    assert "error: backend 'nope' not present in config" in result.output
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "{draft}", "--mock-playbook", "{playbook}", "--out", "{out}", "--seed", "abc"],
        ["generate", "{draft}", "--mock-playbook", "{playbook}", "--out", "{out}", "--bogus"],
        ["baseline", "{draft}", "--mock-playbook", "{playbook}", "--out", "{out}",
         "--max-tokens", "0"],
        ["bench", "{manifest}", "--mock-playbook", "{playbook}", "--out", "{out}", "--jobs", "zz"],
        ["bench", "{manifest}", "--mock-playbook", "{playbook}", "--out", "{out}", "--jobs", "0"],
        ["--bogus", "generate", "{draft}", "--mock-playbook", "{playbook}", "--out", "{out}"],
        ["generat", "{draft}", "--mock-playbook", "{playbook}", "--out", "{out}"],
        ["baseline", "{draft}", "--mock-playbook", "{playbook}", "--out", "{out}", "--seed", "1"],
        ["generate", "{draft}", "--mock-playbook", "{playbook}", "--out", "{out}", "--seed", "1"],
        ["bench", "{manifest}", "--mock-playbook", "{playbook}", "--out", "{out}", "--seed", "1"],
    ],
)
def test_usage_errors_exit_1(tmp_path, monkeypatch, args):
    manifest_file, _, playbook_path = _bench_fixture(tmp_path, pipeline_playbook(), n_docs=1)
    out = tmp_path / "out"
    paths = {"draft": tmp_path / "draft1.json", "manifest": manifest_file,
             "playbook": playbook_path, "out": out}
    calls = _backend_calls(monkeypatch)
    result = RUNNER.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 1, result.output
    assert not out.exists()
    assert calls == []
    for help_args in (["--help"], ["bench", "--help"]):
        assert RUNNER.invoke(main, help_args).exit_code == 0


_FULL_BASELINE = (
    "<Patent><Title> T </Title><Abstract> A </Abstract><Background> B </Background>"
    "<Summary> S </Summary><Claims> C </Claims><Full Description> D </Full Description></Patent>"
)


def _run_baseline(tmp_path, scripted: str, *args: str):
    draft_file = _write_draft(tmp_path / "draft.json")
    playbook_path = tmp_path / "pb.json"
    MockPlaybook([rule("write a complete patent document", scripted)]).save(playbook_path)
    out = tmp_path / "baseline"
    result = RUNNER.invoke(
        main,
        ["baseline", str(draft_file), "--mock-playbook", str(playbook_path), "--out", str(out),
         *args],
    )
    return result, out


def test_baseline_full_output(tmp_path):
    result, out = _run_baseline(tmp_path, _FULL_BASELINE)
    assert result.exit_code == 0, result.output
    assert (out / "patent.txt").exists()
    report = load_json(out / "parse_report.json")
    assert report["missing"] == []
    assert len(report["sections_found"]) == 6


def test_baseline_max_tokens_over_the_backend_limit_fails_before_any_model_call(
        tmp_path, monkeypatch):
    calls = _backend_calls(monkeypatch)
    result, out = _run_baseline(tmp_path, _FULL_BASELINE, "--max-tokens", "99999")
    assert result.exit_code == 1, result.output
    assert ("error: zero_shot.max_tokens: 99999 exceeds the max_tokens_limit 32768 of backend "
            "'default'") in result.output
    assert calls == []
    assert not out.exists()
    result, out = _run_baseline(tmp_path, _FULL_BASELINE, "--max-tokens", "32768")
    assert result.exit_code == 0, result.output
    assert [req.max_tokens for req in calls] == [32768]


def test_baseline_missing_description(tmp_path):
    scripted = _FULL_BASELINE.replace("<Full Description> D </Full Description>", "")
    result, out = _run_baseline(tmp_path, scripted)
    assert result.exit_code == 2
    report = load_json(out / "parse_report.json")
    assert report["missing"] == ["description"]
    assert (out / "sections" / "claims.txt").exists()
    assert not (out / "patent.txt").exists()


def test_baseline_untagged_prose(tmp_path):
    result, out = _run_baseline(tmp_path, "Just some prose, no tags anywhere.")
    assert result.exit_code == 2
    assert (out / "raw_response.txt").read_text().startswith("Just some prose")
    assert load_json(out / "parse_report.json")["sections_found"] == []


def test_score_identity(tmp_path):
    gen = tmp_path / "gen"
    ref = tmp_path / "ref"
    gen.mkdir()
    ref.mkdir()
    for doc_id in ("d1", "d2"):
        text = f"A patent about widgets {doc_id}. It has claims. It has a description."
        (gen / f"{doc_id}.txt").write_text(text, "utf-8")
        (ref / f"{doc_id}.txt").write_text(text, "utf-8")
    out = tmp_path / "report"
    result = RUNNER.invoke(main, ["score", str(gen), str(ref), "--out", str(out)])
    assert result.exit_code == 0, result.output
    record = load_json(out / "report.json")
    assert record["counts"] == {"scored": 2, "failed": 0}
    for row in record["rows"]:
        assert row["bleu"] == 100.0
        assert row["rouge1"] == 1.0 and row["rougel"] == 1.0
    assert record["header"]["stopword_list_id"] == "en-v1"
    # No metric option given: the header is the library's default settings.
    assert record["header"] == MetricConfig().header()


_BAD_METRIC_OPTIONS = pytest.mark.parametrize(
    "options, named",
    [
        (["--vocab", "nope.txt"], "vocabulary file not found: nope.txt"),
        (["--t", "0.2,1.5"], "threshold t must lie in [0, 1], got 1.5"),
        (["--epsilon", "0"], "epsilon must be positive"),
        (["--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
        (["--epsilon", "inf"], "epsilon must be positive and finite, got inf"),
        (["--cap", "-1"], "cap must be positive and finite, got -1.0"),
        (["--cap", "0"], "cap must be positive and finite, got 0.0"),
        (["--t", "0.2,0.2000001"],
         "thresholds 0.2 and 0.2000001 share the report column irr_t02"),
        (["--t", "0.2,x"], "bad threshold list '0.2,x'"),
        (["--t", ","], "threshold list is empty"),
        (["--vocab", os.devnull], f"vocabulary file is empty: {os.devnull}"),
    ],
    ids=["missing_vocab", "threshold_above_1", "zero_epsilon", "nan_epsilon", "inf_epsilon",
         "negative_cap", "zero_cap", "colliding_thresholds", "threshold_not_a_number",
         "no_threshold", "empty_vocab"],
)


@_BAD_METRIC_OPTIONS
def test_score_rejects_bad_metric_options(tmp_path, options, named):
    for side in ("gen", "ref"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "d1.txt").write_text("One sentence. Another one.", "utf-8")
    result = RUNNER.invoke(
        main, ["score", str(tmp_path / "gen"), str(tmp_path / "ref"), *options]
    )
    assert result.exit_code == 1, result.output
    assert f"error: {named}" in result.output


@_BAD_METRIC_OPTIONS
def test_bench_rejects_bad_metric_options_before_any_model_call(tmp_path, monkeypatch,
                                                                 options, named):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "bench"
    result = RUNNER.invoke(
        main,
        ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out), *options],
    )
    assert result.exit_code == 1, result.output
    assert f"error: {named}" in result.output
    assert calls == []
    assert not out.exists()


def test_score_non_utf8_file_is_invalid_input(tmp_path):
    for side in ("gen", "ref"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "d1.txt").write_text("One sentence. Another one.", "utf-8")
    (tmp_path / "gen" / "d1.txt").write_bytes(b"Caf\xe9 au lait. Another one.")
    result = RUNNER.invoke(main, ["score", str(tmp_path / "gen"), str(tmp_path / "ref")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "d1.txt is not UTF-8 text" in result.output
    assert [line for line in result.output.splitlines() if line.startswith("error: ")]


@pytest.mark.parametrize("missing", ["gen", "ref", "both"])
def test_score_missing_directory_is_invalid_input(tmp_path, missing):
    # A missing directory used to glob as empty, so two of them scored 0 docs, exit 0.
    for side in ("gen", "ref"):
        if missing not in (side, "both"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "d1.txt").write_text("One sentence. Another one.", "utf-8")
    result = RUNNER.invoke(main, ["score", str(tmp_path / "gen"), str(tmp_path / "ref")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "is not a directory" in errors[0]
    assert "scored" not in result.output


def test_score_alignment_error_names_id(tmp_path):
    gen = tmp_path / "gen"
    ref = tmp_path / "ref"
    gen.mkdir()
    ref.mkdir()
    (gen / "d1.txt").write_text("text one", "utf-8")
    (gen / "d2.txt").write_text("text two", "utf-8")
    (ref / "d1.txt").write_text("text one", "utf-8")
    result = RUNNER.invoke(main, ["score", str(gen), str(ref)])
    assert result.exit_code == 1
    assert "d2" in result.output


def test_a_cached_generate_sends_nothing_and_writes_the_same_run(tmp_path, monkeypatch):
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    config = load_json(config_file)
    config["cache_dir"] = str(tmp_path / "cache")
    config_file.write_text(json.dumps(config), "utf-8")
    runs, sent = {}, {}
    for name in ("first", "second"):
        sent[name] = _backend_calls(monkeypatch)
        out = tmp_path / name
        result = RUNNER.invoke(
            main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        runs[name] = tree_contents(out)
    assert sent["first"] and sent["second"] == []
    calls = {name: [json.loads(line) for line in run.pop("calls.jsonl").splitlines()]
             for name, run in runs.items()}
    assert all(call["cached"] for call in calls["second"])
    assert [dict(c, cached=True) for c in calls["first"]] == calls["second"]
    assert runs["first"] == runs["second"]


def _bench_fixture(tmp_path, playbook: MockPlaybook, n_docs=3):
    docs = []
    for i in range(1, n_docs + 1):
        draft_file = _write_draft(tmp_path / f"draft{i}.json", marker=f"MARKDOC{i}")
        ref_file = tmp_path / f"ref{i}.txt"
        ref_file.write_text(f"Reference patent {i} about adaptive control.", "utf-8")
        docs.append(
            {"doc_id": f"doc{i}", "draft_file": str(draft_file), "reference_file": str(ref_file)}
        )
    manifest_file = tmp_path / "manifest.json"
    manifest_file.write_text(json.dumps({"docs": docs}), "utf-8")
    playbook_path = tmp_path / "bench_pb.json"
    playbook.save(playbook_path)
    config_file = _write_config(tmp_path / "bench_config.json", playbook_path)
    return manifest_file, config_file, playbook_path


def test_bench_runs_every_document(tmp_path):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "bench"
    result = RUNNER.invoke(
        main, ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    record = load_json(out / "report.json")
    assert record["counts"] == {"scored": 3, "failed": 0}
    for i in (1, 2, 3):
        assert (out / "runs" / f"doc{i}" / "patent.txt").exists()
        assert (out / "generated" / f"doc{i}.txt").exists()


def test_bench_resume_skips_completed_docs(tmp_path):
    manifest_file, config_file, playbook_path = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "bench"
    first = RUNNER.invoke(
        main, ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    )
    assert first.exit_code == 0
    # An empty playbook would fail any model call, so a clean rerun proves
    # completed documents are never recomputed.
    MockPlaybook([]).save(playbook_path)
    second = RUNNER.invoke(
        main, ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    )
    assert second.exit_code == 0, second.output
    assert load_json(out / "report.json")["counts"]["scored"] == 3


def test_bench_failure_row_then_resume_completes_rest(tmp_path):
    playbook = pipeline_playbook(
        extra_rules=[rule("MARKDOC3", {"error": "transport"})]
    )
    manifest_file, config_file, playbook_path = _bench_fixture(tmp_path, playbook)
    out = tmp_path / "bench"
    first = RUNNER.invoke(
        main, ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    )
    assert first.exit_code == 2
    record = load_json(out / "report.json")
    assert record["counts"] == {"scored": 2, "failed": 1}
    failed_row = [r for r in record["rows"] if r["doc_id"] == "doc3"][0]
    assert failed_row["failed"] is True

    # Rerun with doc1/doc2 poisoned: resume must not touch them, and doc3
    # must now complete.
    retry_playbook = pipeline_playbook(
        extra_rules=[
            rule("MARKDOC1", {"error": "status", "code": 400}),
            rule("MARKDOC2", {"error": "status", "code": 400}),
        ]
    )
    retry_playbook.save(playbook_path)
    second = RUNNER.invoke(
        main, ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    )
    assert second.exit_code == 0, second.output
    record = load_json(out / "report.json")
    assert record["counts"] == {"scored": 3, "failed": 0}


def test_a_regenerated_document_that_fails_leaves_no_generated_text(tmp_path):
    manifest_file, config_file, playbook_path = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "b"
    bench = ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    assert RUNNER.invoke(main, bench).exit_code == 0
    assert (out / "generated" / "doc1.txt").exists()
    # A planner reply with no sections fails every document this time.
    pipeline_playbook(extra_rules=[rule(MATCH_PLANNER, "No sections here.")]).save(playbook_path)
    result = RUNNER.invoke(main, [*bench, "--no-resume"])
    assert result.exit_code == 2, result.output
    assert load_json(out / "report.json")["counts"] == {"scored": 0, "failed": 3}
    assert list((out / "generated").iterdir()) == []


def test_a_rerun_without_a_document_leaves_no_generated_text_for_it(tmp_path):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "b"
    bench = ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    assert RUNNER.invoke(main, bench).exit_code == 0
    manifest = load_json(manifest_file)
    manifest_file.write_text(json.dumps({"docs": manifest["docs"][:2]}), "utf-8")
    result = RUNNER.invoke(main, [*bench, "--no-resume"])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in (out / "generated").iterdir()) == ["doc1.txt", "doc2.txt"]
    # So score over the generated texts sees that doc3 is no longer generated.
    refs = tmp_path / "refs"
    refs.mkdir()
    for i in (1, 2, 3):
        (refs / f"doc{i}.txt").write_text((tmp_path / f"ref{i}.txt").read_text("utf-8"), "utf-8")
    result = RUNNER.invoke(main, ["score", str(out / "generated"), str(refs)])
    assert result.exit_code == 1 and "no generated doc for: ['doc3']" in result.output


def _set_width(config_file, width: int) -> None:
    """Let the run config's mock backend send width requests at once."""
    config = load_json(config_file)
    config["backends"]["default"]["max_inflight"] = width
    config_file.write_text(json.dumps(config), "utf-8")


@pytest.mark.parametrize("width", [1, 2])
def test_bench_overlaps_documents_at_the_backend_width(tmp_path, monkeypatch, width):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    _set_width(config_file, width)
    calls = _backend_calls(monkeypatch)
    send = MockBackend.send
    monkeypatch.setattr(MockBackend, "send", lambda self, req: time.sleep(0.002) or send(self, req))
    out = tmp_path / "bench"
    result = RUNNER.invoke(
        main, ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert load_json(out / "report.json")["counts"] == {"scored": 3, "failed": 0}
    # The prompts that render the draft name their document. At width 1 the
    # documents run one after another, in manifest order; at width 2 the
    # second starts before the first is done.
    docs = [m.group() for req in calls if (m := re.search(r"MARKDOC\d", req.rendered_prompt()))]
    assert (docs == sorted(docs)) == (width == 1)


@pytest.mark.parametrize("width", [1, 2])
def test_bench_bad_manifest_entries_become_failed_rows(tmp_path, monkeypatch, width):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook(), n_docs=9)
    _set_width(config_file, width)
    manifest = load_json(manifest_file)
    docs = manifest["docs"]
    del docs[1]["draft_file"]
    del docs[2]["reference_file"]
    docs[3]["reference_file"] = str(tmp_path / "no_such_ref.txt")
    docs[5]["draft_file"], docs[6]["draft_file"], docs[7]["draft_file"] = None, 5, ["x"]
    docs[8]["reference_file"] = None
    (tmp_path / "ref5.txt").write_bytes(b"\xff\xfe not utf-8")
    manifest_file.write_text(json.dumps(manifest), "utf-8")
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "bench"
    result = RUNNER.invoke(
        main,
        ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)],
    )
    assert result.exit_code == 2, result.output
    record = load_json(out / "report.json")
    assert record["counts"] == {"scored": 1, "failed": 8}
    # A document whose draft or reference cannot be used is never generated.
    marked = {m.group() for req in calls if (m := re.search(r"MARKDOC\d", req.rendered_prompt()))}
    assert marked == {"MARKDOC1"}
    assert len(calls) == len((out / "runs" / "doc1" / "calls.jsonl").read_text().splitlines())
    assert [p.name for p in (out / "runs").iterdir()] == ["doc1"]
    assert [p.name for p in (out / "generated").iterdir()] == ["doc1.txt"]
    rows = {r["doc_id"]: r for r in record["rows"]}
    assert rows["doc1"]["failed"] is False
    assert "has no 'draft_file'" in rows["doc2"]["error"]
    assert "has no 'reference_file'" in rows["doc3"]["error"]
    assert "cannot read reference" in rows["doc4"]["error"]
    assert "cannot read reference" in rows["doc5"]["error"]
    for doc_id, value in [("doc6", "None"), ("doc7", "5"), ("doc8", "['x']")]:
        assert f"has no 'draft_file': expected a path string, got {value}" in rows[doc_id]["error"]
    assert "has no 'reference_file': expected a path string, got None" in rows["doc9"]["error"]
    assert result.output.count("FAILED") == 8


@pytest.mark.parametrize("spoil, named", [("a_directory", "Is a directory"),
                                          ("not_utf8", "can't decode byte 0xff")],
                         ids=["a_directory", "not_utf8"])
def test_a_document_whose_generated_file_is_unusable_is_a_failed_row(tmp_path, monkeypatch,
                                                                     spoil, named):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "bench"
    args = ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    if spoil == "a_directory":
        (out / "generated" / "doc2.txt").mkdir(parents=True)
    else:  # a resumed document's text is read back
        assert RUNNER.invoke(main, args).exit_code == 0
        (out / "generated" / "doc2.txt").write_bytes(b"\xff\xfe")
    calls = _backend_calls(monkeypatch)
    result = RUNNER.invoke(main, args)
    assert result.exit_code == 2, result.output
    record = load_json(out / "report.json")
    assert record["counts"] == {"scored": 2, "failed": 1}
    rows = {r["doc_id"]: r for r in record["rows"]}
    assert named in rows["doc2"]["error"]
    assert not any("MARKDOC2" in req.rendered_prompt() for req in calls)


def _bench_with_malformed_second_draft(tmp_path, case: str) -> str:
    """Bench two documents, the second from a malformed draft; its row's error."""
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook(), n_docs=2)
    (tmp_path / "draft2.json").write_text(json.dumps(_MALFORMED_DRAFTS[case]), "utf-8")
    out = tmp_path / "bench"
    result = RUNNER.invoke(
        main, ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    record = load_json(out / "report.json")
    assert record["counts"] == {"scored": 1, "failed": 1}
    rows = {r["doc_id"]: r for r in record["rows"]}
    assert rows["doc1"]["failed"] is False
    return rows["doc2"]["error"]


def test_bench_malformed_draft_becomes_a_failed_row(tmp_path):
    assert "must be strings" in _bench_with_malformed_second_draft(tmp_path, "answer_int")


@pytest.mark.parametrize(
    "case, named",
    [("question_id_bool", "bad question_id in draft record: True"),
     ("source_id_int", "source_id must be a string, got 7")],
    ids=["question_id_bool", "source_id_int"],
)
def test_bench_draft_with_a_bad_id_becomes_a_failed_row(tmp_path, case, named):
    assert named in _bench_with_malformed_second_draft(tmp_path, case)


def test_bench_resume_regenerates_docs_made_under_another_pipeline_config(tmp_path):
    manifest_file, config_file, playbook_path = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "bench"
    args = ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    assert RUNNER.invoke(main, args).exit_code == 0
    config = load_json(config_file)
    config["pipeline"] = {"max_refine_rounds": 1}
    config_file.write_text(json.dumps(config), "utf-8")
    MockPlaybook([]).save(playbook_path)
    second = RUNNER.invoke(main, args)
    assert second.exit_code == 2, second.output
    assert load_json(out / "report.json")["counts"] == {"scored": 0, "failed": 3}


def test_bench_resume_regenerates_a_doc_whose_draft_changed(tmp_path, monkeypatch):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "bench"
    args = ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    assert RUNNER.invoke(main, args).exit_code == 0
    edited = _write_draft(tmp_path / "draft2.json", marker="MARKDOC2 EDITED")
    calls = _backend_calls(monkeypatch)
    second = RUNNER.invoke(main, args)
    assert second.exit_code == 0, second.output
    prompts = [req.rendered_prompt() for req in calls]
    assert prompts and all("MARKDOC2 EDITED" in p for p in prompts if "MARKDOC" in p)
    assert not any("MARKDOC1" in p or "MARKDOC3" in p for p in prompts)
    assert load_json(out / "runs" / "doc2" / "draft.json") == load_json(edited)
    assert load_json(out / "report.json")["counts"] == {"scored": 3, "failed": 0}


def test_bench_resume_fails_a_doc_whose_draft_is_gone_and_drops_its_generated_text(tmp_path):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "bench"
    args = ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    assert RUNNER.invoke(main, args).exit_code == 0
    (tmp_path / "draft3.json").unlink()
    second = RUNNER.invoke(main, args)
    assert second.exit_code == 2, second.output
    rows = {row["doc_id"]: row for row in load_json(out / "report.json")["rows"]}
    assert rows["doc3"]["failed"] and "cannot read draft" in rows["doc3"]["error"]
    assert sorted(p.name for p in (out / "generated").iterdir()) == ["doc1.txt", "doc2.txt"]


@pytest.mark.parametrize("status", ["[]", '"complete"', "null", "{not json"])
def test_bench_resume_regenerates_a_doc_whose_status_is_not_an_object(tmp_path, monkeypatch,
                                                                      status):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "bench"
    args = ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)]
    assert RUNNER.invoke(main, args).exit_code == 0
    (out / "runs" / "doc2" / "status.json").write_text(status, "utf-8")
    calls = _backend_calls(monkeypatch)
    second = RUNNER.invoke(main, args)
    assert second.exit_code == 0, second.output
    prompts = [req.rendered_prompt() for req in calls]
    assert any("MARKDOC2" in p for p in prompts)
    assert not any("MARKDOC1" in p or "MARKDOC3" in p for p in prompts)
    assert load_json(out / "runs" / "doc2" / "status.json")["status"] == "complete"
    assert load_json(out / "report.json")["counts"] == {"scored": 3, "failed": 0}


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize(
    "spoil, named",
    [
        (lambda e: {k: v for k, v in e.items() if k != "doc_id"}, "manifest entry 1"),
        (lambda e: "doc2", "manifest entry 1"),
        (lambda e: {**e, "doc_id": "doc1"}, "duplicate doc_id 'doc1'"),
        (lambda e: {**e, "doc_id": "../../escaped"}, "manifest entry 1"),
        (lambda e: {**e, "doc_id": ".."}, "manifest entry 1"),
        # 251 bytes: with the .json suffix the package may add, over 255.
        (lambda e: {**e, "doc_id": "d" * 251}, "manifest entry 1"),
        (lambda e: {**e, "doc_id": "\u00e9" * 126}, "manifest entry 1"),
        (lambda e: {**e, "doc_id": "\ud800"}, "manifest entry 1"),
    ],
    ids=["no_doc_id", "not_an_object", "duplicate", "escapes_out", "dot_dot", "long_ascii",
         "long_multibyte", "lone_surrogate"],
)
def test_bench_rejects_bad_doc_ids_before_any_model_call(tmp_path, monkeypatch, width, spoil,
                                                          named):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    _set_width(config_file, width)
    manifest = load_json(manifest_file)
    manifest["docs"][1] = spoil(manifest["docs"][1])
    manifest_file.write_text(json.dumps(manifest), "utf-8")
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "a" / "b" / "bench"
    result = RUNNER.invoke(
        main,
        ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)],
    )
    assert result.exit_code == 1, result.output
    assert named in result.output
    assert calls == []
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("manifest", [{"docs": []}, {"docs": "doc1"}, {}])
def test_bench_manifest_without_documents_fails_before_any_model_call(tmp_path, monkeypatch,
                                                                      manifest):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    manifest_file.write_text(json.dumps(manifest), "utf-8")
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "bench"
    result = RUNNER.invoke(
        main, ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "error: manifest lists no documents" in result.output
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["-1,2,3", "2,-1,1", "1,2", "a,b,c"])
def test_build_dataset_bad_sizes_fail_before_any_model_call(tmp_path, monkeypatch, sizes):
    records = tmp_path / "records"
    records.mkdir()
    for i in range(6):
        record = {name: f"{name} of record {i}." for name in
                  ("title", "abstract", "background", "summary", "claims", "description")}
        (records / f"rec{i}.json").write_text(json.dumps(dict(record, record_id=f"rec{i}",
                                                              decision_label="ACCEPTED")))
    playbook = tmp_path / "playbook.json"
    MockPlaybook([rule("You are the inventor", "An answer."),
                  rule("meets the quality standards", "<Result> Pass </Result>")]).save(playbook)
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "build"
    result = RUNNER.invoke(main, ["build-dataset", str(records), "--mock-playbook", str(playbook),
                                  "--out", str(out), "--sizes", sizes, "--skip-trees"])
    assert result.exit_code == 1, result.output
    assert "error: split sizes must be three non-negative integers" in result.output
    assert calls == []
    assert not out.exists()


def _one_record_corpus(tmp_path):
    """A records directory of one accepted record, and a playbook that
    answers every inventor and passes every review."""
    records = tmp_path / "records"
    records.mkdir()
    record = {name: f"{name} of record 0." for name in
              ("title", "abstract", "background", "summary", "claims", "description")}
    (records / "rec0.json").write_text(json.dumps(dict(record, record_id="rec0",
                                                       decision_label="ACCEPTED")))
    playbook = tmp_path / "playbook.json"
    MockPlaybook([rule(MATCH_INVENTOR, "An answer."), rule(MATCH_QUALITY, PASS_QUALITY)]).save(
        playbook)
    return records, playbook


@pytest.mark.parametrize("kinds", ["D2W", "D2T,D2W"])
def test_build_dataset_d2w_without_trees_fails_before_any_model_call(tmp_path, monkeypatch,
                                                                     kinds):
    records, playbook = _one_record_corpus(tmp_path)
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "build"
    result = RUNNER.invoke(main, ["build-dataset", str(records), "--mock-playbook", str(playbook),
                                  "--out", str(out), "--sizes", "1,0,0", "--skip-trees",
                                  "--kinds", kinds])
    assert result.exit_code == 1, result.output
    assert "error: D2W exports guideline trees, which --skip-trees does not collect" in (
        result.output)
    assert calls == []
    assert not out.exists()


def test_build_dataset_unknown_kind_fails_before_any_model_call(tmp_path, monkeypatch):
    records, playbook = _one_record_corpus(tmp_path)
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "build"
    result = RUNNER.invoke(main, ["build-dataset", str(records), "--mock-playbook", str(playbook),
                                  "--out", str(out), "--kinds", "D2T,D2X"])
    assert result.exit_code == 1, result.output
    assert f"error: unknown export kinds ['D2X']; expected {list(SFT_KINDS)}" in result.output
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "field_map, named",
    [
        (["title"], "field map {map} must be a JSON object of strings"),
        ({"title": 5}, "field map {map}: 'title' must map to a string, got 5"),
        ({"title": "t", "claims": None}, "field map {map}: 'claims' must map to a string"),
        ("{not json", "cannot read field map {map}"),
        ({"titel": "invention_title"}, "field map {map}: 'titel' names no field"),
    ],
    ids=["a_list", "int_value", "null_value", "not_json", "unknown_key"],
)
def test_build_dataset_bad_field_map_fails_before_any_model_call(tmp_path, monkeypatch,
                                                                  field_map, named):
    records, playbook = _one_record_corpus(tmp_path)
    map_file = tmp_path / "map.json"
    map_file.write_text(field_map if isinstance(field_map, str) else json.dumps(field_map))
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "build"
    result = RUNNER.invoke(main, ["build-dataset", str(records), "--mock-playbook", str(playbook),
                                  "--out", str(out), "--field-map", str(map_file)])
    assert result.exit_code == 1, result.output
    assert "error: " + named.format(map=map_file) in result.output
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["2,0,0", "0,1,1", "100,0,0"])
def test_build_dataset_sizes_beyond_the_ingested_records_fail_before_any_model_call(
        tmp_path, monkeypatch, sizes):
    records, playbook = _one_record_corpus(tmp_path)
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "build"
    result = RUNNER.invoke(main, ["build-dataset", str(records), "--mock-playbook", str(playbook),
                                  "--out", str(out), "--sizes", sizes])
    assert result.exit_code == 1, result.output
    needed = sum(int(n) for n in sizes.split(","))
    assert (f"error: split sizes need {needed} records, more than the 1 ingested from {records}"
            in result.output)
    assert calls == []
    assert not out.exists()


def test_build_dataset_skip_trees_leaves_d2w_out_of_the_default_kinds(tmp_path):
    records, playbook = _one_record_corpus(tmp_path)
    out = tmp_path / "build"
    result = RUNNER.invoke(main, ["build-dataset", str(records), "--mock-playbook", str(playbook),
                                  "--out", str(out), "--sizes", "1,0,0", "--skip-trees"])
    assert result.exit_code == 0, result.output
    kinds = [k for k in SFT_KINDS if k != "D2W"]
    assert result.output.splitlines() == [
        f"{kind}: train=1, valid=0, test=0" for kind in kinds
    ] + [f"accepted 1/1 records; splits 1/0/0; artifacts in {out}"]
    assert sorted(p.name for p in (out / "exports").iterdir()) == sorted(kinds)


def test_build_dataset_writes_its_artifacts_and_every_export(tmp_path):
    records = tmp_path / "records"
    records.mkdir()
    for i in range(7):
        record = {name: f"{name} of record {i}." for name in
                  ("title", "abstract", "background", "summary", "claims", "description")}
        if i == 1:
            record["description"] = "FAILMARK " + record["description"]
        label = "REJECTED" if i == 0 else "ACCEPTED"
        (records / f"rec{i}.json").write_text(json.dumps(dict(record, record_id=f"rec{i}",
                                                              decision_label=label)))
    playbook = tmp_path / "playbook.json"
    MockPlaybook([rule("FAILMARK", "BADANSWER"), rule(MATCH_INVENTOR, "An answer."),
                  rule("BADANSWER", FAIL_QUALITY), rule(MATCH_QUALITY, PASS_QUALITY),
                  rule(MATCH_COLLECT, "<Section-1> part one </Section-1>")]).save(playbook)
    out = tmp_path / "build"
    result = RUNNER.invoke(main, ["build-dataset", str(records), "--mock-playbook", str(playbook),
                                  "--out", str(out), "--sizes", "3,1,1"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [
        f"{kind}: train=3, valid=1, test=1" for kind in SFT_KINDS
    ] + [f"accepted 5/6 records; splits 3/1/1; artifacts in {out}"]
    skips = [json.loads(line) for line in (out / "skips.jsonl").read_text("utf-8").splitlines()]
    assert [(s["record_id"], s["stage"]) for s in skips] == [("rec0", "ingest"),
                                                             ("rec1", "quality_gate")]
    for kind in SFT_KINDS:
        for split, n in (("train", 3), ("valid", 1), ("test", 1)):
            lines = (out / "exports" / kind / f"{split}.jsonl").read_text("utf-8").splitlines()
            assert len(lines) == n and all(json.loads(line)["output"] for line in lines)
    assert sorted(p.name for p in out.iterdir()) == [
        "drafts", "exports", "pgtrees.json", "quality.json", "review_rejected.jsonl",
        "skips.jsonl", "splits.json"]


def _four_records(tmp_path):
    records = tmp_path / "records"
    records.mkdir()
    for i in range(4):
        record = {name: f"{name} of record {i}." for name in
                  ("title", "abstract", "background", "summary", "claims", "description")}
        (records / f"rec{i}.json").write_text(json.dumps(dict(record, record_id=f"rec{i}",
                                                              decision_label="ACCEPTED")))
    return records


def test_a_rebuild_into_the_same_out_holds_only_its_own_drafts_and_exports(tmp_path):
    records = _four_records(tmp_path)
    playbook = tmp_path / "playbook.json"
    MockPlaybook([rule(MATCH_INVENTOR, "An answer."), rule(MATCH_QUALITY, PASS_QUALITY),
                  rule(MATCH_COLLECT, "<Section-1> part one </Section-1>")]).save(playbook)
    build = ["build-dataset", str(records), "--mock-playbook", str(playbook)]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert RUNNER.invoke(main, [*build, "--out", str(reused)]).exit_code == 0
    assert len(list(reused.glob("exports/*/*.jsonl"))) == 3 * len(SFT_KINDS)
    (records / "rec3.json").unlink()
    outputs = []
    for out in (reused, fresh):
        result = RUNNER.invoke(main, [*build, "--out", str(out), "--kinds", "D2T"])
        assert result.exit_code == 0, result.output
        outputs.append((result.output.replace(str(out), "OUT"), tree_contents(out)))
    assert outputs[0] == outputs[1]
    assert sorted(p.name for p in (reused / "drafts").iterdir()) == [
        "rec0.json", "rec1.json", "rec2.json"]
    assert [p.name for p in (reused / "exports").iterdir()] == ["D2T"]


def test_two_records_with_one_id_fail_the_build_before_any_call(tmp_path, monkeypatch):
    records = _four_records(tmp_path)
    (records / "zcopy.json").write_text((records / "rec0.json").read_text("utf-8"), "utf-8")
    playbook = tmp_path / "playbook.json"
    MockPlaybook([]).save(playbook)
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "build"
    result = RUNNER.invoke(main, ["build-dataset", str(records), "--mock-playbook", str(playbook),
                                  "--out", str(out), "--sizes", "2,1,1"])
    assert result.exit_code == 1, result.output
    assert (f"error: {records / 'zcopy.json'}: record_id 'rec0' is also the id of "
            f"{records / 'rec0.json'}") in result.output
    assert calls == []
    assert not out.exists()


def test_a_build_with_too_few_accepted_records_keeps_what_it_paid_for(tmp_path):
    records = _four_records(tmp_path)
    playbook = tmp_path / "playbook.json"
    # Width 1: the eleventh review is the third record's first.
    MockPlaybook([rule(MATCH_INVENTOR, "An answer."),
                  rule(MATCH_QUALITY, *[PASS_QUALITY] * 10, FAIL_QUALITY, PASS_QUALITY),
                  rule(MATCH_COLLECT, "<Section-1> part one </Section-1>")]).save(playbook)
    build = ["build-dataset", str(records), "--mock-playbook", str(playbook)]
    out = tmp_path / "build"
    assert RUNNER.invoke(main, [*build, "--out", str(out), "--sizes", "1,1,1"]).exit_code == 0
    (out / "drafts" / "rec9.json").write_text("{}", "utf-8")  # an earlier build's draft
    result = RUNNER.invoke(main, [*build, "--out", str(out), "--sizes", "4,0,0"])
    assert result.exit_code == 1, result.output
    assert "error: split sizes need 4 records but only 3 accepted" in result.output
    assert sorted(p.name for p in out.iterdir()) == [
        "drafts", "pgtrees.json", "quality.json", "review_rejected.jsonl", "skips.jsonl"]
    assert sorted(p.name for p in (out / "drafts").iterdir()) == [
        f"rec{i}.json" for i in range(4)]
    assert list(load_json(out / "quality.json")) == [f"rec{i}" for i in range(4)]
    assert sorted(load_json(out / "pgtrees.json")) == ["rec0", "rec1", "rec3"]
    rejected = [json.loads(line) for line in
                (out / "review_rejected.jsonl").read_text("utf-8").splitlines()]
    assert [r["record_id"] for r in rejected] == ["rec2"]


@pytest.mark.parametrize("stale", ["generated/old.txt", "drafts/old.json"],
                         ids=["bench", "build"])
def test_a_directory_at_a_stale_path_is_left_in_place(tmp_path, stale):
    out, clean = tmp_path / "out", tmp_path / "clean"
    bench = stale.startswith("generated/")
    if bench:
        manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
        command = ["bench", str(manifest_file), "--config", str(config_file)]
        assert RUNNER.invoke(main, [*command, "--out", str(out)]).exit_code == 0
        (out / "report.json").write_text("{}", "utf-8")
    else:
        playbook = tmp_path / "playbook.json"
        MockPlaybook([rule(MATCH_INVENTOR, "An answer."), rule(MATCH_QUALITY, PASS_QUALITY),
                      rule(MATCH_COLLECT, "<Section-1> part one </Section-1>")]).save(playbook)
        command = ["build-dataset", str(_four_records(tmp_path)), "--mock-playbook", str(playbook)]
    (out / stale).mkdir(parents=True)
    result = RUNNER.invoke(main, [*command, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / stale).is_dir()
    if bench:
        record = load_json(out / "report.json")
        assert record["counts"] == {"scored": 3, "failed": 0} and len(record["rows"]) == 3
    else:
        fresh = RUNNER.invoke(main, [*command, "--out", str(clean)])
        assert fresh.output.replace(str(clean), "OUT") == result.output.replace(str(out), "OUT")
        assert tree_contents(out) == tree_contents(clean)


def test_report_command_renders_table(tmp_path):
    gen = tmp_path / "gen"
    ref = tmp_path / "ref"
    gen.mkdir()
    ref.mkdir()
    (gen / "d1.txt").write_text("one two three. four five.", "utf-8")
    (ref / "d1.txt").write_text("one two three. four five.", "utf-8")
    out = tmp_path / "rep"
    RUNNER.invoke(main, ["score", str(gen), str(ref), "--out", str(out)])
    result = RUNNER.invoke(main, ["report", str(out / "report.json")])
    assert result.exit_code == 0
    assert "doc_id" in result.output and "d1" in result.output
    assert "mean" in result.output


@pytest.mark.parametrize(
    "record, named",
    [
        ([], "a report must be a JSON object"),
        ({"header": "x", "rows": []}, "report header must be a JSON object, got 'x'"),
        ({"rows": []}, "report header must be a JSON object, got None"),
        ({"header": {"thresholds": 0.2}, "rows": []},
         "report header thresholds must be a list of numbers, got 0.2"),
        ({"header": {"thresholds": ["0.2"]}, "rows": []},
         "report header thresholds must be a list of numbers"),
        ({"header": {}, "rows": {"doc_id": "d1"}}, "report rows must be a list of objects"),
        ({"header": {}, "rows": ["d1"]}, "report rows must be a list of objects"),
        ({"header": {}, "rows": [{"bleu": 1.0}]},
         "report rows must be a list of objects with a string doc_id"),
    ],
    ids=["a_list", "header_a_string", "no_header", "thresholds_a_number",
         "threshold_a_string", "rows_an_object", "row_a_string", "row_without_doc_id"],
)
def test_report_of_a_file_that_is_not_a_report_is_invalid_input(tmp_path, record, named):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(record), "utf-8")
    result = RUNNER.invoke(main, ["report", str(path)])
    assert result.exit_code == 1, result.output
    assert f"error: {named}" in result.output
    assert isinstance(result.exception, SystemExit)


def test_report_renders_a_row_value_of_any_json_type(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"header": {"thresholds": [0.2]},
                                "rows": [{"doc_id": "d1", "bleu": {"odd": 1}, "tokens": 7}]}))
    result = RUNNER.invoke(main, ["report", str(path)])
    assert result.exit_code == 0, result.output
    assert "{'odd': 1}" in result.output


@pytest.mark.parametrize(
    "record, named",
    [
        ({"rules": [{"responses": ["x"]}]}, "playbook rule 0 needs"),
        ({"rules": [{"match": "a", "responses": ["x"]}, {"match": "b", "responses": "x"}]},
         "playbook rule 1 needs"),
        ({"rules": [{"match": "a", "responses": []}]}, "playbook rule 0 needs"),
        ({"rules": ["a"]}, "playbook rule 0 needs"),
        ({"rules": [{"match": "(", "regex": True, "responses": ["x"]}]},
         "playbook rule 0: bad regex '('"),
        ({"rules": {"match": "a"}}, "a playbook must be a JSON object with a list of rules"),
        ([], "a playbook must be a JSON object with a list of rules"),
        ({"rules": [{"match": "a", "responses": [{"error": "status", "code": "abc"}]}]},
         "playbook rule 0: bad response {'error': 'status', 'code': 'abc'}"),
        ({"rules": [{"match": "a", "responses": ["x"]},
                    {"match": "b", "responses": ["x", {"error": "bogus"}]}]},
         "playbook rule 1: bad response {'error': 'bogus'}"),
        ({"rules": [{"match": "a", "responses": [{"error": "status", "code": True}]}]},
         "playbook rule 0: bad response {'error': 'status', 'code': True}"),
        ({"rules": [{"match": "a", "responses": [{"error": "status", "code": 600}]}]},
         "playbook rule 0: bad response {'error': 'status', 'code': 600}"),
        ({"rules": [{"match": "a", "responses": [{"error": "status"}]}]},
         "playbook rule 0: bad response {'error': 'status'}"),
        ({"rules": [{"match": "a", "responses": [5]}]}, "playbook rule 0: bad response 5"),
        ({"rules": [], "default_response": {"error": "transport", "code": 500}},
         "playbook default_response: bad response {'error': 'transport', 'code': 500}"),
    ],
    ids=["no_match", "responses_not_a_list", "no_responses", "rule_not_an_object",
         "bad_regex", "rules_not_a_list", "not_an_object", "code_not_an_int",
         "unknown_directive", "code_a_bool", "code_out_of_range", "no_code",
         "response_a_number", "bad_default"],
)
def test_bad_playbook_rule_is_invalid_input(tmp_path, record, named):
    draft_file = _write_draft(tmp_path / "draft.json")
    playbook_path = tmp_path / "playbook.json"
    playbook_path.write_text(json.dumps(record), "utf-8")
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--mock-playbook", str(playbook_path),
               "--out", str(out)]
    )
    assert result.exit_code == 1, result.output
    assert f"error: backends.default: {named}" in result.output
    assert not out.exists()


def test_missing_config_is_invalid_input(tmp_path):
    draft_file = _write_draft(tmp_path / "draft.json")
    result = RUNNER.invoke(main, ["generate", str(draft_file)])
    assert result.exit_code == 1
    assert "no backends configured" in result.output


@pytest.mark.parametrize("command", ["generate", "build-dataset"])
def test_an_unset_api_key_fails_before_any_model_call(tmp_path, monkeypatch, command):
    monkeypatch.delenv("PATENTGEN_TEST_UNSET_KEY", raising=False)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"backends": {"default": {
        "kind": "http", "endpoint": "http://127.0.0.1:9/v1",
        "api_key_env": "PATENTGEN_TEST_UNSET_KEY"}}}), "utf-8")
    sent: list = []
    send = HttpBackend.send
    monkeypatch.setattr(HttpBackend, "send", lambda self, req: sent.append(req) or send(self, req))
    out = tmp_path / "out"
    if command == "generate":
        source = _write_draft(tmp_path / "draft.json")
    else:
        source, _ = _one_record_corpus(tmp_path)
    result = RUNNER.invoke(main, [command, str(source), "--config", str(config_file),
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert ("error: backends.default: backend 'default': env var PATENTGEN_TEST_UNSET_KEY "
            "not set") in result.output
    assert sent == []
    assert not out.exists()


def _input_files(tmp_path) -> dict:
    """One valid input file of each kind, by name, and where a cache_dir would go."""
    manifest, config, playbook = _bench_fixture(tmp_path, pipeline_playbook(), n_docs=1)
    records = tmp_path / "records.jsonl"
    record = {name: f"{name} of record 0." for name in
              ("title", "abstract", "background", "summary", "claims", "description")}
    records.write_text(json.dumps(dict(record, record_id="rec0", decision_label="ACCEPTED"))
                       + "\n", "utf-8")
    field_map = tmp_path / "map.json"
    field_map.write_text(json.dumps({"title": "title"}), "utf-8")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"header": {}, "rows": []}), "utf-8")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("one\ntwo\n", "utf-8")
    for side in ("gen", "ref"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "d1.txt").write_text("One sentence. Another one.", "utf-8")
    return {"draft": tmp_path / "draft1.json", "config": config, "playbook": playbook,
            "manifest": manifest, "report": report, "field_map": field_map, "records": records,
            "vocab": vocab, "gen": tmp_path / "gen", "ref": tmp_path / "ref",
            "document": tmp_path / "gen" / "d1.txt", "cache_dir": tmp_path / "cache"}


_COMMANDS_BY_INPUT = [
    ("draft", ["generate", "{draft}", "--config", "{config}", "--out", "{out}"]),
    ("draft", ["baseline", "{draft}", "--config", "{config}", "--out", "{out}"]),
    ("config", ["generate", "{draft}", "--config", "{config}", "--out", "{out}"]),
    ("playbook", ["generate", "{draft}", "--mock-playbook", "{playbook}", "--out", "{out}"]),
    ("manifest", ["bench", "{manifest}", "--config", "{config}", "--out", "{out}"]),
    ("report", ["report", "{report}"]),
    ("field_map", ["build-dataset", "{records}", "--mock-playbook", "{playbook}", "--out", "{out}",
                   "--field-map", "{field_map}"]),
    ("records", ["build-dataset", "{records}", "--mock-playbook", "{playbook}", "--out", "{out}"]),
]


_SCORE = ["score", "{gen}", "{ref}", "--vocab", "{vocab}", "--out", "{out}"]
_UNREADABLE_INPUTS = [(name, spoil, args) for name, args in _COMMANDS_BY_INPUT
                      for spoil in ("missing", "not_json")] + [
    ("cache_dir", "a_file", _COMMANDS_BY_INPUT[0][1]),
    ("config", "a_list", _COMMANDS_BY_INPUT[2][1]),
    ("vocab", "missing", _SCORE),
    ("vocab", "not_utf8", _SCORE),
    ("document", "a_directory", _SCORE),
]


@pytest.mark.parametrize("name, spoil, args", [
    pytest.param(name, spoil, args, id=f"{args[0]}-{name}-{spoil}")
    for name, spoil, args in _UNREADABLE_INPUTS])
def test_an_unreadable_input_file_is_one_error_line_naming_it(tmp_path, monkeypatch, name, spoil,
                                                              args):
    files = _input_files(tmp_path)
    bad = files[name]
    if spoil in ("missing", "a_directory"):
        bad.unlink()
    if spoil == "a_directory":
        bad.mkdir()
    elif spoil == "not_json":
        bad.write_text("{not json", "utf-8")
    elif spoil == "not_utf8":
        bad.write_bytes(b"\xff\xfe")
    elif spoil == "a_list":
        bad.write_text("[]", "utf-8")
    elif spoil == "a_file":
        bad.write_text("", "utf-8")
        config = load_json(files["config"])
        config["cache_dir"] = str(bad)
        files["config"].write_text(json.dumps(config), "utf-8")
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "out"
    result = RUNNER.invoke(main, [a.format(out=out, **files) for a in args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith("error: ") and str(bad) in line, line
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("args", [
    pytest.param(args, id=args[0]) for args in (
        *{args[0]: args for _, args in _COMMANDS_BY_INPUT if "{out}" in args}.values(), _SCORE)])
def test_an_out_that_cannot_be_a_directory_fails_before_any_model_call(tmp_path, monkeypatch,
                                                                       args):
    files = _input_files(tmp_path)
    out = tmp_path / "out"
    out.write_text("a file", "utf-8")
    calls = _backend_calls(monkeypatch)
    result = RUNNER.invoke(main, [a.format(out=out, **files) for a in args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: cannot create directory {out}"), line
    assert calls == []
    assert out.read_text("utf-8") == "a file"


def test_an_interrupted_command_exits_2_and_leaves_its_run_partial(tmp_path, monkeypatch):
    def interrupt(self, node, ref):
        raise KeyboardInterrupt

    monkeypatch.setattr(AgentRuntime, "retrieve", interrupt)
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main, ["generate", str(draft_file), "--config", str(config_file), "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert result.output == "interrupted\n"
    assert load_json(out / "status.json")["status"] == "partial"


def test_a_baseline_gateway_error_exits_2_and_writes_only_its_report(tmp_path):
    draft_file = _write_draft(tmp_path / "draft.json")
    playbook_path = tmp_path / "pb.json"
    MockPlaybook([rule("write a complete patent document",
                       {"error": "status", "code": 500})]).save(playbook_path)
    config_file = _write_config(tmp_path / "config.json", playbook_path, retry_max=0)
    out = tmp_path / "baseline"
    result = RUNNER.invoke(main, ["baseline", str(draft_file), "--config", str(config_file),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    error = "backend 'default' failed after 1 attempts: status 500"
    assert result.output == f"baseline call failed: {error}\n"
    assert [p.name for p in out.iterdir()] == ["parse_report.json"]
    assert load_json(out / "parse_report.json") == {"error": error}


def test_build_dataset_reads_renamed_keys_through_a_field_map(tmp_path):
    records, playbook = _one_record_corpus(tmp_path)
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    source = {"title": "invention_title", "claims": "claim_text", "record_id": "id",
              "decision_label": "decision"}
    record = load_json(records / "rec0.json")
    (renamed / "rec0.json").write_text(json.dumps(
        {source.get(key, key): value for key, value in record.items()}))
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(source))
    builds = {}
    for name, extra in (("canonical", [str(records)]),
                        ("mapped", [str(renamed), "--field-map", str(map_file)])):
        out = tmp_path / name
        result = RUNNER.invoke(main, ["build-dataset", *extra, "--mock-playbook", str(playbook),
                                      "--out", str(out), "--sizes", "1,0,0"])
        assert result.exit_code == 0, result.output
        builds[name] = (result.output.replace(str(out), "OUT"), tree_contents(out))
    assert builds["mapped"] == builds["canonical"]
    assert "accepted 1/1 records" in builds["mapped"][0]
