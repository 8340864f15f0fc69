from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from patentgen.cli import main
from patentgen.core import draft_to_record, load_json, make_draft
from patentgen.gateway import MockBackend, MockPlaybook
from helpers import pipeline_playbook, rule

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


def test_generate_threads_seed_into_run_config(tmp_path):
    draft_file, config_file = _setup_generate(tmp_path, pipeline_playbook())
    out = tmp_path / "run"
    result = RUNNER.invoke(
        main,
        ["generate", str(draft_file), "--config", str(config_file),
         "--out", str(out), "--seed", "77"],
    )
    assert result.exit_code == 0
    assert load_json(out / "config.json")["seed"] == 77


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


def _run_baseline(tmp_path, scripted: str):
    draft_file = _write_draft(tmp_path / "draft.json")
    playbook_path = tmp_path / "pb.json"
    MockPlaybook([rule("write a complete patent document", scripted)]).save(playbook_path)
    out = tmp_path / "baseline"
    result = RUNNER.invoke(
        main,
        ["baseline", str(draft_file), "--mock-playbook", str(playbook_path), "--out", str(out)],
    )
    return result, out


def test_baseline_full_output(tmp_path):
    result, out = _run_baseline(tmp_path, _FULL_BASELINE)
    assert result.exit_code == 0, result.output
    assert (out / "patent.txt").exists()
    report = load_json(out / "parse_report.json")
    assert report["missing"] == []
    assert len(report["sections_found"]) == 6


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
    ],
    ids=["missing_vocab", "threshold_above_1", "zero_epsilon", "nan_epsilon", "inf_epsilon",
         "negative_cap", "zero_cap", "colliding_thresholds"],
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


def test_bench_parallel_jobs(tmp_path):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    out = tmp_path / "bench_jobs"
    result = RUNNER.invoke(
        main,
        ["bench", str(manifest_file), "--config", str(config_file),
         "--out", str(out), "--jobs", "2"],
    )
    assert result.exit_code == 0, result.output
    assert load_json(out / "report.json")["counts"] == {"scored": 3, "failed": 0}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_bad_manifest_entries_become_failed_rows(tmp_path, jobs):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook(), n_docs=5)
    manifest = load_json(manifest_file)
    docs = manifest["docs"]
    del docs[1]["draft_file"]
    del docs[2]["reference_file"]
    docs[3]["reference_file"] = str(tmp_path / "no_such_ref.txt")
    (tmp_path / "ref5.txt").write_bytes(b"\xff\xfe not utf-8")
    manifest_file.write_text(json.dumps(manifest), "utf-8")
    out = tmp_path / "bench"
    result = RUNNER.invoke(
        main,
        ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out),
         "--jobs", jobs],
    )
    assert result.exit_code == 2, result.output
    record = load_json(out / "report.json")
    assert record["counts"] == {"scored": 1, "failed": 4}
    rows = {r["doc_id"]: r for r in record["rows"]}
    assert rows["doc1"]["failed"] is False
    assert "has no 'draft_file'" in rows["doc2"]["error"]
    assert "has no 'reference_file'" in rows["doc3"]["error"]
    assert "cannot read reference" in rows["doc4"]["error"]
    assert "cannot read reference" in rows["doc5"]["error"]
    assert result.output.count("FAILED") == 4


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


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "spoil, named",
    [
        (lambda e: {k: v for k, v in e.items() if k != "doc_id"}, "manifest entry 1"),
        (lambda e: "doc2", "manifest entry 1"),
        (lambda e: {**e, "doc_id": "doc1"}, "duplicate doc_id 'doc1'"),
        (lambda e: {**e, "doc_id": "../../escaped"}, "manifest entry 1"),
        (lambda e: {**e, "doc_id": ".."}, "manifest entry 1"),
    ],
    ids=["no_doc_id", "not_an_object", "duplicate", "escapes_out", "dot_dot"],
)
def test_bench_rejects_bad_doc_ids_before_any_model_call(tmp_path, monkeypatch, jobs, spoil,
                                                          named):
    manifest_file, config_file, _ = _bench_fixture(tmp_path, pipeline_playbook())
    manifest = load_json(manifest_file)
    manifest["docs"][1] = spoil(manifest["docs"][1])
    manifest_file.write_text(json.dumps(manifest), "utf-8")
    calls = _backend_calls(monkeypatch)
    out = tmp_path / "a" / "b" / "bench"
    result = RUNNER.invoke(
        main,
        ["bench", str(manifest_file), "--config", str(config_file), "--out", str(out),
         "--jobs", jobs],
    )
    assert result.exit_code == 1, result.output
    assert named in result.output
    assert calls == []
    assert not (tmp_path / "a").exists()


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
        ({"rules": [{"responses": ["x"]}]}, "playbook rule 0 needs"),
        ({"rules": [{"match": "a", "responses": ["x"]}, {"match": "b", "responses": "x"}]},
         "playbook rule 1 needs"),
        ({"rules": [{"match": "a", "responses": []}]}, "playbook rule 0 needs"),
        ({"rules": ["a"]}, "playbook rule 0 needs"),
        ({"rules": [{"match": "(", "regex": True, "responses": ["x"]}]},
         "playbook rule 0: bad regex '('"),
        ({"rules": {"match": "a"}}, "a playbook must be a JSON object with a list of rules"),
        ([], "a playbook must be a JSON object with a list of rules"),
    ],
    ids=["no_match", "responses_not_a_list", "no_responses", "rule_not_an_object",
         "bad_regex", "rules_not_a_list", "not_an_object"],
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
