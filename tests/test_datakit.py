from __future__ import annotations

import json
import re
import threading
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from patentgen.agents import AgentRuntime, default_bindings
from patentgen.core import ConfigError, draft_to_record, new_run_record, render_draft
from patentgen.datakit import (
    SFT_KINDS,
    DatakitError,
    DatasetBuild,
    DatasetBuilder,
    InsufficientRecordsError,
    PatentRecord,
    build_dataset,
    build_dataset_dir,
    export_sft,
    load_records,
    make_splits,
    proportional_sizes,
    render_record,
    reviewer_template_for,
    write_build_artifacts,
)
from patentgen.gateway import MockPlaybook
from helpers import (
    FAIL_QUALITY,
    MATCH_COLLECT,
    MATCH_INVENTOR,
    MATCH_QUALITY,
    PASS_QUALITY,
    PromptFunctionBackend,
    function_gateways,
    rule,
    runtime_for,
    tree_contents,
)


def _record(i: int, **overrides) -> PatentRecord:
    fields = dict(
        record_id=f"rec{i:03d}",
        title=f"Widget {i}",
        abstract=f"Abstract {i}",
        background=f"Background {i}",
        summary=f"Summary {i}",
        claims=f"1. A widget {i}.",
        description=f"Description of widget {i}. It has parts.",
        decision_label="ACCEPTED",
    )
    fields.update(overrides)
    return PatentRecord(**fields)


def _basic_playbook(extra=None) -> MockPlaybook:
    rules = list(extra or [])
    rules.append(rule(MATCH_INVENTOR, "A detailed answer about the invention."))
    rules.append(rule(MATCH_QUALITY, PASS_QUALITY))
    rules.append(rule(MATCH_COLLECT, "<Section-1> part one </Section-1><Section-2> part two </Section-2>"))
    return MockPlaybook(rules=rules)


def _builder(playbook, **kwargs) -> DatasetBuilder:
    return DatasetBuilder(runtime_for(playbook), **kwargs)


# --- ingestion ------------------------------------------------------------------


def test_load_records_from_directory(tmp_path):
    good = _record(1)
    for name, payload in {
        "a": {**good.__dict__},
        "b": {**_record(2).__dict__, "decision_label": "REJECTED"},
        "c": {**_record(3).__dict__, "claims": ""},
    }.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload), "utf-8")
    records, skips = load_records(tmp_path)
    assert [r.record_id for r in records] == ["rec001"]
    assert len(skips) == 2
    reasons = " | ".join(s["reason"] for s in skips)
    assert "REJECTED" in reasons and "claims" in reasons


def test_load_records_jsonl_with_field_map(tmp_path):
    raw = {
        "id": "x1", "invention_title": "T", "abstract": "A", "background": "B",
        "summary": "S", "claims": "C", "full_description": "D", "decision": "ACCEPTED",
    }
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(raw) + "\n", "utf-8")
    field_map = {
        "record_id": "id", "title": "invention_title",
        "description": "full_description", "decision_label": "decision",
    }
    records, skips = load_records(path, field_map=field_map)
    assert not skips
    assert records[0].record_id == "x1" and records[0].title == "T"


@pytest.mark.parametrize("layout", ["directory", "jsonl"])
@pytest.mark.parametrize("bad, named", [
    ("[1, 2]", "record is not a JSON object"),
    ('{"title": ', "Expecting value"),
    # An id names one record, whether its label is accepted or not.
    pytest.param(json.dumps(_record(1, decision_label="REJECTED").__dict__),
                 "record_id 'rec001' is also the id of {first}$", id="duplicate_id"),
    # An id names the record's draft file, so it must stay inside drafts/.
    *[pytest.param(json.dumps({**_record(2).__dict__, "record_id": record_id}),
                   f"record_id {record_id!r} is not a file name$", id=f"record_id_{name}")
      for name, record_id in (("parent", "../x"), ("slash", "a/b"), ("dot", "."),
                              ("long_ascii", "r" * 251), ("long_multibyte", "\u00e9" * 126))],
    pytest.param(json.dumps({**_record(2).__dict__, "claims": ["1. A widget."]}),
                 "field 'claims' is an array; expected text$", id="array_field"),
    pytest.param(json.dumps({**_record(2).__dict__, "title": {"en": "Widget"}}),
                 "field 'title' is an object; expected text$", id="object_field"),
])
def test_load_records_names_the_file_of_a_bad_record(tmp_path, layout, bad, named):
    if layout == "directory":
        (tmp_path / "a.json").write_text(json.dumps(_record(1).__dict__), "utf-8")
        (tmp_path / "b.json").write_text(bad, "utf-8")
        path, first, where = tmp_path, str(tmp_path / "a.json"), str(tmp_path / "b.json")
    else:
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(_record(1).__dict__) + "\n\n" + bad + "\n", "utf-8")
        first, where = f"{path} line 1", f"{path} line 3"
    named = named.format(first=re.escape(first))
    with pytest.raises(DatakitError, match=f"^{re.escape(where)}: {named}"):
        load_records(path)


def test_load_records_reads_a_null_field_as_absent(tmp_path):
    records = [{**_record(1).__dict__, "claims": None},
               {**_record(2).__dict__, "record_id": None, "abstract": 7}]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    kept, skips = load_records(path)
    assert skips == [{"record_id": "rec001", "stage": "ingest",
                      "reason": "empty fields: ['claims']"}]
    assert [(r.record_id, r.abstract) for r in kept] == [("line2", "7")]


def test_load_records_rejects_a_path_neither_a_directory_nor_jsonl(tmp_path):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(_record(1).__dict__), "utf-8")
    with pytest.raises(DatakitError, match="records path must be a directory or .jsonl file"):
        load_records(path)


def test_render_record_contains_all_sections():
    text = render_record(_record(7))
    for part in ("Title:", "Abstract:", "Background:", "Summary:", "Claims:", "Description:"):
        assert part in text
    assert text == ("Title: Widget 7\n\nAbstract: Abstract 7\n\nBackground: Background 7\n\n"
                    "Summary: Summary 7\n\nClaims: 1. A widget 7.\n\n"
                    "Description: Description of widget 7. It has parts.")


def test_sft_kinds_are_pinned():
    assert SFT_KINDS == ("D2T", "D2A", "D2B", "D2S", "D2C", "D2W", "D2P_full")


# --- draft synthesis -------------------------------------------------------------


def _draft_and_review(playbook, rec=None):
    """The record's draft and quality report, as build_dataset makes them."""
    rec = rec or _record(1)
    drafts = {}
    report = _builder(playbook).draft_and_review(rec, drafts)
    return drafts[rec.record_id], report


def _answering(answers, *quality_rules) -> MockPlaybook:
    """A playbook whose inventor gives answers in question order."""
    return MockPlaybook([rule(MATCH_INVENTOR, *answers), *quality_rules])


def test_synthesize_draft_orders_answers():
    answers = [f"Answer to question {i}." for i in range(1, 6)]
    draft, _ = _draft_and_review(_answering(answers, rule(MATCH_QUALITY, PASS_QUALITY)))
    assert [qa.answer_text for qa in draft.qa] == answers
    assert draft.source_id == "rec001"


def test_synthesize_draft_is_deterministic():
    def once():
        return _draft_and_review(_basic_playbook())

    assert once() == once()


def test_the_traced_stage_methods_make_what_draft_and_review_makes():
    # perfbench's tracer reads these from the class dict by name.
    assert {"synthesize_draft", "review_draft_quality", "collect_pgtree"} <= set(
        DatasetBuilder.__dict__)
    playbook = _basic_playbook(extra=[rule(REVIEWER_Q2, FAIL_QUALITY)])
    draft, report = _draft_and_review(playbook)
    assert [i.question_id for i in report.items if not i.passed] == [2]
    staged = _builder(playbook).synthesize_draft(_record(1))
    assert (staged, _builder(playbook).review_draft_quality(staged)) == (draft, report)


def test_empty_answer_skips_record():
    playbook = MockPlaybook([rule(MATCH_INVENTOR, "fine answer", "", "fine")])
    build = build_dataset(_builder(playbook), [_record(1)], collect_trees=False)
    assert build.accepted_ids == []
    assert build.skips and build.skips[0]["stage"] == "draft"
    assert "q2: empty answer" in build.skips[0]["reason"]


# --- quality gate ----------------------------------------------------------------


def test_quality_all_pass():
    _, report = _draft_and_review(_basic_playbook())
    assert report.overall_pass
    assert [i.question_id for i in report.items] == [1, 2, 3, 4, 5]


def test_quality_fail_carries_reason(draft):
    # q3's answer is distinctive, so a marker rule can fail just that question
    playbook = _answering(
        [qa.answer_text for qa in draft.qa],
        rule("adjusts loop gain", FAIL_QUALITY),
        rule(MATCH_QUALITY, PASS_QUALITY),
    )
    _, report = _draft_and_review(playbook)
    assert not report.overall_pass
    failed = [i for i in report.items if not i.passed]
    assert [i.question_id for i in failed] == [3]
    assert failed[0].reason == "missing implementation detail"


def test_quality_unparseable_verdict_marks_fail(draft):
    playbook = _answering([qa.answer_text for qa in draft.qa],
                          rule(MATCH_QUALITY, "I think it is fine"))
    _, report = _draft_and_review(playbook)
    assert not report.overall_pass
    assert all(i.reason == "unparseable verdict" for i in report.items)


@pytest.mark.parametrize("reply", ["<Result> Maybe </Result>",
                                   "<Result> Fail </Result><Reason> </Reason>"],
                         ids=["odd_result", "empty_reason"])
def test_quality_re_asks_an_odd_result_or_an_empty_reason(draft, reply):
    playbook = _answering([qa.answer_text for qa in draft.qa],
                          rule(MATCH_QUALITY, reply, PASS_QUALITY))
    builder = _builder(playbook)
    report = builder.draft_and_review(_record(1), {})
    assert report.overall_pass
    # Five answers, five reviews and one re-ask.
    assert builder.runtime.gateways["default"].backend.calls == 11


def test_quality_gateway_error_skips_the_record():
    # A reviewer's gateway error used to escape build_dataset and end the build.
    playbook = _basic_playbook(extra=[rule(MATCH_QUALITY, {"error": "status", "code": 404})])
    build = build_dataset(_builder(playbook), [_record(1), _record(2)], collect_trees=False)
    assert build.accepted_ids == [] and build.quality == {}
    assert sorted(build.drafts) == ["rec001", "rec002"]
    assert [(s["record_id"], s["stage"]) for s in build.skips] == [
        ("rec001", "quality_gate"), ("rec002", "quality_gate")]
    assert all(s["reason"].startswith("q1: ") and "404" in s["reason"] for s in build.skips)


def test_reviewer_mapping_literal_and_corrected():
    assert reviewer_template_for(4) == "draft_quality_q4"
    assert reviewer_template_for(5) == "draft_quality_q5"
    assert reviewer_template_for(4, corrected_mapping=True) == "draft_quality_q5"
    assert reviewer_template_for(5, corrected_mapping=True) == "draft_quality_q4"
    assert reviewer_template_for(1, corrected_mapping=True) == "draft_quality_q1"


# --- tree collection ---------------------------------------------------------------


def test_collect_pgtree_parses_sections():
    tree = _builder(_basic_playbook()).collect_pgtree("Some long description.")
    assert tree == [(1, "part one"), (2, "part two")]


def test_collect_pgtree_skip_on_bad_numbering():
    playbook = MockPlaybook(
        [
            rule(MATCH_INVENTOR, "answer"),
            rule(MATCH_QUALITY, PASS_QUALITY),
            rule(MATCH_COLLECT, "<Section-1> a </Section-1><Section-3> b </Section-3>"),
        ]
    )
    build = build_dataset(_builder(playbook), [_record(1)])
    assert build.accepted_ids == ["rec001"]
    assert "rec001" not in build.pgtrees
    assert any(s["stage"] == "pgtree" for s in build.skips)


def test_collect_pgtree_re_asks_after_an_empty_section():
    playbook = MockPlaybook([rule(MATCH_COLLECT, "<Section-1> a </Section-1><Section-2></Section-2>",
                                  "<Section-1> a </Section-1><Section-2> b </Section-2>")])
    assert _builder(playbook).collect_pgtree("Some long description.") == [(1, "a"), (2, "b")]


# --- splits --------------------------------------------------------------------------


def test_paper_scale_split_sizes():
    ids = [f"r{i}" for i in range(1933)]
    manifest = make_splits(ids, seed=3)
    assert (len(manifest.train), len(manifest.valid), len(manifest.test)) == (1500, 133, 300)
    assert not manifest.leftover


def test_proportional_scaling_to_seven():
    assert proportional_sizes(7) == (5, 1, 1)


def test_splits_deterministic_for_seed():
    ids = [f"r{i}" for i in range(10)]
    a = make_splits(ids, sizes=(6, 2, 2), seed=42)
    b = make_splits(ids, sizes=(6, 2, 2), seed=42)
    assert a == b
    c = make_splits(ids, sizes=(6, 2, 2), seed=43)
    assert a != c


def test_splits_insufficient_records():
    with pytest.raises(InsufficientRecordsError):
        make_splits([f"r{i}" for i in range(10)], sizes=(8, 2, 2))


@pytest.mark.parametrize("sizes", [(-1, 2, 3), (5, -2, 0), (0, 0, -1), (3, 3), (1, 2, 3, 4)],
                         ids=["negative_train", "negative_valid", "negative_test", "two_sizes",
                              "four_sizes"])
def test_make_splits_rejects_bad_sizes(sizes):
    # A negative size used to slice from the end, so records landed in two splits.
    with pytest.raises(DatakitError, match="three non-negative integers"):
        make_splits([f"r{i}" for i in range(10)], sizes=sizes)


@given(n=st.integers(3, 60), seed=st.integers(0, 999))
@settings(max_examples=40)
def test_splits_partition_properties(n, seed):
    ids = [f"r{i}" for i in range(n)]
    manifest = make_splits(ids, seed=seed)
    groups = [set(manifest.train), set(manifest.valid), set(manifest.test)]
    assert sum(len(g) for g in groups) == n
    union = set().union(*groups)
    assert union == set(ids)  # disjoint + covering
    assert not manifest.leftover


@given(n=st.integers(1, 500))
@settings(max_examples=60)
def test_proportional_sizes_sum(n):
    sizes = proportional_sizes(n)
    assert sum(sizes) == n
    assert all(s >= 0 for s in sizes)


# --- exports -----------------------------------------------------------------------


def _built_corpus(n=4, with_trees=True) -> DatasetBuild:
    playbook = _basic_playbook()
    builder = _builder(playbook)
    records = [_record(i) for i in range(1, n + 1)]
    return build_dataset(builder, records, collect_trees=with_trees)


def test_export_component_pairs(tmp_path):
    build = _built_corpus(4)
    manifest = make_splits(build.accepted_ids, sizes=(2, 1, 1), seed=0)
    report = export_sft("D2T", manifest, build, tmp_path)
    assert report.counts == {"train": 2, "valid": 1, "test": 1}
    lines = [
        json.loads(line)
        for line in (tmp_path / "D2T" / "train.jsonl").read_text().splitlines()
    ]
    assert all(line["output"].startswith("Widget") for line in lines)
    record_id = lines[0]["record_id"]
    assert lines[0]["input"] == render_draft(build.drafts[record_id])


def test_export_missing_tree_is_skipped(tmp_path):
    build = _built_corpus(3)
    del build.pgtrees[build.accepted_ids[0]]
    manifest = make_splits(build.accepted_ids, sizes=(3, 0, 0), seed=0)
    report = export_sft("D2W", manifest, build, tmp_path)
    assert report.counts["train"] == 2
    assert len(report.skipped) == 1
    assert report.skipped[0]["kind"] == "D2W"


def test_export_full_patent_order(tmp_path):
    build = _built_corpus(2)
    manifest = make_splits(build.accepted_ids, sizes=(2, 0, 0), seed=0)
    export_sft("D2P_full", manifest, build, tmp_path)
    line = json.loads((tmp_path / "D2P_full" / "train.jsonl").read_text().splitlines()[0])
    text = line["output"]
    assert text.index("# DESCRIPTION") < text.index("# CLAIMS")


def test_export_unknown_kind(tmp_path):
    build = _built_corpus(1)
    for sizes in ((1, 0, 0), (0, 0, 0)):
        manifest = make_splits(build.accepted_ids, sizes=sizes, seed=0)
        with pytest.raises(Exception, match="unknown export kind"):
            export_sft("D2X", manifest, build, tmp_path)
        assert not (tmp_path / "D2X").exists()


def test_quality_and_tree_artifact_formats(tmp_path):
    playbook = _basic_playbook(extra=[rule("BADQ3", FAIL_QUALITY), rule(
        r"(?s)Widget 2\b.*detailed technical solution", "BADQ3 thin", regex=True)])
    build = build_dataset(_builder(playbook), [_record(1), _record(2)])
    write_build_artifacts(build, make_splits(build.accepted_ids, sizes=(1, 0, 0)), tmp_path)
    item = '    {{\n      "question_id": {0},\n      "result": "{1}",\n      "reason": "{2}"\n    }}'
    passing = [item.format(q, "Pass", "") for q in range(1, 6)]
    failing = [item.format(q, "Pass", "") for q in (1, 2)] + [
        item.format(3, "Fail", "missing implementation detail")] + passing[3:]
    assert (tmp_path / "quality.json").read_text("utf-8") == (
        '{\n  "rec001": [\n' + ",\n".join(passing) + '\n  ],\n'
        '  "rec002": [\n' + ",\n".join(failing) + '\n  ]\n}\n'
    )
    assert (tmp_path / "pgtrees.json").read_text("utf-8") == (
        '{\n  "rec001": [\n    [\n      1,\n      "part one"\n    ],\n'
        '    [\n      2,\n      "part two"\n    ]\n  ]\n}\n'
    )
    assert (tmp_path / "splits.json").read_text("utf-8") == (
        '{\n  "seed": 0,\n  "train": [\n    "rec001"\n  ],\n  "valid": [],\n  "test": [],\n'
        '  "leftover": []\n}\n'
    )


def test_gate_at_benchmark_scale():
    # 2000 records, 67 scripted to fail the gate, leaving 1933 accepted;
    # default split sizing then lands exactly on 1500/133/300.
    bad = {f"rec{i:04d}" for i in range(67)}
    records = [
        _record(i, record_id=f"rec{i:04d}",
                description=("FAILMARK " if f"rec{i:04d}" in bad else "") + f"Description {i}.")
        for i in range(2000)
    ]
    playbook = MockPlaybook(
        [
            rule("FAILMARK", "BADANSWER too thin to evaluate"),
            rule(MATCH_INVENTOR, "A fine scripted answer."),
            rule("BADANSWER", FAIL_QUALITY),
            rule(MATCH_QUALITY, PASS_QUALITY),
        ]
    )
    build = build_dataset(_builder(playbook), records, collect_trees=False)
    assert len(build.accepted_ids) == 1933
    assert {s["record_id"] for s in build.skips} == bad
    manifest = make_splits(build.accepted_ids, seed=5)
    assert (len(manifest.train), len(manifest.valid), len(manifest.test)) == (1500, 133, 300)


def test_gate_counts_on_mixed_corpus():
    # 2 of 5 records fail q3 via a marker in the scripted inventor answer
    rules = []
    for i in (2, 4):
        rules.append(
            rule(
                rf"(?s)Widget {i}\b.*detailed technical solution of the invention",
                f"BADQ3 thin answer for {i}", regex=True,
            )
        )
    rules.append(rule("BADQ3", FAIL_QUALITY))
    playbook = _basic_playbook(extra=rules)
    build = build_dataset(_builder(playbook), [_record(i) for i in range(1, 6)], collect_trees=False)
    assert len(build.accepted_ids) == 3
    assert sorted(build.accepted_ids) == ["rec001", "rec003", "rec005"]
    for skip in build.skips:
        assert skip["stage"] == "quality_gate"
        assert "missing implementation detail" in skip["reason"]


# --- fan-out ---------------------------------------------------------------------------

INVENTOR_Q1 = "technical problem that this patent aims to solve"
INVENTOR_Q2 = "technical background of this invention"
INVENTOR_Q4 = "key points of the invention"
REVIEWER_Q1 = "technical problem solved by the invention"
REVIEWER_Q2 = "background of the technology"
REVIEWER_Q4 = "description of the drawings"


def _function_build(records, width, delay_s=0.001, fail_when=None):
    backend = PromptFunctionBackend(delay_s=delay_s, fail_when=fail_when)
    recorder = new_run_record()
    runtime = AgentRuntime(gateways=function_gateways(backend, width), recorder=recorder)
    return build_dataset(DatasetBuilder(runtime), records), recorder, backend


def test_build_and_exports_are_the_same_at_every_width(tmp_path):
    records = [_record(i) for i in range(1, 13)]
    runs, peaks = {}, {}
    for width in (1, 8):
        build, recorder, backend = _function_build(records, width)
        out = tmp_path / f"width{width}"
        manifest = make_splits(build.accepted_ids, seed=0)
        write_build_artifacts(build, manifest, out)
        for kind in SFT_KINDS:
            export_sft(kind, manifest, build, out / "exports")
        (out / "calls.jsonl").write_text(
            "".join(json.dumps(entry) + "\n" for entry in recorder.to_records()), "utf-8")
        runs[width], peaks[width] = tree_contents(out), backend.peak
    assert runs[1] == runs[8]
    assert peaks[1] == 1 and 1 < peaks[8] <= 5
    # Some reviewers fail the record and some re-ask, so the merge order is exercised.
    skips = [json.loads(line) for line in runs[1]["skips.jsonl"].splitlines()]
    assert skips and all(s["stage"] == "quality_gate" for s in skips) and len(skips) < 12
    roles = [json.loads(line)["agent_role"] for line in runs[1]["calls.jsonl"].splitlines()]
    assert roles.count("inventor") == 60 and roles.count("draft_quality") > 60


def test_a_width_1_build_starts_no_thread():
    seen = []
    runtime = runtime_for(_basic_playbook())
    send = runtime.gateways["default"].backend.send
    runtime.gateways["default"].backend.send = (
        lambda req: seen.append((threading.get_ident(), threading.active_count())) or send(req))
    threads = threading.active_count()
    build_dataset(DatasetBuilder(runtime), [_record(i) for i in range(1, 4)])
    assert seen and set(seen) == {(threading.get_ident(), threads)}


@pytest.mark.parametrize("width", [1, 3])
def test_backend_never_sees_more_than_max_inflight(width):
    _, _, backend = _function_build([_record(i) for i in range(1, 5)], width, delay_s=0.002)
    assert backend.peak == width


@pytest.mark.parametrize("stage, q2, q4", [("draft", INVENTOR_Q2, INVENTOR_Q4),
                                           ("quality_gate", REVIEWER_Q2, REVIEWER_Q4)])
def test_first_failing_question_names_the_skip_at_every_width(stage, q2, q4):
    for width in (1, 8):
        prompts, lock = [], threading.Lock()

        def fail_when(prompt):
            with lock:
                prompts.append(prompt)
            if q2 in prompt:
                time.sleep(0.03)  # q4 fails first when both are in flight
                return "q2 unavailable"
            return "q4 unavailable" if q4 in prompt else None

        build, _, _ = _function_build([_record(1)], width, delay_s=0.005, fail_when=fail_when)
        assert [(s["stage"], s["reason"][:4]) for s in build.skips] == [(stage, "q2: ")]
        assert "q2 unavailable" in build.skips[0]["reason"]
        assert build.accepted_ids == [] and build.quality == {}
        if width == 1:
            # A one-worker run stops at q2, as a sequential build does.
            inventor = [p for p in prompts if MATCH_INVENTOR in p]
            reviewer = [p for p in prompts if MATCH_QUALITY in p]
            if stage == "draft":
                assert len(inventor) == 2 and not reviewer
            else:
                assert len(inventor) == 5
                assert sum(q2 in p for p in reviewer) == 1
                assert all(REVIEWER_Q1 in p or q2 in p for p in reviewer)


@pytest.mark.parametrize("width", [1, 8])
def test_a_reviewer_error_keeps_the_draft_and_skips_the_record(tmp_path, width):
    def fail_when(prompt):
        return "reviewer down" if REVIEWER_Q2 in prompt else None

    build, _, _ = _function_build([_record(1), _record(2)], width, fail_when=fail_when)
    assert build.quality == {} and build.accepted_ids == []
    assert [(s["record_id"], s["stage"], s["reason"][:4]) for s in build.skips] == [
        ("rec001", "quality_gate", "q2: "), ("rec002", "quality_gate", "q2: ")]
    assert sorted(build.drafts) == ["rec001", "rec002"]
    write_build_artifacts(build, make_splits([], sizes=(0, 0, 0)), tmp_path)
    for record_id, draft in build.drafts.items():
        assert draft.source_id == record_id and len(draft.qa) == 5
        saved = json.loads((tmp_path / "drafts" / f"{record_id}.json").read_text("utf-8"))
        assert saved == draft_to_record(draft)


@pytest.mark.parametrize("width", [1, 8])
def test_an_inventor_error_wins_over_a_reviewer_error(width):
    def fail_when(prompt):
        if INVENTOR_Q4 in prompt:
            time.sleep(0.03)  # the reviewer fails first when both are in flight
            return "inventor down"
        return "reviewer down" if REVIEWER_Q1 in prompt else None

    build, _, _ = _function_build([_record(1)], width, fail_when=fail_when)
    assert [(s["stage"], s["reason"][:4]) for s in build.skips] == [("draft", "q4: ")]
    assert "inventor down" in build.skips[0]["reason"]
    assert build.drafts == {} and build.quality == {} and build.accepted_ids == []


def test_a_review_starts_as_soon_as_its_own_answer_lands():
    # At width 3, answer q1 is held until review q2 is sent, or for 2 s.
    events, review_q2_sent = [], threading.Event()

    def fail_when(prompt):
        if REVIEWER_Q2 in prompt:
            events.append("review q2 sent")
            review_q2_sent.set()
        elif INVENTOR_Q1 in prompt:
            review_q2_sent.wait(2)
            events.append("answer q1 done")
        return None

    build, _, _ = _function_build([_record(1)], 3, fail_when=fail_when)
    assert events == ["review q2 sent", "answer q1 done"]
    assert list(build.quality) == ["rec001"]


# --- build_dataset_dir ------------------------------------------------------------


@pytest.mark.parametrize("options, message", [
    ({"kinds": "D2T,D2W", "skip_trees": True},
     "D2W exports guideline trees, which --skip-trees does not collect"),
    ({"kinds": "D2T,D2X"}, f"unknown export kinds ['D2X']; expected {list(SFT_KINDS)}"),
    ({"sizes": "2,1,1"}, "split sizes need 4 records, more than the 3 ingested from "),
    ({"sizes": "1,2"}, "split sizes must be three non-negative integers, got (1, 2)"),
    ({"sizes": "1,x,1"}, "split sizes must be three non-negative integers, got '1,x,1'"),
], ids=["d2w_without_trees", "unknown_kind", "sizes_beyond_ingested", "two_sizes", "not_a_size"])
def test_build_dataset_dir_rejects_bad_options_before_any_call(tmp_path, options, message):
    records = tmp_path / "records"
    records.mkdir()
    for i in (1, 2, 3):
        (records / f"rec{i}.json").write_text(json.dumps(_record(i).__dict__), "utf-8")
    backend = PromptFunctionBackend(fail_when=lambda prompt: "no call may be sent")
    out = tmp_path / "build"
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_dataset_dir(function_gateways(backend, 1), default_bindings(), records, out,
                          seed=0, accept_label="ACCEPTED", **options)
    assert backend.calls == 0
    assert not out.exists()
