from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from patentgen.core import render_draft
from patentgen.datakit import (
    DatakitError,
    DatasetBuild,
    DatasetBuilder,
    IngestConfig,
    InsufficientRecordsError,
    PatentRecord,
    build_dataset,
    export_sft,
    load_records,
    make_splits,
    proportional_sizes,
    render_record,
    reviewer_template_for,
)
from patentgen.gateway import MockPlaybook
from helpers import rule, runtime_for

MATCH_INVENTOR = "You are the inventor"
MATCH_QUALITY = "meets the quality standards"
MATCH_COLLECT = "summarize the key parts"

PASS_QUALITY = "<Result> Pass </Result>"
FAIL_QUALITY = "<Result> Fail </Result><Reason> missing implementation detail </Reason>"


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
    cfg = IngestConfig(
        field_map={
            "record_id": "id", "title": "invention_title",
            "description": "full_description", "decision_label": "decision",
        }
    )
    records, skips = load_records(path, cfg)
    assert not skips
    assert records[0].record_id == "x1" and records[0].title == "T"


def test_render_record_contains_all_sections():
    text = render_record(_record(7))
    for part in ("Title:", "Abstract:", "Background:", "Summary:", "Claims:", "Description:"):
        assert part in text


# --- draft synthesis -------------------------------------------------------------


def test_synthesize_draft_orders_answers():
    playbook = MockPlaybook(
        [
            rule(MATCH_INVENTOR, *[f"Answer to question {i}." for i in range(1, 6)]),
        ]
    )
    draft = _builder(playbook).synthesize_draft(_record(1))
    assert [qa.answer_text for qa in draft.qa] == [f"Answer to question {i}." for i in range(1, 6)]
    assert draft.source_id == "rec001"


def test_synthesize_draft_is_deterministic():
    def once():
        return _builder(_basic_playbook()).synthesize_draft(_record(1))

    assert once() == once()


def test_empty_answer_skips_record():
    playbook = MockPlaybook([rule(MATCH_INVENTOR, "fine answer", "", "fine")])
    build = build_dataset(_builder(playbook), [_record(1)], collect_trees=False)
    assert build.accepted_ids == []
    assert build.skips and build.skips[0]["stage"] == "draft"
    assert "q2: empty answer" in build.skips[0]["reason"]


# --- quality gate ----------------------------------------------------------------


def test_quality_all_pass():
    report = _builder(_basic_playbook()).review_draft_quality(
        _builder(_basic_playbook()).synthesize_draft(_record(1))
    )
    assert report.overall_pass
    assert [i.question_id for i in report.items] == [1, 2, 3, 4, 5]


def test_quality_fail_carries_reason(draft):
    # q3's answer is distinctive, so a marker rule can fail just that question
    playbook = MockPlaybook(
        [
            rule("adjusts loop gain", FAIL_QUALITY),
            rule(MATCH_QUALITY, PASS_QUALITY),
        ]
    )
    report = _builder(playbook).review_draft_quality(draft)
    assert not report.overall_pass
    failed = [i for i in report.items if not i.passed]
    assert [i.question_id for i in failed] == [3]
    assert failed[0].reason == "missing implementation detail"


def test_quality_unparseable_verdict_marks_fail(draft):
    playbook = MockPlaybook([rule(MATCH_QUALITY, "I think it is fine")])
    report = _builder(playbook).review_draft_quality(draft)
    assert not report.overall_pass
    assert all(i.reason == "unparseable verdict" for i in report.items)


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


def test_collect_pgtree_requires_description():
    with pytest.raises(Exception, match="non-empty"):
        _builder(_basic_playbook()).collect_pgtree("   ")


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
    manifest = make_splits(build.accepted_ids, sizes=(1, 0, 0), seed=0)
    with pytest.raises(Exception, match="unknown export kind"):
        export_sft("D2X", manifest, build, tmp_path)


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
