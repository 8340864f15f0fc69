"""Acceptance suite.

One test per criterion, named test_criterion_<n>_*; the conftest hook prints
a PASS/FAIL line per criterion in the terminal summary. Criterion 9 needs a
live endpoint (set PATENTGEN_LIVE_CONFIG to a run-config JSON) and is
skipped otherwise.
"""

from __future__ import annotations

import json
import os
import random
import string
import time

import pytest

from patentgen.core import load_json, patent_to_record, patent_to_text
from patentgen.datakit import DatasetBuilder, build_dataset, make_splits, proportional_sizes
from patentgen.gateway import MockPlaybook
from patentgen.metrics import IrrConfig, bleu, irr_report, rouge_f1, split_sentences
from patentgen.pipeline import PatentPipeline, PipelineConfig
from patentgen.tags import (
    NonContiguousIndicesError,
    TagError,
    TagSpec,
    extract_sections,
    extract_tag,
    wrap_tag,
)
from helpers import (
    FAIL_REVIEW,
    PASS_REVIEW,
    mock_gateways,
    oracle_irr,
    pipeline_playbook,
    rule,
    runtime_for,
)


def _doc(sentences):
    return "\n\n".join(sentences)


def test_criterion_1_metric_exactness():
    start = time.perf_counter()

    cfg = IrrConfig(t=0.2, epsilon=1e-6)
    two_identical = split_sentences(_doc(["adaptive gain loop", "adaptive gain loop"]))
    assert irr_report(two_identical, cfg).value == pytest.approx(1 / (1 + 1e-6), abs=1e-9)

    three_disjoint = split_sentences(
        _doc(["alpha beta gamma", "delta epsilon zeta", "eta theta iota"])
    )
    assert irr_report(three_disjoint, cfg).value == pytest.approx(3 / 1e-6, abs=1e-9 * 3e6)
    assert irr_report(three_disjoint, cfg).value == 3 / 1e-6

    four_two_repeats = split_sentences(
        _doc(["alpha beta gamma", "alpha beta gamma", "delta epsilon zeta", "delta epsilon zeta"])
    )
    assert irr_report(four_two_repeats, cfg).value == pytest.approx(6 / (2 + 1e-6), abs=1e-9)

    assert rouge_f1("the cat sat", "the cat", "r1") == 0.8

    identity = "the adaptive controller adjusts loop gain from sensor feedback"
    assert bleu([identity], [identity]) == 100.0
    for variant in ("r1", "r2", "rl"):
        assert rouge_f1(identity, identity, variant) == 1.0

    assert time.perf_counter() - start < 1.0


def _random_sentences(rng: random.Random, max_n: int) -> list[str]:
    vocab = ["adaptive", "gain", "loop", "sensor", "widget", "claim", "the",
             "signal", "control", "method", "system", "1", "2", "feedback"]
    return [
        " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        for _ in range(rng.randint(2, max_n))
    ]


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240817)
    for _ in range(200):
        sentences = _random_sentences(rng, max_n=50)
        t = rng.choice([0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0])
        production = irr_report(split_sentences(_doc(sentences)), IrrConfig(t=t)).value
        assert production == oracle_irr(sentences, t, 1e-6)
    assert time.perf_counter() - start < 10.0


def test_criterion_3_irr_monotone_in_threshold():
    start = time.perf_counter()
    rng = random.Random(555)
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    for _ in range(100):
        ss = split_sentences(_doc(_random_sentences(rng, max_n=25)))
        values = [irr_report(ss, IrrConfig(t=t)).value for t in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
    assert time.perf_counter() - start < 10.0


_EXPECTED_WALK = {
    "title": 1, "abstract": 1, "background": 1, "summary": 1, "claims": 1,
    "planner": 1, "section_expand": 2, "retrieval": 4,
    "description_write": 4, "description_refine": 1, "examiner_review": 5,
}


def test_criterion_4_end_to_end_determinism(draft):
    start = time.perf_counter()

    def run_once():
        playbook = pipeline_playbook(
            sections=2, subsections=2, review_script=[FAIL_REVIEW, PASS_REVIEW]
        )
        pipeline = PatentPipeline(mock_gateways(playbook))
        doc = pipeline.run(draft, PipelineConfig())
        return doc

    docs = [run_once() for _ in range(3)]
    texts = {patent_to_text(d) for d in docs}
    records = {json.dumps(patent_to_record(d), sort_keys=True) for d in docs}
    assert len(texts) == 1 and len(records) == 1

    for doc in docs:
        assert doc.generation_meta.role_counts() == _EXPECTED_WALK
    assert time.perf_counter() - start < 5.0


def test_criterion_5_refinement_loop_is_bounded(draft, tmp_path):
    start = time.perf_counter()
    playbook = pipeline_playbook(sections=2, subsections=2, review_script=[FAIL_REVIEW])
    run_dir = tmp_path / "bounded"
    pipeline = PatentPipeline(mock_gateways(playbook), run_dir=run_dir)
    doc = pipeline.run(draft, PipelineConfig(max_refine_rounds=3))
    assert doc.description  # the run completed despite always-failing reviews
    subs = sorted((run_dir / "subsections").glob("*.json"))
    assert len(subs) == 4
    for path in subs:
        record = load_json(path)
        assert record["rounds_used"] == 3
        assert record["accepted_with_warning"] is True
        assert len(record["history"]) == 4
    warnings = load_json(run_dir / "warnings.json")["warnings"]
    assert sum("accepted with warning" in w for w in warnings) == 4
    assert time.perf_counter() - start < 5.0


def test_criterion_6_completeness_across_mock_matrix(draft):
    matrix = [
        (pipeline_playbook(sections=1, subsections=1), PipelineConfig()),
        (pipeline_playbook(sections=3, subsections=None), PipelineConfig(pgtree_expansion="off")),
        (pipeline_playbook(sections=2, subsections=[2, 3]), PipelineConfig()),
        (
            pipeline_playbook(sections=2, subsections=2,
                              review_script=[FAIL_REVIEW, PASS_REVIEW]),
            PipelineConfig(),
        ),
        (pipeline_playbook(sections=1, subsections=2, review_script=[FAIL_REVIEW]),
         PipelineConfig(max_refine_rounds=1)),
    ]
    for playbook, cfg in matrix:
        doc = PatentPipeline(mock_gateways(playbook)).run(draft, cfg)
        for name in ("title", "abstract", "background", "summary", "claims", "description"):
            assert doc.section(name).strip()
        rendered = patent_to_text(doc)
        assert rendered.index("# DESCRIPTION") < rendered.index("# CLAIMS")


def test_criterion_7_dataset_gate_and_splits():
    from patentgen.datakit import PatentRecord

    records = [
        PatentRecord(
            record_id=f"rec{i:03d}",
            title=f"Widget {i}", abstract=f"Abstract {i}", background=f"Background {i}",
            summary=f"Summary {i}", claims=f"1. A widget {i}.",
            description=f"Description {i}.", decision_label="ACCEPTED",
        )
        for i in range(1, 11)
    ]
    bad = (2, 5, 8)
    rules = [
        rule(
            rf"(?s)Widget {i}\b.*detailed technical solution of the invention",
            f"BADQ3 shallow answer {i}", regex=True,
        )
        for i in bad
    ]
    rules.append(rule("BADQ3", "<Result> Fail </Result><Reason> scripted: too shallow </Reason>"))
    rules.append(rule("You are the inventor", "A thorough scripted answer."))
    rules.append(rule("meets the quality standards", "<Result> Pass </Result>"))
    builder = DatasetBuilder(runtime_for(MockPlaybook(rules)))
    build = build_dataset(builder, records, collect_trees=False)

    assert len(build.accepted_ids) == 7
    rejected = {s["record_id"] for s in build.skips}
    assert rejected == {f"rec{i:03d}" for i in bad}
    for skip in build.skips:
        assert "scripted: too shallow" in skip["reason"]

    assert proportional_sizes(7) == (5, 1, 1)
    first = make_splits(build.accepted_ids, seed=11)
    second = make_splits(build.accepted_ids, seed=11)
    assert first == second
    assert (len(first.train), len(first.valid), len(first.test)) == (5, 1, 1)


def test_criterion_8_parser_fuzz_and_round_trip():
    rng = random.Random(424242)
    alphabet = string.ascii_letters + string.digits + " <>/-\n."
    tags = ["Result", "Advice", "Title", "Patent"]
    declared = (TagError, NonContiguousIndicesError)
    for i in range(10_000):
        mode = i % 3
        if mode == 0:
            # arbitrary noise must only ever raise declared parse errors
            noise = "".join(rng.choices(alphabet, k=rng.randint(0, 80)))
            for probe in (lambda: extract_tag(noise, TagSpec(rng.choice(tags))),
                          lambda: extract_sections(noise)):
                try:
                    probe()
                except declared:
                    pass
        elif mode == 1:
            # round trip for content free of this tag's own markers
            tag = rng.choice(tags)
            content = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
            if f"<{tag}>" in content or f"</{tag}>" in content:
                continue
            assert extract_tag(wrap_tag(content, tag), TagSpec(tag)) == content.strip()
        else:
            # contiguity: blocks numbered 1..m parse, anything else raises
            m = rng.randint(1, 6)
            indices = list(range(1, m + 1))
            if rng.random() < 0.5:
                indices[rng.randrange(m)] += rng.randint(1, 3)
            text = "".join(f"<Section-{k}>x</Section-{k}>\n" for k in indices)
            if indices == list(range(1, m + 1)):
                assert [k for k, _ in extract_sections(text)] == indices
            else:
                with pytest.raises((NonContiguousIndicesError, TagError)):
                    extract_sections(text)


_LIVE_CONFIG = os.environ.get("PATENTGEN_LIVE_CONFIG")


@pytest.mark.skipif(not _LIVE_CONFIG, reason="PATENTGEN_LIVE_CONFIG not set; live smoke skipped")
def test_criterion_9_live_smoke(draft, tmp_path):
    from patentgen.pipeline import load_run_config

    gateways, bindings, cfg = load_run_config(_LIVE_CONFIG)
    pipeline = PatentPipeline(gateways, bindings=bindings, run_dir=tmp_path / "live")
    doc = pipeline.run(draft, cfg)
    for name in ("title", "abstract", "background", "summary", "claims", "description"):
        assert doc.section(name).strip()
    assert len(patent_to_text(doc, headers=False).split()) > 8000
