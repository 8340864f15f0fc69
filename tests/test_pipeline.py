from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

from patentgen.core import (EmptySectionError, Reference, content_hash, load_json,
                            patent_to_record, patent_to_text, render_reference)
from patentgen.gateway import MockPlaybook, ResponseCache
from patentgen.pipeline import (
    PatentPipeline,
    PipelineAborted,
    PipelineConfig,
    load_run_config,
    parse_zero_shot_output,
    plan_section,
    run_zero_shot,
)
from helpers import (
    COMPONENT_MATCHERS,
    COMPONENT_RESPONSES,
    FAIL_REVIEW,
    MATCH_RETRIEVE,
    MATCH_WRITE,
    PASS_REVIEW,
    PromptFunctionBackend,
    function_gateways,
    mock_gateways,
    pipeline_playbook,
    rule,
    tree_contents,
)


def _pipeline(playbook: MockPlaybook, run_dir=None, **kwargs):
    return PatentPipeline(mock_gateways(playbook, **kwargs), run_dir=run_dir)


def test_run_two_sections_one_subsection_matches_algorithm_walk(draft):
    # Expansion off: each planned section becomes exactly one guideline node.
    playbook = pipeline_playbook(sections=2, subsections=None)
    pipeline = _pipeline(playbook)
    cfg = PipelineConfig(pgtree_expansion="off")
    doc = pipeline.run(draft, cfg)
    counts = doc.generation_meta.role_counts()
    assert counts == {
        "title": 1, "abstract": 1, "background": 1, "summary": 1, "claims": 1,
        "planner": 1, "retrieval": 2, "description_write": 2, "examiner_review": 2,
    }
    assert doc.description.count("The system comprises an adaptive control unit.") == 2


def test_subsection_count_equals_tree_node_count(draft):
    playbook = pipeline_playbook(sections=2, subsections=[2, 3])
    run_dir = None
    pipeline = _pipeline(playbook)
    doc = pipeline.run(draft, PipelineConfig())
    # description is the blank-line join of one body per node
    bodies = doc.description.split("\n\n")
    assert len(bodies) == 5


def test_fail_fail_pass_uses_two_refinements(draft):
    playbook = pipeline_playbook(
        sections=1, subsections=1, review_script=[FAIL_REVIEW, FAIL_REVIEW, PASS_REVIEW]
    )
    pipeline = _pipeline(playbook)
    cfg = PipelineConfig(max_refine_rounds=3)
    doc = pipeline.run(draft, cfg)
    counts = doc.generation_meta.role_counts()
    assert counts["description_refine"] == 2
    assert counts["examiner_review"] == 3


def test_always_fail_bounded_and_accepted_with_warning(draft, tmp_path):
    playbook = pipeline_playbook(sections=1, subsections=1, review_script=[FAIL_REVIEW])
    run_dir = tmp_path / "run"
    pipeline = _pipeline(playbook, run_dir=run_dir)
    doc = pipeline.run(draft, PipelineConfig(max_refine_rounds=2))
    counts = doc.generation_meta.role_counts()
    assert counts["description_refine"] == 2
    assert counts["examiner_review"] == 3
    sub = load_json(run_dir / "subsections" / "sec01_sub01.json")
    assert sub["rounds_used"] == 2
    assert sub["accepted_with_warning"] is True
    assert len(sub["history"]) == 3
    warnings = load_json(run_dir / "warnings.json")["warnings"]
    assert any("accepted with warning" in w for w in warnings)


def test_unchanged_refinement_is_flagged(draft, tmp_path):
    # The refine rule always returns the same text, so round 2 repeats round 1.
    playbook = pipeline_playbook(sections=1, subsections=1, review_script=[FAIL_REVIEW])
    run_dir = tmp_path / "run"
    _pipeline(playbook, run_dir=run_dir).run(draft, PipelineConfig(max_refine_rounds=2))
    sub = load_json(run_dir / "subsections" / "sec01_sub01.json")
    assert [r["no_change"] for r in sub["history"]] == [False, False, True]


def test_malformed_verdict_fails_subsection_not_run(draft, tmp_path):
    playbook = pipeline_playbook(
        sections=1, subsections=1, review_script=["<Result>Hmm</Result><Advice>a</Advice>"]
    )
    run_dir = tmp_path / "run"
    doc = _pipeline(playbook, run_dir=run_dir).run(draft, PipelineConfig())
    assert doc.description  # run completed
    sub = load_json(run_dir / "subsections" / "sec01_sub01.json")
    assert sub["accepted_with_warning"] is True
    assert sub["final_verdict"]["advice"] == "unparseable verdict after retries"
    warnings = load_json(run_dir / "warnings.json")["warnings"]
    assert any("unparseable" in w for w in warnings)


def test_expand_pgtree_off_gives_single_nodes():
    cfg = PipelineConfig(pgtree_expansion="off")
    sections = [plan_section(i, overview, cfg)
                for i, overview in [(1, "alpha"), (2, "beta"), (3, "gamma")]]
    assert [len(s.subsections) for s in sections] == [1, 1, 1]
    assert sections[0].subsections[0].guideline_text == "alpha"


def test_expand_pgtree_scripted_counts(draft):
    playbook = pipeline_playbook(sections=2, subsections=[2, 3])
    pipeline = _pipeline(playbook)
    doc = pipeline.run(draft, PipelineConfig())
    counts = doc.generation_meta.role_counts()
    assert counts["section_expand"] == 2
    assert counts["retrieval"] == 5


def test_expand_pgtree_single_section_four_nodes():
    calls = []

    def expander(overview):
        calls.append(overview)
        return [(j, f"g{j}") for j in range(1, 5)]

    sections = [plan_section(i, overview, PipelineConfig(), expander=expander)
                for i, overview in [(1, "only section")]]
    assert len(sections) == 1
    assert len(sections[0].subsections) == 4
    assert calls == ["only section"]


def test_expand_pgtree_falls_back_on_malformed_expansion():
    from patentgen.tags import NoSectionsError

    def expander(overview):
        if overview == "bad":
            raise NoSectionsError("Subsection")
        return [(1, "g1"), (2, "g2")]

    warnings: list[str] = []
    sections = [plan_section(i, overview, PipelineConfig(), expander, warnings.append)
                for i, overview in [(1, "good"), (2, "bad")]]
    assert [len(s.subsections) for s in sections] == [2, 1]
    assert warnings and "section 2" in warnings[0]


def test_build_reference_requires_all_components(draft):
    components = {r: f"{r} text" for r in ("title", "abstract", "background", "summary", "claims")}
    ref = Reference(**components, draft=draft)
    assert (ref.title, ref.claims, ref.draft) == ("title text", "claims text", draft)
    with pytest.raises(EmptySectionError) as err:
        Reference(**dict(components, background="  "), draft=draft)
    assert err.value.section == "background"


def test_reference_rendering_contains_everything(draft):
    components = {r: f"{r} body" for r in ("title", "abstract", "background", "summary", "claims")}
    ref = Reference(**components, draft=draft)
    rendered = render_reference(ref)
    for text in components.values():
        assert text in rendered
    assert "Question 1:" in rendered and "Answer 5:" in rendered


def test_mock_run_is_deterministic(draft):
    def run_once():
        playbook = pipeline_playbook(sections=2, subsections=2)
        doc = _pipeline(playbook).run(draft, PipelineConfig())
        return patent_to_text(doc), json.dumps(patent_to_record(doc), sort_keys=True)

    assert run_once() == run_once()


def test_completed_run_has_six_nonempty_sections_in_order(draft):
    doc = _pipeline(pipeline_playbook()).run(draft, PipelineConfig())
    for name in ("title", "abstract", "background", "summary", "claims", "description"):
        assert doc.section(name).strip()
    text = patent_to_text(doc)
    assert text.index("# DESCRIPTION") < text.index("# CLAIMS")


def test_abort_persists_partial_artifacts(draft, tmp_path):
    # Components and plan succeed; the first subsection write dies on transport.
    playbook = pipeline_playbook(
        sections=2, subsections=None,
        extra_rules=[rule(MATCH_WRITE, {"error": "transport"})],
    )
    run_dir = tmp_path / "run"
    pipeline = _pipeline(playbook, run_dir=run_dir, retry_max=0)
    with pytest.raises(PipelineAborted):
        pipeline.run(draft, PipelineConfig(pgtree_expansion="off"))
    status = load_json(run_dir / "status.json")
    assert status["status"] == "partial"
    assert "transport" in status["error"] or "attempts" in status["error"]
    components = load_json(run_dir / "components.json")
    assert set(components) == {"title", "abstract", "background", "summary", "claims"}
    assert (run_dir / "pgtree.json").exists()
    assert (run_dir / "calls.jsonl").exists()
    assert not (run_dir / "patent.txt").exists()


def test_abort_keeps_completed_subsection_histories(draft, tmp_path):
    # First subsection completes; the second write dies on transport.
    playbook = pipeline_playbook(
        sections=2, subsections=None,
        extra_rules=None,
    )
    playbook.rules = [
        r for r in playbook.rules if r.match != MATCH_WRITE
    ] + [rule(MATCH_WRITE, "First body.", {"error": "transport"})]
    run_dir = tmp_path / "run"
    pipeline = _pipeline(playbook, run_dir=run_dir, retry_max=0)
    with pytest.raises(PipelineAborted):
        pipeline.run(draft, PipelineConfig(pgtree_expansion="off"))
    persisted = sorted((run_dir / "subsections").glob("*.json"))
    assert [p.name for p in persisted] == ["sec01_sub01.json"]
    assert load_json(persisted[0])["text"] == "First body."


def test_blank_component_and_subsection_replies_are_re_asked(draft, tmp_path):
    playbook = pipeline_playbook(sections=1, subsections=None, extra_rules=[
        rule(COMPONENT_MATCHERS["title"], "<Title> </Title>", "<Title>Second try</Title>"),
        rule(MATCH_WRITE, "  ", "Written on the second ask."),
    ])
    run_dir = tmp_path / "run"
    doc = _pipeline(playbook, run_dir=run_dir).run(draft, PipelineConfig(pgtree_expansion="off"))
    assert doc.title == "Second try"
    assert doc.description == "Written on the second ask."
    counts = doc.generation_meta.role_counts()
    assert counts["title"] == 2 and counts["description_write"] == 2
    assert load_json(run_dir / "status.json")["status"] == "complete"


def test_blank_component_after_every_re_ask_aborts_with_partial_output(draft, tmp_path):
    playbook = pipeline_playbook(sections=1, subsections=None, extra_rules=[
        rule(COMPONENT_MATCHERS["title"], "<Title> </Title>"),
    ])
    run_dir = tmp_path / "run"
    with pytest.raises(PipelineAborted, match="agent 'title' produced empty output"):
        _pipeline(playbook, run_dir=run_dir).run(draft, PipelineConfig(pgtree_expansion="off"))
    assert load_json(run_dir / "status.json")["status"] == "partial"
    roles = [json.loads(line)["agent_role"]
             for line in (run_dir / "calls.jsonl").read_text("utf-8").splitlines()]
    assert roles == ["title"] * 3  # asked, then re-asked parse_retry_max=2 times


def test_call_log_and_tree_file_formats(draft, tmp_path):
    run_dir = tmp_path / "run"
    _pipeline(pipeline_playbook(sections=1, subsections=2), run_dir=run_dir).run(
        draft, PipelineConfig())
    first = json.loads((run_dir / "calls.jsonl").read_text("utf-8").splitlines()[0])
    assert (run_dir / "calls.jsonl").read_text("utf-8").splitlines()[0] == (
        '{"agent_role": "title", "prompt_hash": "' + first["prompt_hash"] + '", '
        '"response_hash": "' + content_hash(COMPONENT_RESPONSES["title"]) + '", '
        f'"latency_ms": {first["latency_ms"]}, "retries": 0, "cached": false}}'
    )
    node = '        {{\n          "guideline_text": "Write about s1 {0}",\n' \
           '          "section_index": 1,\n          "subsection_index": {0}\n        }}'
    assert (run_dir / "pgtree.json").read_text("utf-8") == (
        '{\n  "sections": [\n    {\n      "section_index": 1,\n'
        '      "section_overview": "Overview of part 1",\n      "subsections": [\n'
        + node.format(1) + ",\n" + node.format(2) + "\n      ]\n    }\n  ]\n}\n"
    )


def test_run_dir_contains_both_serializations(draft, tmp_path):
    run_dir = tmp_path / "run"
    doc = _pipeline(pipeline_playbook(), run_dir=run_dir).run(draft, PipelineConfig())
    assert (run_dir / "patent.txt").read_text().startswith("# TITLE")
    body = (run_dir / "patent_body.txt").read_text()
    assert "# TITLE" not in body
    record = load_json(run_dir / "patent.json")
    assert record["sections"]["description"] == doc.description
    assert load_json(run_dir / "status.json")["status"] == "complete"
    assert load_json(run_dir / "config.json")["schema_version"] == "pipeline-config-v1"
    calls = [json.loads(line) for line in (run_dir / "calls.jsonl").read_text().splitlines()]
    assert len(calls) == len(doc.generation_meta.entries)


def test_description_length_accounting(draft):
    playbook = pipeline_playbook(sections=3, subsections=None)
    doc = _pipeline(playbook).run(draft, PipelineConfig(pgtree_expansion="off"))
    body = "The system comprises an adaptive control unit."
    assert len(doc.description) == 3 * len(body) + 2 * len("\n\n")


def test_parallel_mode_produces_all_subsections(draft, tmp_path):
    # Every rule of this playbook has one response, so it answers the same in
    # any order and even the mock may take two requests at once.
    runs = {}
    for width in (1, 2):
        run_dir = tmp_path / f"width{width}"
        pipeline = _pipeline(pipeline_playbook(sections=2, subsections=None), run_dir=run_dir,
                             max_inflight=width)
        doc = pipeline.run(draft, PipelineConfig(pgtree_expansion="off"))
        assert len(doc.description.split("\n\n")) == 2
        runs[width] = tree_contents(run_dir)
    assert runs[1] == runs[2]


@pytest.mark.parametrize("expansion", ["per_section_call", "off"])
def test_run_dir_is_the_same_at_every_width(draft, tmp_path, expansion):
    runs, peaks = {}, {}
    for width in (1, 8):
        backend = PromptFunctionBackend(delay_s=0.001)
        run_dir = tmp_path / f"width{width}"
        PatentPipeline(function_gateways(backend, width), run_dir=run_dir).run(
            draft, PipelineConfig(pgtree_expansion=expansion))
        runs[width], peaks[width] = tree_contents(run_dir), backend.peak
    assert runs[1] == runs[8]
    assert peaks[1] == 1 and 1 < peaks[8] <= 8
    # The run re-asks, refines and warns, so the merge order is exercised.
    roles = [json.loads(line)["agent_role"] for line in runs[1]["calls.jsonl"].splitlines()]
    assert roles.count("abstract") > 1 and "description_refine" in roles
    if expansion == "per_section_call":
        assert len(json.loads(runs[1]["warnings.json"])["warnings"]) > 1


def test_a_width_one_run_starts_no_thread(draft, monkeypatch):
    def start(thread):
        raise AssertionError(f"a width-1 run started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", start)
    doc = PatentPipeline(function_gateways(PromptFunctionBackend(), 1)).run(
        draft, PipelineConfig())
    assert doc.generation_meta.role_counts()["section_expand"] > 1


def test_cached_run_dir_is_the_same_at_every_width_and_on_a_rerun(draft, tmp_path):
    def run(width, name):
        backend = PromptFunctionBackend(delay_s=0.001)
        gateways = function_gateways(backend, width)
        gateways["default"].cache = ResponseCache(tmp_path / f"cache{width}")
        PatentPipeline(gateways, run_dir=tmp_path / name).run(draft, PipelineConfig())
        gateways["default"].cache.close()
        return tree_contents(tmp_path / name), backend

    narrow, _ = run(1, "width1")
    wide, backend = run(3, "width3")
    assert narrow == wide and backend.peak > 1
    rerun, backend = run(3, "rerun")
    assert rerun["patent.json"] == wide["patent.json"]
    calls = [json.loads(line) for line in rerun["calls.jsonl"].splitlines()]
    sent = [c for c in calls if not c["cached"]]
    # An empty reply is never cached, so the rerun sends only those requests.
    assert backend.calls == len(sent) < len(calls) == len(wide["calls.jsonl"].splitlines())
    assert all(c["response_hash"] == content_hash("") for c in sent)


def _node_guidelines(run_dir) -> list[str]:
    tree = load_json(run_dir / "pgtree.json")
    return [n["guideline_text"] for s in tree["sections"] for n in s["subsections"]]


def _fail_retrieval_of(*guidelines):
    """fail_when for the retrieval of the nodes with these guidelines."""
    return lambda prompt: MATCH_RETRIEVE in prompt and next(
        (f"cannot retrieve for {g!r}" for g in guidelines if g in prompt), None)


def test_width_one_abort_stops_where_a_sequential_run_stops(draft, tmp_path):
    full_dir = tmp_path / "full"
    PatentPipeline(function_gateways(PromptFunctionBackend(), 1), run_dir=full_dir).run(
        draft, PipelineConfig())
    full = tree_contents(full_dir)
    guidelines = _node_guidelines(full_dir)
    k = 2
    backend = PromptFunctionBackend(fail_when=_fail_retrieval_of(guidelines[k]))
    run_dir = tmp_path / "partial"
    with pytest.raises(PipelineAborted, match="cannot retrieve"):
        PatentPipeline(function_gateways(backend, 1), run_dir=run_dir).run(draft, PipelineConfig())
    partial = tree_contents(run_dir)

    # Each node opens with one retrieval, so the sequential run's calls up to
    # the failed retrieval are those before the k-th retrieval of the full run.
    calls = full["calls.jsonl"].decode().splitlines(keepends=True)
    retrievals = [i for i, line in enumerate(calls) if '"retrieval"' in line]
    assert partial["calls.jsonl"].decode() == "".join(calls[:retrievals[k]])
    kept = sorted(name for name in full if name.startswith("subsections/"))[:k]
    assert sorted(n for n in partial if n.startswith("subsections/")) == kept
    for name in kept + ["components.json", "pgtree.json", "config.json", "draft.json"]:
        assert partial[name] == full[name]
    node_ids = [tuple(json.loads(full[name])["node"]) for name in kept]
    expected_warnings = [w for w in json.loads(full["warnings.json"])["warnings"]
                         if any(w.startswith(f"node {n}:") for n in node_ids)]
    assert json.loads(partial["warnings.json"])["warnings"] == expected_warnings
    assert json.loads(partial["status.json"])["status"] == "partial"
    assert "patent.txt" not in partial


def test_first_error_in_node_order_is_raised_at_any_width(draft, tmp_path):
    probe = tmp_path / "probe"
    PatentPipeline(function_gateways(PromptFunctionBackend(), 1), run_dir=probe).run(
        draft, PipelineConfig())
    guidelines = _node_guidelines(probe)
    for width in (1, 8):
        backend = PromptFunctionBackend(delay_s=0.002,
                                        fail_when=_fail_retrieval_of(guidelines[1], guidelines[3]))
        run_dir = tmp_path / f"width{width}"
        with pytest.raises(PipelineAborted) as info:
            PatentPipeline(function_gateways(backend, width), run_dir=run_dir).run(
                draft, PipelineConfig())
        assert guidelines[1] in str(info.value) and guidelines[3] not in str(info.value)
        assert guidelines[1] in load_json(run_dir / "status.json")["error"]


def test_pipeline_config_validation():
    with pytest.raises(Exception, match="max_refine_rounds"):
        PipelineConfig(max_refine_rounds=-1)
    with pytest.raises(Exception, match="pgtree_expansion"):
        PipelineConfig(pgtree_expansion="sometimes")
    cfg = PipelineConfig.from_record({"max_refine_rounds": 1})
    assert cfg.max_refine_rounds == 1
    assert PipelineConfig.from_record(cfg.to_record()) == cfg


def test_readme_run_config_example_loads(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    example = re.search(r"\*\*Run config\*\*:\s*```json\n(.*?)```", readme, re.S).group(1)
    config_file = tmp_path / "run.json"
    config_file.write_text(example, "utf-8")
    MockPlaybook([]).save(tmp_path / "playbook.json")
    monkeypatch.chdir(tmp_path)
    gateways, bindings, cfg = load_run_config(str(config_file))
    config = json.loads(example)
    assert set(gateways) == {"default", "scripted"}
    assert gateways["default"].config.kind == "http"
    assert bindings["title"].temperature == 0.3
    assert bindings["examiner"].backend == "scripted"
    assert cfg == PipelineConfig.from_record(config["pipeline"])
    assert cfg.to_record() == {**config["pipeline"], "schema_version": "pipeline-config-v1"}


# --- zero-shot baseline -------------------------------------------------------

_FULL_ZERO_SHOT = (
    "<Patent>\n<Title> T </Title>\n<Abstract> A </Abstract>\n<Background> B </Background>\n"
    "<Summary> S </Summary>\n<Claims> C </Claims>\n<Full Description> D </Full Description>\n</Patent>"
)


def test_zero_shot_full_output_parses_six_sections(draft):
    gateways = mock_gateways(
        MockPlaybook([rule("write a complete patent document", _FULL_ZERO_SHOT)])
    )
    result = run_zero_shot(gateways["default"], draft)
    assert result.complete
    assert result.sections == {
        "title": "T", "abstract": "A", "background": "B",
        "summary": "S", "claims": "C", "description": "D",
    }


def test_zero_shot_missing_description_is_recorded():
    raw = _FULL_ZERO_SHOT.replace("<Full Description> D </Full Description>\n", "")
    result = parse_zero_shot_output(raw)
    assert result.missing == ("description",)
    assert len(result.sections) == 5


def test_zero_shot_untagged_prose_yields_nothing():
    result = parse_zero_shot_output("Here is a patent. It has no tags.")
    assert result.sections == {}
    assert set(result.missing) == {
        "title", "abstract", "background", "summary", "claims", "description"
    }
