from __future__ import annotations

import signal
import threading
import time
from functools import partial

import pytest

from patentgen.agents import (
    AgentError,
    MalformedVerdictError,
    ParseRetryError,
    run_tasks,
    strip_leading_filler,
)
from patentgen.core import (
    EmptySectionError,
    GuidelineNode,
    PGTree,
    Reference,
    SectionPlan,
    new_run_record,
)
from patentgen.gateway import MockPlaybook
from patentgen.tags import NonContiguousIndicesError, TagMissingError
from helpers import (
    COMPONENT_MATCHERS,
    COMPONENT_RESPONSES,
    FAIL_REVIEW,
    MATCH_RETRIEVE,
    MATCH_REVIEW,
    MATCH_WRITE,
    MATCH_REFINE,
    MATCH_PLANNER,
    PASS_REVIEW,
    rule,
    runtime_for,
)


def _tree_one_node():
    node = GuidelineNode(1, 1, "Describe the adaptive controller.")
    return PGTree(sections=(SectionPlan(1, "Controller section", (node,)),)), node


def _reference(draft):
    return Reference(
        title="T", abstract="A", background="B", summary="S",
        claims="1. A method.", draft=draft,
    )


def test_write_component_extracts_tag(draft):
    runtime = runtime_for(MockPlaybook([rule("patent abstract", COMPONENT_RESPONSES["abstract"])]))
    out = runtime.write_component("abstract", draft)
    assert out == "An apparatus for adaptive widget control."


def test_write_component_retries_after_missing_tag(draft):
    playbook = MockPlaybook([rule("patent title", "no tag at all", "<Title>Fixed</Title>")])
    runtime = runtime_for(playbook)
    backend = runtime.gateways["default"].backend
    assert runtime.write_component("title", draft) == "Fixed"
    assert backend.calls == 2


def test_write_component_retry_prompt_carries_reminder(draft):
    playbook = MockPlaybook(
        [
            rule("did not follow the required format", "<Title>From Reminder</Title>"),
            rule("patent title", "garbage"),
        ]
    )
    runtime = runtime_for(playbook)
    assert runtime.write_component("title", draft) == "From Reminder"


def test_write_component_parse_failure_propagates_after_retries(draft):
    runtime = runtime_for(MockPlaybook([rule("patent title", "never tagged")]))
    backend = runtime.gateways["default"].backend
    with pytest.raises(TagMissingError):
        runtime.write_component("title", draft)
    assert backend.calls == 3  # parse_retry_max=2 means three attempts


def test_claims_multiline_preserved_verbatim(draft):
    runtime = runtime_for(MockPlaybook([rule("patent claims", COMPONENT_RESPONSES["claims"])]))
    out = runtime.write_component("claims", draft)
    assert out == "1. A method for adaptive control.\n2. The method of claim 1, with sensors."


def test_component_roles_map_to_distinct_templates(draft):
    from patentgen.agents import COMPONENT_ROLES

    # Each rule answers only its own role's prompt, with that role's tag, so a
    # writer that rendered another role's template would fail to parse.
    rules = [rule(COMPONENT_MATCHERS[r], COMPONENT_RESPONSES[r]) for r in COMPONENT_ROLES]
    record = new_run_record()
    runtime = runtime_for(MockPlaybook(rules), recorder=record)
    for role in COMPONENT_ROLES:
        runtime.write_component(role, draft)
    assert [e.agent_role for e in record.entries] == list(COMPONENT_ROLES)
    assert len({e.prompt_hash for e in record.entries}) == 5


def test_plan_first_level(draft):
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_PLANNER, "<Section-1> A </Section-1><Section-2> B </Section-2>")])
    )
    assert runtime.plan_first_level(draft) == [(1, "A"), (2, "B")]


def test_plan_surfaces_non_contiguous_after_retries(draft):
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_PLANNER, "<Section-1> A </Section-1><Section-3> C </Section-3>")])
    )
    with pytest.raises(NonContiguousIndicesError) as err:
        runtime.plan_first_level(draft)
    assert err.value.found == [1, 3]


def test_plan_re_asks_after_an_empty_section(draft):
    runtime = runtime_for(MockPlaybook([
        rule(MATCH_PLANNER, "<Section-1> A </Section-1><Section-2> </Section-2>",
             "<Section-1> A </Section-1><Section-2> B </Section-2>"),
    ]))
    assert runtime.plan_first_level(draft) == [(1, "A"), (2, "B")]


def test_expand_section_uses_subsection_grammar(draft):
    runtime = runtime_for(
        MockPlaybook([rule("split this section", "<Subsection-1> g1 </Subsection-1>")])
    )
    assert runtime.expand_section(draft, "overview") == [(1, "g1")]


def test_retrieve_returns_scripted_copy(draft):
    ref = _reference(draft)
    runtime = runtime_for(MockPlaybook([rule(MATCH_RETRIEVE, "1. A method.")]))
    node = GuidelineNode(1, 1, "Cover the claims.")
    assert runtime.retrieve(node, ref) == ref.claims


def test_retrieve_flags_empty(draft):
    runtime = runtime_for(MockPlaybook([rule(MATCH_RETRIEVE, "")]))
    assert runtime.retrieve(GuidelineNode(1, 1, "g"), _reference(draft)) == ""


def test_reference_rejects_empty_component(draft):
    with pytest.raises(EmptySectionError) as err:
        Reference(title="T", abstract="A", background="B", summary="", claims="C", draft=draft)
    assert err.value.section == "summary"


def test_write_subsection_passthrough(draft):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_WRITE, "Subsection body text.")]))
    out = runtime.write_subsection(node, "facts", tree, draft)
    assert out == "Subsection body text."


def test_write_subsection_strips_leading_filler(draft):
    tree, node = _tree_one_node()
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_WRITE, "Sure, here is the subsection:\n\nActual body.")])
    )
    out = runtime.write_subsection(node, "facts", tree, draft)
    assert out == "Actual body."


def test_write_subsection_empty_is_an_error(draft):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_WRITE, "")]))
    backend = runtime.gateways["default"].backend
    with pytest.raises(ParseRetryError, match="empty output"):
        runtime.write_subsection(node, "facts", tree, draft)
    assert backend.calls == 3  # asked, then re-asked parse_retry_max=2 times


def test_write_subsection_re_asks_an_empty_reply_with_a_reminder(draft):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([
        rule("previous response was empty", "Second body."),
        rule(MATCH_WRITE, " \n "),
    ]))
    assert runtime.write_subsection(node, "facts", tree, draft) == "Second body."
    assert runtime.gateways["default"].backend.calls == 2


def test_write_component_re_asks_a_blank_component(draft):
    runtime = runtime_for(
        MockPlaybook([rule("patent title", "<Title> </Title>", "<Title>Second try</Title>")])
    )
    assert runtime.write_component("title", draft) == "Second try"
    assert runtime.gateways["default"].backend.calls == 2


def test_review_parses_verdict_and_advice(draft):
    _, node = _tree_one_node()
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_REVIEW, "<Result>Pass</Result><Advice>tighten terminology</Advice>")])
    )
    verdict = runtime.review(node, "some subsection", draft)
    assert verdict.passed and verdict.advice == "tighten terminology"


def test_review_tolerates_padded_result(draft):
    _, node = _tree_one_node()
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_REVIEW, "<Result> Pass </Result><Advice> ok </Advice>")])
    )
    assert runtime.review(node, "text", draft).result == "Pass"


def test_review_without_advice_becomes_malformed_after_retries(draft):
    _, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REVIEW, "<Result>Fail</Result>")]))
    backend = runtime.gateways["default"].backend
    with pytest.raises(MalformedVerdictError):
        runtime.review(node, "text", draft)
    assert backend.calls == 3


def test_review_rejects_odd_verdict_text(draft):
    _, node = _tree_one_node()
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_REVIEW, "<Result>Maybe</Result><Advice>a</Advice>")])
    )
    with pytest.raises(MalformedVerdictError):
        runtime.review(node, "text", draft)


def test_review_recovers_on_retry(draft):
    _, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REVIEW, "<Result>Fail</Result>", FAIL_REVIEW)]))
    verdict = runtime.review(node, "text", draft)
    assert not verdict.passed
    assert verdict.advice == "add implementation detail"


def test_refine_returns_revision(draft):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REFINE, "Revised body.")]))
    assert runtime.refine(node, "old body", "add detail", tree) == "Revised body."


def test_refine_requires_feedback(draft):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([]))
    with pytest.raises(AgentError, match="feedback"):
        runtime.refine(node, "old", "  ", tree)


def test_refine_empty_revision_is_an_error(draft):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REFINE, "  ")]))
    backend = runtime.gateways["default"].backend
    with pytest.raises(ParseRetryError, match="empty output"):
        runtime.refine(node, "old", "advice", tree)
    assert backend.calls == 3


def test_review_requires_non_empty_subsection(draft):
    _, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REVIEW, PASS_REVIEW)]))
    with pytest.raises(AgentError):
        runtime.review(node, "  ", draft)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Sure, here's the text:\nBody line.", "Body line."),
        ("Here is the subsection\n\nBody line.", "Body line."),
        ("Certainly!\nBody.", "Body."),
        ("Body without filler.", "Body without filler."),
        ("Sure thing.", "Sure thing."),  # lone filler line is kept, not erased
        ("The system is sure to work.\nMore.", "The system is sure to work.\nMore."),
    ],
)
def test_strip_leading_filler(raw, expected):
    assert strip_leading_filler(raw) == expected


def test_run_tasks_at_width_1_runs_each_task_on_the_callers_thread():
    record = new_run_record()
    runtime = runtime_for(MockPlaybook([]), recorder=record)
    threads = threading.active_count()
    order = []

    def task(i, rt):
        rt.recorder.warn(f"task {i}")
        order.append(i)
        return threading.get_ident()

    assert run_tasks(runtime, [partial(task, i) for i in range(3)]) == [threading.get_ident()] * 3
    assert order == [0, 1, 2] and threading.active_count() == threads
    assert record.warnings == ["task 0", "task 1", "task 2"]


def test_run_tasks_raises_the_first_error_and_skips_the_tasks_not_started():
    started = []

    def fail(message, rt):
        raise AgentError(message)

    tasks = [lambda rt: started.append(0), partial(fail, "first"),
             lambda rt: started.append(2), partial(fail, "second")]
    with pytest.raises(AgentError, match="first"):
        run_tasks(runtime_for(MockPlaybook([])), tasks)
    assert started == [0]


def test_an_interrupt_while_run_tasks_waits_skips_the_tasks_not_started():
    runtime = runtime_for(MockPlaybook([]), max_inflight=2)
    started = []

    def hold(interrupt, rt):
        # Both workers are held until the caller has handled the interrupt.
        if interrupt:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.2)

    queued = [lambda rt, i=i: started.append(i) for i in range(3)]
    with pytest.raises(KeyboardInterrupt):
        run_tasks(runtime, [partial(hold, True), partial(hold, False)] + queued)
    assert started == []
