from __future__ import annotations

import re
import signal
import sys
import threading
import time
from functools import partial

import pytest

from patentgen.agents import (
    AgentError,
    AgentRuntime,
    TaskHalted,
    run_tasks,
    strip_leading_filler,
)
from patentgen.core import (
    GuidelineNode,
    PGTree,
    SectionPlan,
    content_hash,
    new_run_record,
    render_draft,
    render_pgtree,
    render_reference,
)
from patentgen.gateway import MockPlaybook, ResponseCache
from patentgen.prompts import default_registry
from patentgen.tags import TagError
from helpers import (
    COMPONENT_MATCHERS,
    COMPONENT_RESPONSES,
    FAIL_REVIEW,
    MATCH_RETRIEVE,
    MATCH_REVIEW,
    MATCH_WRITE,
    MATCH_REFINE,
    MATCH_PLANNER,
    PromptFunctionBackend,
    function_gateways,
    interrupt_when,
    mock_gateway,
    rule,
    runtime_for,
)


@pytest.fixture
def draft_text(draft):
    """The rendered draft: the agent methods take their prompt slots' texts."""
    return render_draft(draft)


def _tree_one_node():
    """A one-node guideline tree's rendered text, and the node."""
    node = GuidelineNode(1, 1, "Describe the adaptive controller.")
    return render_pgtree(PGTree(sections=(SectionPlan(1, "Controller section", (node,)),))), node


def _reference(draft_text):
    components = {"title": "T", "abstract": "A", "background": "B", "summary": "S",
                  "claims": "1. A method."}
    return render_reference(components, draft_text)


def test_write_component_extracts_tag(draft_text):
    runtime = runtime_for(MockPlaybook([rule("patent abstract", COMPONENT_RESPONSES["abstract"])]))
    out = runtime.write_component("abstract", draft_text)
    assert out == "An apparatus for adaptive widget control."


def test_write_component_retries_after_missing_tag(draft_text):
    playbook = MockPlaybook([rule("patent title", "no tag at all", "<Title>Fixed</Title>")])
    runtime = runtime_for(playbook)
    backend = runtime.gateways["default"].backend
    assert runtime.write_component("title", draft_text) == "Fixed"
    assert backend.calls == 2


def test_write_component_retry_prompt_carries_reminder(draft_text):
    playbook = MockPlaybook(
        [
            rule("did not follow the required format", "<Title>From Reminder</Title>"),
            rule("patent title", "garbage"),
        ]
    )
    runtime = runtime_for(playbook)
    assert runtime.write_component("title", draft_text) == "From Reminder"


def test_write_component_parse_failure_propagates_after_retries(draft_text):
    runtime = runtime_for(MockPlaybook([rule("patent title", "never tagged")]))
    backend = runtime.gateways["default"].backend
    with pytest.raises(TagError, match=r"^tag <Title> not found in output$"):
        runtime.write_component("title", draft_text)
    assert backend.calls == 3  # parse_retry_max=2 means three attempts


def test_claims_multiline_preserved_verbatim(draft_text):
    runtime = runtime_for(MockPlaybook([rule("patent claims", COMPONENT_RESPONSES["claims"])]))
    out = runtime.write_component("claims", draft_text)
    assert out == "1. A method for adaptive control.\n2. The method of claim 1, with sensors."


def test_component_roles_map_to_distinct_templates(draft_text):
    from patentgen.agents import COMPONENT_ROLES

    # Each rule answers only its own role's prompt, with that role's tag, so a
    # writer that rendered another role's template would fail to parse.
    rules = [rule(COMPONENT_MATCHERS[r], COMPONENT_RESPONSES[r]) for r in COMPONENT_ROLES]
    record = new_run_record()
    runtime = runtime_for(MockPlaybook(rules), recorder=record)
    for role in COMPONENT_ROLES:
        runtime.write_component(role, draft_text)
    assert [e.agent_role for e in record.entries] == list(COMPONENT_ROLES)
    assert len({e.prompt_hash for e in record.entries}) == 5


def test_plan_first_level(draft_text):
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_PLANNER, "<Section-1> A </Section-1><Section-2> B </Section-2>")])
    )
    assert runtime.plan_first_level(draft_text) == [(1, "A"), (2, "B")]


def test_plan_surfaces_non_contiguous_after_retries(draft_text):
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_PLANNER, "<Section-1> A </Section-1><Section-3> C </Section-3>")])
    )
    with pytest.raises(TagError, match=r"found \[1, 3\]$"):
        runtime.plan_first_level(draft_text)


def test_plan_re_asks_after_an_empty_section(draft_text):
    runtime = runtime_for(MockPlaybook([
        rule(MATCH_PLANNER, "<Section-1> A </Section-1><Section-2> </Section-2>",
             "<Section-1> A </Section-1><Section-2> B </Section-2>"),
    ]))
    assert runtime.plan_first_level(draft_text) == [(1, "A"), (2, "B")]


def test_expand_section_uses_subsection_grammar(draft_text):
    runtime = runtime_for(
        MockPlaybook([rule("split this section", "<Subsection-1> g1 </Subsection-1>")])
    )
    assert runtime.expand_section(draft_text, "overview") == [(1, "g1")]


def test_retrieve_returns_scripted_copy(draft_text):
    runtime = runtime_for(MockPlaybook([rule(MATCH_RETRIEVE, "1. A method.")]))
    node = GuidelineNode(1, 1, "Cover the claims.")
    assert runtime.retrieve(node, _reference(draft_text)) == "1. A method."


def test_retrieve_flags_empty(draft_text):
    runtime = runtime_for(MockPlaybook([rule(MATCH_RETRIEVE, "")]))
    assert runtime.retrieve(GuidelineNode(1, 1, "g"), _reference(draft_text)) == ""


def test_write_subsection_passthrough(draft_text):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_WRITE, "Subsection body text.")]))
    out = runtime.write_subsection(node, "facts", tree)
    assert out == "Subsection body text."


def test_write_subsection_strips_leading_filler(draft_text):
    tree, node = _tree_one_node()
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_WRITE, "Sure, here is the subsection:\n\nActual body.")])
    )
    out = runtime.write_subsection(node, "facts", tree)
    assert out == "Actual body."


def test_write_subsection_empty_is_an_error(draft_text):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_WRITE, "")]))
    backend = runtime.gateways["default"].backend
    with pytest.raises(TagError, match="empty output"):
        runtime.write_subsection(node, "facts", tree)
    assert backend.calls == 3  # asked, then re-asked parse_retry_max=2 times


def test_write_subsection_re_asks_an_empty_reply_with_a_reminder(draft_text):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([
        rule("previous response was empty", "Second body."),
        rule(MATCH_WRITE, " \n "),
    ]))
    assert runtime.write_subsection(node, "facts", tree) == "Second body."
    assert runtime.gateways["default"].backend.calls == 2


def test_write_component_re_asks_a_blank_component(draft_text):
    runtime = runtime_for(
        MockPlaybook([rule("patent title", "<Title> </Title>", "<Title>Second try</Title>")])
    )
    assert runtime.write_component("title", draft_text) == "Second try"
    assert runtime.gateways["default"].backend.calls == 2


def test_review_parses_verdict_and_advice(draft_text):
    _, node = _tree_one_node()
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_REVIEW, "<Result>Pass</Result><Advice>tighten terminology</Advice>")])
    )
    verdict = runtime.review(node, "some subsection", draft_text)
    assert verdict.passed and verdict.advice == "tighten terminology"


def test_review_tolerates_padded_result(draft_text):
    _, node = _tree_one_node()
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_REVIEW, "<Result> Pass </Result><Advice> ok </Advice>")])
    )
    assert runtime.review(node, "text", draft_text).result == "Pass"


def test_review_without_advice_becomes_malformed_after_retries(draft_text):
    _, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REVIEW, "<Result>Fail</Result>")]))
    backend = runtime.gateways["default"].backend
    with pytest.raises(TagError, match=r"^tag <Advice> not found in output$"):
        runtime.review(node, "text", draft_text)
    assert backend.calls == 3


def test_review_rejects_odd_verdict_text(draft_text):
    _, node = _tree_one_node()
    runtime = runtime_for(
        MockPlaybook([rule(MATCH_REVIEW, "<Result>Maybe</Result><Advice>a</Advice>")])
    )
    with pytest.raises(TagError, match=r"^verdict text 'Maybe'$"):
        runtime.review(node, "text", draft_text)


def test_review_re_asks_an_empty_advice(draft_text):
    _, node = _tree_one_node()
    empty_advice = "<Result>Pass</Result><Advice> </Advice>"
    runtime = runtime_for(MockPlaybook([rule(MATCH_REVIEW, empty_advice, FAIL_REVIEW)]))
    assert runtime.review(node, "text", draft_text).advice == "add implementation detail"
    assert runtime.gateways["default"].backend.calls == 2


def test_review_recovers_on_retry(draft_text):
    _, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REVIEW, "<Result>Fail</Result>", FAIL_REVIEW)]))
    verdict = runtime.review(node, "text", draft_text)
    assert not verdict.passed
    assert verdict.advice == "add implementation detail"


def test_refine_returns_revision(draft_text):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REFINE, "Revised body.")]))
    assert runtime.refine(node, "old body", "add detail", tree) == "Revised body."


def test_refine_empty_revision_is_an_error(draft_text):
    tree, node = _tree_one_node()
    runtime = runtime_for(MockPlaybook([rule(MATCH_REFINE, "  ")]))
    backend = runtime.gateways["default"].backend
    with pytest.raises(TagError, match="empty output"):
        runtime.refine(node, "old", "advice", tree)
    assert backend.calls == 3


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


def test_run_tasks_starts_a_task_after_its_dependencies_and_merges_in_task_order():
    record = new_run_record()
    runtime = runtime_for(MockPlaybook([]), recorder=record, max_inflight=2)
    events, lock = [], threading.Lock()

    def task(i, delay, rt):
        with lock:
            events.append(f"start {i}")
        time.sleep(delay)
        rt.recorder.warn(f"task {i}")
        with lock:
            events.append(f"end {i}")
        return i

    # Task 2 reads task 0, which is slow; task 3 reads nothing, so it goes first.
    tasks = [partial(task, 0, 0.1), partial(task, 1, 0.0), partial(task, 2, 0.0),
             partial(task, 3, 0.0)]
    assert run_tasks(runtime, tasks, after={2: (0,)}) == [0, 1, 2, 3]
    assert events.index("end 0") < events.index("start 2")
    assert events.index("start 3") < events.index("start 2")
    assert events.index("end 3") < events.index("end 0")
    assert record.warnings == ["task 0", "task 1", "task 2", "task 3"]


@pytest.mark.parametrize("after", [{1: (1,)}, {0: (1,)}, {1: (2,)}, {1: (-1,)}, {3: (0,)},
                                   {-1: (0,)}])
def test_run_tasks_rejects_an_after_entry_naming_a_later_or_unknown_task(after):
    started = []
    tasks = [lambda rt, i=i: started.append(i) for i in range(3)]
    with pytest.raises(ValueError, match="must run after earlier tasks"):
        run_tasks(runtime_for(MockPlaybook([])), tasks, after=after)
    assert started == []


def test_run_tasks_raises_the_first_error_in_task_order_not_in_time():
    runtime = runtime_for(MockPlaybook([]), max_inflight=2)
    started = []

    def fail(message, delay, rt):
        time.sleep(delay)
        raise AgentError(message)

    tasks = [partial(fail, "first", 0.1), partial(fail, "second", 0.0)]
    tasks += [lambda rt, i=i: started.append(i) for i in range(2, 5)]
    with pytest.raises(AgentError, match="first"):
        run_tasks(runtime, tasks, after={4: (0,)})
    assert started == []


@pytest.mark.parametrize("width", [1, 2])
def test_a_failure_skips_only_later_tasks_so_the_outcome_is_the_same_at_every_width(width):
    runtime = runtime_for(MockPlaybook([]), max_inflight=width)
    started = []

    def slow(rt):
        time.sleep(0.05)

    def fail(rt):
        raise AgentError("task 2")

    # At width 2, task 2 fails while task 1 still waits on task 0; task 1
    # starts all the same, as it does at width 1, and only task 3 is skipped.
    tasks = [slow, lambda rt: started.append(1), fail, lambda rt: started.append(3)]
    with pytest.raises(AgentError, match="task 2"):
        run_tasks(runtime, tasks, after={1: (0,)})
    assert started == [1]


def test_a_failure_halts_the_later_tasks_running_and_the_fan_outs_nested_in_them():
    runtime = runtime_for(MockPlaybook([]), max_inflight=2)
    later_started, halted = threading.Event(), []

    def fail(rt):
        later_started.wait(5)
        raise AgentError("task 0")

    def ask(rt):
        # No such template and no playbook rule: only TaskHalted shows that
        # the call was refused before it was rendered or sent.
        try:
            rt.ask("abstract", "no_such_template", {}, "abstract", str)
        except TaskHalted:
            halted.append(threading.get_ident())

    def later(rt):
        later_started.set()
        deadline = time.monotonic() + 5
        while not rt.halted() and time.monotonic() < deadline:
            time.sleep(0.001)
        run_tasks(rt, [ask, ask])

    with pytest.raises(AgentError, match="task 0"):
        run_tasks(runtime, [fail, later])
    assert len(halted) == 2


def test_run_tasks_starts_the_runners_asked_for_above_width_1_and_none_at_width_1():
    barrier = threading.Barrier(5, timeout=5)

    def meet(rt):
        barrier.wait()
        return threading.get_ident()

    wide = runtime_for(MockPlaybook([]), max_inflight=2)
    assert len(set(run_tasks(wide, [meet] * 5, runners=5))) == 5
    narrow = runtime_for(MockPlaybook([]))
    tasks = [lambda rt: threading.get_ident()] * 3
    assert run_tasks(narrow, tasks, runners=5) == [threading.get_ident()] * 3


def test_an_interrupt_while_the_caller_waits_on_a_dependency_skips_the_tasks_not_started():
    runtime = runtime_for(MockPlaybook([]), max_inflight=2)
    helper_started, started = threading.Event(), []

    def hold(rt):
        if threading.current_thread() is threading.main_thread():
            # The caller finishes its task, then waits for the helper's.
            helper_started.wait(2)
            return
        helper_started.set()
        time.sleep(0.05)
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.1)

    queued = [lambda rt, i=i: started.append(i) for i in range(2, 5)]
    with pytest.raises(KeyboardInterrupt):
        run_tasks(runtime, [hold, hold] + queued, after={i: (0, 1) for i in range(2, 5)})
    assert started == []


def test_run_tasks_under_stress_runs_each_task_once_after_its_dependencies():
    # More runners than cores, and a short switch interval, so that an
    # unguarded take or finish would start a task twice or too early.
    record = new_run_record()
    runtime = runtime_for(MockPlaybook([]), recorder=record, max_inflight=8)
    n = 300
    after = {i: (i - 1, i // 2) if i % 3 else (i // 3,) for i in range(1, n)}
    done, lock = set(), threading.Lock()
    runs = [0] * n

    def task(i, rt):
        with lock:
            assert done.issuperset(after.get(i, ()))
            runs[i] += 1
        rt.recorder.warn(str(i))
        with lock:
            done.add(i)
        return i

    results = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=lambda: results.append(
            run_tasks(runtime, [partial(task, i) for i in range(n)], after=after)))
        thread.start()
        thread.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not thread.is_alive()
    assert results == [list(range(n))] and runs == [1] * n
    assert record.warnings == [str(i) for i in range(n)]


def _call_until_halted(draft_text, halted, rt):
    """Ask for a title again and again until the runtime is halted; give up
    after 2 s, so that a runner nobody halts still ends."""
    deadline = time.monotonic() + 2
    while time.monotonic() < deadline:
        try:
            rt.write_component("title", draft_text)
        except TaskHalted:
            halted.append(threading.get_ident())
            return
        time.sleep(0.002)


def test_an_interrupt_while_the_caller_joins_a_helper_halts_the_helpers_task(draft_text):
    backend = PromptFunctionBackend()
    runtime = AgentRuntime(gateways=function_gateways(backend, 2))
    caller_done, halted = [], []

    def task(rt):
        if threading.current_thread() is not threading.main_thread():
            _call_until_halted(draft_text, halted, rt)
            return
        # The caller ends its own task once the helper is calling; then it
        # joins the helper, and the interrupt lands there.
        deadline = time.monotonic() + 2
        while not backend.calls and time.monotonic() < deadline:
            time.sleep(0.001)
        caller_done.append(time.monotonic())

    threads = threading.active_count()
    interrupt_when(lambda: caller_done and time.monotonic() > caller_done[0] + 0.05)
    with pytest.raises(KeyboardInterrupt):
        run_tasks(runtime, [task, task])
    calls = backend.calls
    time.sleep(0.05)
    assert backend.calls == calls > 0
    assert len(halted) == 1
    deadline = time.monotonic() + 1
    while threading.active_count() > threads and time.monotonic() < deadline:
        time.sleep(0.001)  # the interrupter thread ends just after its kill
    assert threading.active_count() == threads


def test_a_helper_that_will_not_start_stops_and_joins_the_helpers_started(draft_text,
                                                                         monkeypatch):
    backend = PromptFunctionBackend()
    runtime = AgentRuntime(gateways=function_gateways(backend, 3))
    started, halted = [], []
    start = threading.Thread.start

    def start_once(thread):
        if started:
            # Fail the second start once the first helper is calling.
            deadline = time.monotonic() + 2
            while not backend.calls and time.monotonic() < deadline:
                time.sleep(0.001)
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    tasks = [partial(_call_until_halted, draft_text, halted)] + [lambda rt: None] * 2
    with pytest.raises(RuntimeError, match="can't start new thread"):
        run_tasks(runtime, tasks)
    calls = backend.calls
    assert not started[0].is_alive()
    assert len(halted) == 1 and calls > 0
    time.sleep(0.05)
    assert backend.calls == calls


def test_a_call_queued_for_a_gateway_slot_is_not_sent_once_its_task_is_halted():
    # Tasks 1 and 2 hold both slots; task 3 has rendered its prompt and waits
    # for one when task 0 fails. The held sends end only once task 3 is halted.
    class Backend:
        def __init__(self):
            self.sent, self.lock = [], threading.Lock()
            self.both_held, self.release = threading.Event(), threading.Event()

        def send(self, req):
            task = re.search(r"guideline for task (\d)", req.rendered_prompt()).group(1)
            with self.lock:
                self.sent.append(task)
                if len(self.sent) == 2:
                    self.both_held.set()
            if task in "12":
                self.release.wait(5)
            return f"reply {task}", "stop", {}

    backend = Backend()
    record = new_run_record()
    runtime = AgentRuntime(gateways=function_gateways(backend, 2), recorder=record)
    gateway = runtime.gateways["default"]
    complete, queued, halts = gateway.complete, threading.Event(), {}

    def entering(req, *args, **kwargs):
        if "guideline for task 3" in req.rendered_prompt():
            queued.set()
        return complete(req, *args, **kwargs)

    gateway.complete = entering

    def fail(rt):
        if not (queued.wait(5) and backend.both_held.wait(5)):
            raise AssertionError("tasks 1-3 never reached the gateway")
        raise AgentError("task 0")

    def ask(i, rt):
        halts[i] = rt.halted
        try:
            return rt.ask("description", "retrieval",
                          {"reference": "r", "guideline": f"guideline for task {i}"}, str(i), str)
        except TaskHalted:
            return "halted"

    def release_once_task_3_is_halted():
        deadline = time.monotonic() + 5
        while not (3 in halts and halts[3]()) and time.monotonic() < deadline:
            time.sleep(0.001)
        backend.release.set()

    releaser = threading.Thread(target=release_once_task_3_is_halted)
    releaser.start()
    outcome = []

    def call():
        try:
            run_tasks(runtime, [fail] + [partial(ask, i) for i in (1, 2, 3)], runners=4)
        except AgentError as exc:
            outcome.append(str(exc))

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(10)
    releaser.join(10)
    assert not caller.is_alive() and outcome == ["task 0"]
    assert sorted(backend.sent) == ["1", "2"]
    assert sorted(e.agent_role for e in record.entries) == ["1", "2"]


def test_ask_logs_each_reply_with_what_the_gateway_measured(draft_text, tmp_path):
    record = new_run_record()
    gateway, _ = mock_gateway(
        MockPlaybook([rule("patent title", {"error": "transport"}, "<Title>X</Title>")]))
    gateway.cache = ResponseCache(tmp_path)
    runtime = AgentRuntime(gateways={"default": gateway}, recorder=record)
    # Two tasks, so the second's request is its first and the cache answers it.
    assert run_tasks(runtime, [lambda rt: rt.write_component("title", draft_text)] * 2) == [
        "X", "X"]
    prompt = content_hash(default_registry().render("title_writer", draft=draft_text))
    reply = content_hash("<Title>X</Title>")
    assert [(e.agent_role, e.prompt_hash, e.response_hash, e.retries, e.cached)
            for e in record.entries] == [("title", prompt, reply, 1, False),
                                         ("title", prompt, reply, 0, True)]
    assert record.entries[1].latency_ms == 0


def test_an_exit_on_a_helper_thread_stops_the_call_joins_it_and_merges_the_records():
    record = new_run_record()
    runtime = runtime_for(MockPlaybook([]), recorder=record, max_inflight=2)
    caller, both_started, started = threading.get_ident(), threading.Barrier(2, timeout=5), []
    threads = threading.active_count()

    def exit_or_wait(i, rt):
        both_started.wait()
        rt.recorder.warn(f"task {i}")
        if threading.get_ident() != caller:
            raise SystemExit(3)
        deadline = time.monotonic() + 5
        while not rt.halted() and time.monotonic() < deadline:
            time.sleep(0.001)

    tasks = [partial(exit_or_wait, 0), partial(exit_or_wait, 1)]
    tasks += [lambda rt, i=i: started.append(i) for i in range(2, 5)]
    with pytest.raises(SystemExit) as exited:
        run_tasks(runtime, tasks, runners=2)
    assert exited.value.code == 3
    assert started == [] and threading.active_count() == threads
    assert record.warnings == ["task 0", "task 1"]
