"""A differential test of agents.run_tasks over random task graphs.

Each drawn graph runs at widths 1, 2, 3 and 8, with and without `runners`.
The width-1 run, itself checked against a one-at-a-time walk of the graph,
is the oracle for the wider runs. A task is named by its path: its index,
after its parent task's path when it runs in a nested fan-out.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from functools import partial

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from patentgen.agents import AgentError, AgentRuntime, run_tasks
from patentgen.core import new_run_record
from helpers import function_gateways

# A task after a failed one may start a call between the moment the failed
# task raises and the moment run_tasks records the failure; calls start at
# least 0.5 ms apart, so never a third.
LATE_CALLS_MAX = 2


@dataclass(frozen=True)
class Task:
    deps: tuple[int, ...]  # earlier tasks of the same fan-out it reads
    calls: int
    fails: bool
    nested: tuple[Task, ...] | None  # a fan-out the task runs after its calls


@st.composite
def graphs(draw, max_tasks: int = 10, nested: bool = True) -> tuple[Task, ...]:
    tasks = []
    for i in range(draw(st.integers(1, max_tasks))):
        deps = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        inner = draw(graphs(4, nested=False)) if nested and draw(st.integers(0, 3)) == 0 else None
        tasks.append(Task(tuple(sorted(deps)), draw(st.integers(0, 4)),
                          draw(st.integers(0, 7)) == 0, inner))
    return tuple(tasks)


def tag(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path))


def sequential(graph, prefix=()):
    """The paths a one-at-a-time run starts, in order, and its outcome."""
    started = []
    for i, task in enumerate(graph):
        path = prefix + (i,)
        started.append(path)
        outcome = ("result", None)
        if task.nested is not None:
            nested_started, outcome = sequential(task.nested, path)
            started += nested_started
        if outcome[0] == "result" and task.fails:
            outcome = ("error", f"{tag(path)} failed")
        if outcome[0] == "error":
            return started, outcome
    return started, ("result", [tag(prefix + (i,)) for i in range(len(graph))])


def after_failure(path, failed) -> bool:
    """Whether a failure of the task at `failed` halts the task at `path`:
    path lies after it in its fan-out, or in a later task of an enclosing one."""
    depth = len(failed) - 1
    return len(path) > depth and path[:depth] == failed[:depth] and path[depth] > failed[depth]


class Log:
    """What the tasks of one run saw, shared by its threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.started = []
        self.ended = set()
        self.raised = []
        self.late = {}  # path: its calls started after a task it follows had raised
        self.problems = []

    def follows_failure(self, path) -> bool:
        with self.lock:
            return any(after_failure(path, failed) for failed in self.raised)


class TagBackend:
    """Replies to each request with its prompt, which names the path of the
    task that sent it."""

    @staticmethod
    def send(req):
        return f"reply to {req.rendered_prompt()}", "stop", {}


def run_task(path, task, log, rt):
    with log.lock:
        if not log.ended.issuperset(path[:-1] + (dep,) for dep in task.deps):
            log.problems.append(f"{tag(path)} started before its dependencies ended")
        log.started.append(path)
    try:
        rt.recorder.warn(f"{tag(path)} start")
        for _ in range(task.calls):
            time.sleep(0.0005)
            late = log.follows_failure(path)
            rt.ask("description", "retrieval", {"reference": "r", "guideline": tag(path)},
                   tag(path), str)
            if late:
                with log.lock:
                    log.late[path] = log.late.get(path, 0) + 1
        if task.nested is not None:
            run_graph(rt, task.nested, log, path)
        rt.recorder.warn(f"{tag(path)} end")
        if task.fails:
            raise AgentError(f"{tag(path)} failed")
        return tag(path)
    except BaseException:
        with log.lock:
            log.raised.append(path)
        raise
    finally:
        with log.lock:
            log.ended.add(path)


def run_graph(rt, graph, log, prefix=(), runners=None):
    tasks = [partial(run_task, prefix + (i,), task, log) for i, task in enumerate(graph)]
    after = {i: task.deps for i, task in enumerate(graph) if task.deps}
    return run_tasks(rt, tasks, after=after, runners=runners)


@dataclass
class Run:
    outcome: tuple
    calls: list[tuple[str, str]]
    warnings: list[str]
    log: Log


def execute(graph, width: int, runners: int | None) -> Run:
    """Run graph on a thread of its own, which must end within 10 s and
    leave no other thread behind."""
    log = Log()
    record = new_run_record()
    runtime = AgentRuntime(gateways=function_gateways(TagBackend(), width), recorder=record)
    outcome = []

    def call():
        try:
            outcome.append(("result", run_graph(runtime, graph, log, runners=runners)))
        except AgentError as exc:
            outcome.append(("error", str(exc)))

    before = set(threading.enumerate())
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(10)
    assert not caller.is_alive(), f"width {width}: run_tasks did not return within 10 s"
    assert set(threading.enumerate()) <= before, f"width {width}: a helper outlived run_tasks"
    assert outcome, f"width {width}: run_tasks raised something other than an AgentError"
    calls = [(entry.agent_role, entry.response_hash) for entry in record.entries]
    return Run(outcome[0], calls, record.warnings, log)


def path_of(text: str) -> tuple[int, ...]:
    """The path that a call's tag, or a warning's first word, names."""
    return tuple(map(int, text.split()[0].split(".")))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs(), st.integers(1, 12))
def test_run_tasks_at_any_width_matches_the_width_one_run(graph, runners):
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        oracle = execute(graph, 1, None)
        started, outcome = sequential(graph)
        assert oracle.log.started == started and oracle.outcome == outcome
        assert not oracle.log.late and not oracle.log.problems
        ran = set(started)
        for width in (1, 2, 3, 8):
            for count in (None, runners):
                run = execute(graph, width, count)
                where = f"width {width}, runners {count}"
                assert run.outcome == oracle.outcome, where
                assert not run.log.problems, (where, run.log.problems)
                assert max(run.log.late.values(), default=0) <= LATE_CALLS_MAX, (where, run.log.late)
                # A task the oracle never started may have run before the
                # failure that halted it; what it logged is left out here.
                calls = [c for c in run.calls if path_of(c[0]) in ran]
                warnings = [w for w in run.warnings if path_of(w) in ran]
                assert calls == oracle.calls and warnings == oracle.warnings, where
                if outcome[0] == "result":
                    assert run.calls == calls and run.warnings == warnings, where
    finally:
        sys.setswitchinterval(switch)
