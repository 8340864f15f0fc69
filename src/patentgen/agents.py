"""Agent roles: the five short-component writers, the planner, the
description writer and the examiner, plus the dataset builder's inventor and
quality reviewer.

Each role binds a backend, sampling settings and a parse-retry budget. Every
model call renders a prompt template and parses the reply through
AgentRuntime.ask; on a parse failure it re-asks the model with the bad
response and a format reminder appended, up to parse_retry_max extra calls,
before surfacing the error.

Calls run as tasks of run_tasks, as many at once as the runtime's width
allows; gateways bound the sends. A task that reads other tasks' results
names them, and starts as soon as they have finished. The caller runs tasks
itself, beside helper threads that live only for that call. run_tasks is the
one way to fan out: a patent run's components, sections and guideline nodes,
the dataset builder's answers and reviews and the bench's documents all go
through it.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from .core import (
    COMPONENT_ROLES,
    SECTION_TAGS,
    CallEntry,
    ConfigError,
    GuidelineNode,
    ReviewVerdict,
    RunRecord,
    content_hash,
    new_run_record,
)
from .gateway import CallHalted, ChatMessage, ChatRequest, LlmGateway
from .prompts import PromptRegistry, default_registry
from .tags import TagError, extract_sections, extract_tag


class AgentError(Exception):
    pass


class TaskHalted(AgentError):
    """A model call refused because an earlier task of an enclosing run_tasks
    failed, or the run was interrupted; it never counts as the error."""


# Every role a run config may bind: the pipeline's agents, then the dataset
# builder's inventor and quality reviewer.
AGENT_ROLES = COMPONENT_ROLES + ("planner", "description", "examiner", "inventor", "quality")

# Request tags keyed by operation; these are the call-log role labels.
TAG_PLAN = "planner"
TAG_EXPAND = "section_expand"
TAG_RETRIEVE = "retrieval"
TAG_WRITE = "description_write"
TAG_REFINE = "description_refine"
TAG_REVIEW = "examiner_review"

_FILLER_RE = re.compile(
    r"^(sure|certainly|of course|okay|ok|here is|here's|here are)\b", re.IGNORECASE
)


def strip_leading_filler(text: str) -> str:
    """Drop a single conversational lead-in line; keep everything else verbatim."""
    stripped = text.strip()
    lines = stripped.split("\n")
    if len(lines) > 1 and _FILLER_RE.match(lines[0].strip()):
        rest = "\n".join(lines[1:]).lstrip("\n").strip()
        if rest:
            return rest
    return stripped


@dataclass(frozen=True)
class AgentBinding:
    backend: str = "default"
    model_id: str | None = None
    temperature: float = 0.5
    top_p: float = 0.9
    max_tokens: int = 4096
    parse_retry_max: int = 2

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(f"temperature {self.temperature} outside [0, 2]")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError(f"top_p {self.top_p} outside (0, 1]")
        if self.max_tokens <= 0:
            raise ConfigError(f"max_tokens must be positive, got {self.max_tokens}")
        if self.parse_retry_max < 0:
            raise ConfigError(f"parse_retry_max must be >= 0, got {self.parse_retry_max}")


def default_bindings() -> dict[str, AgentBinding]:
    """The binding of every agent role; a run config may override fields of
    these and of nothing else. Every role emits short texts except the
    description writer, whose subsections get twice the room."""
    return {role: AgentBinding(max_tokens=8192 if role == "description" else 4096)
            for role in AGENT_ROLES}


@dataclass
class AgentRuntime:
    """Wires bindings to gateways for the duration of one run."""

    gateways: dict[str, LlmGateway]
    bindings: dict[str, AgentBinding] = field(default_factory=default_bindings)
    registry: PromptRegistry = field(default_factory=default_registry)
    recorder: RunRecord | None = None
    # Whether this task must make no more model calls; run_tasks sets it.
    halted: Callable[[], bool] = lambda: False
    # How many times this runtime has asked for each (role, prompt hash).
    # Every copy, and so each task of run_tasks, starts from none.
    _asked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def width(self) -> int:
        """How many tasks may run at once: the largest max_inflight among the
        gateways, as each gateway bounds its own sends."""
        return max(gateway.max_inflight for gateway in self.gateways.values())

    def ask(self, role: str, template_id: str, slots: dict, tag: str, parse, reminder: str = ""):
        """Render the prompt, call the model as `role` and return parse(reply).

        Every model call goes through here, the zero-shot baseline's too, and
        each reply is logged into the recorder here, under `tag`, before it
        is parsed. A reply whose parse raises TagError is re-asked with the
        bad reply and the format reminder appended, up to the binding's
        parse_retry_max extra calls; then the last parse error propagates.
        Any other exception from parse propagates at once. Once the runtime
        is halted, the next call, first or re-ask, raises TaskHalted instead
        of being rendered or sent, even from the queue for a gateway slot; a
        call that raises logs nothing.

        The gateway gets the number of identical requests (same role, same
        prompt) this runtime made before, so that a response cache replays
        the k-th reply to the k-th of them: an unchanged refinement is
        reviewed afresh, as it is without a cache. The count is the task's
        own, so it does not depend on the width.
        """
        binding = self.bindings[role]
        gateway = self.gateways[binding.backend]
        messages = []
        for attempt in itertools.count():
            if self.halted():
                raise TaskHalted("an earlier task failed or the run was interrupted")
            if not messages:
                messages = [ChatMessage("user", self.registry.render(template_id, **slots))]
            request = ChatRequest(
                model_id=binding.model_id or gateway.config.model_id,
                messages=tuple(messages),
                temperature=binding.temperature,
                top_p=binding.top_p,
                max_tokens=binding.max_tokens,
            )
            prompt_hash = content_hash(request.rendered_prompt())
            occurrence = self._asked.get((role, prompt_hash), 0)
            self._asked[role, prompt_hash] = occurrence + 1
            try:
                resp = gateway.complete(request, self.halted, occurrence)
            except CallHalted as exc:
                raise TaskHalted(str(exc)) from None
            if self.recorder is not None:
                self.recorder.log_call(CallEntry(
                    agent_role=tag, prompt_hash=prompt_hash,
                    response_hash=content_hash(resp.content), latency_ms=resp.latency_ms,
                    retries=resp.retries, cached=resp.cached))
            try:
                return parse(resp.content)
            except TagError:
                if attempt >= binding.parse_retry_max:
                    raise
                messages += [ChatMessage("assistant", resp.content), ChatMessage("user", reminder)]

    # --- short components ---------------------------------------------

    # Each method below takes its prompt's slot texts: draft, tree and
    # reference are the rendered draft, guideline tree and reference, which a
    # run renders once.

    def write_component(self, role: str, draft: str) -> str:
        tag = SECTION_TAGS[role]

        def parse(content: str) -> str:
            text = extract_tag(content, tag)
            if not text:
                raise TagError(f"agent {role!r} produced empty output")
            return text

        reminder = (
            "Your previous response did not follow the required format. "
            f"Respond again and wrap the {role} exactly as: <{tag}>...</{tag}>"
        )
        return self.ask(
            role, f"{role}_writer", {"draft": draft}, role, parse, reminder
        )

    # --- planning --------------------------------------------------------

    def plan_first_level(self, draft: str) -> list[tuple[int, str]]:
        reminder = (
            "Your previous response did not follow the required format. Respond again "
            "using <Section-1> ... </Section-1>, <Section-2> ... </Section-2> blocks "
            "numbered consecutively from 1."
        )
        return self.ask(
            "planner", "planner", {"draft": draft}, TAG_PLAN,
            lambda c: extract_sections(c), reminder,
        )

    def expand_section(self, draft: str, section_overview: str) -> list[tuple[int, str]]:
        reminder = (
            "Your previous response did not follow the required format. Respond again "
            "using <Subsection-1> ... </Subsection-1> blocks numbered consecutively from 1."
        )
        return self.ask(
            "planner", "section_expand",
            {"draft": draft, "section_overview": section_overview},
            TAG_EXPAND, lambda c: extract_sections(c, "Subsection"), reminder,
        )

    # --- description writing ------------------------------------------

    def retrieve(self, node: GuidelineNode, reference: str) -> str:
        """What the model copied out of the reference for node, stripped; it
        may be empty."""
        return self.ask(
            "description", "retrieval",
            {"reference": reference, "guideline": node.guideline_text},
            TAG_RETRIEVE, str.strip,
        )

    def write_subsection(self, node: GuidelineNode, retrieved: str, tree: str) -> str:
        slots = {
            "retrieved": retrieved,
            "tree_overview": tree,
            "guideline": node.guideline_text,
        }
        return self.ask("description", "description_write", slots, TAG_WRITE, _description_text,
                        _DESCRIPTION_REMINDER)

    def refine(self, node: GuidelineNode, subsection: str, feedback: str, tree: str) -> str:
        slots = {
            "tree_overview": tree,
            "guideline": node.guideline_text,
            "subsection": subsection,
            "feedback": feedback,
        }
        return self.ask("description", "description_refine", slots, TAG_REFINE, _description_text,
                        _DESCRIPTION_REMINDER)

    # --- review ----------------------------------------------------------

    def review(self, node: GuidelineNode, subsection: str, draft: str) -> ReviewVerdict:
        slots = {
            "draft": draft,
            "guideline": node.guideline_text,
            "subsection": subsection,
        }

        def parse(content: str) -> ReviewVerdict:
            result = extract_tag(content, "Result")
            advice = extract_tag(content, "Advice")
            if result not in ("Pass", "Fail"):
                raise TagError(f"verdict text {result!r}")
            if not advice:
                raise TagError("empty advice")
            return ReviewVerdict(result=result, advice=advice)

        reminder = (
            "Your previous response did not follow the required format. Respond again "
            "with <Result>Pass</Result> or <Result>Fail</Result>, and your advice in "
            "<Advice>...</Advice>."
        )
        return self.ask("examiner", "examiner_review", slots, TAG_REVIEW, parse, reminder)


# Per thread, in .stops, the stop of each run_tasks call open on it, outermost first.
_open = threading.local()


def run_tasks(runtime: AgentRuntime, tasks: list, after: dict | None = None,
              runners: int | None = None) -> list:
    """The results of tasks, each fn(runtime), in task order; the first error
    in task order is raised instead.

    after maps a task's index to the indices of the earlier tasks whose
    results it reads, and that task starts only once they have finished; an
    entry naming a later or unknown index raises ValueError before any task
    runs. The caller is one of up to `runners` runners (runtime.width by
    default), beside helper threads that live only for this call. Each
    runner takes the first task not yet started, in task order, whose
    dependencies have finished. At width 1 runners is ignored: the caller
    runs every task in task order and no thread starts. Above it, runners
    may exceed the width, so that a task waiting on its gateway holds no
    other task back; the gateways still bound the sends.

    Each task logs its model calls and warnings into a record of its own.
    The records are merged into the runtime's recorder (when one is set) in
    task order, which is the order a sequential run makes them in, so what a
    run records does not depend on how calls interleave. Once a task fails,
    the tasks after it in task order make no further model call: those not
    started are skipped, and those running are halted, so their next
    AgentRuntime.ask raises TaskHalted, in any fan-out nested in them too.
    Earlier tasks still start once their dependencies have finished; so the
    first error in task order is the same at every width. A skipped or
    halted task never counts as the error. An interrupt anywhere in the call
    does the same for every task, in each run_tasks call that encloses this
    one on the caller's thread too; the helpers are waited for and the
    records merged before it is raised, so then no task makes another call.
    """
    after = after or {}
    for index, deps in after.items():
        if index not in range(len(tasks)) or any(dep not in range(index) for dep in deps):
            raise ValueError(f"task {index!r} must run after earlier tasks, not {deps!r}")
    records = [new_run_record() for _ in tasks]
    outcomes = [(None, None)] * len(tasks)  # (result, error) of each task that ran
    waiting = list(range(len(tasks)))  # not started, in task order
    finished = set()
    failed = len(tasks)  # the first failed task's index; no later task starts
    stopped = False  # set by an interrupt: no task starts, and running ones halt
    cond = threading.Condition()

    def halted(index):
        return failed < index or stopped or runtime.halted()

    def take():
        """The next task to start, or None once none before the first failure
        is left or the run stopped."""
        with cond:
            while waiting and waiting[0] < failed and not stopped:
                for index in waiting:
                    if index < failed and finished.issuperset(after.get(index, ())):
                        waiting.remove(index)
                        return index
                cond.wait()
            return None

    def stop():
        nonlocal stopped
        with cond:
            stopped = True
            cond.notify_all()

    def runner():
        nonlocal failed
        while (index := take()) is not None:
            try:
                task_runtime = replace(runtime, recorder=records[index],
                                       halted=partial(halted, index))
                outcomes[index] = tasks[index](task_runtime), None
            except Exception as exc:
                outcomes[index] = None, exc
            with cond:
                finished.add(index)
                if outcomes[index][1] is not None:
                    failed = min(failed, index)
                cond.notify_all()

    escaped = []  # what ended a helper thread, raised again on the caller's

    def helper():
        try:
            runner()
        except BaseException as exc:
            # An exit from inside a task: start nothing more.
            escaped.append(exc)
            stop()

    count = min(runners or runtime.width, len(tasks)) if runtime.width > 1 else 1
    helpers = [threading.Thread(target=helper) for _ in range(count - 1)]
    stops = vars(_open).setdefault("stops", [])
    stops.append(stop)
    try:
        for thread in helpers:
            thread.start()
        runner()
        for thread in helpers:
            thread.join()
    except BaseException as exc:
        # An interrupt, or a helper that would not start. An interrupt or an
        # exit leaves each enclosing call on this thread too, so their tasks
        # halt now; a helper not yet alive will find no task to take.
        for enclosing in [stop] if isinstance(exc, Exception) else stops:
            enclosing()
        for thread in helpers:
            if thread.is_alive():
                thread.join()
        raise
    finally:
        stops.pop()
        if runtime.recorder is not None:
            for record in records:
                runtime.recorder.extend(record)
    if escaped:
        raise escaped[0]
    # A task is skipped or halted only once an earlier one has failed, so
    # neither a skipped task's None nor TaskHalted is returned or raised.
    error = next((error for _, error in outcomes if error is not None), None)
    if error is not None:
        raise error
    return [result for result, _ in outcomes]


_DESCRIPTION_REMINDER = (
    "Your previous response was empty. Respond again with the full text of the subsection."
)


def _description_text(content: str) -> str:
    """A written or refined subsection: the reply minus any conversational
    lead-in, which must leave some text."""
    text = strip_leading_filler(content)
    if not text:
        raise TagError("agent 'description' produced empty output")
    return text
