"""Agent roles: the five short-component writers, the planner, the
description writer and the examiner, plus the dataset builder's inventor and
quality reviewer.

Each role binds a backend, sampling settings and a parse-retry budget. Every
model call renders a prompt template and parses the reply through
AgentRuntime.ask; on a parse failure it re-asks the model with the bad
response and a format reminder appended, up to parse_retry_max extra calls,
before surfacing the error.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .core import (
    Draft,
    GuidelineNode,
    PGTree,
    Reference,
    ReviewVerdict,
    RunRecord,
    render_draft,
    render_pgtree,
    render_reference,
)
from .gateway import ChatMessage, ChatRequest, LlmGateway, check_sampling
from .prompts import PromptRegistry, default_registry
from .tags import TagError, extract_sections, extract_tag


class AgentError(Exception):
    pass


class EmptyGenerationError(AgentError):
    def __init__(self, role: str):
        super().__init__(f"agent {role!r} produced empty output")


class MalformedVerdictError(AgentError):
    def __init__(self, detail: str):
        super().__init__(f"examiner verdict unparseable after retries: {detail}")


class ParseRetryError(Exception):
    """Parse failure that warrants re-asking the model."""


COMPONENT_ROLES = ("title", "abstract", "background", "summary", "claims")
# Every role a run config may bind: the pipeline's agents, then the dataset
# builder's inventor and quality reviewer.
AGENT_ROLES = COMPONENT_ROLES + ("planner", "description", "examiner", "inventor", "quality")
COMPONENT_TAGS = {
    "title": "Title",
    "abstract": "Abstract",
    "background": "Background",
    "summary": "Summary",
    "claims": "Claims",
}

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
    role: str
    backend: str = "default"
    model_id: str | None = None
    temperature: float = 0.5
    top_p: float = 0.9
    max_tokens: int = 4096
    parse_retry_max: int = 2

    def __post_init__(self):
        check_sampling(self.temperature, self.top_p, self.max_tokens)
        if self.parse_retry_max < 0:
            raise AgentError(f"parse_retry_max must be >= 0, got {self.parse_retry_max}")


def default_bindings() -> dict[str, AgentBinding]:
    """The binding of every agent role; a run config may override fields of
    these and of nothing else. Every role emits short texts except the
    description writer, whose subsections get twice the room."""
    return {role: AgentBinding(role, max_tokens=8192 if role == "description" else 4096)
            for role in AGENT_ROLES}


@dataclass
class AgentRuntime:
    """Wires bindings to gateways for the duration of one run."""

    gateways: dict[str, LlmGateway]
    bindings: dict[str, AgentBinding] = field(default_factory=default_bindings)
    registry: PromptRegistry = field(default_factory=default_registry)
    recorder: RunRecord | None = None

    def gateway_for(self, binding: AgentBinding) -> LlmGateway:
        try:
            return self.gateways[binding.backend]
        except KeyError:
            raise AgentError(
                f"role {binding.role!r} names unknown backend {binding.backend!r}"
            ) from None

    def ask(self, role: str, template_id: str, slots: dict, tag: str, parse, reminder: str = ""):
        """Render the prompt, call the model as `role` and return parse(reply).

        Every agent call goes through here. A reply whose parse raises
        TagError or ParseRetryError is re-asked with the bad reply and the
        format reminder appended, up to the binding's parse_retry_max extra
        calls; then the last parse error propagates. Any other exception from
        parse propagates at once.
        """
        binding = self.bindings[role]
        prompt = self.registry.render(template_id, **slots)
        gateway = self.gateway_for(binding)
        messages = [ChatMessage("user", prompt)]
        for attempt in itertools.count():
            request = ChatRequest(
                model_id=binding.model_id or gateway.config.model_id,
                messages=tuple(messages),
                temperature=binding.temperature,
                top_p=binding.top_p,
                max_tokens=binding.max_tokens,
                request_tag=tag,
            )
            resp = gateway.complete(request, recorder=self.recorder)
            try:
                return parse(resp.content)
            except (TagError, ParseRetryError):
                if attempt >= binding.parse_retry_max:
                    raise
                messages += [ChatMessage("assistant", resp.content), ChatMessage("user", reminder)]

    # --- short components ---------------------------------------------

    def write_component(self, role: str, draft: Draft) -> str:
        if role not in COMPONENT_ROLES:
            raise AgentError(f"{role!r} is not a short-component role")
        tag = COMPONENT_TAGS[role]

        def parse(content: str) -> str:
            text = extract_tag(content, tag)
            if not text:
                raise EmptyGenerationError(role)
            return text

        reminder = (
            "Your previous response did not follow the required format. "
            f"Respond again and wrap the {role} exactly as: <{tag}>...</{tag}>"
        )
        return self.ask(
            role, f"{role}_writer", {"draft": render_draft(draft)}, role, parse, reminder
        )

    # --- planning --------------------------------------------------------

    def plan_first_level(self, draft: Draft) -> list[tuple[int, str]]:
        reminder = (
            "Your previous response did not follow the required format. Respond again "
            "using <Section-1> ... </Section-1>, <Section-2> ... </Section-2> blocks "
            "numbered consecutively from 1."
        )
        return self.ask(
            "planner", "planner", {"draft": render_draft(draft)}, TAG_PLAN,
            lambda c: extract_sections(c), reminder,
        )

    def expand_section(self, draft: Draft, section_overview: str) -> list[tuple[int, str]]:
        reminder = (
            "Your previous response did not follow the required format. Respond again "
            "using <Subsection-1> ... </Subsection-1> blocks numbered consecutively from 1."
        )
        return self.ask(
            "planner", "section_expand",
            {"draft": render_draft(draft), "section_overview": section_overview},
            TAG_EXPAND, lambda c: extract_sections(c, "Subsection"), reminder,
        )

    # --- description writing ------------------------------------------

    def retrieve(self, node: GuidelineNode, ref: Reference) -> str:
        """What the model copied out of the reference for node, stripped; it
        may be empty."""
        return self.ask(
            "description", "retrieval",
            {"reference": render_reference(ref), "guideline": node.guideline_text},
            TAG_RETRIEVE, str.strip,
        )

    def write_subsection(self, node: GuidelineNode, retrieved: str, tree: PGTree,
                         draft: Draft) -> str:
        slots = {
            "retrieved": retrieved,
            "tree_overview": render_pgtree(tree),
            "guideline": node.guideline_text,
        }
        return self.ask("description", "description_write", slots, TAG_WRITE, _description_text)

    def refine(self, node: GuidelineNode, subsection: str, feedback: str, tree: PGTree) -> str:
        if not feedback.strip():
            raise AgentError("refine requires non-empty feedback")
        slots = {
            "tree_overview": render_pgtree(tree),
            "guideline": node.guideline_text,
            "subsection": subsection,
            "feedback": feedback,
        }
        return self.ask("description", "description_refine", slots, TAG_REFINE, _description_text)

    # --- review ----------------------------------------------------------

    def review(self, node: GuidelineNode, subsection: str, draft: Draft) -> ReviewVerdict:
        if not subsection.strip():
            raise AgentError("review requires a non-empty subsection")
        slots = {
            "draft": render_draft(draft),
            "guideline": node.guideline_text,
            "subsection": subsection,
        }

        def parse(content: str) -> ReviewVerdict:
            result = extract_tag(content, "Result")
            advice = extract_tag(content, "Advice")
            if result not in ("Pass", "Fail"):
                raise ParseRetryError(f"verdict text {result!r}")
            if not advice:
                raise ParseRetryError("empty advice")
            return ReviewVerdict(result=result, advice=advice)

        reminder = (
            "Your previous response did not follow the required format. Respond again "
            "with <Result>Pass</Result> or <Result>Fail</Result>, and your advice in "
            "<Advice>...</Advice>."
        )
        try:
            return self.ask("examiner", "examiner_review", slots, TAG_REVIEW, parse, reminder)
        except (TagError, ParseRetryError) as exc:
            raise MalformedVerdictError(str(exc)) from exc


def _description_text(content: str) -> str:
    """A written or refined subsection: the reply minus any conversational
    lead-in, which must leave some text."""
    text = strip_leading_filler(content)
    if not text:
        raise EmptyGenerationError("description")
    return text
