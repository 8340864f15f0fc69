"""Core domain types for the patent drafting pipeline.

Everything here is an immutable value object (frozen dataclasses) shared by
the gateway, agents, pipeline, metrics and dataset tooling. The inventor
draft is a fixed five-question interview; the patent is six named sections
assembled in a configurable order.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION_DRAFT = "draft-v1"
SCHEMA_VERSION_PATENT = "patent-doc-v1"

# The five canonical interview questions. Drafts referencing any other
# question text are rejected at construction.
CANONICAL_QUESTIONS: dict[int, str] = {
    1: "What is the technical problem that this patent aims to solve?",
    2: (
        "What is the technical background of this invention, the most similar "
        "existing solutions, and its advantages over these solutions?"
    ),
    3: "What is the detailed technical solution of the invention?",
    4: (
        "What are the key points of the invention, and which points are "
        "intended to be protected?"
    ),
    5: "What is the detailed description of each figure individually?",
}

SECTION_NAMES = ("title", "abstract", "background", "summary", "claims", "description")

# Default assembly order: description precedes claims.
DEFAULT_SECTION_ORDER = ("title", "abstract", "background", "summary", "description", "claims")


class CoreError(Exception):
    """Base class for domain-type construction errors."""


class DraftValidationError(CoreError):
    pass


class ConfigError(Exception):
    """A config, manifest or draft file given as input cannot be used."""


class EmptySectionError(CoreError):
    def __init__(self, section: str):
        self.section = section
        super().__init__(f"section {section!r} is empty")


def _reject_empty(obj, names) -> None:
    """Raise EmptySectionError for the first of the named text fields that is blank."""
    for name in names:
        if not getattr(obj, name).strip():
            raise EmptySectionError(name)


def _normalize_ws(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def content_hash(text: str) -> str:
    """Stable hex digest used to key caches and diff call logs."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DraftQA:
    """One question/answer pair of the inventor interview."""

    question_id: int
    question_text: str
    answer_text: str

    def __post_init__(self):
        if self.question_id not in CANONICAL_QUESTIONS:
            raise DraftValidationError(f"question_id must be 1..5, got {self.question_id}")
        canonical = CANONICAL_QUESTIONS[self.question_id]
        if _normalize_ws(self.question_text) != _normalize_ws(canonical):
            raise DraftValidationError(
                f"question {self.question_id} text does not match the canonical "
                f"question: {canonical!r}"
            )
        if not self.answer_text.strip():
            raise DraftValidationError(f"answer to question {self.question_id} is empty")


@dataclass(frozen=True)
class Draft:
    """The inventor's technical draft: exactly five ordered QA pairs."""

    qa: tuple[DraftQA, ...]
    source_id: str = ""

    def __post_init__(self):
        ids = [q.question_id for q in self.qa]
        missing = [i for i in range(1, 6) if i not in ids]
        if missing:
            raise DraftValidationError(
                "draft is missing question "
                + ", ".join(f"{i} ({CANONICAL_QUESTIONS[i]!r})" for i in missing)
            )
        if ids != sorted(ids) or len(ids) != 5:
            raise DraftValidationError(f"draft must contain questions 1..5 in order, got {ids}")

    def answers(self) -> tuple[str, ...]:
        return tuple(q.answer_text for q in self.qa)


def make_draft(answers: dict[int, str] | list[str], source_id: str = "") -> Draft:
    """Build a Draft from answers keyed (or ordered) by question id."""
    if isinstance(answers, dict):
        items = [(i, answers[i]) for i in sorted(answers)]
    else:
        items = list(enumerate(answers, start=1))
    qa = tuple(
        DraftQA(question_id=i, question_text=CANONICAL_QUESTIONS[i], answer_text=a)
        for i, a in items
    )
    return Draft(qa=qa, source_id=source_id)


def render_draft(draft: Draft) -> str:
    """Canonical text rendering of a draft.

    Each pair renders as a question line followed by the answer block, pairs
    separated by a blank line. The same rendering feeds every prompt and every
    dataset export, so it must stay byte-stable.
    """
    blocks = [
        f"Question {qa.question_id}: {CANONICAL_QUESTIONS[qa.question_id]}\n"
        f"Answer {qa.question_id}: {qa.answer_text}"
        for qa in draft.qa
    ]
    return "\n\n".join(blocks)


def draft_to_record(draft: Draft) -> dict:
    return {
        "schema_version": SCHEMA_VERSION_DRAFT,
        "source_id": draft.source_id,
        "qa": [asdict(qa) for qa in draft.qa],
    }


def draft_from_record(record: dict) -> Draft:
    """Parse a draft record; question_text is optional and defaults canonical."""
    entries = record.get("qa") if isinstance(record, dict) else None
    if not isinstance(entries, list):
        raise DraftValidationError("draft record has no 'qa' list")
    qa = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise DraftValidationError(f"draft qa entry is not an object: {entry!r}")
        qid = entry.get("question_id")
        # A bool is an int, and True == 1.
        if type(qid) is not int or qid not in CANONICAL_QUESTIONS:
            raise DraftValidationError(f"bad question_id in draft record: {qid!r}")
        question = entry.get("question_text", CANONICAL_QUESTIONS[qid])
        answer = entry.get("answer_text", "")
        if not isinstance(question, str) or not isinstance(answer, str):
            raise DraftValidationError(
                f"question {qid}: question_text and answer_text must be strings"
            )
        qa.append(DraftQA(question_id=qid, question_text=question, answer_text=answer))
    qa.sort(key=lambda q: q.question_id)
    source_id = record.get("source_id", "")
    if not isinstance(source_id, str):
        raise DraftValidationError(f"source_id must be a string, got {source_id!r}")
    return Draft(qa=tuple(qa), source_id=source_id)


@dataclass(frozen=True)
class GuidelineNode:
    """One subsection-level writing instruction of the guideline tree."""

    section_index: int
    subsection_index: int
    guideline_text: str

    def __post_init__(self):
        if self.section_index < 1 or self.subsection_index < 1:
            raise CoreError("guideline node indices are 1-based")
        if not self.guideline_text.strip():
            raise CoreError(
                f"empty guideline at node ({self.section_index}, {self.subsection_index})"
            )

    @property
    def node_id(self) -> tuple[int, int]:
        return (self.section_index, self.subsection_index)


@dataclass(frozen=True)
class SectionPlan:
    section_index: int
    section_overview: str
    subsections: tuple[GuidelineNode, ...]

    def __post_init__(self):
        if not self.subsections:
            raise CoreError(f"section {self.section_index} has no subsections")
        for node in self.subsections:
            if node.section_index != self.section_index:
                raise CoreError("subsection node filed under the wrong section")


@dataclass(frozen=True)
class PGTree:
    """Two-layer writing-guideline tree: section overviews over subsection guidelines."""

    sections: tuple[SectionPlan, ...]

    def __post_init__(self):
        if not self.sections:
            raise CoreError("guideline tree has no sections")
        seen: set[tuple[int, int]] = set()
        for plan in self.sections:
            for node in plan.subsections:
                if node.node_id in seen:
                    raise CoreError(f"duplicate guideline node {node.node_id}")
                seen.add(node.node_id)

    @property
    def node_count(self) -> int:
        return sum(len(s.subsections) for s in self.sections)

    def nodes(self) -> list[GuidelineNode]:
        return [node for plan in self.sections for node in plan.subsections]


def render_pgtree(tree: PGTree) -> str:
    """Deterministic text form of the tree, used as the overview prompt slot."""
    lines: list[str] = []
    for plan in tree.sections:
        lines.append(f"Section {plan.section_index}: {plan.section_overview}")
        for node in plan.subsections:
            lines.append(
                f"  Subsection {node.section_index}.{node.subsection_index}: {node.guideline_text}"
            )
    return "\n".join(lines)


@dataclass(frozen=True)
class Reference:
    """Bundle of the five short components plus the draft, consulted during
    description writing. Every component must be non-empty."""

    title: str
    abstract: str
    background: str
    summary: str
    claims: str
    draft: Draft

    def __post_init__(self):
        _reject_empty(self, ("title", "abstract", "background", "summary", "claims"))


def render_reference(ref: Reference) -> str:
    return (
        f"Title: {ref.title}\n\n"
        f"Abstract: {ref.abstract}\n\n"
        f"Background: {ref.background}\n\n"
        f"Summary: {ref.summary}\n\n"
        f"Claims: {ref.claims}\n\n"
        f"Draft:\n{render_draft(ref.draft)}"
    )


class VerdictResult:
    PASS = "Pass"
    FAIL = "Fail"


@dataclass(frozen=True)
class ReviewVerdict:
    result: str
    advice: str

    def __post_init__(self):
        if self.result not in (VerdictResult.PASS, VerdictResult.FAIL):
            raise CoreError(f"verdict result must be Pass or Fail, got {self.result!r}")
        if not self.advice.strip():
            raise CoreError("verdict advice must be non-empty")

    @property
    def passed(self) -> bool:
        return self.result == VerdictResult.PASS


@dataclass(frozen=True)
class RefinementRound:
    """One entry of a subsection's write/refine history."""

    text: str
    verdict: ReviewVerdict
    no_change: bool = False


@dataclass(frozen=True)
class SubsectionDraft:
    """One guideline node's write/refine history; its last round is the
    accepted text."""

    node: tuple[int, int]
    history: tuple[RefinementRound, ...]

    @property
    def text(self) -> str:
        return self.history[-1].text

    @property
    def rounds_used(self) -> int:
        return len(self.history) - 1

    @property
    def final_verdict(self) -> ReviewVerdict:
        return self.history[-1].verdict

    @property
    def accepted_with_warning(self) -> bool:
        return not self.final_verdict.passed


@dataclass(frozen=True)
class CallEntry:
    agent_role: str
    prompt_hash: str
    response_hash: str
    latency_ms: int
    retries: int
    cached: bool = False


class RunRecord:
    """Append-only log of every model call and warning in a run.

    Appends are serialized so concurrent agents can share one record; the
    lists themselves are only read after the run settles.
    """

    def __init__(self, model_id: str):
        self.model_id = model_id
        self._entries: list[CallEntry] = []
        self._warnings: list[str] = []
        self._lock = threading.Lock()

    def log_call(self, entry: CallEntry) -> None:
        with self._lock:
            self._entries.append(entry)

    def warn(self, message: str) -> None:
        with self._lock:
            self._warnings.append(message)

    def extend(self, other: "RunRecord") -> None:
        """Append other's calls and warnings after this record's own."""
        entries, warnings = other.entries, other.warnings
        with self._lock:
            self._entries += entries
            self._warnings += warnings

    @property
    def entries(self) -> tuple[CallEntry, ...]:
        with self._lock:
            return tuple(self._entries)

    @property
    def warnings(self) -> list[str]:
        with self._lock:
            return list(self._warnings)

    def role_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.agent_role] = counts.get(entry.agent_role, 0) + 1
        return counts

    def to_records(self) -> list[dict]:
        return [asdict(entry) for entry in self.entries]


def new_run_record(model_id: str = "unset") -> RunRecord:
    return RunRecord(model_id=model_id)


def check_section_order(order: tuple[str, ...]) -> None:
    if sorted(order) != sorted(SECTION_NAMES):
        raise CoreError(f"section_order must be a permutation of {SECTION_NAMES}, got {order}")


@dataclass(frozen=True)
class PatentDoc:
    """The assembled six-section patent."""

    title: str
    abstract: str
    background: str
    summary: str
    claims: str
    description: str
    section_order: tuple[str, ...] = DEFAULT_SECTION_ORDER
    generation_meta: RunRecord | None = field(default=None, compare=False)

    def __post_init__(self):
        check_section_order(self.section_order)
        _reject_empty(self, SECTION_NAMES)

    def section(self, name: str) -> str:
        return getattr(self, name)

    def sections_in_order(self) -> list[tuple[str, str]]:
        return [(name, self.section(name)) for name in self.section_order]


def patent_to_text(doc: PatentDoc, headers: bool = True) -> str:
    """Plain-text serialization.

    With headers, each section is introduced by a `# NAME` line; without,
    section bodies are concatenated in order with blank-line joins (the form
    used for scoring against reference patents).
    """
    blocks = []
    for name, text in doc.sections_in_order():
        if headers:
            blocks.append(f"# {name.upper()}\n\n{text}")
        else:
            blocks.append(text)
    return "\n\n".join(blocks) + "\n"


def patent_to_record(doc: PatentDoc) -> dict:
    """Structured serialization: one field per section plus run metadata."""
    meta: dict = {}
    if doc.generation_meta is not None:
        rec = doc.generation_meta
        meta = {"model_id": rec.model_id, "call_counts": rec.role_counts()}
    return {
        "schema_version": SCHEMA_VERSION_PATENT,
        "status": "complete",
        "sections": {name: doc.section(name) for name in SECTION_NAMES},
        "section_order": list(doc.section_order),
        "generation_meta": meta,
    }


def patent_from_record(record: dict) -> PatentDoc:
    sections = record["sections"]
    return PatentDoc(
        section_order=tuple(record.get("section_order", DEFAULT_SECTION_ORDER)),
        **{name: sections[name] for name in SECTION_NAMES},
    )


def dump_json(payload: dict, path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def load_draft(path) -> Draft:
    try:
        return draft_from_record(load_json(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read draft {path}: {exc}") from exc
