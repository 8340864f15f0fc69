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
from pathlib import Path

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

# The six patent sections in canonical order, each with the tag a model wraps it in.
SECTION_TAGS = {"title": "Title", "abstract": "Abstract", "background": "Background",
                "summary": "Summary", "claims": "Claims", "description": "Full Description"}
SECTION_NAMES = tuple(SECTION_TAGS)
# The five short components, every section but the description, each an agent role.
COMPONENT_ROLES = SECTION_NAMES[:-1]

# Default assembly order: description precedes claims.
DEFAULT_SECTION_ORDER = ("title", "abstract", "background", "summary", "description", "claims")


class ConfigError(Exception):
    """Invalid input, raised where it is read; the CLI prints it and exits 1."""


class DraftValidationError(ConfigError):
    pass


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

    @property
    def node_id(self) -> tuple[int, int]:
        return (self.section_index, self.subsection_index)


@dataclass(frozen=True)
class SectionPlan:
    section_index: int
    section_overview: str
    subsections: tuple[GuidelineNode, ...]


@dataclass(frozen=True)
class PGTree:
    """Two-layer writing-guideline tree: section overviews over subsection
    guidelines. Each level comes from a tags.extract_sections parse, so its
    indices run 1..m and no guideline is blank."""

    sections: tuple[SectionPlan, ...]

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


def render_fields(fields: dict[str, str]) -> str:
    """fields as `Name: text` blocks joined by blank lines, in the dict's order;
    the reference and dataset records render through it, so it is byte-stable."""
    return "\n\n".join(f"{name.capitalize()}: {text}" for name, text in fields.items())


def render_reference(components: dict[str, str], draft: str) -> str:
    """The reference slot: the five short components, then the rendered draft."""
    fields = render_fields({role: components[role] for role in COMPONENT_ROLES})
    return f"{fields}\n\nDraft:\n{draft}"


@dataclass(frozen=True)
class ReviewVerdict:
    result: str
    advice: str

    @property
    def passed(self) -> bool:
        return self.result == "Pass"


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


@dataclass(frozen=True)
class PatentDoc:
    """The assembled six-section patent; every section comes from a parse or
    a record that rejects blank text, and the order from a PipelineConfig."""

    title: str
    abstract: str
    background: str
    summary: str
    claims: str
    description: str
    section_order: tuple[str, ...] = DEFAULT_SECTION_ORDER
    generation_meta: RunRecord | None = field(default=None, compare=False)

    def section(self, name: str) -> str:
        return getattr(self, name)


def patent_to_text(doc: PatentDoc, headers: bool = True) -> str:
    """Plain-text serialization.

    With headers, each section is introduced by a `# NAME` line; without,
    section bodies are concatenated in order with blank-line joins (the form
    used for scoring against reference patents).
    """
    blocks = []
    for name in doc.section_order:
        text = doc.section(name)
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


def json_text(payload: dict) -> str:
    """payload as the text of a run dir's JSON file: indented, keys sorted."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def jsonl_text(records) -> str:
    """records as JSON lines: one json.dumps(record, ensure_ascii=False) each."""
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


def is_file_name(name) -> bool:
    """Whether name is a string that names an entry of a directory, so that a
    path built from it stays there: not empty, . or .., and no slash,
    backslash, NUL or lone surrogate. Its UTF-8 bytes, with the longest
    suffix this package appends (.json), fit the common 255-byte name limit."""
    return (isinstance(name, str) and re.fullmatch(r"[^/\\\0\ud800-\udfff]+", name) is not None
            and name not in (".", "..") and len(name.encode("utf-8")) + len(".json") <= 255)


def make_dir(path) -> Path:
    """path as a directory, made with its parents if missing. A path that
    cannot be one, such as an existing file, is a ConfigError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc}") from exc
    return path


def remove_stale(directory: Path, owned: tuple[str, ...], keep) -> None:
    """Remove each file under directory that matches a glob of owned and
    whose relative path is not in keep, then each subdirectory this leaves
    empty, so that a reused directory holds only its last run's files. A
    match that is a directory is no file this package wrote, and is left."""
    for pattern in owned:
        for path in list(directory.glob(pattern)):
            if path.relative_to(directory).as_posix() not in keep and not path.is_dir():
                path.unlink()
                parent = path.parent
                while parent != directory and not any(parent.iterdir()):
                    parent.rmdir()
                    parent = parent.parent


def write_files(directory, files: dict[str, str], owned: tuple[str, ...] = ()) -> None:
    """Write each text of files, as UTF-8, to its relative path under
    directory (made with make_dir), once the files of owned that files does
    not name are removed (remove_stale leaves a directory at such a path).
    So a reused run, build or bench directory holds only its last files."""
    directory = make_dir(directory)
    remove_stale(directory, owned, files)
    for parent in {(directory / name).parent for name in files}:
        parent.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def read_input(path, what: str = "file", parse=str):
    """parse applied to the UTF-8 text of the file at path. A fault in reading
    or parsing it is a ConfigError naming what and path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_json(path, what: str = "file"):
    """The JSON value in the file at path; a ConfigError as read_input says."""
    return read_input(path, what, json.loads)


def load_draft(path) -> Draft:
    return draft_from_record(load_json(path, "draft"))
