"""Dataset construction: synthesize inventor drafts from patent records,
gate them through the per-question quality review, collect guideline trees
from descriptions, cut seeded splits, and export training pairs.

Records come in as structured JSON files; nothing here redistributes source
data. Every skip (bad record, empty answer, failed gate, unparseable tree)
is logged with a reason so a build is auditable end to end.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .agents import AgentRuntime, ParseRetryError
from .core import (
    DEFAULT_SECTION_ORDER,
    Draft,
    assemble_patent,
    draft_to_record,
    make_draft,
    patent_to_text,
    render_draft,
)
from .gateway import GatewayError
from .tags import TagError, TagSpec, extract_sections, extract_tag, render_sections

SCHEMA_VERSION_SFT = "sft-pairs-v1"

RECORD_FIELDS = ("title", "abstract", "background", "summary", "claims", "description")

SFT_KINDS = ("D2T", "D2A", "D2B", "D2S", "D2C", "D2W", "D2P_full")
_COMPONENT_KIND_FIELDS = {
    "D2T": "title",
    "D2A": "abstract",
    "D2B": "background",
    "D2S": "summary",
    "D2C": "claims",
}

DEFAULT_SPLIT_PROPORTIONS = (1500, 133, 300)
SPLIT_NAMES = ("train", "valid", "test")


class DatakitError(Exception):
    pass


class InsufficientRecordsError(DatakitError):
    def __init__(self, needed: int, available: int):
        super().__init__(f"split sizes need {needed} records but only {available} accepted")


class RecordSkipped(DatakitError):
    """Raised internally when one record cannot continue through the build."""

    def __init__(self, record_id: str, stage: str, reason: str):
        self.record_id = record_id
        self.stage = stage
        self.reason = reason
        super().__init__(f"{record_id} skipped at {stage}: {reason}")


@dataclass(frozen=True)
class PatentRecord:
    record_id: str
    title: str
    abstract: str
    background: str
    summary: str
    claims: str
    description: str
    decision_label: str = "ACCEPTED"

    def section(self, name: str) -> str:
        return getattr(self, name)


def render_record(rec: PatentRecord) -> str:
    """Full record text used to condition the simulated inventor."""
    parts = [f"{name.capitalize()}: {rec.section(name)}" for name in RECORD_FIELDS]
    return "\n\n".join(parts)


@dataclass(frozen=True)
class IngestConfig:
    accept_label: str = "ACCEPTED"
    # canonical field -> key in the source records; identity when omitted
    field_map: dict = field(default_factory=dict)

    def source_key(self, name: str) -> str:
        return self.field_map.get(name, name)


def _record_from_raw(raw: dict, cfg: IngestConfig, fallback_id: str) -> PatentRecord:
    return PatentRecord(
        record_id=str(raw.get(cfg.source_key("record_id"), fallback_id)),
        decision_label=str(raw.get(cfg.source_key("decision_label"), "")),
        **{name: str(raw.get(cfg.source_key(name), "")) for name in RECORD_FIELDS},
    )


def load_records(path: Path | str, cfg: IngestConfig | None = None):
    """Read records from a directory of .json files or one .jsonl file.

    Returns (records, skips); only records with the accept label and all six
    sections non-empty are kept.
    """
    cfg = cfg or IngestConfig()
    path = Path(path)
    raws: list[tuple[str, dict]] = []
    if path.is_dir():
        for file in sorted(path.glob("*.json")):
            raws.append((file.stem, json.loads(file.read_text("utf-8"))))
    elif path.suffix == ".jsonl":
        for i, line in enumerate(path.read_text("utf-8").splitlines()):
            if line.strip():
                raws.append((f"line{i + 1}", json.loads(line)))
    else:
        raise DatakitError(f"records path must be a directory or .jsonl file: {path}")

    records: list[PatentRecord] = []
    skips: list[dict] = []
    for fallback_id, raw in raws:
        rec = _record_from_raw(raw, cfg, fallback_id)
        if rec.decision_label != cfg.accept_label:
            skips.append(
                {"record_id": rec.record_id, "stage": "ingest",
                 "reason": f"decision label {rec.decision_label!r} != {cfg.accept_label!r}"}
            )
            continue
        empty = [name for name in RECORD_FIELDS if not rec.section(name).strip()]
        if empty:
            skips.append(
                {"record_id": rec.record_id, "stage": "ingest",
                 "reason": f"empty fields: {empty}"}
            )
            continue
        records.append(rec)
    return records, skips


# --- quality review ----------------------------------------------------------


@dataclass(frozen=True)
class QualityItem:
    question_id: int
    result: str
    reason: str

    @property
    def passed(self) -> bool:
        return self.result == "Pass"


@dataclass(frozen=True)
class QualityReport:
    items: tuple[QualityItem, ...]

    def __post_init__(self):
        if len(self.items) != 5:
            raise DatakitError("quality report must cover all five questions")
        for item in self.items:
            if not item.passed and not item.reason.strip():
                raise DatakitError(f"failed question {item.question_id} needs a reason")

    @property
    def overall_pass(self) -> bool:
        return all(item.passed for item in self.items)


def reviewer_template_for(question_id: int, corrected_mapping: bool = False) -> str:
    """Question -> reviewer prompt. The shipped q4/q5 reviewer texts look
    swapped relative to the questions; the default keeps the literal
    assignment, corrected_mapping swaps them back."""
    mapped = question_id
    if corrected_mapping and question_id in (4, 5):
        mapped = 9 - question_id
    return f"draft_quality_q{mapped}"


class DatasetBuilder:
    def __init__(self, runtime: AgentRuntime, corrected_reviewer_mapping: bool = False):
        self.runtime = runtime
        self.corrected_reviewer_mapping = corrected_reviewer_mapping

    def synthesize_draft(self, rec: PatentRecord) -> Draft:
        """Five inventor-simulation calls, one per canonical question."""
        record_text = render_record(rec)
        answers: dict[int, str] = {}
        for qid in range(1, 6):
            try:
                answer = self.runtime.ask(
                    "inventor", f"inventor_q{qid}", {"record": record_text}, "inventor", str.strip
                )
            except GatewayError as exc:
                raise RecordSkipped(rec.record_id, "draft", f"q{qid}: {exc}") from exc
            if not answer:
                raise RecordSkipped(rec.record_id, "draft", f"q{qid}: empty answer")
            answers[qid] = answer
        return make_draft(answers, source_id=rec.record_id)

    def review_draft_quality(self, draft: Draft) -> QualityReport:
        items = []
        for qa in draft.qa:
            template = reviewer_template_for(qa.question_id, self.corrected_reviewer_mapping)

            def parse(content: str) -> QualityItem:
                result = extract_tag(content, TagSpec("Result"))
                if result not in ("Pass", "Fail"):
                    raise ParseRetryError(f"verdict text {result!r}")
                if result == "Fail":
                    reason = extract_tag(content, TagSpec("Reason"))
                    if not reason:
                        raise ParseRetryError("empty reason")
                    return QualityItem(qa.question_id, "Fail", reason)
                return QualityItem(qa.question_id, "Pass", "")

            reminder = (
                "Your previous response did not follow the required format. Respond again "
                "with <Result> Pass </Result> or <Result> Fail </Result>, plus a "
                "<Reason> ... </Reason> when the result is Fail."
            )
            try:
                item = self.runtime.ask(
                    "quality", template, {"answer": qa.answer_text}, "draft_quality", parse,
                    reminder,
                )
            except (TagError, ParseRetryError):
                item = QualityItem(qa.question_id, "Fail", "unparseable verdict")
            items.append(item)
        return QualityReport(items=tuple(items))

    def collect_pgtree(self, description: str) -> list[tuple[int, str]]:
        if not description.strip():
            raise DatakitError("collect_pgtree requires a non-empty description")
        reminder = (
            "Your previous response did not follow the required format. Respond again "
            "using <Section-1> ... </Section-1> blocks numbered consecutively from 1."
        )
        return self.runtime.ask(
            "quality", "pgtree_collect", {"description": description}, "pgtree_collect",
            lambda c: extract_sections(c), reminder,
        )


@dataclass
class DatasetBuild:
    records: dict[str, PatentRecord] = field(default_factory=dict)
    drafts: dict[str, Draft] = field(default_factory=dict)
    quality: dict[str, QualityReport] = field(default_factory=dict)
    pgtrees: dict[str, list] = field(default_factory=dict)
    accepted_ids: list[str] = field(default_factory=list)
    skips: list[dict] = field(default_factory=list)


def build_dataset(
    builder: DatasetBuilder,
    records: list[PatentRecord],
    collect_trees: bool = True,
) -> DatasetBuild:
    """Run every record through draft synthesis, the quality gate and (for
    accepted records) guideline-tree collection."""
    build = DatasetBuild()
    for rec in records:
        build.records[rec.record_id] = rec
        try:
            draft = builder.synthesize_draft(rec)
        except RecordSkipped as skip:
            build.skips.append(
                {"record_id": skip.record_id, "stage": skip.stage, "reason": skip.reason}
            )
            continue
        build.drafts[rec.record_id] = draft
        report = builder.review_draft_quality(draft)
        build.quality[rec.record_id] = report
        if not report.overall_pass:
            reasons = [
                f"q{item.question_id}: {item.reason}" for item in report.items if not item.passed
            ]
            build.skips.append(
                {"record_id": rec.record_id, "stage": "quality_gate",
                 "reason": "; ".join(reasons)}
            )
            continue
        build.accepted_ids.append(rec.record_id)
        if collect_trees:
            try:
                build.pgtrees[rec.record_id] = builder.collect_pgtree(rec.description)
            except (TagError, ParseRetryError, GatewayError) as exc:
                build.skips.append(
                    {"record_id": rec.record_id, "stage": "pgtree", "reason": str(exc)}
                )
    return build


# --- splits -------------------------------------------------------------------


@dataclass(frozen=True)
class SplitManifest:
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]
    seed: int
    leftover: tuple[str, ...] = ()

    def split(self, name: str) -> tuple[str, ...]:
        return getattr(self, name)

    def to_record(self) -> dict:
        return {
            "seed": self.seed,
            "train": list(self.train),
            "valid": list(self.valid),
            "test": list(self.test),
            "leftover": list(self.leftover),
        }


def proportional_sizes(n: int, proportions=DEFAULT_SPLIT_PROPORTIONS) -> tuple[int, int, int]:
    """Scale the default split sizes to n records by largest remainder;
    remainder ties go to the earlier split (train, valid, test)."""
    total = sum(proportions)
    raw = [n * p / total for p in proportions]
    sizes = [int(x) for x in raw]
    order = sorted(range(len(sizes)), key=lambda i: (-(raw[i] - sizes[i]), i))
    for i in order[: n - sum(sizes)]:
        sizes[i] += 1
    return tuple(sizes)


def make_splits(
    accepted_ids: list[str],
    sizes: tuple[int, int, int] | None = None,
    seed: int = 0,
) -> SplitManifest:
    ids = sorted(accepted_ids)
    if sizes is None:
        sizes = proportional_sizes(len(ids))
    needed = sum(sizes)
    if needed > len(ids):
        raise InsufficientRecordsError(needed, len(ids))
    rng = random.Random(seed)
    rng.shuffle(ids)
    train = ids[: sizes[0]]
    valid = ids[sizes[0] : sizes[0] + sizes[1]]
    test = ids[sizes[0] + sizes[1] : needed]
    leftover = ids[needed:]
    return SplitManifest(
        train=tuple(train), valid=tuple(valid), test=tuple(test),
        seed=seed, leftover=tuple(leftover),
    )


# --- SFT export ----------------------------------------------------------------


@dataclass
class ExportReport:
    kind: str
    counts: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)


def _target_for(kind: str, build: DatasetBuild, record_id: str) -> str | None:
    rec = build.records[record_id]
    if kind in _COMPONENT_KIND_FIELDS:
        return rec.section(_COMPONENT_KIND_FIELDS[kind])
    if kind == "D2W":
        tree = build.pgtrees.get(record_id)
        return None if tree is None else render_sections(tree)
    if kind == "D2P_full":
        doc = assemble_patent(
            title=rec.title, abstract=rec.abstract, background=rec.background,
            summary=rec.summary, claims=rec.claims, description=rec.description,
            order=DEFAULT_SECTION_ORDER,
        )
        return patent_to_text(doc)
    raise DatakitError(f"unknown export kind {kind!r}; expected one of {SFT_KINDS}")


def export_sft(
    kind: str,
    manifest: SplitManifest,
    build: DatasetBuild,
    out_dir: Path | str,
) -> ExportReport:
    """Write one line-delimited pair file per split. Records lacking the
    target (for example a failed tree collection under D2W) are skipped,
    logged and subtracted from the counts."""
    out_dir = Path(out_dir) / kind
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ExportReport(kind=kind)
    for split_name in SPLIT_NAMES:
        path = out_dir / f"{split_name}.jsonl"
        count = 0
        with path.open("w", encoding="utf-8") as fh:
            for record_id in manifest.split(split_name):
                target = _target_for(kind, build, record_id)
                if target is None or record_id not in build.drafts:
                    report.skipped.append(
                        {"record_id": record_id, "kind": kind, "split": split_name,
                         "reason": "missing target"}
                    )
                    continue
                line = {
                    "schema_version": SCHEMA_VERSION_SFT,
                    "record_id": record_id,
                    "input": render_draft(build.drafts[record_id]),
                    "output": target,
                }
                fh.write(json.dumps(line, ensure_ascii=False) + "\n")
                count += 1
        report.counts[split_name] = count
    return report


def write_build_artifacts(build: DatasetBuild, manifest: SplitManifest, workdir: Path) -> None:
    """Persist drafts, quality reports, trees, the manifest and the skip log."""
    workdir = Path(workdir)
    (workdir / "drafts").mkdir(parents=True, exist_ok=True)
    for record_id, draft in build.drafts.items():
        path = workdir / "drafts" / f"{record_id}.json"
        path.write_text(
            json.dumps(draft_to_record(draft), ensure_ascii=False, indent=2) + "\n", "utf-8"
        )
    quality = {
        record_id: [
            {"question_id": i.question_id, "result": i.result, "reason": i.reason}
            for i in report.items
        ]
        for record_id, report in build.quality.items()
    }
    (workdir / "quality.json").write_text(json.dumps(quality, indent=2) + "\n", "utf-8")
    trees = {rid: tree for rid, tree in build.pgtrees.items()}
    (workdir / "pgtrees.json").write_text(json.dumps(trees, indent=2) + "\n", "utf-8")
    (workdir / "splits.json").write_text(
        json.dumps(manifest.to_record(), indent=2) + "\n", "utf-8"
    )
    with (workdir / "skips.jsonl").open("w", encoding="utf-8") as fh:
        for skip in build.skips:
            fh.write(json.dumps(skip, ensure_ascii=False) + "\n")
    # Rejected drafts go out for manual review rather than silently vanishing.
    with (workdir / "review_rejected.jsonl").open("w", encoding="utf-8") as fh:
        for record_id, report in build.quality.items():
            if report.overall_pass:
                continue
            fh.write(
                json.dumps(
                    {
                        "record_id": record_id,
                        "failures": [
                            {"question_id": i.question_id, "reason": i.reason}
                            for i in report.items
                            if not i.passed
                        ],
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
