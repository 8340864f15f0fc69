"""Dataset construction: synthesize inventor drafts from patent records,
gate them through the per-question quality review, collect guideline trees
from descriptions, cut seeded splits, and export training pairs.

Records come in as structured JSON files; nothing here redistributes source
data. Every skip (bad record, empty answer, failed gate, unparseable tree)
is logged with a reason so a build is auditable end to end.

No inventor answer reads another, and each reviewer verdict reads only its
own question's answer. So a record's five inventor calls and five reviewer
calls go out as one agents.run_tasks fan-out, in which review q starts as
soon as answer q lands; the build is the same at any width.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from .agents import AgentRuntime, run_tasks
from .core import (
    CANONICAL_QUESTIONS,
    COMPONENT_ROLES,
    SECTION_NAMES,
    ConfigError,
    Draft,
    PatentDoc,
    draft_to_record,
    is_file_name,
    jsonl_text,
    load_json,
    make_dir,
    make_draft,
    patent_to_text,
    read_input,
    remove_stale,
    render_draft,
    render_fields,
    write_files,
)
from .gateway import GatewayError
from .tags import TagError, extract_sections, extract_tag, render_sections

SCHEMA_VERSION_SFT = "sft-pairs-v1"

# D2T, D2A, D2B, D2S, D2C: a short component, named by its initial.
_COMPONENT_KIND_FIELDS = {f"D2{name[0].upper()}": name for name in COMPONENT_ROLES}
SFT_KINDS = (*_COMPONENT_KIND_FIELDS, "D2W", "D2P_full")

DEFAULT_SPLIT_PROPORTIONS = (1500, 133, 300)
SPLIT_NAMES = ("train", "valid", "test")


class DatakitError(ConfigError):
    pass


class InsufficientRecordsError(DatakitError):
    def __init__(self, needed: int, available: int):
        super().__init__(f"split sizes need {needed} records but only {available} accepted")


class RecordSkipped(Exception):
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
    return render_fields({name: rec.section(name) for name in SECTION_NAMES})


def load_field_map(path: Path | str) -> dict:
    """A --field-map file: a JSON object whose keys are canonical fields
    (record_id, decision_label or a section name) and whose values are
    strings, the source records' key for each. Anything else is a
    ConfigError naming the file and, for a bad key or value, the key."""
    field_map = load_json(path, "field map")
    if not isinstance(field_map, dict):
        raise DatakitError(f"field map {path} must be a JSON object of strings")
    fields = ("record_id", "decision_label", *SECTION_NAMES)
    for key, value in field_map.items():
        if key not in fields:
            raise DatakitError(f"field map {path}: {key!r} names no field; expected one of "
                               f"{list(fields)}")
        if not isinstance(value, str):
            raise DatakitError(f"field map {path}: {key!r} must map to a string, got {value!r}")
    return field_map


def _record_from_raw(raw: dict, field_map: dict, fallback_id: str, where: str) -> PatentRecord:
    """The record in raw, read from where. A field that is absent or null
    takes its default, and an array or an object is a DatakitError naming
    where and the field; any other value is read as its text."""

    def value(name, default=""):
        key = field_map.get(name, name)
        found = raw.get(key)
        if isinstance(found, (list, dict)):
            kind = "an array" if isinstance(found, list) else "an object"
            raise DatakitError(f"{where}: field {key!r} is {kind}; expected text")
        return default if found is None else str(found)

    return PatentRecord(
        record_id=value("record_id", fallback_id),
        decision_label=value("decision_label"),
        **{name: value(name) for name in SECTION_NAMES},
    )


def load_records(path: Path | str, accept_label: str = "ACCEPTED", field_map: dict | None = None):
    """Read records from a directory of .json files or one .jsonl file.
    field_map maps a canonical field to the source records' key for it; a
    field it omits keeps its own name.

    Returns (records, skips); only records with the accept label and all six
    sections non-empty are kept. A record_id that is not a file name (it
    names the record's draft file) is a DatakitError, and so are two records
    with one record_id, naming both.
    """
    field_map = field_map or {}
    path = Path(path)
    # (fallback record id, where the record is, its JSON text)
    sources: list[tuple[str, str, str]] = []
    if path.is_dir():
        for file in sorted(path.glob("*.json")):
            sources.append((file.stem, str(file), read_input(file, "record")))
    elif path.suffix == ".jsonl":
        for i, line in enumerate(read_input(path, "records file").splitlines()):
            if line.strip():
                sources.append((f"line{i + 1}", f"{path} line {i + 1}", line))
    else:
        raise DatakitError(f"records path must be a directory or .jsonl file: {path}")

    records: list[PatentRecord] = []
    skips: list[dict] = []
    seen: dict[str, str] = {}  # record_id -> where it was read
    for fallback_id, where, text in sources:
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise DatakitError(f"{where}: {exc}") from None
        if not isinstance(raw, dict):
            raise DatakitError(f"{where}: record is not a JSON object")
        rec = _record_from_raw(raw, field_map, fallback_id, where)
        if not is_file_name(rec.record_id):
            raise DatakitError(f"{where}: record_id {rec.record_id!r} is not a file name")
        if rec.record_id in seen:
            raise DatakitError(f"{where}: record_id {rec.record_id!r} is also the id of "
                               f"{seen[rec.record_id]}")
        seen[rec.record_id] = where
        if rec.decision_label != accept_label:
            skips.append(
                {"record_id": rec.record_id, "stage": "ingest",
                 "reason": f"decision label {rec.decision_label!r} != {accept_label!r}"}
            )
            continue
        empty = [name for name in SECTION_NAMES if not rec.section(name).strip()]
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

    # build_dataset runs both stages as one fan-out, draft_and_review. Each
    # stage on its own stays a method, as perfbench's tracer times it by name.

    def synthesize_draft(self, rec: PatentRecord) -> Draft:
        """Five inventor-simulation calls, one per canonical question."""
        record_text = render_record(rec)
        answers = run_tasks(self.runtime, [partial(self._answer, rec.record_id, record_text, qid)
                                           for qid in CANONICAL_QUESTIONS])
        return make_draft(answers, source_id=rec.record_id)

    def review_draft_quality(self, draft: Draft) -> QualityReport:
        """One reviewer call per answer; an unparseable verdict fails its
        question, a gateway error skips the record."""
        items = run_tasks(self.runtime, [partial(self._review, draft.source_id, qa.question_id,
                                                 qa.answer_text) for qa in draft.qa])
        return QualityReport(items=tuple(items))

    def draft_and_review(self, rec: PatentRecord, drafts: dict[str, Draft]) -> QualityReport:
        """synthesize_draft, then review_draft_quality, as one fan-out of ten
        calls in which review q starts as soon as answer q lands. Every
        answer comes before every review in task order, so a reviewer error
        skips no answer: the draft still goes into drafts, and an inventor
        error is the one raised."""
        record_text = render_record(rec)
        answers = {}

        def answer(qid: int, runtime: AgentRuntime) -> None:
            answers[qid] = self._answer(rec.record_id, record_text, qid, runtime)

        def review(qid: int, runtime: AgentRuntime) -> QualityItem:
            return self._review(rec.record_id, qid, answers[qid], runtime)

        n = len(CANONICAL_QUESTIONS)
        tasks = [partial(answer, qid) for qid in CANONICAL_QUESTIONS]
        tasks += [partial(review, qid) for qid in CANONICAL_QUESTIONS]
        try:
            results = run_tasks(self.runtime, tasks, after={n + i: (i,) for i in range(n)})
        finally:
            if len(answers) == n:
                drafts[rec.record_id] = make_draft(answers, source_id=rec.record_id)
        return QualityReport(items=tuple(results[n:]))

    # The per-question tasks, shared by the methods above.

    def _answer(self, record_id: str, record_text: str, qid: int, runtime: AgentRuntime) -> str:
        try:
            text = runtime.ask(
                "inventor", f"inventor_q{qid}", {"record": record_text}, "inventor", str.strip
            )
        except GatewayError as exc:
            raise RecordSkipped(record_id, "draft", f"q{qid}: {exc}") from exc
        if not text:
            raise RecordSkipped(record_id, "draft", f"q{qid}: empty answer")
        return text

    def _review(self, source_id: str, qid: int, answer: str, runtime: AgentRuntime) -> QualityItem:
        template = reviewer_template_for(qid, self.corrected_reviewer_mapping)

        def parse(content: str) -> QualityItem:
            result = extract_tag(content, "Result")
            if result not in ("Pass", "Fail"):
                raise TagError(f"verdict text {result!r}")
            if result == "Fail":
                reason = extract_tag(content, "Reason")
                if not reason:
                    raise TagError("empty reason")
                return QualityItem(qid, "Fail", reason)
            return QualityItem(qid, "Pass", "")

        reminder = (
            "Your previous response did not follow the required format. Respond again "
            "with <Result> Pass </Result> or <Result> Fail </Result>, plus a "
            "<Reason> ... </Reason> when the result is Fail."
        )
        try:
            return runtime.ask(
                "quality", template, {"answer": answer}, "draft_quality", parse, reminder
            )
        except TagError:
            return QualityItem(qid, "Fail", "unparseable verdict")
        except GatewayError as exc:
            raise RecordSkipped(source_id, "quality_gate", f"q{qid}: {exc}") from exc

    def collect_pgtree(self, description: str) -> list[tuple[int, str]]:
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
            report = builder.draft_and_review(rec, build.drafts)
        except RecordSkipped as skip:
            build.skips.append(
                {"record_id": skip.record_id, "stage": skip.stage, "reason": skip.reason}
            )
            continue
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
            except (TagError, GatewayError) as exc:
                build.skips.append(
                    {"record_id": rec.record_id, "stage": "pgtree", "reason": str(exc)}
                )
    return build


# --- splits -------------------------------------------------------------------


@dataclass(frozen=True)
class SplitManifest:
    # splits.json is asdict(manifest), so the field order is its key order.
    seed: int
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]
    leftover: tuple[str, ...] = ()

    def split(self, name: str) -> tuple[str, ...]:
        return getattr(self, name)


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


def check_split_sizes(sizes) -> tuple[int, int, int]:
    """sizes as a (train, valid, test) tuple; DatakitError unless they are
    three integers none of which is negative."""
    sizes = tuple(sizes)
    if len(sizes) != 3 or not all(type(s) is int and s >= 0 for s in sizes):
        raise DatakitError(f"split sizes must be three non-negative integers, got {sizes}")
    return sizes


def make_splits(
    accepted_ids: list[str],
    sizes: tuple[int, int, int] | None = None,
    seed: int = 0,
) -> SplitManifest:
    ids = sorted(accepted_ids)
    sizes = proportional_sizes(len(ids)) if sizes is None else check_split_sizes(sizes)
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
    # D2P_full: the whole patent.
    return patent_to_text(PatentDoc(**{name: rec.section(name) for name in SECTION_NAMES}))


def export_sft(
    kind: str,
    manifest: SplitManifest,
    build: DatasetBuild,
    out_dir: Path | str,
) -> ExportReport:
    """Write one line-delimited pair file per split, out_dir/kind/<split>.jsonl.
    A kind not in SFT_KINDS is a DatakitError before anything is written.
    Records lacking the target (for example a failed tree collection under
    D2W) are skipped, logged and subtracted from the counts. Each line is
    written as it is made: a D2P_full line holds a whole patent, so a split
    held as one text would raise peak memory at paper scale."""
    if kind not in SFT_KINDS:
        raise DatakitError(f"unknown export kind {kind!r}; expected one of {SFT_KINDS}")
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


def write_build_artifacts(build: DatasetBuild, manifest: SplitManifest | None,
                          workdir: Path) -> None:
    """Write the drafts, quality reports, trees, skip log, rejected drafts
    and, unless it is None, the manifest into workdir (core.write_files). An
    earlier build's drafts and splits.json that this one does not write are
    removed; its exports are build_dataset_dir's to remove."""
    files = {f"drafts/{record_id}.json":
             json.dumps(draft_to_record(draft), ensure_ascii=False, indent=2) + "\n"
             for record_id, draft in build.drafts.items()}
    quality = {record_id: asdict(report)["items"] for record_id, report in build.quality.items()}
    files["quality.json"] = json.dumps(quality, indent=2) + "\n"
    files["pgtrees.json"] = json.dumps(build.pgtrees, indent=2) + "\n"
    if manifest is not None:
        files["splits.json"] = json.dumps(asdict(manifest), indent=2) + "\n"
    files["skips.jsonl"] = jsonl_text(build.skips)
    # Rejected drafts go out for manual review rather than silently vanishing.
    files["review_rejected.jsonl"] = jsonl_text(
        {"record_id": record_id,
         "failures": [{"question_id": i.question_id, "reason": i.reason}
                      for i in report.items if not i.passed]}
        for record_id, report in build.quality.items() if not report.overall_pass)
    write_files(workdir, files, ("drafts/*.json", "splits.json"))


def build_dataset_dir(gateways: dict, bindings: dict, records_path, out_dir, *, seed: int,
                      accept_label: str, sizes: str | None = None, kinds: str | None = None,
                      field_map_file=None, corrected_reviewer_mapping=False,
                      skip_trees=False) -> str:
    """build-dataset: the records at records_path through build_dataset,
    make_splits, write_build_artifacts (ingest skips first) and export_sft
    into out_dir. sizes is "train,valid,test"; kinds is comma-separated,
    every kind less D2W under skip_trees by default. A bad size or kind is a
    DatakitError before any call. When too few records pass the gate for the
    sizes, everything but the splits and exports is still written, and then
    InsufficientRecordsError is raised. An earlier build's drafts, splits and
    exports that this one does not write are removed. Returns the summary."""
    field_map = load_field_map(field_map_file) if field_map_file else {}
    records, ingest_skips = load_records(records_path, accept_label, field_map)
    if sizes:
        try:
            sizes = check_split_sizes(int(v) for v in sizes.split(","))
        except ValueError:
            raise DatakitError(f"split sizes must be three non-negative integers, got {sizes!r}")
        if sum(sizes) > len(records):
            # Only ingested records can pass the gate, so the splits cannot fill.
            raise DatakitError(f"split sizes need {sum(sizes)} records, more than the "
                               f"{len(records)} ingested from {records_path}")
    kinds = ([k for k in SFT_KINDS if not (skip_trees and k == "D2W")] if kinds is None
             else [k.strip() for k in kinds.split(",") if k.strip()])
    bad_kinds = [k for k in kinds if k not in SFT_KINDS]
    if bad_kinds:
        raise DatakitError(f"unknown export kinds {bad_kinds}; expected {list(SFT_KINDS)}")
    if skip_trees and "D2W" in kinds:
        raise DatakitError("D2W exports guideline trees, which --skip-trees does not collect")
    workdir = make_dir(out_dir)
    builder = DatasetBuilder(AgentRuntime(gateways, bindings), corrected_reviewer_mapping)
    build = build_dataset(builder, records, collect_trees=not skip_trees)
    build.skips = ingest_skips + build.skips
    short = None
    try:
        manifest = make_splits(build.accepted_ids, sizes=sizes or None, seed=seed)
    except InsufficientRecordsError as exc:
        # Keep the drafts and verdicts just paid for, and no exports.
        short, manifest, kinds = exc, None, []
    remove_stale(workdir, ("exports/*/*.jsonl",),
                 {f"exports/{kind}/{split}.jsonl" for kind in kinds for split in SPLIT_NAMES})
    write_build_artifacts(build, manifest, workdir)
    if short is not None:
        raise short
    lines = []
    for kind in kinds:
        report = export_sft(kind, manifest, build, workdir / "exports")
        lines.append(f"{kind}: " + ", ".join(f"{s}={report.counts[s]}" for s in SPLIT_NAMES)
                     + (f" ({len(report.skipped)} skipped)" if report.skipped else ""))
    lines.append(f"accepted {len(build.accepted_ids)}/{len(records)} records; splits "
                 + "/".join(str(len(manifest.split(s))) for s in SPLIT_NAMES)
                 + f"; artifacts in {workdir}")
    return "\n".join(lines)
