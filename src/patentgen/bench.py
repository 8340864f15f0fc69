"""Scoring and benchmark orchestration.

score_* functions are pure: text in, numbers out, every metric setting echoed
into the report header so numbers are self-describing. The bench runner wraps
the pipeline per draft, runs documents as tasks at the backends' width, is
resumable (completed documents are never recomputed), and keeps going past
per-document failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from .agents import run_tasks
from .core import (ConfigError, Draft, draft_to_record, is_file_name, json_text, load_draft,
                   load_json, make_dir, patent_to_text, remove_stale, write_files)
from .metrics import (
    BLEU_SPEC,
    IrrConfig,
    ROUGE_SPEC,
    STOPWORD_LIST_ID,
    VocabCounter,
    WhitespaceCounter,
    score_pair,
)
# Not called here; perfbench/tracing.py wraps these bench attributes by name.
from .metrics import bleu, irr_of_text, length_stats, rouge_f1  # noqa: F401
from .pipeline import PatentPipeline, PipelineAborted, PipelineConfig

SCHEMA_VERSION_REPORT = "bench-report-v1"


def irr_label(t: float) -> str:
    return "irr_t" + f"{t:g}".replace(".", "")


@dataclass(frozen=True)
class MetricConfig:
    thresholds: tuple[float, ...] = (0.2, 0.4)
    epsilon: float = IrrConfig.epsilon
    cap: float | None = None
    vocab: str | None = None  # a token vocabulary file; whitespace words when None
    irr: tuple[IrrConfig, ...] = field(init=False, repr=False, compare=False)  # per threshold
    counter: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check every setting and build the IRR configs and token counter once,
        so a bad one is a ConfigError before any document is generated or scored."""
        object.__setattr__(self, "irr", tuple(IrrConfig(t=t, epsilon=self.epsilon, cap=self.cap)
                                              for t in self.thresholds))
        counter = VocabCounter(self.vocab) if self.vocab else WhitespaceCounter()
        object.__setattr__(self, "counter", counter)
        labels = [irr_label(t) for t in self.thresholds]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                first = self.thresholds[labels.index(label)]
                raise ConfigError(f"thresholds {first} and {self.thresholds[i]} share the "
                                  f"report column {label}")

    def header(self) -> dict:
        return {
            "thresholds": list(self.thresholds),
            "epsilon": self.epsilon,
            "cap": self.cap,
            "stopword_list_id": STOPWORD_LIST_ID,
            "token_counter": self.counter.counter_id,
            "bleu": BLEU_SPEC,
            "rouge": ROUGE_SPEC,
        }


def score_document(doc_id: str, candidate: str, reference: str, cfg: MetricConfig) -> dict:
    scores = score_pair(candidate, reference, cfg.irr)
    row: dict = {
        "doc_id": doc_id,
        "failed": False,
        "bleu": scores.bleu,
        "rouge1": scores.rouge1,
        "rouge2": scores.rouge2,
        "rougel": scores.rougel,
        "tokens": cfg.counter.count(candidate),
    }
    for i, t in enumerate(cfg.thresholds):
        label = irr_label(t)
        if scores.irr is None:
            row[label] = None
            continue
        result = scores.irr[i]
        row[label] = result.value
        row[label + "_pair_sum"] = result.pair_sum
        row[label + "_total_pairs"] = result.total_pairs
    return row


@dataclass
class BenchReport:
    header: dict
    rows: list[dict] = field(default_factory=list)

    @property
    def scored_rows(self) -> list[dict]:
        return [r for r in self.rows if not r.get("failed")]

    def aggregates(self) -> dict:
        """Each metric's mean over the scored rows that have it as a number."""
        values: dict = {}
        for row in self.scored_rows:
            for key, value in row.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    values.setdefault(key, []).append(value)
        return {key: sum(found) / len(found) for key, found in values.items()}

    def to_record(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION_REPORT,
            "header": self.header,
            "rows": self.rows,
            "aggregates": self.aggregates(),
            "counts": {
                "scored": len(self.scored_rows),
                "failed": len(self.rows) - len(self.scored_rows),
            },
        }

    def table_columns(self) -> list[str]:
        cols = ["bleu", "rouge1", "rouge2", "rougel"]
        for t in self.header.get("thresholds", []):
            cols.append(irr_label(t))
        cols.append("tokens")
        return cols

    def to_table(self) -> str:
        cols = self.table_columns()
        lines = []
        lines.append("metric config: " + json.dumps(self.header, sort_keys=True))
        head = f"{'doc_id':<24}" + "".join(f"{c:>14}" for c in cols)
        lines.append(head)
        lines.append("-" * len(head))

        def fmt(value) -> str:
            if value is None:
                return f"{'-':>14}"
            if isinstance(value, float):
                return f"{value:>14.2f}"
            return f"{value!s:>14}"

        for row in self.rows:
            if row.get("failed"):
                lines.append(f"{row['doc_id']:<24}" + f"{'FAILED':>14}" + f" {row.get('error', '')}")
                continue
            lines.append(f"{row['doc_id']:<24}" + "".join(fmt(row.get(c)) for c in cols))
        lines.append("-" * len(head))
        aggregates = self.aggregates()
        lines.append(f"{'mean':<24}" + "".join(fmt(aggregates.get(c)) for c in cols))
        counts = self.to_record()["counts"]
        lines.append(f"scored {counts['scored']} document(s), {counts['failed']} failed")
        return "\n".join(lines) + "\n"

    def save(self, out_dir: Path | str) -> None:
        write_files(out_dir, {"report.json": json_text(self.to_record()),
                              "report.txt": self.to_table()})


def report_from_record(record: dict) -> BenchReport:
    """A saved report.json as a BenchReport. A ConfigError unless it is an
    object whose header is an object, with thresholds (if any) a list of
    numbers, and whose rows are a list of objects with a string doc_id."""
    if not isinstance(record, dict):
        raise ConfigError("a report must be a JSON object")
    header, rows = record.get("header"), record.get("rows")
    if not isinstance(header, dict):
        raise ConfigError(f"report header must be a JSON object, got {header!r}")
    thresholds = header.get("thresholds", [])
    if not isinstance(thresholds, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in thresholds):
        raise ConfigError(f"report header thresholds must be a list of numbers, "
                          f"got {thresholds!r}")
    if not isinstance(rows, list) or not all(
            isinstance(row, dict) and isinstance(row.get("doc_id"), str) for row in rows):
        raise ConfigError("report rows must be a list of objects with a string doc_id")
    return BenchReport(header=header, rows=rows)


def score_pairs(pairs: dict[str, tuple[str, str]], cfg: MetricConfig) -> BenchReport:
    report = BenchReport(header=cfg.header())
    for doc_id in sorted(pairs):
        candidate, reference = pairs[doc_id]
        report.rows.append(score_document(doc_id, candidate, reference, cfg))
    return report


def _doc_texts(directory: Path) -> dict[str, str]:
    if not directory.is_dir():
        raise ConfigError(f"{directory} is not a directory")
    texts = {}
    for path in sorted(directory.glob("*.txt")):
        try:
            texts[path.stem] = path.read_text("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
    return texts


def score_directories(
    generated_dir: Path | str, reference_dir: Path | str, cfg: MetricConfig
) -> BenchReport:
    """Score aligned documents by doc_id (file stem). Pure: no network."""
    generated = _doc_texts(Path(generated_dir))
    references = _doc_texts(Path(reference_dir))
    missing = {"no reference for": sorted(set(generated) - set(references)),
               "no generated doc for": sorted(set(references) - set(generated))}
    if any(missing.values()):
        raise ConfigError("; ".join(f"{what}: {ids}" for what, ids in missing.items() if ids))
    return score_pairs(
        {doc_id: (generated[doc_id], references[doc_id]) for doc_id in generated}, cfg
    )


def _check_manifest(manifest: dict) -> list[dict]:
    """The manifest's entries. ConfigError unless each is an object whose doc_id,
    which names its run dir and generated file, is a file name used once."""
    docs = manifest.get("docs") if isinstance(manifest, dict) else None
    if not docs or not isinstance(docs, list):
        raise ConfigError("manifest lists no documents")
    seen: set[str] = set()
    for i, entry in enumerate(docs):
        doc_id = entry.get("doc_id") if isinstance(entry, dict) else None
        if not is_file_name(doc_id):
            raise ConfigError(f"manifest entry {i} needs a doc_id that is a file name: {entry!r}")
        if doc_id in seen:
            raise ConfigError(f"manifest entry {i}: duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
    return docs


def _manifest_file(entry: dict, key: str) -> Path:
    path = entry.get(key)
    if not isinstance(path, str):
        raise ConfigError(f"manifest entry {entry['doc_id']!r} has no {key!r}: expected a path "
                          f"string, got {path!r}")
    return Path(path)


def _reusable(run_dir: Path, config_record: dict, draft: Draft) -> bool:
    """Whether run_dir holds a complete document made from draft under
    config_record."""
    try:
        status = load_json(run_dir / "status.json")
        complete = isinstance(status, dict) and status.get("status") == "complete"
        return (complete and load_json(run_dir / "config.json") == config_record
                and load_json(run_dir / "draft.json") == draft_to_record(draft))
    except ConfigError:
        return False


def run_bench(manifest: dict, gateways: dict, bindings: dict, pipeline_cfg: PipelineConfig,
              metric_cfg: MetricConfig, out: Path, resume: bool = True) -> BenchReport:
    """Bench each manifest document and save the report, its rows in manifest
    order, in out. Each document is one task of a run_tasks call, so as many
    run at once as the backends' width allows: one at a time, in manifest
    order, on a mock. A task reads the document's draft and reference,
    generates it under out/runs (with resume, a complete run dir made from
    the draft under pipeline_cfg is reused), writes out/generated/<doc_id>.txt
    and scores it. A document whose draft or reference cannot be used makes
    no model call. A document that fails is a failed row, and no generated
    file is left for it, nor for a document not in the manifest."""
    docs = _check_manifest(manifest)
    remove_stale(out, ("generated/*.txt",), {f"generated/{entry['doc_id']}.txt" for entry in docs})
    generated_dir = make_dir(out / "generated")
    config_record = pipeline_cfg.to_record()

    def run_one(entry: dict, runtime: PatentPipeline) -> dict:
        """entry's report row."""
        doc_id = entry["doc_id"]
        run_dir = out / "runs" / doc_id
        generated_path = generated_dir / f"{doc_id}.txt"
        try:
            draft = load_draft(_manifest_file(entry, "draft_file"))
            try:
                reference = _manifest_file(entry, "reference_file").read_text("utf-8")
            except (ConfigError, OSError, ValueError) as exc:
                raise ConfigError(f"cannot read reference: {exc}") from exc
            if not (resume and generated_path.exists()
                    and _reusable(run_dir, config_record, draft)):
                generated_path.unlink(missing_ok=True)
                doc = replace(runtime, run_dir=run_dir).run(draft, pipeline_cfg)
                generated_path.write_text(patent_to_text(doc, headers=False), "utf-8")
            candidate = generated_path.read_text("utf-8")
        except (ConfigError, PipelineAborted, OSError, UnicodeDecodeError) as exc:
            if generated_path.is_file():
                generated_path.unlink()
            return {"doc_id": doc_id, "failed": True, "error": str(exc)}
        return score_document(doc_id, candidate, reference, metric_cfg)

    rows = run_tasks(PatentPipeline(gateways, bindings), [partial(run_one, entry) for entry in docs])
    report = BenchReport(header=metric_cfg.header(), rows=rows)
    report.save(out)
    return report
