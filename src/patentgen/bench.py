"""Scoring and benchmark orchestration.

score_* functions are pure: text in, numbers out, every metric setting echoed
into the report header so numbers are self-describing. The bench runner wraps
the pipeline per draft, runs documents as tasks at the backends' width, is
resumable (completed documents are never recomputed), and keeps going past
per-document failures.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .agents import AgentRuntime, run_tasks
from .core import ConfigError, CoreError, load_draft, load_json, patent_to_text
from .metrics import (
    BLEU_SPEC,
    IrrConfig,
    MetricsError,
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


class AlignmentError(Exception):
    def __init__(self, missing_refs: list[str], missing_gens: list[str]):
        self.missing_refs = missing_refs
        self.missing_gens = missing_gens
        parts = []
        if missing_refs:
            parts.append(f"no reference for: {sorted(missing_refs)}")
        if missing_gens:
            parts.append(f"no generated doc for: {sorted(missing_gens)}")
        super().__init__("; ".join(parts))


def irr_label(t: float) -> str:
    return "irr_t" + f"{t:g}".replace(".", "")


@dataclass(frozen=True)
class MetricConfig:
    thresholds: tuple[float, ...] = (0.2, 0.4)
    epsilon: float = 1e-6
    cap: float | None = None
    vocab: str | None = None  # a token vocabulary file; whitespace words when None
    counter: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check every setting and build the token counter once, so a bad one
        is a ConfigError before any document is generated or scored."""
        try:
            for t in self.thresholds:
                IrrConfig(t=t, epsilon=self.epsilon, cap=self.cap)
            counter = VocabCounter(self.vocab) if self.vocab else WhitespaceCounter()
            object.__setattr__(self, "counter", counter)
        except MetricsError as exc:
            raise ConfigError(str(exc)) from exc
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
    scores = score_pair(candidate, reference, cfg.thresholds, cfg.epsilon, cfg.cap)
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
        rows = self.scored_rows
        if not rows:
            return {}
        keys = [
            k
            for k, v in rows[0].items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        means: dict = {}
        for key in keys:
            values = [r[key] for r in rows if isinstance(r.get(key), (int, float))]
            if values:
                means[key] = sum(values) / len(values)
        return means

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
            return f"{value:>14}"

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
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(
            json.dumps(self.to_record(), indent=2, sort_keys=True) + "\n", "utf-8"
        )
        (out_dir / "report.txt").write_text(self.to_table(), "utf-8")


def report_from_record(record: dict) -> BenchReport:
    return BenchReport(header=record["header"], rows=record["rows"])


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
    return texts


def score_directories(
    generated_dir: Path | str, reference_dir: Path | str, cfg: MetricConfig
) -> BenchReport:
    """Score aligned documents by doc_id (file stem). Pure: no network."""
    generated = _doc_texts(Path(generated_dir))
    references = _doc_texts(Path(reference_dir))
    missing_refs = sorted(set(generated) - set(references))
    missing_gens = sorted(set(references) - set(generated))
    if missing_refs or missing_gens:
        raise AlignmentError(missing_refs, missing_gens)
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
        file_name = isinstance(doc_id, str) and re.fullmatch(r"[^/\\\0]+", doc_id)
        if not file_name or doc_id in (".", ".."):
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


def _reusable(run_dir: Path, config_record: dict) -> bool:
    """Whether run_dir holds a complete document made under config_record."""
    try:
        complete = load_json(run_dir / "status.json").get("status") == "complete"
        return complete and load_json(run_dir / "config.json") == config_record
    except (OSError, ValueError):
        return False


def run_bench(manifest: dict, gateways: dict, bindings: dict, pipeline_cfg: PipelineConfig,
              metric_cfg: MetricConfig, out: Path, resume: bool = True) -> BenchReport:
    """Generate each manifest document under out/runs, score it and save the
    report in out. Documents are the tasks of one run_tasks call, so as many
    run at once as the backends' width allows: one at a time, in manifest
    order, on a mock. With resume, a complete run dir made under pipeline_cfg
    is reused. A document that fails is a failed row."""
    docs = _check_manifest(manifest)
    generated_dir = out / "generated"
    generated_dir.mkdir(parents=True, exist_ok=True)
    config_record = pipeline_cfg.to_record()

    def run_one(entry: dict, runtime: AgentRuntime) -> str | None:
        """Generate entry's document; its failure, or None."""
        doc_id = entry["doc_id"]
        run_dir = out / "runs" / doc_id
        generated_path = generated_dir / f"{doc_id}.txt"
        if resume and generated_path.exists() and _reusable(run_dir, config_record):
            return None
        try:
            draft = load_draft(_manifest_file(entry, "draft_file"))
            pipeline = PatentPipeline(runtime.gateways, bindings=runtime.bindings, run_dir=run_dir)
            doc = pipeline.run(draft, pipeline_cfg)
        except (ConfigError, CoreError, PipelineAborted) as exc:
            return str(exc)
        generated_path.write_text(patent_to_text(doc, headers=False), "utf-8")
        return None

    runtime = AgentRuntime(gateways=gateways, bindings=bindings)
    failures = run_tasks(runtime, [partial(run_one, entry) for entry in docs])
    report = BenchReport(header=metric_cfg.header())
    for entry, failure in zip(docs, failures):
        doc_id = entry["doc_id"]
        if failure is None:
            try:
                reference = _manifest_file(entry, "reference_file").read_text("utf-8")
            except (ConfigError, OSError, ValueError) as exc:
                failure = f"cannot read reference: {exc}"
            else:
                candidate = (generated_dir / f"{doc_id}.txt").read_text("utf-8")
                report.rows.append(score_document(doc_id, candidate, reference, metric_cfg))
                continue
        report.rows.append({"doc_id": doc_id, "failed": True, "error": failure})
    report.save(out)
    return report
