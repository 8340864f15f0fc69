"""Command-line surface: generate, baseline, build-dataset, score, bench,
report.

Exit codes are a stable contract for CI: 0 complete, 1 invalid input,
2 partial or degraded output (aborted runs, missing sections, failed bench
documents).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from .agents import default_bindings
from .bench import (
    AlignmentError,
    BenchReport,
    MetricConfig,
    report_from_record,
    score_directories,
    score_document,
)
from .core import (
    CoreError,
    DraftValidationError,
    assemble_patent,
    draft_from_record,
    dump_json,
    load_json,
    patent_to_record,
    patent_to_text,
)
from .datakit import (
    DatasetBuilder,
    DatakitError,
    IngestConfig,
    InsufficientRecordsError,
    SFT_KINDS,
    build_dataset,
    export_sft,
    load_records,
    make_splits,
    write_build_artifacts,
)
from .gateway import (
    BackendConfig,
    GatewayError,
    RequestError,
    ResponseCache,
    build_gateway,
)
from .pipeline import (
    PatentPipeline,
    PipelineAborted,
    PipelineConfig,
    PipelineError,
    run_zero_shot,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARTIAL = 2

_BINDING_KEYS = ("backend", "model_id", "temperature", "top_p", "max_tokens", "parse_retry_max")


class ConfigError(Exception):
    pass


def _load_run_config(config_file: str | None, mock_playbook: str | None) -> dict:
    config: dict = {}
    if config_file:
        try:
            config = load_json(Path(config_file))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {config_file}: {exc}") from exc
    if mock_playbook:
        config = dict(config)
        config["backends"] = {
            "default": {"kind": "mock", "playbook_path": str(mock_playbook)}
        }
    if not config.get("backends"):
        raise ConfigError("no backends configured; pass --config or --mock-playbook")
    return config


def _build_parts(config: dict, backend: str | None, seed: int | None):
    """Run config -> (gateways, bindings, pipeline config)."""
    gateways = {}
    cache_dir = config.get("cache_dir")
    for name, record in config["backends"].items():
        try:
            gw = build_gateway(BackendConfig.from_record(name, record))
        except (RequestError, OSError, ValueError) as exc:
            raise ConfigError(f"backend {name!r}: {exc}") from exc
        if cache_dir:
            gw.cache = ResponseCache(Path(cache_dir) / name)
        gateways[name] = gw
    chosen = backend or ("default" if "default" in gateways else next(iter(gateways)))
    if chosen not in gateways:
        raise ConfigError(f"backend {chosen!r} not present in config")
    gateways.setdefault("default", gateways[chosen])

    bindings = default_bindings()
    for role, overrides in config.get("agents", {}).items():
        if role not in bindings:
            raise ConfigError(f"unknown agent role {role!r}; expected one of {list(bindings)}")
        unknown = set(overrides) - set(_BINDING_KEYS)
        if unknown:
            raise ConfigError(f"agent {role!r}: unknown keys {sorted(unknown)}")
        bindings[role] = dataclasses.replace(bindings[role], **overrides)

    try:
        pipeline_cfg = PipelineConfig.from_record(config.get("pipeline", {}))
    except (PipelineError, TypeError) as exc:
        raise ConfigError(f"bad pipeline config: {exc}") from exc
    if seed is not None:
        pipeline_cfg = dataclasses.replace(pipeline_cfg, seed=seed)
    return gateways, bindings, pipeline_cfg


def _load_draft(draft_file: str):
    try:
        return draft_from_record(load_json(Path(draft_file)))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read draft {draft_file}: {exc}") from exc


def _manifest_file(entry: dict, key: str) -> Path:
    try:
        return Path(entry[key])
    except KeyError:
        raise ConfigError(f"manifest entry {entry['doc_id']!r} has no {key!r}") from None


def _parse_thresholds(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {raw!r}") from exc
    if not values:
        raise ConfigError("threshold list is empty")
    return values


@click.group()
def main():
    """Patent drafting pipeline, dataset builder and benchmark tools."""


@main.command()
@click.argument("draft_file", type=click.Path())
@click.option("--config", "config_file", type=click.Path(), help="run config JSON")
@click.option("--mock-playbook", type=click.Path(), help="scripted mock backend playbook")
@click.option("--backend", help="backend name to use as the default")
@click.option("--out", "out_dir", type=click.Path(), help="run directory (default runs/<draft stem>)")
@click.option("--seed", type=int, default=None)
def generate(draft_file, config_file, mock_playbook, backend, out_dir, seed):
    """Run the full pipeline on DRAFT_FILE and write a run directory."""
    try:
        draft = _load_draft(draft_file)
        config = _load_run_config(config_file, mock_playbook)
        gateways, bindings, cfg = _build_parts(config, backend, seed)
    except (ConfigError, DraftValidationError, CoreError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)

    run_dir = Path(out_dir) if out_dir else Path("runs") / Path(draft_file).stem
    pipeline = PatentPipeline(gateways, bindings=bindings, run_dir=run_dir)
    try:
        doc = pipeline.run(draft, cfg)
    except PipelineAborted as exc:
        click.echo(f"run aborted: {exc.cause}; partial artifacts in {run_dir}", err=True)
        sys.exit(EXIT_PARTIAL)
    click.echo(f"complete patent written to {run_dir} "
               f"({len(patent_to_text(doc).split())} words)")
    sys.exit(EXIT_OK)


@main.command()
@click.argument("draft_file", type=click.Path())
@click.option("--config", "config_file", type=click.Path())
@click.option("--mock-playbook", type=click.Path())
@click.option("--backend", help="backend name to use as the default")
@click.option("--out", "out_dir", type=click.Path())
@click.option("--max-tokens", type=int, default=16384, show_default=True)
@click.option("--seed", type=int, default=None)
def baseline(draft_file, config_file, mock_playbook, backend, out_dir, max_tokens, seed):
    """One-call zero-shot baseline: a single templated request, sections
    extracted where present, missing sections recorded."""
    try:
        draft = _load_draft(draft_file)
        config = _load_run_config(config_file, mock_playbook)
        gateways, _, _ = _build_parts(config, backend, seed)
    except (ConfigError, DraftValidationError, CoreError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)

    run_dir = Path(out_dir) if out_dir else Path("runs") / f"{Path(draft_file).stem}_baseline"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_zero_shot(gateways["default"], draft, max_tokens=max_tokens)
    except GatewayError as exc:
        dump_json({"error": str(exc)}, run_dir / "parse_report.json")
        click.echo(f"baseline call failed: {exc}", err=True)
        sys.exit(EXIT_PARTIAL)

    (run_dir / "raw_response.txt").write_text(result.raw, "utf-8")
    dump_json(
        {"sections_found": sorted(result.sections), "missing": list(result.missing)},
        run_dir / "parse_report.json",
    )
    sections_dir = run_dir / "sections"
    sections_dir.mkdir(exist_ok=True)
    for name, text in result.sections.items():
        (sections_dir / f"{name}.txt").write_text(text + "\n", "utf-8")
    if result.complete:
        doc = assemble_patent(**result.sections)
        (run_dir / "patent.txt").write_text(patent_to_text(doc), "utf-8")
        dump_json(patent_to_record(doc), run_dir / "patent.json")
        click.echo(f"baseline patent complete in {run_dir}")
        sys.exit(EXIT_OK)
    click.echo(f"baseline missing sections {list(result.missing)}; artifacts in {run_dir}", err=True)
    sys.exit(EXIT_PARTIAL)


@main.command("build-dataset")
@click.argument("records_path", type=click.Path())
@click.option("--config", "config_file", type=click.Path())
@click.option("--mock-playbook", type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--sizes", default=None, help="train,valid,test sizes; default scales 1500/133/300")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--kinds", default=",".join(SFT_KINDS), show_default=True)
@click.option("--accept-label", default="ACCEPTED", show_default=True)
@click.option("--field-map", "field_map_file", type=click.Path(), help="JSON field mapping")
@click.option("--corrected-reviewer-mapping", is_flag=True,
              help="swap the q4/q5 reviewer prompts")
@click.option("--skip-trees", is_flag=True, help="skip guideline-tree collection")
def build_dataset_cmd(records_path, config_file, mock_playbook, out_dir, sizes, seed, kinds,
                      accept_label, field_map_file, corrected_reviewer_mapping, skip_trees):
    """Build drafts + quality gate + splits + SFT exports from RECORDS_PATH."""
    try:
        config = _load_run_config(config_file, mock_playbook)
        gateways, bindings, _ = _build_parts(config, None, seed)
        field_map = load_json(Path(field_map_file)) if field_map_file else {}
        ingest_cfg = IngestConfig(accept_label=accept_label, field_map=field_map)
        records, ingest_skips = load_records(records_path, ingest_cfg)
        size_tuple = None
        if sizes:
            parts = tuple(int(v) for v in sizes.split(","))
            if len(parts) != 3:
                raise ConfigError("--sizes needs exactly three integers")
            size_tuple = parts
        kind_list = [k.strip() for k in kinds.split(",") if k.strip()]
        bad_kinds = [k for k in kind_list if k not in SFT_KINDS]
        if bad_kinds:
            raise ConfigError(f"unknown export kinds {bad_kinds}; expected {list(SFT_KINDS)}")
    except (ConfigError, DatakitError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)

    from .agents import AgentRuntime

    runtime = AgentRuntime(gateways=gateways, bindings=bindings)
    builder = DatasetBuilder(runtime, corrected_reviewer_mapping=corrected_reviewer_mapping)
    build = build_dataset(builder, records, collect_trees=not skip_trees)
    build.skips = ingest_skips + build.skips
    try:
        manifest = make_splits(build.accepted_ids, sizes=size_tuple, seed=seed)
    except InsufficientRecordsError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)

    workdir = Path(out_dir)
    workdir.mkdir(parents=True, exist_ok=True)
    write_build_artifacts(build, manifest, workdir)
    for kind in kind_list:
        report = export_sft(kind, manifest, build, workdir / "exports")
        click.echo(
            f"{kind}: " + ", ".join(f"{s}={report.counts[s]}" for s in ("train", "valid", "test"))
            + (f" ({len(report.skipped)} skipped)" if report.skipped else "")
        )
    click.echo(
        f"accepted {len(build.accepted_ids)}/{len(records)} records; "
        f"splits {len(manifest.train)}/{len(manifest.valid)}/{len(manifest.test)}; "
        f"artifacts in {workdir}"
    )
    sys.exit(EXIT_OK)


def _metric_config(t: str, epsilon: float, cap: float | None, vocab: str | None) -> MetricConfig:
    counter_config = {"kind": "vocab", "path": vocab} if vocab else None
    return MetricConfig(
        thresholds=_parse_thresholds(t), epsilon=epsilon, cap=cap, counter_config=counter_config
    )


@main.command()
@click.argument("generated_dir", type=click.Path())
@click.argument("reference_dir", type=click.Path())
@click.option("--t", default="0.2,0.4", show_default=True, help="repetition thresholds")
@click.option("--epsilon", type=float, default=1e-6, show_default=True)
@click.option("--cap", type=float, default=None)
@click.option("--vocab", type=click.Path(), help="token vocabulary for subword counts")
@click.option("--out", "out_dir", type=click.Path(), help="report directory")
def score(generated_dir, reference_dir, t, epsilon, cap, vocab, out_dir):
    """Score generated documents against references aligned by doc_id."""
    try:
        cfg = _metric_config(t, epsilon, cap, vocab)
        report = score_directories(generated_dir, reference_dir, cfg)
    except (ConfigError, AlignmentError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    if out_dir:
        report.save(Path(out_dir))
    click.echo(report.to_table())
    sys.exit(EXIT_OK)


@main.command("bench")
@click.argument("manifest_file", type=click.Path())
@click.option("--config", "config_file", type=click.Path())
@click.option("--mock-playbook", type=click.Path())
@click.option("--backend", help="backend name to use as the default")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--resume/--no-resume", default=True, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--t", default="0.2,0.4", show_default=True)
@click.option("--epsilon", type=float, default=1e-6, show_default=True)
@click.option("--cap", type=float, default=None)
@click.option("--vocab", type=click.Path())
def bench_cmd(manifest_file, config_file, mock_playbook, backend, out_dir, resume, jobs, seed,
              t, epsilon, cap, vocab):
    """Run the pipeline over a manifest of drafts, then score the results.

    Completed documents are skipped on rerun; per-document failures are
    recorded and the bench continues.
    """
    try:
        manifest = load_json(Path(manifest_file))
        docs = manifest["docs"]
        if not docs:
            raise ConfigError("manifest lists no documents")
        config = _load_run_config(config_file, mock_playbook)
        gateways, bindings, pipeline_cfg = _build_parts(config, backend, seed)
        metric_cfg = _metric_config(t, epsilon, cap, vocab)
    except (ConfigError, KeyError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)

    out = Path(out_dir)
    generated_dir = out / "generated"
    generated_dir.mkdir(parents=True, exist_ok=True)
    failures: dict[str, str] = {}

    def run_one(entry: dict) -> None:
        doc_id = entry["doc_id"]
        run_dir = out / "runs" / doc_id
        generated_path = generated_dir / f"{doc_id}.txt"
        status_path = run_dir / "status.json"
        if resume and generated_path.exists() and status_path.exists():
            if load_json(status_path).get("status") == "complete":
                return
        try:
            draft = _load_draft(_manifest_file(entry, "draft_file"))
            pipeline = PatentPipeline(gateways, bindings=bindings, run_dir=run_dir)
            doc = pipeline.run(draft, pipeline_cfg)
        except (ConfigError, CoreError, PipelineAborted) as exc:
            failures[doc_id] = str(exc)
            return
        generated_path.write_text(patent_to_text(doc, headers=False), "utf-8")

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run_one, docs))
    else:
        for entry in docs:
            run_one(entry)

    report = BenchReport(header=metric_cfg.header())
    for entry in docs:
        doc_id = entry["doc_id"]
        generated_path = generated_dir / f"{doc_id}.txt"
        if doc_id not in failures and generated_path.exists():
            try:
                reference = _manifest_file(entry, "reference_file").read_text("utf-8")
            except (ConfigError, OSError, ValueError) as exc:
                failures[doc_id] = f"cannot read reference: {exc}"
            else:
                report.rows.append(
                    score_document(doc_id, generated_path.read_text("utf-8"), reference, metric_cfg)
                )
                continue
        report.rows.append(
            {"doc_id": doc_id, "failed": True, "error": failures.get(doc_id, "not generated")}
        )
    report.save(out)
    click.echo(report.to_table())
    sys.exit(EXIT_OK if not failures else EXIT_PARTIAL)


@main.command()
@click.argument("report_file", type=click.Path())
def report(report_file):
    """Render a saved machine-readable report as a table."""
    try:
        record = load_json(Path(report_file))
        loaded = report_from_record(record)
    except (OSError, ValueError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    click.echo(loaded.to_table())
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
