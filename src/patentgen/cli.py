"""Command-line surface: generate, baseline, build-dataset, score, bench,
report.

Exit codes are a stable contract for CI: 0 complete, 1 invalid input (usage
errors included), 2 partial or degraded output (aborted or interrupted runs,
missing sections, failed bench documents).
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .agents import AgentRuntime
from .bench import MetricConfig, report_from_record, run_bench, score_directories
from .core import ConfigError, load_draft, load_json, make_dir, patent_to_text
from .datakit import (DatasetBuilder, SFT_KINDS, build_dataset, check_split_sizes, export_sft,
                      load_field_map, load_records, make_splits, write_build_artifacts)
from .gateway import GatewayError
from .pipeline import PatentPipeline, PipelineAborted, load_run_config, run_zero_shot

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARTIAL = 2


def _options(*decorators):
    """One decorator that applies a group of click options shared by commands."""
    return lambda fn: functools.reduce(lambda f, option: option(f), reversed(decorators), fn)


_run_config_options = _options(
    click.option("--config", "config_file", type=click.Path(), help="run config JSON"),
    click.option("--mock-playbook", type=click.Path(), help="scripted mock backend playbook"),
)
_backend_option = click.option("--backend", help="backend name to use as the default")
_metric_options = _options(
    click.option("--t", default="0.2,0.4", show_default=True, help="repetition thresholds"),
    click.option("--epsilon", type=float, default=1e-6, show_default=True),
    click.option("--cap", type=float, default=None),
    click.option("--vocab", type=click.Path(), help="token vocabulary for subword counts"),
)


def _parse_thresholds(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {raw!r}") from exc
    if not values:
        raise ConfigError("threshold list is empty")
    return values


def _parse_sizes(raw: str) -> tuple[int, int, int]:
    try:
        return check_split_sizes(int(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"split sizes must be three non-negative integers, got {raw!r}") from exc


def _exit_codes(method):
    """Invalid input exits 1: a ConfigError, raised wherever an input is read,
    is printed as `error: <message>`. Click exits 2 on a usage error, but
    here 2 means partial output, so a usage error exits 1 too. An interrupt
    exits 2: a run it cuts short has persisted its output as partial."""

    def wrapper(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INVALID
            raise
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID)
        except KeyboardInterrupt:
            click.echo("interrupted", err=True)
            sys.exit(EXIT_PARTIAL)
    return wrapper


class _Cli(click.Group):
    make_context = _exit_codes(click.Group.make_context)
    invoke = _exit_codes(click.Group.invoke)


@click.group(cls=_Cli)
def main():
    """Patent drafting pipeline, dataset builder and benchmark tools."""


@main.command()
@click.argument("draft_file", type=click.Path())
@_run_config_options
@_backend_option
@click.option("--out", "out_dir", type=click.Path(), help="run directory (default runs/<draft stem>)")
def generate(draft_file, config_file, mock_playbook, backend, out_dir):
    """Run the full pipeline on DRAFT_FILE and write a run directory."""
    draft = load_draft(Path(draft_file))
    gateways, bindings, cfg = load_run_config(config_file, mock_playbook, backend)
    run_dir = Path(out_dir) if out_dir else Path("runs") / Path(draft_file).stem
    try:
        doc = PatentPipeline(gateways, bindings, run_dir=run_dir).run(draft, cfg)
    except PipelineAborted as exc:
        click.echo(f"run aborted: {exc.__cause__}; partial artifacts in {run_dir}", err=True)
        sys.exit(EXIT_PARTIAL)
    click.echo(f"complete patent written to {run_dir} "
               f"({len(patent_to_text(doc).split())} words)")
    sys.exit(EXIT_OK)


@main.command()
@click.argument("draft_file", type=click.Path())
@_run_config_options
@_backend_option
@click.option("--out", "out_dir", type=click.Path())
@click.option("--max-tokens", type=click.IntRange(min=1), default=16384, show_default=True)
def baseline(draft_file, config_file, mock_playbook, backend, out_dir, max_tokens):
    """One-call zero-shot baseline: a single templated request, sections
    extracted where present, missing sections recorded."""
    draft = load_draft(Path(draft_file))
    gateways, _, _ = load_run_config(config_file, mock_playbook, backend)
    run_dir = Path(out_dir) if out_dir else Path("runs") / f"{Path(draft_file).stem}_baseline"
    # A --max-tokens over the backend's limit is a ConfigError before any call.
    try:
        result = run_zero_shot(gateways["default"], draft, max_tokens=max_tokens, run_dir=run_dir)
    except GatewayError as exc:
        click.echo(f"baseline call failed: {exc}", err=True)
        sys.exit(EXIT_PARTIAL)
    if result.complete:
        click.echo(f"baseline patent complete in {run_dir}")
        sys.exit(EXIT_OK)
    click.echo(f"baseline missing sections {list(result.missing)}; artifacts in {run_dir}", err=True)
    sys.exit(EXIT_PARTIAL)


@main.command("build-dataset")
@click.argument("records_path", type=click.Path())
@_run_config_options
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--sizes", default=None, help="train,valid,test sizes; default scales 1500/133/300")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--kinds", help="comma-separated export kinds; default: every kind, less "
                              "D2W under --skip-trees")
@click.option("--accept-label", default="ACCEPTED", show_default=True)
@click.option("--field-map", "field_map_file", type=click.Path(), help="JSON field mapping")
@click.option("--corrected-reviewer-mapping", is_flag=True,
              help="swap the q4/q5 reviewer prompts")
@click.option("--skip-trees", is_flag=True, help="skip guideline-tree collection")
def build_dataset_cmd(records_path, config_file, mock_playbook, out_dir, sizes, seed, kinds,
                      accept_label, field_map_file, corrected_reviewer_mapping, skip_trees):
    """Build drafts + quality gate + splits + SFT exports from RECORDS_PATH."""
    gateways, bindings, _ = load_run_config(config_file, mock_playbook)
    field_map = load_field_map(field_map_file) if field_map_file else {}
    records, ingest_skips = load_records(records_path, accept_label, field_map)
    size_tuple = _parse_sizes(sizes) if sizes else None
    if size_tuple and sum(size_tuple) > len(records):
        # Only ingested records can pass the gate, so the splits cannot fill.
        raise ConfigError(f"split sizes need {sum(size_tuple)} records, more than the "
                          f"{len(records)} ingested from {records_path}")
    if kinds is None:
        kind_list = [k for k in SFT_KINDS if not (skip_trees and k == "D2W")]
    else:
        kind_list = [k.strip() for k in kinds.split(",") if k.strip()]
    bad_kinds = [k for k in kind_list if k not in SFT_KINDS]
    if bad_kinds:
        raise ConfigError(f"unknown export kinds {bad_kinds}; expected {list(SFT_KINDS)}")
    if skip_trees and "D2W" in kind_list:
        raise ConfigError("D2W exports guideline trees, which --skip-trees does not collect")
    workdir = make_dir(out_dir)

    runtime = AgentRuntime(gateways=gateways, bindings=bindings)
    builder = DatasetBuilder(runtime, corrected_reviewer_mapping=corrected_reviewer_mapping)
    build = build_dataset(builder, records, collect_trees=not skip_trees)
    build.skips = ingest_skips + build.skips
    manifest = make_splits(build.accepted_ids, sizes=size_tuple, seed=seed)
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
    return MetricConfig(thresholds=_parse_thresholds(t), epsilon=epsilon, cap=cap, vocab=vocab)


@main.command()
@click.argument("generated_dir", type=click.Path())
@click.argument("reference_dir", type=click.Path())
@_metric_options
@click.option("--out", "out_dir", type=click.Path(), help="report directory")
def score(generated_dir, reference_dir, t, epsilon, cap, vocab, out_dir):
    """Score generated documents against references aligned by doc_id."""
    report = score_directories(generated_dir, reference_dir, _metric_config(t, epsilon, cap, vocab))
    if out_dir:
        report.save(Path(out_dir))
    click.echo(report.to_table())
    sys.exit(EXIT_OK)


@main.command("bench")
@click.argument("manifest_file", type=click.Path())
@_run_config_options
@_backend_option
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--resume/--no-resume", default=True, show_default=True)
@_metric_options
def bench_cmd(manifest_file, config_file, mock_playbook, backend, out_dir, resume,
              t, epsilon, cap, vocab):
    """Run the pipeline over a manifest of drafts, then score the results.

    Documents run as many at once as the backends' max_inflight allows.
    Documents completed under the same pipeline config are skipped on rerun;
    per-document failures are recorded and the bench continues.
    """
    manifest = load_json(manifest_file, "manifest")
    gateways, bindings, cfg = load_run_config(config_file, mock_playbook, backend)
    metric_cfg = _metric_config(t, epsilon, cap, vocab)
    report = run_bench(manifest, gateways, bindings, cfg, metric_cfg, Path(out_dir), resume)
    click.echo(report.to_table())
    sys.exit(EXIT_OK if len(report.scored_rows) == len(report.rows) else EXIT_PARTIAL)


@main.command()
@click.argument("report_file", type=click.Path())
def report(report_file):
    """Render a saved machine-readable report as a table."""
    loaded = report_from_record(load_json(report_file, "report"))
    click.echo(loaded.to_table())
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
