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

from .bench import MetricConfig, report_from_record, run_bench, score_directories
from .core import ConfigError, load_draft, load_json, patent_to_text
from .datakit import build_dataset_dir
from .gateway import GatewayError
from .pipeline import (PatentPipeline, PipelineAborted, ZERO_SHOT_MAX_TOKENS, load_run_config,
                       run_zero_shot)

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
    click.option("--t", default=",".join(map(str, MetricConfig.thresholds)), show_default=True,
                 help="repetition thresholds"),
    click.option("--epsilon", type=float, default=MetricConfig.epsilon, show_default=True),
    click.option("--cap", type=float, default=None),
    click.option("--vocab", type=click.Path(), help="token vocabulary for subword counts"),
)


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
@click.option("--max-tokens", type=click.IntRange(min=1), default=ZERO_SHOT_MAX_TOKENS,
              show_default=True)
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
def build_dataset_cmd(config_file, mock_playbook, **flags):
    """Build drafts + quality gate + splits + SFT exports from RECORDS_PATH."""
    gateways, bindings, _ = load_run_config(config_file, mock_playbook)
    click.echo(build_dataset_dir(gateways, bindings, **flags))
    sys.exit(EXIT_OK)


def _metric_config(t: str, epsilon: float, cap: float | None, vocab: str | None) -> MetricConfig:
    try:
        thresholds = tuple(float(v) for v in t.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {t!r}") from exc
    if not thresholds:
        raise ConfigError("threshold list is empty")
    return MetricConfig(thresholds=thresholds, epsilon=epsilon, cap=cap, vocab=vocab)


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
