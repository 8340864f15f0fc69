#!/usr/bin/env python3
"""Benchmark for patentgen: four seeded offline workloads.

    python3 perfbench/run.py --workload generate_cold --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ./src. Model
calls go over real HTTP, through build_gateway(kind="http"), to the fake
chat-completions endpoint in perfbench/endpoint.py, which runs as its own
process on 127.0.0.1. The load is a closed loop with one client: one item
at a time, as `patentgen generate` and `bench --jobs 1` run.

Workloads (the inputs and knobs are in spec.json):

  generate_cold  PatentPipeline.run per draft; fresh response cache per pass
  score_long     bench.score_pairs per (candidate, reference) pair
  build_dataset  datakit.build_dataset per record, then splits and exports

A run repeats whole passes over the workload's inputs until the next pass
would end after --seconds. Every pass must produce the same output digest,
and where pins.json has a pin for the seed it must match the pin.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes, reports the per-layer metrics from
the traced ones and the tracing overhead against the untraced ones, and
writes the spans to .perfbench_out/. Human-readable lines come first; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import AGENT_METHODS, LayerTotals, Patched, Tracer, union_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "spec.json").read_text("utf-8"))
PINS = HERE / "pins.json"
WORKLOADS = ("generate_cold", "score_long", "build_dataset")
MAX_SPANS_WRITTEN = 200_000


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_package():
    """Import patentgen from this checkout's src/, never from elsewhere."""
    if not (SRC / "patentgen" / "__init__.py").is_file():
        raise BenchError(f"no patentgen package under {SRC}")
    sys.path.insert(0, str(SRC))
    import patentgen

    if Path(patentgen.__file__).resolve().parent != (SRC / "patentgen").resolve():
        raise BenchError(f"imported patentgen from {patentgen.__file__}, not {SRC}")


# --- the endpoint process ------------------------------------------------------


class Endpoint:
    def __init__(self, seed: int, base_ms: float, per_token_ms: float, malformed_share: float):
        import requests

        self.base_s = base_ms / 1000.0
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"), "--seed", str(seed),
             "--base-ms", repr(base_ms), "--per-token-ms", repr(per_token_ms),
             "--malformed-share", repr(malformed_share)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise BenchError(f"fake endpoint did not start (said {line!r})")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.session = requests.Session()

    @staticmethod
    def from_spec(seed: int) -> "Endpoint":
        cfg = SPEC["endpoint"]
        return Endpoint(seed, cfg["base_ms"], cfg["per_completion_token_ms"],
                        cfg["malformed_share"])

    def drain(self) -> list[dict]:
        resp = self.session.get(self.url + "/log", timeout=30)
        resp.raise_for_status()
        return resp.json()["requests"]

    def ask(self, prompt: str) -> str:
        resp = self.session.post(
            self.url + "/chat/completions",
            json={"model": "fake-model", "messages": [{"role": "user", "content": prompt}]},
            timeout=30,
        )
        resp.raise_for_status()
        return resp.json()["choices"][0]["message"]["content"]

    def close(self) -> None:
        if getattr(self, "session", None) is not None:
            self.session.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdin.close()
        self.proc.stdout.close()


def endpoint_self_check(endpoint: Endpoint, prompts: list[str], seed: int) -> list[str]:
    """The same prompts sent again in shuffled order must get the same
    answers, and every request must be logged with sane times and tokens."""
    prompts = list(dict.fromkeys(prompts))
    first = {p: endpoint.ask(p) for p in prompts}
    order = prompts[:]
    random.Random(seed).shuffle(order)
    second = {p: endpoint.ask(p) for p in order}
    problems = [f"answer changed with order for prompt {p[:60]!r}"
                for p in prompts if first[p] != second[p]]
    log = endpoint.drain()
    if len(log) != 2 * len(prompts):
        problems.append(f"endpoint logged {len(log)} requests, expected {2 * len(prompts)}")
    for entry in log:
        if not (entry["arrival"] <= entry["finish"] and entry["handle_s"] >= endpoint.base_s
                and entry["prompt_tokens"] > 0 and entry["completion_tokens"] > 0):
            problems.append(f"bad endpoint log entry {entry}")
            break
    return problems


# --- per-item records ---------------------------------------------------------


@dataclass
class Item:
    item_id: str
    start: float
    end: float
    error: str | None = None
    requests: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class PassResult:
    items: list[Item]
    busy_s: float
    digest: str
    problems: list[str]


def critical_path(requests: list[dict]) -> int:
    """Longest chain of requests in which each starts after the previous ended."""
    reqs = sorted(requests, key=lambda r: r["arrival"])
    chain: list[int] = []
    for i, r in enumerate(reqs):
        chain.append(1 + max((chain[j] for j in range(i) if reqs[j]["finish"] <= r["arrival"]),
                             default=0))
    return max(chain, default=0)


def inflight_mean(requests: list[dict]) -> float:
    """Mean requests in flight at the endpoint while it had any."""
    busy = union_length([(r["arrival"], r["finish"]) for r in requests])
    return sum(r["handle_s"] for r in requests) / busy if busy > 0 else 0.0


def assign_requests(items: list[Item], requests: list[dict]) -> int:
    """File each endpoint request under the item whose window it arrived in;
    returns how many arrived outside every window."""
    stray = 0
    for r in requests:
        owner = next((it for it in items if it.start <= r["arrival"] <= it.end), None)
        if owner is None:
            stray += 1
        else:
            owner.requests.append(r)
    return stray


def uncached_requests(record) -> int:
    return sum(1 + e.retries for e in record.entries if not e.cached)


class Context:
    """What a pass needs: the run's seed, endpoint, gateway, registry, a
    scratch directory and, while a traced pass runs, the tracer."""

    def __init__(self, seed: int, endpoint: Endpoint | None, scratch: Path):
        from patentgen.gateway import BackendConfig, build_gateway
        from patentgen.prompts import PromptRegistry

        self.seed = seed
        self.endpoint = endpoint
        self.scratch = scratch
        self.registry = PromptRegistry()
        self.gateway = None
        if endpoint is not None:
            self.gateway = build_gateway(
                BackendConfig(kind="http", endpoint=endpoint.url, model_id="fake-model")
            )
        self.tracer = None
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{self._dirs:05d}-{name}"
        path.mkdir(parents=True)
        return path

    def begin(self, item_id: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_item(item_id)

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.end_item()


def timed(ctx: Context, item_id: str, fn) -> tuple[Item, object]:
    """Run fn() as one item; an exception marks the item failed."""
    ctx.begin(item_id)
    start = time.monotonic()
    result, error = None, None
    try:
        result = fn()
    except Exception as exc:  # one failed item must not end the run
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    end = time.monotonic()
    ctx.end()
    return Item(item_id, start, end, error), result


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# --- workloads -----------------------------------------------------------------


class Workload:
    pin_key: str
    uses_endpoint = True

    def self_check_prompts(self, ctx: Context) -> list[str]:
        """Prompts for the endpoint self-check."""
        return []

    def run_pass(self, ctx: Context, label: str) -> PassResult:
        raise NotImplementedError


class GenerateCold(Workload):
    """PatentPipeline.run per draft, default PipelineConfig, one run dir
    each; every pass starts from an empty response cache."""

    pin_key = "generate"

    def __init__(self, seed: int):
        from inputs import make_drafts
        from patentgen.core import make_draft

        self.inputs = make_drafts(seed)
        self.drafts = [make_draft(list(d.answers), source_id=d.doc_id) for d in self.inputs]

    def self_check_prompts(self, ctx: Context) -> list[str]:
        from patentgen.agents import COMPONENT_ROLES
        from patentgen.core import render_draft

        return [ctx.registry.render(f"{role}_writer", draft=render_draft(d))
                for d in self.drafts for role in COMPONENT_ROLES]

    def run_pass(self, ctx: Context, label: str) -> PassResult:
        from patentgen.core import patent_to_text
        from patentgen.gateway import ResponseCache
        from patentgen.pipeline import PatentPipeline, PipelineConfig

        cache_dir = ctx.fresh_dir("cache")
        ctx.gateway.cache = ResponseCache(cache_dir)
        pass_dir = ctx.fresh_dir(f"pass-{label}")
        cfg = PipelineConfig()
        items, docs = [], []
        for d_in, draft in zip(self.inputs, self.drafts):
            run_dir = pass_dir / d_in.doc_id

            def one():
                pipeline = PatentPipeline({"default": ctx.gateway}, registry=ctx.registry,
                                          run_dir=run_dir)
                return pipeline.run(draft, cfg)

            item, doc = timed(ctx, f"{label}:{d_in.doc_id}", one)
            items.append(item)
            docs.append(doc)
        problems = []
        stray = assign_requests(items, ctx.endpoint.drain())
        if stray:
            problems.append(f"{stray} endpoint requests arrived outside every item")
        h = hashlib.sha256()
        for d_in, item, doc in zip(self.inputs, items, docs):
            if item.error is None:
                item.error = self._check(d_in, item, doc, pass_dir / d_in.doc_id, cfg)
            if item.error is None:
                h.update(f"{d_in.doc_id}\n{patent_to_text(doc)}\n".encode("utf-8"))
        shutil.rmtree(pass_dir)
        shutil.rmtree(cache_dir)
        return PassResult(items, sum(it.seconds for it in items), h.hexdigest(), problems)

    @staticmethod
    def _check(d_in, item: Item, doc, run_dir: Path, cfg) -> str | None:
        from patentgen.core import SECTION_NAMES, load_json

        empty = [name for name in SECTION_NAMES if not doc.section(name).strip()]
        if empty:
            return f"empty sections {empty}"
        expected_calls = uncached_requests(doc.generation_meta)
        if len(item.requests) != expected_calls:
            return (f"endpoint saw {len(item.requests)} requests, generation_meta logs "
                    f"{expected_calls} uncached calls")
        hits = sum(e.cached for e in doc.generation_meta.entries)
        if hits:
            return f"{hits} calls hit the cache on a cold pass"
        if load_json(run_dir / "status.json")["status"] != "complete":
            return "run dir status is not complete"
        subs = sorted((run_dir / "subsections").glob("*.json"))
        want = {(i, j): c for i, section in enumerate(d_in.checks, start=1)
                for j, c in enumerate(section, start=1)}
        if len(subs) != len(want):
            return f"{len(subs)} subsections, expected {len(want)}"
        rounds = warned = 0
        for path in subs:
            sub = load_json(path)
            checks = want[tuple(sub["node"])]
            if (sub["rounds_used"] != min(checks, cfg.max_refine_rounds)
                    or sub["accepted_with_warning"] != (checks > cfg.max_refine_rounds)):
                return f"node {sub['node']}: {sub['rounds_used']} rounds for {checks} checks"
            rounds += sub["rounds_used"]
            warned += sub["accepted_with_warning"]
        files = [p for p in run_dir.rglob("*") if p.is_file()]
        item.facts.update(
            nodes=len(subs), refine_rounds=rounds, warned=warned,
            persist_files=len(files), persist_bytes=sum(p.stat().st_size for p in files),
            retries=sum(e.retries for e in doc.generation_meta.entries),
        )
        return None


class ScoreLong(Workload):
    """bench.score_pairs per pair at the CLI-default metric settings."""

    pin_key = "score_long"
    uses_endpoint = False

    def __init__(self, seed: int):
        from inputs import make_pairs

        self.pairs = make_pairs(seed)

    def run_pass(self, ctx: Context, label: str) -> PassResult:
        from patentgen import bench

        cfg = bench.MetricConfig()
        items = []
        h = hashlib.sha256()
        for pair in self.pairs:
            item, report = timed(
                ctx, f"{label}:{pair.doc_id}",
                lambda: bench.score_pairs({pair.doc_id: (pair.candidate, pair.reference)}, cfg),
            )
            if item.error is None:
                row = report.rows[0]
                item.error = self._check(row, pair, cfg)
                h.update(json.dumps(row, sort_keys=True).encode("utf-8") + b"\n")
            items.append(item)
        return PassResult(items, sum(it.seconds for it in items), h.hexdigest(), [])

    @staticmethod
    def _check(row: dict, pair, cfg) -> str | None:
        from patentgen.bench import irr_label

        if row.get("failed"):
            return "row marked failed"
        if not 0.0 < row["bleu"] <= 100.0:
            return f"bleu {row['bleu']} outside (0, 100]"
        for key in ("rouge1", "rouge2", "rougel"):
            if not 0.0 < row[key] <= 1.0:
                return f"{key} {row[key]} outside (0, 1]"
        if not row["rouge1"] >= row["rougel"]:
            return "rouge-l exceeds rouge-1"
        for t in cfg.thresholds:
            value = row.get(irr_label(t))
            if value is None or not value > 0.0:
                return f"irr at t={t} is {value}"
        if row["tokens"] != len(pair.candidate.split()):
            return f"token count {row['tokens']} != {len(pair.candidate.split())}"
        return None


class BuildDataset(Workload):
    """datakit.build_dataset per record, then make_splits, export_sft for
    every SFT kind and write_build_artifacts once per pass. No cache."""

    pin_key = "build_dataset"

    def __init__(self, seed: int):
        from inputs import make_records
        from patentgen.datakit import PatentRecord

        self.seed = seed
        self.inputs = make_records(seed)
        self.records = [PatentRecord(**r.fields) for r in self.inputs]

    def self_check_prompts(self, ctx: Context) -> list[str]:
        from patentgen.datakit import render_record

        return [ctx.registry.render(f"inventor_q{q}", record=render_record(rec))
                for rec in self.records for q in range(1, 6)]

    def run_pass(self, ctx: Context, label: str) -> PassResult:
        from patentgen import datakit
        from patentgen.agents import AgentRuntime
        from patentgen.core import new_run_record

        ctx.gateway.cache = None
        workdir = ctx.fresh_dir(f"pass-{label}")
        runtime = AgentRuntime(gateways={"default": ctx.gateway}, registry=ctx.registry)
        builder = datakit.DatasetBuilder(runtime)
        build = datakit.DatasetBuild()
        items, recorders = [], []
        for rec in self.records:
            runtime.recorder = new_run_record(model_id="fake-model")
            recorders.append(runtime.recorder)
            item, part = timed(ctx, f"{label}:{rec.record_id}",
                               lambda: datakit.build_dataset(builder, [rec]))
            items.append(item)
            if part is not None:
                build.records.update(part.records)
                build.drafts.update(part.drafts)
                build.quality.update(part.quality)
                build.pgtrees.update(part.pgtrees)
                build.accepted_ids.extend(part.accepted_ids)
                build.skips.extend(part.skips)

        def export():
            manifest = datakit.make_splits(build.accepted_ids, seed=self.seed)
            reports = [datakit.export_sft(kind, manifest, build, workdir / "exports")
                       for kind in datakit.SFT_KINDS]
            datakit.write_build_artifacts(build, manifest, workdir)
            return manifest, reports

        export_item, exported = timed(ctx, f"{label}:export", export)
        problems = []
        if export_item.error:
            problems.append(f"export failed: {export_item.error}")
        stray = assign_requests(items, ctx.endpoint.drain())
        if stray:
            problems.append(f"{stray} endpoint requests arrived outside every item")
        for rec_in, item, recorder in zip(self.inputs, items, recorders):
            if item.error is None:
                item.error = self._check(rec_in, item, recorder, build)
        if exported is not None:
            manifest, reports = exported
            placed = len(manifest.train) + len(manifest.valid) + len(manifest.test)
            for report in reports:
                if sum(report.counts.values()) != placed or report.skipped:
                    problems.append(f"export {report.kind}: {report.counts}, "
                                    f"{len(report.skipped)} skipped")
        digest = dir_digest(workdir)
        shutil.rmtree(workdir)
        busy = sum(it.seconds for it in items) + export_item.seconds
        return PassResult(items, busy, digest, problems)

    @staticmethod
    def _check(rec_in, item: Item, recorder, build) -> str | None:
        record_id = rec_in.fields["record_id"]
        expected_calls = uncached_requests(recorder)
        if len(item.requests) != expected_calls:
            return (f"endpoint saw {len(item.requests)} requests, run record logs "
                    f"{expected_calls} calls")
        accepted = record_id in build.accepted_ids
        if accepted == rec_in.gate_fail:
            return f"gate {'accepted' if accepted else 'rejected'} a record it should not"
        if accepted and record_id not in build.pgtrees:
            return "accepted record has no guideline tree"
        item.facts.update(accepted=accepted,
                          retries=sum(e.retries for e in recorder.entries))
        return None


def make_workload(name: str, seed: int) -> Workload:
    if name == "generate_cold":
        return GenerateCold(seed)
    if name == "score_long":
        return ScoreLong(seed)
    return BuildDataset(seed)


# --- measuring -------------------------------------------------------------------


def setup_once(ctx: Context) -> float:
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--src", str(SRC),
         "--endpoint", ctx.endpoint.url if ctx.endpoint else ""],
        capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise BenchError(f"set-up probe failed: {probe.stderr.strip()[-400:]}")
    return json.loads(probe.stdout.strip().splitlines()[-1])["seconds"]


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """(value, items beyond it) at a percentile, by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def load_pin(pin_key: str, seed: int) -> str | None:
    if not PINS.exists():
        return None
    return json.loads(PINS.read_text("utf-8")).get(pin_key, {}).get(str(seed))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = OUT / f"scratch-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    workload = make_workload(workload_name, seed)
    endpoint = Endpoint.from_spec(seed) if workload.uses_endpoint else None
    try:
        ctx = Context(seed, endpoint, scratch)
        problems = []
        if endpoint is not None:
            problems += endpoint_self_check(endpoint, workload.self_check_prompts(ctx), seed)
        setup_times = [setup_once(ctx) for _ in range(SPEC["setup_repeats"])]

        tracer = Tracer(MAX_SPANS_WRITTEN) if trace else None
        totals = LayerTotals()
        passes: list[tuple[bool, PassResult]] = []
        pass_seconds: list[float] = []
        started = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            label = f"p{len(passes)}"
            t0 = time.monotonic()
            if traced:
                ctx.tracer = tracer
                with Patched(tracer):
                    result = workload.run_pass(ctx, label)
                ctx.tracer = None
                totals.add(tracer.take())
            else:
                result = workload.run_pass(ctx, label)
            pass_seconds.append(time.monotonic() - t0)
            passes.append((traced, result))
            elapsed = time.monotonic() - started
            if trace and len(passes) < 2:
                continue
            if elapsed + statistics.mean(pass_seconds) > seconds:
                break
    finally:
        if endpoint is not None:
            endpoint.close()
        if scratch.exists():
            shutil.rmtree(scratch)

    digests = {r.digest for _, r in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree on the output digest: {sorted(digests)}")
    digest = passes[0][1].digest
    pin = load_pin(workload.pin_key, seed)
    if pin is not None and pin != digest:
        problems.append(f"output digest {digest[:16]} != pinned {pin[:16]} for seed {seed}")
    for _, r in passes:
        problems += r.problems
    all_items = [it for _, r in passes for it in r.items]
    failed = [it for it in all_items if it.error]

    report = {
        "workload": workload_name, "seed": seed, "trace": trace, "digest": digest,
        "pinned": pin is not None, "problems": problems,
        "failures": [f"{it.item_id}: {it.error}" for it in failed[:10]],
        "passes": len(passes), "attempted": len(all_items), "failed": len(failed),
        "setup_runs_s": setup_times,
    }
    untraced = [r for t, r in passes if not t]
    report["end_to_end"], report["tail"] = end_to_end(workload_name, untraced, setup_times)
    report["per_layer"] = per_layer(passes, totals)
    traced_items = sum(len(r.items) for t, r in passes if t)
    modules: dict[str, float] = {}
    for name, self_s in totals.self_time.items():
        if name != "item":
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + self_s / max(1, traced_items)
    report["module_self_s"] = modules
    if tracer is not None:
        path = OUT / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.write(path)
        report["spans_file"] = str(path.relative_to(ROOT))
        report["spans_written"] = len(tracer.kept)
    return report


def end_to_end(workload_name: str, passes: list[PassResult],
               setup_times: list[float]) -> tuple[dict, dict]:
    items = [it for r in passes for it in r.items if not it.error]
    times = [it.seconds for it in items]
    pct = SPEC["tail_percentile"][workload_name]
    tail, beyond = nearest_rank(times, pct) if times else (0.0, 0)
    busy = sum(r.busy_s for r in passes)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(items) / busy if busy else 0.0, "1/s"),
        "item_s.p50": (statistics.median(times) if times else 0.0, "s"),
        "item_s.tail": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"percentile": pct, "items": len(times), "beyond": beyond}


def per_layer(passes: list[tuple[bool, PassResult]], t) -> dict:
    """Per-item layer figures. Counts come from the first pass (they repeat
    exactly); times from the traced passes."""
    first = passes[0][1].items
    n_first = len(first)
    reqs = [r for it in first for r in it.requests]
    traced_items = [it for traced, r in passes if traced for it in r.items]
    untraced_items = [it for traced, r in passes if not traced for it in r.items]
    n = len(traced_items) or 1

    def per(value):
        return value / n

    def calls(name):
        return t.calls.get(name, 0)

    def facts(key):
        return sum(it.facts.get(key, 0) for it in first)

    send_s = t.total.get("gateway.send", 0.0)
    handle_s = sum(r["handle_s"] for it in traced_items for r in it.requests)
    nodes = facts("nodes")
    out = {
        "calls_per_item": (len(reqs) / n_first, "count"),
        "prompt_tokens_per_item": (sum(r["prompt_tokens"] for r in reqs) / n_first, "count"),
        "completion_tokens_per_item":
            (sum(r["completion_tokens"] for r in reqs) / n_first, "count"),
        "critical_path_calls":
            (sum(critical_path(it.requests) for it in first) / n_first, "count"),
        "endpoint_wait_share": (sum(r["handle_s"] for r in reqs)
                                / sum(it.seconds for it in first), "ratio"),
        "failed_ratio": (sum(1 for _, r in passes for it in r.items if it.error)
                         / max(1, sum(len(r.items) for _, r in passes)), "ratio"),
        "gateway.complete_self_s": (per(t.total.get("gateway.complete", 0.0) - send_s), "s"),
        "gateway.send_s": (per(send_s), "s"),
        "gateway.transport_overhead_s": (per(send_s - handle_s), "s"),
        "gateway.cache_get_s": (per(t.total.get("gateway.cache_get", 0.0)), "s"),
        "gateway.cache_put_s": (per(t.total.get("gateway.cache_put", 0.0)), "s"),
        "gateway.requests": (per(calls("gateway.send")), "count"),
        "gateway.retries": (facts("retries") / n_first, "count"),
        "gateway.inflight_mean": (statistics.mean(
            [inflight_mean(it.requests) for it in first if it.requests] or [0.0]), "count"),
    }
    for m in AGENT_METHODS:
        out[f"agents.{m}.calls"] = (per(calls(f"agents.{m}")), "count")
        out[f"agents.{m}.s"] = (per(t.total.get(f"agents.{m}", 0.0)), "s")
    out["agents.self_s"] = (per(sum(t.self_time.get(f"agents.{m}", 0.0)
                                    for m in AGENT_METHODS)), "s")
    out["agents.parse_retry_ratio"] = (
        t.parse_retries / t.parsed_calls if t.parsed_calls else 0.0, "ratio")
    out["prompts.render_calls"] = (per(calls("prompts.render")), "count")
    out["prompts.render_s"] = (per(t.total.get("prompts.render", 0.0)), "s")
    out["prompts.rendered_chars"] = (per(t.rendered_chars), "chars")
    out["tags.extract_calls"] = (per(calls("tags.extract")), "count")
    out["tags.extract_s"] = (per(t.total.get("tags.extract", 0.0)), "s")
    out["pipeline.self_s"] = (per(t.self_time.get("pipeline.run", 0.0)), "s")
    out["pipeline.nodes_per_patent"] = (nodes / n_first, "count")
    out["pipeline.refine_rounds_per_node"] = (facts("refine_rounds") / nodes if nodes else 0.0,
                                              "count")
    out["pipeline.accepted_with_warning_ratio"] = (facts("warned") / nodes if nodes else 0.0,
                                                   "ratio")
    out["core.persist_bytes"] = (facts("persist_bytes") / n_first, "bytes")
    out["core.persist_files"] = (facts("persist_files") / n_first, "count")
    for name in ("split_sentences", "irr_t02", "irr_t04", "rouge1", "rouge2", "rougel",
                 "bleu", "length"):
        out[f"metrics.{name}_s"] = (per(t.self_time.get(f"metrics.{name}", 0.0)), "s")
    out["bench.score_document_self_s"] = (per(t.self_time.get("bench.score_document", 0.0)), "s")
    for name in ("synthesize_draft", "review_draft_quality", "collect_pgtree"):
        out[f"datakit.{name}_s"] = (per(t.total.get(f"datakit.{name}", 0.0)), "s")
    out["datakit.export_s"] = (per(sum(t.total.get(f"datakit.{name}", 0.0) for name in (
        "make_splits", "export_sft", "write_build_artifacts"))), "s")
    out["datakit.accept_ratio"] = (facts("accepted") / n_first, "ratio")
    mean_traced = statistics.mean([it.seconds for it in traced_items] or [0.0])
    mean_untraced = statistics.mean([it.seconds for it in untraced_items] or [0.0])
    out["trace.overhead_pct"] = (
        100.0 * (mean_traced / mean_untraced - 1.0) if traced_items and mean_untraced else 0.0,
        "%")
    return out


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}")
    print(f"  passes {report['passes']}  items attempted {report['attempted']}  "
          f"failed {report['failed']}")
    print(f"  output digest {report['digest']}  "
          f"({'matches the pin' if report['pinned'] else 'no pin for this seed'})")
    print("  set-up runs (s): " + ", ".join(f"{s:.4f}" for s in report["setup_runs_s"]))
    tail = report["tail"]
    print(f"  item_s.tail is p{tail['percentile']} over {tail['items']} items "
          f"({tail['beyond']} beyond it)")
    for section in ("end_to_end", "per_layer"):
        print(f"  {section}:")
        for name, value in report[section].items():
            print(f"    {name:<36} {value[0]:>16.6g} {value[1]}")
    if report["module_self_s"]:
        print("  self time per item by module (traced passes):")
        for module, value in sorted(report["module_self_s"].items()):
            print(f"    {module:<36} {value:>16.6g} s")
    if report.get("spans_file"):
        print(f"  spans: {report['spans_written']} written to {report['spans_file']}")
    for line in report["problems"] + report["failures"]:
        print(f"  FAIL {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="patentgen benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a termination signal unwind normally, so the endpoint is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The endpoint is local; keep any configured HTTP proxy out of its way.
    for var in ("no_proxy", "NO_PROXY"):
        os.environ[var] = ",".join(filter(None, (os.environ.get(var), "127.0.0.1")))
    try:
        load_package()
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    section = report["per_layer"] if args.trace else report["end_to_end"]
    result = {
        "correct": not report["problems"] and not report["failed"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in section.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
