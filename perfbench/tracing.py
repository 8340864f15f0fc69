"""Spans around the public entry points of each patentgen module.

Tracing is installed from the benchmark's side, by swapping module and class
attributes for timing wrappers while a traced pass runs and putting the
originals back afterwards. Nothing under src/ knows about it.

A span is (id, name, start, end, parent id, item id, note); `note` carries a
per-call fact such as a cache hit or a rendered length. Spans of one item
share its item id; a span started with no open parent on its thread hangs
off the item's root span, so spans from worker threads keep their item.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

AGENT_METHODS = (
    "write_component", "plan_first_level", "expand_section", "retrieve",
    "write_subsection", "review", "refine",
)
# Agent methods that go through complete_parsed and may re-ask the model.
PARSED_METHODS = ("write_component", "plan_first_level", "expand_section", "review")


class Tracer:
    def __init__(self, max_kept: int):
        self.spans: list[tuple] = []
        self.kept: list[tuple] = []
        self.max_kept = max_kept
        self.item: str | None = None
        self._root: int | None = None
        self._item_start = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_item(self, item_id: str) -> None:
        self.item = item_id
        self._root = next(self._ids)
        self._item_start = time.monotonic()

    def end_item(self) -> None:
        self._record((self._root, "item", self._item_start, time.monotonic(), None, self.item, None))
        self.item, self._root = None, None

    def _record(self, span: tuple) -> None:
        with self._lock:
            self.spans.append(span)
            if len(self.kept) < self.max_kept:
                self.kept.append(span)

    def wrap(self, name, fn, note=None):
        """Time every call of fn as a span; name may be a function of the call's
        arguments, note a function of (result, args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            stack.append(span_id)
            returned = False
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                # Calls that raise (a parse failure before a re-ask) are spans too.
                end = time.monotonic()
                stack.pop()
                span_name = name(*args, **kwargs) if callable(name) else name
                extra = note(result, args, kwargs) if returned and note is not None else None
                tracer._record((span_id, span_name, start, end, parent, tracer.item, extra))

        return traced

    def take(self) -> list[tuple]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, item, extra in self.kept:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item, "note": extra}) + "\n")


def _rouge_name(candidate, reference, variant):
    return {"r1": "metrics.rouge1", "r2": "metrics.rouge2", "rl": "metrics.rougel"}[variant]


def _irr_name(text, cfg):
    return "metrics.irr_t" + f"{cfg.t:g}".replace(".", "")


def _patch_targets():
    """(owner, attribute, span name, note) for every traced entry point.

    Functions that modules import by name are patched in each importing
    module, since that is the reference the caller looks up.
    """
    from patentgen import agents, bench, datakit, gateway, metrics, pipeline, prompts

    targets = [
        (gateway.LlmGateway, "complete", "gateway.complete", None),
        (gateway.HttpBackend, "send", "gateway.send", None),
        (gateway.ResponseCache, "get", "gateway.cache_get", None),
        (gateway.ResponseCache, "put", "gateway.cache_put", None),
        (prompts.PromptRegistry, "render", "prompts.render", lambda r, a, k: len(r)),
        (pipeline.PatentPipeline, "run", "pipeline.run", None),
        (metrics, "split_sentences", "metrics.split_sentences", None),
        (bench, "bleu", "metrics.bleu", None),
        (bench, "rouge_f1", _rouge_name, None),
        (bench, "irr_of_text", _irr_name, None),
        (bench, "length_stats", "metrics.length", None),
        (bench, "score_document", "bench.score_document", None),
        (datakit.DatasetBuilder, "synthesize_draft", "datakit.synthesize_draft", None),
        (datakit.DatasetBuilder, "review_draft_quality", "datakit.review_draft_quality", None),
        (datakit.DatasetBuilder, "collect_pgtree", "datakit.collect_pgtree", None),
        (datakit, "make_splits", "datakit.make_splits", None),
        (datakit, "export_sft", "datakit.export_sft", None),
        (datakit, "write_build_artifacts", "datakit.write_build_artifacts", None),
    ]
    targets += [(agents.AgentRuntime, m, f"agents.{m}", None) for m in AGENT_METHODS]
    for module in (agents, datakit, pipeline):
        for fn in ("extract_tag", "extract_sections"):
            if hasattr(module, fn):
                targets.append((module, fn, "tags.extract", None))
    return targets


class Patched:
    """Context manager that installs the tracer's wrappers and restores the
    original attributes on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, note in _patch_targets():
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, note))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


# --- aggregation -------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class LayerTotals:
    """Sums over traced spans: per name the call count, total time and self
    time (duration minus the union of its children), plus the notes."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.rendered_chars = 0
        self.parsed_calls = 0
        self.parse_retries = 0

    def add(self, spans: list[tuple]) -> None:
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            if span[4] is not None:
                children[span[4]].append(span)
        for sid, name, start, end, _parent, _item, extra in spans:
            kids = children.get(sid, ())
            covered = union_length([(max(s[2], start), min(s[3], end)) for s in kids
                                     if s[3] > start and s[2] < end])
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += (end - start) - covered
            if name == "prompts.render":
                self.rendered_chars += extra or 0
            elif name.startswith("agents.") and name[len("agents."):] in PARSED_METHODS:
                self.parsed_calls += 1
                requests = sum(1 for s in kids if s[1] == "gateway.complete")
                self.parse_retries += max(0, requests - 1)
