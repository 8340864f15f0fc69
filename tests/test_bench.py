from __future__ import annotations

import json
import random
import re
import sys
import threading
import time

import pytest

from patentgen import metrics
from patentgen.agents import default_bindings
from patentgen.bench import (
    BenchReport,
    MetricConfig,
    irr_label,
    report_from_record,
    run_bench,
    score_directories,
    score_document,
    score_pairs,
)
from patentgen.core import ConfigError, draft_to_record, load_json, make_draft
from patentgen.metrics import IrrConfig, IrrUndefinedError, bleu, irr_of_text, rouge_f1
from patentgen.pipeline import PipelineConfig
from helpers import (MATCH_PLANNER, PromptFunctionBackend, function_gateways, interrupt_when,
                     mock_gateway, oracle_irr, pipeline_playbook, planner_response, rule,
                     tree_contents)


def test_irr_labels_match_report_columns():
    assert irr_label(0.2) == "irr_t02"
    assert irr_label(0.4) == "irr_t04"
    assert irr_label(0.45) == "irr_t045"


def test_header_pins_every_metric_setting():
    header = MetricConfig(thresholds=(0.2,), epsilon=1e-5, cap=500.0).header()
    assert header["thresholds"] == [0.2]
    assert header["epsilon"] == 1e-5
    assert header["cap"] == 500.0
    assert header["stopword_list_id"] == "en-v1"
    assert "bleu" in header and "rouge" in header and "token_counter" in header


def test_header_names_the_token_counter(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("widget\nwid\nget\n", "utf-8")
    assert MetricConfig().header()["token_counter"] == "whitespace-v1"
    cfg = MetricConfig(vocab=str(vocab))
    assert cfg.header()["token_counter"] == "vocab:vocab.txt"
    assert score_document("d", "widgets", "widgets", cfg)["tokens"] == 2


def _sentences_doc(sentences):
    return "\n\n".join(sentences)


def test_rows_match_naive_irr_oracle_exactly():
    docs = {
        "d1": ["adaptive gain loop", "adaptive gain loop", "sensor feedback path"],
        "d2": ["alpha beta gamma", "delta epsilon zeta", "eta theta iota", "alpha beta gamma"],
        "d3": ["claim one covers widgets", "claim two covers widgets", "claim one covers widgets"],
    }
    reference = "a reference patent body with several plain words"
    cfg = MetricConfig(thresholds=(0.2, 0.4))
    report = score_pairs(
        {doc_id: (_sentences_doc(s), reference) for doc_id, s in docs.items()}, cfg
    )
    for row in report.rows:
        sentences = docs[row["doc_id"]]
        assert row["irr_t02"] == oracle_irr(sentences, 0.2, 1e-6)
        assert row["irr_t04"] == oracle_irr(sentences, 0.4, 1e-6)
        assert row["irr_t02_total_pairs"] == len(sentences) * (len(sentences) - 1) // 2


def _row_from_public_metrics(doc_id: str, candidate: str, reference: str,
                             cfg: MetricConfig) -> dict:
    """A report row built metric by metric through the public functions."""
    row = {
        "doc_id": doc_id,
        "failed": False,
        "bleu": bleu([candidate], [reference]),
        "rouge1": rouge_f1(candidate, reference, "r1"),
        "rouge2": rouge_f1(candidate, reference, "r2"),
        "rougel": rouge_f1(candidate, reference, "rl"),
        "tokens": cfg.counter.count(candidate),
    }
    for t in cfg.thresholds:
        try:
            result = irr_of_text(candidate, IrrConfig(t=t, epsilon=cfg.epsilon, cap=cfg.cap))
        except IrrUndefinedError:
            row[irr_label(t)] = None
            continue
        row[irr_label(t)] = result.value
        row[irr_label(t) + "_pair_sum"] = result.pair_sum
        row[irr_label(t) + "_total_pairs"] = result.total_pairs
    return row


_ROW_VOCAB = ["adaptive", "controller", "gain", "sensor", "loop", "claim", "signal",
              "the", "of", "1", "schedule", "error", "method", "system"]


def _seeded_pair(seed: int) -> tuple[str, str]:
    rng = random.Random(seed)

    def sentence() -> str:
        return " ".join(rng.choices(_ROW_VOCAB, k=rng.randint(1, 9))) + rng.choice(".!?")

    reference = [sentence() for _ in range(rng.randint(2, 30))]
    candidate = [rng.choice(reference) if rng.random() < 0.4 else sentence()
                 for _ in range(rng.randint(2, 30))]
    return "\n\n".join(candidate), " ".join(reference)


_ROW_PAIRS = {
    **{f"seeded{seed}": _seeded_pair(seed) for seed in range(12)},
    "empty_candidate": ("", "A reference. With two sentences."),
    "empty_reference": ("A candidate. With two sentences.", ""),
    "both_empty": ("", ""),
    "one_sentence": ("Only one sentence here", "A reference. With two sentences."),
    "identical": ("The loop gain adapts. The loop gain adapts!", "The loop gain adapts. "
                  "The loop gain adapts!"),
}


@pytest.mark.parametrize("cfg", [
    MetricConfig(),
    MetricConfig(thresholds=(0.4, 0.0, 1.0, 0.25), epsilon=1e-3, cap=5.0),
], ids=["defaults", "capped"])
def test_one_pass_row_equals_the_public_metrics(monkeypatch, cfg):
    splits = []
    split_sentences = metrics.split_sentences

    def counted(text):
        splits.append(text)
        return split_sentences(text)

    monkeypatch.setattr(metrics, "split_sentences", counted)
    rows = []
    for doc_id, (candidate, reference) in _ROW_PAIRS.items():
        splits.clear()
        rows.append(score_document(doc_id, candidate, reference, cfg))
        assert splits == [candidate]
        expected = _row_from_public_metrics(doc_id, candidate, reference, cfg)
        assert json.dumps(rows[-1], sort_keys=True) == json.dumps(expected, sort_keys=True)
    if cfg.cap is not None:
        assert any(row.get(irr_label(1.0)) == cfg.cap for row in rows)


def test_a_metric_config_carries_its_irr_configs_and_scoring_builds_none(monkeypatch):
    cfg = MetricConfig(thresholds=(0.4, 0.2), epsilon=1e-3, cap=5.0)
    assert cfg.irr == tuple(IrrConfig(t=t, epsilon=1e-3, cap=5.0) for t in (0.4, 0.2))
    assert MetricConfig().epsilon == IrrConfig(t=0.2).epsilon
    built = []
    monkeypatch.setattr(IrrConfig, "__post_init__", built.append)
    score_pairs(_ROW_PAIRS, cfg)
    assert built == []


def test_aggregates_are_arithmetic_means():
    cfg = MetricConfig()
    report = score_pairs(
        {
            "a": ("one two three", "one two three"),
            "b": ("four five six", "totally different words here"),
        },
        cfg,
    )
    aggregates = report.aggregates()
    for key in ("bleu", "rouge1", "rougel", "tokens"):
        values = [row[key] for row in report.rows]
        assert aggregates[key] == pytest.approx(sum(values) / len(values))


def test_failed_rows_are_excluded_from_aggregates_but_counted():
    report = BenchReport(header=MetricConfig().header())
    report.rows.append({"doc_id": "ok", "failed": False, "bleu": 50.0, "tokens": 10})
    report.rows.append({"doc_id": "bad", "failed": True, "error": "aborted"})
    record = report.to_record()
    assert record["counts"] == {"scored": 1, "failed": 1}
    assert record["aggregates"]["bleu"] == 50.0
    table = report.to_table()
    assert "FAILED" in table and "aborted" in table


def test_report_record_round_trip_renders_same_table():
    cfg = MetricConfig()
    report = score_pairs({"x": ("alpha beta. gamma delta.", "alpha beta. gamma delta.")}, cfg)
    loaded = report_from_record(report.to_record())
    assert loaded.to_table() == report.to_table()
    assert loaded.to_record()["aggregates"] == report.to_record()["aggregates"]


def test_report_save_writes_both_forms(tmp_path):
    report = score_pairs({"x": ("a b", "a b")}, MetricConfig())
    report.save(tmp_path)
    assert (tmp_path / "report.json").exists()
    table = (tmp_path / "report.txt").read_text()
    assert table.startswith("metric config:")
    assert "doc_id" in table


def test_score_directories_alignment(tmp_path):
    gen = tmp_path / "gen"
    ref = tmp_path / "ref"
    gen.mkdir()
    ref.mkdir()
    (gen / "only_gen.txt").write_text("x", "utf-8")
    (ref / "only_ref.txt").write_text("y", "utf-8")
    with pytest.raises(ConfigError, match="^" + re.escape(
            "no reference for: ['only_gen']; no generated doc for: ['only_ref']") + "$"):
        score_directories(gen, ref, MetricConfig())


def test_short_documents_report_undefined_irr():
    report = score_pairs({"tiny": ("one sentence only", "ref")}, MetricConfig())
    row = report.rows[0]
    assert row["irr_t02"] is None
    assert "irr_t02" not in report.aggregates()


def test_report_means_do_not_depend_on_row_order():
    cfg = MetricConfig()
    short = score_document("short", "one sentence only", "ref", cfg)
    long = score_document("long", "First point here. Second point there. Third one too.",
                          "A reference text.", cfg)
    assert short["irr_t02"] is None and long["irr_t02"] is not None
    means = [BenchReport(header=cfg.header(), rows=rows).aggregates()
             for rows in ([short, long], [long, short])]
    assert means[0] == means[1]
    assert means[0]["irr_t02"] == long["irr_t02"]


def _manifest(tmp_path, n_docs: int = 3) -> dict:
    docs = []
    for i in range(1, n_docs + 1):
        answers = {q: f"Answer {q} of document {i} on adaptive gain." for q in range(1, 6)}
        draft = make_draft(answers, source_id=f"doc{i}")
        draft_file = tmp_path / f"draft{i}.json"
        draft_file.write_text(json.dumps(draft_to_record(draft)), "utf-8")
        ref_file = tmp_path / f"ref{i}.txt"
        ref_file.write_text(f"Reference patent {i}. It adapts the gain online.", "utf-8")
        docs.append({"doc_id": f"doc{i}", "draft_file": str(draft_file),
                     "reference_file": str(ref_file)})
    return {"docs": docs}


def _bench(tmp_path, manifest, width: int, delay_s: float = 0.0):
    backend = PromptFunctionBackend(delay_s=delay_s)
    out = tmp_path / f"bench-width{width}"
    report = run_bench(manifest, function_gateways(backend, width), default_bindings(),
                       PipelineConfig(), MetricConfig(), out)
    assert report.to_record()["counts"] == {"scored": len(manifest["docs"]), "failed": 0}
    return tree_contents(out), backend.peak


def test_bench_output_is_the_same_at_every_width(tmp_path):
    manifest = _manifest(tmp_path)
    assert _bench(tmp_path, manifest, 1)[0] == _bench(tmp_path, manifest, 8)[0]


def test_a_scripted_bench_runs_its_documents_in_manifest_order(tmp_path):
    # The planner rule answers with 1, 2 and then 3 sections in arrival
    # order. The mock's width is 1, so documents run one at a time, in
    # manifest order, on the caller's thread: doc i gets i sections.
    manifest = _manifest(tmp_path)
    trees = []
    for run in ("first", "second"):
        planner = rule(MATCH_PLANNER, *(planner_response(m) for m in (1, 2, 3)))
        gateway, backend = mock_gateway(pipeline_playbook(subsections=1, extra_rules=[planner]))
        threads = []
        send = backend.send
        backend.send = lambda req: threads.append(threading.get_ident()) or send(req)
        out = tmp_path / run
        report = run_bench(manifest, {"default": gateway}, default_bindings(), PipelineConfig(),
                           MetricConfig(), out)
        assert report.to_record()["counts"] == {"scored": 3, "failed": 0}
        for i in (1, 2, 3):
            assert len(load_json(out / "runs" / f"doc{i}" / "pgtree.json")["sections"]) == i
        assert set(threads) == {threading.get_ident()}
        trees.append(tree_contents(out))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("width", [1, 3])
def test_backend_never_sees_more_than_max_inflight(tmp_path, width):
    # Documents overlap, each fanning out, as wide as the gateway allows;
    # frequent thread switches make a lost bound likely to show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _, peak = _bench(tmp_path, _manifest(tmp_path, n_docs=4), width, delay_s=0.002)
    finally:
        sys.setswitchinterval(interval)
    assert peak == width


def _interrupted_bench(tmp_path, manifest, width: int = 4):
    """Run manifest's bench at width and interrupt it once 8 calls have gone
    out: the backend, its call count when run_bench raised, and the ids of
    the documents that sent a call. Every call after 10 s fails, so a bench
    that nothing halts still ends soon."""
    deadline = time.monotonic() + 10
    seen, lock = set(), threading.Lock()

    def note_document(prompt):
        with lock:
            seen.update(f"doc{i}" for i in re.findall(r"of document (\d+)", prompt))
        return "past the test's deadline" if time.monotonic() > deadline else None

    backend = PromptFunctionBackend(delay_s=0.01, fail_when=note_document)
    interrupt_when(lambda: backend.calls >= 8)
    with pytest.raises(KeyboardInterrupt):
        run_bench(manifest, function_gateways(backend, width), default_bindings(),
                  PipelineConfig(), MetricConfig(), tmp_path / "interrupted")
    return backend, backend.calls, seen


def test_an_interrupted_bench_halts_every_document_and_sends_nothing_once_stopped(tmp_path):
    manifest = _manifest(tmp_path, n_docs=4)
    whole = PromptFunctionBackend()
    run_bench(manifest, function_gateways(whole, 1), default_bindings(), PipelineConfig(),
              MetricConfig(), tmp_path / "whole")
    threads = threading.active_count()
    backend, calls, _ = _interrupted_bench(tmp_path, manifest)
    time.sleep(0.05)
    assert backend.calls == calls
    # Each document stops at its next call, so the interrupted bench sends
    # only what it sent before the interrupt and what was then in flight or
    # waiting for a gateway slot, well short of a whole bench.
    assert calls < whole.calls / 2
    assert threading.active_count() == threads


def test_an_interrupted_bench_leaves_a_partial_run_dir_for_each_document_it_cut_short(tmp_path):
    backend, _, seen = _interrupted_bench(tmp_path, _manifest(tmp_path, n_docs=4))
    runs = tmp_path / "interrupted" / "runs"
    statuses = {path.name: load_json(path / "status.json")["status"] for path in runs.iterdir()}
    # A document may start and be halted before its first call is sent, so
    # every document that sent a call is partial, and so is any other that started.
    assert seen and seen <= statuses.keys() and set(statuses.values()) == {"partial"}
