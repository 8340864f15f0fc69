"""Seeded input generators for the four workloads.

Each workload repeats one "pass" of inputs until its time is up. A pass has
a fixed multiset of shapes (patent structure, pair length, gate outcome);
the seed picks the text, the order, the malformed answers and the overlap
fractions. Fixing the shapes keeps per-item times comparable across seeds,
so a run's median and tail do not depend on which shapes a seed drew.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from textgen import UNDISCLOSED, paragraph_text, prose, sentence, sentences, words

SPEC = json.loads((Path(__file__).parent / "spec.json").read_text("utf-8"))

# --- drafts (generate_cold) ---------------------------------------------------

# Sections per patent in one pass. Subsections per section and check tokens
# per guideline node follow their cycles across the pass, in this order, so
# every pass has the same nodes and refinement rounds.
_GENERATE = SPEC["inputs"]["generate"]


@dataclass(frozen=True)
class DraftInput:
    doc_id: str
    answers: tuple[str, ...]
    checks: tuple[tuple[int, ...], ...]  # per section, check tokens per subsection


def _shapes() -> list[tuple[tuple[int, ...], ...]]:
    subs = iter(_GENERATE["subsection_cycle"] * 64)
    checks = iter(_GENERATE["check_cycle"] * 64)
    return [
        tuple(tuple(next(checks) for _ in range(next(subs))) for _ in range(sections))
        for sections in _GENERATE["pass_sections"]
    ]


def make_drafts(seed: int) -> list[DraftInput]:
    rng = random.Random(f"drafts-{seed}")
    shapes = _shapes()
    rng.shuffle(shapes)
    drafts = []
    for i, shape in enumerate(shapes):
        points = []
        for k, section in enumerate(shape, start=1):
            aspects = []
            for j, n_checks in enumerate(section, start=1):
                tag = words(rng, 1)[:3]
                needs = ["[needs"] + [f"zq{k}n{j}n{c}{tag}" for c in range(1, n_checks + 1)]
                aspects.append(f"{words(rng, rng.randint(2, 4))} {' '.join(needs)}]")
            points.append(
                f"Key point {k}: {words(rng, rng.randint(3, 6))}; aspects: "
                f"{' | '.join(aspects)} ."
            )
        answers = (
            prose(rng, 40, 80),
            prose(rng, 60, 100),
            prose(rng, 80, 140),
            "The protected key points are listed below. " + " ".join(points),
            prose(rng, 40, 80),
        )
        drafts.append(DraftInput(doc_id=f"s{seed}-d{i}", answers=answers, checks=shape))
    return drafts


# --- score pairs (score_long) ------------------------------------------------

_SCORE = SPEC["inputs"]["score_long"]


@dataclass(frozen=True)
class PairInput:
    doc_id: str
    candidate: str
    reference: str
    shared: float
    repeated: float


def _join_paragraphs(rng: random.Random, sentences: list[str]) -> str:
    paragraphs, i = [], 0
    while i < len(sentences):
        step = rng.randint(4, 7)
        paragraphs.append(" ".join(sentences[i : i + step]))
        i += step
    return "\n\n".join(paragraphs)


def make_pairs(seed: int) -> list[PairInput]:
    """Each candidate copies a seeded share of its reference's sentences and
    repeats a seeded share of its own earlier sentences."""
    rng = random.Random(f"pairs-{seed}")
    lengths = [tuple(pair) for pair in _SCORE["pair_words"]]
    rng.shuffle(lengths)
    pairs = []
    for i, (cand_words, ref_words) in enumerate(lengths):
        ref = sentences(rng, ref_words)
        shared = rng.uniform(*_SCORE["shared_sentence_share"])
        repeated = rng.uniform(*_SCORE["self_repeat_share"])
        cand: list[str] = []
        count = 0
        while count < cand_words:
            roll = rng.random()
            if roll < shared:
                s = rng.choice(ref)
            elif roll < shared + repeated and cand:
                s = rng.choice(cand)
            else:
                s = sentence(rng)
            cand.append(s)
            count += len(s.split())
        pairs.append(
            PairInput(
                doc_id=f"s{seed}-p{i}",
                candidate=_join_paragraphs(rng, cand),
                reference=_join_paragraphs(rng, ref),
                shared=shared,
                repeated=repeated,
            )
        )
    return pairs


# --- patent records (build_dataset) ------------------------------------------

_DATASET = SPEC["inputs"]["build_dataset"]


@dataclass(frozen=True)
class RecordInput:
    fields: dict  # PatentRecord keyword arguments
    gate_fail: bool


def make_records(seed: int) -> list[RecordInput]:
    rng = random.Random(f"records-{seed}")
    weak = [
        i < _DATASET["gate_fails_per_pass"] for i in range(_DATASET["records_per_pass"])
    ]
    rng.shuffle(weak)
    records = []
    for i, is_weak in enumerate(weak):
        description = paragraph_text(rng, rng.randint(400, 700))
        if is_weak:
            description += " " + UNDISCLOSED
        claims = "\n".join(
            f"{k}. A method comprising {words(rng, rng.randint(12, 24))}."
            for k in range(1, rng.randint(5, 10))
        )
        fields = {
            "record_id": f"s{seed}-r{i}",
            "title": words(rng, rng.randint(6, 12)).title(),
            "abstract": prose(rng, 80, 120),
            "background": prose(rng, 120, 200),
            "summary": prose(rng, 120, 200),
            "claims": claims,
            "description": description,
        }
        records.append(RecordInput(fields=fields, gate_fail=is_weak))
    return records
