"""Objective text metrics: sentence-repetition rate, Jaccard similarity,
BLEU, ROUGE F1 variants and length accounting.

The repetition metric divides the number of sentence pairs C(n,2) by the
smoothed count of pairs whose stopword-filtered Jaccard similarity reaches a
threshold t; higher means fewer repeats. Every knob that the metric depends
on (threshold, epsilon, stopword list, smoothing, tokenization) is pinned
here and echoed into report headers, because none of them is standardized.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain
from pathlib import Path

STOPWORD_LIST_ID = "en-v1"

BLEU_SPEC = (
    "corpus-bleu4; add-one smoothing on matched orders, 0.01/total floor on "
    "zero-match orders; lowercase whitespace tokens; 0-100"
)
ROUGE_SPEC = "rouge f1, lowercase whitespace tokens, no stopword removal"


class MetricsError(Exception):
    pass


class IrrUndefinedError(MetricsError):
    def __init__(self, n: int):
        super().__init__(f"repetition rate undefined for {n} sentence(s); need at least 2")


class LengthMismatchError(MetricsError):
    def __init__(self, n_candidates: int, n_references: int):
        super().__init__(
            f"candidates ({n_candidates}) and references ({n_references}) must align"
        )


class CounterConfigError(MetricsError):
    pass


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    text = resources.files("patentgen").joinpath("assets/stopwords_en.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


def tokenize_for_similarity(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stopwords.

    Numbers are kept: claim references matter.
    """
    sw = stopwords()
    return [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t and t not in sw]


@dataclass(frozen=True)
class SentenceSet:
    sentences: tuple[str, ...]
    token_sets: tuple[frozenset[str], ...]
    short_flags: tuple[bool, ...]

    @property
    def n(self) -> int:
        return len(self.sentences)


# A terminator followed by whitespace or the end of the paragraph; `\s`
# matches exactly the characters for which str.isspace() is true.
_BOUNDARY_RE = re.compile(r"[.!?](?=\s|\Z)")
# A segment that is nothing but a list enumerator ("1.", "12.").
_ENUMERATOR_RE = re.compile(r"\s*\d+\.")


def _split_block(block: str) -> list[str]:
    """Split one paragraph on terminators followed by whitespace or end.

    A bare claim enumerator ("1.", "12.") never terminates a sentence, so a
    numbered claim line stays in one piece.
    """
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY_RE.finditer(block):
        segment = block[start : match.end()]
        if match.group() == "." and _ENUMERATOR_RE.fullmatch(segment):
            continue
        if segment.strip():
            sentences.append(segment.strip())
        start = match.end()
    tail = block[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def split_sentences(text: str) -> SentenceSet:
    """Sentence segmentation: terminator-plus-whitespace within paragraphs,
    plus blank-line boundaries. Short segments (< 3 tokens after stopword
    removal) are kept but flagged."""
    sentences: list[str] = []
    for block in re.split(r"\n\s*\n", text):
        sentences.extend(_split_block(block))
    token_lists = [tokenize_for_similarity(s) for s in sentences]
    return SentenceSet(
        sentences=tuple(sentences),
        token_sets=tuple(frozenset(tokens) for tokens in token_lists),
        short_flags=tuple(len(tokens) < 3 for tokens in token_lists),
    )


def jaccard(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    """|a n b| / |a u b|; two empty sets count as identical (1.0)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def rep_indicator(si: frozenset[str], sj: frozenset[str], t: float) -> int:
    """1 iff the pair's Jaccard similarity reaches t (boundary inclusive)."""
    if not 0.0 <= t <= 1.0:
        raise MetricsError(f"threshold t must lie in [0, 1], got {t}")
    return 1 if jaccard(si, sj) >= t else 0


@dataclass(frozen=True)
class IrrConfig:
    t: float
    epsilon: float = 1e-6
    cap: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise MetricsError(f"threshold t must lie in [0, 1], got {self.t}")
        # A non-finite epsilon or cap gives NaN, which is not JSON, or a
        # meaningless rate; a cap of 0 or below pins every rate to the cap.
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise MetricsError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.cap is not None and not (math.isfinite(self.cap) and self.cap > 0.0):
            raise MetricsError(f"cap must be positive and finite, got {self.cap}")


@dataclass(frozen=True)
class IrrResult:
    value: float
    pair_sum: int
    total_pairs: int
    config: IrrConfig


def _pair_sum(token_sets: tuple[frozenset[str], ...],
              thresholds: tuple[float, ...]) -> tuple[int, ...]:
    """For each threshold t, count the pairs i < j exactly as
    `jaccard(a, b) >= t` would.

    An inverted index joins the sets in one sweep: each token keeps the list
    of earlier sets that hold it, so counting the entries of a set's lists
    gives |a n b| with every earlier set that shares a token. A pair that
    shares none has similarity 0, or 1 when both sets are empty, so for t > 0
    only the empty pairs count among them. A sharing pair is decided by the
    division jaccard makes, against the thresholds in ascending order up to
    the first it misses: reaching t means reaching every lower threshold.
    """
    n = len(token_sets)
    positive = sorted({t for t in thresholds if t > 0.0})
    lowest = positive[0] if positive else math.inf
    counts = [0] * len(positive)
    sizes = [len(s) for s in token_sets]
    postings: dict[str, list[int]] = {}
    for j, s in enumerate(token_sets):
        lists = [postings.setdefault(token, []) for token in s]
        shared = Counter(chain.from_iterable(lists))
        for earlier in lists:
            earlier.append(j)
        lj = sizes[j]
        for i, inter in shared.items():
            similarity = inter / (sizes[i] + lj - inter)
            if similarity < lowest:  # the common case: the pair shares a frequent word
                continue
            for k, t in enumerate(positive):
                if similarity < t:
                    break
                counts[k] += 1
    empties = sizes.count(0)
    empty_pairs = empties * (empties - 1) // 2
    by_t = {t: c + (empty_pairs if t <= 1.0 else 0) for t, c in zip(positive, counts)}
    return tuple(by_t[t] if t > 0.0 else n * (n - 1) // 2 for t in thresholds)


def _irr_results(ss: SentenceSet, cfgs: tuple[IrrConfig, ...]) -> tuple[IrrResult, ...]:
    """One IrrResult per config, from a single pair count over ss."""
    n = ss.n
    if n < 2:
        raise IrrUndefinedError(n)
    total_pairs = n * (n - 1) // 2
    results = []
    for cfg, pair_sum in zip(cfgs, _pair_sum(ss.token_sets, tuple(c.t for c in cfgs))):
        value = total_pairs / (pair_sum + cfg.epsilon)
        if cfg.cap is not None:
            value = min(value, cfg.cap)
        results.append(
            IrrResult(value=value, pair_sum=pair_sum, total_pairs=total_pairs, config=cfg)
        )
    return tuple(results)


def irr_report(ss: SentenceSet, cfg: IrrConfig) -> IrrResult:
    return _irr_results(ss, (cfg,))[0]


def irr(ss: SentenceSet, cfg: IrrConfig) -> float:
    return irr_report(ss, cfg).value


def irr_of_text(text: str, cfg: IrrConfig) -> IrrResult:
    return irr_report(split_sentences(text), cfg)


# --- ROUGE -------------------------------------------------------------------


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _overlap(cand: list[str], ref: list[str], n: int) -> tuple[int, int, int]:
    """Clipped n-gram matches of cand against ref, and the n-gram counts of
    cand and of ref."""
    cand_grams = _ngrams(cand, n)
    ref_grams = _ngrams(ref, n)
    shared = cand_grams.keys() & ref_grams.keys()
    matches = sum(map(min, map(cand_grams.__getitem__, shared), map(ref_grams.__getitem__, shared)))
    return matches, max(len(cand) - n + 1, 0), max(len(ref) - n + 1, 0)


def _lcs_len(a: list[str], b: list[str]) -> int:
    """Exact LCS length by the bit-parallel recurrence of Allison & Dix (1986)
    in Hyyro's (2004) form, about len(a)*len(b)/w operations on the w-bit
    digits of a Python int.

    v holds one DP column over the shorter side: bit i is 0 where the column
    steps up by one at row i, so the LCS is the count of zero bits. Each
    token of the longer side advances the column with one add and a few
    bitwise ops on the match mask of that token; masks exist only for tokens
    found on both sides. LCS is symmetric, so swapping the sides is safe.
    """
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    shared = set(short).intersection(long_)
    masks: dict[str, int] = {}
    for i, token in enumerate(short):
        if token in shared:
            masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(short)) - 1
    v = full
    for token in long_:
        m = masks.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(short) - v.bit_count()


def _f1(matches: int, denom: int, cand: list[str], ref: list[str]) -> float:
    """2*matches/denom. Two empty texts score 1.0; when neither side is long
    enough for the order (denom 0) only identical texts do."""
    if not cand and not ref:
        return 1.0
    if denom == 0:
        return 1.0 if cand == ref else 0.0
    if matches == 0:
        return 0.0
    return 2.0 * matches / denom


def rouge_f1(candidate: str, reference: str, variant: str) -> float:
    """F1 overlap: unigram (r1), bigram (r2) or LCS (rl).

    Computed as 2*matches / (len_candidate + len_reference), which equals the
    harmonic mean of precision and recall. Two empty texts score 1.0; an
    empty side against a non-empty one scores 0.0.
    """
    cand = _tokens(candidate)
    ref = _tokens(reference)
    if variant in ("r1", "r2"):
        matches, cand_total, ref_total = _overlap(cand, ref, int(variant[1]))
        return _f1(matches, cand_total + ref_total, cand, ref)
    if variant == "rl":
        return _f1(_lcs_len(cand, ref), len(cand) + len(ref), cand, ref)
    raise MetricsError(f"unknown rouge variant {variant!r}; use r1, r2 or rl")


# --- BLEU ---------------------------------------------------------------------


# Pseudo-count for n-gram orders with zero matches; keeps the geometric mean
# finite while letting fully disjoint pairs score near zero.
BLEU_ZERO_FLOOR = 0.01


def _bleu_score(matches: list[int], totals: list[int], cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        p = (m + 1) / (t + 1) if m > 0 else BLEU_ZERO_FLOOR / t
        log_sum += math.log(p)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum / 4.0)


def bleu(candidates: list[str], references: list[str]) -> float:
    """Corpus-level BLEU-4, 0-100 scale.

    Clipped n-gram counts accumulate over the corpus. Orders with matches get
    add-one smoothing ((m+1)/(t+1)); orders with zero matches get a
    0.01-pseudo-count floor (0.01/t); orders absent from the candidate side
    contribute nothing. Identical corpora score exactly 100; the brevity
    penalty uses total lengths.
    """
    if len(candidates) != len(references) or not candidates:
        raise LengthMismatchError(len(candidates), len(references))
    matches = [0] * 4
    totals = [0] * 4
    cand_len = 0
    ref_len = 0
    for cand_text, ref_text in zip(candidates, references):
        cand = _tokens(cand_text)
        ref = _tokens(ref_text)
        cand_len += len(cand)
        ref_len += len(ref)
        for k in range(4):
            m, total, _ = _overlap(cand, ref, k + 1)
            matches[k] += m
            totals[k] += total
    return _bleu_score(matches, totals, cand_len, ref_len)


# --- one pass over a pair -----------------------------------------------------


@dataclass(frozen=True)
class PairScores:
    bleu: float
    rouge1: float
    rouge2: float
    rougel: float
    irr: tuple[IrrResult, ...] | None  # per threshold; None below two sentences


def score_pair(candidate: str, reference: str, thresholds: tuple[float, ...],
               epsilon: float, cap: float | None) -> PairScores:
    """Every pair metric, equal to bleu([candidate], [reference]), the three
    rouge_f1 variants and irr_of_text per threshold, from one pass: each side
    is tokenized once, the 1-4-gram overlaps are counted once for BLEU and
    ROUGE-1/2, and the candidate is split once for one pair count that
    serves every threshold."""
    cfgs = tuple(IrrConfig(t=t, epsilon=epsilon, cap=cap) for t in thresholds)
    cand = _tokens(candidate)
    ref = _tokens(reference)
    overlaps = [_overlap(cand, ref, n) for n in range(1, 5)]
    try:
        irr_results = _irr_results(split_sentences(candidate), cfgs)
    except IrrUndefinedError:
        irr_results = None
    (uni, cand_uni, ref_uni), (bi, cand_bi, ref_bi) = overlaps[:2]
    return PairScores(
        bleu=_bleu_score([m for m, _, _ in overlaps], [c for _, c, _ in overlaps],
                         len(cand), len(ref)),
        rouge1=_f1(uni, cand_uni + ref_uni, cand, ref),
        rouge2=_f1(bi, cand_bi + ref_bi, cand, ref),
        rougel=_f1(_lcs_len(cand, ref), len(cand) + len(ref), cand, ref),
        irr=irr_results,
    )


# --- length accounting --------------------------------------------------------


@dataclass(frozen=True)
class LengthStats:
    tokens: int
    words: int
    sentences: int
    chars: int


class WhitespaceCounter:
    counter_id = "whitespace-v1"

    @staticmethod
    def count(text: str) -> int:
        return len(text.split())


class VocabCounter:
    """Greedy longest-match subword counting against a rank-ordered
    vocabulary file (one token per line). Characters not covered by any
    vocabulary entry count one token each."""

    def __init__(self, path: Path | str):
        path = Path(path)
        if not path.exists():
            raise CounterConfigError(f"vocabulary file not found: {path}")
        entries = [line.rstrip("\n") for line in path.read_text("utf-8").splitlines()]
        entries = [e for e in entries if e]
        if not entries:
            raise CounterConfigError(f"vocabulary file is empty: {path}")
        self.vocab = set(entries)
        self.max_len = max(len(e) for e in entries)
        self.counter_id = f"vocab:{path.name}"

    def count(self, text: str) -> int:
        total = 0
        for word in text.split():
            pos = 0
            while pos < len(word):
                for size in range(min(self.max_len, len(word) - pos), 0, -1):
                    if word[pos : pos + size] in self.vocab:
                        pos += size
                        break
                else:
                    pos += 1
                total += 1
        return total


def length_stats(text: str, counter=None) -> LengthStats:
    counter = counter or WhitespaceCounter()
    return LengthStats(
        tokens=counter.count(text),
        words=len(text.split()),
        sentences=split_sentences(text).n,
        chars=len(text),
    )
