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


_TERMINATORS = ".!?"
# A segment that is nothing but a list enumerator ("1.", "12.").
_ENUMERATOR_RE = re.compile(r"\s*\d+\.")


def _split_block(block: str) -> list[str]:
    """Split one paragraph on terminators followed by whitespace or end.

    A bare claim enumerator ("1.", "12.") never terminates a sentence, so a
    numbered claim line stays in one piece.
    """
    sentences: list[str] = []
    start = 0
    for i, ch in enumerate(block):
        if ch not in _TERMINATORS:
            continue
        at_end = i + 1 == len(block)
        if not at_end and not block[i + 1].isspace():
            continue
        segment = block[start : i + 1]
        if ch == "." and _ENUMERATOR_RE.fullmatch(segment):
            continue
        if segment.strip():
            sentences.append(segment.strip())
        start = i + 1
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
    stopword_list_id: str = STOPWORD_LIST_ID
    cap: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise MetricsError(f"threshold t must lie in [0, 1], got {self.t}")
        if self.epsilon <= 0.0:
            raise MetricsError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class IrrResult:
    value: float
    pair_sum: int
    total_pairs: int
    config: IrrConfig


def _pair_sum(token_sets: tuple[frozenset[str], ...], t: float) -> int:
    """Count repeated pairs exactly as `jaccard(a, b) >= t` would.

    Each distinct token gets one bit, so a sentence's token set is an int and
    |a n b| is a popcount; the decision is the same int division jaccard
    makes. With the sets sorted by size, a pair whose size ratio lo/hi falls
    below t cannot reach t, and neither can any larger partner: the bound is
    monotone under correctly rounded division, so stopping there never
    changes a decision.
    """
    n = len(token_sets)
    if t <= 0.0:
        return n * (n - 1) // 2
    bit_of: dict[str, int] = {}
    sized = []
    for s in token_sets:
        b = 0
        for token in s:
            b |= 1 << bit_of.setdefault(token, len(bit_of))
        sized.append((len(s), b))
    sized.sort(key=lambda item: item[0])
    total = 0
    for i in range(n - 1):
        li, bi = sized[i]
        for j in range(i + 1, n):
            lj, bj = sized[j]
            if lj == 0:
                total += 1  # two empty sets are identical
                continue
            if li / lj < t:
                break
            inter = (bi & bj).bit_count()
            if inter / (li + lj - inter) >= t:
                total += 1
    return total


def irr_report(ss: SentenceSet, cfg: IrrConfig) -> IrrResult:
    n = ss.n
    if n < 2:
        raise IrrUndefinedError(n)
    total_pairs = n * (n - 1) // 2
    pair_sum = _pair_sum(ss.token_sets, cfg.t)
    value = total_pairs / (pair_sum + cfg.epsilon)
    if cfg.cap is not None:
        value = min(value, cfg.cap)
    return IrrResult(value=value, pair_sum=pair_sum, total_pairs=total_pairs, config=cfg)


def irr(ss: SentenceSet, cfg: IrrConfig) -> float:
    return irr_report(ss, cfg).value


def irr_of_text(text: str, cfg: IrrConfig) -> IrrResult:
    return irr_report(split_sentences(text), cfg)


# --- ROUGE -------------------------------------------------------------------


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


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


def rouge_f1(candidate: str, reference: str, variant: str) -> float:
    """F1 overlap: unigram (r1), bigram (r2) or LCS (rl).

    Computed as 2*matches / (len_candidate + len_reference), which equals the
    harmonic mean of precision and recall. Two empty texts score 1.0; an
    empty side against a non-empty one scores 0.0.
    """
    cand = _tokens(candidate)
    ref = _tokens(reference)
    if not cand and not ref:
        return 1.0
    if variant == "r1":
        matches = sum((_ngrams(cand, 1) & _ngrams(ref, 1)).values())
        denom = len(cand) + len(ref)
    elif variant == "r2":
        matches = sum((_ngrams(cand, 2) & _ngrams(ref, 2)).values())
        denom = max(len(cand) - 1, 0) + max(len(ref) - 1, 0)
    elif variant == "rl":
        matches = _lcs_len(cand, ref)
        denom = len(cand) + len(ref)
    else:
        raise MetricsError(f"unknown rouge variant {variant!r}; use r1, r2 or rl")
    if denom == 0:
        # Texts too short for this order on both sides: only identity scores.
        return 1.0 if cand == ref else 0.0
    if matches == 0:
        return 0.0
    return 2.0 * matches / denom


# --- BLEU ---------------------------------------------------------------------


# Pseudo-count for n-gram orders with zero matches; keeps the geometric mean
# finite while letting fully disjoint pairs score near zero.
BLEU_ZERO_FLOOR = 0.01


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
            cand_ngrams = _ngrams(cand, k + 1)
            ref_ngrams = _ngrams(ref, k + 1)
            matches[k] += sum((cand_ngrams & ref_ngrams).values())
            totals[k] += sum(cand_ngrams.values())
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


def counter_from_config(config: dict | None):
    if config is None:
        return WhitespaceCounter()
    kind = config.get("kind")
    if kind == "whitespace":
        return WhitespaceCounter()
    if kind == "vocab":
        if "path" not in config:
            raise CounterConfigError("vocab counter config needs a 'path'")
        return VocabCounter(config["path"])
    raise CounterConfigError(f"unknown token counter kind {kind!r}")


def length_stats(text: str, counter=None) -> LengthStats:
    counter = counter or WhitespaceCounter()
    return LengthStats(
        tokens=counter.count(text),
        words=len(text.split()),
        sentences=split_sentences(text).n,
        chars=len(text),
    )
