from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from patentgen.core import ConfigError
from patentgen.metrics import (
    _lcs_len,
    _overlaps,
    _pair_sum,
    _split_block,
    IrrConfig,
    IrrUndefinedError,
    MetricsError,
    STOPWORD_LIST_ID,
    VocabCounter,
    bleu,
    irr_of_text,
    length_stats,
    rouge_f1,
    split_sentences,
    stopwords,
    tokenize_for_similarity,
)
from helpers import (jaccard, oracle_bleu_single, oracle_irr, oracle_lcs_len,
                     oracle_ngram_overlap, oracle_pair_sum, oracle_split_block, rep_indicator)

# --- sentence segmentation -----------------------------------------------------


def test_two_terminated_sentences():
    assert split_sentences("A method. A system.").n == 2


def test_empty_text_has_no_sentences():
    assert split_sentences("").n == 0
    assert split_sentences("   \n\n  ").n == 0


def test_numbered_claims_stay_whole():
    # One sentence per claim: the bare enumerator never terminates.
    ss = split_sentences("1. A widget.\n2. The widget of claim 1.")
    assert ss.n == 2
    assert ss.sentences == ("1. A widget.", "2. The widget of claim 1.")


def test_blank_lines_split_paragraphs():
    ss = split_sentences("no terminator here\n\nsecond paragraph")
    assert ss.n == 2


def test_exclamation_and_question_terminate():
    assert split_sentences("Really! Why? Because.").n == 3


def test_ellipsis_does_not_over_split():
    assert split_sentences("Wait... done.").n == 1 or split_sentences("Wait... done.").n == 2


def test_mid_number_not_a_boundary():
    # "claim 1." ends a sentence only at a real boundary; "7." inside prose
    # followed by more text splits normally.
    ss = split_sentences("Delivered in batch 7. Next sentence.")
    assert ss.n == 2


# Terminators, digits for enumerators like "12." (one Arabic-Indic), letters,
# whitespace that str.isspace() accepts beyond space, tab and newline
# (\x1c-\x1f, NEL, NBSP, U+2003, the line and paragraph separators, the
# ideographic space), and two look-alikes it rejects (U+200B, U+00B7).
_SPLIT_ALPHABET = st.sampled_from(
    list(".!?") + list("0123456789") + list("ab ") + list("\t\n\r\v\f\x1c\x1f\x85\xa0")
    + ["\u2003", "\u2028", "\u2029", "\u3000", "\u200b", "\u00b7", "\u0663"]
)


@settings(max_examples=400)
@given(pieces=st.lists(st.one_of(_SPLIT_ALPHABET,
                                 st.integers(0, 99).map(lambda k: f"{k}."),
                                 st.sampled_from(["Word. ", "Done!", "Why?", " 12. ", "..."])),
                       max_size=40))
def test_split_block_matches_character_walk(pieces):
    block = "".join(pieces)
    assert _split_block(block) == oracle_split_block(block)


def test_short_segments_kept():
    ss = split_sentences("Go. The quick brown fox jumps over the lazy dog.")
    assert ss.n == 2
    assert len(tokenize_for_similarity(ss.sentences[0])) < 3
    assert len(tokenize_for_similarity(ss.sentences[1])) >= 3


def test_tokenization_removes_stopwords_keeps_numbers():
    tokens = tokenize_for_similarity("The widget of claim 1 is novel")
    assert "the" not in tokens and "of" not in tokens and "is" not in tokens
    assert "1" in tokens and "widget" in tokens


# Arbitrary text, plus words and stopwords, terminators, blank lines, and
# characters whose lowercase is ASCII or longer than themselves: the Kelvin
# sign lowers to "k", "İ" to "i" and a combining dot.
_TOKEN_TEXT = st.lists(
    st.one_of(st.text(max_size=6),
              st.sampled_from(["The", "of", "Claim", "7", "\u0130", "\u212a", "\u1e9e", "\u03a9",
                               ". ", "! ", "\n\n", " ", "-"])),
    max_size=30,
).map("".join)


@given(text=_TOKEN_TEXT)
@settings(max_examples=300)
def test_sentence_token_sets_are_the_similarity_tokens(text):
    ss = split_sentences(text)
    assert ss.token_sets == tuple(frozenset(tokenize_for_similarity(s)) for s in ss.sentences)


def test_a_combining_dot_splits_a_word_and_the_kelvin_sign_reads_as_k():
    # "\u0130tem" lowers to "i", U+0307, "tem", and "i" is a stopword.
    assert tokenize_for_similarity("\u0130tem \u212a9") == ["tem", "k9"]
    assert split_sentences("\u0130tem \u212a9.").token_sets == (frozenset({"tem", "k9"}),)


def test_stopword_list_is_pinned():
    assert STOPWORD_LIST_ID == "en-v1"
    assert len(stopwords()) == 179
    assert "the" in stopwords()


# --- jaccard and the pair indicator ---------------------------------------------


def test_jaccard_trivials():
    assert jaccard({"a", "b"}, {"a", "b"}) == 1.0
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"novel", "method", "system"}, {"method", "system", "device"}) == 0.5


@given(
    a=st.frozensets(st.text(min_size=1, max_size=4), max_size=8),
    b=st.frozensets(st.text(min_size=1, max_size=4), max_size=8),
)
def test_jaccard_properties(a, b):
    val = jaccard(a, b)
    assert 0.0 <= val <= 1.0
    assert val == jaccard(b, a)
    assert jaccard(a, a) == 1.0


def test_rep_indicator_boundary_inclusive():
    # J = 2/5 = 0.4 exactly
    a = frozenset({"x1", "x2", "u1", "u2"})
    b = frozenset({"x1", "x2", "v1"})
    assert jaccard(a, b) == 0.4
    assert rep_indicator(a, b, 0.4) == 1
    # J = 39/100 < 0.4
    shared = {f"s{i}" for i in range(39)}
    a2 = frozenset(shared | {f"a{i}" for i in range(30)})
    b2 = frozenset(shared | {f"b{i}" for i in range(31)})
    assert jaccard(a2, b2) == 0.39
    assert rep_indicator(a2, b2, 0.4) == 0
    assert rep_indicator(frozenset({"q"}), frozenset({"q"}), 0.0) == 1


@given(k=st.integers(0, 6), extra=st.integers(0, 6))
def test_rep_indicator_exact_threshold_equality(k, extra):
    # Construct a pair whose similarity is exactly k/(k+extra); the same
    # division feeds the threshold, so the boundary must register as >=.
    m = k + extra
    if m == 0:
        return
    shared = {f"s{i}" for i in range(k)}
    a = frozenset(shared | {f"a{i}" for i in range(extra)})
    b = frozenset(shared)
    if not b and not a:
        return
    t = k / m if m else 0.0
    assert rep_indicator(a, b, t) == 1


def test_rep_indicator_validates_threshold():
    with pytest.raises(MetricsError):
        rep_indicator(frozenset(), frozenset(), 1.5)


# --- the repetition metric -------------------------------------------------------


def _doc(sentences: list[str]) -> str:
    # One sentence per paragraph keeps segmentation out of the picture.
    return "\n\n".join(sentences)


def test_irr_two_identical_sentences():
    sentences = ["adaptive controller adjusts gain", "adaptive controller adjusts gain"]
    cfg = IrrConfig(t=0.2)
    value = irr_of_text(_doc(sentences), cfg).value
    expected = 1 / (1 + 1e-6)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(oracle_irr(sentences, 0.2, 1e-6), abs=0)


def test_irr_three_disjoint_sentences():
    sentences = ["alpha beta gamma", "delta epsilon zeta", "eta theta iota"]
    cfg = IrrConfig(t=0.2)
    result = irr_of_text(_doc(sentences), cfg)
    assert result.pair_sum == 0
    assert result.total_pairs == 3
    assert result.value == pytest.approx(3 / 1e-6, abs=1e-3)
    assert result.value == oracle_irr(sentences, 0.2, 1e-6)


def test_irr_four_sentences_two_repeating_pairs():
    sentences = [
        "alpha beta gamma", "alpha beta gamma",
        "delta epsilon zeta", "delta epsilon zeta",
    ]
    cfg = IrrConfig(t=0.2)
    result = irr_of_text(_doc(sentences), cfg)
    assert result.pair_sum == 2
    assert result.total_pairs == 6
    assert result.value == pytest.approx(6 / (2 + 1e-6), abs=1e-9)
    assert result.value == oracle_irr(sentences, 0.2, 1e-6)


def test_irr_undefined_below_two_sentences():
    with pytest.raises(IrrUndefinedError):
        irr_of_text("single sentence only", IrrConfig(t=0.2))


def test_irr_cap_applies():
    sentences = ["alpha beta gamma", "delta epsilon zeta"]
    capped = IrrConfig(t=0.2, cap=100.0)
    assert irr_of_text(_doc(sentences), capped).value == 100.0


def test_irr_config_validation():
    with pytest.raises(ConfigError, match=r"^threshold t must lie in \[0, 1\], got 1.5$"):
        IrrConfig(t=1.5)
    for epsilon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="^epsilon must be positive and finite"):
            IrrConfig(t=0.2, epsilon=epsilon)
    for cap in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="^cap must be positive and finite"):
            IrrConfig(t=0.2, cap=cap)


_VOCAB = ["adaptive", "controller", "gain", "sensor", "widget", "method",
          "system", "claim", "signal", "loop", "the", "of", "and", "1", "2"]


def _random_doc(rng: random.Random, max_sentences: int = 50) -> list[str]:
    n = rng.randint(0, max_sentences)
    return [
        " ".join(rng.choices(_VOCAB, k=rng.randint(1, 8))) for _ in range(n)
    ]


def test_irr_matches_oracle_on_random_docs():
    rng = random.Random(1234)
    checked = 0
    for _ in range(200):
        sentences = _random_doc(rng)
        if len(sentences) < 2:
            continue
        t = rng.choice([0.0, 0.1, 0.2, 0.4, 0.5, 0.8, 1.0])
        mine = irr_of_text(_doc(sentences), IrrConfig(t=t)).value
        theirs = oracle_irr(sentences, t, 1e-6)
        assert mine == theirs  # exact, not approximate
        checked += 1
    assert checked > 150


def test_irr_nondecreasing_in_threshold():
    rng = random.Random(99)
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    for _ in range(100):
        sentences = _random_doc(rng, max_sentences=20)
        if len(sentences) < 2:
            continue
        text = _doc(sentences)
        values = [irr_of_text(text, IrrConfig(t=t)).value for t in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_irr_pure():
    text = _doc(["alpha beta", "alpha beta", "gamma delta"])
    cfg = IrrConfig(t=0.3)
    assert irr_of_text(text, cfg) == irr_of_text(text, cfg)


# --- ROUGE ----------------------------------------------------------------------


def test_rouge_identity_all_variants():
    text = "the adaptive controller adjusts loop gain"
    for variant in ("r1", "r2", "rl"):
        assert rouge_f1(text, text, variant) == 1.0


def test_rouge_disjoint_is_zero():
    for variant in ("r1", "r2", "rl"):
        assert rouge_f1("alpha beta gamma", "delta epsilon zeta", variant) == 0.0


def test_rouge1_worked_example():
    # P = 2/3, R = 1 -> F1 = 0.8 exactly
    assert rouge_f1("the cat sat", "the cat", "r1") == 0.8


def test_rouge2_counts_bigrams():
    # shared bigram ("a","b") once; cand has 2 bigrams, ref has 1
    assert rouge_f1("a b c", "a b", "r2") == pytest.approx(2 * 1 / (2 + 1))


def test_rouge_l_respects_order():
    # tokens shared but reversed: LCS length 1
    value = rouge_f1("a b", "b a", "rl")
    assert value == pytest.approx(2 * 1 / 4)
    assert rouge_f1("a b", "b a", "r1") == 1.0


def test_rouge_empty_candidate_scores_zero():
    assert rouge_f1("", "something here", "r1") == 0.0
    assert rouge_f1("", "something here", "rl") == 0.0


def test_rouge_both_empty_score_one():
    assert rouge_f1("", "", "r1") == 1.0


def test_rouge_unknown_variant():
    with pytest.raises(MetricsError):
        rouge_f1("a", "a", "r3")


_words = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=12).map(" ".join)


@given(candidate=_words, reference=_words)
@settings(max_examples=60)
def test_rouge_bounds_and_identity(candidate, reference):
    for variant in ("r1", "r2", "rl"):
        value = rouge_f1(candidate, reference, variant)
        assert 0.0 <= value <= 1.0
        assert rouge_f1(candidate, candidate, variant) == 1.0


# --- exact kernels against their straight-line oracles ----------------------------


# Each side draws one token the other never holds: a token of the longer side
# with no mask must leave the column alone, one of the shorter side must not
# match.
@given(a=st.lists(st.sampled_from("abcdx"), max_size=40),
       b=st.lists(st.sampled_from("abcdy"), max_size=40))
@settings(max_examples=300)
def test_lcs_len_matches_dp_oracle(a, b):
    expected = oracle_lcs_len(a, b)
    assert _lcs_len(a, b) == expected
    assert _lcs_len(b, a) == expected


# Lengths 0-12 over three tokens: one side shorter, longer or equal, empty
# sides, and enough repeats that clipping decides most matches.
_ngram_tokens = st.lists(st.sampled_from("abc"), max_size=12)


@given(cand=_ngram_tokens, ref=_ngram_tokens)
@settings(max_examples=400)
def test_overlaps_match_the_clipped_oracle_at_every_order(cand, ref):
    overlaps = _overlaps(cand, ref, 4)
    assert overlaps == [oracle_ngram_overlap(cand, ref, n) for n in range(1, 5)]
    assert _overlaps(ref, cand, 4) == [(m, r, c) for m, c, r in overlaps]


@pytest.mark.parametrize("cand, ref", [
    ([], []), ([], list("aab")), (list("aab"), []),
    (list("aaaa"), list("aa")), (list("aa"), list("aaaa")), (list("abab"), list("baba")),
], ids=["both_empty", "empty_cand", "empty_ref", "cand_longer", "cand_shorter", "equal_length"])
def test_overlaps_edge_cases(cand, ref):
    assert _overlaps(cand, ref, 4) == [oracle_ngram_overlap(cand, ref, n) for n in range(1, 5)]


def test_lcs_len_matches_dp_oracle_across_word_boundaries():
    # Sides longer than one 64-bit word, with alphabets from binary to sparse.
    rng = random.Random(7)
    for _ in range(60):
        alphabet = [f"w{k}" for k in range(rng.choice((2, 3, 8, 40)))]
        a = rng.choices(alphabet, k=rng.randint(0, 300))
        b = rng.choices(alphabet, k=rng.randint(0, 300))
        assert _lcs_len(a, b) == oracle_lcs_len(a, b)


def test_lcs_len_edge_cases():
    assert _lcs_len([], []) == 0
    assert _lcs_len([], ["a"]) == 0
    assert _lcs_len(["a", "a", "a"], ["a"]) == 1
    assert _lcs_len(["x", "y"], ["p", "q", "r"]) == 0
    assert _lcs_len(list("abcbdab"), list("bdcaba")) == 4


_THRESHOLDS = (0.0, 0.2, 0.25, 1 / 3, 0.4, 0.5, 1.0)


@given(
    sets=st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=6), max_size=14),
    t=st.sampled_from(_THRESHOLDS),
)
@settings(max_examples=300)
def test_pair_sum_matches_oracle(sets, t):
    assert _pair_sum(tuple(sets), (t,)) == (oracle_pair_sum(sets, t),)


@given(
    sets=st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=6), max_size=14),
    thresholds=st.lists(st.sampled_from(_THRESHOLDS), min_size=1, max_size=3),
)
@settings(max_examples=300)
def test_pair_sum_counts_every_threshold_in_one_sweep(sets, thresholds):
    # Unsorted tuples with repeats, 0 and 1: one count per entry, in order.
    expected = tuple(oracle_pair_sum(sets, t) for t in thresholds)
    assert _pair_sum(tuple(sets), tuple(thresholds)) == expected


@pytest.mark.parametrize("t", _THRESHOLDS)
def test_pair_sum_counts_exact_ties_and_empty_sets(t):
    # One pair at each similarity 1/4, 1/3, 2/5, 1/2 and 1; two empty sets.
    sets = (
        frozenset("ab"), frozenset("bcd"),  # 1/4
        frozenset("pq"), frozenset("qr"),  # 1/3
        frozenset("uvw"), frozenset("vwx"),  # 2/4 = 1/2
        frozenset("ghijk"), frozenset("hilm"),  # 2/7
        frozenset("stu1"), frozenset("st2"),  # 2/5
        frozenset(), frozenset(),
    )
    assert _pair_sum(sets, (t,)) == (oracle_pair_sum(sets, t),)
    if t > 0.0:
        ties = sum(1 for j in (0.25, 1 / 3, 0.5, 2 / 7, 0.4) if j >= t)
        assert _pair_sum(sets, (t,)) == (ties + 1,)


_PINNED_CANDIDATE = """The adaptive controller adjusts loop gain from sensor feedback. \
The sensor reports the loop error to the controller.

In one embodiment, the controller stores a gain schedule. The gain schedule maps the \
loop error to a gain value! Does the controller adapt the schedule? It does, in real time.

1. A method for adaptive control, comprising measuring a loop error.
2. The method of claim 1, wherein the gain schedule is updated online."""

_PINNED_REFERENCE = """A controller adjusts the gain of a control loop using sensor \
feedback. The sensor measures loop error.

The gain schedule maps the loop error to a gain value. In some embodiments the \
controller updates the gain schedule in real time.

1. A method of adaptive control comprising measuring a loop error and adjusting a gain.
2. The method of claim 1, wherein the schedule is updated online."""


def test_pinned_rouge_l_and_irr_on_a_multi_paragraph_text():
    # Values from the quadratic DP and the per-pair set loop.
    assert rouge_f1(_PINNED_CANDIDATE, _PINNED_REFERENCE, "rl") == 0.6285714285714286
    expected = {0.2: (4, 6.999998250000437), 0.25: (2, 13.9999930000035), 0.4: (0, 28000000.0)}
    for t, (pair_sum, value) in expected.items():
        result = irr_of_text(_PINNED_CANDIDATE, IrrConfig(t=t))
        assert (result.pair_sum, result.total_pairs, result.value) == (pair_sum, 28, value)


# --- BLEU -----------------------------------------------------------------------


def test_bleu_identity_is_exactly_100():
    texts = ["the adaptive controller adjusts loop gain from sensor feedback"]
    assert bleu(texts, texts) == 100.0


def test_bleu_corpus_identity():
    candidates = ["a method for control", "a system with sensors and a loop"]
    assert bleu(candidates, list(candidates)) == 100.0


def test_bleu_disjoint_is_tiny():
    value = bleu(["alpha beta gamma delta"], ["epsilon zeta eta theta"])
    assert 0.0 <= value < 1.0


def test_bleu_unigram_only_worked_example():
    # 5-word pair sharing exactly one unigram. Pinned smoothing gives
    # p1 = 2/6 (add-one), and floors p2 = .01/4, p3 = .01/3, p4 = .01/2; BP = 1.
    value = bleu(["a b c d e"], ["a x y z w"])
    expected = 100.0 * (2 / 6 * 0.01 / 4 * 0.01 / 3 * 0.01 / 2) ** 0.25
    assert value == pytest.approx(expected, abs=1e-9)
    raw_p1 = 1 / 5
    assert 0.0 < value < raw_p1 * 100.0
    assert value == pytest.approx(oracle_bleu_single("a b c d e", "a x y z w"), abs=1e-9)


def test_bleu_brevity_penalty_applies():
    longer = bleu(["a b c d"], ["a b c d"])
    shorter = bleu(["a b"], ["a b c d"])
    assert shorter < longer


def test_bleu_matches_oracle_on_random_pairs():
    rng = random.Random(7)
    for _ in range(30):
        cand = " ".join(rng.choices(_VOCAB, k=rng.randint(1, 15)))
        ref = " ".join(rng.choices(_VOCAB, k=rng.randint(1, 15)))
        assert bleu([cand], [ref]) == pytest.approx(
            oracle_bleu_single(cand, ref), abs=1e-9
        )


def test_bleu_length_mismatch():
    with pytest.raises(MetricsError, match=r"^candidates \(1\) and references \(2\) must align$"):
        bleu(["a"], ["a", "b"])
    with pytest.raises(MetricsError, match=r"^candidates \(0\) and references \(0\) must align$"):
        bleu([], [])


def test_bleu_empty_candidate_is_zero():
    assert bleu([""], ["some reference"]) == 0.0


# --- length accounting ------------------------------------------------------------


def test_length_stats_whitespace_counter():
    stats = length_stats("a b c")
    assert stats.words == 3 and stats.tokens == 3 and stats.chars == 5


def test_length_stats_empty():
    stats = length_stats("")
    assert (stats.tokens, stats.words, stats.sentences, stats.chars) == (0, 0, 0, 0)


def test_length_stats_hundred_words():
    text = " ".join(f"w{i}" for i in range(100))
    assert length_stats(text).tokens == 100


def test_vocab_counter_greedy_longest_match(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("widget\nwid\nget\ncon\ntrol\n", "utf-8")
    counter = VocabCounter(vocab)
    assert counter.count("widget") == 1          # longest match wins
    assert counter.count("control") == 2         # con + trol
    assert counter.count("widgetry") == 3        # widget + r + y
    stats = length_stats("widget control", counter)
    assert stats.tokens == 3 and stats.words == 2


def test_counter_config():
    with pytest.raises(ConfigError, match="vocabulary file not found"):
        VocabCounter("/nonexistent/vocab.txt")


def test_metric_purity_bit_identical():
    cand = "the adaptive gain loop tracks the sensor signal"
    ref = "a fixed gain loop ignores the sensor signal"
    for _ in range(3):
        assert bleu([cand], [ref]) == bleu([cand], [ref])
        assert rouge_f1(cand, ref, "rl") == rouge_f1(cand, ref, "rl")
        assert math.isclose(
            irr_of_text(cand + ". " + ref + ".", IrrConfig(t=0.2)).value,
            irr_of_text(cand + ". " + ref + ".", IrrConfig(t=0.2)).value,
            rel_tol=0.0, abs_tol=0.0,
        )
