"""Time the metric kernels and the one-pass document scorer on seeded
patent-length texts.

    python3 scripts/kernel_timing.py --src src --words 4000 17000

For each length and each text source, builds a candidate and a reference of
about that many words: the candidate copies a third of the reference's
sentences and repeats a tenth of its own. There are two sources, both over
the benchmark's synthetic vocabulary (perfbench/textgen.py):

  uniform  textgen's own sentences, every word equally likely
  zipf     words drawn with weight 1/rank**--zipf-s, so a few words are in
           most sentences; this is the worst case of the inverted-index pair
           count, whose posting lists then grow with the sentence count

Then times metrics._lcs_len on the lowercase whitespace tokens of the pair,
metrics.irr_of_text on the candidate at t=0.2 and t=0.4, and
bench.score_document on the pair at the default MetricConfig. Prints one JSON
object with the median of --repeats runs per kernel, the pair sums and a
digest of the report row, so that two source trees (--src) can be compared
on the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def zipf_sentence_maker(s: float):
    from textgen import WORDS

    cum_weights = list(accumulate(1.0 / rank**s for rank in range(1, len(WORDS) + 1)))

    def sentence(rng: random.Random) -> str:
        body = " ".join(rng.choices(WORDS, cum_weights=cum_weights, k=rng.randint(8, 22)))
        return body[0].upper() + body[1:] + "."

    return sentence


def make_pair(n_words: int, seed: int, source: str, sentence) -> tuple[str, str]:
    rng = random.Random(f"kernel-timing-{source}-{seed}-{n_words}")
    ref: list[str] = []
    count = 0
    while count < n_words:
        ref.append(sentence(rng))
        count += len(ref[-1].split())
    cand: list[str] = []
    count = 0
    while count < n_words:
        roll = rng.random()
        if roll < 0.33:
            s = rng.choice(ref)
        elif roll < 0.43 and cand:
            s = rng.choice(cand)
        else:
            s = sentence(rng)
        cand.append(s)
        count += len(s.split())
    return " ".join(cand), " ".join(ref)


def timed(fn, repeats: int):
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to time")
    parser.add_argument("--words", type=int, nargs="+", default=[4000, 17000])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--zipf-s", type=float, default=1.0, help="exponent of the zipf source")
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    from textgen import sentence

    from patentgen import bench, metrics

    sources = {"uniform": sentence, "zipf": zipf_sentence_maker(args.zipf_s)}
    cfg = bench.MetricConfig()
    out: dict = {"repeats": args.repeats, "seed": args.seed, "zipf_s": args.zipf_s,
                 "sources": {}}
    for source, make_sentence in sources.items():
        sizes = out["sources"][source] = {}
        for n_words in args.words:
            candidate, reference = make_pair(n_words, args.seed, source, make_sentence)
            cand, ref = candidate.lower().split(), reference.lower().split()
            row: dict = {"candidate_words": len(cand), "reference_words": len(ref),
                         "sentences": metrics.split_sentences(candidate).n}
            row["lcs_s"], row["lcs"] = timed(lambda: metrics._lcs_len(cand, ref), args.repeats)
            for t in (0.2, 0.4):
                key = bench.irr_label(t)
                irr_cfg = metrics.IrrConfig(t=t)
                row[key + "_s"], result = timed(lambda: metrics.irr_of_text(candidate, irr_cfg),
                                                args.repeats)
                row[key + "_pair_sum"] = result.pair_sum
            row["score_document_s"], doc_row = timed(
                lambda: bench.score_document("pair", candidate, reference, cfg), args.repeats)
            row["row_sha256"] = hashlib.sha256(
                json.dumps(doc_row, sort_keys=True).encode("utf-8")).hexdigest()
            sizes[str(n_words)] = row
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
