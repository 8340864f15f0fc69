"""Time the ROUGE-L and repetition-rate kernels on seeded patent-length texts.

    python3 scripts/kernel_timing.py --src src --words 4000 17000

For each length, builds a candidate and a reference of about that many words
from the benchmark's synthetic vocabulary (perfbench/textgen.py): the
candidate copies a third of the reference's sentences and repeats a tenth of
its own. Then times metrics._lcs_len on the lowercase whitespace tokens of the
pair, and metrics.irr_of_text on the candidate at t=0.2 and t=0.4. Prints one
JSON object with the median of --repeats runs per kernel, and the kernel
results, so that two source trees (--src) can be compared on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def make_pair(n_words: int, seed: int) -> tuple[str, str]:
    from textgen import sentence, sentences

    rng = random.Random(f"kernel-timing-{seed}-{n_words}")
    ref = sentences(rng, n_words)
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
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    from patentgen import metrics

    out: dict = {"repeats": args.repeats, "seed": args.seed, "sizes": {}}
    for n_words in args.words:
        candidate, reference = make_pair(n_words, args.seed)
        cand, ref = candidate.lower().split(), reference.lower().split()
        row: dict = {"candidate_words": len(cand), "reference_words": len(ref),
                     "sentences": metrics.split_sentences(candidate).n}
        row["lcs_s"], row["lcs"] = timed(lambda: metrics._lcs_len(cand, ref), args.repeats)
        for t in (0.2, 0.4):
            key = "irr_t" + f"{t:g}".replace(".", "")
            cfg = metrics.IrrConfig(t=t)
            row[key + "_s"], result = timed(lambda: metrics.irr_of_text(candidate, cfg),
                                            args.repeats)
            row[key + "_pair_sum"] = result.pair_sum
        out["sizes"][str(n_words)] = row
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
