"""Seeded pseudo-English used by both the input generators and the fake
endpoint.

Words are lowercase letters only and never contain "zq", so the check
tokens the endpoint plants in guidelines (see endpoint.py) cannot appear
by accident in filler text.
"""

from __future__ import annotations

import random

# A record whose description says this yields a draft that fails the quality
# gate (see endpoint.py).
UNDISCLOSED = "Figures are undisclosed."

_SYLLABLES = (
    "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu ga ge gi go "
    "gu ha he hi ho hu ka ke ki ko ku la le li lo lu ma me mi mo mu na ne ni "
    "no nu pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu va ve "
    "vi vo vu wa we wi wo ya yo"
).split()


def _vocabulary(size: int) -> tuple[str, ...]:
    rng = random.Random(20241212)
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))))
    return tuple(sorted(words))


WORDS = _vocabulary(2400)


def words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def sentence(rng: random.Random) -> str:
    body = words(rng, rng.randint(8, 22))
    return body[0].upper() + body[1:] + "."


def sentences(rng: random.Random, n_words: int) -> list[str]:
    """Sentences until they hold at least n_words words."""
    out: list[str] = []
    count = 0
    while count < n_words:
        out.append(sentence(rng))
        count += len(out[-1].split())
    return out


def paragraph_text(rng: random.Random, n_words: int) -> str:
    """About n_words words of sentences, a blank line after every fifth."""
    parts = sentences(rng, n_words)
    return "\n\n".join(" ".join(parts[i : i + 5]) for i in range(0, len(parts), 5))


def prose(rng: random.Random, lo: int, hi: int) -> str:
    """One paragraph of roughly lo..hi words."""
    return " ".join(sentences(rng, rng.randint(lo, hi)))
