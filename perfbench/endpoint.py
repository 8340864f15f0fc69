"""Fake chat-completions endpoint for the benchmark.

Run as its own process:

    python3 perfbench/endpoint.py --seed 7 --base-ms 4 --per-token-ms 0.01 \
        --malformed-share 0.15

It listens on 127.0.0.1 (an ephemeral port, printed as "PORT <n>" on
stdout) and serves the wire shape `HttpBackend` speaks:
POST /chat/completions. Every answer is a pure function of (seed,
messages), so call order, concurrency and caching cannot change what a
request gets back. Each response is held until `base + per_token *
completion_tokens` after the request arrived, which models a remote
model's latency.

GET /log returns, and clears, one record per request served: arrival and
finish time (time.monotonic, the same clock as the benchmark process),
handling time, prompt and completion tokens (whitespace words) and the
request kind.

The fake model reads the structure it should produce from the inputs the
benchmark generated (see inputs.py):

- the planner emits one section per "Key point k:" line of draft answer 4,
  and each section lists that key point's aspects;
- each aspect becomes one subsection guideline, naming the check tokens
  (`zq...`) listed for it;
- the examiner fails a subsection until its text states every check token
  of its guideline, advising the first missing one, and the refiner adds
  exactly that token. A node with t tokens therefore passes after t
  refinement rounds, and one with more tokens than the pipeline's
  max_refine_rounds is accepted with a warning;
- a share of first-attempt component and planner answers is malformed, so
  the agents' parse-retry path runs;
- the draft-quality reviewer fails an answer that says the figures are
  undisclosed, which the inventor says for records marked that way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from textgen import UNDISCLOSED, paragraph_text, prose, words

_COMPONENTS = (
    ("please generate a patent title", "Title"),
    ("please generate a patent abstract", "Abstract"),
    ("detailed background information", "Background"),
    ("generate the summary for the patent", "Summary"),
    ("generate patent claims", "Claims"),
)
_KINDS = (
    ("<Requirement>", "examiner"),
    ("detailed writing guide for the patent description", "planner"),
    ("split this section of the description writing guide", "expand"),
    ("copy the all relevant content", "retrieval"),
    ("Just output this subsection of patent description", "write"),
    ("Only output the revised subsection", "refine"),
    ("You are the inventor of the patent above", "inventor"),
    ("# Requirements: The text of this draft section", "quality"),
    ("summarize the key parts", "pgtree"),
)
_QUESTIONS = (
    ("technical problem", 1),
    ("technical background", 2),
    ("detailed technical solution", 3),
    ("key points of the invention", 4),
    ("each figure", 5),
)

_KEY_POINT_RE = re.compile(r"Key point (\d+): ([a-z ]+); aspects: ([^.]*) \.")
_COVERING_RE = re.compile(r"covering: (.*?) \.")
_ASPECT_RE = re.compile(r"^(.*?) \[needs(.*?)\]$")
_CHECK_RE = re.compile(r"\bzq\w+")


class UnknownPrompt(ValueError):
    pass


def _between(text: str, start: str, end: str | None = None) -> str:
    i = text.index(start) + len(start)
    if end is None:
        return text[i:]
    return text[i : text.index(end, i)]


def _digest(seed: int, messages: list[dict]) -> int:
    payload = json.dumps([seed, [[m["role"], m["content"]] for m in messages]])
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest()[:8], "big")


def _alpha_words(text: str) -> list[str]:
    return [w for w in re.findall(r"[A-Za-z]+", text) if not w.startswith("zq")]


def _component(tag: str, rng: random.Random, malformed: bool) -> str:
    if tag == "Title":
        body = words(rng, rng.randint(6, 12)).title()
    elif tag == "Claims":
        n = rng.randint(6, 12)
        claims = [f"1. A system comprising {words(rng, rng.randint(15, 30))}."]
        claims += [
            f"{i}. The system of claim {rng.randint(1, i - 1)}, wherein "
            f"{words(rng, rng.randint(12, 26))}."
            for i in range(2, n + 1)
        ]
        body = "\n".join(claims)
    elif tag == "Abstract":
        body = prose(rng, 90, 140)
    else:
        body = prose(rng, 150, 240)
    if malformed:
        return f"Sure, here is the {tag.lower()}:\n<{tag}>{body}"
    return f"<{tag}>{body}</{tag}>"


def _planner(prompt: str, rng: random.Random, malformed: bool) -> str:
    points = _KEY_POINT_RE.findall(prompt)
    if not points:
        raise UnknownPrompt("planner prompt carries no key points")
    start = 2 if malformed else 1
    return "\n\n".join(
        f"<Section-{k}> Describe key point {point}, {topic}, covering: {aspects} . "
        f"{prose(rng, 12, 25)} </Section-{k}>"
        for k, (point, topic, aspects) in enumerate(points, start=start)
    )


def _expand(prompt: str, rng: random.Random) -> str:
    overview = _between(prompt, "Section Overview: ")
    match = _COVERING_RE.search(overview)
    if not match:
        raise UnknownPrompt("section overview lists no aspects")
    blocks = []
    for j, aspect in enumerate(match.group(1).split(" | "), start=1):
        parsed = _ASPECT_RE.match(aspect.strip())
        if not parsed:
            raise UnknownPrompt(f"bad aspect {aspect!r}")
        topic, checks = parsed.group(1), parsed.group(2).split()
        clause = f", stating {' and '.join(checks)} explicitly" if checks else ""
        blocks.append(
            f"<Subsection-{j}> Explain {topic} in detail{clause}. "
            f"{prose(rng, 10, 20)} </Subsection-{j}>"
        )
    return "\n\n".join(blocks)


def _retrieval(prompt: str, rng: random.Random) -> str:
    tokens = _alpha_words(_between(prompt, "Reference Conetent: ", "\n\nWriting Plan: "))
    n = rng.randint(80, 140)
    start = rng.randrange(max(1, len(tokens) - n))
    return " ".join(tokens[start : start + n])


def _write(prompt: str, rng: random.Random) -> str:
    guideline = _between(prompt, "Subsection Writing Guideline: ", "\n\nBased on the content")
    topic = " ".join(_alpha_words(guideline)[1:7]).lower()
    text = f"This subsection sets out {topic}.\n\n" + paragraph_text(rng, rng.randint(150, 250))
    if rng.random() < 0.15:
        text = "Sure, here is the subsection.\n" + text
    return text


def _refine(prompt: str, rng: random.Random) -> str:
    subsection = _between(
        prompt, "The subsection already written: ", "\n\nFeedback from Patent Examiner: "
    )
    feedback = _between(prompt, "\n\nFeedback from Patent Examiner: ", "\n\nBased on the")
    checks = _CHECK_RE.findall(feedback)
    addition = f"The embodiment further states {checks[0]}. " if checks else ""
    return f"{subsection}\n\n{addition}{prose(rng, 20, 40)}"


def _examiner(prompt: str, rng: random.Random) -> str:
    guideline = _between(prompt, "<WritingGuideline>", "</WritingGuideline>")
    content = _between(prompt, "<Content>", "</Content>")
    stated = set(_CHECK_RE.findall(content))
    missing = [c for c in _CHECK_RE.findall(guideline) if c not in stated]
    if missing:
        return (
            f"<Result>Fail</Result><Advice>The subsection must state {missing[0]} "
            f"explicitly. {prose(rng, 15, 30)}</Advice>"
        )
    return f"<Result>Pass</Result><Advice>{prose(rng, 15, 30)}</Advice>"


def _inventor(prompt: str, rng: random.Random) -> str:
    question = _between(prompt, "Question: ", "\n")
    qid = next((q for marker, q in _QUESTIONS if marker in question), None)
    if qid is None:
        raise UnknownPrompt(f"unknown inventor question {question!r}")
    if qid == 5:
        if UNDISCLOSED in prompt:
            return "The figures are undisclosed in the record. " + prose(rng, 20, 40)
        return "Figure 1 shows " + prose(rng, 40, 90)
    return prose(rng, 60, 140)


def _quality(prompt: str, rng: random.Random) -> str:
    answer = _between(prompt, "# Draft: ", "\n\n# Requirements:")
    if "undisclosed" in answer:
        return (
            "<Result> Fail </Result>\n<Reason> The answer does not describe the "
            f"figures. {prose(rng, 10, 20)} </Reason>"
        )
    return "<Result> Pass </Result>"


def _pgtree(prompt: str, rng: random.Random) -> str:
    description = _between(prompt, "Description: ", "\n\nBased on the provided")
    paragraphs = [p for p in description.split("\n\n") if p.strip()][:8]
    return "\n\n".join(
        f"<Section-{i}> Part {i} covers {' '.join(p.split()[:8]).rstrip('.')}. "
        f"{prose(rng, 15, 30)} </Section-{i}>"
        for i, p in enumerate(paragraphs, start=1)
    )


def answer(seed: int, malformed_share: float, messages: list[dict]) -> tuple[str, str]:
    """(content, kind) for one request; a pure function of its arguments."""
    prompt = messages[0]["content"]
    rng = random.Random(_digest(seed, messages))
    first_attempt = len(messages) == 1
    for marker, tag in _COMPONENTS:
        if marker in prompt:
            malformed = first_attempt and rng.random() < malformed_share
            return _component(tag, rng, malformed), "component"
    for marker, kind in _KINDS:
        if marker not in prompt:
            continue
        if kind == "planner":
            malformed = first_attempt and rng.random() < malformed_share
            return _planner(prompt, rng, malformed), kind
        handler = {
            "examiner": _examiner, "expand": _expand, "retrieval": _retrieval,
            "write": _write, "refine": _refine, "inventor": _inventor,
            "quality": _quality, "pgtree": _pgtree,
        }[kind]
        return handler(prompt, rng), kind
    raise UnknownPrompt(f"no fake-model rule for prompt head {prompt[:60]!r}")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - silence per-request logging
        pass

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/log":
            self._reply(404, {"error": "not found"})
            return
        with self.server.lock:
            entries, self.server.entries = self.server.entries, []
        self._reply(200, {"requests": entries})

    def do_POST(self):
        arrival = time.monotonic()
        if self.path.rstrip("/") != "/chat/completions":
            self._reply(404, {"error": "not found"})
            return
        try:
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            messages = request["messages"]
            content, kind = answer(self.server.seed, self.server.malformed_share, messages)
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
            return
        prompt_tokens = sum(len(m["content"].split()) for m in messages)
        completion_tokens = len(content.split())
        delay = self.server.base_s + self.server.per_token_s * completion_tokens
        time.sleep(max(0.0, arrival + delay - time.monotonic()))
        self._reply(
            200,
            {
                "choices": [{"message": {"role": "assistant", "content": content},
                             "finish_reason": "stop"}],
                "usage": {"prompt_tokens": prompt_tokens,
                          "completion_tokens": completion_tokens},
            },
        )
        finish = time.monotonic()
        with self.server.lock:
            self.server.entries.append(
                {"arrival": arrival, "finish": finish, "handle_s": finish - arrival,
                 "prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens,
                 "kind": kind}
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base-ms", type=float, required=True)
    parser.add_argument("--per-token-ms", type=float, required=True)
    parser.add_argument("--malformed-share", type=float, required=True)
    args = parser.parse_args()

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.seed = args.seed
    server.base_s = args.base_ms / 1000.0
    server.per_token_s = args.per_token_ms / 1000.0
    server.malformed_share = args.malformed_share
    server.lock = threading.Lock()
    server.entries = []
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    # The benchmark holds our stdin open; end of input means it is gone.
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
