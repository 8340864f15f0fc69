"""Shared test plumbing: mock gateways, the standard pipeline playbook, and
independent metric oracles.

The oracles deliberately re-implement their metrics as straight-line code
(own tokenizer, own double loop) so production optimizations are checked
against a second route, not against themselves.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time
from importlib import resources
from pathlib import Path

from patentgen.agents import AgentRuntime
from patentgen.gateway import (BackendConfig, BadStatusError, LlmGateway, MockBackend,
                               MockPlaybook, PlaybookRule)


def mock_gateway(playbook: MockPlaybook, retry_max: int = 2, **config_kwargs):
    config = BackendConfig(
        name="default", kind="mock", model_id="mock-model",
        retry_max=retry_max, backoff_s=0.0, **config_kwargs,
    )
    backend = MockBackend(playbook, config)
    gateway = LlmGateway(backend, config=config, sleep_fn=lambda s: None)
    return gateway, backend


def mock_gateways(playbook: MockPlaybook, **kwargs) -> dict[str, LlmGateway]:
    gateway, _ = mock_gateway(playbook, **kwargs)
    return {"default": gateway}


def runtime_for(playbook: MockPlaybook, recorder=None, **kwargs) -> AgentRuntime:
    return AgentRuntime(gateways=mock_gateways(playbook, **kwargs), recorder=recorder)


def rule(match: str, *responses, regex: bool = False) -> PlaybookRule:
    return PlaybookRule(match=match, responses=list(responses), regex=regex)


COMPONENT_RESPONSES = {
    "title": "<Title>Adaptive Widget Control System</Title>",
    "abstract": "<Abstract>An apparatus for adaptive widget control.</Abstract>",
    "background": "<Background>Existing widgets lack adaptive gain control.</Background>",
    "summary": "<Summary>The invention provides online gain adaptation.</Summary>",
    "claims": "<Claims>1. A method for adaptive control.\n2. The method of claim 1, with sensors.</Claims>",
}

COMPONENT_MATCHERS = {
    "title": "please generate a patent title",
    "abstract": "please generate a patent abstract",
    "background": "detailed background information",
    "summary": "generate the summary for the patent",
    "claims": "please generate patent claims",
}

MATCH_PLANNER = "detailed writing guide for the patent description"
MATCH_EXPAND = "split this section of the description writing guide"
MATCH_RETRIEVE = "copy the all relevant content"
MATCH_WRITE = "Just output this subsection of patent description"
MATCH_REFINE = "Only output the revised subsection"
MATCH_REVIEW = "<Requirement>"

PASS_REVIEW = "<Result>Pass</Result><Advice>solid subsection</Advice>"
FAIL_REVIEW = "<Result>Fail</Result><Advice>add implementation detail</Advice>"

MATCH_INVENTOR = "You are the inventor"
MATCH_QUALITY = "meets the quality standards"
MATCH_COLLECT = "summarize the key parts"

PASS_QUALITY = "<Result> Pass </Result>"
FAIL_QUALITY = "<Result> Fail </Result><Reason> missing implementation detail </Reason>"


def planner_response(m: int) -> str:
    return "\n\n".join(f"<Section-{k}> Overview of part {k} </Section-{k}>" for k in range(1, m + 1))


def expansion_response(t: int, label: str = "") -> str:
    return "\n".join(
        f"<Subsection-{j}> Write about {label or 'aspect'} {j} </Subsection-{j}>"
        for j in range(1, t + 1)
    )


def pipeline_playbook(
    sections: int = 2,
    subsections: int | list[int] | None = 2,
    review_script: list[str] | None = None,
    extra_rules: list[PlaybookRule] | None = None,
) -> MockPlaybook:
    """Playbook covering every role of a full pipeline run.

    subsections None means no expansion rule (use with expansion off);
    an int scripts that many subsections per section; a list scripts each
    section's expansion separately.
    """
    rules = list(extra_rules or [])
    for role, matcher in COMPONENT_MATCHERS.items():
        rules.append(rule(matcher, COMPONENT_RESPONSES[role]))
    rules.append(rule(MATCH_PLANNER, planner_response(sections)))
    if subsections is not None:
        counts = [subsections] * sections if isinstance(subsections, int) else subsections
        rules.append(rule(MATCH_EXPAND, *[expansion_response(t, f"s{i+1}") for i, t in enumerate(counts)]))
    rules.append(rule(MATCH_RETRIEVE, "Relevant facts: adaptive gain control from claims."))
    rules.append(rule(MATCH_WRITE, "The system comprises an adaptive control unit."))
    rules.append(rule(MATCH_REFINE, "The system comprises an adaptive control unit with sensor feedback."))
    rules.append(rule(MATCH_REVIEW, *(review_script or [PASS_REVIEW])))
    return MockPlaybook(rules=rules)


class PromptFunctionBackend:
    """A backend whose reply is a pure function of the prompt, so any order
    of arrival gets the same answers. It covers every pipeline role and the
    dataset builder's inventor, reviewer and tree collector: the prompt's
    hash picks the section and subsection counts, the examiner's and the
    reviewer's verdicts, some malformed first answers that force a re-ask,
    and some empty retrievals. A prompt for which fail_when gives a text is
    answered with status 400 and that text. It counts the sends in flight
    and keeps the peak."""

    def __init__(self, delay_s: float = 0.0, fail_when=None):
        self.delay_s = delay_s
        self.fail_when = fail_when
        self.calls = self.inflight = self.peak = 0
        self._lock = threading.Lock()

    def send(self, req):
        prompt = req.rendered_prompt()
        with self._lock:
            self.calls += 1
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            time.sleep(self.delay_s)
            detail = self.fail_when and self.fail_when(prompt)
            if detail:
                raise BadStatusError(400, detail)
            content = self.reply(prompt)
        finally:
            with self._lock:
                self.inflight -= 1
        usage = {"prompt_tokens": len(prompt.split()), "completion_tokens": len(content.split())}
        return content, "stop", usage

    @staticmethod
    def reply(prompt: str) -> str:
        h = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12], 16)
        tag = f"{h:012x}"[:8]
        reasked = "did not follow the required format" in prompt
        for role, matcher in COMPONENT_MATCHERS.items():
            if matcher in prompt:
                return "no tags here" if h % 4 == 0 and not reasked else COMPONENT_RESPONSES[role]
        if MATCH_PLANNER in prompt:
            return planner_response(1 + h % 3)
        if MATCH_EXPAND in prompt:
            return expansion_response(1 + h % 3, tag)
        if MATCH_RETRIEVE in prompt:
            return "" if h % 7 == 0 else f"Relevant facts {tag}."
        if MATCH_WRITE in prompt:
            return f"The unit {tag} adapts its gain."
        if MATCH_REFINE in prompt:
            return f"The unit {tag} adapts its gain from sensor feedback."
        if MATCH_REVIEW in prompt:
            return PASS_REVIEW if h % 3 == 0 else FAIL_REVIEW
        if MATCH_INVENTOR in prompt:
            return f"Answer {tag}: the unit adapts its gain to the load."
        if MATCH_QUALITY in prompt:
            if h % 4 == 0 and not reasked:
                return "The answer looks fine to me."
            if h % 5 == 0:
                return f"<Result> Fail </Result><Reason> answer {tag} is too thin </Reason>"
            return PASS_QUALITY
        if MATCH_COLLECT in prompt:
            return "no sections" if h % 4 == 0 and not reasked else planner_response(1 + h % 3)
        raise AssertionError(f"no reply for prompt {prompt[:80]!r}")


def function_gateways(backend, max_inflight: int) -> dict[str, LlmGateway]:
    config = BackendConfig(name="default", model_id="mock-model", max_inflight=max_inflight,
                           retry_max=0, backoff_s=0.0)
    return {"default": LlmGateway(backend, config=config, sleep_fn=lambda s: None)}


def tree_contents(root: Path) -> dict[str, bytes]:
    """Every file under root by relative path. latency_ms in calls.jsonl is a
    wall-clock reading, so it is zeroed; every other byte counts."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "calls.jsonl":
            lines = [json.loads(line) for line in data.decode("utf-8").splitlines()]
            data = "".join(json.dumps({**e, "latency_ms": 0}) + "\n" for e in lines).encode()
        files[str(path.relative_to(root))] = data
    return files


# --- independent oracles -------------------------------------------------------


def _oracle_stopwords() -> set[str]:
    text = resources.files("patentgen").joinpath("assets/stopwords_en.txt").read_text("utf-8")
    return set(text.split())


def oracle_irr(sentences: list[str], t: float, epsilon: float) -> float:
    """Naive double-loop repetition metric over pre-split sentences."""
    stop = _oracle_stopwords()
    sets = []
    for sentence in sentences:
        tokens = [w for w in re.split(r"[^a-z0-9]+", sentence.lower()) if w and w not in stop]
        sets.append(set(tokens))
    n = len(sets)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sets[i], sets[j]
            if not a and not b:
                similarity = 1.0
            else:
                union = len(a | b)
                similarity = len(a & b) / union if union else 1.0
            if similarity >= t:
                count += 1
    return (n * (n - 1) // 2) / (count + epsilon)


def oracle_bleu_single(candidate: str, reference: str) -> float:
    """Straight-line BLEU-4 for one pair, same pinned smoothing scheme:
    add-one where an order has matches, 0.01/total floor where it has none,
    absent orders skipped."""
    cand = candidate.lower().split()
    ref = reference.lower().split()
    if not cand:
        return 0.0
    product = 1.0
    for n in range(1, 5):
        cand_ngrams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
        ref_ngrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
        total = len(cand_ngrams)
        if total == 0:
            continue
        matches = 0
        remaining = list(ref_ngrams)
        for gram in cand_ngrams:
            if gram in remaining:
                matches += 1
                remaining.remove(gram)
        product *= (matches + 1) / (total + 1) if matches > 0 else 0.01 / total
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return 100.0 * brevity * product ** 0.25


def oracle_lcs_len(a: list[str], b: list[str]) -> int:
    """Two-row dynamic-programming LCS length, O(len(a) * len(b))."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def oracle_split_block(block: str) -> list[str]:
    """One paragraph split by a walk over its characters: a terminator ends a
    sentence when whitespace or the end of the paragraph follows it, unless
    the sentence so far is a bare enumerator such as "12."."""
    sentences: list[str] = []
    start = 0
    for i, ch in enumerate(block):
        if ch not in ".!?":
            continue
        if i + 1 < len(block) and not block[i + 1].isspace():
            continue
        segment = block[start : i + 1]
        if ch == "." and re.fullmatch(r"\s*\d+\.", segment):
            continue
        if segment.strip():
            sentences.append(segment.strip())
        start = i + 1
    tail = block[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def oracle_pair_sum(token_sets, t: float) -> int:
    """Pairs (i < j) whose Jaccard similarity reaches t, by a plain double
    loop over set operations; two empty sets count as identical."""
    count = 0
    for i in range(len(token_sets)):
        for j in range(i + 1, len(token_sets)):
            a, b = token_sets[i], token_sets[j]
            union = len(a | b)
            if (len(a & b) / union if union else 1.0) >= t:
                count += 1
    return count
