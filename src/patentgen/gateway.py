"""Uniform access to chat-completion endpoints.

One gateway fronts either a real HTTP backend (the de-facto chat-completions
wire shape) or a fully scripted mock backend, adding retries with jittered
exponential backoff, an on-disk response cache (one append-only log per cache
directory, indexed in memory by offset), a token-bucket rate limit, a bound on
requests in flight, and per-call logging into a RunRecord. Tests run against
the mock and a loopback HTTP server; the HTTP path is the same code minus the
playbook.
"""

from __future__ import annotations

import email.utils
import http.client
import json
import os
import random
import re
import threading
import time
import urllib.error
import urllib.request
import weakref
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .core import CallEntry, ConfigError, RunRecord, content_hash

SCHEMA_VERSION_PLAYBOOK = "mock-playbook-v1"

FINISH_STOP = "stop"
FINISH_LENGTH = "length"
FINISH_ERROR = "error"


class GatewayError(Exception):
    pass


class RequestError(GatewayError):
    """The request itself is invalid; never retried."""


class TransportError(GatewayError):
    """Transient transport failure that survived every retry."""


class BadStatusError(GatewayError):
    def __init__(self, code: int, detail: str = ""):
        self.code = code
        super().__init__(f"backend returned status {code}" + (f": {detail}" if detail else ""))


class PlaybookMissError(GatewayError):
    """No playbook rule matched and no default response is configured."""


class _TransientFailure(Exception):
    """Internal marker for a retryable send failure. retry_after is the wait
    in seconds the server asked for, if it named one."""

    def __init__(self, detail: str, retry_after: float | None = None):
        super().__init__(detail)
        self.retry_after = retry_after


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise RequestError(f"bad message role {self.role!r}")


def check_sampling(temperature: float, top_p: float, max_tokens: int) -> None:
    """Raise RequestError unless the sampling settings are in range."""
    if not 0.0 <= temperature <= 2.0:
        raise RequestError(f"temperature {temperature} outside [0, 2]")
    if not 0.0 < top_p <= 1.0:
        raise RequestError(f"top_p {top_p} outside (0, 1]")
    if max_tokens <= 0:
        raise RequestError(f"max_tokens must be positive, got {max_tokens}")


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.5
    top_p: float = 0.9
    max_tokens: int = 4096
    request_tag: str = "untagged"

    def __post_init__(self):
        if not any(m.role == "user" for m in self.messages):
            raise RequestError("request must contain at least one user message")
        check_sampling(self.temperature, self.top_p, self.max_tokens)

    def rendered_prompt(self) -> str:
        return "\n".join(m.content for m in self.messages)


def user_request(prompt: str, **kwargs) -> ChatRequest:
    return ChatRequest(messages=(ChatMessage("user", prompt),), **kwargs)


@dataclass(frozen=True)
class ChatResponse:
    content: str
    finish_reason: str
    usage: dict = field(default_factory=dict)
    cached: bool = False

    def __post_init__(self):
        if not self.content and self.finish_reason != FINISH_ERROR:
            raise GatewayError("empty content must carry finish_reason=error")


def cache_key(req: ChatRequest) -> str:
    """Stable hash over everything that affects the completion.

    request_tag is excluded: it only labels the call in logs.
    """
    payload = json.dumps(
        {
            "model_id": req.model_id,
            "messages": [[m.role, m.content] for m in req.messages],
            "temperature": req.temperature,
            "top_p": req.top_p,
            "max_tokens": req.max_tokens,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return content_hash(payload)


# --- backend configuration ------------------------------------------------


@dataclass(frozen=True)
class BackendConfig:
    """One backend entry of the run config file.

    kind is "http" or "mock". For http backends the API key is read from the
    environment variable named by api_key_env and is never stored in config.
    max_inflight bounds the requests sent to the backend at once; None means
    the kind's default in DEFAULT_MAX_INFLIGHT.
    """

    name: str = "default"
    kind: str = "mock"
    endpoint: str = ""
    api_key_env: str = ""
    model_id: str = "mock-model"
    rpm: int | None = None
    retry_max: int = 2
    timeout_s: float = 60.0
    backoff_s: float = 0.5
    max_tokens_limit: int = 32768
    max_inflight: int | None = None
    playbook_path: str = ""

    def __post_init__(self):
        if min(self.retry_max, self.backoff_s) < 0:
            raise RequestError("retry_max and backoff_s must be >= 0")
        if min(self.timeout_s, self.max_tokens_limit) <= 0:
            raise RequestError("timeout_s and max_tokens_limit must be positive")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise RequestError(f"max_inflight must be >= 1, got {self.max_inflight}")


# A mock playbook hands out each rule's responses in arrival order, so only one
# request at a time keeps a scripted run reproducible. Three keeps a live
# backend busy without holding more than a few replies in memory at once; a
# cache put is one appended line, so the extra width is not spent on the cache.
DEFAULT_MAX_INFLIGHT = {"mock": 1, "http": 3}


# --- mock backend ----------------------------------------------------------


@dataclass
class PlaybookRule:
    match: str
    responses: list
    regex: bool = False
    _cursor: int = field(default=0, repr=False)

    def matches(self, prompt: str) -> bool:
        if self.regex:
            return re.search(self.match, prompt) is not None
        return self.match in prompt

    def next_response(self):
        """Responses are consumed in order; the last one repeats forever."""
        item = self.responses[min(self._cursor, len(self.responses) - 1)]
        self._cursor += 1
        return item


class MockPlaybook:
    def __init__(self, rules: list[PlaybookRule], default_response: str | None = None):
        self.rules = rules
        self.default_response = default_response

    @staticmethod
    def from_record(record: dict) -> "MockPlaybook":
        """A playbook from its JSON object; ConfigError names the first bad rule."""
        rules = record.get("rules", []) if isinstance(record, dict) else None
        if not isinstance(rules, list):
            raise ConfigError("a playbook must be a JSON object with a list of rules")
        for i, r in enumerate(rules):
            if not (isinstance(r, dict) and isinstance(r.get("match"), str)
                    and isinstance(r.get("responses"), list) and r["responses"]):
                raise ConfigError(f"playbook rule {i} needs a string 'match' and a "
                                  f"non-empty 'responses' list, got {r!r}")
            if r.get("regex"):
                try:
                    re.compile(r["match"])
                except re.error as exc:
                    raise ConfigError(
                        f"playbook rule {i}: bad regex {r['match']!r}: {exc}") from exc
        return MockPlaybook(
            [PlaybookRule(r["match"], list(r["responses"]), bool(r.get("regex", False)))
             for r in rules],
            record.get("default_response"),
        )

    @staticmethod
    def load(path: Path | str) -> "MockPlaybook":
        return MockPlaybook.from_record(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_record(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION_PLAYBOOK,
            "rules": [
                {"match": r.match, "regex": r.regex, "responses": r.responses}
                for r in self.rules
            ],
            "default_response": self.default_response,
        }

    def save(self, path: Path | str) -> None:
        Path(path).write_text(
            json.dumps(self.to_record(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )


class MockBackend:
    """Scripted backend: the first matching rule answers, consuming its
    response list sequentially. Response items may be plain strings or error
    directives ({"error": "transport"} / {"error": "status", "code": 500})
    so failure paths are scriptable too.
    """

    def __init__(self, playbook: MockPlaybook, config: BackendConfig | None = None):
        self.playbook = playbook
        self.config = config or BackendConfig(kind="mock")
        self.calls = 0
        self._lock = threading.Lock()

    def send(self, req: ChatRequest) -> tuple[str, str, dict]:
        prompt = req.rendered_prompt()
        with self._lock:
            self.calls += 1
            item = None
            for rule in self.playbook.rules:
                if rule.matches(prompt):
                    item = rule.next_response()
                    break
            else:
                if self.playbook.default_response is None:
                    raise PlaybookMissError(
                        f"no playbook rule matched request tagged {req.request_tag!r} "
                        f"(prompt head: {prompt[:80]!r})"
                    )
                item = self.playbook.default_response
        if isinstance(item, dict):
            kind = item.get("error")
            if kind == "transport":
                raise _TransientFailure("scripted transport failure")
            if kind == "status":
                code = int(item.get("code", 500))
                if code == 429 or code >= 500:
                    raise _TransientFailure(f"scripted status {code}")
                raise BadStatusError(code, "scripted")
            raise RequestError(f"bad playbook directive {item!r}")
        content = str(item)
        usage = {
            "prompt_tokens": len(prompt.split()),
            "completion_tokens": len(content.split()),
        }
        return content, FINISH_STOP, usage


# --- HTTP backend ----------------------------------------------------------


class HttpBackend:
    """POSTs the messages-array wire shape to {endpoint}/chat/completions."""

    def __init__(self, config: BackendConfig):
        if not config.endpoint:
            raise RequestError(f"backend {config.name!r}: http backend needs an endpoint")
        self.config = config

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env)
            if not key:
                raise RequestError(
                    f"backend {self.config.name!r}: env var {self.config.api_key_env} not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def send(self, req: ChatRequest) -> tuple[str, str, dict]:
        """One POST on a fresh connection. urllib asks the server to close it
        after the reply, so no keep-alive connection is reused: servers that
        send headers and body in two writes stall a reused connection for
        tens of milliseconds (Nagle's algorithm against delayed ACKs)."""
        payload = {
            "model": req.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": req.temperature,
            "top_p": req.top_p,
            "max_tokens": req.max_tokens,
        }
        request = urllib.request.Request(
            self.config.endpoint.rstrip("/") + "/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers=self._headers(),
            method="POST",
        )
        try:
            try:
                with urllib.request.urlopen(request, timeout=self.config.timeout_s) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                status, body = exc.code, exc.read()
                if status == 429 or status >= 500:
                    raise _TransientFailure(
                        f"status {status}", retry_after_s(exc.headers.get("Retry-After"))
                    ) from None
        except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
            raise _TransientFailure(str(exc)) from exc
        if status >= 400:
            raise BadStatusError(status, body.decode("utf-8", "replace")[:200])
        try:
            data = json.loads(body)
            choice = data["choices"][0]
            content = choice["message"]["content"] or ""
            finish = choice.get("finish_reason") or FINISH_STOP
            usage = data.get("usage", {})
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BadStatusError(status, f"unparseable response body: {exc}") from exc
        if finish not in (FINISH_STOP, FINISH_LENGTH):
            finish = FINISH_STOP
        return content, finish, usage


def retry_after_s(value: str | None) -> float | None:
    """The wait a Retry-After header asks for, given in seconds or as an HTTP
    date; None when the header is absent or unreadable."""
    if value is None:
        return None
    value = value.strip()
    if value.isdigit():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # "-0000" dates parse as naive UTC
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


# --- rate limiting and caching ---------------------------------------------


class TokenBucket:
    """Requests-per-minute limiter shared by all calls through one gateway."""

    def __init__(self, rpm: int, time_fn=time.monotonic, sleep_fn=time.sleep):
        if rpm <= 0:
            raise ValueError("rpm must be positive")
        self.rate = rpm / 60.0
        self.capacity = max(1.0, self.rate)
        self.tokens = self.capacity
        self._time = time_fn
        self._sleep = sleep_fn
        self._last = time_fn()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            while True:
                now = self._time()
                self.tokens = min(self.capacity, self.tokens + (now - self._last) * self.rate)
                self._last = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                self._sleep((1.0 - self.tokens) / self.rate)


class ResponseCache:
    """On-disk key-value store: one append-only log per directory,
    responses.jsonl, with one `<key>\\t<json entry>\\n` line per put. Memory
    holds only key -> (offset, length) of the latest line for each key, so
    the last write wins. Eviction is manual: delete responses.jsonl.

    Each put is a single write to a file opened with O_APPEND, so several
    processes may share one directory. A cache sees the entries in the log
    when it was opened and those it appends itself."""

    LOG_NAME = "responses.jsonl"

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int]] = {}
        self._fd = os.open(self.directory / self.LOG_NAME,
                           os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        self._finalize = weakref.finalize(self, os.close, self._fd)
        self._load()

    def _load(self) -> None:
        """Index every complete line without decoding its entry. An
        unterminated last line is an append cut short by a crash: it is not
        indexed, and it is ended here so that it cannot swallow the next
        line appended after it."""
        offset, line = 0, b"\n"
        with open(self._fd, "rb", closefd=False) as log:
            for line in log:
                key, tab, _ = line.partition(b"\t")
                if tab and line.endswith(b"\n"):
                    self._index[key.decode("utf-8", "replace")] = (offset, len(line))
                offset += len(line)
        if not line.endswith(b"\n"):
            os.write(self._fd, b"\n")

    def close(self) -> None:
        """Close the log. A closed cache misses every get; a put raises OSError."""
        with self._lock:
            self._fd = -1
            self._index.clear()
            self._finalize()

    def get(self, key: str) -> dict | None:
        """The stored entry, or None on a miss. An unindexed key is a miss
        without any I/O. A line that holds another key, cannot be read, or
        lacks a string content and finish_reason is a miss too, so the fresh
        response supersedes it."""
        where = self._index.get(key)
        if where is None:
            return None
        try:
            line = os.pread(self._fd, where[1], where[0])
            head, _, body = line.partition(b"\t")
            if head != key.encode("utf-8"):
                return None
            entry = json.loads(body.decode("utf-8"))
        except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
            return None
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("content"), str)
            and isinstance(entry.get("finish_reason"), str)
        ):
            return None
        return entry

    def put(self, key: str, value: dict) -> None:
        """Append one line for key; it supersedes any earlier line."""
        # json.dumps escapes every control character, so the entry is one line.
        line = f"{key}\t{json.dumps(value, ensure_ascii=False)}\n".encode("utf-8")
        with self._lock:
            written = os.write(self._fd, line)
            if written != len(line):
                os.write(self._fd, b"\n")  # end the cut line; the entry stays a miss
                return
            # O_APPEND leaves the fd at the end of this line, even when another
            # process appended just before it.
            end = os.lseek(self._fd, 0, os.SEEK_CUR)
            self._index[key] = (end - len(line), len(line))


# --- the gateway -----------------------------------------------------------


class LlmGateway:
    def __init__(
        self,
        backend,
        config: BackendConfig | None = None,
        cache: ResponseCache | None = None,
        limiter: TokenBucket | None = None,
        sleep_fn=time.sleep,
    ):
        self.backend = backend
        self.config = config or getattr(backend, "config", BackendConfig())
        self.cache = cache
        self.limiter = limiter
        if self.limiter is None and self.config.rpm:
            self.limiter = TokenBucket(self.config.rpm)
        self.max_inflight = (self.config.max_inflight
                             or DEFAULT_MAX_INFLIGHT.get(self.config.kind, 1))
        self._inflight = threading.BoundedSemaphore(self.max_inflight)
        self._sleep = sleep_fn
        self._jitter = random.Random()

    def complete(self, req: ChatRequest, recorder: RunRecord | None = None) -> ChatResponse:
        if req.max_tokens > self.config.max_tokens_limit:
            raise RequestError(
                f"max_tokens {req.max_tokens} exceeds the backend limit "
                f"{self.config.max_tokens_limit} for {self.config.name!r}"
            )
        key = cache_key(req)
        prompt = req.rendered_prompt()

        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                resp = ChatResponse(
                    content=hit["content"],
                    finish_reason=hit["finish_reason"],
                    usage=hit.get("usage", {}),
                    cached=True,
                )
                self._record(recorder, req, prompt, resp.content, 0, 0, cached=True)
                return resp

        retries = 0
        start = time.monotonic()
        while True:
            if self.limiter is not None:
                self.limiter.acquire()
            try:
                # Only the send holds a slot: cache reads and writes and
                # backoff sleeps do not count against max_inflight.
                with self._inflight:
                    content, finish, usage = self.backend.send(req)
                break
            except _TransientFailure as exc:
                if retries >= self.config.retry_max:
                    raise TransportError(
                        f"backend {self.config.name!r} failed after {retries + 1} attempts: {exc}"
                    ) from exc
                delay = exc.retry_after
                if delay is None:
                    delay = self.config.backoff_s * 2 ** retries * self._jitter.uniform(0.5, 1.0)
                self._sleep(delay)
                retries += 1
        latency_ms = int((time.monotonic() - start) * 1000)

        if not content:
            finish = FINISH_ERROR
        resp = ChatResponse(content=content, finish_reason=finish, usage=usage)
        if self.cache is not None and finish != FINISH_ERROR:
            self.cache.put(key, {"content": content, "finish_reason": finish, "usage": usage})
        self._record(recorder, req, prompt, content, latency_ms, retries)
        return resp

    @staticmethod
    def _record(recorder, req, prompt, content, latency_ms, retries, cached=False):
        if recorder is None:
            return
        recorder.log_call(
            CallEntry(
                agent_role=req.request_tag,
                prompt_hash=content_hash(prompt),
                response_hash=content_hash(content),
                latency_ms=latency_ms,
                retries=retries,
                cached=cached,
            )
        )


def build_gateway(config: BackendConfig, sleep_fn=time.sleep) -> LlmGateway:
    """Construct a gateway from one backend config entry."""
    if config.kind == "mock":
        playbook = (
            MockPlaybook.load(config.playbook_path)
            if config.playbook_path
            else MockPlaybook(rules=[], default_response=None)
        )
        backend = MockBackend(playbook, config)
    elif config.kind == "http":
        backend = HttpBackend(config)
    else:
        raise RequestError(f"unknown backend kind {config.kind!r}")
    return LlmGateway(backend, config=config, sleep_fn=sleep_fn)
