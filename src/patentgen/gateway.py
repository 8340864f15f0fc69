"""Uniform access to chat-completion endpoints.

One gateway fronts either a real HTTP backend (the de-facto chat-completions
wire shape) or a fully scripted mock backend, adding retries with jittered
exponential backoff, an on-disk response cache (one append-only log per cache
directory, indexed in memory by offset), a token-bucket rate limit and a live
limit on requests in flight, which a 429 narrows and steady replies widen back
to its ceiling; it logs nothing, but each response reports its retries,
latency and cache flag. The HTTP backend speaks HTTP/1.1 through http.client
and reuses its connections (see HttpBackend for the delayed-ACK stall that
this has to avoid). Tests run against the mock and a loopback HTTP server; the
HTTP path is the same code minus the playbook.
"""

from __future__ import annotations

import base64
import email.utils
import http.client
import json
import os
import random
import re
import socket
import threading
import time
import urllib.parse
import urllib.request
import weakref
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .core import ConfigError, content_hash, load_json

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


class CallHalted(GatewayError):
    """The caller halted while its call waited for a slot; nothing was sent."""


class _TransientFailure(Exception):
    """Internal marker for a retryable send failure. retry_after is the wait
    in seconds the server asked for, if it named one; throttled marks a 429."""

    def __init__(self, detail: str, retry_after: float | None = None,
                 throttled: bool = False):
        super().__init__(detail)
        self.retry_after = retry_after
        self.throttled = throttled


def _status_failure(status: int, detail: str,
                    retry_after: float | None = None) -> _TransientFailure | BadStatusError:
    """What a failing status means, for every backend: 429 and 5xx are
    transient, to be retried; any other status is a BadStatusError."""
    if status == 429 or status >= 500:
        return _TransientFailure(f"status {status}", retry_after, throttled=status == 429)
    return BadStatusError(status, detail)


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    """AgentRuntime.ask builds each request it sends from a user message and
    an AgentBinding, which checked the sampling settings when it was made."""

    model_id: str
    messages: tuple[ChatMessage, ...]
    temperature: float
    top_p: float
    max_tokens: int

    def rendered_prompt(self) -> str:
        return "\n".join(m.content for m in self.messages)


@dataclass(frozen=True)
class ChatResponse:
    """What LlmGateway.complete returns; empty content has finish_reason error."""

    content: str
    finish_reason: str
    usage: dict = field(default_factory=dict)
    cached: bool = False
    retries: int = 0
    latency_ms: int = 0


def cache_key(req: ChatRequest, occurrence: int = 0) -> str:
    """Stable hash over everything that affects the completion. occurrence
    counts the identical requests made before this one in the same task;
    each has a key of its own, and the first is keyed by the hash alone."""
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
    key = content_hash(payload)
    return f"{key}#{occurrence}" if occurrence else key


# --- backend configuration ------------------------------------------------


@dataclass(frozen=True)
class BackendConfig:
    """One backend entry of the run config file.

    kind is "http" or "mock". For http backends the API key is read from the
    environment variable named by api_key_env when the backend is built (an
    unset variable is a ConfigError then), and is never stored in config.
    rpm caps the requests sent per minute; None or 0 means no cap.
    max_inflight is the ceiling of the live limit on requests sent to the
    backend at once (see SendWindow); None means the kind's default in
    DEFAULT_MAX_INFLIGHT.
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
            raise ConfigError("retry_max and backoff_s must be >= 0")
        if min(self.timeout_s, self.max_tokens_limit) <= 0:
            raise ConfigError("timeout_s and max_tokens_limit must be positive")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.rpm is not None and self.rpm < 0:
            raise ConfigError("rpm must be positive")


# A mock playbook hands out each rule's responses in arrival order, so only one
# request at a time keeps a scripted run reproducible. For http this is the
# ceiling of the live limit (SendWindow), so a server that admits fewer
# requests at once narrows it instead of failing the run. On the repository
# benchmark, a ceiling of 8 against a fixed 4 took generate_cold from 5.38 to
# 6.84 patents/s and build_dataset from 33.8 to 39.0 records/s, at 5.4% and
# 3.4% more peak memory (BENCH_25.json). A 16-document bench peaks at about
# 40 threads at width 8, against about 20 at width 4.
DEFAULT_MAX_INFLIGHT = {"mock": 1, "http": 8}


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
        """A playbook from its JSON object; ConfigError names the first bad
        rule or response. A response is a reply text, {"error": "transport"}
        or {"error": "status", "code": <an int from 100 to 599>}."""
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
            for response in r["responses"]:
                _check_response(response, f"playbook rule {i}")
        default = record.get("default_response")
        if default is not None:
            _check_response(default, "playbook default_response")
        return MockPlaybook(
            [PlaybookRule(r["match"], list(r["responses"]), bool(r.get("regex", False)))
             for r in rules],
            default,
        )

    @staticmethod
    def load(path: Path | str) -> "MockPlaybook":
        return MockPlaybook.from_record(load_json(path, "playbook"))

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


def _check_response(response, where: str) -> None:
    """ConfigError naming where unless response is one a playbook may hold."""
    if isinstance(response, str) or response == {"error": "transport"}:
        return
    if isinstance(response, dict) and response.keys() == {"error", "code"}:
        code = response["code"]
        if response["error"] == "status" and type(code) is int and 100 <= code <= 599:
            return
    raise ConfigError(f"{where}: bad response {response!r}; expected a string, "
                      '{"error": "transport"} or {"error": "status", "code": <100-599>}')


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
                        f"no playbook rule matched the request (prompt head: {prompt[:80]!r})")
                item = self.playbook.default_response
        if isinstance(item, dict):
            if item["error"] == "transport":
                raise _TransientFailure("scripted transport failure")
            raise _status_failure(item["code"], "scripted")
        content = item
        usage = {
            "prompt_tokens": len(prompt.split()),
            "completion_tokens": len(content.split()),
        }
        return content, FINISH_STOP, usage


# --- HTTP backend ----------------------------------------------------------


# TCP_QUICKACK is Linux's; without it a reused connection can stall (see HttpBackend).
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class HttpBackend:
    """POSTs the messages-array wire shape to {endpoint}/chat/completions over
    HTTP/1.1, keeping connections open and reusing them.

    Servers that write the headers and the body of a reply in two sends, as
    Python's http.server does, hold the body under Nagle's algorithm until
    the client ACKs the headers, and on a reused connection the client delays
    that ACK by ~40 ms. So the socket has TCP_NODELAY (http.client sets it on
    connect), and TCP_QUICKACK is set after the request is sent and again
    after the reply's headers are read. Where TCP_QUICKACK does not exist,
    each request asks the server to close the connection and nothing is
    pooled.

    The `http` and `https` proxies and `no_proxy` of the environment are
    honoured as urllib reads them: an http endpoint gets absolute-URI
    requests sent to the proxy, an https endpoint is tunnelled through it.
    """

    def __init__(self, config: BackendConfig):
        if not config.endpoint:
            raise ConfigError(f"backend {config.name!r}: http backend needs an endpoint")
        self.config = config
        url = config.endpoint.rstrip("/") + "/chat/completions"
        try:  # a malformed URL or a bad port, the endpoint's or the proxy's, is a ValueError
            parts = urllib.parse.urlsplit(url)
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ConfigError(f"backend {config.name!r}: endpoint {url!r} is not an "
                                  "http:// or https:// URL")
            address = (parts.hostname, parts.port)
            proxy = _proxy_for(parts)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self._target = urllib.parse.urlunsplit(("", "", parts.path, parts.query, ""))
        self._headers = {"Content-Type": "application/json"}
        if _QUICKACK is None:
            self._headers["Connection"] = "close"
        self._tunnel = None
        if proxy is not None:
            proxy_address, auth = proxy
            if parts.scheme == "http":
                self._target = url
                self._headers.update(auth)
            else:
                self._tunnel = (address, auth)
            address = proxy_address
        if config.api_key_env:
            key = os.environ.get(config.api_key_env)
            if not key:
                raise ConfigError(f"backend {config.name!r}: env var {config.api_key_env} not set")
            self._headers["Authorization"] = f"Bearer {key}"
        self._connection_class = (http.client.HTTPConnection if parts.scheme == "http"
                                  else http.client.HTTPSConnection)
        self._address = address
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._address
        conn = self._connection_class(host, port, timeout=self.config.timeout_s)
        if self._tunnel is not None:
            (host, port), auth = self._tunnel
            conn.set_tunnel(host, port, headers=auth)
        return conn

    def _post(self, body: bytes) -> tuple[http.client.HTTPResponse, bytes]:
        """The reply to one POST and its body, read in full.

        Only a connection whose reply was read in full, and did not ask to
        close, goes back to the pool, so the pool never holds more idle
        connections than there were sends in flight at once. Any exception
        closes the connection: a late reply after a timeout can never be
        read as the next call's. If a pooled connection fails before any
        reply arrives (the server closed it while idle), the request is
        sent once more on a fresh connection; that is not a retry.
        """
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        while True:
            reused = conn is not None
            conn = conn or self._connect()
            resp = None
            try:
                conn.request("POST", self._target, body, self._headers)
                sock = conn.sock  # getresponse() drops it for a Connection: close reply
                _quickack(sock)
                resp = conn.getresponse()
                _quickack(sock)
                data = resp.read()
            except BaseException as exc:
                conn.close()
                if reused and resp is None and isinstance(exc, ConnectionError):
                    conn = None
                    continue
                raise
            if resp.will_close or _QUICKACK is None:
                conn.close()
            else:
                with self._lock:
                    self._idle.append(conn)
            return resp, data

    def send(self, req: ChatRequest) -> tuple[str, str, dict]:
        payload = {
            "model": req.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": req.temperature,
            "top_p": req.top_p,
            "max_tokens": req.max_tokens,
        }
        try:
            resp, body = self._post(json.dumps(payload).encode("utf-8"))
        except (OSError, http.client.HTTPException) as exc:
            raise _TransientFailure(str(exc)) from exc
        status = resp.status
        if status >= 400:
            raise _status_failure(status, body.decode("utf-8", "replace")[:200],
                                  retry_after_s(resp.getheader("Retry-After")))
        try:
            data = json.loads(body)
            choice = data["choices"][0]
            content = choice["message"]["content"]
            if not isinstance(content, (str, type(None))):
                raise TypeError(f"content is {type(content).__name__}, not a string")
            content = content or ""
            finish = choice.get("finish_reason") or FINISH_STOP
            usage = data.get("usage", {})
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BadStatusError(status, f"unparseable response body: {exc}") from exc
        if finish not in (FINISH_STOP, FINISH_LENGTH):
            finish = FINISH_STOP
        return content, finish, usage


def _proxy_for(parts: urllib.parse.SplitResult) -> tuple[tuple, dict] | None:
    """The (host, port) of the environment's proxy for a URL, as urllib
    chooses it, and the Proxy-Authorization header for the user and password
    in the proxy's URL; None when the URL goes direct."""
    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
        return None
    proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
    auth = {}
    if proxy_parts.username is not None:
        login = (f"{urllib.parse.unquote(proxy_parts.username)}:"
                 f"{urllib.parse.unquote(proxy_parts.password or '')}")
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(login.encode()).decode()
    return (proxy_parts.hostname, proxy_parts.port), auth


def _quickack(sock) -> None:
    if _QUICKACK is not None:
        sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)


def _close_all(connections: list) -> None:
    while connections:
        connections.pop().close()


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


class SendWindow:
    """The sends a gateway has in flight, under a live limit that follows
    additive increase and multiplicative decrease (Chiu & Jain, 1989;
    Jacobson, SIGCOMM 1988).

    The limit starts at the ceiling. A 429 halves it, once per burst: only
    a send made since the last halving halves it again. It grows by one
    after as many sends in a row as the limit without a transient failure,
    up to the ceiling. The state is a few counters, whatever the traffic.
    """

    def __init__(self, ceiling: int):
        self.ceiling = self.limit = ceiling
        self.inflight = 0
        self.generation = 0  # halvings so far
        self._streak = 0
        self._cond = threading.Condition()

    def acquire(self) -> tuple[int, int]:
        """Wait for a slot and take it; returns the generation and the limit
        at send time, which release needs to judge the send's outcome."""
        with self._cond:
            while self.inflight >= self.limit:
                self._cond.wait()
            self.inflight += 1
            return self.generation, self.limit

    def release(self, sent: tuple[int, int] | None = None,
                failure: _TransientFailure | None = None) -> bool:
        """Give a slot back. sent is acquire's value when the send went out
        and ended in a reply (failure None) or a transient failure; without
        it the slot is returned with no verdict on the limit. True when the
        failure was a 429 sent while the limit was above 1: that send may be
        made again without spending a retry."""
        with self._cond:
            self.inflight -= 1
            free = False
            if sent is not None:
                generation, limit = sent
                if failure is None:
                    self._streak += 1
                    if self._streak >= self.limit and self.limit < self.ceiling:
                        self.limit += 1
                        self._streak = 0
                else:
                    self._streak = 0
                    if failure.throttled:
                        free = limit > 1
                        if generation == self.generation and self.limit > 1:
                            self.limit //= 2
                            self.generation += 1
            if self.inflight < self.limit:
                self._cond.notify(self.limit - self.inflight)
            return free


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
        lacks a non-empty string content and a string finish_reason is a miss
        too, so the fresh response supersedes it."""
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
            and entry["content"]
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
        sleep_fn=time.sleep,
    ):
        self.backend = backend
        self.config = config or getattr(backend, "config", BackendConfig())
        self.cache = cache
        self.limiter = TokenBucket(self.config.rpm) if self.config.rpm else None
        self.max_inflight = (self.config.max_inflight
                             or DEFAULT_MAX_INFLIGHT.get(self.config.kind, 1))
        self.window = SendWindow(self.max_inflight)
        self._sleep = sleep_fn
        self._jitter = random.Random()

    def complete(self, req: ChatRequest, halted=None, occurrence: int = 0) -> ChatResponse:
        """The reply to req, from the cache under cache_key(req, occurrence)
        when it holds one. A call for which halted() holds once it has a slot
        gives the slot back unsent and raises CallHalted."""
        if req.max_tokens > self.config.max_tokens_limit:
            raise RequestError(
                f"max_tokens {req.max_tokens} exceeds the backend limit "
                f"{self.config.max_tokens_limit} for {self.config.name!r}"
            )

        key = None
        if self.cache is not None:
            key = cache_key(req, occurrence)
            hit = self.cache.get(key)
            if hit is not None:
                return ChatResponse(
                    content=hit["content"],
                    finish_reason=hit["finish_reason"],
                    usage=hit.get("usage", {}),
                    cached=True,
                )

        retries = spent = 0  # every extra send; those that spent retry_max
        start = time.monotonic()
        while True:
            if self.limiter is not None:
                self.limiter.acquire()
            # Only the send holds a slot: cache reads and writes and backoff
            # sleeps do not count against the window.
            sent = self.window.acquire()
            try:
                if halted is not None and halted():
                    raise CallHalted("halted while waiting for a gateway slot")
                content, finish, usage = self.backend.send(req)
            except _TransientFailure as exc:
                free = self.window.release(sent, exc)
                if not free and spent >= self.config.retry_max:
                    raise TransportError(
                        f"backend {self.config.name!r} failed after {retries + 1} attempts: {exc}"
                    ) from exc
                delay = exc.retry_after
                if delay is None:
                    delay = self.config.backoff_s * 2 ** spent * self._jitter.uniform(0.5, 1.0)
                self._sleep(delay)
                retries += 1
                spent += not free
            except BaseException:
                self.window.release()
                raise
            else:
                self.window.release(sent)
                break
        latency_ms = int((time.monotonic() - start) * 1000)

        if not content:
            finish = FINISH_ERROR
        if self.cache is not None and finish != FINISH_ERROR:
            self.cache.put(key, {"content": content, "finish_reason": finish, "usage": usage})
        return ChatResponse(content=content, finish_reason=finish, usage=usage,
                            retries=retries, latency_ms=latency_ms)


def build_gateway(config: BackendConfig, sleep_fn=time.sleep) -> LlmGateway:
    """Construct a gateway from one backend config entry."""
    if config.kind == "mock":
        if not config.playbook_path:
            raise ConfigError("a mock backend needs a playbook_path")
        backend = MockBackend(MockPlaybook.load(config.playbook_path), config)
    elif config.kind == "http":
        backend = HttpBackend(config)
    else:
        raise ConfigError(f"unknown backend kind {config.kind!r}")
    return LlmGateway(backend, config=config, sleep_fn=sleep_fn)
