from __future__ import annotations

import email.utils
import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from patentgen.core import RunRecord
from patentgen.gateway import (
    BackendConfig,
    BadStatusError,
    ChatMessage,
    ChatRequest,
    HttpBackend,
    LlmGateway,
    MockPlaybook,
    PlaybookMissError,
    RequestError,
    ResponseCache,
    TokenBucket,
    TransportError,
    _TransientFailure,
    cache_key,
    retry_after_s,
    user_request,
)
from helpers import mock_gateway, rule


def _req(prompt="write the patent title", **kwargs):
    return user_request(prompt, model_id="mock-model", **kwargs)


def test_playbook_rule_answers_uncached():
    gateway, backend = mock_gateway(MockPlaybook([rule("patent title", "<Title>X</Title>")]))
    resp = gateway.complete(_req())
    assert resp.content == "<Title>X</Title>"
    assert resp.cached is False
    assert backend.calls == 1


def test_playbook_responses_consume_then_repeat_last():
    gateway, _ = mock_gateway(MockPlaybook([rule("title", "first", "second")]))
    outs = [gateway.complete(_req()).content for _ in range(3)]
    assert outs == ["first", "second", "second"]


def test_playbook_first_matching_rule_wins():
    playbook = MockPlaybook([rule("patent", "specific"), rule("title", "generic")])
    gateway, _ = mock_gateway(playbook)
    assert gateway.complete(_req()).content == "specific"


def test_playbook_regex_matcher():
    gateway, _ = mock_gateway(MockPlaybook([rule(r"title\s+please", "ok", regex=True)]))
    assert gateway.complete(_req("the title  please")).content == "ok"


def test_playbook_default_response():
    gateway, _ = mock_gateway(MockPlaybook([], default_response="fallback"))
    assert gateway.complete(_req()).content == "fallback"


def test_playbook_miss_is_an_error():
    gateway, _ = mock_gateway(MockPlaybook([]))
    with pytest.raises(PlaybookMissError):
        gateway.complete(_req())


def test_playbook_round_trips_through_file(tmp_path):
    playbook = MockPlaybook([rule("a", "b", {"error": "transport"})], default_response="d")
    path = tmp_path / "pb.json"
    playbook.save(path)
    loaded = MockPlaybook.load(path)
    assert loaded.to_record() == playbook.to_record()
    assert json.loads(path.read_text())["schema_version"] == "mock-playbook-v1"


def test_cache_round_trip(tmp_path):
    gateway, backend = mock_gateway(MockPlaybook([rule("title", "cached answer")]))
    gateway.cache = ResponseCache(tmp_path / "cache")
    first = gateway.complete(_req())
    second = gateway.complete(_req())
    assert first.content == second.content == "cached answer"
    assert first.cached is False and second.cached is True
    assert backend.calls == 1


def _log_line(key: str, entry) -> bytes:
    body = entry if isinstance(entry, bytes) else json.dumps(entry).encode("utf-8")
    return key.encode("utf-8") + b"\t" + body + b"\n"


def _entry(content: str) -> dict:
    return {"content": content, "finish_reason": "stop", "usage": {"completion_tokens": 1}}


@pytest.mark.parametrize(
    "stored",
    [b'{"content": "trunc', b'{"content": "x"}', b'{"finish_reason": "stop"}', b"[1, 2]",
     b"\xff\xfe"],
    ids=["truncated", "no_finish_reason", "no_content", "not_an_object", "not_utf8"],
)
def test_unreadable_cache_entry_is_a_miss_then_overwritten(tmp_path, stored):
    (tmp_path / "cache").mkdir()
    log = tmp_path / "cache" / ResponseCache.LOG_NAME
    log.write_bytes(_log_line(cache_key(_req()), stored))
    gateway, backend = mock_gateway(MockPlaybook([rule("title", "fresh answer")]))
    gateway.cache = ResponseCache(tmp_path / "cache")
    first = gateway.complete(_req())
    assert first.content == "fresh answer" and first.cached is False
    second = gateway.complete(_req())
    assert second.content == "fresh answer" and second.cached is True
    assert backend.calls == 1
    # The fresh line was appended after the bad one, and the last line wins.
    assert log.read_bytes().startswith(_log_line(cache_key(_req()), stored))
    assert ResponseCache(tmp_path / "cache").get(cache_key(_req()))["content"] == "fresh answer"


def test_reopened_cache_returns_every_entry(tmp_path):
    cache = ResponseCache(tmp_path)
    entries = {f"key{i}": _entry(f"answer {i} \u00e9\n\ttabbed") for i in range(20)}
    for key, entry in entries.items():
        cache.put(key, entry)
    cache.put("key3", _entry("replaced"))
    cache.close()
    reopened = ResponseCache(tmp_path)
    assert {k: reopened.get(k) for k in entries} == {**entries, "key3": _entry("replaced")}
    assert reopened.get("absent") is None
    assert sorted(os.listdir(tmp_path)) == [ResponseCache.LOG_NAME]


def test_old_per_key_files_are_misses(tmp_path):
    (tmp_path / f"{cache_key(_req())}.json").write_text(json.dumps(_entry("old format")))
    assert ResponseCache(tmp_path).get(cache_key(_req())) is None


def test_unterminated_tail_does_not_hide_the_next_entry(tmp_path):
    cache = ResponseCache(tmp_path)
    cache.put("before", _entry("kept"))
    cache.close()
    log = tmp_path / ResponseCache.LOG_NAME
    with log.open("ab") as fh:  # an append cut short by a crash
        fh.write(b'cut\t{"content": "half')
    cache = ResponseCache(tmp_path)
    assert cache.get("cut") is None
    cache.put("after", _entry("appended after the cut line"))
    cache.close()
    reopened = ResponseCache(tmp_path)
    assert reopened.get("after") == _entry("appended after the cut line")
    assert reopened.get("before") == _entry("kept")
    assert reopened.get("cut") is None


def test_concurrent_puts_are_all_returned_after_a_reopen(tmp_path):
    cache = ResponseCache(tmp_path)
    keys = [[f"t{t}-k{i}" for i in range(50)] for t in range(8)]

    def fill(own):
        for key in own:
            cache.put(key, _entry(key * (1 + len(key) % 5)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(own,)) for own in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    flat = [key for own in keys for key in own]
    assert all(cache.get(key) == _entry(key * (1 + len(key) % 5)) for key in flat)
    cache.close()
    reopened = ResponseCache(tmp_path)
    assert all(reopened.get(key) == _entry(key * (1 + len(key) % 5)) for key in flat)
    assert len((tmp_path / ResponseCache.LOG_NAME).read_bytes().splitlines()) == 400


def test_offset_holding_another_key_is_a_miss(tmp_path):
    cache = ResponseCache(tmp_path)
    cache.put("key-a", _entry("alpha"))
    cache.put("key-b", _entry("bravo"))
    # Rewrite the log in place with the two equal-length lines swapped, so
    # each indexed offset now holds the other key's line.
    log = tmp_path / ResponseCache.LOG_NAME
    with log.open("r+b") as fh:
        fh.write(_log_line("key-b", _entry("bravo")) + _log_line("key-a", _entry("alpha")))
    assert cache.get("key-a") is None and cache.get("key-b") is None
    assert ResponseCache(tmp_path).get("key-a") == _entry("alpha")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropped_caches_do_not_leak_file_descriptors(tmp_path):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    ResponseCache(tmp_path).put("warm", _entry("up"))
    gc.collect()
    before = open_fds()
    for i in range(200):
        cache = ResponseCache(tmp_path)
        assert cache.get("warm") == _entry("up")
        if i % 2:
            cache.close()
            assert cache.get("warm") is None
    del cache
    gc.collect()
    assert open_fds() <= before


def test_cache_key_ignores_request_tag():
    a = _req(request_tag="title")
    b = _req(request_tag="claims")
    assert cache_key(a) == cache_key(b)


def test_cache_key_sensitive_to_sampling():
    assert cache_key(_req(temperature=0.5)) != cache_key(_req(temperature=0.6))


def test_cache_key_sensitive_to_message_order():
    m1 = ChatMessage("user", "one")
    m2 = ChatMessage("user", "two")
    a = ChatRequest(model_id="m", messages=(m1, m2))
    b = ChatRequest(model_id="m", messages=(m2, m1))
    assert cache_key(a) != cache_key(b)


def test_scripted_500s_exhaust_retries():
    err = {"error": "status", "code": 500}
    gateway, backend = mock_gateway(MockPlaybook([rule("title", err, err, err)]), retry_max=2)
    with pytest.raises(TransportError, match="after 3 attempts"):
        gateway.complete(_req())
    assert backend.calls == 3


def test_scripted_429_is_retried():
    playbook = MockPlaybook([rule("title", {"error": "status", "code": 429}, "recovered")])
    gateway, backend = mock_gateway(playbook, retry_max=1)
    assert gateway.complete(_req()).content == "recovered"
    assert backend.calls == 2


def test_transient_then_success_records_retries():
    record = RunRecord(model_id="m", sampling={})
    gateway, _ = mock_gateway(
        MockPlaybook([rule("title", {"error": "transport"}, "recovered")]), retry_max=2
    )
    resp = gateway.complete(_req(), recorder=record)
    assert resp.content == "recovered"
    assert [e.retries for e in record.entries] == [1]


def test_client_error_is_not_retried():
    gateway, backend = mock_gateway(
        MockPlaybook([rule("title", {"error": "status", "code": 403})]), retry_max=3
    )
    with pytest.raises(BadStatusError) as err:
        gateway.complete(_req())
    assert err.value.code == 403
    assert backend.calls == 1


def test_empty_content_surfaces_as_error_finish():
    gateway, _ = mock_gateway(MockPlaybook([rule("title", "")]))
    resp = gateway.complete(_req())
    assert resp.finish_reason == "error"
    assert resp.content == ""


def test_request_validation():
    with pytest.raises(RequestError):
        ChatRequest(model_id="m", messages=(ChatMessage("system", "no user"),))
    with pytest.raises(RequestError):
        _req(temperature=3.0)
    with pytest.raises(RequestError):
        _req(top_p=0.0)
    with pytest.raises(RequestError):
        _req(max_tokens=0)
    with pytest.raises(RequestError):
        ChatMessage("tool", "bad role")


def test_max_tokens_limit_enforced_by_gateway():
    gateway, _ = mock_gateway(MockPlaybook([rule("title", "x")]), max_tokens_limit=1024)
    with pytest.raises(RequestError, match="exceeds the backend limit"):
        gateway.complete(_req(max_tokens=4096))


def test_run_record_logs_each_call_once():
    record = RunRecord(model_id="m", sampling={})
    gateway, _ = mock_gateway(MockPlaybook([rule("title", "one"), rule("other", "two")]))
    gateway.complete(_req(request_tag="title"), recorder=record)
    gateway.complete(_req("other prompt", request_tag="other"), recorder=record)
    assert record.role_counts() == {"title": 1, "other": 1}
    hashes = [e.prompt_hash for e in record.entries]
    assert len(set(hashes)) == 2


def test_token_bucket_spaces_requests():
    clock = {"t": 0.0}
    sleeps: list[float] = []

    def fake_time():
        return clock["t"]

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock["t"] += seconds

    bucket = TokenBucket(rpm=60, time_fn=fake_time, sleep_fn=fake_sleep)
    bucket.acquire()
    assert sleeps == []
    bucket.acquire()
    assert sleeps and abs(sum(sleeps) - 1.0) < 1e-6


def test_backend_config_rejects_unknown_keys():
    from patentgen.core import ConfigError
    from patentgen.pipeline import config_record

    with pytest.raises(ConfigError, match=r"backends.default: unknown keys \['reties'\]"):
        config_record(BackendConfig(), {"kind": "mock", "reties": 3}, "backends.default")


def test_rpm_config_installs_a_limiter(tmp_path):
    from patentgen.gateway import MockPlaybook as _PB, build_gateway

    playbook_path = tmp_path / "pb.json"
    _PB([rule("x", "y")]).save(playbook_path)
    config = BackendConfig(kind="mock", playbook_path=str(playbook_path), rpm=120)
    gateway = build_gateway(config)
    assert gateway.limiter is not None
    assert gateway.limiter.rate == pytest.approx(2.0)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next (status, body[, delay_s[, headers]])
    of server.script; the last entry repeats. Records every request in
    server.seen."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append({"path": self.path, "headers": self.headers, "body": body})
        script = self.server.script
        status, reply, delay_s, headers = (*(script.pop(0) if len(script) > 1 else script[0]),
                                           0.0, {})[:4]
        time.sleep(delay_s)
        data = reply if isinstance(reply, bytes) else json.dumps(reply).encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script, server.seen = [], []
    # A reply to a client that timed out and hung up fails; that is expected.
    server.handle_error = lambda request, client_address: None
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _http_gateway(endpoint: str, sleeps: list | None = None, **config_kwargs) -> LlmGateway:
    config = BackendConfig(name="live", kind="http", endpoint=endpoint, model_id="m",
                           **{"backoff_s": 0.0, **config_kwargs})
    sleep_fn = sleeps.append if sleeps is not None else lambda s: None
    return LlmGateway(HttpBackend(config), config=config, sleep_fn=sleep_fn)


def _reply(content: str, finish: str = "stop") -> dict:
    return {
        "choices": [{"message": {"content": content}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 5},
    }


def _url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/v1"


def test_http_backend_parses_wire_shape(loopback, monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    loopback.script.append((200, _reply("hello", finish="length")))
    gateway = _http_gateway(_url(loopback), api_key_env="TEST_API_KEY")
    resp = gateway.complete(_req(max_tokens=99))
    assert resp.content == "hello"
    # overlong finishes surface to the caller instead of erroring
    assert resp.finish_reason == "length"
    assert resp.usage == {"prompt_tokens": 3, "completion_tokens": 5}
    (seen,) = loopback.seen
    assert seen["path"] == "/v1/chat/completions"
    assert seen["headers"]["Authorization"] == "Bearer sekrit"
    assert seen["headers"]["Content-Type"] == "application/json"
    assert json.loads(seen["body"]) == {
        "model": "mock-model",
        "messages": [{"role": "user", "content": "write the patent title"}],
        "temperature": 0.5,
        "top_p": 0.9,
        "max_tokens": 99,
    }


def test_http_server_error_is_retried(loopback):
    loopback.script += [(500, {"error": "busy"}), (200, _reply("second try"))]
    record = RunRecord(model_id="m", sampling={})
    resp = _http_gateway(_url(loopback)).complete(_req(), recorder=record)
    assert resp.content == "second try"
    assert len(loopback.seen) == 2
    assert [e.retries for e in record.entries] == [1]


def test_http_429_honours_retry_after_seconds(loopback):
    loopback.script += [(429, {"error": "slow down"}, 0.0, {"Retry-After": "0"}),
                        (200, _reply("after the wait"))]
    record, sleeps = RunRecord(model_id="m", sampling={}), []
    resp = _http_gateway(_url(loopback), sleeps).complete(_req(), recorder=record)
    assert resp.content == "after the wait"
    assert len(loopback.seen) == 2
    assert [e.retries for e in record.entries] == [1]
    assert sleeps == [0.0]


def test_http_429_honours_retry_after_http_date(loopback):
    when = email.utils.formatdate(time.time() + 30, usegmt=True)
    loopback.script += [(429, {"error": "slow down"}, 0.0, {"Retry-After": when}),
                        (200, _reply("ok"))]
    sleeps: list[float] = []
    assert _http_gateway(_url(loopback), sleeps).complete(_req()).content == "ok"
    (slept,) = sleeps
    assert 25.0 < slept <= 30.0
    assert retry_after_s("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0
    assert retry_after_s("soon") is None and retry_after_s(None) is None


def test_http_429_without_retry_after_backs_off_with_jitter(loopback):
    loopback.script.append((429, {"error": "slow down"}))
    sleeps: list[float] = []
    gateway = _http_gateway(_url(loopback), sleeps, retry_max=3, backoff_s=0.5)
    with pytest.raises(TransportError, match="failed after 4 attempts: status 429"):
        gateway.complete(_req())
    assert len(loopback.seen) == 4
    assert [0.5 * 2 ** i / 2 <= s <= 0.5 * 2 ** i for i, s in enumerate(sleeps)] == [True] * 3


def test_inflight_slot_is_free_during_backoff():
    # With max_inflight 1, a request that backs off must not hold the only slot.
    attempts: list[int] = []

    class Flaky:
        def send(self, req):
            attempts.append(1)
            if len(attempts) == 1:
                raise _TransientFailure("first attempt fails")
            return "fine", "stop", {}

    def sleep(seconds):
        assert gateway._inflight.acquire(blocking=False)
        gateway._inflight.release()

    gateway = LlmGateway(Flaky(), config=BackendConfig(max_inflight=1), sleep_fn=sleep)
    assert gateway.complete(_req()).content == "fine"
    assert len(attempts) == 2


def test_http_client_error_is_not_retried(loopback):
    body = "no such model " * 40
    loopback.script.append((404, body.encode("utf-8")))
    with pytest.raises(BadStatusError) as info:
        _http_gateway(_url(loopback)).complete(_req())
    assert info.value.code == 404
    assert str(info.value) == f"backend returned status 404: {body[:200]}"
    assert len(loopback.seen) == 1


def test_http_timeout_is_retried(loopback):
    loopback.script += [(200, _reply("late"), 0.3), (200, _reply("on time"))]
    resp = _http_gateway(_url(loopback), timeout_s=0.05).complete(_req())
    assert resp.content == "on time"
    assert len(loopback.seen) == 2


def test_http_unparseable_body_is_bad_status(loopback):
    loopback.script.append((200, b"<html>not json</html>"))
    with pytest.raises(BadStatusError, match="unparseable response body"):
        _http_gateway(_url(loopback)).complete(_req())
    assert len(loopback.seen) == 1


def test_http_refused_connection_fails_after_every_retry():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    gateway = _http_gateway(f"http://127.0.0.1:{port}", retry_max=2)
    attempts, send = [], gateway.backend.send
    gateway.backend.send = lambda req: attempts.append(req) or send(req)
    with pytest.raises(TransportError, match="failed after 3 attempts"):
        gateway.complete(_req())
    assert len(attempts) == 3


def test_library_import_does_not_load_requests():
    code = ("import sys, patentgen.bench, patentgen.datakit, patentgen.pipeline; "
            "print('requests' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_http_backend_requires_api_key_env(monkeypatch):
    monkeypatch.delenv("MISSING_KEY", raising=False)
    config = BackendConfig(
        name="live", kind="http", endpoint="http://host", api_key_env="MISSING_KEY"
    )
    with pytest.raises(RequestError, match="MISSING_KEY"):
        HttpBackend(config).send(_req())


def test_mock_backend_is_deterministic_per_playbook():
    def run():
        gateway, _ = mock_gateway(
            MockPlaybook([rule("title", "a", "b"), rule("claims", "c")])
        )
        return [
            gateway.complete(_req(request_tag="title")).content,
            gateway.complete(_req("claims here", request_tag="claims")).content,
            gateway.complete(_req(request_tag="title")).content,
        ]

    assert run() == run() == ["a", "c", "b"]
