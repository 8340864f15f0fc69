from __future__ import annotations

import json

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
    cache_key,
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


@pytest.mark.parametrize(
    "stored",
    [b'{"content": "trunc', b'{"content": "x"}', b'{"finish_reason": "stop"}', b"[1, 2]",
     b"\xff\xfe"],
    ids=["truncated", "no_finish_reason", "no_content", "not_an_object", "not_utf8"],
)
def test_unreadable_cache_entry_is_a_miss_then_overwritten(tmp_path, stored):
    gateway, backend = mock_gateway(MockPlaybook([rule("title", "fresh answer")]))
    gateway.cache = ResponseCache(tmp_path / "cache")
    (tmp_path / "cache" / f"{cache_key(_req())}.json").write_bytes(stored)
    first = gateway.complete(_req())
    assert first.content == "fresh answer" and first.cached is False
    second = gateway.complete(_req())
    assert second.content == "fresh answer" and second.cached is True
    assert backend.calls == 1


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


class _FakeHttpResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


def test_http_backend_parses_wire_shape(monkeypatch):
    payload = {
        "choices": [{"message": {"content": "hello"}, "finish_reason": "length"}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 5},
    }
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, json=json, headers=headers, timeout=timeout)
        return _FakeHttpResponse(200, payload)

    monkeypatch.setattr("patentgen.gateway.requests.post", fake_post)
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    config = BackendConfig(
        name="live", kind="http", endpoint="http://host/v1", api_key_env="TEST_API_KEY",
        model_id="m", timeout_s=7.0,
    )
    backend = HttpBackend(config)
    resp = LlmGateway(backend, config=config).complete(_req())
    assert resp.content == "hello"
    # overlong finishes surface to the caller instead of erroring
    assert resp.finish_reason == "length"
    assert captured["url"] == "http://host/v1/chat/completions"
    assert captured["headers"]["Authorization"] == "Bearer sekrit"
    assert captured["json"]["messages"][0]["role"] == "user"
    assert captured["timeout"] == 7.0


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
