"""Time the gateway's cache and hashing steps, its limiter and its HTTP
transport, on seeded chat requests.

    python3 scripts/gateway_timing.py --src src --calls 500 --repeats 5 \
        --limiter-calls 20000 --transport-calls 2000

Builds --calls requests of about a generation prompt's size (1,000 words)
and replies of about 150 words from the benchmark's synthetic vocabulary
(perfbench/textgen.py). Each repeat opens a ResponseCache on a fresh
directory under --dir (the system temp dir by default; the filesystem there
sets the cost of a put), then times, per call: ResponseCache.put of every
reply, a get of every stored key (hits) and of as many absent keys (misses),
cache_key of every request and content_hash of every rendered prompt. Prints
one JSON object with the median of the repeats in microseconds per call, and
the hit and miss counts, so that two source trees (--src) can be compared on
the same inputs.

The limiter section times LlmGateway.complete through a backend that
answers at once, with no cache and max_inflight 8, so that little but the
limiter and the retry loop is left: --limiter-calls calls from 1 thread, and the
same number split over 8 threads. It reports the median of the repeats in
microseconds of wall time per call.

The transport section starts the benchmark's fake endpoint
(perfbench/endpoint.py) with no added latency and sends --transport-calls
background-section requests of the same size, one after another, through
HttpBackend.send. It reports the median and p99 milliseconds per call, the
calls over 35 ms, and the same for the reply wait: the time from the
endpoint finishing its reply (from its request log) to send returning. A
delayed-ACK stall shows as ~40 ms in both. The first 20 calls are not
counted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STALL_MS = 35.0
WARMUP_CALLS = 20


def chat_request(prompt: str, tag: str):
    """A one-message request with the agents' default sampling, spelled out.
    The tag is passed only to a tree whose ChatRequest still declares a
    request_tag, so that trees before and after its removal time the same
    requests."""
    from patentgen.gateway import ChatMessage, ChatRequest

    spelled = dict(model_id="bench-model", messages=(ChatMessage("user", prompt),),
                   temperature=0.5, top_p=0.9, max_tokens=4096, request_tag=tag)
    declared = {f.name for f in dataclasses.fields(ChatRequest)}
    return ChatRequest(**{name: value for name, value in spelled.items() if name in declared})


def make_requests(n: int, seed: int):
    from textgen import paragraph_text

    rng = random.Random(f"gateway-timing-{seed}")
    requests, replies = [], []
    for i in range(n):
        requests.append(chat_request(f"Call {i}.\n" + paragraph_text(rng, 1000),
                                     "description_write"))
        replies.append({"content": paragraph_text(rng, 150), "finish_reason": "stop",
                        "usage": {"prompt_tokens": 1000, "completion_tokens": 150}})
    return requests, replies


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def summary_ms(values: list[float]) -> dict:
    return {"median_ms": round(statistics.median(values), 3),
            "p99_ms": round(percentile(values, 99), 3),
            "max_ms": round(max(values), 3),
            f"over_{STALL_MS:g}ms": sum(v > STALL_MS for v in values)}


def time_transport(n: int, seed: int) -> dict:
    """Send WARMUP_CALLS + n requests through HttpBackend.send to a fresh endpoint."""
    from textgen import paragraph_text

    from patentgen.gateway import BackendConfig, HttpBackend

    endpoint = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "endpoint.py"), "--seed", str(seed),
         "--base-ms", "0", "--per-token-ms", "0", "--malformed-share", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        url = f"http://127.0.0.1:{int(endpoint.stdout.readline().split()[1])}"
        backend = HttpBackend(BackendConfig(name="timing", kind="http", endpoint=url))
        rng = random.Random(f"transport-timing-{seed}")
        requests = [chat_request(f"Call {i}: detailed background information.\n"
                                 + paragraph_text(rng, 1000), "background")
                    for i in range(WARMUP_CALLS + n)]
        call_ms, done = [], []
        for req in requests:
            start = time.perf_counter()
            backend.send(req)
            call_ms.append((time.perf_counter() - start) * 1000)
            done.append(time.monotonic())  # the endpoint logs on this clock
        with urllib.request.urlopen(url + "/log", timeout=30) as resp:
            log = json.load(resp)["requests"]
    finally:
        endpoint.stdin.close()
        endpoint.wait(timeout=30)
        endpoint.stdout.close()
    if len(log) != len(requests):
        raise RuntimeError(f"endpoint logged {len(log)} requests, sent {len(requests)}")
    wait_ms = [(end - entry["finish"]) * 1000 for end, entry in zip(done, log)]
    return {"calls": n, "warmup": WARMUP_CALLS,
            "per_call": summary_ms(call_ms[WARMUP_CALLS:]),
            "reply_wait": summary_ms(wait_ms[WARMUP_CALLS:])}


def time_limiter(calls: int, threads: int) -> float:
    """Wall-clock microseconds per LlmGateway.complete, calls in all, split
    over threads threads, through a backend that answers at once."""
    from patentgen.gateway import BackendConfig, LlmGateway

    class Instant:
        def send(self, req):
            return "ok", "stop", {}

    config = BackendConfig(name="timing", kind="http", endpoint="http://127.0.0.1:9",
                           max_inflight=8)
    gateway = LlmGateway(Instant(), config=config)
    req = chat_request("Time the limiter.", "limiter")
    each = calls // threads
    start_line = threading.Barrier(threads + 1)

    def worker():
        start_line.wait()
        for _ in range(each):
            gateway.complete(req)

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for w in workers:
        w.start()
    start_line.wait()
    start = time.perf_counter()
    for w in workers:
        w.join()
    return (time.perf_counter() - start) / (each * threads) * 1e6


def per_call_us(fn, items) -> tuple[float, list]:
    start = time.perf_counter()
    results = [fn(item) for item in items]
    return (time.perf_counter() - start) / len(items) * 1e6, results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to time")
    parser.add_argument("--calls", type=int, default=500)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", default=None, help="where the cache directories go")
    parser.add_argument("--limiter-calls", type=int, default=0,
                        help="time the limiter over this many calls (0: skip it)")
    parser.add_argument("--transport-calls", type=int, default=0,
                        help="time this many HTTP calls as well (0: skip the transport)")
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    from patentgen.core import content_hash
    from patentgen.gateway import ResponseCache, cache_key

    requests, replies = make_requests(args.calls, args.seed)
    keys = [cache_key(r) for r in requests]
    absent = [content_hash(f"absent-{i}") for i in range(args.calls)]
    prompts = [r.rendered_prompt() for r in requests]
    runs: dict[str, list[float]] = {"put_us": [], "get_hit_us": [], "get_miss_us": [],
                                    "cache_key_us": [], "content_hash_us": []}
    hits = misses = 0
    for _ in range(args.repeats):
        with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
            cache = ResponseCache(tmp)
            us, _ = per_call_us(lambda kv: cache.put(*kv), list(zip(keys, replies)))
            runs["put_us"].append(us)
            us, found = per_call_us(cache.get, keys)
            runs["get_hit_us"].append(us)
            hits = sum(got == want for got, want in zip(found, replies))
            us, found = per_call_us(cache.get, absent)
            runs["get_miss_us"].append(us)
            misses = found.count(None)
            getattr(cache, "close", lambda: None)()  # older trees have no close()
        runs["cache_key_us"].append(per_call_us(cache_key, requests)[0])
        runs["content_hash_us"].append(per_call_us(content_hash, prompts)[0])
    out = {"calls": args.calls, "repeats": args.repeats, "seed": args.seed,
           "prompt_chars_mean": round(statistics.mean(map(len, prompts))),
           "hits": hits, "misses": misses}
    out.update({name: round(statistics.median(v), 2) for name, v in runs.items()})
    if args.limiter_calls > 0:
        out["limiter"] = {"calls": args.limiter_calls, **{
            f"complete_us_threads_{threads}": round(statistics.median(
                time_limiter(args.limiter_calls, threads) for _ in range(args.repeats)), 2)
            for threads in (1, 8)}}
    if args.transport_calls > 0:
        out["transport"] = time_transport(args.transport_calls, args.seed)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
