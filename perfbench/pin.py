#!/usr/bin/env python3
"""Recompute perfbench/pins.json: the output digest of one pass per seed.

    python3 perfbench/pin.py --first 0 --last 99

Run it from the repository root, and only when a change is meant to alter
the program's output; the digest does not depend on timing, so the fake
endpoint runs with no latency here.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def digests(seed: int) -> dict[str, str]:
    out = {}
    for name in ("generate_cold", "score_long", "build_dataset"):
        workload = run.make_workload(name, seed)
        endpoint = None
        if workload.uses_endpoint:
            endpoint = run.Endpoint(seed, 0.0, 0.0, run.SPEC["endpoint"]["malformed_share"])
        scratch = run.OUT / f"pin-scratch-{seed}"
        try:
            result = workload.run_pass(run.Context(seed, endpoint, scratch), "pin")
        finally:
            if endpoint is not None:
                endpoint.close()
            shutil.rmtree(scratch, ignore_errors=True)
        errors = result.problems + [it.error for it in result.items if it.error]
        if errors:
            raise run.BenchError(f"seed {seed} {name}: {errors}")
        out[workload.pin_key] = result.digest
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=99)
    args = parser.parse_args()
    run.load_package()
    pins: dict[str, dict[str, str]] = {}
    for seed in range(args.first, args.last + 1):
        for key, digest in digests(seed).items():
            pins.setdefault(key, {})[str(seed)] = digest
        print(f"seed {seed} pinned", file=sys.stderr, flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
