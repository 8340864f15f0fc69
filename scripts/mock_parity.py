#!/usr/bin/env python3
"""Run a fixed set of mock scenarios from two or more source trees and diff
what they write, to show that a change leaves every mock output as it was.

    python3 scripts/mock_parity.py --src ../parent --src .

Each --src is a checkout (a directory holding src/ and scripts/). The
scenarios, run in this order with the tree's own code, one subprocess each:

- demo: scripts/run_mock_demo.py;
- corpus: scripts/make_synthetic_records.py (12 records);
- build: build-dataset on that corpus with --sizes 6,3,3;
- build_trimmed: the same with --skip-trees --corrected-reviewer-mapping
  --kinds D2T,D2W;
- generate: generate on the demo's draft and playbook;
- abort_planner, abort_expand, abort_write: generate with the demo's playbook
  changed so that the planner's reply has no sections, the second section
  expansion, or the second subsection write, gets HTTP 400;
- bench: a 3-document bench on the demo's playbook.

The inputs (the demo's draft and playbook, as files) are written once, with
the first tree's code, and copied to every tree. Every file a scenario
writes is compared byte for byte, with latency_ms in calls.jsonl zeroed, and
so are each command's exit code, stdout and stderr. Prints one line per
scenario and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CLI = [sys.executable, "-m", "patentgen.cli"]
SCENARIOS = [
    ("demo", [sys.executable, "{src}/scripts/run_mock_demo.py", "--out", "demo"]),
    ("corpus", [sys.executable, "{src}/scripts/make_synthetic_records.py", "--out", "corpus",
                "--n", "12"]),
    ("build", CLI + ["build-dataset", "corpus/records", "--mock-playbook", "corpus/playbook.json",
                     "--out", "build", "--sizes", "6,3,3"]),
    ("build_trimmed", CLI + ["build-dataset", "corpus/records", "--mock-playbook",
                             "corpus/playbook.json", "--out", "build_trimmed", "--sizes", "6,3,3",
                             "--skip-trees", "--corrected-reviewer-mapping", "--kinds", "D2T,D2W"]),
    ("generate", CLI + ["generate", "inputs/draft1.json", "--mock-playbook",
                        "inputs/playbook.json", "--out", "generate"]),
] + [
    (name, CLI + ["generate", "inputs/draft1.json", "--mock-playbook", f"inputs/{name}.json",
                  "--out", name])
    for name in ("abort_planner", "abort_expand", "abort_write")
] + [
    ("bench", CLI + ["bench", "inputs/manifest.json", "--mock-playbook", "inputs/playbook.json",
                     "--out", "bench"]),
]

HTTP_400 = {"error": "status", "code": 400}
# The start of each changed rule's match, and the responses it gets instead.
ABORTS = {
    "abort_planner": ("detailed writing guide", ["No sections in this reply."]),
    "abort_expand": ("split this section", [0, HTTP_400]),
    "abort_write": ("Just output this subsection", [0, HTTP_400]),
}


def write_inputs(tree: Path, out: Path) -> None:
    """The demo's draft (three times, as bench documents), its playbook and
    the abort playbooks, written with tree's code."""
    sys.path[:0] = [str(tree / "src"), str(tree / "scripts")]
    from dataclasses import replace

    from patentgen.core import draft_to_record
    from run_mock_demo import DRAFT, demo_playbook

    out.mkdir(parents=True)
    docs = []
    for i in (1, 2, 3):
        draft = replace(DRAFT, source_id=f"demo-{i}")
        (out / f"draft{i}.json").write_text(json.dumps(draft_to_record(draft)), "utf-8")
        (out / f"ref{i}.txt").write_text(
            f"Reference {i}: a conveyor drive retunes its speed loop from torque.", "utf-8")
        docs.append({"doc_id": f"d{i}", "draft_file": f"inputs/draft{i}.json",
                     "reference_file": f"inputs/ref{i}.txt"})
    (out / "manifest.json").write_text(json.dumps({"docs": docs}), "utf-8")
    playbook = demo_playbook()
    playbook.save(out / "playbook.json")
    for name, (match, responses) in ABORTS.items():
        record = playbook.to_record()
        rule = next(r for r in record["rules"] if r["match"].startswith(match))
        rule["responses"] = [rule["responses"][r] if isinstance(r, int) else r
                             for r in responses]
        (out / f"{name}.json").write_text(json.dumps(record), "utf-8")


def run_scenarios(tree: Path, inputs: Path, work: Path) -> None:
    shutil.copytree(inputs, work / "inputs")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, command in SCENARIOS:
        command = [part.replace("{src}", str(tree)) for part in command]
        done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
        log = (f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
               .replace(str(tree), "SRC"))
        (work / f"{name}.log").write_text(log, "utf-8")


def contents(root: Path) -> dict[str, bytes]:
    """Every file under root by relative path, with latency_ms zeroed."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "calls.jsonl":
            lines = [json.loads(line) for line in data.decode("utf-8").splitlines()]
            data = "".join(json.dumps({**e, "latency_ms": 0}) + "\n" for e in lines).encode()
        files[path.relative_to(root).as_posix()] = data
    return files


def scenario_of(path: str) -> str:
    head = path.split("/", 1)[0]
    return head[:-len(".log")] if head.endswith(".log") else head


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a source tree; give two or more")
    parser.add_argument("--work", help="where the outputs go (a temporary directory, removed "
                                       "after the run, by default)")
    args = parser.parse_args()
    trees = [Path(src).resolve() for src in args.src]
    if len(trees) < 2:
        parser.error("give --src at least twice")
    work = Path(args.work or tempfile.mkdtemp(prefix="mock_parity_")).resolve()
    try:
        write_inputs(trees[0], work / "inputs")
        outputs = []
        for i, tree in enumerate(trees):
            run_scenarios(tree, work / "inputs", work / f"tree{i}")
            outputs.append(contents(work / f"tree{i}"))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    base = outputs[0]
    differences = 0
    for i, other in enumerate(outputs[1:], start=1):
        print(f"{trees[0]} against {trees[i]}:")
        for name, _ in SCENARIOS:
            paths = sorted(p for p in set(base) | set(other) if scenario_of(p) == name)
            differ = [p for p in paths if base.get(p) != other.get(p)]
            differences += len(differ)
            verdict = "identical" if not differ else f"DIFFERENT: {', '.join(differ)}"
            print(f"  {name:<14} {len(paths):>4} files  {verdict}")
    print("all outputs identical" if differences == 0 else f"{differences} files differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
