#!/usr/bin/env python3
"""Run a fixed set of mock scenarios from two or more source trees and diff
what they write, to show that a change leaves every mock output as it was.

    python3 scripts/mock_parity.py --src ../parent --src .

Each --src is a checkout (a directory holding src/ and scripts/). The
scenarios, run in this order with the tree's own code, one subprocess each
(stale_dirs has two):

- demo: scripts/run_mock_demo.py;
- corpus: scripts/make_synthetic_records.py (12 records);
- build: build-dataset on that corpus with --sizes 6,3,3;
- build_trimmed: the same with --skip-trees --corrected-reviewer-mapping
  --kinds D2T;
- generate: generate on the demo's draft and playbook;
- abort_planner, abort_expand, abort_write: generate with the demo's playbook
  changed so that the planner's reply has no sections, the second section
  expansion, or the second subsection write, gets HTTP 400;
- throttled: generate with the demo's playbook changed so that the first
  subsection write gets HTTP 429 twice before its reply (two retries);
- cached, cached_rerun: generate with a config whose one backend is the
  demo's playbook and whose cache_dir is cached/cache, first over the fresh
  cache (into cached/run), then over the warm one;
- bench: a 3-document bench on the demo's playbook;
- baseline: the zero-shot baseline on the demo's draft and playbook, whose
  reply lacks the description (exit 2);
- baseline_full: the same with the demo's playbook changed so that the reply
  holds all six sections (exit 0);
- bad_manifest, bad_playbook: bench on a manifest, and generate with a
  playbook, that is not JSON (exit 1);
- unset_key: generate with a config whose one backend is http and names an
  API key variable that is not set (exit 1; nothing is sent);
- rebuild: build-dataset with --kinds D2T on the corpus's first 9 records,
  into a copy of build's out dir;
- bench_trimmed: the bench again, without its third document, into a copy
  of bench's out dir;
- build_short: build-dataset with --sizes 4,0,0 on a 4-record corpus whose
  playbook fails the eleventh review, so only 3 records pass (exit 1);
- bench_redraft: the bench again, with its first document's draft edited
  (one answer extended), into a copy of bench's out dir;
- bench_unscorable: the bench's 3 documents, with d2's reference_file naming
  a missing file (exit 2; d2 is a failed row);
- stale_dirs: two commands, bench and build again, each into a copy of its
  out dir (stale_dirs/bench, stale_dirs/build) in which an owned path of an
  earlier run, generated/old.txt or drafts/old.json, is a directory holding
  one file. Its log holds both commands' output, in that order.

The inputs (the demo's draft and playbook, as files, and the 9- and 4-record
corpora) are written once, with the first tree's code, and copied to every
tree. A rerun scenario's copy is made just before it runs. Every file a
scenario writes is compared byte for byte, with latency_ms in calls.jsonl
zeroed, and so are each command's exit code, stdout and stderr. Prints one line per
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
                             "--skip-trees", "--corrected-reviewer-mapping", "--kinds", "D2T"]),
    ("generate", CLI + ["generate", "inputs/draft1.json", "--mock-playbook",
                        "inputs/playbook.json", "--out", "generate"]),
] + [
    (name, CLI + ["generate", "inputs/draft1.json", "--mock-playbook", f"inputs/{name}.json",
                  "--out", name])
    for name in ("abort_planner", "abort_expand", "abort_write", "throttled")
] + [
    (name, CLI + ["generate", "inputs/draft1.json", "--config", "inputs/cached.json", "--out", out])
    for name, out in (("cached", "cached/run"), ("cached_rerun", "cached_rerun"))
] + [
    ("bench", CLI + ["bench", "inputs/manifest.json", "--mock-playbook", "inputs/playbook.json",
                     "--out", "bench"]),
] + [
    (name, CLI + ["baseline", "inputs/draft1.json", "--mock-playbook", f"inputs/{playbook}.json",
                  "--out", name])
    for name, playbook in (("baseline", "playbook"), ("baseline_full", "baseline_full"))
] + [
    ("bad_manifest", CLI + ["bench", "inputs/bad.json", "--mock-playbook",
                            "inputs/playbook.json", "--out", "bad_manifest"]),
    ("bad_playbook", CLI + ["generate", "inputs/draft1.json", "--mock-playbook", "inputs/bad.json",
                            "--out", "bad_playbook"]),
    ("unset_key", CLI + ["generate", "inputs/draft1.json", "--config", "inputs/unset_key.json",
                         "--out", "unset_key"]),
    ("rebuild", CLI + ["build-dataset", "inputs/corpus9/records", "--mock-playbook",
                       "corpus/playbook.json", "--out", "rebuild", "--kinds", "D2T"]),
    ("bench_trimmed", CLI + ["bench", "inputs/manifest_trimmed.json", "--mock-playbook",
                             "inputs/playbook.json", "--out", "bench_trimmed"]),
    ("build_short", CLI + ["build-dataset", "inputs/corpus4/records", "--mock-playbook",
                           "inputs/build_short.json", "--out", "build_short", "--sizes", "4,0,0"]),
    ("bench_redraft", CLI + ["bench", "inputs/manifest_redraft.json", "--mock-playbook",
                             "inputs/playbook.json", "--out", "bench_redraft"]),
    ("bench_unscorable", CLI + ["bench", "inputs/manifest_unscorable.json", "--mock-playbook",
                                "inputs/playbook.json", "--out", "bench_unscorable"]),
    ("stale_dirs", [
        CLI + ["bench", "inputs/manifest.json", "--mock-playbook", "inputs/playbook.json",
               "--out", "stale_dirs/bench"],
        CLI + ["build-dataset", "corpus/records", "--mock-playbook", "corpus/playbook.json",
               "--out", "stale_dirs/build", "--sizes", "6,3,3"],
    ]),
]
# A rerun scenario starts from a copy of an earlier scenario's output, so
# that the earlier scenario's own files stay as it wrote them.
RERUN_OF = {"rebuild": "build", "bench_trimmed": "bench", "bench_redraft": "bench"}
# stale_dirs' copies: each earlier scenario, and the directory made in its copy.
STALE_DIRS = {"bench": "generated/old.txt", "build": "drafts/old.json"}
UNSET_KEY = "PATENTGEN_PARITY_UNSET_KEY"

HTTP_400 = {"error": "status", "code": 400}
HTTP_429 = {"error": "status", "code": 429}
FULL_PATENT = ("<Patent><Title> Self-Tuning Conveyor Drive </Title>"
               "<Abstract> A load-aware drive. </Abstract>"
               "<Background> Fixed drives overheat. </Background>"
               "<Summary> Gains retune from torque. </Summary>"
               "<Claims> 1. A drive. </Claims>"
               "<Full Description> A torque sensor feeds a gain scheduler. </Full Description>"
               "</Patent>")
# Each changed playbook: the start of the changed rule's match, and the
# responses it gets instead (an int keeps the demo's response at that index).
PLAYBOOK_EDITS = {
    "abort_planner": ("detailed writing guide", ["No sections in this reply."]),
    "abort_expand": ("split this section", [0, HTTP_400]),
    "abort_write": ("Just output this subsection", [0, HTTP_400]),
    "throttled": ("Just output this subsection", [HTTP_429, HTTP_429, 0]),
    "baseline_full": ("write a complete patent document", [FULL_PATENT]),
}


def write_inputs(tree: Path, out: Path) -> None:
    """The demo's draft (three times, as bench documents, and once edited),
    its playbook and the changed playbooks, written with tree's code."""
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
    (out / "manifest_trimmed.json").write_text(json.dumps({"docs": docs[:2]}), "utf-8")
    first = replace(DRAFT.qa[0], answer_text=DRAFT.qa[0].answer_text + " It also logs torque.")
    edited = replace(DRAFT, qa=(first, *DRAFT.qa[1:]), source_id="demo-1")
    (out / "draft1_edited.json").write_text(json.dumps(draft_to_record(edited)), "utf-8")
    redraft = [{**docs[0], "draft_file": "inputs/draft1_edited.json"}, *docs[1:]]
    (out / "manifest_redraft.json").write_text(json.dumps({"docs": redraft}), "utf-8")
    unscorable = [docs[0], {**docs[1], "reference_file": "inputs/no_such_ref.txt"}, docs[2]]
    (out / "manifest_unscorable.json").write_text(json.dumps({"docs": unscorable}), "utf-8")
    # The corpus scenario's first 9 and 4 records: its generator draws them in order.
    for n in (9, 4):
        subprocess.run([sys.executable, str(tree / "scripts" / "make_synthetic_records.py"),
                        "--out", str(out / f"corpus{n}"), "--n", str(n)], check=True,
                       capture_output=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    # At width 1 the eleventh review is the third record's first.
    record = json.loads((out / "corpus4" / "playbook.json").read_text("utf-8"))
    rule = next(r for r in record["rules"] if r["match"] == "meets the quality standards")
    rule["responses"] = rule["responses"] * 10 + [
        "<Result> Fail </Result><Reason> too vague </Reason>", rule["responses"][0]]
    (out / "build_short.json").write_text(json.dumps(record), "utf-8")
    playbook = demo_playbook()
    playbook.save(out / "playbook.json")
    for name, (match, responses) in PLAYBOOK_EDITS.items():
        record = playbook.to_record()
        rule = next(r for r in record["rules"] if r["match"].startswith(match))
        rule["responses"] = [rule["responses"][r] if isinstance(r, int) else r
                             for r in responses]
        (out / f"{name}.json").write_text(json.dumps(record), "utf-8")
    (out / "bad.json").write_text("{not json", "utf-8")
    (out / "cached.json").write_text(json.dumps({
        "backends": {"default": {"kind": "mock", "playbook_path": "inputs/playbook.json"}},
        "cache_dir": "cached/cache"}), "utf-8")
    # Port 9 on the loopback: the key is checked before anything is sent.
    (out / "unset_key.json").write_text(json.dumps({"backends": {"default": {
        "kind": "http", "endpoint": "http://127.0.0.1:9/v1", "api_key_env": UNSET_KEY}}}),
        "utf-8")


def run_scenarios(tree: Path, inputs: Path, work: Path) -> None:
    shutil.copytree(inputs, work / "inputs")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop(UNSET_KEY, None)
    for name, commands in SCENARIOS:
        if name in RERUN_OF:
            shutil.copytree(work / RERUN_OF[name], work / name)
        if name == "stale_dirs":
            for source, stale in STALE_DIRS.items():
                shutil.copytree(work / source, work / name / source)
                (work / name / source / stale).mkdir()
                (work / name / source / stale / "kept.txt").write_text("kept\n", "utf-8")
        log = ""
        for command in commands if isinstance(commands[0], list) else [commands]:
            command = [part.replace("{src}", str(tree)) for part in command]
            done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
            log += f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        (work / f"{name}.log").write_text(log.replace(str(tree), "SRC"), "utf-8")


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
            print(f"  {name:<16} {len(paths):>4} files  {verdict}")
    print("all outputs identical" if differences == 0 else f"{differences} files differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
