#!/usr/bin/env python3
"""Behaviour-equivalence digests of the chaos, trace and analyzer tools.

Runs a fixed set of deterministic commands and hashes what they print and
write:

  chaos    daric_chaos --sweep 200 --protocol all -v
           daric_chaos --durable-sweep 200 -v
           daric_chaos --boundary
  trace    daric_trace --engine E --scenario S for the 4 engines x 3 scenarios
           daric_trace --replay tests/schedules/funds-loss-beyond-bound.sched
  analyze  daric_analyze --auth --json F --dot G over all six engines

Every trace run contributes its stdout (with the exit status) and its four
artifacts; the analyzer run its stdout, JSON report and DOT graph. The `sim.hooks.run` counter is dropped from the metrics artifacts
before hashing: it counts how many round hooks the environment called, a
cost that scheduling changes are meant to move, not protocol behaviour.

Usage:
  behaviour_digest.py --build DIR --write FILE            all groups
  behaviour_digest.py --build DIR --check FILE [--group G]...

--check compares the selected groups (default: all) against FILE and exits
1 on any mismatch or missing entry; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINES = ("daric", "lightning", "eltoo", "generalized")
SCENARIOS = ("update", "force-close", "htlc")
REPLAY = "tests/schedules/funds-loss-beyond-bound.sched"
ARTIFACTS = ("trace.jsonl", "trace_chrome.json", "metrics.json", "metrics.txt")
COST_COUNTER_JSON = re.compile(rb'"sim\.hooks\.run":\d+,?')
COST_COUNTER_TEXT = re.compile(rb"^sim\.hooks\.run .*\n", re.MULTILINE)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(cmd: list[str], cwd: Path) -> bytes:
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return proc.stdout + f"exit={proc.returncode}\n".encode()


def normalize(name: str, data: bytes) -> bytes:
    if name == "metrics.json":
        return COST_COUNTER_JSON.sub(b"", data)
    if name == "metrics.txt":
        return COST_COUNTER_TEXT.sub(b"", data)
    return data


def chaos_digests(build: Path) -> dict[str, str]:
    exe = str(build / "tools" / "daric_chaos")
    cmds = {
        "chaos:sweep-200-all": [exe, "--sweep", "200", "--protocol", "all", "-v"],
        "chaos:durable-sweep-200": [exe, "--durable-sweep", "200", "-v"],
        "chaos:boundary": [exe, "--boundary"],
    }
    return {label: sha(run(cmd, ROOT)) for label, cmd in cmds.items()}


def trace_digests(build: Path) -> dict[str, str]:
    exe = str(build / "tools" / "daric_trace")
    runs = {f"{e}/{s}": ["--engine", e, "--scenario", s] for e in ENGINES for s in SCENARIOS}
    runs["replay/funds-loss-beyond-bound"] = ["--replay", str(ROOT / REPLAY)]
    out: dict[str, str] = {}
    for label, args in runs.items():
        with tempfile.TemporaryDirectory() as tmp:
            # A fixed relative --out keeps the printed artifact path stable.
            out[f"trace:{label}/stdout"] = sha(run([exe, *args, "--out", "out"], Path(tmp)))
            for name in ARTIFACTS:
                data = (Path(tmp) / "out" / name).read_bytes()
                out[f"trace:{label}/{name}"] = sha(normalize(name, data))
    return out


def analyze_digests(build: Path) -> dict[str, str]:
    exe = str(build / "tools" / "daric_analyze")
    with tempfile.TemporaryDirectory() as tmp:
        # Relative output names keep any path the tool prints stable.
        cmd = [exe, "--auth", "--json", "report.json", "--dot", "report.dot"]
        out = {"analyze:auth/stdout": sha(run(cmd, Path(tmp)))}
        for name in ("report.json", "report.dot"):
            out[f"analyze:auth/{name}"] = sha((Path(tmp) / name).read_bytes())
    return out


GROUPS = {"chaos": chaos_digests, "trace": trace_digests, "analyze": analyze_digests}


def parse(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text().splitlines():
        if line.strip():
            digest, label = line.split(None, 1)
            entries[label] = digest
    return entries


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", required=True, type=Path)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", type=Path)
    mode.add_argument("--check", type=Path)
    ap.add_argument("--group", action="append", choices=sorted(GROUPS))
    args = ap.parse_args(argv)
    build = args.build if args.build.is_absolute() else ROOT / args.build

    if args.write:
        if args.group:
            ap.error("--write always records every group")
        got = {}
        for fn in GROUPS.values():
            got.update(fn(build))
        args.write.write_text("".join(f"{d}  {label}\n" for label, d in got.items()))
        print(f"behaviour: wrote {len(got)} digests to {args.write}")
        return 0

    want = parse(args.check)
    bad = 0
    for group in args.group or sorted(GROUPS):
        got = GROUPS[group](build)
        expected = {k: v for k, v in want.items() if k.startswith(group + ":")}
        for label in sorted(expected.keys() | got.keys()):
            if expected.get(label) != got.get(label):
                bad += 1
                print(f"behaviour: MISMATCH {label}")
        print(f"behaviour: {group}: {len(got)} digests checked")
    if bad:
        print(f"behaviour: {bad} digest(s) differ from {args.check}", file=sys.stderr)
        return 1
    print(f"behaviour: identical to {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
