"""Replay the README's CLI examples through `cpltl.cli.main`.

Each `$ cpltl ...` example in the README runs in this interpreter with
stdout captured.  An example passes when the exit code matches the README's
exit-code rule and the README's output lines appear in stdout in order.
Lines the CLI prints beyond the README's (abridged) output are listed.

Usage: `python3 perfbench/replay.py` from any directory; it prints one
JSON object and writes `lift.sys` into the current directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def examples(readme: str) -> tuple:
    """(lift.sys text, [(argv, expected lines), ...]) from the README."""
    system = re.search(r"Save as `lift\.sys`:\s*```text\n(.*?)```", readme, re.S)
    if system is None:
        raise ValueError("README has no lift.sys block")
    found = []
    for block in re.findall(r"```text\n(.*?)```", readme, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = chunk.splitlines()
            found.append((shlex.split(command), [ln for ln in lines if ln.strip()]))
    return system.group(1), found


def expected_exit(lines) -> int:
    """README: 1 when the property fails or the problem is infeasible."""
    return 1 if {"holds=false", "status=infeasible"} & set(lines) else 0


def replay(argv, lines) -> dict:
    from cpltl.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv[1:])
    printed = buffer.getvalue().splitlines()
    missing = []
    at = 0
    for line in lines:
        try:
            at = printed.index(line, at) + 1
        except ValueError:
            missing.append(line)
    return {
        "command": " ".join(argv),
        "exit": code,
        "expected_exit": expected_exit(lines),
        "missing": missing,
        "unlisted": [ln for ln in printed if ln not in lines],
    }


def main() -> int:
    with open(os.path.join(ROOT, "README.md")) as fh:
        system, found = examples(fh.read())
    with open("lift.sys", "w") as fh:
        fh.write(system)
    results = [replay(argv, lines) for argv, lines in found]
    problems = [
        f"{r['command']}: exit {r['exit']}, README implies {r['expected_exit']}"
        for r in results if r["exit"] != r["expected_exit"]
    ] + [
        f"{r['command']}: README line {line!r} not printed in order"
        for r in results for line in r["missing"]
    ]
    if len(results) != 4:
        problems.append(f"expected 4 README examples, found {len(results)}")
    print(json.dumps({"examples": results, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
