#!/usr/bin/env python3
"""The benchmark's own test: its answer check must catch a wrong answer.

Runs family-lift (the quickest workload) twice through run.py: once
against the committed expected-answer table, which must pass, and once
against a copy with one digest corrupted, which must fail with that
answer counted in `failed`. Run from the root of a checkout:

    python3 perfbench/test_bench.py
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TABLE = os.path.join(HERE, "expected_answers.tsv")


def run(expected=None):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", "family-lift", "--seed", "1", "--seconds", "1",
               "--trace", "0"]
    if expected:
        command += ["--expected", expected]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert out.returncode == 0, f"run.py exited {out.returncode}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def corrupted_table(directory):
    """Copies the table with the first family-lift digest altered."""
    lines = open(TABLE).read().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("fattree(2)|"):
            key, digest = line.rstrip("\n").split("\t")
            flipped = ("1" if digest[0] != "1" else "2") + digest[1:]
            lines[i] = f"{key}\t{flipped}\n"
            break
    else:
        raise AssertionError("no fattree(2) answer in the table")
    path = os.path.join(directory, "corrupted_answers.tsv")
    with open(path, "w") as f:
        f.writelines(lines)
    return path


def main():
    good = run()
    assert good["correct"] and good["failed"] == 0, good
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    with tempfile.TemporaryDirectory(dir=build) as scratch:
        bad = run(corrupted_table(scratch))
    assert not bad["correct"], bad
    assert bad["failed"] == 1, bad
    assert bad["attempted"] == good["attempted"], (bad, good)
    print("ok: the corrupted expected answer failed the run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
