"""Self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py        (from the root of the checkout)

For every workload: one `--smoke --trace 0` run whose result line carries
exactly the end-to-end metrics of BENCHMARK.json, and two `--smoke --trace 1`
runs with one seed whose result lines carry exactly the per-layer metrics
and agree on every count.  Also checks that the benchmark refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and
perfbench/.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from layers import COUNTS  # noqa: E402


def run(workload, trace, bench_dir=HERE, cwd=None):
    return subprocess.run(
        [sys.executable, os.path.join(bench_dir, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(doc)}")
    if not doc["correct"] or doc["failed"]:
        raise AssertionError("failed jobs:\n" + proc.stdout)
    return doc["metrics"]


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []

    def expect(cond, message):
        if not cond:
            problems.append(message)
        print(("ok    " if cond else "FAIL  ") + message, flush=True)

    for spec in bench["workloads"]:
        name = spec["name"]
        try:
            e2e = result(run(name, 0))
            first, second = result(run(name, 1)), result(run(name, 1))
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            expect(False, f"{name}: {exc}")
            continue
        expect(list(e2e) == [m["name"] for m in bench["end_to_end"]],
               f"{name}: end-to-end metrics match BENCHMARK.json")
        expect(list(first) == [m["name"] for m in bench["per_layer"]],
               f"{name}: per-layer metrics match BENCHMARK.json")
        differ = [k for k in COUNTS if first[k]["value"] != second[k]["value"]]
        expect(not differ, f"{name}: counts repeat across two traced runs {differ or ''}")

    bare = os.path.join(root, ".perfbench-work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        proc = run(bench["workloads"][0]["name"], 0, os.path.join(bare, "perfbench"), bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
