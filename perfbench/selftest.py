"""Toy-scale self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload of ``BENCHMARK.json`` on the small ``toy`` crowd,
untraced and traced, and checks that

* each run exits 0 with ``correct`` true and every metric named in
  ``BENCHMARK.json`` printed with its declared unit;
* ``trace.coverage`` is at least 0.95;
* the output checks reject a served score vector nudged by one ulp, and
  reject a warm ranking that swaps two users, so they cannot pass
  vacuously.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"
MIN_COVERAGE = 0.95


def run(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", SECONDS, "--trace", str(trace),
         "--scale", "toy", *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check_units(result, declared, label: str, problems) -> None:
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append("%s: metrics %s, expected %s" % (
            label, sorted(metrics), sorted(m["name"] for m in declared)))
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append("%s: %s has unit %r, expected %r" % (
                label, metric["name"], got.get("unit"), metric["unit"]))
        if not math.isfinite(got.get("value", float("nan"))):
            problems.append("%s: %s is not a finite number" % (
                label, metric["name"]))


def check_rejections(problems) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    from checks import Checks

    scores = np.linspace(0.0, 1.0, 50)
    nudged = scores.copy()
    nudged[7] = np.nextafter(nudged[7], np.inf)
    swapped = scores.copy()
    swapped[[10, 40]] = swapped[[40, 10]]
    verdict = Checks()
    verdict.identical("nudged", scores, nudged)
    verdict.within_gap("swapped", scores, swapped)
    verdict.identical("same", scores, scores.copy())
    if len(verdict.failures) != 2:
        problems.append("checks: expected exactly the nudged and swapped "
                        "vectors to fail, got %s" % verdict.failures)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s trace=%d" % (workload, trace)
            proc, result = run(workload, trace)
            if proc.returncode != 0 or not result or not result["correct"]:
                problems.append("%s: exit %d, result %s\n%s" % (
                    label, proc.returncode, result, proc.stdout[-2000:]
                    + proc.stderr[-2000:]))
                continue
            check_units(result, declared, label, problems)
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                if coverage < MIN_COVERAGE:
                    problems.append("%s: trace.coverage %.4f < %.2f"
                                    % (label, coverage, MIN_COVERAGE))
            print("ok %s" % label, flush=True)
    workload = spec["workloads"][0]["name"]
    proc, result = run(workload, 0, "--perturb")
    if proc.returncode == 0 or result is None or result["correct"] \
            or result["failed"] < 1:
        problems.append("perturbed %s run was not rejected: exit %d, %s"
                        % (workload, proc.returncode, result))
    else:
        print("ok perturbed scores rejected", flush=True)
    check_rejections(problems)
    for problem in problems:
        print("PROBLEM: " + problem)
    print("selftest %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
