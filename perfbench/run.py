"""The repository's benchmark: the ``repro.serve`` server, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-read --seed 1 --seconds 16 --trace 0

Workloads (``perfbench/spec.json`` records why each exists, its crowd,
server flags and loop):

* ``warm-read``   -- open-loop ladder of cache-hit HnD reads over two
  connections; 9 of 10 are ``top_k(100)``, the 10th a full ``rank``;
* ``append-rank`` -- closed loop: append one 500-answer batch, then rank
  MajorityVote;
* ``hnd-refresh`` -- closed loop of refresh pairs: append + cold HnD rank,
  then append + warm-started HnD rank.

Every run generates the ``planted-100k`` crowd from ``--seed``, starts a
real ``python -m repro.cli serve --port 0 --store <fresh dir>`` three times
(set-up time is the median), drives the last server for ``--seconds``,
and checks every reply against in-process results.  ``--trace 0`` prints
the end-to-end metrics.  ``--trace 1`` serves the same way, then replays
the request sequence in-process with spans around each layer, prints the
per-layer metrics, and writes the spans.  The last line of standard output
is the JSON result; results and spans go to ``.perfbench/results/``.
The exit code is 0 only when every request succeeded and every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("warm-read", "append-rank", "hnd-refresh")


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def machine() -> Dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def end_to_end(run, crowd) -> Dict[str, Dict[str, object]]:
    from repro.evaluation.metrics import spearman_accuracy

    served = [op.scores for op in run.ops if op.scores is not None]
    return {
        "setup_s": _metric(_median(run.setup_s), "s"),
        "op_p50_ms": _metric(_median(run.op_ms), "ms"),
        "server_rss_mb": _metric(run.rss_mb, "MB"),
        "spearman_truth": _metric(
            spearman_accuracy(served[-1], crowd.ability), "rho"),
    }


def per_layer(run, replayer, tracer, probe, walls,
              requests: int) -> Dict[str, Dict[str, object]]:
    from served import NOMINAL_RPS

    self_ms = tracer.self_ms()
    by_name: Dict[str, List[float]] = {}
    roots = covered = 0.0
    for span, own in zip(tracer.spans, self_ms):
        by_name.setdefault(span.name, []).append(own)
        if span.name == "request":
            duration = (span.end - span.start) * 1e3
            roots += duration
            covered += duration - own

    def layer(name: str) -> float:
        return _median(by_name.get(name, []))

    # The served unit of work and its in-process replay, phase "timed".
    replay_units: List[float] = []
    unit: List[float] = []
    per_unit = {"warm-read": 1, "append-rank": 2, "hnd-refresh": 4}[run.workload]
    for index, op in enumerate(run.ops):
        if op.phase == "timed":
            unit.append(replayer.request_ms[index])
            if len(unit) == per_unit:
                replay_units.append(sum(unit))
                unit = []
    if run.workload == "warm-read":
        # Only the nominal-rate step is the served op_p50 sample.
        first = sum(step["requests"] for step in run.ladder
                    if step["rate"] < NOMINAL_RPS)
        replay_units = replay_units[first:first + len(run.op_ms)]

    cold = [s["matvecs"] for s in replayer.solves if not s["warm"]]
    warm = [s["matvecs"] for s in replayer.solves if s["warm"]]
    warm_ranks = [op for op in run.ops if op.phase == "timed" and op.warm]
    delta = run.stats_delta
    lookups = delta["cache_hits"] + delta["cache_misses"]
    failed = len(run.failures)
    m = {
        "serve.decode_ms": _metric(layer("serve.decode"), "ms"),
        "serve.key_ms": _metric(layer("serve.key"), "ms"),
        "serve.encode_ms": _metric(layer("serve.encode"), "ms"),
        "serve.reply_kb": _metric(_median(replayer.reply_kb), "KiB"),
        "serve.residual_ms": _metric(
            _median(run.op_ms) - _median(replay_units), "ms"),
        "serve.solves": _metric(delta["solves"], "count"),
        "serve.coalesced": _metric(delta["coalesced"], "count"),
        "serve.errors": _metric(delta["errors"], "count"),
        "serve.failed_frac": _metric(failed / max(run.attempted, 1), "ratio"),
        "serve.op_p90_ms": _metric(_percentile(run.op_ms, 90), "ms"),
        "ranking.top_users_ms": _metric(layer("ranking.top_users"), "ms"),
        "cache.lookup_ms": _metric(layer("cache.lookup"), "ms"),
        "cache.hit_ratio": _metric(
            delta["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "api.flush_ms": _metric(layer("api.flush"), "ms"),
        "response.build_ms": _metric(layer("response.build"), "ms"),
        "response.hash_ms": _metric(layer("response.hash"), "ms"),
        "response.compile_ms": _metric(layer("response.compile"), "ms"),
        "hnd.matvecs_cold": _metric(_median(cold), "count"),
        "hnd.matvecs_warm": _metric(_median(warm), "count"),
        "hnd.matvec_ms": _metric(probe["matvec_ms"], "ms"),
        "hnd.kernel_ms": _metric(probe["kernel_ms"], "ms"),
        "hnd.roofline_ms": _metric(probe["roofline_ms"], "ms"),
        "hnd.matvec_vs_roofline": _metric(
            probe["matvec_ms"] / probe["roofline_ms"], "ratio"),
        "hnd.wrapper_share": _metric(
            (probe["matvec_ms"] - probe["kernel_ms"]) / probe["matvec_ms"],
            "ratio"),
        "hnd.matvec_flops": _metric(probe["matvec_flops"], "flop"),
        "hnd.matvec_bytes": _metric(probe["matvec_bytes"], "B"),
        "hnd.driver_ms": _metric(layer("hnd.power"), "ms"),
        "hnd.warm_used": _metric(
            sum(op.warm_mode == "warm" for op in warm_ranks)
            / len(warm_ranks) if warm_ranks else 0.0, "ratio"),
        "symmetry.orient_ms": _metric(layer("symmetry.orient"), "ms"),
        "mv.solve_ms": _metric(layer("mv.solve"), "ms"),
        "store.save_crowd_ms": _metric(probe["save_crowd_ms"], "ms"),
        "store.put_snapshot_ms": _metric(probe["put_snapshot_ms"], "ms"),
        "store.backlog_jobs": _metric(run.backlog_jobs, "count"),
        "store.write_failures": _metric(delta["store_write_failures"], "count"),
        "store.durability_lag_s": _metric(run.durability_lag_s, "s"),
        "gen.late_frac": _metric(run.late_frac, "ratio"),
        "gen.lag_p99_ms": _metric(_percentile(run.lag_ms, 99), "ms"),
        "trace.overhead_ms": _metric(
            (walls["traced"] - walls["plain"]) * 1e3 / requests, "ms"),
        "trace.coverage": _metric(covered / roots, "ratio"),
    }
    return m


def report(args, spec_name: str, run, metrics, info) -> None:
    print("perfbench %s seed=%d seconds=%g trace=%d crowd=%s"
          % (args.workload, args.seed, args.seconds, args.trace, spec_name))
    print("machine: " + " ".join("%s=%s" % item for item in info.items()))
    print("setup_s samples: " + " ".join("%.3f" % s for s in run.setup_s))
    for step in run.ladder:
        print("ladder %4g rps: n=%d p50=%.2f ms p99=%.2f ms late_frac=%.3f "
              "lag_p99=%.2f ms lateness_growth=%.2f ms %s"
              % (step["rate"], step["requests"], step["p50_ms"],
                 step["p99_ms"], step["late_frac"], step["lag_p99_ms"],
                 step["lateness_growth_ms"],
                 "pass" if step["passed"] else "FAIL"))
    print("op samples: %d" % len(run.op_ms))
    for name, value in run.diagnostics.items():
        print("served %s = %s" % (name, value))
    for name, metric in metrics.items():
        print("metric %-26s %14.6g %s" % (name, metric["value"], metric["unit"]))
    for failure in run.failures:
        print("FAILED: " + failure)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (perfbench/selftest.py): a small crowd, and one
    # served score nudged by an ulp so the output checks must fail.
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--perturb", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print("error: no repro sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import crowd as crowds
    import served
    from replay import NullTracer, Replayer, Tracer

    results_dir = ROOT / ".perfbench" / "results"
    workdir = ROOT / ".perfbench" / ("run-%d" % os.getpid())
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        crowd = crowds.generate(crowds.SCALES[args.scale], args.seed)
        run = served.serve(args.workload, crowd, args.seconds, ROOT, workdir,
                           measure_drain=bool(args.trace))
        if args.perturb:
            checks.perturb(run)
        method = served.METHOD[args.workload]
        verdict = checks.Checks()
        cold = checks.check_served(run, crowd, method, verdict)
        spans = None
        if args.trace:
            plain = Replayer(crowd, NullTracer())
            walls = {"plain": plain.replay(run.ops)}
            del plain
            tracer = Tracer()
            replayer = Replayer(crowd, tracer)
            walls["traced"] = replayer.replay(run.ops)
            checks.check_replay(run, replayer, cold, verdict)
            run.failures.extend(verdict.failures)
            probe = replayer.probe(method, workdir)
            metrics = per_layer(run, replayer, tracer, probe, walls,
                                len(replayer.request_ms))
            spans = tracer.to_json()
        else:
            run.failures.extend(verdict.failures)
            metrics = end_to_end(run, crowd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = machine()
    report(args, crowd.spec.name, run, metrics, info)
    failed = len(run.failures)
    result = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed, "metrics": metrics}
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "scale": args.scale,
              "crowd": crowd.spec.__dict__, "machine": info,
              "finished": time.time(), "result": result,
              "setup_s": run.setup_s, "ladder": run.ladder,
              "diagnostics": run.diagnostics, "stats_delta": run.stats_delta,
              "op_ms": run.op_ms,
              "request_ms": [[op.phase, op.op, op.warm, op.served_ms]
                             for op in run.ops if op.phase == "timed"],
              "checks_performed": verdict.performed,
              "failures": run.failures}
    (results_dir / (stem + ".json")).write_text(json.dumps(record, indent=1))
    if spans is not None:
        (results_dir / (stem + "-spans.json")).write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
