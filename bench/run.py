"""One command for the whole benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--repeat N] [--quick] [--out DIR]

(equivalently ``PYTHONPATH=src python -m bench.run``).  Every selected
workload runs in its own child process; results are checked against the
oracle, printed by metric name with unit, sample count, per-round values,
median and quartiles, and written to ``<out>/results.json``.  Without
``--trace`` the end-to-end metrics are measured; with it, the per-layer
metrics of a traced run (and ``<out>/trace-<workload>.jsonl``).

With ``--workload`` the last line of standard output is the pipeline's
contract object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Run as a script, sys.path[0] is bench/ itself, where trace.py
    # would shadow the standard library's; the repository root (for
    # `bench`) and src/ (for `repro`) are what belongs there.
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))

from bench import harness  # noqa: E402
from bench.metrics import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                           end_to_end_for)
from bench.workloads import WORKLOAD_CLASSES  # noqa: E402

CHILD_TIMEOUT_S = 170


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; with several, a metric's "
                             "spread is taken over runs instead of rounds")
    parser.add_argument("--quick", action="store_true",
                        help="tiny datasets, two rounds (the smoke test)")
    parser.add_argument("--out", default=os.path.join(ROOT, "bench", "out"),
                        help="directory for results.json and trace files")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn(args: argparse.Namespace, workload: str, seconds: float) -> dict:
    """Run one child to completion and return the document it printed."""
    command = [
        sys.executable, os.path.join(ROOT, "bench", "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
        "--out", args.out, "--t0", repr(time.time()),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: workload {workload} exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(args: argparse.Namespace, workload: str) -> dict:
    """One run.  Traced: one child.  Otherwise ``Workload.processes``
    fresh children share ``--seconds``; each replays the same operations,
    so their rounds pool into one set of replicates, and ``setup_s`` is
    the median of their set-up times."""
    if args.trace:
        return spawn(args, workload, args.seconds)
    spec = WORKLOAD_CLASSES[workload](args.seed, None, args.out, False)
    processes = 1 if args.quick else spec.processes
    children = [spawn(args, workload, args.seconds / processes)
                for _ in range(processes)]
    rounds = [SimpleNamespace(**rnd)  # .samples, .extra
              for child in children for rnd in child["rounds"]]
    metrics = harness.end_to_end(spec, rounds)
    metrics["setup_s"] = harness.summary([c["setup_s"] for c in children])
    peaks = [c["peak_rss_mb"] for c in children]
    metrics["peak_rss_mb"] = harness.summary(peaks, value=max(peaks))
    return {
        "workload": workload, "metrics": metrics,
        "diagnostics": spec.diagnostics(harness.quiet_samples(rounds)),
        "rounds": len(rounds), "processes": processes,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "failures": [f for c in children for f in c["failures"]][:10],
    }


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """``--repeat`` runs of one workload.  With several, a metric's
    samples are the runs' values and its value their median — the
    spread ``compare.py`` should judge two sets of runs by."""
    started = time.perf_counter()
    runs = [run_once(args, workload) for _ in range(args.repeat)]
    result = runs[-1]
    if not args.trace:
        metrics = result["metrics"]
        if len(runs) > 1:
            for key in ("attempted", "failed", "failures"):
                result[key] = sum((run[key] for run in runs[:-1]),
                                  result[key])
            for name in metrics:
                values = [run["metrics"][name]["value"] for run in runs
                          if name in run["metrics"]]
                metrics[name] = harness.summary(
                    values,
                    n=sum(run["metrics"][name]["n"] for run in runs
                          if name in run["metrics"]))
        for metric in END_TO_END:
            if metric.name in metrics:
                metrics[metric.name].update(unit=metric.unit,
                                            better=metric.better)
    result["runs"] = len(runs)
    result["total_wall_s"] = time.perf_counter() - started
    return result


def contract_object(result: dict, trace: int) -> dict:
    """What the pipeline reads from the last line of standard output."""
    if trace:
        metrics = {
            m.name: {"value": result["per_layer"][m.name], "unit": m.unit}
            for m in PER_LAYER
        }
    else:
        metrics = {}
        for m in END_TO_END:
            if not m.guarded:
                continue
            value = result["metrics"].get(m.name, {}).get("value")
            if value is None:
                raise SystemExit(
                    f"bench: {result['workload']} measured no {m.name}")
            metrics[m.name] = {"value": value, "unit": m.unit}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_report(result: dict, trace: int) -> None:
    name = result["workload"]
    why = next(w.why for w in WORKLOADS if w.name == name)
    print(f"\n== {name} — {why}")
    print(f"   operations attempted {result['attempted']}, failed "
          f"{result['failed']}; {result['runs']} run(s) of "
          f"{result.get('processes', 1)} process(es), {result['rounds']} "
          f"rounds in the last; {result['total_wall_s']:.1f} s")
    for message in result["failures"]:
        print(f"   FAILED: {message}")
    if trace:
        print(f"   {result['trace_spans']} spans in {result['trace_file']}")
        for m in PER_LAYER:
            print(f"   {m.name:<48} {_fmt(result['per_layer'][m.name]):>10}"
                  f" {m.unit}")
        return
    print(f"   {'metric':<28} {'unit':<5} {'value':>10} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'n':>8}  "
          + ("per-run" if result["runs"] > 1 else "per-round"))
    for m in end_to_end_for(name):
        entry = result["metrics"].get(m.name)
        if entry is None:
            continue
        rounds = " ".join(_fmt(v) for v in entry["rounds"])
        note = "" if m.guarded else "  (diagnostic)"
        print(f"   {m.name:<28} {m.unit:<5} {_fmt(entry['value']):>10} "
              f"{_fmt(entry['median']):>10} "
              f"{_fmt(entry['q1']):>10} {_fmt(entry['q3']):>10} "
              f"{entry['n']:>8}  {rounds}{note}")
    for key, value in result.get("diagnostics", {}).items():
        print(f"   {key:<28} {'':<5} {_fmt(value):>10}  (diagnostic)")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.quick:
        args.seconds = 0.0  # exactly the minimum number of rounds
    if args.child:
        if args.t0 is None:
            args.t0 = time.time()
        print(json.dumps(harness.run_child(args)))
        return 0

    env = harness.env_stamp(args.seed)
    nproc = env["nproc"] or 1
    if env["loadavg_1m_start"] > nproc / 2:
        sys.stderr.write(
            f"bench: warning: 1-minute load average "
            f"{env['loadavg_1m_start']:.2f} exceeds nproc/2 = {nproc / 2}; "
            "a busy neighbour is the main source of spread here\n")
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    results = {}
    for name in names:
        results[name] = run_workload(args, name)
        print_report(results[name], args.trace)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"schema": 1, "env": env, "quick": args.quick,
                   "seconds": args.seconds, "trace": args.trace,
                   "workloads": results}, handle, indent=1)
        handle.write("\n")
    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    print(f"\n{len(names)} workload(s): {attempted} operations attempted, "
          f"{failed} failed; results in "
          f"{os.path.join(args.out, 'results.json')}")
    if args.workload:
        print(json.dumps(contract_object(results[args.workload],
                                         args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
