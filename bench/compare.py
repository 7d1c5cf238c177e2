"""Compare two result files of ``bench.run``.

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric both files hold, prints one row
with A's value (the base), B's value, B/A and a verdict against the
metric's bound:

* ``within bound`` — B is neither better nor worse than A by more than
  the bound;
* ``worse`` / ``better`` — beyond the bound, in the metric's direction;
* ``unresolved`` — either side's inter-quartile spread (over its runs,
  or over its rounds when the file holds one run) is wider than the
  bound, so the two cannot be told apart.

For traced result files the exact-repeat counts must be identical.  The
exit status is non-zero on any ``worse``, on differing counts, or when B
failed a larger share of its operations than A.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = ROOT  # bench/trace.py must not shadow the stdlib's

from bench.metrics import END_TO_END, EXACT_COUNTS, WORKLOADS  # noqa: E402

__all__ = ["verdict", "compare", "main"]


def _spread(entry: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    if not entry["median"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """One metric, one workload: A is the base, B the candidate."""
    if _spread(a) > bound or _spread(b) > bound:
        return "unresolved"
    base, value = a["value"], b["value"]
    change = (value - base) / abs(base) if base else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the comparison; returns the process exit status."""
    status = 0
    print(f"{'metric':<28} {'workload':<20} {'A (base)':>11} {'B':>11} "
          f"{'B/A':>7} {'iqrA':>6} {'iqrB':>6} {'bound':>6}  verdict",
          file=out)
    for metric in END_TO_END:
        for workload in (w.name for w in WORKLOADS):
            try:
                ea = a["workloads"][workload]["metrics"][metric.name]
                eb = b["workloads"][workload]["metrics"][metric.name]
            except KeyError:
                continue
            if ea["value"] is None or eb["value"] is None:
                continue
            result = verdict(ea, eb, metric.better, metric.bound)
            if result == "worse":
                status = 1
            ratio = eb["value"] / ea["value"] if ea["value"] else float("nan")
            print(f"{metric.name:<28} {workload:<20} {ea['value']:>11.4g} "
                  f"{eb['value']:>11.4g} {ratio:>7.3f} "
                  f"{100 * _spread(ea):>5.1f}% {100 * _spread(eb):>5.1f}% "
                  f"{100 * metric.bound:>5.0f}%  {result}", file=out)
    for workload in (w.name for w in WORKLOADS):
        wa = a["workloads"].get(workload)
        wb = b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        share_a = wa["failed"] / max(1, wa["attempted"])
        share_b = wb["failed"] / max(1, wb["attempted"])
        if share_b > share_a:
            status = 1
            print(f"failed operations       {workload:<20} "
                  f"A {wa['failed']}/{wa['attempted']}  "
                  f"B {wb['failed']}/{wb['attempted']}  higher share",
                  file=out)
        if "per_layer" in wa and "per_layer" in wb:
            differing = [name for name in sorted(EXACT_COUNTS)
                         if wa["per_layer"][name] != wb["per_layer"][name]]
            for name in differing:
                status = 1
                print(f"count differs           {workload:<20} {name}: "
                      f"A {wa['per_layer'][name]!r}  "
                      f"B {wb['per_layer'][name]!r}", file=out)
            if not differing:
                print(f"exact-repeat counts     {workload:<20} identical "
                      f"({len(EXACT_COUNTS)})", file=out)
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return compare(*documents)


if __name__ == "__main__":
    sys.exit(main())
