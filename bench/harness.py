"""The measuring child process, and the statistics over what it measured.

``bench.run`` starts every workload in fresh child processes (so
workloads never share a heap, a plan cache or a GC history) and reads
the JSON document each prints last.  A child sets up, runs one warm-up
round, then timed rounds of a fixed operation list until its share of
``--seconds`` has passed.  A run is several such processes
(``Workload.processes``): every one replays the same seeded operations,
so the run has a replicate of each operation per round per process,
spread over the run's whole wall time and over several memory layouts.
A metric's value is computed from each operation's lower-quartile
latency over those replicates (:func:`quiet_samples`); the per-round
values, their median and quartiles are reported beside it.

With ``--trace`` one child runs its first rounds under
:class:`bench.trace.Tracer` and the rest untraced, so the difference is
the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from typing import Any

from .datasets import Sizes
from .metrics import EXACT_COUNTS, PER_LAYER

__all__ = ["run_child", "env_stamp", "summary", "end_to_end", "quiet_samples",
           "ROOT"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- statistics -------------------------------------------------------------------


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def summary(values: list[float], *, n: int | None = None,
            value: float | None = None) -> dict[str, Any]:
    """Median and quartiles over per-round *values*.

    *n* is the number of samples behind them; *value* overrides the
    reported figure (a percentile pooled over all rounds) while the
    rounds keep the spread.
    """
    if not values:
        return {"n": 0, "rounds": [], "value": None, "median": None,
                "q1": None, "q3": None}
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": n if n is not None else len(values), "rounds": values,
            "value": median if value is None else value,
            "median": median, "q1": q1, "q3": q3}


# -- end-to-end metrics -------------------------------------------------------------


def quiet_samples(rounds: list[Any]) -> list[tuple]:
    """One sample per operation: its lower-quartile latency over the rounds.

    Every round replays the same operation list, so the rounds are
    replicates of each operation.  On this shared box interference only
    ever adds time, and it comes in episodes — seconds to minutes in
    which everything runs a third slower or worse.  An operation's
    replicates are spread over the run's rounds and processes, so some
    of them fall outside the episodes, and the lower quartile (the
    fastest of up to four replicates, the third fastest of twelve) is
    what the operation costs when nothing else competes.  A median over
    rounds instead moves with the share of time the neighbours were
    busy.
    """
    by_op: dict[int, list[tuple]] = {}
    for rnd in rounds:
        for sample in rnd.samples:
            by_op.setdefault(sample[0], []).append(sample)
    out = []
    for op in sorted(by_op):
        replicates = by_op[op]
        _, kind, _, _, rows = replicates[0]
        latencies = sorted(s[2] for s in replicates)
        firsts = sorted(s[3] for s in replicates if s[3] >= 0)
        out.append((
            op, kind, latencies[(len(latencies) - 1) // 4],
            firsts[(len(firsts) - 1) // 4] if firsts else -1, rows,
        ))
    return out


def figures(workload: Any, samples: list[tuple]) -> dict[str, float]:
    """The end-to-end metrics a list of samples supports."""
    kinds = workload.latency_kinds
    seconds = sum(s[2] for s in samples) / 1e9
    pool = sorted(ns for _, kind, ns, _, _ in samples
                  if kinds is None or kind in kinds)
    first = [f for _, kind, _, f, _ in samples
             if kind in workload.first_row_kinds and f >= 0]
    if not seconds or not pool:
        return {}
    out = {
        "stmts_per_s": len(samples) / seconds,
        "rows_per_s": sum(s[4] for s in samples) / seconds,
        "stmt_latency_p50_ms": statistics.median(pool) / 1e6,
        "stmt_latency_p95_ms": percentile(pool, 0.95) / 1e6,
    }
    if first:
        out["first_row_p50_ms"] = statistics.median(first) / 1e6
    out.update(workload.extra_metrics(samples))
    return out


def end_to_end(workload: Any, rounds: list[Any]) -> dict[str, Any]:
    """Each metric's quiet value (see :func:`quiet_samples`) beside its
    per-round values, whose median and quartiles show the box's noise
    (``setup_s`` and ``peak_rss_mb`` are added by the caller)."""
    per_round = [figures(workload, rnd.samples) for rnd in rounds]
    quiet = figures(workload, quiet_samples(rounds))
    n = sum(len(rnd.samples) for rnd in rounds)
    out = {
        name: summary([r[name] for r in per_round if name in r], n=n,
                      value=value)
        for name, value in quiet.items()
    }
    for name in {key for rnd in rounds for key in rnd.extra}:
        values = sorted(rnd.extra[name] for rnd in rounds
                        if name in rnd.extra)
        out[name] = summary(values, value=values[(len(values) - 1) // 4])
    return out


# -- per-layer metrics ---------------------------------------------------------------


def per_layer(workload: Any, traced: list[tuple[Any, dict]],
              untraced: list[Any]) -> dict[str, float]:
    """Every per-layer metric: time metrics as the median over traced
    rounds, counts from the first traced round (rounds replay one
    operation list from one state, so counts repeat exactly for a seed)."""
    from .trace import layer_metrics

    per_round = []
    for rnd, round_trace in traced:
        info = dict(rnd.info)
        info["ops"] = rnd.attempted
        info["rows"] = sum(s[4] for s in rnd.samples)
        info["op_ns"] = sum(s[2] for s in rnd.samples)
        per_round.append(layer_metrics(round_trace, info))
    out = {m.name: 0.0 for m in PER_LAYER}
    for name in per_round[0]:
        if name in EXACT_COUNTS:
            out[name] = per_round[0][name]
        else:
            out[name] = statistics.median(r[name] for r in per_round)

    plain = quiet_samples(untraced)
    for kind in workload.shape_kinds:
        latencies = [ns for _, k, ns, _, _ in plain if k == kind]
        if latencies:
            out[f"query.client.shape.{kind}.p50_ms"] = \
                statistics.median(latencies) / 1e6
    p50 = "stmt_latency_p50_ms"
    without = figures(workload, plain).get(p50)
    with_trace = figures(
        workload, quiet_samples([rnd for rnd, _ in traced])).get(p50)
    if without and with_trace:
        out["trace.overhead_pct"] = 100.0 * (with_trace - without) / without
    return out


# -- environment ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def env_stamp(seed: int) -> dict[str, Any]:
    """Where and on what the numbers were taken."""
    import numpy

    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# -- the child ------------------------------------------------------------------------


def _timed_rounds(workload: Any, tracer: Any, seconds: float,
                  min_rounds: int, failures: list[str]
                  ) -> tuple[list[Any], list[dict], int]:
    """Run rounds until *seconds* have passed (at least *min_rounds*);
    a further round starts only if it is likely to fit.  With a tracer,
    the first round's raw spans are kept."""
    from .workloads import UNTRACED

    rounds, traces = [], []
    attempted = 0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and \
                elapsed + elapsed / max(1, len(rounds)) > seconds:
            break
        workload.prepare_round()
        if tracer is not None:
            tracer.keep_spans = not rounds
        rnd = workload.run_round(tracer or UNTRACED)
        if tracer is not None:
            traces.append(tracer.end_round())
        workload.verify_round(rnd)
        attempted += rnd.attempted
        failures.extend(rnd.failures)
        rounds.append(rnd)
    return rounds, traces, attempted


def run_child(args: Any) -> dict[str, Any]:
    """One workload in this process; returns the document the parent
    reads: set-up time, peak memory, failures, and the raw rounds (or,
    traced, the per-layer metrics)."""
    from .workloads import WORKLOAD_CLASSES

    sizes = Sizes.quick() if args.quick else Sizes()
    workload = WORKLOAD_CLASSES[args.workload](
        args.seed, sizes, args.out, bool(args.trace))
    failures: list[str] = []
    workload.setup()
    workload.prepare_round()
    warm = workload.run_round(warm=True)
    workload.verify_round(warm)
    failures.extend(warm.failures)
    attempted = warm.attempted
    # Set-up ends with the warm-up round: plans cached, code paged in.
    result: dict[str, Any] = {
        "workload": args.workload, "setup_s": time.time() - args.t0,
    }
    gc.collect()  # start every run from the same heap state
    min_rounds = 1 if args.quick else workload.min_rounds
    started = time.perf_counter()
    if args.trace:
        from .trace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, traces, n = _timed_rounds(
                workload, tracer, args.seconds / 2, 1, failures)
        finally:
            tracer.uninstall()
        attempted += n
        untraced, _, n = _timed_rounds(
            workload, None, args.seconds / 2, 1, failures)
        attempted += n
        result["per_layer"] = per_layer(
            workload, list(zip(traced, traces)), untraced)
        os.makedirs(args.out, exist_ok=True)
        trace_file = os.path.join(args.out, f"trace-{args.workload}.jsonl")
        result["trace_file"] = trace_file
        result["trace_spans"] = tracer.write_spans(trace_file)
        result["rounds"] = len(traced) + len(untraced)
    else:
        rounds, _, n = _timed_rounds(
            workload, None, args.seconds, min_rounds, failures)
        attempted += n
        result["rounds"] = [{"samples": rnd.samples, "extra": rnd.extra}
                            for rnd in rounds]
    workload.teardown()
    result["wall_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=attempted, failed=len(failures),
                  failures=failures[:10])
    return result
