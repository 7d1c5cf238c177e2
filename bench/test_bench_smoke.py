"""Smoke test of the benchmark harness (collected by the tier-1 command).

Runs every workload at ``--quick`` size and one workload traced, twice,
and checks the structure the pipeline and later PRs rely on — never a
timing: every workload and metric ``BENCHMARK.json`` names is emitted
with its unit, no operation fails against the oracle, the exact-repeat
counts repeat, and the harness writes only under ``--out``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

from bench.compare import compare
from bench.metrics import EXACT_COUNTS, benchmark_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench(*argv: str) -> tuple[dict, dict | None]:
    """Run ``python -m bench.run`` the documented way; returns the
    result document and, with ``--workload``, the contract object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--quick", *argv], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120, check=True)
    out = argv[argv.index("--out") + 1]
    with open(os.path.join(out, "results.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    contract = None
    if "--workload" in argv:
        contract = json.loads(done.stdout.strip().splitlines()[-1])
    return document, contract


def _git_status() -> str | None:
    try:
        done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        committed = json.load(f)
    assert committed == benchmark_json(committed["run_seconds"])
    names = [w["name"] for w in committed["workloads"]] \
        + [m["name"] for m in committed["end_to_end"]] \
        + [m["name"] for m in committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in {m["name"] for m in committed["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])


def test_quick_run_emits_every_workload_and_metric(tmp_path):
    before = _git_status()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    document, _ = _bench("--out", str(tmp_path / "all"))
    assert set(document["workloads"]) == {w["name"]
                                          for w in spec["workloads"]}
    for stamp in ("git_commit", "seed", "python", "numpy", "cpu_model",
                  "nproc", "loadavg_1m_start", "loadavg_1m_end"):
        assert stamp in document["env"]
    for name, result in document["workloads"].items():
        assert result["failed"] == 0, (name, result["failures"])
        assert result["attempted"] > 0
        for metric in spec["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert entry["value"] > 0, (name, metric["name"])
            assert entry["rounds"] and entry["n"] >= 1

    # one workload traced, twice: the contract object carries every
    # per-layer metric, and the counts repeat exactly for the seed
    traced = []
    for run in ("a", "b"):
        document, contract = _bench("--trace", "1", "--workload",
                                    "wire_serving", "--seed", "7",
                                    "--out", str(tmp_path / run))
        traced.append(document)
        assert contract["correct"] and contract["failed"] == 0
        assert contract["attempted"] >= 1
        assert set(contract["metrics"]) == {m["name"]
                                            for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric, entry in contract["metrics"].items():
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], float)
        assert os.path.getsize(tmp_path / run / "trace-wire_serving.jsonl")
    layers_a, layers_b = (t["workloads"]["wire_serving"]["per_layer"]
                          for t in traced)
    assert {n: layers_a[n] for n in EXACT_COUNTS} \
        == {n: layers_b[n] for n in EXACT_COUNTS}
    assert layers_a["server.remote.requests_per_stmt"] > 1
    assert layers_a["core.planner.derives_per_stmt"] == 0
    with open(os.devnull, "w", encoding="utf-8") as sink:
        assert compare(*traced, out=sink) == 0

    if before is not None:  # the harness wrote only under --out
        assert _git_status() == before
