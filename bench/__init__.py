"""The Gaea benchmark: six workloads, end-to-end metrics, a per-layer trace.

Run it with ``python3 bench/run.py`` (or ``PYTHONPATH=src python -m
bench.run``); see ``bench/README.md`` for what each workload and metric
means and ``BENCHMARK.json`` for the contract the pipeline checks.
"""
