"""The repo's performance ledger: five workloads, end to end and per layer.

``BENCHMARK.json`` at the repo root is the contract; ``run.py`` is the
one-workload-per-process entry point it names; ``python -m benchmarks.e2e
run|compare|selfcheck`` is the human face. See ``README.md`` here.
"""
