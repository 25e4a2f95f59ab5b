"""End-to-end wall-clock benchmark of the whole stack (see ``README.md``).

``BENCHMARK.json`` at the repository root is the registry of workload and
metric names; :mod:`benchmarks.e2e.run` is the one entry point, both for
people (``PYTHONPATH=src python -m benchmarks.e2e``) and for the driver
(``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
--trace 0|1``).
"""
