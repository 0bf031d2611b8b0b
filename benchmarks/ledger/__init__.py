"""The wall-clock ledger: the repo's benchmark.

Five named workloads, ten end-to-end metrics and an outside-in
per-layer trace, all measured by timing calls into the public functions
of ``src/repro`` — nothing inside ``src/`` is instrumented.  See
``README.md`` next to this file; run with
``PYTHONPATH=src python -m benchmarks.ledger``.
"""
