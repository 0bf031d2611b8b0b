"""Self-tests of the ledger; run explicitly (they are outside tier-1's
``testpaths``): ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q``."""
