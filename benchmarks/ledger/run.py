"""File entry point of the ledger, for callers that name a program file
rather than a module (``BENCHMARK.json``'s ``command``):
``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1``.  Same arguments as ``python -m benchmarks.ledger``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# a script's own directory leads sys.path; the package's modules must be
# imported as benchmarks.ledger.*, never as top-level names
sys.path[:] = [ROOT] + [p for p in sys.path
                        if os.path.abspath(p or ".") != HERE]

from benchmarks.ledger.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
