"""Bench: compiled CSR Dijkstra engine vs the dict engine.

The claim of the CSR kernel (``repro.graph.csr``): compiling a
topology once into flat integer-indexed arrays makes every subsequent
single-source Dijkstra at least **2×** faster than the dict-of-dict engine,
while decoding to bit-identical :class:`ShortestPathTree` results.  Two
cases: the GÉANT figure-series topology and a reweighted 500-node
Erdős–Rényi scaling graph.  The measurement and the gate are the ``csr``
target of ``repro.obs.bench``; results land in ``BENCH_csr.json`` (its
``"appro"`` section is kept), so the speedup is recorded, not just
asserted.

Run as a script for the artifact and a PASS/FAIL exit status::

    PYTHONPATH=src python benchmarks/test_csr.py
"""

import os
import sys

from repro.obs.bench import TARGETS, report, run

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_csr.json"
)


def run_benchmark():
    """Time both engines on both cases, write the artifact."""
    return run("csr", RESULT_PATH)


def test_csr_speedup():
    failures = TARGETS["csr"].gate(run_benchmark())
    assert not failures, f"{failures}; see BENCH_csr.json"


if __name__ == "__main__":
    sys.exit(report("csr", run_benchmark()))
