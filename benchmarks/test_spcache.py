"""Bench: cached vs uncached ``Appro_Multi`` on GÉANT.

The tentpole claim of the shortest-path cache: a request batch on a fixed
topology reuses Dijkstra trees across combinations and requests, so the
cached engine (``appro_multi``) must beat the seed engine
(``appro_multi_reference`` — explicit scaled copy, fresh Dijkstra per
origin, every combination evaluated from scratch) by **at least 3×** on the
GÉANT batch.  The measurement and the gate are the ``spcache`` target of
``repro.obs.bench``; results land in ``BENCH_spcache.json`` at the repo
root, so the speedup is recorded, not just asserted.

Run as a script for the artifact and a PASS/FAIL exit status::

    PYTHONPATH=src python benchmarks/test_spcache.py
"""

import os
import sys

from repro.obs.bench import TARGETS, report, run

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_spcache.json"
)


def run_benchmark():
    """Time both engines, write the artifact, return the payload."""
    return run("spcache", RESULT_PATH)


def test_spcache_speedup():
    failures = TARGETS["spcache"].gate(run_benchmark())
    assert not failures, f"{failures}; see BENCH_spcache.json"


if __name__ == "__main__":
    sys.exit(report("spcache", run_benchmark()))
