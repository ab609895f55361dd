"""Bench: CSR-native ``Appro_Multi`` core vs the dict path, end to end.

The tentpole claim of the CSR-native solver core: compiling the request's
auxiliary graph into one epoch-stamped CSR view — virtual source as one
appended row, only the virtual-edge block varying across the ``V_S^i``
combination sweep — makes the end-to-end ``Appro_Multi`` per-request
latency at least **5×** faster than the dict path, while decoding
bit-identical trees (dict insertion order included).

The dict path is ``appro_multi_reference``: the seed engine, kept as a
test oracle, that round-trips through dict ``Graph`` objects for
auxiliary-graph construction, metric closure, KMB, and MST on every server
combination.  The measurement and the gate are the ``appro`` target of
``repro.obs.bench``; results merge into ``BENCH_csr.json`` under
``"appro"``, next to the raw Dijkstra sweep cases.

Run as a script for the artifact and a PASS/FAIL exit status::

    PYTHONPATH=src python benchmarks/test_appro_csr.py
"""

import os
import sys

from repro.obs.bench import TARGETS, report, run

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_csr.json"
)


def run_benchmark():
    """Time both engines end to end and merge the artifact section."""
    return run("appro", RESULT_PATH)


def test_appro_csr_speedup():
    failures = TARGETS["appro"].gate(run_benchmark())
    assert not failures, f"{failures}; see BENCH_csr.json"


if __name__ == "__main__":
    sys.exit(report("appro", run_benchmark()))
