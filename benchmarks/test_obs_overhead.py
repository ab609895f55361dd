"""Overhead guard: disabled telemetry must stay within 5% of the baseline.

The observability contract (docs/OBSERVABILITY.md) promises that the span
and counter instrumentation threaded through ``Appro_Multi`` is free when
recording is off: every hot-path call site reduces to one module-global
boolean check.  This bench holds the code to that promise.

``repro bench`` (the ``obs`` target of ``repro.obs.bench``) records
``disabled_baseline_seconds`` — the best-of-rounds batch time for the
GÉANT workload with telemetry disabled — into ``BENCH_obs.json``.  The
``obs`` gate re-measures the same quantity on the same machine and fails
if the fresh measurement exceeds the recorded baseline by more than
``MAX_OVERHEAD`` (5%).  Record-then-assert on one runner keeps the check
about *instrumentation drift*, not machine speed.

The streaming extension of the same contract: a full online run with
recording *enabled*, the engine histograms live, and a ``SnapshotEmitter``
flushing JSONL deltas every N requests must cost at most 5% over the same
run with telemetry disabled.  The ``stream-obs`` target re-measures both
sides fresh (more rounds than the CLI default), rewrites the ``"stream"``
section of ``BENCH_obs.json``, and its gate asserts the ratio and that
both sides admitted the same requests.

Like the other wall-clock benches, CI runs this in the non-blocking
benchmark job — timing noise must never block a merge.

Run as a script for a PASS/FAIL exit status::

    PYTHONPATH=src python -m repro.cli bench --output BENCH_obs.json
    PYTHONPATH=src python benchmarks/test_obs_overhead.py
"""

import json
import os
import sys

from repro.obs.bench import GUARD_ROUNDS, TARGETS, report, run

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_obs.json"
)


def recorded_baseline():
    """The recorded ``obs`` artifact, produced first if absent."""
    if not os.path.exists(RESULT_PATH):
        return run("obs", RESULT_PATH)
    with open(RESULT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def fresh_stream():
    """Re-measure the stream contract at the full default stream size.

    The emitter's fixed costs (sink setup, first flush) amortize over the
    stream; a short run would measure those instead of the steady-state
    per-request overhead the contract is about.
    """
    return run("stream-obs", RESULT_PATH, rounds=GUARD_ROUNDS)


def test_disabled_overhead_within_contract():
    failures = TARGETS["obs"].gate(recorded_baseline())
    assert not failures, f"{failures}; see BENCH_obs.json"


def test_stream_overhead_within_contract():
    failures = TARGETS["stream-obs"].gate(fresh_stream())
    assert not failures, f"{failures}; see BENCH_obs.json"


if __name__ == "__main__":
    sys.exit(max(
        report("obs", recorded_baseline()),
        report("stream-obs", fresh_stream()),
    ))
