"""The one benchmark harness behind ``repro bench``.

Every target is one :class:`Target` in :data:`TARGETS`, keyed by its
``--target`` name: its default artifact, the section it merges into an
artifact it shares (``None``: it writes the whole file), its default
``--requests`` and ``--rounds`` (``None``: it takes no such flag), whether
it takes ``--quick``, and its run, render and gate functions.  :func:`run`
executes a target with the caller's telemetry state saved and restored
around it, times through :func:`_interleaved`, and writes through
:func:`write_artifact`, which stamps a ``provenance`` block (commit,
Python, platform, CPU count) on every payload it writes.

``obs`` (default) — ``BENCH_obs.json``
    ``Appro_Multi`` over a seeded GÉANT batch, best-of-``rounds`` with
    telemetry **disabled** (``disabled_baseline_seconds``, the quantity
    the 5% overhead guard holds instrumented code to), then once with
    telemetry **enabled** to harvest the phase timers and counters.
``stream-obs`` — ``BENCH_obs.json["stream"]``
    The streaming-telemetry contract: an ``Online_CP`` arrival stream on
    GÉANT timed with telemetry disabled vs enabled with histograms and a
    :class:`~repro.obs.emitter.SnapshotEmitter` flushing JSONL deltas.
``spcache`` — ``BENCH_spcache.json``
    The cached ``appro_multi`` vs the seed engine ``appro_multi_reference``.
``csr`` — ``BENCH_csr.json``
    The dict Dijkstra engine vs the compiled CSR engine
    (:mod:`repro.graph.csr`) on all-origins sweeps: GÉANT and a 500-node
    Erdős–Rényi scaling case.
``appro`` — ``BENCH_csr.json["appro"]``
    End-to-end ``Appro_Multi``: the dict path vs the CSR-native core.
``stream`` — ``BENCH_stream.json``
    The :class:`~repro.stream.engine.StreamEngine` scale proof: sustained
    throughput, RSS flatness, and the checkpoint-resume and shard
    invariance digests.

A gate function returns the failed checks of a payload (empty: pass);
``benchmarks/`` asserts them, the CLI only records.

Run from the CLI::

    python -m repro.cli bench [--target NAME] [--output PATH]
        [--requests N] [--rounds N] [--quick]
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs

Payload = Dict[str, Any]

DEFAULT_REQUESTS = 40
DEFAULT_ROUNDS = 3
DEFAULT_SEED = 20170605  # ICDCS 2017
TOPOLOGY = "GEANT"

#: Gates: the speedup each fast engine must reach over its baseline, and
#: the overhead telemetry may add (the "within 5%" contract).
MIN_SPCACHE_SPEEDUP = 3.0
MIN_CSR_SPEEDUP = 2.0
MIN_APPRO_SPEEDUP = 5.0
MAX_OVERHEAD = 0.05

#: Rounds of the overhead guard's fresh measurements: more than the bench
#: default, since the guard is the estimate that can fail a job.
GUARD_ROUNDS = 5


# --------------------------------------------------------------------------
# Shared helpers: timing, telemetry state, the batch, the artifact writer
# --------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else float("inf")


def _interleaved(
    sides: Sequence[Callable[[], Callable[[], Any]]],
    rounds: int,
    alternate: bool = False,
) -> Tuple[List[float], List[float], List[Any]]:
    """Time every side once per round, the sides interleaved in a round.

    Each side is called untimed to set up fresh state and returns the body
    to time.  Interleaving makes all sides sample the same machine noise;
    ``alternate`` reverses the in-round order on odd rounds so drift within
    a round penalizes both sides alike.

    Returns each side's minimum seconds (the robust "how fast can this
    go" estimator), the per-round paired ratios side 0 / side 1 (empty
    unless there are two sides), and each side's last result.
    """
    best = [float("inf")] * len(sides)
    results: List[Any] = [None] * len(sides)
    ratios: List[float] = []
    for index in range(rounds):
        order = list(range(len(sides)))
        if alternate and index % 2:
            order.reverse()
        seconds = [0.0] * len(sides)
        for side in order:
            body = sides[side]()
            start = time.perf_counter()
            results[side] = body()
            seconds[side] = time.perf_counter() - start
        best = [min(pair) for pair in zip(best, seconds)]
        if len(sides) == 2:
            ratios.append(_ratio(seconds[0], seconds[1]))
    return best, ratios, results


@contextmanager
def _telemetry_saved() -> Iterator[None]:
    """Restore the telemetry enabled flag and registry contents on exit."""
    was_enabled = obs.enabled()
    saved = obs.snapshot()
    try:
        yield
    finally:
        obs.reset()
        obs.merge(saved)
        (obs.enable if was_enabled else obs.disable)()


def _batch(requests: int, seed: int):
    """A freshly provisioned GÉANT network and its seeded request batch."""
    from repro.simulation.builders import build_real_network, make_requests

    network = build_real_network(TOPOLOGY, seed)
    return network, make_requests(network.graph, requests, 0.2, seed + 1)


def _solve(solver, network, batch) -> list:
    return [solver(network, request, max_servers=3) for request in batch]


def _provenance() -> Payload:
    """Where a payload was measured: commit, interpreter and host."""
    import platform
    import subprocess

    here = os.path.dirname(os.path.abspath(__file__))
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=here, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def write_artifact(
    path: str,
    payload: Payload,
    section: Optional[str] = None,
    keep: Optional[str] = None,
) -> None:
    """Write ``payload`` to the JSON artifact at ``path``.

    ``payload`` is stamped with a ``provenance`` block first.  With a
    ``section``, it is merged into the existing file under that key and
    every other key is kept; otherwise it becomes the whole file, carrying
    over the existing file's ``keep`` section (the one a sibling target
    merges into the same artifact).
    """
    payload["provenance"] = _provenance()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        existing = {}
    if section is not None:
        existing[section] = payload
        payload = existing
    elif keep in existing:
        payload[keep] = existing[keep]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# --------------------------------------------------------------------------
# ``obs``: Appro_Multi batch, telemetry disabled vs enabled
# --------------------------------------------------------------------------


def _disabled_seconds(requests: int, rounds: int, seed: int) -> float:
    """Best-of-``rounds`` batch wall time with telemetry disabled.

    This is the quantity the overhead contract bounds: the instrumented
    solver, with recording off, on a quiet machine.
    """
    from repro.core import appro_multi

    with _telemetry_saved():
        obs.disable()
        body = partial(_solve, appro_multi, *_batch(requests, seed))
        (best,), _, _ = _interleaved([lambda: body], rounds)
    return best


def _run_obs(requests: int, rounds: int, seed: int, quick: bool) -> Payload:
    from repro.core import appro_multi

    disabled_seconds = _disabled_seconds(requests, rounds, seed)

    def enabled():
        # A fresh network (cold caches, like round 1 of the disabled pass)
        # so the phase totals cover the whole batch, Dijkstra fills too.
        network, batch = _batch(requests, seed)
        obs.enable()
        obs.reset()
        return partial(_solve, appro_multi, network, batch)

    (enabled_seconds,), _, _ = _interleaved([enabled], 1)
    snap = obs.snapshot()
    return {
        "topology": TOPOLOGY,
        "requests": requests,
        "max_servers": 3,
        "seed": seed,
        "rounds": rounds,
        "timing": "whole batch, seconds; baseline is best-of-rounds",
        "disabled_baseline_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "enabled_overhead_ratio": _ratio(enabled_seconds, disabled_seconds),
        "counters": snap["counters"],
        "phases": snap["timers"],
    }


def _render_obs(payload: Payload) -> List[str]:
    from repro.obs.export import render_phase_table

    return [
        f"topology: {payload['topology']}  requests: {payload['requests']}"
        f"  seed: {payload['seed']}",
        f"disabled baseline: {payload['disabled_baseline_seconds']:.4f}s"
        f"  (best of {payload['rounds']})",
        f"enabled run:       {payload['enabled_seconds']:.4f}s"
        f"  ({payload['enabled_overhead_ratio']:.3f}x baseline)",
        "",
        render_phase_table({"timers": payload["phases"]}),
    ]


def _gate_obs(payload: Payload) -> List[str]:
    """Re-measure the disabled batch and hold it to the recorded baseline.

    Record-then-assert on one machine keeps the check about
    instrumentation drift, not machine speed.
    """
    fresh = _disabled_seconds(payload["requests"], GUARD_ROUNDS, payload["seed"])
    ratio = _ratio(fresh, payload["disabled_baseline_seconds"])
    if ratio <= 1.0 + MAX_OVERHEAD:
        return []
    return [
        f"obs: disabled-mode batch took {ratio:.3f}x the recorded baseline "
        f"(limit {1.0 + MAX_OVERHEAD:.2f}x): the instrumentation is no "
        "longer free when recording is off"
    ]


# --------------------------------------------------------------------------
# ``stream-obs``: Online_CP stream with histograms + emitter enabled
# --------------------------------------------------------------------------

#: A GÉANT ``Online_CP`` run long enough that the per-request emitter tick
#: dominates noise, flushed 10 times.
DEFAULT_STREAM_OBS_REQUESTS = 2000


def _run_stream_obs(
    requests: int, rounds: int, seed: int, quick: bool
) -> Payload:
    """Streaming-telemetry overhead: emitter + histograms vs disabled.

    Each round runs the GÉANT ``Online_CP`` arrival stream once with
    telemetry disabled and no emitter, and once with telemetry enabled,
    the admission-latency/tree-cost histograms recording and a
    :class:`~repro.obs.emitter.SnapshotEmitter` flushing JSONL deltas
    every ``requests // 10`` arrivals.  Shared-runner noise easily exceeds
    the few-percent signal, so the headline ``overhead_ratio`` is the
    median of per-round paired ratios, the in-round order alternating.
    """
    import tempfile

    from repro.obs.emitter import JsonlSink, SnapshotEmitter
    from repro.simulation.builders import calibrated_online_cp
    from repro.simulation.engine import run_online

    if quick:
        requests = min(requests, 400)
        rounds = min(rounds, 2)
    every = max(1, requests // 10)

    def disabled():
        obs.disable()
        network, batch = _batch(requests, seed)
        algorithm = calibrated_online_cp(network)
        return lambda: run_online(algorithm, batch).admitted

    with tempfile.TemporaryDirectory() as scratch:
        sink_path = os.path.join(scratch, "stream.jsonl")

        def enabled():
            obs.enable()
            obs.reset()
            network, batch = _batch(requests, seed)
            algorithm = calibrated_online_cp(network)
            emitter = SnapshotEmitter(
                every_requests=every, sinks=[JsonlSink(sink_path)]
            )

            def body():
                stats = run_online(algorithm, batch, emitter=emitter)
                emitter.finish()
                return stats.admitted, emitter.seq

            return body

        disabled()()  # untimed warm-up: import/alloc costs hit neither side
        best, ratios, results = _interleaved(
            [enabled, disabled], rounds, alternate=True
        )
    (enabled_admitted, flushes), disabled_admitted = results
    return {
        "topology": TOPOLOGY,
        "requests": requests,
        "every_requests": every,
        "seed": seed,
        "rounds": rounds,
        "quick": quick,
        "timing": (
            "interleaved disabled/enabled Online_CP arrival-stream pairs; "
            "seconds are per-side minima, overhead_ratio the median of "
            "per-round paired ratios; enabled pass records histograms "
            "and flushes JSONL deltas"
        ),
        "disabled_seconds": best[1],
        "enabled_seconds": best[0],
        "round_ratios": ratios,
        "overhead_ratio": statistics.median(ratios),
        "flushes": flushes,
        "disabled_admitted": disabled_admitted,
        "enabled_admitted": enabled_admitted,
    }


def _render_stream_obs(payload: Payload) -> List[str]:
    return [
        f"stream {payload['topology']}: {payload['requests']} requests, "
        f"flush every {payload['every_requests']} "
        f"({payload['flushes']} flushes)",
        f"disabled: {payload['disabled_seconds']:.4f}s  "
        f"enabled+emitter: {payload['enabled_seconds']:.4f}s  "
        f"ratio {payload['overhead_ratio']:.3f}x",
        f"admitted: disabled {payload['disabled_admitted']} / "
        f"enabled {payload['enabled_admitted']} (must match)",
    ]


def _gate_stream_obs(payload: Payload) -> List[str]:
    failures = []
    if payload["disabled_admitted"] != payload["enabled_admitted"]:
        failures.append("stream-obs: telemetry changed the admitted count")
    if payload["overhead_ratio"] > 1.0 + MAX_OVERHEAD:
        failures.append(
            f"stream-obs: histograms + emitter took "
            f"{payload['overhead_ratio']:.3f}x the disabled run "
            f"(limit {1.0 + MAX_OVERHEAD:.2f}x)"
        )
    return failures


# --------------------------------------------------------------------------
# Speedup targets: ``spcache``, ``csr``, ``appro``
# --------------------------------------------------------------------------


def _speedup_failures(
    label: str, payload: Payload, minimum: float, mismatches: str
) -> List[str]:
    """A fast wrong answer is no speedup: identity first, then the bound."""
    failures = []
    if payload[mismatches]:
        failures.append(f"{label}: {payload[mismatches]} {mismatches}")
    if payload["speedup"] < minimum:
        failures.append(
            f"{label}: speedup {payload['speedup']:.2f}x "
            f"(need >= {minimum}x)"
        )
    return failures


def _run_spcache(requests: int, rounds: int, seed: int, quick: bool) -> Payload:
    """Cached vs uncached ``Appro_Multi`` on one GÉANT network."""
    from repro.core import appro_multi, appro_multi_reference

    if quick:
        requests = min(requests, 12)
        rounds = min(rounds, 2)
    network, batch = _batch(requests, seed)
    reference = partial(_solve, appro_multi_reference, network, batch)
    cached = partial(_solve, appro_multi, network, batch)
    (reference_time, cached_time), _, (reference_trees, cached_trees) = (
        _interleaved([lambda: reference, lambda: cached], rounds)
    )
    mismatches = sum(
        1
        for a, b in zip(cached_trees, reference_trees)
        if abs(a.total_cost - b.total_cost)
        > 1e-9 * max(abs(a.total_cost), abs(b.total_cost), 1.0)
    )
    return {
        "topology": TOPOLOGY,
        "requests": requests,
        "max_servers": 3,
        "seed": seed,
        "rounds": rounds,
        "quick": quick,
        "timing": (
            "best-of-rounds, interleaved reference/cached batches, whole "
            "batch, seconds"
        ),
        "reference_seconds": reference_time,
        "cached_seconds": cached_time,
        "speedup": _ratio(reference_time, cached_time),
        "min_speedup_required": MIN_SPCACHE_SPEEDUP,
        "cost_mismatches": mismatches,
    }


def _render_spcache(payload: Payload) -> List[str]:
    return [
        f"reference {payload['reference_seconds']:.4f}s  "
        f"cached {payload['cached_seconds']:.4f}s  "
        f"speedup {payload['speedup']:.2f}x  "
        f"(need >= {payload['min_speedup_required']}x, "
        f"cost mismatches {payload['cost_mismatches']})"
    ]


#: Sweep repetitions per timing round.  GEANT is small, so one sweep is
#: near timer resolution; 8 sweeps per round keeps each timed window
#: around 10–30 ms — long enough to time, short enough that a background
#: scheduling spike lands inside a single round and the best-of-rounds
#: minimum dodges it.
GEANT_REPS = 8

#: Origins swept per round on the ER500 case.  A full 500-origin sweep is
#: a ~1 s window on the dict engine — too exposed to interference for a
#: minimum estimator; 100 origins over the same 500-node graph keep the
#: scaling behavior and a ~200 ms window.
ER500_ORIGINS = 100

DEFAULT_CSR_ROUNDS = 12


def _dict_sweep(graph, origins):
    """One all-origins sweep on the dict engine (the benchmark baseline)."""
    from repro.graph import dijkstra

    return [dijkstra(graph, o) for o in origins]  # repro-lint: disable=RL001 — benchmark baseline must bypass the cache to time the raw engine


def _csr_sweep(csr, origins):
    """One all-origins sweep on the compiled CSR engine."""
    from repro.graph import dijkstra_many

    return dijkstra_many(csr, origins)  # repro-lint: disable=RL001 — benchmark measures the raw CSR kernel, not the cache


def _sweeps(sweep, view, origins, reps: int):
    for _ in range(reps):
        trees = sweep(view, origins)
    return trees


def _csr_case(name: str, graph, origins, reps: int, rounds: int) -> Payload:
    """Interleaved best-of-rounds timing of both engines on one topology.

    The CSR view is compiled (and its hot mirror built) outside the timed
    sweeps — that cost is once-per-epoch in production and is reported
    separately as ``compile_seconds``.
    """
    from repro.graph import compile_csr

    origins = list(origins)

    def compiled():
        csr = compile_csr(graph)
        csr.engine()
        return csr

    (compile_seconds,), _, (csr,) = _interleaved([lambda: compiled], 1)
    dict_body = partial(_sweeps, _dict_sweep, graph, origins, reps)
    csr_body = partial(_sweeps, _csr_sweep, csr, origins, reps)
    (dict_best, csr_best), _, (dict_trees, csr_trees) = _interleaved(
        [lambda: dict_body, lambda: csr_body], rounds
    )
    mismatches = sum(
        1
        for origin, dict_tree in zip(origins, dict_trees)
        if (
            dict_tree.distance != csr_trees[origin].distance  # repro-lint: disable=RL004 — the CSR contract is bit-identity, so exact equality is the point
            or dict_tree.parent != csr_trees[origin].parent
        )
    )
    return {
        "name": name,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "origins": len(origins),
        "reps": reps,
        "compile_seconds": compile_seconds,
        "dict_seconds": dict_best,
        "csr_seconds": csr_best,
        "speedup": _ratio(dict_best, csr_best),
        "tree_mismatches": mismatches,
    }


def _run_csr(requests: Optional[int], rounds: int, seed: int, quick: bool) -> Payload:
    """The GÉANT all-origins sweep and a reweighted 500-node ER graph."""
    import random

    from repro.simulation.builders import build_real_network
    from repro.topology import erdos_renyi_graph

    if quick:
        rounds = min(rounds, 4)
    geant = build_real_network(TOPOLOGY, seed).graph
    reps = 5 if quick else GEANT_REPS
    geant_case = _csr_case(TOPOLOGY, geant, geant.nodes(), reps, rounds)

    er = erdos_renyi_graph(500, 0.02, seed=1)
    # Unit weights make every path a tie; reweight with a seeded RNG so the
    # scaling case exercises real priority-queue traffic.
    rng = random.Random(seed)
    for u, v, _ in list(er.edges()):
        er.add_edge(u, v, 0.5 + rng.random())
    er_origins = list(er.nodes())[: 40 if quick else ER500_ORIGINS]
    return {
        "timing": (
            "best-of-rounds, interleaved dict/CSR all-origins sweeps, "
            "seconds per case"
        ),
        "rounds": rounds,
        "seed": seed,
        "quick": quick,
        "min_speedup_required": MIN_CSR_SPEEDUP,
        "cases": [geant_case, _csr_case("ER500", er, er_origins, 1, rounds)],
    }


def _render_csr(payload: Payload) -> List[str]:
    return [
        f"{case['name']}: dict {case['dict_seconds']:.4f}s  "
        f"csr {case['csr_seconds']:.4f}s  "
        f"speedup {case['speedup']:.2f}x  "
        f"(need >= {payload['min_speedup_required']}x, "
        f"mismatches {case['tree_mismatches']})"
        for case in payload["cases"]
    ]


DEFAULT_APPRO_ROUNDS = 8


def _trees_match(tree, reference) -> bool:
    """The differential harness's engine-identity contract, per tree.

    Structure must be exact — servers, server paths (dict order included),
    distribution edges in ``edges()`` order — while costs compare at
    relative 1e-12, matching ``tests/core/test_differential.py``: the seed
    reference engine accumulates edge weights in a different order than
    the cached CSR-native engine, so costs can differ in the last ulp.  (On
    one cached context the CSR-native core is bit-exact against the
    ``evaluate_combination`` / ``_search_reference`` oracles, dict
    insertion order included; the differential harness holds that.)
    """
    if (
        tree.servers != reference.servers
        or tuple(tree.server_paths.items())
        != tuple(reference.server_paths.items())
        # edge tuples, not floats: exact equality is the contract
        or tree.distribution_edges != reference.distribution_edges  # repro-lint: disable=RL004
    ):
        return False
    for a, b in (
        (tree.bandwidth_cost, reference.bandwidth_cost),
        (tree.compute_cost, reference.compute_cost),
    ):
        if abs(a - b) > 1e-12 * max(abs(a), abs(b), 1.0):
            return False
    return True


def _run_appro(requests: int, rounds: int, seed: int, quick: bool) -> Payload:
    """End-to-end ``Appro_Multi``: dict path vs the CSR-native core.

    The dict path is :func:`repro.core.appro_multi_reference` — dict
    ``Graph`` auxiliary construction, metric closure, KMB, and MST on every
    server combination, exactly the seed engine.  The CSR-native side is
    :func:`repro.core.appro_multi`.  Every round rebuilds the network for
    each side, so both run cold caches; the last round's trees are compared
    field for field, dict insertion order included.
    """
    from repro.core import appro_multi, appro_multi_reference

    if quick:
        requests = min(requests, 12)
        rounds = min(rounds, 3)
    (dict_best, csr_best), _, (dict_trees, csr_trees) = _interleaved(
        [
            lambda: partial(_solve, appro_multi_reference, *_batch(requests, seed)),
            lambda: partial(_solve, appro_multi, *_batch(requests, seed)),
        ],
        rounds,
    )
    mismatches = sum(
        1
        for tree, reference in zip(csr_trees, dict_trees)
        if not _trees_match(tree, reference)
    )
    return {
        "topology": TOPOLOGY,
        "requests": requests,
        "max_servers": 3,
        "seed": seed,
        "rounds": rounds,
        "quick": quick,
        "timing": (
            "best-of-rounds, interleaved dict-path/CSR-native batches, "
            "cold caches per round, seconds per batch"
        ),
        "dict_seconds": dict_best,
        "csr_seconds": csr_best,
        "dict_ms_per_request": dict_best / requests * 1e3,
        "csr_ms_per_request": csr_best / requests * 1e3,
        "speedup": _ratio(dict_best, csr_best),
        "min_speedup_required": MIN_APPRO_SPEEDUP,
        "tree_mismatches": mismatches,
    }


def _render_appro(payload: Payload) -> List[str]:
    return [
        f"Appro_Multi {payload['topology']}: "
        f"dict path {payload['dict_ms_per_request']:.3f} ms/req  "
        f"csr-native {payload['csr_ms_per_request']:.3f} ms/req  "
        f"speedup {payload['speedup']:.2f}x  "
        f"(need >= {payload['min_speedup_required']}x, "
        f"mismatches {payload['tree_mismatches']})"
    ]


# --------------------------------------------------------------------------
# ``stream``: the StreamEngine scale proof (BENCH_stream.json)
# --------------------------------------------------------------------------

DEFAULT_STREAM_SCALE_REQUESTS = 1_000_000
QUICK_STREAM_SCALE_REQUESTS = 20_000

#: Number of RSS sample windows across the main run.
_RSS_WINDOWS = 50

#: Arrival rate for every sub-run: ~200 concurrently held requests on
#: GÉANT — enough contention that all three rejection paths
#: (disconnected, tree_threshold, allocation_failed) fire, so the run
#: exercises the full decision surface rather than a pure admit stream.
_ARRIVAL_RATE = 5.0

#: Resume-differential size and checkpoint boundary, and the per-shard
#: size of the two-shard invariance run (``--quick`` shrinks all 5x).
_RESUME_REQUESTS = 4_000
_RESUME_BOUNDARY = 2_000
_SHARD_COUNT = 2
_SHARD_REQUESTS = 2_000


def _stream_config(seed: int, requests: int):
    from repro.stream.shard import StreamRunConfig

    return StreamRunConfig(
        topology="geant", seed=seed, requests=requests, arrival_rate=_ARRIVAL_RATE
    )


def _rss_flatness(samples: List[List[float]]) -> Payload:
    """Early-vs-late median RSS over the ``[processed, rss_kb]`` series.

    The first quarter of the windows is discarded as warm-up (imports,
    allocator arena growth, the shortest-path cache filling its fixed
    slots); ``growth_ratio`` is the late-window median divided by the
    early-window median.  A leak that scales with stream length shows up
    as a ratio well above 1; a flat engine sits within allocator noise.
    """
    if len(samples) < 8:
        return {
            "windows": len(samples),
            "early_median_kb": None,
            "late_median_kb": None,
            "growth_ratio": None,
        }
    values = [rss for _, rss in samples]
    quarter = len(values) // 4
    early_median = statistics.median(values[quarter : 2 * quarter])
    late_median = statistics.median(values[-quarter:])
    return {
        "windows": len(samples),
        "early_median_kb": early_median,
        "late_median_kb": late_median,
        "growth_ratio": late_median / early_median if early_median else None,
    }


def _resume_differential(seed: int, shrink: int) -> Payload:
    """Straight-through vs kill-and-resume on a small GÉANT run.

    The checkpoint document goes through ``json.dumps``/``loads`` so the
    comparison exercises the real serialization path, not just in-memory
    object identity.
    """
    from repro.stream.checkpoint import capture, restore_into
    from repro.stream.shard import build_engine

    requests = _RESUME_REQUESTS // shrink
    boundary = _RESUME_BOUNDARY // shrink
    config = _stream_config(seed, requests)
    straight = build_engine(config)
    straight.run()

    first = build_engine(config)
    first.run(max_events=boundary)
    document = json.loads(json.dumps(capture(first, meta=config.as_dict())))
    resumed = build_engine(config)
    restore_into(resumed, document)
    resumed.run()
    return {
        "requests": requests,
        "checkpoint_at": boundary,
        "straight_digest": straight.stats.digest,
        "resumed_digest": resumed.stats.digest,
        "bit_identical": straight.stats.digest == resumed.stats.digest,
    }


def _shard_invariance(seed: int, shrink: int) -> Payload:
    """Merged digest of a sharded run at 1 worker vs 2 workers."""
    from repro.stream.shard import run_sharded

    config = _stream_config(seed, _SHARD_COUNT * (_SHARD_REQUESTS // shrink))
    serial = run_sharded(config, shards=_SHARD_COUNT, workers=1)
    pooled = run_sharded(config, shards=_SHARD_COUNT, workers=2)
    return {
        "shards": _SHARD_COUNT,
        "requests": config.requests,
        "workers_1_digest": serial.digest,
        "workers_2_digest": pooled.digest,
        "bit_identical": serial.digest == pooled.digest,
    }


def _run_stream(requests: int, rounds: Optional[int], seed: int, quick: bool) -> Payload:
    """A Poisson-churn ``Online_CP`` run on GÉANT, timed end to end.

    The engine samples its own RSS every checkpoint window; a flat series
    means O(active-requests) memory, independent of how many requests have
    streamed past.  The resume and shard differentials run beside it.
    """
    from repro.stream.shard import build_engine

    if quick:
        requests = min(requests, QUICK_STREAM_SCALE_REQUESTS)
    config = _stream_config(seed, requests)
    sample_every = max(1, requests // _RSS_WINDOWS)
    engine = build_engine(config, checkpoint_every=sample_every)
    (elapsed,), _, (stats,) = _interleaved([lambda: engine.run], 1)
    shrink = 5 if quick else 1
    return {
        "benchmark": "stream-scale",
        "quick": quick,
        "config": config.as_dict(),
        "requests": stats.processed,
        "elapsed_seconds": elapsed,
        "throughput_rps": stats.processed / elapsed if elapsed else None,
        "admitted": stats.admitted,
        "rejected": stats.rejected,
        "departed": stats.departed,
        "admission_ratio": stats.admission_ratio,
        "peak_active": stats.peak_active,
        "digest": stats.digest,
        "rss": {
            "sample_every": sample_every,
            "samples": stats.rss_samples,
            **_rss_flatness(stats.rss_samples),
        },
        "resume": _resume_differential(seed, shrink),
        "shard_invariance": _shard_invariance(seed, shrink),
    }


def _render_stream(payload: Payload) -> List[str]:
    rss = payload["rss"]
    resume = payload["resume"]
    shard = payload["shard_invariance"]
    ratio = rss.get("growth_ratio")
    return [
        f"stream scale: {payload['requests']} requests on "
        f"{payload['config']['topology']} in "
        f"{payload['elapsed_seconds']:.1f}s "
        f"({payload['throughput_rps']:.0f} req/s)",
        f"  admitted {payload['admitted']}  rejected {payload['rejected']}"
        f"  departed {payload['departed']}"
        f"  peak active {payload['peak_active']}",
        (
            f"  rss: {rss['windows']} windows, early median "
            f"{rss['early_median_kb']:.0f} KiB, late median "
            f"{rss['late_median_kb']:.0f} KiB, growth x{ratio:.3f}"
            if ratio is not None
            else f"  rss: {rss['windows']} windows (too few for flatness)"
        ),
        f"  resume differential: "
        f"{'bit-identical' if resume['bit_identical'] else 'DIVERGED'} "
        f"(checkpoint at {resume['checkpoint_at']}/{resume['requests']})",
        f"  shard invariance: "
        f"{'bit-identical' if shard['bit_identical'] else 'DIVERGED'} "
        f"({shard['shards']} shards, workers 1 vs 2)",
    ]


def _gate_stream(payload: Payload) -> List[str]:
    return [
        f"stream: {name} digests diverged"
        for name in ("resume", "shard_invariance")
        if not payload[name]["bit_identical"]
    ]


# --------------------------------------------------------------------------
# The registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One ``repro bench`` target (see the module docstring)."""

    #: what the target measures, for ``--help``
    summary: str
    #: default artifact path
    artifact: str
    #: key merged into a shared artifact, or ``None`` for a whole file
    section: Optional[str]
    #: default ``--requests`` / ``--rounds``; ``None``: flag not taken
    requests: Optional[int]
    rounds: Optional[int]
    #: whether the target takes ``--quick``
    quick: bool
    #: ``run(requests, rounds, seed, quick) -> payload``
    run: Callable[..., Payload]
    render: Callable[[Payload], List[str]]
    gate: Callable[[Payload], List[str]]


TARGETS: Dict[str, Target] = {
    "obs": Target(
        summary="telemetry overhead on the Appro_Multi batch",
        artifact="BENCH_obs.json", section=None,
        requests=DEFAULT_REQUESTS, rounds=DEFAULT_ROUNDS, quick=False,
        run=_run_obs, render=_render_obs, gate=_gate_obs,
    ),
    "spcache": Target(
        summary="cached vs uncached Appro_Multi",
        artifact="BENCH_spcache.json", section=None,
        requests=DEFAULT_REQUESTS, rounds=DEFAULT_ROUNDS, quick=True,
        run=_run_spcache, render=_render_spcache,
        gate=lambda payload: _speedup_failures(
            "spcache", payload, MIN_SPCACHE_SPEEDUP, "cost_mismatches"
        ),
    ),
    "csr": Target(
        summary="compiled CSR vs dict Dijkstra sweeps",
        artifact="BENCH_csr.json", section=None,
        requests=None, rounds=DEFAULT_CSR_ROUNDS, quick=True,
        run=_run_csr, render=_render_csr,
        gate=lambda payload: [
            failure
            for case in payload["cases"]
            for failure in _speedup_failures(
                case["name"], case, MIN_CSR_SPEEDUP, "tree_mismatches"
            )
        ],
    ),
    "appro": Target(
        summary="end-to-end dict-path vs CSR-native Appro_Multi",
        artifact="BENCH_csr.json", section="appro",
        requests=DEFAULT_REQUESTS, rounds=DEFAULT_APPRO_ROUNDS, quick=True,
        run=_run_appro, render=_render_appro,
        gate=lambda payload: _speedup_failures(
            "appro", payload, MIN_APPRO_SPEEDUP, "tree_mismatches"
        ),
    ),
    "stream-obs": Target(
        summary="the Online_CP stream with histograms + emitter enabled",
        artifact="BENCH_obs.json", section="stream",
        requests=DEFAULT_STREAM_OBS_REQUESTS, rounds=DEFAULT_ROUNDS,
        quick=True,
        run=_run_stream_obs, render=_render_stream_obs, gate=_gate_stream_obs,
    ),
    "stream": Target(
        summary=(
            "the StreamEngine scale run (throughput, RSS flatness, resume "
            "+ shard differentials)"
        ),
        artifact="BENCH_stream.json", section=None,
        requests=DEFAULT_STREAM_SCALE_REQUESTS, rounds=None, quick=True,
        run=_run_stream, render=_render_stream, gate=_gate_stream,
    ),
}


def resolve(
    name: str,
    requests: Optional[int] = None,
    rounds: Optional[int] = None,
    quick: bool = False,
) -> Tuple[Target, Optional[int], Optional[int]]:
    """A target and its ``requests``/``rounds``, defaults filled in.

    Raises:
        ValueError: naming the flag and the target, if the target does not
            take a given flag or a count is below 1.
    """
    target = TARGETS[name]
    for flag, given, default in (
        ("--requests", requests, target.requests),
        ("--rounds", rounds, target.rounds),
        ("--quick", quick or None, target.quick or None),
    ):
        if given is not None and default is None:
            raise ValueError(f"--target {name} does not take {flag}")
        if given is not None and given < 1:
            raise ValueError(f"{flag} must be at least 1")
    return (
        target,
        target.requests if requests is None else requests,
        target.rounds if rounds is None else rounds,
    )


def run(
    name: str,
    output_path: Optional[str] = None,
    requests: Optional[int] = None,
    rounds: Optional[int] = None,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
) -> Payload:
    """Run the target ``name`` and, given ``output_path``, write its artifact.

    The caller's telemetry enabled flag and registry contents are the same
    afterwards.  Returns the payload as written: the section for a target
    that merges into a shared artifact, the whole file otherwise.
    """
    target, requests, rounds = resolve(name, requests, rounds, quick)
    with _telemetry_saved():
        payload = target.run(requests, rounds, seed, quick)
    if output_path:
        # a whole-file target keeps the section its sibling merges in
        siblings = [other.section for other in TARGETS.values()
                    if other.artifact == target.artifact and other is not target]
        write_artifact(output_path, payload, target.section, (siblings or [None])[0])
    return payload


def report(name: str, payload: Payload) -> int:
    """Print a payload's summary and its gate verdict; 1 on a miss, else 0."""
    failures = TARGETS[name].gate(payload)
    for line in TARGETS[name].render(payload):
        print(line)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"PASS: {name}")
    return 1 if failures else 0
