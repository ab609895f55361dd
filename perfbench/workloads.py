"""The three benchmark workloads and their correctness checks.

Each workload has four parts, kept apart so the harness can time only
what a controller would spend on deciding requests:

- ``setup()`` builds the topology, provisions the ``SDNetwork`` and
  constructs the algorithm (and controller).  The harness times it as
  ``setup_s``.
- ``draw(state, seed, count)`` draws every request from the seed before
  timing starts, so the load generator's cost stays out of every timed
  region.
- ``step(state, item)`` decides one request.  This is the only timed call.
  It returns ``(admitted, tree)``.
- ``check(...)`` after each step and ``finish(...)`` after the last one
  run the correctness checks, untimed.  ``replay_parity(...)`` re-runs the
  workload straight through its stream generator; it costs a whole second
  pass, so only the traced run, which re-runs the workload anyway, makes
  it.

The load model is a closed loop with one caller: each request is decided
before the next is handed over.  Simulated arrival times shape the
network state.  Wall-clock time does not pace the requests.
"""

from __future__ import annotations

import importlib
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.common import build_random_network, make_requests
from repro.core.appro_multi import appro_multi_reference
from repro.core.pseudo_tree import PseudoMulticastTree, validate_pseudo_tree
from repro.network.controller import Controller
# The differential harness's engine-identity contract for one tree.
from repro.obs.bench import _trees_match as trees_match
from repro.resilience.impact import check_residual_consistency
from repro.stream.engine import StreamEngine
from repro.stream.shard import (
    StreamRunConfig,
    build_algorithm,
    build_engine,
    build_network,
)
from repro.stream.workloads import SequenceStream, make_stream

Outcome = Tuple[bool, Optional[PseudoMulticastTree]]

# The package re-exports the function under the module's own name.
_appro_module = importlib.import_module("repro.core.appro_multi")

#: Residual drift allowed after a full drain, relative to capacity:
#: reservations and releases are float sums in different orders.
_DRAIN_TOLERANCE = 1e-9


class _Capture:
    """Instance-level ``process`` that remembers the last decision.

    ``StreamEngine.process_one`` returns only whether the request was
    admitted; the checks need the tree.  The capture looks the method up
    on the class at every call, so wrappers installed on the class (the
    traced run) stay in the call path.
    """

    __slots__ = ("algorithm", "last")

    def __init__(self, algorithm: Any) -> None:
        self.algorithm = algorithm
        self.last: Any = None

    def __call__(self, request: Any) -> Any:
        decision = type(self.algorithm).process(self.algorithm, request)
        self.last = decision
        return decision


class _CPState:
    """One provisioned GÉANT network with ``Online_CP`` and a controller."""

    def __init__(self, config: StreamRunConfig) -> None:
        self.network = build_network(config)
        self.algorithm = build_algorithm(config, self.network)
        self.controller = Controller()
        self.engine = StreamEngine(
            self.algorithm, SequenceStream([]), controller=self.controller
        )
        self.capture = _Capture(self.algorithm)
        self.algorithm.process = self.capture
        #: request id -> admitted tree, for the end-of-run audit.  Weak, so
        #: a tree leaves the map when the algorithm drops its departed
        #: decision and the benchmark holds no more than the program does.
        self.trees: "weakref.WeakValueDictionary[Any, PseudoMulticastTree]"
        self.trees = weakref.WeakValueDictionary()


class OnlineCPWorkload:
    """``Online_CP`` on GÉANT fed by a Poisson stream through the engine."""

    def __init__(
        self,
        name: str,
        why: str,
        arrival_rate: float,
        requests: int,
        slice_requests: int,
    ) -> None:
        self.name = name
        self.why = why
        self.arrival_rate = arrival_rate
        self.mean_holding = 40.0
        #: Timed requests of one run.
        self.requests = requests
        #: Requests between two reference-kernel runs (about 0.4 s).
        self.slice_requests = slice_requests

    def config(self, seed: int, count: int) -> StreamRunConfig:
        return StreamRunConfig(
            topology="geant",
            seed=seed,
            requests=count,
            arrival_rate=self.arrival_rate,
            mean_holding=self.mean_holding,
            controller=True,
        )

    def setup(self) -> _CPState:
        return _CPState(self.config(0, 0))

    def draw(self, state: _CPState, seed: int, count: int) -> List[Any]:
        stream = make_stream(
            "poisson",
            state.network.graph,
            seed=seed,
            limit=count,
            arrival_rate=self.arrival_rate,
            mean_holding=self.mean_holding,
        )
        return list(stream)

    def step(self, state: _CPState, arrival: Any) -> Outcome:
        state.engine.process_one(arrival)
        decision = state.capture.last
        return decision.admitted, decision.tree

    def check(self, state: _CPState, item: Any, outcome: Outcome) -> None:
        admitted, tree = outcome
        if admitted:
            validate_pseudo_tree(state.network, tree)
            state.trees[item.request.request_id] = tree

    def witnesses(self, state: _CPState) -> Dict[str, Any]:
        stats = state.engine.stats
        return {
            "digest": stats.digest,
            "departed": stats.departed,
            "peak_active": stats.peak_active,
            "rejections": dict(sorted(stats.rejections.items())),
        }

    def finish(self, state: _CPState, seed: int, count: int) -> List[str]:
        """End-of-run residual audit, then a full drain and its audit."""
        errors: List[str] = []
        engine = state.engine
        active = engine.active_records()
        try:
            check_residual_consistency(
                state.network,
                state.controller,
                [state.trees[rid] for rid in active],
            )
        except (AssertionError, KeyError) as exc:
            errors.append(f"residual consistency: {exc!r}")

        engine.run(drain=True)
        resources = [
            (f"link {link.endpoints}", link.residual, link.capacity)
            for link in state.network.links()
        ] + [
            (f"server {server.node!r}", server.residual, server.capacity)
            for server in state.network.servers()
        ]
        for name, residual, capacity in resources:
            if abs(residual - capacity) > _DRAIN_TOLERANCE * capacity:
                errors.append(
                    f"{name} not restored after drain: {residual} != {capacity}"
                )
        if state.controller.installed_requests or state.controller.total_rules():
            errors.append("controller still holds rules after drain")
        if engine.active_count or state.algorithm.active_count:
            errors.append("requests still active after drain")
        return errors

    def replay_parity(
        self, seed: int, count: int, witnesses: Dict[str, Any]
    ) -> List[str]:
        """The replayed run's digest must equal a straight-through run's.

        The straight-through engine pulls its arrivals from ``make_stream``
        as it goes; equal digests prove that drawing them before timing
        changed no decision.
        """
        straight = build_engine(self.config(seed, count))
        straight.run()
        if straight.stats.digest == witnesses["digest"]:
            return []
        return [
            f"replay parity: digest of the pre-drawn replay "
            f"{witnesses['digest']} != straight-through make_stream "
            f"digest {straight.stats.digest}"
        ]


class _ApproState:
    def __init__(self, network: Any) -> None:
        self.network = network
        self.evaluated = 0
        self.pruned = 0
        #: request id -> (request, tree) for the reference sample.
        self.sample: Dict[Any, Any] = {}


class ApproMultiWorkload:
    """``Appro_Multi`` (K = 3) per request on an uncapacitated GT-ITM net."""

    #: Requests re-solved by ``appro_multi_reference`` per run.
    REFERENCE_SAMPLE = 6

    def __init__(
        self,
        name: str,
        why: str,
        nodes: int,
        max_servers: int,
        requests: int,
        slice_requests: int,
    ) -> None:
        self.name = name
        self.why = why
        self.nodes = nodes
        self.max_servers = max_servers
        self.requests = requests
        self.slice_requests = slice_requests

    def setup(self) -> _ApproState:
        # The topology is part of the workload: fixed network seed, the
        # benchmark seed only draws requests.
        return _ApproState(build_random_network(self.nodes, 0))

    def draw(self, state: _ApproState, seed: int, count: int) -> List[Any]:
        requests = make_requests(state.network.graph, count, None, seed)
        stride = max(1, count // self.REFERENCE_SAMPLE)
        state.sample = {
            request.request_id: None
            for request in requests[::stride][: self.REFERENCE_SAMPLE]
        }
        return requests

    def step(self, state: _ApproState, request: Any) -> Outcome:
        # Looked up on the module at call time so traced wrappers apply.
        result = _appro_module.appro_multi_detailed(
            state.network, request, self.max_servers
        )
        state.evaluated += result.combinations_evaluated
        state.pruned += result.combinations_pruned
        return True, result.tree

    def check(self, state: _ApproState, request: Any, outcome: Outcome) -> None:
        tree = outcome[1]
        validate_pseudo_tree(state.network, tree)
        if request.request_id in state.sample:
            state.sample[request.request_id] = (request, tree)

    def witnesses(self, state: _ApproState) -> Dict[str, Any]:
        return {
            "combinations_evaluated": state.evaluated,
            "combinations_pruned": state.pruned,
        }

    def replay_parity(
        self, seed: int, count: int, witnesses: Dict[str, Any]
    ) -> List[str]:
        """Nothing to replay: requests are solved one by one, no stream."""
        return []

    def finish(self, state: _ApproState, seed: int, count: int) -> List[str]:
        """Re-solve a fixed sample with the seed engine; trees must match."""
        errors: List[str] = []
        for request_id, solved in state.sample.items():
            if solved is None:
                errors.append(f"request {request_id}: no tree to compare")
                continue
            request, tree = solved
            expected = appro_multi_reference(
                state.network, request, self.max_servers
            )
            if not trees_match(tree, expected):
                errors.append(
                    f"request {request_id}: appro_multi tree (cost "
                    f"{tree.total_cost!r}) differs from the reference "
                    f"engine's (cost {expected.total_cost!r})"
                )
        return errors


#: Run sizes: ``requests`` is about 20 s of work at the gauge's nominal
#: speed, long enough for seeds to agree, and never depends on the host's
#: speed, so a seed always yields the same decisions.  On ``cp_geant_overload`` the network's saturation
#: state persists for one holding time, about 4000 arrivals, and decides
#: how many requests reach the Steiner stage, so a run must span several
#: holding times.  On ``appro_gtitm100`` a request's time grows steeply
#: with its group size, so the mean needs many requests.  Every run has at
#: least 1000 requests, so at least ten samples lie beyond the p99.
WORKLOADS = {
    workload.name: workload
    for workload in (
        OnlineCPWorkload(
            "cp_geant_churn",
            "Online_CP at rate 5: ~87% admitted, ~200 active; every request "
            "rebuilds the weighted graph and builds ~8 KMB trees",
            arrival_rate=5.0,
            requests=8000,
            slice_requests=150,
        ),
        OnlineCPWorkload(
            "cp_geant_overload",
            "Online_CP at rate 100: ~15% admitted, most rejected before any "
            "Steiner tree, so the per-request prologue dominates",
            arrival_rate=100.0,
            requests=25000,
            slice_requests=500,
        ),
        ApproMultiWorkload(
            "appro_gtitm100",
            "Appro_Multi K=3 on 100-node GT-ITM, read-only: the path cache "
            "hits, no Online_CP code runs; control for Online_CP changes",
            nodes=100,
            max_servers=3,
            requests=2500,
            slice_requests=60,
        ),
    )
}
assert all(workload.requests >= 1000 for workload in WORKLOADS.values())
