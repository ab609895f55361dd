"""Drivers that replay request workloads against solvers and networks.

Three run shapes cover every figure in the paper:

- :func:`run_offline` — independent single-request solves on a fixed
  network (Figs. 5 and 6: the uncapacitated cost/runtime comparisons).
- :func:`run_sequential_capacitated` — single-request solves that *commit*
  their resources before the next request arrives (Fig. 7:
  ``Appro_Multi_Cap`` under load).
- :func:`run_online` — a true online run driving an
  :class:`~repro.core.online_base.OnlineAlgorithm` (Figs. 8 and 9), with
  optional departure events for churn experiments.

The resilience extension adds :func:`run_online_with_failures`, which
replays a merged arrival/departure/failure/recovery stream and hands every
failure-broken request to a :class:`~repro.resilience.repair.RepairStrategy`.
With an empty failure schedule it reproduces
:func:`run_online_with_departures` exactly.

The three online runners are one fold over the admission event loop,
:class:`~repro.stream.engine.StreamEngine`: the engine decides, installs,
releases and repairs; the fold adds only what the run statistics need
(per-request costs and timeline, the wall-clock admission-latency
histogram, utilisations, counter deltas and downtime of dropped requests).
"""

from __future__ import annotations

# The engines read time.perf_counter() to *report* per-request solver
# runtime as a figure metric (Figs. 6/8 running-time panels); the value is
# never a control input, so determinism is unaffected.
# repro-lint: disable-file=RL007

import time
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.admission import install_or_release, try_allocate
from repro.core.online_base import OnlineAlgorithm, RejectReason
from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import InfeasibleRequestError
from repro.network.controller import Controller
from repro.network.sdn import SDNetwork
from repro.obs import (
    DEFAULT_COST_BOUNDS as _COST_BOUNDS,
    counters as _obs_counters,
    counters_since as _obs_counters_since,
    enabled as _obs_enabled,
    hist as _obs_hist,
    inc as _obs_inc,
    request_scope as _obs_request,
    span as _obs_span,
)
from repro.obs.emitter import SnapshotEmitter
from repro.resilience.events import FailureEvent
from repro.resilience.impact import check_residual_consistency
from repro.resilience.repair import DropAffected, RepairStrategy
from repro.simulation.metrics import (
    OfflineRunStats,
    OnlineRunStats,
    ResilienceRunStats,
)
from repro.stream.engine import StreamEngine
from repro.stream.workloads import Arrival, SequenceStream
from repro.workload.arrivals import EventKind, RequestEvent
from repro.workload.request import MulticastRequest

OfflineSolver = Callable[[SDNetwork, MulticastRequest], PseudoMulticastTree]


def run_offline(
    solver: OfflineSolver,
    network: SDNetwork,
    requests: Sequence[MulticastRequest],
) -> OfflineRunStats:
    """Solve each request independently (no resource state carries over).

    Matches Figs. 5 and 6, which average the cost and running time of
    admitting each request on an otherwise idle network.
    """
    stats = OfflineRunStats()
    observing = _obs_enabled()
    before = _obs_counters() if observing else None
    with _obs_span("run_offline"):
        for request in requests:
            _obs_inc("engine.requests")
            with _obs_request(request.request_id):
                started = time.perf_counter()
                try:
                    tree = solver(network, request)
                except InfeasibleRequestError:
                    stats.infeasible += 1
                    _obs_inc("engine.infeasible")
                    continue
                finally:
                    elapsed = time.perf_counter() - started
            stats.solved += 1
            _obs_inc("engine.solved")
            if observing:
                _obs_hist("engine.admission_seconds", elapsed)
                _obs_hist("engine.tree_cost", tree.total_cost, _COST_BOUNDS)
            stats.runtimes.append(elapsed)
            stats.costs.append(tree.total_cost)
            stats.servers_used.append(tree.num_servers)
    stats.telemetry = _obs_counters_since(before)
    return stats


def run_sequential_capacitated(
    solver: OfflineSolver,
    network: SDNetwork,
    requests: Sequence[MulticastRequest],
    controller: Optional[Controller] = None,
) -> OfflineRunStats:
    """Admit requests one after another, committing resources (Fig. 7).

    Each solved tree's bandwidth and compute are reserved before the next
    request is considered; a request whose tree cannot be reserved (or for
    which the pruned network is infeasible) counts as infeasible.
    """
    stats = OfflineRunStats()
    observing = _obs_enabled()
    before = _obs_counters() if observing else None
    with _obs_span("run_sequential_capacitated"):
        for request in requests:
            _obs_inc("engine.requests")
            with _obs_request(request.request_id):
                started = time.perf_counter()
                try:
                    tree = solver(network, request)
                except InfeasibleRequestError:
                    stats.infeasible += 1
                    _obs_inc("engine.infeasible")
                    stats.runtimes.append(time.perf_counter() - started)
                    continue
                elapsed = time.perf_counter() - started
                transaction = try_allocate(network, tree)
                if transaction is None:
                    stats.infeasible += 1
                    _obs_inc("engine.infeasible")
                    stats.runtimes.append(elapsed)
                    continue
                if not install_or_release(controller, tree, transaction):
                    stats.infeasible += 1
                    _obs_inc("engine.infeasible")
                    stats.runtimes.append(elapsed)
                    continue
            stats.solved += 1
            _obs_inc("engine.solved")
            if observing:
                _obs_hist("engine.admission_seconds", elapsed)
                _obs_hist("engine.tree_cost", tree.total_cost, _COST_BOUNDS)
            stats.runtimes.append(elapsed)
            stats.costs.append(tree.total_cost)
            stats.servers_used.append(tree.num_servers)
    stats.telemetry = _obs_counters_since(before)
    return stats


def _fold(
    span_name: str,
    algorithm: OnlineAlgorithm,
    events: Iterable,
    stats: OnlineRunStats,
    controller: Optional[Controller],
    emitter: Optional[SnapshotEmitter],
    strategy: Optional[RepairStrategy] = None,
    audit: bool = False,
) -> None:
    """Fold a time-ordered event stream through one admission engine.

    Arrivals and departures are :class:`RequestEvent` records; a
    :class:`~repro.resilience.events.FailureEvent` (only in failure runs,
    which pass a ``strategy`` and :class:`ResilienceRunStats`) goes to the
    engine's failure handler.  Every arrival ticks ``emitter`` after its
    latency is recorded, so each flushed snapshot covers whole requests.
    """
    engine = StreamEngine(algorithm, SequenceStream([]), controller=controller)
    network = algorithm.network
    #: request id -> (drop time, destination count) for downtime accounting
    dropped: Dict[Hashable, Tuple[float, int]] = {}
    horizon = 0.0
    observing = _obs_enabled()
    before = _obs_counters() if observing else None
    started = time.perf_counter()
    with _obs_span(span_name):
        for event in events:
            horizon = max(horizon, event.time)
            if isinstance(event, FailureEvent):
                assert strategy is not None
                assert isinstance(stats, ResilienceRunStats)
                for record in engine.handle_failure(event, strategy, stats):
                    dropped[record.request_id] = (
                        event.time,
                        len(record.request.destinations),
                    )
            elif event.kind is EventKind.ARRIVAL:
                arrived = time.perf_counter()
                decision = engine.handle_arrival(
                    Arrival(event.time, event.request, None)
                )
                if observing:
                    _obs_hist(
                        "engine.admission_seconds",
                        time.perf_counter() - arrived,
                    )
                if decision.admitted:
                    assert decision.tree is not None
                    stats.operational_costs.append(decision.tree.total_cost)
                stats.admitted_timeline.append(engine.stats.admitted)
                if emitter is not None:
                    emitter.tick()
            else:
                request_id = event.request.request_id
                if (
                    not engine.handle_departure(request_id, event.time)
                    and request_id in dropped
                ):
                    # the request would have departed now; its downtime ends
                    drop_time, destinations = dropped.pop(request_id)
                    assert isinstance(stats, ResilienceRunStats)
                    stats.destination_downtime += destinations * (
                        event.time - drop_time
                    )
            if audit and controller is not None:
                check_residual_consistency(
                    network, controller, engine.active_trees()
                )
    if isinstance(stats, ResilienceRunStats):
        # requests dropped and never departing are down until the horizon
        for drop_time, destinations in dropped.values():
            stats.destination_downtime += destinations * (horizon - drop_time)
    stats.total_runtime = time.perf_counter() - started
    stats.admitted = engine.stats.admitted
    stats.rejected = engine.stats.rejected
    stats.reject_reasons = {
        RejectReason(reason): count
        for reason, count in engine.stats.rejections.items()
    }
    stats.final_link_utilization = network.mean_link_utilization()
    stats.final_server_utilization = network.mean_server_utilization()
    stats.telemetry = _obs_counters_since(before)


def run_online(
    algorithm: OnlineAlgorithm,
    requests: Iterable[MulticastRequest],
    controller: Optional[Controller] = None,
    emitter: Optional[SnapshotEmitter] = None,
) -> OnlineRunStats:
    """Drive an online algorithm over an arrival-only request iterable.

    ``requests`` may be any iterable — a materialized list (the figure
    replays) or a lazy generator (long streams); the sequence is consumed
    exactly once, in order, and the resulting statistics are bit-identical
    either way (locked by the list-vs-generator differential test).
    Requests arrive one time unit apart and never depart.

    With an ``emitter``, every processed request ticks it so delta
    snapshots stream out at the emitter's cadence (the final flush stays
    the caller's responsibility — typically ``emitter.finish()`` or the
    emitter's context manager).
    """
    stats = OnlineRunStats()
    events = (
        RequestEvent(float(index), EventKind.ARRIVAL, request)
        for index, request in enumerate(requests)
    )
    _fold("run_online", algorithm, events, stats, controller, emitter)
    return stats


def run_online_with_departures(
    algorithm: OnlineAlgorithm,
    events: Iterable[RequestEvent],
    controller: Optional[Controller] = None,
    emitter: Optional[SnapshotEmitter] = None,
) -> OnlineRunStats:
    """Drive an online algorithm over a timed arrival/departure iterable.

    ``events`` may be a materialized list or a lazy generator; it is
    consumed once, in order, with bit-identical results either way.
    Departures release the resources of previously admitted requests;
    departures of rejected requests are ignored (they hold nothing).
    With an ``emitter``, every *arrival* ticks it (departures ride along
    in whatever flush follows).
    """
    stats = OnlineRunStats()
    _fold(
        "run_online_with_departures",
        algorithm,
        events,
        stats,
        controller,
        emitter,
    )
    return stats


def run_online_with_failures(
    algorithm: OnlineAlgorithm,
    events: Iterable,
    controller: Optional[Controller] = None,
    strategy: Optional[RepairStrategy] = None,
    audit: bool = False,
    emitter: Optional[SnapshotEmitter] = None,
) -> ResilienceRunStats:
    """Drive an online algorithm through arrivals, departures, and failures.

    ``events`` is a merged, time-ordered stream (see
    :func:`repro.workload.arrivals.interleave`) of
    :class:`~repro.workload.arrivals.RequestEvent` and
    :class:`~repro.resilience.events.FailureEvent` records.  Arrivals and
    departures behave exactly as in :func:`run_online_with_departures`; a
    failure additionally walks the installed requests it breaks (through
    the controller's flow-rule records when a controller is attached) and
    hands each to ``strategy``, which repairs it or drops it.  Recoveries
    restore capacity for future admissions and repairs but never
    re-admit a previously dropped request.

    Args:
        algorithm: the online admission algorithm under test.
        events: the merged event stream.
        controller: optional data plane; required for flow-rule-level
            impact matching (without it, trees are matched directly).
        strategy: the repair strategy for broken requests (defaults to the
            :class:`~repro.resilience.repair.DropAffected` baseline).
        audit: when set, re-check the network/controller residual-
            consistency invariants after every event (tests; slow).

    Returns:
        :class:`ResilienceRunStats` — admission fields identical in
        meaning to :func:`run_online_with_departures`, plus failure,
        repair, and downtime aggregates.
    """
    stats = ResilienceRunStats()
    _fold(
        "run_online_with_failures",
        algorithm,
        events,
        stats,
        controller,
        emitter,
        strategy=strategy if strategy is not None else DropAffected(),
        audit=audit,
    )
    return stats
