"""StreamEngine: the one admission event loop.

Every online run folds its events through this engine, with one method
per event kind: :meth:`StreamEngine.handle_arrival` (the package's single
``OnlineAlgorithm.process`` call site), :meth:`StreamEngine.handle_departure`
and :meth:`StreamEngine.handle_failure`.  :meth:`StreamEngine.run` pulls
arrivals from an endless :class:`~repro.stream.workloads.ArrivalStream`
whose departures are only known at admission time; the runners in
:mod:`repro.simulation.engine` feed materialized event lists through the
same methods.  State stays bounded:

- departures are scheduled in a priority queue (``heapq``) keyed by
  ``(departure time, admission order)`` and drained before each arrival,
  so memory for pending departures is O(active requests), not O(stream);
- per-request statistics are *bounded*: counters, a fixed-bucket cost
  histogram, a ring of recent decisions, and a **chained SHA-256
  decision digest** that fingerprints the entire admission series in
  O(1) memory — two runs produced the same decisions, in the same
  order, with the same costs, iff their digests match;
- every arrival ticks an optional
  :class:`~repro.obs.emitter.SnapshotEmitter`, so delta telemetry
  streams out at the emitter's cadence;
- every ``checkpoint_every`` arrivals the engine invokes a checkpoint
  sink (see :mod:`repro.stream.checkpoint`) and samples its own RSS, so
  a long run leaves both a resume point and a memory-flatness series
  behind.  A live admission's checkpoint record is built only then.

The engine never reads a wall clock: simulated time comes from the
stream, and the decision sequence is a pure function of (network,
algorithm, stream) — which is what the checkpoint layer's bit-identity
guarantee is built on.
"""

from __future__ import annotations

import hashlib
import heapq
import os
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple,
)

from repro.core.online_base import OnlineAlgorithm, OnlineDecision
from repro.exceptions import SimulationError
from repro.network.allocation import AllocationTransaction
from repro.network.controller import Controller
from repro.obs import (
    DEFAULT_COST_BOUNDS as _COST_BOUNDS,
    enabled as _obs_enabled,
    hist as _obs_hist,
    inc as _obs_inc,
    request_scope as _obs_request,
    span as _obs_span,
    trace_instant as _obs_instant,
)
from repro.obs.emitter import SnapshotEmitter
from repro.obs.window import FixedBucketHistogram
from repro.resilience.events import FailureEvent, apply_event
from repro.resilience.impact import affected_request_ids, classify_impact
from repro.resilience.repair import ActiveRequest, RepairContext, RepairStrategy
from repro.stream.workloads import Arrival, ArrivalStream
from repro.workload.request import MulticastRequest

if TYPE_CHECKING:
    from repro.core.pseudo_tree import PseudoMulticastTree
    from repro.simulation.metrics import ResilienceRunStats

__all__ = ["StreamEngine", "StreamStats", "sample_rss_kb"]


def sample_rss_kb() -> float:
    """Current resident set size in KiB.

    Reads ``/proc/self/statm`` (instantaneous RSS, Linux); falls back to
    ``resource.getrusage`` peak RSS elsewhere.  Diagnostics only — never
    a control input.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
    except (OSError, IndexError, ValueError):
        import resource

        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class StreamStats:
    """Bounded rolling statistics of a stream run.

    Everything here is O(1) in the stream length except ``rss_samples``
    (one entry per checkpoint/RSS window — hundreds of entries for a
    million-request run) and the fixed-size ``recent`` ring.

    The ``digest`` is a chained SHA-256 over the decision sequence:
    each decision rehashes ``digest || request_id || admitted || reason
    || cost``, so the final hex string commits to the entire admission
    series — order, outcomes, and exact float costs — in constant
    memory.  It is the equality witness of the checkpoint layer's
    resume-vs-straight-through differential and of the shard layer's
    worker-count invariance.
    """

    __slots__ = (
        "processed",
        "admitted",
        "rejected",
        "departed",
        "peak_active",
        "last_time",
        "digest",
        "rejections",
        "cost_histogram",
        "recent",
        "rss_samples",
    )

    RECENT_SIZE = 64

    def __init__(self) -> None:
        self.processed = 0
        self.admitted = 0
        self.rejected = 0
        self.departed = 0
        self.peak_active = 0
        self.last_time = 0.0
        self.digest = ""
        self.rejections: Dict[str, int] = {}
        self.cost_histogram = FixedBucketHistogram(_COST_BOUNDS)
        self.recent: Deque[Tuple[str, bool, Optional[str]]] = deque(
            maxlen=self.RECENT_SIZE
        )
        self.rss_samples: List[List[float]] = []

    @property
    def admission_ratio(self) -> float:
        """Admitted / processed (0 when nothing was processed)."""
        return self.admitted / self.processed if self.processed else 0.0

    def record_decision(
        self,
        request_id: Hashable,
        admitted: bool,
        reason: Optional[str],
        cost: Optional[float],
    ) -> None:
        """Fold one admission decision into the rolling aggregates."""
        self.processed += 1
        payload = (
            f"{self.digest}|{request_id!r}|{int(admitted)}|"
            f"{reason or ''}|{cost!r}"
        )
        self.digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self.recent.append((repr(request_id), admitted, reason))
        if admitted:
            self.admitted += 1
            assert cost is not None
            self.cost_histogram.observe(cost)
        else:
            self.rejected += 1
            if reason is not None:
                self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def sample_rss(self) -> None:
        """Append one ``[processed, rss_kb]`` point to the memory series."""
        self.rss_samples.append([float(self.processed), sample_rss_kb()])

    # -- checkpoint support ---------------------------------------------
    def state(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every field."""
        return {
            "processed": self.processed,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "departed": self.departed,
            "peak_active": self.peak_active,
            "last_time": self.last_time,
            "digest": self.digest,
            "rejections": dict(self.rejections),
            "cost_histogram": self.cost_histogram.as_dict(),
            "recent": [list(entry) for entry in self.recent],
            "rss_samples": [list(point) for point in self.rss_samples],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Reset every field to a :meth:`state` snapshot."""
        self.processed = int(state["processed"])
        self.admitted = int(state["admitted"])
        self.rejected = int(state["rejected"])
        self.departed = int(state["departed"])
        self.peak_active = int(state["peak_active"])
        self.last_time = float(state["last_time"])
        self.digest = str(state["digest"])
        self.rejections = {
            str(k): int(v) for k, v in state["rejections"].items()
        }
        self.cost_histogram = FixedBucketHistogram(
            state["cost_histogram"]["bounds"]
        )
        self.cost_histogram.merge(state["cost_histogram"])
        self.recent = deque(
            (
                (str(rid), bool(admitted), reason)
                for rid, admitted, reason in state["recent"]
            ),
            maxlen=self.RECENT_SIZE,
        )
        self.rss_samples = [
            [float(a), float(b)] for a, b in state["rss_samples"]
        ]

    def as_dict(self) -> Dict[str, Any]:
        """Reporting form (same shape as :meth:`state`, plus ratios)."""
        data = self.state()
        data["admission_ratio"] = self.admission_ratio
        return data

    def __repr__(self) -> str:
        return (
            f"StreamStats(processed={self.processed}, "
            f"admitted={self.admitted}, rejected={self.rejected}, "
            f"departed={self.departed})"
        )




def _checkpoint_record(
    active: ActiveRequest, departs_at: Optional[float]
) -> Dict[str, Any]:
    """The JSON shape of one live admission (checkpoint payload)."""
    if active.record is not None:
        return active.record
    tree = active.tree
    assert tree is not None
    request = active.request
    return {
        "request": {
            "request_id": request.request_id,
            "source": request.source,
            "destinations": sorted(request.destinations, key=repr),
            "bandwidth": request.bandwidth,
            "chain": [kind.value for kind in request.chain.kinds],
        },
        "departs_at": departs_at,
        "bandwidth_ops": [
            [u, v, amount]
            for u, v, amount in active.transaction.bandwidth_reservations
        ],
        "compute_ops": [
            [node, amount]
            for node, amount in active.transaction.compute_reservations
        ],
        "hops": [[u, v] for u, v in tree.routing_hops()],
        "servers": list(tree.servers),
    }


def _touches_failure(
    tree: PseudoMulticastTree, down_links: set, down_servers: set
) -> bool:
    """Whether a live tree uses any currently failed link or server."""
    if down_servers and any(s in down_servers for s in tree.servers):
        return True
    if not down_links:
        return False
    return any(key in down_links for key in tree.edge_usage())


class StreamEngine:
    """Drives an online algorithm over arrivals, departures and failures.

    Args:
        algorithm: the online admission algorithm; the engine binds
            ``controller`` to it, so admitted trees are installed (or
            evicted) inside its ``process``.
        stream: the arrival source :meth:`run` pulls from (an empty
            :class:`~repro.stream.workloads.SequenceStream` when the
            caller feeds events itself).
        controller: optional data plane; admitted trees are installed
            and departing requests uninstalled.
        emitter: optional snapshot emitter, ticked once per arrival.
        checkpoint_every: invoke ``checkpoint_sink`` (and sample RSS)
            after every this-many arrivals (``None`` disables both).
        checkpoint_sink: callable receiving this engine at each
            checkpoint boundary — typically ``lambda engine:
            save_checkpoint(path, engine)``.

    Event ordering matches the sorted-event-list semantics of
    :func:`~repro.simulation.run_online_with_departures`: all departures
    with ``time <= arrival.time`` are drained *before* the arrival is
    processed (departures precede coincident arrivals), and pending
    departures at equal times drain in admission order.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        stream: ArrivalStream,
        controller: Optional[Controller] = None,
        emitter: Optional[SnapshotEmitter] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_sink: Optional[Callable[["StreamEngine"], None]] = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SimulationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.algorithm = algorithm
        self.stream = stream
        self.controller = controller
        self.emitter = emitter
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.stats = StreamStats()
        algorithm.controller = controller
        #: (departure time, admission seq, request id) min-heap.
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._heap_seq = 0
        #: request id -> live admission, in admission order.
        self._active: Dict[Hashable, ActiveRequest] = {}
        self._since_checkpoint = 0

    # -- introspection ---------------------------------------------------
    @property
    def active_count(self) -> int:
        """Requests currently holding resources."""
        return len(self._active)

    @property
    def pending_departures(self) -> int:
        """Scheduled departures not yet drained."""
        return len(self._heap)

    def active_trees(self) -> List[Optional[PseudoMulticastTree]]:
        """The trees of the live admissions, in admission order (``None``
        for an admission restored from a checkpoint)."""
        return [active.tree for active in self._active.values()]

    # -- event processing ------------------------------------------------
    def handle_arrival(self, arrival: Arrival) -> OnlineDecision:
        """Decide one arrival and fold the decision into the engine state.

        Departures due by ``arrival.time`` are *not* drained here (see
        :meth:`process_one`).
        """
        request = arrival.request
        request_id = request.request_id
        with _obs_request(request_id):
            decision = self.algorithm.process(request)
            if decision.admitted:
                assert decision.tree is not None
                assert decision.transaction is not None
                cost = decision.tree.total_cost
                if _obs_enabled():
                    _obs_hist("engine.tree_cost", cost, _COST_BOUNDS)
                _obs_instant("engine.admit", cost=cost)
                self.stats.record_decision(request_id, True, None, cost)
                self._active[request_id] = ActiveRequest(
                    request=request,
                    tree=decision.tree,
                    transaction=decision.transaction,
                    via_algorithm=True,
                )
                if arrival.holding_time is not None:
                    heapq.heappush(
                        self._heap,
                        (
                            arrival.time + arrival.holding_time,
                            self._heap_seq,
                            request_id,
                        ),
                    )
                    self._heap_seq += 1
                if len(self._active) > self.stats.peak_active:
                    self.stats.peak_active = len(self._active)
            else:
                reason = (
                    decision.reason.value
                    if decision.reason is not None
                    else None
                )
                _obs_instant("engine.reject", reason=reason)
                self.stats.record_decision(request_id, False, reason, None)
        if arrival.time > self.stats.last_time:
            self.stats.last_time = arrival.time
        if self.emitter is not None:
            self.emitter.tick()
        return decision

    def handle_departure(self, request_id: Hashable, when: float) -> bool:
        """Release a live admission at ``when``; False if it holds nothing
        (it was rejected, already departed, or dropped by a failure)."""
        active = self._active.pop(request_id, None)
        if active is None:
            return False
        _obs_inc("engine.departures")
        with _obs_request(request_id):
            if active.via_algorithm:
                self.algorithm.depart(request_id)
            else:
                active.transaction.release_all()
            if self.controller is not None:
                self.controller.uninstall(request_id)
            _obs_instant("engine.depart")
        self.stats.departed += 1
        if when > self.stats.last_time:
            self.stats.last_time = when
        return True

    def handle_failure(
        self,
        event: FailureEvent,
        strategy: RepairStrategy,
        stats: ResilienceRunStats,
    ) -> List[ActiveRequest]:
        """Apply one failure/recovery and repair the requests it breaks.

        Failure, repair and recovery counts go to ``stats``; returns the
        live admissions the strategy dropped (they hold nothing any more).
        """
        network = self.algorithm.network
        changed = apply_event(network, event)
        if event.up:
            if changed:
                stats.recoveries += 1
                _obs_inc("engine.recoveries")
            return []
        if not changed:
            return []
        stats.failures += 1
        _obs_inc("engine.failures")
        context = RepairContext(
            network=network,
            controller=self.controller,
            algorithm=self.algorithm,
        )
        active = self._active
        dropped: List[ActiveRequest] = []
        with _obs_span("failure_repair"):
            if self.controller is not None:
                candidates = [
                    rid
                    for rid in affected_request_ids(self.controller, network)
                    if rid in active
                ]
            else:
                down_links = set(network.failed_links())
                down_servers = set(network.failed_servers())
                candidates = [
                    rid
                    for rid, record in active.items()
                    if record.tree is not None
                    and _touches_failure(record.tree, down_links, down_servers)
                ]
            for rid in candidates:
                tree = active[rid].tree
                assert tree is not None, "a restored admission has no tree"
                impact = classify_impact(network, tree)
                if not impact.broken:
                    continue
                stats.broken_requests += 1
                _obs_inc("engine.broken_requests")
                record = active.pop(rid)
                with _obs_request(rid):
                    result = strategy.repair(context, record, impact)
                    _obs_instant("engine.repair", action=result.action.value)
                stats.record_repair(result.action.value)
                if result.active is not None:
                    active[rid] = result.active
                    stats.repair_costs.append(result.repair_cost)
                else:
                    dropped.append(record)
        return dropped

    def _drain_departures(self, up_to: float) -> None:
        """Release every admitted request departing at or before ``up_to``."""
        heap = self._heap
        while heap and heap[0][0] <= up_to:
            when, _, request_id = heapq.heappop(heap)
            self.handle_departure(request_id, when)

    def process_one(self, arrival: Arrival) -> bool:
        """Process one arrival (departures first); returns admitted."""
        self._drain_departures(arrival.time)
        return self.handle_arrival(arrival).admitted

    def run(
        self,
        max_events: Optional[int] = None,
        drain: bool = False,
    ) -> StreamStats:
        """Fold the stream through the algorithm.

        Args:
            max_events: stop after this many *additional* arrivals
                (``None`` runs to stream exhaustion — the stream's own
                ``limit`` must then be finite).
            drain: after the last arrival, also release every still-
                scheduled departure (matches replaying a fully sorted
                event list whose departures trail the final arrival).

        Returns the engine's :class:`StreamStats` (also available as
        ``self.stats``; ``run`` may be called again to continue).
        """
        handled = 0
        with _obs_span("stream_run"):
            while max_events is None or handled < max_events:
                arrival = self.stream.next_arrival()
                if arrival is None:
                    break
                self.process_one(arrival)
                handled += 1
                if self.checkpoint_every is not None:
                    self._since_checkpoint += 1
                    if self._since_checkpoint >= self.checkpoint_every:
                        self._since_checkpoint = 0
                        self.stats.sample_rss()
                        if self.checkpoint_sink is not None:
                            self.checkpoint_sink(self)
            if drain:
                self._drain_departures(float("inf"))
        return self.stats

    # -- checkpoint support ----------------------------------------------
    def heap_state(self) -> Dict[str, Any]:
        """The departure queue as JSON (heap invariant preserved)."""
        return {
            "entries": [[when, seq, rid] for when, seq, rid in self._heap],
            "next_seq": self._heap_seq,
        }

    def restore_heap(self, state: Dict[str, Any]) -> None:
        """Rebuild the departure queue from :meth:`heap_state`.

        Entries must already carry decoded request ids (the checkpoint
        layer owns the JSON node codec).
        """
        self._heap = [
            (float(when), int(seq), rid)
            for when, seq, rid in state["entries"]
        ]
        heapq.heapify(self._heap)
        self._heap_seq = int(state["next_seq"])

    def active_records(self) -> Dict[Hashable, Dict[str, Any]]:
        """Live admission records, keyed by request id (insertion order
        is admission order — the restore layer replays them in order).

        Built here, at checkpoint time, from the live admissions: the
        departure time comes from the heap (``None`` for a request that
        leaves on an explicit departure event).
        """
        departs = {rid: when for when, _, rid in self._heap}
        return {
            rid: _checkpoint_record(active, departs.get(rid))
            for rid, active in self._active.items()
        }

    def adopt_active(
        self,
        request: MulticastRequest,
        transaction: AllocationTransaction,
        record: Dict[str, Any],
    ) -> None:
        """Re-register one restored admission (restore layer).

        The algorithm adopts ``transaction``, the controller (if any)
        reinstalls the recorded hops, and the decoded ``record`` is kept
        as the request's checkpoint record.
        """
        request_id = request.request_id
        if request_id in self._active:
            raise SimulationError(
                f"request {request_id!r} is already active"
            )
        self.algorithm.adopt_admission(request, transaction)
        if self.controller is not None:
            self.controller.install_tree(
                request_id, list(record["hops"]), list(record["servers"])
            )
        self._active[request_id] = ActiveRequest(
            request=request,
            tree=None,
            transaction=transaction,
            via_algorithm=True,
            record=record,
        )
