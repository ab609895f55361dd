"""Tree-repair strategies for failure-disrupted multicast requests.

When a failure breaks an installed pseudo-multicast tree, the operator has
three escalating options, each implemented here behind the common
:class:`RepairStrategy` protocol:

- :class:`DropAffected` — tear the request down and give up.  The baseline
  every repair scheme must beat on disruption.
- :class:`FullReadmit` — tear down, then re-run ``Appro_Multi_Cap`` on the
  post-failure residual network and reinstall from scratch.  Always finds a
  tree when one exists, but reprograms (and re-bills) the entire tree.
- :class:`SubtreeGraft` — keep the surviving subtree in place and reconnect
  only the severed destinations via cheapest residual paths, falling back
  to full readmission when the service chain itself is severed or the graft
  cannot be allocated.  Only the *new* reservations are programmed.

Repair cost counts the resources a strategy (re)programs: a full
readmission is charged the whole new tree's operational cost, a graft only
the bandwidth cost of its added link traversals.  This matches what an SDN
controller would actually push to the data plane and is what the resilience
experiment compares across strategies.

Ownership: an admitted request's reservations initially live inside the
online algorithm (``via_algorithm=True``).  A repair that rebuilds or
mutates the tree takes them over — the algorithm ``forget``s the request,
and the surviving + grafted reservations are re-homed into a single adopted
:class:`~repro.network.allocation.AllocationTransaction` so a later
departure releases exactly once.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.admission import install_or_release, try_allocate
from repro.core.appro_multi import DEFAULT_MAX_SERVERS, appro_multi_cap
from repro.core.online_base import OnlineAlgorithm
from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import CapacityExceededError, InfeasibleRequestError
from repro.graph.graph import edge_key
from repro.graph.shortest_paths import dijkstra
from repro.network.allocation import AllocationTransaction
from repro.network.controller import Controller
from repro.network.sdn import SDNetwork
from repro.obs import (
    inc as _obs_inc,
    span as _obs_span,
    trace_instant as _obs_instant,
)
from repro.resilience.impact import ImpactReport, processed_reachable
from repro.workload.request import MulticastRequest

Node = Hashable
EdgeKey = Tuple[Node, Node]


@dataclass
class ActiveRequest:
    """One admitted request's live state, as the admission engine tracks it.

    Attributes:
        request: the admitted request.
        tree: the currently installed pseudo-multicast tree (``None`` for
            an admission restored from a stream checkpoint).
        transaction: the committed transaction holding its reservations.
        via_algorithm: whether the online algorithm still owns the
            transaction (initial admission) or the engine does (the request
            has been repaired and re-homed at least once).
        record: the decoded checkpoint record of a restored admission,
            which stands in for the tree when the next checkpoint is taken.
    """

    request: MulticastRequest
    tree: Optional[PseudoMulticastTree]
    transaction: AllocationTransaction
    via_algorithm: bool
    record: Optional[Dict[str, Any]] = None

    @property
    def request_id(self) -> Hashable:
        """The request's identity."""
        return self.request.request_id


class RepairAction(enum.Enum):
    """What a repair strategy ended up doing for one broken request."""

    DROPPED = "dropped"
    READMITTED = "readmitted"
    GRAFTED = "grafted"


@dataclass(frozen=True)
class RepairResult:
    """Outcome of repairing one broken request.

    Attributes:
        request_id: the request that was repaired (or dropped).
        action: what happened.
        repair_cost: cost of the resources the repair (re)programmed —
            the full new tree cost for a readmission, the added bandwidth
            cost for a graft, 0 for a drop.
        active: the request's new live state (``None`` when dropped).
    """

    request_id: Hashable
    action: RepairAction
    repair_cost: float
    active: Optional[ActiveRequest]


@dataclass
class RepairContext:
    """Everything a repair strategy may touch.

    Attributes:
        network: the (post-failure) capacitated network.
        controller: the data plane being reprogrammed.
        algorithm: the online algorithm that owns unrepaired admissions
            (``None`` in controller-less unit tests; then every
            ``ActiveRequest`` must be engine-owned).
        max_servers: the ``K`` bound passed to ``Appro_Multi_Cap`` on
            readmission.
    """

    network: SDNetwork
    controller: Optional[Controller]
    algorithm: Optional[OnlineAlgorithm]
    max_servers: int = DEFAULT_MAX_SERVERS


class RepairStrategy(abc.ABC):
    """Protocol: given a broken request, restore service or drop it."""

    #: Short identifier used in metrics, telemetry, and CLI output.
    name: str = "abstract"

    @abc.abstractmethod
    def repair(
        self,
        context: RepairContext,
        active: ActiveRequest,
        impact: ImpactReport,
    ) -> RepairResult:
        """Repair one broken request; the result replaces ``active``."""

    # ------------------------------------------------------------------
    # shared mechanics
    # ------------------------------------------------------------------
    @staticmethod
    def _teardown(context: RepairContext, active: ActiveRequest) -> None:
        """Remove the request's data-plane state and release its resources."""
        if context.controller is not None:
            context.controller.uninstall(active.request_id)
        if active.via_algorithm:
            assert context.algorithm is not None
            context.algorithm.depart(active.request_id)
        else:
            active.transaction.release_all()

    @staticmethod
    def _readmit(
        context: RepairContext, request: MulticastRequest
    ) -> RepairResult:
        """Re-embed ``request`` from scratch on the residual network.

        Assumes the request holds no resources and no data-plane state.
        """
        network = context.network
        try:
            tree = appro_multi_cap(network, request, context.max_servers)
        except InfeasibleRequestError:
            _obs_inc("resilience.repair.infeasible")
            return RepairResult(
                request.request_id, RepairAction.DROPPED, 0.0, None
            )
        txn = try_allocate(network, tree)
        if txn is None:
            _obs_inc("resilience.repair.allocation_failed")
            return RepairResult(
                request.request_id, RepairAction.DROPPED, 0.0, None
            )
        if not install_or_release(context.controller, tree, txn):
            _obs_inc("resilience.repair.table_capacity")
            return RepairResult(
                request.request_id, RepairAction.DROPPED, 0.0, None
            )
        return RepairResult(
            request_id=request.request_id,
            action=RepairAction.READMITTED,
            repair_cost=tree.total_cost,
            active=ActiveRequest(
                request=request,
                tree=tree,
                transaction=txn,
                via_algorithm=False,
            ),
        )


class DropAffected(RepairStrategy):
    """Baseline: tear down every broken request and admit nothing back."""

    name = "drop"

    def repair(
        self,
        context: RepairContext,
        active: ActiveRequest,
        impact: ImpactReport,
    ) -> RepairResult:
        with _obs_span("repair_drop"):
            self._teardown(context, active)
            _obs_inc("resilience.repair.dropped")
        _obs_instant(
            "repair.outcome",
            action=RepairAction.DROPPED.value,
            request_id=str(active.request_id),
        )
        return RepairResult(
            active.request_id, RepairAction.DROPPED, 0.0, None
        )


class FullReadmit(RepairStrategy):
    """Tear down, re-run ``Appro_Multi_Cap``, reinstall from scratch."""

    name = "readmit"

    def repair(
        self,
        context: RepairContext,
        active: ActiveRequest,
        impact: ImpactReport,
    ) -> RepairResult:
        with _obs_span("repair_readmit"):
            self._teardown(context, active)
            result = self._readmit(context, active.request)
            if result.action is RepairAction.READMITTED:
                _obs_inc("resilience.repair.readmitted")
        _obs_instant(
            "repair.outcome",
            action=result.action.value,
            request_id=str(active.request_id),
        )
        return result


class SubtreeGraft(RepairStrategy):
    """Keep the surviving subtree; graft severed destinations back on.

    When only distribution edges failed (the service chain still runs and
    still receives the unprocessed stream), the strategy:

    1. keeps every source→server path, return path, and surviving
       distribution edge exactly as installed — their reservations are not
       touched, so the repair causes no churn on the working part;
    2. for each severed destination (cheapest-first by residual distance),
       finds the cheapest path in the post-failure residual graph from any
       node already receiving the processed stream, and adds its edges as
       new distribution edges (each graft extends the reachable set, so
       later orphans may attach to earlier grafts);
    3. allocates only the *increase* in per-link usage inside a fresh
       transaction, then re-homes the whole tree (survivors + grafts) into
       one adopted transaction and reprograms the controller.

    A severed chain, an unreachable orphan, or a failed allocation falls
    back to :class:`FullReadmit`'s teardown-and-readmit path; if that fails
    too, the request is dropped.
    """

    name = "graft"

    def repair(
        self,
        context: RepairContext,
        active: ActiveRequest,
        impact: ImpactReport,
    ) -> RepairResult:
        with _obs_span("repair_graft"):
            if impact.chain_severed:
                _obs_inc("resilience.repair.graft_chain_severed")
                self._teardown(context, active)
                result = self._readmit(context, active.request)
            else:
                grafted = self._try_graft(context, active, impact)
                if grafted is not None:
                    _obs_inc("resilience.repair.grafted")
                    result = grafted
                else:
                    _obs_inc("resilience.repair.graft_fallback")
                    self._teardown(context, active)
                    result = self._readmit(context, active.request)
        _obs_instant(
            "repair.outcome",
            action=result.action.value,
            request_id=str(active.request_id),
        )
        return result

    # ------------------------------------------------------------------
    # graft mechanics
    # ------------------------------------------------------------------
    def _try_graft(
        self,
        context: RepairContext,
        active: ActiveRequest,
        impact: ImpactReport,
    ) -> Optional[RepairResult]:
        """Attempt the incremental graft; ``None`` means fall back."""
        network = context.network
        tree = active.tree
        assert tree is not None
        request = active.request
        down = set(network.failed_links())

        plan = self._plan_graft(network, tree, down,
                                impact.severed_destinations)
        if plan is None:
            return None
        new_edges, graft_cost = plan
        new_tree = self._rebuild_tree(network, tree, new_edges)

        # Allocate only the usage increase; the surviving reservations stay
        # exactly where they are.
        old_usage = tree.edge_usage()
        new_usage = new_tree.edge_usage()
        # `with` so any exception before commit() — a typed solver error,
        # not just the capacity check — rolls the delta back (RL011)
        with AllocationTransaction(network) as txn:
            try:
                for key in sorted(new_usage, key=repr):
                    delta = new_usage[key] - old_usage.get(key, 0)
                    if delta > 0:
                        txn.allocate_bandwidth(
                            key[0], key[1], delta * request.bandwidth
                        )
            except CapacityExceededError:
                return None
            txn.commit()

        # The graft is now booked.  Release the failed/stranded edges' usage
        # and transfer ownership: one adopted transaction holds exactly the
        # new tree's reservations.
        for key in sorted(old_usage, key=repr):
            delta = old_usage[key] - new_usage.get(key, 0)
            if delta > 0:
                network.release_bandwidth(
                    key[0], key[1], delta * request.bandwidth
                )
        if active.via_algorithm:
            assert context.algorithm is not None
            context.algorithm.forget(request.request_id)
        adopted = AllocationTransaction.adopt(
            network,
            bandwidth_ops=[
                (key[0], key[1], count * request.bandwidth)
                for key, count in sorted(new_usage.items(),
                                         key=lambda item: repr(item[0]))
            ],
            compute_ops=[
                (server, request.compute_demand)
                for server in new_tree.servers
            ],
        )

        if context.controller is not None:
            context.controller.uninstall(request.request_id)
        if not install_or_release(context.controller, new_tree, adopted):
            # The graft's switches no longer fit; undo everything and let
            # the caller fall back to a full readmission.
            _obs_inc("resilience.repair.table_capacity")
            return self._readmit(context, request)
        return RepairResult(
            request_id=request.request_id,
            action=RepairAction.GRAFTED,
            repair_cost=graft_cost,
            active=ActiveRequest(
                request=request,
                tree=new_tree,
                transaction=adopted,
                via_algorithm=False,
            ),
        )

    @staticmethod
    def _plan_graft(
        network: SDNetwork,
        tree: PseudoMulticastTree,
        down: Set[EdgeKey],
        orphans,
    ) -> Optional[Tuple[List[EdgeKey], float]]:
        """Choose graft paths for every orphan destination.

        Returns the added distribution edges and their bandwidth cost, or
        ``None`` if some orphan cannot be reached on the residual graph.
        """
        request = tree.request
        residual = network.residual_path_cache(
            min_bandwidth=request.bandwidth
        ).graph
        reachable = processed_reachable(tree, down)
        surviving_edges = {
            edge_key(u, v)
            for u, v in tree.distribution_edges
            if edge_key(u, v) not in down
            and u in reachable and v in reachable
        }
        added: List[EdgeKey] = []
        cost = 0.0
        for orphan in sorted(orphans, key=repr):
            if not residual.has_node(orphan):
                return None
            # Search outward from the orphan: the undirected shortest path
            # to the nearest already-served node, reversed, is the graft.
            # targets= early exit on a mid-repair residual snapshot: the
            # epoch is about to be bumped by the graft's re-allocations, so
            # a versioned cache entry would be built and thrown away.
            # repro-lint: disable=RL001
            sp = dijkstra(residual, orphan, targets=set(
                node for node in reachable if residual.has_node(node)
            ))
            best: Optional[Node] = None
            best_dist = float("inf")
            for node in reachable:
                dist = sp.distance.get(node)
                if dist is not None and dist < best_dist - 1e-12:
                    best = node
                    best_dist = dist
                elif (dist is not None
                      and abs(dist - best_dist) <= 1e-12
                      and (best is None or repr(node) < repr(best))):
                    best = node  # deterministic among cost ties
            if best is None:
                return None
            path = list(reversed(sp.path_to(best)))
            for u, v in zip(path, path[1:]):
                key = edge_key(u, v)
                if key not in surviving_edges and key not in set(added):
                    added.append(key)
                    cost += request.bandwidth * network.link_unit_cost(u, v)
            reachable.update(path)
        return added, cost

    @staticmethod
    def _rebuild_tree(
        network: SDNetwork,
        tree: PseudoMulticastTree,
        added: List[EdgeKey],
    ) -> PseudoMulticastTree:
        """The post-graft tree: survivors plus the planned graft edges."""
        down = set(network.failed_links())
        reachable = processed_reachable(tree, down)
        surviving = tuple(
            (u, v)
            for u, v in tree.distribution_edges
            if edge_key(u, v) not in down
            and u in reachable and v in reachable
        )
        distribution = surviving + tuple(added)
        rebuilt = replace(tree, distribution_edges=distribution)
        bandwidth_cost = sum(
            count * tree.request.bandwidth * network.link_unit_cost(u, v)
            for (u, v), count in rebuilt.edge_usage().items()
        )
        return replace(rebuilt, bandwidth_cost=bandwidth_cost)


#: The strategies the resilience experiment compares, in reporting order.
STRATEGIES = (DropAffected, FullReadmit, SubtreeGraft)


def strategy_by_name(name: str) -> RepairStrategy:
    """Instantiate a repair strategy from its short ``name``."""
    for cls in STRATEGIES:
        if cls.name == name:
            return cls()
    known = ", ".join(cls.name for cls in STRATEGIES)
    raise ValueError(f"unknown repair strategy {name!r} (known: {known})")


__all__ = [
    "ActiveRequest",
    "DropAffected",
    "FullReadmit",
    "RepairAction",
    "RepairContext",
    "RepairResult",
    "RepairStrategy",
    "STRATEGIES",
    "SubtreeGraft",
    "strategy_by_name",
]
