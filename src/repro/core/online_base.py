"""Shared interface for online admission algorithms.

``Online_CP`` and the ``SP`` baseline both consume a request stream against
a shared capacitated :class:`SDNetwork` and must make irrevocable
admit/reject decisions.  This module defines the decision record and the
abstract base class the admission engine
(:class:`~repro.stream.engine.StreamEngine`) drives.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.core.admission import install_or_release, release_tree, try_allocate
from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import SimulationError
from repro.network.allocation import AllocationTransaction
from repro.network.controller import Controller
from repro.network.sdn import SDNetwork
from repro.obs import inc as _obs_inc, span as _obs_span
from repro.workload.request import MulticastRequest


class RejectReason(enum.Enum):
    """Why an online algorithm turned a request away."""

    NO_FEASIBLE_SERVER = "no_feasible_server"
    DISCONNECTED = "disconnected"
    SERVER_THRESHOLD = "server_threshold"
    TREE_THRESHOLD = "tree_threshold"
    ALLOCATION_FAILED = "allocation_failed"
    TABLE_CAPACITY = "table_capacity"


@dataclass
class OnlineDecision:
    """The outcome of considering one request.

    Attributes:
        request: the request considered.
        admitted: whether resources were reserved and the tree installed.
        tree: the pseudo-multicast tree (``None`` when rejected).
        transaction: the committed reservation (``None`` when rejected).
        selection_weight: the algorithm's internal score of the chosen
            candidate (model-specific; ``None`` when rejected).
        reason: why the request was rejected (``None`` when admitted).
    """

    request: MulticastRequest
    admitted: bool
    tree: Optional[PseudoMulticastTree] = None
    transaction: Optional[AllocationTransaction] = None
    selection_weight: Optional[float] = None
    reason: Optional[RejectReason] = None


class OnlineAlgorithm(abc.ABC):
    """Base class: owns the network, tracks admissions, exposes ``process``.

    Attributes:
        controller: the data plane admitted trees are programmed into,
            bound by the admission engine that drives this algorithm
            (``None``: no data plane).  A tree the controller's flow tables
            cannot hold is evicted inside :meth:`process`, before the
            decision is counted, so it is counted once: as a
            ``TABLE_CAPACITY`` rejection.
    """

    def __init__(self, network: SDNetwork) -> None:
        self._network = network
        self._active: Dict[Hashable, OnlineDecision] = {}
        self._admitted_total = 0
        self._rejected_total = 0
        self.controller: Optional[Controller] = None

    @property
    def network(self) -> SDNetwork:
        """The capacitated network this algorithm allocates from."""
        return self._network

    @property
    def decided_count(self) -> int:
        """Total requests processed (admitted + rejected)."""
        return self._admitted_total + self._rejected_total

    @property
    def admitted_count(self) -> int:
        """How many requests have been admitted (the throughput metric)."""
        return self._admitted_total

    @property
    def rejected_count(self) -> int:
        """How many requests have been rejected."""
        return self._rejected_total

    @property
    def active_count(self) -> int:
        """How many admitted requests currently hold resources."""
        return len(self._active)

    def process(self, request: MulticastRequest) -> OnlineDecision:
        """Decide on ``request``, reserving resources if admitted.

        With a bound :attr:`controller`, an admitted tree is also installed;
        if the flow tables cannot hold it, its reservation is released and
        the decision becomes a ``TABLE_CAPACITY`` rejection.
        """
        _obs_inc("online.decisions")
        with _obs_span("online_decide"):
            decision = self._decide(request)
        if decision.admitted:
            if decision.tree is None or decision.transaction is None:
                raise SimulationError(
                    "an admitted decision must carry a tree and a transaction"
                )
            if not install_or_release(
                self.controller, decision.tree, decision.transaction
            ):
                decision = self._reject(request, RejectReason.TABLE_CAPACITY)
        if decision.admitted:
            self._active[request.request_id] = decision
            self._admitted_total += 1
            _obs_inc("online.admitted")
        else:
            self._rejected_total += 1
            _obs_inc("online.rejected")
            if decision.reason is not None:
                _obs_inc(f"online.rejected.{decision.reason.value}")
        return decision

    def depart(self, request_id: Hashable) -> None:
        """Release the resources of a previously admitted request."""
        decision = self._active.pop(request_id, None)
        if decision is None:
            raise SimulationError(
                f"request {request_id!r} is not currently admitted"
            )
        assert decision.transaction is not None
        release_tree(decision.transaction)

    def forget(self, request_id: Hashable) -> None:
        """Drop an admitted request *without* releasing its resources.

        Used by repair strategies that take over ownership of a request's
        reservations (the surviving allocations are re-homed into a new
        transaction): after ``forget``, a later :meth:`depart` for the same
        id raises instead of double-releasing.
        """
        if self._active.pop(request_id, None) is None:
            raise SimulationError(
                f"request {request_id!r} is not currently admitted"
            )

    def adopt_admission(
        self,
        request: MulticastRequest,
        transaction: AllocationTransaction,
    ) -> None:
        """Register an externally rebuilt admission (checkpoint restore).

        The stream checkpoint layer re-homes a restored request's
        already-booked reservations into an adopted transaction (see
        :meth:`~repro.network.allocation.AllocationTransaction.adopt`) and
        hands it here so a later :meth:`depart` releases exactly once.  No
        resources are allocated and no counters move — the restored
        statistics are the checkpoint's business, not this algorithm's.
        """
        if request.request_id in self._active:
            raise SimulationError(
                f"request {request.request_id!r} is already admitted"
            )
        self._active[request.request_id] = OnlineDecision(
            request=request,
            admitted=True,
            tree=None,
            transaction=transaction,
        )

    @abc.abstractmethod
    def _decide(self, request: MulticastRequest) -> OnlineDecision:
        """Evaluate one request and (on success) commit its reservation."""

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _admit(
        self,
        request: MulticastRequest,
        tree: PseudoMulticastTree,
        selection_weight: float,
    ) -> OnlineDecision:
        """Attempt to reserve ``tree``'s resources; fall back to rejection."""
        transaction = try_allocate(self._network, tree)
        if transaction is None:
            return OnlineDecision(
                request=request,
                admitted=False,
                reason=RejectReason.ALLOCATION_FAILED,
            )
        return OnlineDecision(
            request=request,
            admitted=True,
            tree=tree,
            transaction=transaction,
            selection_weight=selection_weight,
        )

    @staticmethod
    def _reject(
        request: MulticastRequest, reason: RejectReason
    ) -> OnlineDecision:
        """Build a rejection record."""
        return OnlineDecision(request=request, admitted=False, reason=reason)
