"""Unit tests for the OnlineAlgorithm base-class contract."""

import pytest

from repro.core import appro_multi
from repro.core.online_base import (
    OnlineAlgorithm,
    OnlineDecision,
    RejectReason,
)
from repro.exceptions import SimulationError


class _ScriptedAlgorithm(OnlineAlgorithm):
    """Admits every request with a precomputed tree (test double)."""

    def __init__(self, network, tree_factory):
        super().__init__(network)
        self._tree_factory = tree_factory

    def _decide(self, request):
        tree = self._tree_factory(request)
        if tree is None:
            return self._reject(request, RejectReason.DISCONNECTED)
        return self._admit(request, tree, selection_weight=1.0)


class _BrokenAlgorithm(OnlineAlgorithm):
    """Claims admission without a tree (must be caught by process())."""

    def _decide(self, request):
        return OnlineDecision(request=request, admitted=True)


class TestContract:
    def test_admit_reserves_and_tracks(self, small_network, request_batch):
        algorithm = _ScriptedAlgorithm(
            small_network,
            lambda r: appro_multi(small_network, r, max_servers=1),
        )
        decision = algorithm.process(request_batch[0])
        assert decision.admitted
        assert algorithm.admitted_count == 1
        assert algorithm.rejected_count == 0
        assert small_network.total_bandwidth_allocated() > 0

    def test_reject_path(self, small_network, request_batch):
        algorithm = _ScriptedAlgorithm(small_network, lambda r: None)
        decision = algorithm.process(request_batch[0])
        assert not decision.admitted
        assert decision.reason is RejectReason.DISCONNECTED
        assert algorithm.rejected_count == 1

    def test_admit_falls_back_when_capacity_missing(
        self, small_network, request_batch
    ):
        # drain all bandwidth so try_allocate must fail
        for u, v, _ in small_network.graph.edges():
            small_network.allocate_bandwidth(
                u, v, small_network.link(u, v).residual
            )
        tree = None
        try:
            tree = appro_multi(small_network, request_batch[0], max_servers=1)
        except Exception:
            pytest.skip("uncapacitated solver unexpectedly failed")
        algorithm = _ScriptedAlgorithm(small_network, lambda r: tree)
        decision = algorithm.process(request_batch[0])
        assert not decision.admitted
        assert decision.reason is RejectReason.ALLOCATION_FAILED

    def test_inconsistent_decision_rejected_by_process(
        self, small_network, request_batch
    ):
        algorithm = _BrokenAlgorithm(small_network)
        with pytest.raises(SimulationError):
            algorithm.process(request_batch[0])

    def test_depart_twice_raises(self, small_network, request_batch):
        algorithm = _ScriptedAlgorithm(
            small_network,
            lambda r: appro_multi(small_network, r, max_servers=1),
        )
        request = request_batch[0]
        algorithm.process(request)
        algorithm.depart(request.request_id)
        with pytest.raises(SimulationError):
            algorithm.depart(request.request_id)
