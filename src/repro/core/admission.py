"""Admission bookkeeping: thresholds and resource reservation for trees.

Two concerns live here:

- :class:`AdmissionPolicy` — the paper's threshold policy (Section V-B):
  reject when any used server's weight reaches ``σ_v`` or the tree's edge
  weight sum reaches ``σ_e``, with the paper's calibration
  ``σ_v = σ_e = |V| − 1``.
- :func:`try_allocate` / :func:`release_tree` — turning a pseudo-multicast
  tree into actual reservations on an :class:`SDNetwork`, transactionally:
  either every link and server reservation succeeds, or nothing is left
  behind; :func:`install_or_release` then programs the reserved tree into
  a controller's flow tables, or undoes the reservation if they are full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import CapacityExceededError
from repro.network.allocation import AllocationTransaction
from repro.network.controller import Controller, TableCapacityExceededError
from repro.network.sdn import SDNetwork


@dataclass(frozen=True)
class AdmissionPolicy:
    """Threshold-based admission control (Algorithm 2, steps 7 and 9).

    Attributes:
        sigma_v: server-weight threshold ``σ_v``; a candidate server with
            ``w_v(k) ≥ σ_v`` is not considered.
        sigma_e: tree-weight threshold ``σ_e``; a candidate tree with
            ``Σ_{e∈T} w_e(k) ≥ σ_e`` is not considered.
    """

    sigma_v: float
    sigma_e: float

    def __post_init__(self) -> None:
        if self.sigma_v <= 0 or self.sigma_e <= 0:
            raise ValueError(
                f"thresholds must be positive: σ_v={self.sigma_v}, "
                f"σ_e={self.sigma_e}"
            )

    @classmethod
    def for_network(cls, network: SDNetwork) -> "AdmissionPolicy":
        """The paper's calibration: ``σ_v = σ_e = |V| − 1``."""
        sigma = max(1.0, float(network.num_nodes - 1))
        return cls(sigma_v=sigma, sigma_e=sigma)

    def server_admissible(self, server_weight: float) -> bool:
        """Return whether a server passes the ``w_v(k) < σ_v`` test."""
        return server_weight < self.sigma_v

    def tree_admissible(self, tree_weight: float) -> bool:
        """Return whether a tree passes the ``Σ w_e(k) < σ_e`` test."""
        return tree_weight < self.sigma_e


def try_allocate(
    network: SDNetwork, tree: PseudoMulticastTree
) -> Optional[AllocationTransaction]:
    """Reserve the resources a pseudo-multicast tree needs, atomically.

    Bandwidth is reserved per link at ``usage · b_k`` (a link traversed
    twice by the pseudo-multicast routing reserves twice the bandwidth);
    compute is reserved at ``C_v(SC_k)`` on each used server.

    Returns:
        The committed transaction (hold it to release on departure), or
        ``None`` if any reservation failed — in which case the network is
        untouched.
    """
    request = tree.request
    # `with` so *any* exception before commit() — not just the capacity
    # error handled here — rolls the partial reservation back (RL011)
    with AllocationTransaction(network) as txn:
        try:
            for (u, v), count in sorted(
                tree.edge_usage().items(), key=lambda item: repr(item[0])
            ):
                txn.allocate_bandwidth(u, v, count * request.bandwidth)
            for server in tree.servers:
                txn.allocate_compute(server, request.compute_demand)
        except CapacityExceededError:
            return None
        txn.commit()
    return txn


def release_tree(transaction: AllocationTransaction) -> None:
    """Release a previously committed tree's resources (request departure)."""
    transaction.release_all()


def install_or_release(
    controller: Optional[Controller],
    tree: PseudoMulticastTree,
    transaction: AllocationTransaction,
) -> bool:
    """Install an allocated tree's flow rules, or release its reservation.

    The one data-plane step after :func:`try_allocate`, shared by the
    online algorithms and the capacitated offline runner.  Returns whether
    the tree is in service: ``True`` with no controller (nothing to
    program) or once installed; ``False`` if the flow tables cannot hold
    it, after releasing ``transaction`` so the network is as it was.
    """
    if controller is None:
        return True
    try:
        controller.install_tree(
            tree.request.request_id, tree.routing_hops(), list(tree.servers)
        )
    except TableCapacityExceededError:
        release_tree(transaction)
        return False
    return True
