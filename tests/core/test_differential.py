"""Differential harness: the cached engine against two independent oracles.

The cross-request shortest-path cache and the memoized combination
evaluator rewrote the hot path of ``Appro_Multi``.  This module pins the
rewrite to the seed behaviour over a bank of seeded random instances:

1. **Engine identity** — ``appro_multi`` (cached) returns a tree of exactly
   the cost of ``appro_multi_reference`` (the seed engine: explicit scaled
   topology copy, fresh Dijkstra per origin, every combination evaluated
   from scratch), and both reject exactly the same infeasible instances.
2. **Construction identity** — per combination, the cached evaluator's cost
   equals KMB run on the *explicitly built* auxiliary graph, the slow
   construction the paper defines.
3. **Approximation bound** — on instances small enough for the exact
   Dreyfus–Wagner oracle, the returned cost is within the paper's ``2K``
   factor of the auxiliary-graph optimum (Theorem 1).
4. **Oracle identity** — the production CSR core against the dict
   engines, which survive only as oracles: over capacitated
   ``appro_multi_cap`` request sequences, ``_search`` (CSR-native
   evaluator) and ``_search_reference`` (``evaluate_combination``) pick
   the same tree on every cached context; online admission series
   (``Online_CP`` and ``Online_CP_K``) equal the series run with every
   shortest-path cache miss served by the dict
   :func:`~repro.graph.shortest_paths.dijkstra`.  Agreement is **bitwise**
   — trees with the same dict insertion order, the same float costs, the
   same admit/reject verdicts in the same order.

Every instance derives from an explicit seed, so a failure names the exact
graph that broke and is replayable in isolation.
"""

import pytest

from repro.core import (
    VIRTUAL_SOURCE,
    CSRCombinationEvaluator,
    OnlineCP,
    OnlineCPK,
    appro_multi,
    appro_multi_cap,
    appro_multi_detailed,
    appro_multi_reference,
    build_context,
    evaluate_combination,
    explicit_auxiliary_graph,
    iter_combinations,
    optimal_auxiliary_cost,
    try_allocate,
)
from repro.core.appro_multi import _search, _search_reference
from repro.exceptions import InfeasibleRequestError
from repro.graph import (
    ShortestPathCache,
    dijkstra,
    kmb_steiner_tree,
    steiner_tree_cost,
)
from repro.network import build_sdn
from repro.topology import waxman_graph
from repro.workload import generate_workload

#: Instance bank: enough seeds that tie-breaking, pruning, and memoization
#: paths are all exercised, small enough graphs that the run stays quick.
SEEDS = range(50)


def make_instance(seed, nodes=16):
    """One seeded (network, request) pair on a Waxman topology."""
    graph, _ = waxman_graph(nodes, alpha=0.5, beta=0.5, seed=seed)
    network = build_sdn(graph, seed=seed, server_fraction=0.3)
    request = generate_workload(
        graph, count=1, dmax_ratio=0.25, seed=seed + 10_000
    )[0]
    return network, request


class TestEngineIdentity:
    """Cached engine ≡ seed engine: same cost, same feasibility verdicts.

    Costs are compared at ``rel=1e-12``, not bitwise: the cache scales each
    Dijkstra *sum* by ``b_k`` once, while the seed engine sums pre-scaled
    weights — the same paths, associativity apart.  A genuine regression
    (wrong path, stale cache, missed combination) shifts the cost by whole
    edge weights, many orders of magnitude above the tolerance.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_cost_as_reference(self, seed):
        network, request = make_instance(seed)
        try:
            expected = appro_multi_reference(network, request, max_servers=2)
        except InfeasibleRequestError:
            with pytest.raises(InfeasibleRequestError):
                appro_multi(network, request, max_servers=2)
            return
        actual = appro_multi(network, request, max_servers=2)
        assert actual.total_cost == pytest.approx(
            expected.total_cost, rel=1e-12
        )
        assert actual.servers == expected.servers
        assert actual.distribution_edges == expected.distribution_edges
        assert actual.server_paths == expected.server_paths

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_same_cost_at_other_budgets(self, seed):
        network, request = make_instance(seed)
        for k in (1, 3):
            try:
                expected = appro_multi_reference(
                    network, request, max_servers=k
                )
            except InfeasibleRequestError:
                with pytest.raises(InfeasibleRequestError):
                    appro_multi(network, request, max_servers=k)
                continue
            actual = appro_multi(network, request, max_servers=k)
            assert actual.total_cost == pytest.approx(
                expected.total_cost, rel=1e-12
            )

    @pytest.mark.parametrize("seed", range(0, 50, 10))
    def test_detailed_combination_accounting_is_conserved(self, seed):
        """The stronger prune may shift combinations from 'evaluated' to
        'pruned', but every combination is still accounted exactly once."""
        network, request = make_instance(seed)
        chain_cost = {
            v: network.chain_cost(v, request.compute_demand)
            for v in network.server_nodes
        }
        try:
            ctx = build_context(
                graph=network.graph,
                source=request.source,
                destinations=sorted(request.destinations, key=repr),
                servers=network.server_nodes,
                chain_cost=chain_cost,
                bandwidth=request.bandwidth,
                cache=network.path_cache(),
            )
            detailed = appro_multi_detailed(network, request, max_servers=2)
        except InfeasibleRequestError:
            return
        total = sum(1 for _ in iter_combinations(ctx.candidate_servers, 2))
        assert (
            detailed.combinations_evaluated + detailed.combinations_pruned
            == total
        )
        assert detailed.combinations_evaluated >= 1


class TestConstructionIdentity:
    """Cached evaluator ≡ KMB on the explicitly built auxiliary graph.

    Per combination, the CSR-native evaluator must also equal the
    ``evaluate_combination`` oracle on the same cached context bitwise:
    cost float, used servers, and the tree's node and edge order.
    """

    @pytest.mark.parametrize("seed", range(0, 50, 2))
    def test_per_combination_costs_match_explicit_graph(self, seed):
        network, request = make_instance(seed, nodes=14)
        chain_cost = {
            v: network.chain_cost(v, request.compute_demand)
            for v in network.server_nodes
        }
        try:
            ctx = build_context(
                graph=network.graph,
                source=request.source,
                destinations=sorted(request.destinations, key=repr),
                servers=network.server_nodes,
                chain_cost=chain_cost,
                bandwidth=request.bandwidth,
                cache=network.path_cache(),
            )
        except InfeasibleRequestError:
            return
        evaluator = CSRCombinationEvaluator(ctx)
        terminals = [VIRTUAL_SOURCE] + list(ctx.destinations)
        for combination in iter_combinations(ctx.candidate_servers, 2):
            fast = evaluator.evaluate(combination)
            assert solution_bits(fast) == solution_bits(
                evaluate_combination(ctx, combination)
            )
            aux = explicit_auxiliary_graph(ctx, combination)
            try:
                reference = kmb_steiner_tree(aux, terminals)
            except Exception:
                assert fast is None
                continue
            assert fast is not None
            assert fast.cost == pytest.approx(
                steiner_tree_cost(reference), rel=1e-9
            )


def solution_bits(solution):
    """A combination's answer, bitwise: cost, servers, tree order."""
    if solution is None:
        return None
    return (
        solution.cost,
        solution.used_servers,
        tuple(solution.tree.nodes()),
        tuple(solution.tree.edges()),
    )


def _dict_tree(self, origin):
    """``ShortestPathCache.tree`` with misses on the dict engine."""
    if origin not in self._trees:
        self._trees[origin] = dijkstra(self._graph, origin)
    return self._trees[origin]


def _dict_warm(self, origins):
    """``ShortestPathCache.warm`` as a loop of dict-engine misses."""
    for origin in origins:
        self.tree(origin)


@pytest.fixture
def under_dict_dijkstra(monkeypatch):
    """Run ``fn()`` with every cache miss served by the dict oracle."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(ShortestPathCache, "tree", _dict_tree)
            patch.setattr(ShortestPathCache, "warm", _dict_warm)
            return fn()
    return run


def tree_bits(tree):
    """Every observable field of a pseudo-tree, bitwise.

    ``server_paths`` is captured as an item tuple so dict insertion order
    is part of the fingerprint; the two cost floats are compared exactly —
    the CSR-native core promises the same operands in the same order, not
    merely a close result.
    """
    return (
        tree.servers,
        tuple(tree.server_paths.items()),
        tree.distribution_edges,
        tree.return_paths,
        tree.bandwidth_cost,
        tree.compute_cost,
    )


class TestBackendIdentity:
    """Production CSR core ≡ dict oracles, bit for bit, over *sequences*.

    Sequences matter: each admitted request mutates residual capacities,
    so later requests exercise the epoch-keyed residual/weighted caches
    and the flat workspaces rebuilt per epoch.  A single diverging
    tie-break anywhere would cascade into different trees, different
    allocations, and a different admission series — exactly what these
    fingerprints would catch.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_appro_multi_cap_sequence_bit_identical(self, seed):
        network, request_seq = self._instance(seed)
        for request in request_seq:
            try:
                ctx = self._cap_context(network, request)
            except InfeasibleRequestError:
                with pytest.raises(InfeasibleRequestError):
                    appro_multi_cap(network, request, max_servers=2)
                continue
            outcomes = []
            for search in (_search, _search_reference):
                try:
                    outcomes.append(
                        tree_bits(search(ctx, request, 2).tree)
                    )
                except InfeasibleRequestError:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]
            if outcomes[0] is None:
                continue
            tree = appro_multi_cap(network, request, max_servers=2)
            assert tree_bits(tree) == outcomes[0]
            # commit the allocation so later requests see the depleted
            # residuals (and a bumped network epoch)
            try_allocate(network, tree)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", ["cp", "cpk"])
    def test_online_admission_series_bit_identical(
        self, seed, kind, under_dict_dijkstra
    ):
        def series():
            network, request_seq = self._instance(seed)
            if kind == "cp":
                algorithm = OnlineCP(network)
            else:
                algorithm = OnlineCPK(network, max_servers=2)
            out = []
            for request in request_seq:
                decision = algorithm.process(request)
                out.append((
                    decision.admitted,
                    decision.reason,
                    None if decision.tree is None
                    else tree_bits(decision.tree),
                ))
            return out
        assert series() == under_dict_dijkstra(series)

    @staticmethod
    def _cap_context(network, request):
        """The cached context ``appro_multi_cap`` searches for ``request``."""
        cache = network.residual_path_cache(min_bandwidth=request.bandwidth)
        eligible = network.feasible_servers(request.compute_demand)
        if not eligible:
            raise InfeasibleRequestError("no eligible server")
        return build_context(
            graph=cache.graph,
            source=request.source,
            destinations=sorted(request.destinations, key=repr),
            servers=eligible,
            chain_cost={
                v: network.chain_cost(v, request.compute_demand)
                for v in eligible
            },
            bandwidth=request.bandwidth,
            cache=cache,
        )

    @staticmethod
    def _instance(seed):
        """A fresh network plus a short request sequence for one seed."""
        graph, _ = waxman_graph(16, alpha=0.5, beta=0.5, seed=seed)
        network = build_sdn(graph, seed=seed, server_fraction=0.3)
        request_seq = generate_workload(
            graph, count=5, dmax_ratio=0.25, seed=seed + 10_000
        )
        return network, request_seq


class TestApproximationBound:
    """Theorem 1: cost(Appro_Multi) ≤ 2K · optimum on the auxiliary graph."""

    @pytest.mark.parametrize("seed", range(0, 50, 4))
    def test_within_2k_of_exact_optimum(self, seed):
        k = 2
        network, request = make_instance(seed, nodes=12)
        try:
            tree = appro_multi(network, request, max_servers=k)
        except InfeasibleRequestError:
            return
        exact_cost, _ = optimal_auxiliary_cost(
            network, request, max_servers=k
        )
        assert tree.total_cost <= 2 * k * exact_cost + 1e-6
