"""Outside-in layer trace: span wrappers installed from the benchmark.

The traced run wraps the public functions of each layer at module or
class attribute level; the program's code is not touched.  A name that a
module imported with ``from ... import`` is rebound in every ``repro``
module that holds it (``repro.core.online_cp.kmb_steiner_tree_cached``,
``repro.graph.spcache.dijkstra_csr`` and so on), and every binding is
restored afterwards.

Each span records its name, start, end, parent span id and the id of the
request it belongs to.  Spans are kept in flat arrays in memory and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.  Summed over every span, self time equals
the time of the outermost spans, so the layers' self times plus the
``unattributed`` remainder (benchmark loop and timer overhead) add up to
the traced wall time exactly.

Per call the layer table reports ``calls_per_req``, ``ms_per_req``
(inclusive), ``self_ms_per_req`` and ``share`` (self time over traced
wall time).  The self time of ``stream.engine.process_one`` is the
engine's own bookkeeping (``engine.self``); the self time of
``core.online_cp.OnlineCP.process`` is the candidate loop's own time
(``online_cp.self``).
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.cost_model import CostModel
from repro.core.online_cp import OnlineCP
from repro.graph.spcache import ShortestPathCache, VersionedCacheRegistry
from repro.graph.tree import RootedTree
from repro.network.controller import Controller
from repro.stream.engine import StreamEngine

_MISSING = object()

# ``repro.core`` and ``repro.graph`` re-export functions under some of
# their modules' names, so the modules are fetched by full name.
admission, appro_multi, auxiliary, fasteval, csr, steiner = (
    importlib.import_module(f"repro.{name}")
    for name in (
        "core.admission",
        "core.appro_multi",
        "core.auxiliary",
        "core.fasteval",
        "graph.csr",
        "graph.steiner",
    )
)


class SpanRecorder:
    """In-memory span store plus the counters behind the layer ratios."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self._stack: List[int] = []
        #: Id of the request being decided (set by the harness).
        self.request_id = -1
        self.counts: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Optional[Callable[[tuple], tuple]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        nid = self.name_id(name)
        stack = self._stack
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, childs = self.start, self.end, self.child
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                args = on_call(args)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            childs.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                finished = clock()
                ends[index] = finished
                stack.pop()
                parent = parents[index]
                if parent >= 0:
                    childs[parent] += finished - starts[index]
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- checks and aggregation -----------------------------------------
    def check_nesting(self) -> List[str]:
        """Every span lies inside its parent and shares its request id."""
        errors: List[str] = []
        starts, ends = self.start, self.end
        for index, parent in enumerate(self.parent):
            if ends[index] < starts[index]:
                errors.append(f"span {index} ends before it starts")
            if parent < 0:
                continue
            if not (
                starts[parent] <= starts[index] and ends[index] <= ends[parent]
            ) or self.request[parent] != self.request[index]:
                errors.append(f"span {index} is not nested in span {parent}")
            if len(errors) > 10:
                break
        return errors

    def totals(self) -> Dict[str, List[float]]:
        """Per span name: ``[calls, inclusive seconds, self seconds]``."""
        sums = [[0, 0.0, 0.0] for _ in self.names]
        starts, ends, childs = self.start, self.end, self.child
        for index, nid in enumerate(self.name):
            duration = ends[index] - starts[index]
            row = sums[nid]
            row[0] += 1
            row[1] += duration
            row[2] += duration - childs[index]
        return {name: sums[nid] for nid, name in enumerate(self.names)}

    def write_csv(self, path: Path) -> None:
        """Dump every span as gzipped CSV; times in µs from the first span.

        The ``name`` column holds an index into the ``# names:`` header.
        """
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write("# names: " + " ".join(self.names) + "\n")
            handle.write("id,parent,request,name,start_us,end_us\n")
            for index, nid in enumerate(self.name):
                handle.write(
                    f"{index},{self.parent[index]},{self.request[index]},{nid},"
                    f"{(self.start[index] - origin) * 1e6:.1f},"
                    f"{(self.end[index] - origin) * 1e6:.1f}\n"
                )


class LayerTracer:
    """Installs the layer wrappers for the life of a ``with`` block."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------
    def _method(self, owner: type, attr: str, name: str, **hooks: Any) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, self.recorder.wrap(name, original, **hooks))

    def _function(self, module: Any, attr: str, name: str, **hooks: Any) -> None:
        original = getattr(module, attr)
        wrapper = self.recorder.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if vars(mod).get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def __enter__(self) -> "LayerTracer":
        rec = self.recorder

        def count_builder(args: tuple) -> tuple:
            registry, key, version, builder = args

            def counted() -> Any:
                rec.count("registry.builds")
                return builder()

            return registry, key, version, counted

        def count_allocation(result: Any) -> None:
            if result is None:
                rec.count("allocation.failed")

        def count_batch(result: Any) -> None:
            rec.count("dijkstra.runs", len(result) - 1)

        def count_none(result: Any) -> None:
            if result is None:
                rec.count("evaluate.none")

        def count_combinations(result: Any) -> None:
            rec.count("appro.evaluated", result.combinations_evaluated)
            rec.count("appro.pruned", result.combinations_pruned)

        self._method(StreamEngine, "process_one", "stream.engine.process_one")
        self._method(OnlineCP, "process", "core.online_cp.OnlineCP.process")
        self._method(CostModel, "weight_graph", "core.cost_model.weight_graph")
        self._method(
            VersionedCacheRegistry,
            "get",
            "graph.spcache.VersionedCacheRegistry.get",
            on_call=count_builder,
        )
        self._method(
            ShortestPathCache, "tree", "graph.spcache.ShortestPathCache.tree"
        )
        self._function(csr, "compile_csr", "graph.csr.compile_csr")
        # One span name for both entry points; a batch counts one run per
        # distinct source (the span itself counts one).
        self._function(csr, "dijkstra_csr", "graph.csr.dijkstra")
        self._function(
            csr, "dijkstra_many", "graph.csr.dijkstra", on_result=count_batch
        )
        self._function(
            steiner,
            "kmb_steiner_tree_cached",
            "graph.steiner.kmb_steiner_tree_cached",
        )
        self._method(RootedTree, "__init__", "graph.tree.RootedTree.init")
        self._method(RootedTree, "lca_of_set", "graph.tree.RootedTree.lca_of_set")
        self._method(
            RootedTree, "path_between", "graph.tree.RootedTree.path_between"
        )
        self._function(
            admission,
            "try_allocate",
            "core.admission.try_allocate",
            on_result=count_allocation,
        )
        self._function(admission, "release_tree", "core.admission.release_tree")
        self._method(
            Controller, "install_tree", "network.controller.Controller.install_tree"
        )
        self._method(
            Controller, "uninstall", "network.controller.Controller.uninstall"
        )
        self._function(
            appro_multi,
            "appro_multi_detailed",
            "core.appro_multi.appro_multi_detailed",
            on_result=count_combinations,
        )
        self._function(auxiliary, "build_context", "core.auxiliary.build_context")
        self._method(
            fasteval.CSRCombinationEvaluator,
            "lower_bound",
            "core.fasteval.lower_bound",
        )
        self._method(
            fasteval.CSRCombinationEvaluator,
            "evaluate",
            "core.fasteval.evaluate",
            on_result=count_none,
        )
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


#: Every span name, in the order the layer table and BENCHMARK.json use.
SPAN_NAMES = (
    "stream.engine.process_one",
    "core.online_cp.OnlineCP.process",
    "core.cost_model.weight_graph",
    "graph.spcache.VersionedCacheRegistry.get",
    "graph.spcache.ShortestPathCache.tree",
    "graph.csr.compile_csr",
    "graph.csr.dijkstra",
    "graph.steiner.kmb_steiner_tree_cached",
    "graph.tree.RootedTree.init",
    "graph.tree.RootedTree.lca_of_set",
    "graph.tree.RootedTree.path_between",
    "core.admission.try_allocate",
    "core.admission.release_tree",
    "network.controller.Controller.install_tree",
    "network.controller.Controller.uninstall",
    "core.appro_multi.appro_multi_detailed",
    "core.auxiliary.build_context",
    "core.fasteval.lower_bound",
    "core.fasteval.evaluate",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    requests: int,
    admitted: int,
    departed: int,
    traced_wall_s: float,
    time_scale: float,
    overhead_ratio: float,
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics (value, unit) and the layer-sum check's errors.

    ``time_scale`` converts traced wall seconds to the gauge's nominal
    speed; shares and counts are unaffected by it.
    """
    totals = recorder.totals()
    metrics: Dict[str, Tuple[float, str]] = {}
    attributed = 0.0
    for name in SPAN_NAMES:
        calls, inclusive, self_s = totals.get(name, (0, 0.0, 0.0))
        attributed += self_s
        metrics[f"{name}.calls_per_req"] = (calls / requests, "count")
        metrics[f"{name}.ms_per_req"] = (
            inclusive * time_scale * 1e3 / requests, "ms")
        metrics[f"{name}.self_ms_per_req"] = (
            self_s * time_scale * 1e3 / requests, "ms")
        metrics[f"{name}.share"] = (_ratio(self_s, traced_wall_s), "1")
    unattributed = traced_wall_s - attributed

    errors: List[str] = []
    unknown = set(totals) - set(SPAN_NAMES)
    if unknown:
        errors.append(f"spans outside the layer list: {sorted(unknown)}")
    if unattributed < -1e-9 * max(1.0, traced_wall_s):
        errors.append(
            f"layer self times {attributed:.6f}s exceed traced wall "
            f"{traced_wall_s:.6f}s"
        )
    errors.extend(recorder.check_nesting())

    counts = recorder.counts
    tree_calls = totals.get("graph.spcache.ShortestPathCache.tree", (0,))[0]
    dijkstra_runs = (
        totals.get("graph.csr.dijkstra", (0,))[0] + counts.get("dijkstra.runs", 0)
    )
    get_calls = totals.get("graph.spcache.VersionedCacheRegistry.get", (0,))[0]
    kmb_calls = totals.get("graph.steiner.kmb_steiner_tree_cached", (0,))[0]
    allocations = totals.get("core.admission.try_allocate", (0,))[0]
    evaluations = totals.get(
        "core.fasteval.evaluate", (0,))[0]
    evaluated = counts.get("appro.evaluated", 0)
    pruned = counts.get("appro.pruned", 0)
    metrics["stream.engine.departures_per_req"] = (departed / requests, "count")
    metrics["graph.spcache.registry.hit_ratio"] = (
        1.0 - _ratio(counts.get("registry.builds", 0), get_calls)
        if get_calls else 0.0, "1")
    metrics["graph.spcache.tree.hit_ratio"] = (
        1.0 - _ratio(dijkstra_runs, tree_calls) if tree_calls else 0.0, "1")
    # Online_CP keeps one KMB tree per admitted request.
    metrics["graph.steiner.useful_ratio"] = (
        _ratio(admitted, kmb_calls), "1")
    metrics["core.admission.fail_ratio"] = (
        _ratio(counts.get("allocation.failed", 0), allocations), "1")
    metrics["core.appro_multi.prune_ratio"] = (
        _ratio(pruned, evaluated + pruned), "1")
    metrics["core.fasteval.none_ratio"] = (
        _ratio(counts.get("evaluate.none", 0), evaluations), "1")
    metrics["unattributed.share"] = (_ratio(unattributed, traced_wall_s), "1")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "1")
    return metrics, errors


def render_table(metrics: Dict[str, Tuple[float, str]]) -> List[str]:
    """The layer table, sorted by share (self time over traced wall)."""
    rows = [
        (
            metrics[f"{name}.share"][0],
            name,
            metrics[f"{name}.calls_per_req"][0],
            metrics[f"{name}.ms_per_req"][0],
            metrics[f"{name}.self_ms_per_req"][0],
        )
        for name in SPAN_NAMES
        if metrics[f"{name}.calls_per_req"][0]
    ]
    rows.sort(reverse=True)
    lines = [
        f"  {'layer.call':<52} {'calls/req':>10} {'ms/req':>9} "
        f"{'self ms/req':>11} {'share':>7}"
    ]
    total = 0.0
    for share, name, calls, inclusive, self_ms in rows:
        total += share
        lines.append(
            f"  {name:<52} {calls:>10.3f} {inclusive:>9.4f} "
            f"{self_ms:>11.4f} {share:>7.2%}"
        )
    rest = metrics["unattributed.share"][0]
    lines.append(f"  {'unattributed':<52} {'':>10} {'':>9} {'':>11} {rest:>7.2%}")
    lines.append(f"  {'sum':<52} {'':>10} {'':>9} {'':>11} {total + rest:>7.2%}")
    return lines
