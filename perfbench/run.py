#!/usr/bin/env python3
"""End-to-end benchmark of ``Online_CP`` and ``Appro_Multi``.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Workloads (see ``workloads.py`` for why each was chosen):

- ``cp_geant_churn``: ``Online_CP`` on GÉANT, Poisson rate 5, mean
  holding 40, flow-rule controller attached;
- ``cp_geant_overload``: the same at rate 100, about 10x what GÉANT holds;
- ``appro_gtitm100``: ``Appro_Multi`` with K = 3 on a 100-node GT-ITM
  network with 10 servers, uncapacitated.

A run draws every request from ``--seed`` before timing starts, times each
decision on its own, and checks every output outside the timed regions.
The number of timed requests is fixed by the workload (about 20 s of work
at the reference kernel's nominal speed, never by how fast the host
happens to be), so a seed always yields the same decisions.  ``--seconds``
is accepted, because the benchmark harness passes ``BENCHMARK.json``'s
``run_seconds``, and changes nothing.  Timings are the thread's CPU time,
scaled to the reference kernel's nominal speed (``speed.py``; the p99 by
the square root of that factor, see ``end_to_end``).  The unscaled
wall-clock and CPU figures, and the process's first (cold) set-up, are
printed beside the gated ones as diagnostics.

With ``--trace 1`` the run repeats the timed phase with span wrappers
installed around each layer (``layers.py``), checks that the traced pass
decided exactly as the untraced one, checks replay parity (the digest of
the replayed arrivals equals that of a run straight through the stream
generator), prints the per-layer table sorted by share, writes the spans
to ``.perfbench/`` and reports the per-layer metrics.  With ``--trace 0``
it reports the end-to-end metrics.

``--workload all`` (the default) runs each workload in a child process of
its own, so that ``peak_rss_mb``, the process's peak resident set, and the
heap each workload starts from are its own, as in a one-workload run; the
result lines are merged, with each metric name prefixed by its workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 20170605  # ICDCS 2017

#: Time limit of one workload's child process under ``--workload all``.
CHILD_TIMEOUT_S = 900

#: Set-up repetitions per run, in batches bracketed by the kernel;
#: ``setup_s`` is the median of all of them.  One set-up takes a few ms,
#: so many are needed for a steady median.
SETUP_BATCHES = 10
SETUP_BATCH_REPS = 20

#: Exceptions reported in full per run (the rest are only counted).
_MAX_REPORTED = 5


def _load_program() -> None:
    """Put ``src/`` on the path; refuse to run without the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program found under {SRC}")
    sys.path.insert(0, str(SRC))


class PassResult:
    """Everything one timed pass over a workload produced."""

    def __init__(self) -> None:
        #: Per request: wall time, CPU time, and CPU time scaled by the gauge.
        self.raw: List[float] = []
        self.cpu: List[float] = []
        self.scaled: List[float] = []
        #: Per set-up: wall time, CPU time, and scaled CPU time.
        self.setup_raw: List[float] = []
        self.setup_cpu: List[float] = []
        self.setup_scaled: List[float] = []
        self.admitted = 0
        self.decided = 0
        self.cost = 0.0
        self.failed = 0
        self.errors: List[str] = []
        self.witnesses: Dict[str, Any] = {}


def timed_pass(
    workload: Any,
    seed: int,
    count: int,
    gauge: Any,
    setup_batches: int,
    recorder: Any = None,
) -> Tuple[PassResult, Any]:
    """Set up, draw, then decide ``count`` requests one by one.

    Returns the pass result and the final workload state (for the
    end-of-run checks).
    """
    result = PassResult()
    clock, cpu_clock = time.perf_counter, time.thread_time

    state = None
    batches: List[List[float]] = []
    kernels = [gauge.measure()]
    for _ in range(setup_batches):
        batch: List[float] = []
        for _ in range(SETUP_BATCH_REPS):
            start = clock()
            start_cpu = cpu_clock()
            state = workload.setup()
            batch.append(cpu_clock() - start_cpu)
            result.setup_raw.append(clock() - start)
        batches.append(batch)
        kernels.append(gauge.measure())
    for batch, factor in zip(batches, gauge.factors(kernels)):
        result.setup_cpu.extend(batch)
        result.setup_scaled.extend(value * factor for value in batch)

    items = workload.draw(state, seed, count)
    step, check = workload.step, workload.check
    slices: List[Tuple[List[float], List[float]]] = []
    kernels = [gauge.measure()]
    for first in range(0, count, workload.slice_requests):
        slice_wall: List[float] = []
        slice_cpu: List[float] = []
        for index in range(first, min(first + workload.slice_requests, count)):
            item = items[index]
            if recorder is not None:
                recorder.request_id = index
            start = clock()
            start_cpu = cpu_clock()
            try:
                outcome = step(state, item)
            except Exception as exc:  # a failed request is counted, not fatal
                outcome = exc
            slice_cpu.append(cpu_clock() - start_cpu)
            slice_wall.append(clock() - start)
            if isinstance(outcome, Exception):
                result.failed += 1
                if len(result.errors) < _MAX_REPORTED:
                    result.errors.append(
                        f"request {index}: "
                        + "".join(traceback.format_exception(outcome))
                    )
                continue
            result.decided += 1
            try:
                check(state, item, outcome)
            except AssertionError as exc:
                result.failed += 1
                if len(result.errors) < _MAX_REPORTED:
                    result.errors.append(f"request {index}: {exc}")
                continue
            admitted, tree = outcome
            if admitted:
                result.admitted += 1
                result.cost += tree.total_cost
        slices.append((slice_wall, slice_cpu))
        kernels.append(gauge.measure())
    for (slice_wall, slice_cpu), factor in zip(slices, gauge.factors(kernels)):
        result.raw.extend(slice_wall)
        result.cpu.extend(slice_cpu)
        result.scaled.extend(value * factor for value in slice_cpu)
    result.witnesses = workload.witnesses(state)
    return result, state


def _latency_summary(samples: List[float]) -> Tuple[float, float, int]:
    """Median and p99 in ms, and how many samples lie beyond the p99."""
    p99 = statistics.quantiles(samples, n=100, method="inclusive")[98]
    beyond = sum(1 for value in samples if value > p99)
    return statistics.median(samples) * 1e3, p99 * 1e3, beyond


def end_to_end(result: PassResult, count: int) -> Dict[str, Tuple[float, str]]:
    """The gated metrics of one untraced pass.

    Throughput, p50 and set-up time are scaled CPU time.  The slowest
    requests follow the host's speed levels only about half as strongly as
    the kernel does: over repeated runs, scaling the p99 fully doubled its
    spread in calm periods and leaving it unscaled let it swing in busy
    ones.  The p99 is therefore scaled by the square root of the run's mean
    factor, which kept it steady in both (see ``STEADINESS.md``).
    """
    p50 = _latency_summary(result.scaled)[0]
    mean_factor = sum(result.scaled) / sum(result.cpu)
    p99 = _latency_summary(result.cpu)[1] * math.sqrt(mean_factor)
    return {
        "throughput_rps": (count / sum(result.scaled), "req/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "setup_s": (statistics.median(result.setup_scaled), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
        "admission_ratio": (
            result.admitted / result.decided if result.decided else 0.0, "1"),
        "cost_per_admitted": (
            result.cost / result.admitted if result.admitted else 0.0, "cost"),
        "success_rate": ((count - result.failed) / count, "1"),
    }


def unscaled_figures(result: PassResult, count: int) -> Dict[str, Any]:
    """The same timings unscaled, as wall and as CPU time (never gated)."""
    figures: Dict[str, Any] = {}
    for clock, samples, setup in (
        ("wall", result.raw, result.setup_raw),
        ("cpu", result.cpu, result.setup_cpu),
    ):
        p50, p99, _ = _latency_summary(samples)
        figures[clock] = {
            "throughput_rps": count / sum(samples),
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
            "setup_s": statistics.median(setup),
            "cold_setup_s": setup[0],
        }
    # The process's first set-up also pays for lazily built state (cached
    # topologies, first-call initialisation) that ``setup_s``, a median of
    # warm set-ups, leaves out.
    figures["cold_setup_s"] = result.setup_scaled[0]
    figures["timed_wall_s"] = sum(result.raw)
    figures["p99_samples_beyond"] = _latency_summary(result.cpu)[2]
    return figures


def provenance(seed: int) -> Dict[str, Any]:
    """Where and on what this result was measured."""
    sha: Optional[str] = None
    dirty: Optional[bool] = None
    # Never look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_affinity": affinity,
        "seed": seed,
    }


def run_workload(
    workload: Any, seed: int, trace: bool, gauge: Any
) -> Dict[str, Any]:
    """One workload: untraced pass, checks, and optionally a traced pass."""
    from layers import LayerTracer, SpanRecorder, layer_metrics, render_table

    count = workload.requests
    result, state = timed_pass(workload, seed, count, gauge, SETUP_BATCHES)
    errors = list(result.errors)
    errors.extend(workload.finish(state, seed, count))
    del state
    metrics = end_to_end(result, count)
    report: Dict[str, Any] = {
        "requests": count,
        "failed": result.failed,
        "metrics": metrics,
        "unscaled": unscaled_figures(result, count),
        "witnesses": result.witnesses,
        "errors": errors,
    }
    if not trace:
        return report

    recorder = SpanRecorder()
    with LayerTracer(recorder):
        traced, _ = timed_pass(
            workload, seed, count, gauge, setup_batches=1, recorder=recorder
        )
    errors.extend(traced.errors)
    errors.extend(workload.replay_parity(seed, count, result.witnesses))
    if (traced.admitted, traced.cost, traced.witnesses) != (
        result.admitted, result.cost, result.witnesses
    ):
        errors.append("traced pass decided differently from the untraced pass")
    traced_wall = sum(traced.raw)
    layers, layer_errors = layer_metrics(
        recorder,
        requests=count,
        admitted=traced.admitted,
        departed=traced.witnesses.get("departed", 0),
        traced_wall_s=traced_wall,
        time_scale=sum(traced.scaled) / traced_wall,
        overhead_ratio=sum(result.scaled) / sum(traced.scaled),
    )
    errors.extend(layer_errors)
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"spans-{workload.name}-{seed}.csv.gz"
    recorder.write_csv(spans_path)
    report["layers"] = layers
    report["layer_table"] = render_table(layers)
    report["spans"] = {"count": len(recorder.start), "path": str(spans_path)}
    return report


def _print_workload(name: str, why: str, report: Dict[str, Any]) -> None:
    print(f"== {name}: {report['requests']} timed requests ({why})")
    unscaled = report["unscaled"]
    for metric, (value, unit) in report["metrics"].items():
        line = f"  {metric:<18} {value:>14.6f} {unit:<6}"
        if metric in unscaled["wall"]:
            line += (
                f" (unscaled: wall {unscaled['wall'][metric]:.6f}, "
                f"cpu {unscaled['cpu'][metric]:.6f})"
            )
        print(line)
    print(
        f"  cold set-up (first of the process): "
        f"{unscaled['cold_setup_s']:.6f} s (unscaled: wall "
        f"{unscaled['wall']['cold_setup_s']:.6f}, "
        f"cpu {unscaled['cpu']['cold_setup_s']:.6f})"
    )
    print(f"  p99 samples beyond: {unscaled['p99_samples_beyond']}")
    for key, value in report["witnesses"].items():
        print(f"  {key}: {value}")
    if "layer_table" in report:
        print("  layer table (traced pass, sorted by self-time share):")
        for line in report["layer_table"]:
            print(line)
        overhead = report["layers"]["trace.overhead_ratio"][0]
        print(f"  tracing overhead: traced/untraced throughput = {overhead:.4f}")
        print(f"  spans: {report['spans']['count']} -> {report['spans']['path']}")
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")


def run_here(name: str, seed: int, trace: bool) -> int:
    """Runs one workload in this process and prints its result."""
    from speed import SpeedGauge
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    gauge = SpeedGauge()
    report = run_workload(workload, seed, trace, gauge)
    _print_workload(name, workload.why, report)
    print(json.dumps({
        "provenance": provenance(seed),
        "workloads": {
            name: {
                "requests": report["requests"],
                "kernel": gauge.summary(),
                "metrics": {k: v for k, (v, _) in report["metrics"].items()},
                "unscaled": report["unscaled"],
                "witnesses": report["witnesses"],
            }
        },
    }, sort_keys=True))
    key = "layers" if trace else "metrics"
    correct = report["failed"] == 0 and not report["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["requests"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in report[key].items()
        },
    }))
    return 0 if correct else 1


def run_children(names: List[str], seed: int, trace: bool) -> int:
    """Runs each workload in a child process and merges their results."""
    details: Dict[str, Any] = {}
    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = child.stdout.splitlines()
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        except (IndexError, ValueError):
            print(child.stdout, end="")
            raise SystemExit(
                f"perfbench: {name} ended without a result "
                f"(exit code {child.returncode})"
            )
        print("\n".join(lines[:-2]), flush=True)
        details[name] = detail["workloads"][name]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and child.returncode == 0
    print(json.dumps(
        {"provenance": provenance(seed), "workloads": details},
        sort_keys=True,
    ))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=int,
        help="accepted and ignored: run sizes are fixed per workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_children(list(WORKLOADS), args.seed, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {['all', *WORKLOADS]}"
        )
    return run_here(args.workload, args.seed, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
