#!/usr/bin/env python3
"""Repeat the benchmark and report its run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--fixed-seed] [--dump FILE]
                                    [--from-dump FILE]

Without ``--fixed-seed``, every workload runs in two sets of ten
processes, each run with its own seed (2001 upward), as the benchmark
harness runs it: ``run.py --workload W --seed S --seconds <run_seconds>
--trace 0``.  With ``--fixed-seed``, the ``BENCHMARK.json`` command runs
exactly as written (every workload, default seed) in two sets of ten; the
report then also checks that the deterministic metrics and the witnesses
(decision digest, rejections, departures) are identical in every run, and
the exit code is 1 when they are not.

For every workload, end-to-end metric and set the report gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.  Timings are given three
ways side by side: the gated figure, unscaled CPU time and unscaled
wall-clock time.  The spread of each metric is compared with a third of
its bound in ``BENCHMARK.json``, and the drift of set 2's median from set
1's with the bound itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

SETS = 2
RUNS = 10
FIRST_SEED = 2001

#: Metrics that a seed fixes: identical in every run at one seed.
DETERMINISTIC = ("admission_ratio", "cost_per_admitted", "success_rate")


def _spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def _run(command: List[str]) -> Dict[str, Any]:
    """One benchmark process; returns the per-workload detail it printed."""
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=1800
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{' '.join(command)} failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    if not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{' '.join(command)}: a correctness check failed")
    return json.loads(lines[-2])["workloads"]


def collect(
    spec: Dict[str, Any], fixed_seed: bool, dump: Optional[Path]
) -> List[Dict[str, Any]]:
    """Makes every run; one record per workload and run.

    Each record is also appended to ``dump`` as soon as it is made.
    """
    names = [workload["name"] for workload in spec["workloads"]]
    records: List[Dict[str, Any]] = []
    if dump:
        dump.write_text("")
    for set_index in range(1, SETS + 1):
        for run in range(RUNS):
            if fixed_seed:
                details = _run(spec["command"])
                made = [
                    {"workload": name, "set": set_index, "seed": None,
                     "detail": details[name]}
                    for name in names
                ]
            else:
                seed = FIRST_SEED + (set_index - 1) * RUNS + run
                made = []
                for name in names:
                    details = _run(spec["command"] + [
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", "0",
                    ])
                    made.append({"workload": name, "set": set_index,
                                 "seed": seed, "detail": details[name]})
            records += made
            if dump:
                with open(dump, "a", encoding="utf-8") as handle:
                    for record in made:
                        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return records


def _row(runs: List[Dict], metric: str) -> Tuple[Dict[str, float], str]:
    """Gated spread of one metric over one set, plus its table cells."""
    gated = _spread([r["detail"]["metrics"][metric] for r in runs])
    cells = (
        f"{gated['median']:.6g} | {gated['q1']:.6g} | {gated['q3']:.6g} "
        f"| {gated['spread']:.2%}"
    )
    for clock in ("cpu", "wall"):
        if metric in runs[0]["detail"]["unscaled"][clock]:
            unscaled = _spread(
                [r["detail"]["unscaled"][clock][metric] for r in runs]
            )
            cells += f" | {unscaled['median']:.6g} | {unscaled['spread']:.2%}"
        else:
            cells += " | - | -"
    return gated, cells


def report(
    spec: Dict[str, Any], records: List[Dict[str, Any]], fixed_seed: bool
) -> Tuple[List[str], bool]:
    """The report's lines, and whether the determinism check held."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = sorted({r["seed"] for r in records if r["seed"] is not None})
    lines = [
        f"{SETS} sets of {RUNS} runs per workload, "
        + ("the BENCHMARK.json command as written (default seed)."
           if fixed_seed else f"seeds {seeds[0]}..{seeds[-1]}."),
        "spread = (q3 - q1) / median, target below bound / 3; drift = how "
        "much worse set 2's median is than set 1's, limit: bound.",
        "",
    ]
    worst = 0.0
    identical = True
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in records if r["workload"] == workload]
        sets = [[r for r in mine if r["set"] == index]
                for index in range(1, SETS + 1)]
        lines += [f"## {workload}", ""]
        if fixed_seed:
            outputs = {
                json.dumps(
                    [r["detail"]["metrics"][m] for m in DETERMINISTIC]
                    + [r["detail"]["witnesses"]], sort_keys=True,
                )
                for r in mine
            }
            identical = identical and len(outputs) == 1
            lines += [
                f"Deterministic metrics and witnesses identical in all "
                f"{len(mine)} runs: {'yes' if len(outputs) == 1 else 'NO'} "
                f"(digest {mine[0]['detail']['witnesses'].get('digest', '-')})",
                "",
            ]
        lines += [
            "| metric | bound | set | median | q1 | q3 | spread "
            "| cpu median | cpu spread | wall median | wall spread | drift |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for name, spec_metric in metrics.items():
            bound = spec_metric["bound"]
            medians = []
            for index, runs in enumerate(sets, start=1):
                gated, cells = _row(runs, name)
                medians.append(gated["median"])
                if name != "setup_s":
                    worst = max(worst, gated["spread"] / bound)
                drift = ""
                if index == len(sets) and len(sets) > 1:
                    change = (medians[-1] - medians[0]) / medians[0]
                    if spec_metric["better"] == "higher":
                        change = -change
                    drift = f"{change:+.2%}"
                    worst = max(worst, change / bound)
                lines.append(f"| {name} | {bound} | {index} | {cells} | {drift} |")
        lines.append("")
    lines.append(
        "Largest spread (setup_s excluded) or drift as a share of its "
        f"bound: {worst:.2f}"
    )
    return lines, identical


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--fixed-seed", action="store_true",
        help="run the BENCHMARK.json command as written, at its default seed",
    )
    parser.add_argument(
        "--dump", type=Path, help="write every run's figures here (JSON lines)"
    )
    parser.add_argument(
        "--from-dump", type=Path,
        help="report on the runs of an earlier --dump instead of running",
    )
    args = parser.parse_args()

    if args.from_dump:
        records = [
            json.loads(line)
            for line in args.from_dump.read_text().splitlines()
        ]
    else:
        records = collect(spec, args.fixed_seed, args.dump)
    lines, identical = report(spec, records, args.fixed_seed)
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
