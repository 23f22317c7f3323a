#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload oracle-paper --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  ``all`` runs every workload, each in a
fresh process.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def table_lines(metrics: dict, units: dict) -> list[str]:
    return [f"  {name:<30} {metrics[name]:>16.6g} {units[name]}" for name in units]


def ladder_cell(step) -> str:
    flags = ("B" if step.backlog else "") + ("" if step.meets_slo else "x")
    return f"{step.rate}:{step.p99_ms:.1f}{flags}"


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    workloads.OUT.mkdir(exist_ok=True)
    out = workloads.RUNNERS[args.workload](
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    checks, metrics = out["checks"], out["metrics"]
    if args.trace:
        # Layers the workload bypasses report 0.
        units = PER_LAYER
        metrics = {name: metrics.get(name, 0.0) for name in units}
    else:
        units = END_TO_END
        missing = sorted(set(units) - set(metrics))
        checks.check(not missing, f"metrics not reported: {missing}")
    for name in units:
        value = float(metrics.get(name, 0.0))
        checks.check(math.isfinite(value), f"{name} is not finite")
        metrics[name] = value if math.isfinite(value) else 0.0
    failed = len(checks.failures)
    print(f"{args.workload} (seed {args.seed}, trace {args.trace}):")
    if args.trace:
        print(f"  {'span':<30} {'calls':>8} {'total_s':>12} {'self_s':>12}")
        for name, row in out["table"].items():
            print(f"  {name:<30} {row['calls']:>8} {row['total_s']:>12.6f} {row['self_s']:>12.6f}")
        if metrics["trace.build_s"]:
            print(f"  spans cover {metrics['trace.coverage']:.2%} of the traced build_s; "
                  f"tracing overhead {metrics['trace.overhead_s']:+.4f} s")
    if out.get("ladder"):
        print("  serve ladder, rate:p99_ms (B: backlog grew, x: misses the SLO)")
        print("   " + " ".join(ladder_cell(st) for st in out["ladder"]))
    print("\n".join(table_lines(metrics, units)))
    print(f"  {'failed_frac':<30} {failed / checks.attempted:>16.6g} ratio")
    for what in checks.failures:
        print(f"  FAILED: {what}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checks.attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 and not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(lines[-1])
        status = status or proc.returncode
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = val
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no repro sources under {ROOT / 'src'}\n")
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
