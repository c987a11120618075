#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Runs every workload untraced and traced, for one second each, the sampling
workloads at 2048 frames, and checks that the result line has exactly the
contract's keys, that outputs are correct, and that every metric named in
BENCHMARK.json is present with its unit. theory-oracle has no frame count
and runs at full size, so the whole check takes about a minute and a half.

Usage (from the repository root): python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY_FRAMES = 2048


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace),
                    "--frames", str(TINY_FRAMES)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                names = set(got) | set(expected[trace])
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(k for k in names if got.get(k) != expected[trace].get(k))}")
            print(f"{label}: attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(got)}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
