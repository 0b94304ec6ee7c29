"""Run every workload and print all of its metrics, with steadiness checks.

    python3 bench/report.py --seed 1 --seconds 30

For each workload this runs ``run.py`` once untraced and twice traced,
each in its own process, and prints every end-to-end and per-layer
metric with its unit, plus the operations attempted and failed.  It
exits with code 1 when an output was wrong, when a count metric differs
between the two traced runs, when the share of failed operations
differs between runs, or when a run's metric names differ from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = p.parse_args()
    expected = {0: [m["name"] for m in SPEC["end_to_end"]], 1: [m["name"] for m in SPEC["per_layer"]]}
    problems = []
    for workload in inputs.WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        print(f"== {workload} (seed {args.seed})")
        for trace, res in [(0, plain), (1, traced[0])]:
            if sorted(res["metrics"]) != sorted(expected[trace]):
                problems.append(f"{workload}: trace {trace} metric names differ from BENCHMARK.json")
            for name in expected[trace]:
                m = res["metrics"].get(name, {"value": float("nan"), "unit": "?"})
                print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        for res in [plain] + traced:
            print(f"  attempted {res['attempted']:>6d}  failed {res['failed']:>4d}  correct {res['correct']}")
            if not res["correct"]:
                problems.append(f"{workload}: a run reported wrong outputs")
        shares = {res["failed"] / res["attempted"] for res in [plain] + traced}
        if len(shares) != 1:
            problems.append(f"{workload}: failed share differs between runs: {sorted(shares)}")
        a, b = (t["metrics"] for t in traced)
        for name, m in a.items():
            if m["unit"] in COUNT_UNITS and m["value"] != b[name]["value"]:
                problems.append(f"{workload}: {name} differs: {m['value']} vs {b[name]['value']}")
    for line in problems:
        print(f"PROBLEM: {line}")
    if not problems:
        print("steady: every count repeats between traced runs and every failed share agrees")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
