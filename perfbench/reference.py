"""Regenerate the reference figures of perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/reference.py --seeds 0-9 --seconds 30

For each workload it runs the timed benchmark once per seed and prints, per
end-to-end metric, the median, the quartiles and the spread (distance between
the quartiles as a share of the median). Then it runs the traced benchmark on
the first seed of each workload and prints the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd + ["--seconds", str(seconds), "--trace", str(trace)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    seeds = _seeds(args.seeds)

    print("| workload | metric | median | q1 | q3 | spread | runs | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|")
    traced = {}
    for workload in WORKLOADS:
        results = [_run(workload, s, args.seconds, 0) for s in seeds]
        if not all(r["correct"] for r in results):
            raise SystemExit(f"{workload}: an output check failed")
        counts = f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}"
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            unit = first["unit"]
            print(
                f"| {workload} | {name} | {med:.4g} {unit} | {q1:.4g} | {q3:.4g} | "
                f"{(q3 - q1) / med:.3f} | {len(values)} | {counts} |"
            )
        traced[workload] = _run(workload, seeds[0], args.seconds, 1)

    print()
    print("| per-layer metric | " + " | ".join(traced) + " |")
    print("|---|" + "---|" * len(traced))
    for name, first in next(iter(traced.values()))["metrics"].items():
        cells = [f"{t['metrics'][name]['value']:.4g}" for t in traced.values()]
        print(f"| {name} ({first['unit']}) | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
