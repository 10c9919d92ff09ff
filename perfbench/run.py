"""Benchmark of spherekd, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare-seed --seed 0 --seconds 30 --trace 0

Each run starts fresh worker processes: three that only set up (their
median is `setup_s`) and one that sets up, measures whole rounds of the
workload for `--seconds` and checks the outputs. With `--trace 1` the
measuring process runs one untraced round and then traced rounds, and the
per-layer figures are reported instead of the end-to-end ones. The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUPS = 3
DEADLINE_S = 175  # the whole run, set-ups included
END_TO_END = {"setup_s": "s", "verb_s": "s", "evaluate_s": "s", "peak_rss_mb": "MB"}
PHASES = ("teacher_train_s", "student_none_s", "student_l2_s", "student_angular_s")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".p50", ".p90")):
        return "ms"
    if name == "checkpoint.bytes":
        return "B"
    return "count"


def _worker(mode: str, spec: dict, work: Path, deadline: float) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps({**spec, "work": str(work)}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [spec["src"], env.get("PYTHONPATH")]))
    # OpenBLAS's own default, fixed so that a caller's setting cannot change the
    # figures: with one thread, peak memory on openset-gallery depends on the seed.
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    with open(work / "worker.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), str(result_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed with code {proc.returncode}; see {work / 'worker.log'}")
    return json.loads(result_path.read_text())


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path, overrides=()) -> tuple[dict, dict]:
    """Set up and measure one workload; returns the result line and details."""
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "overrides": list(overrides),
        "src": str(root / "src"),
    }
    setups = [_worker("setup", spec, work / f"setup{k}", deadline) for k in range(SETUPS)]
    failures = []
    if "checkpoints" in setups[0]:
        if any(s["digests"] != setups[0]["digests"] for s in setups[1:]):
            failures.append("set-up checkpoints differ between processes")
        spec["checkpoints"] = setups[0]["checkpoints"]
    measured = _worker("measure", spec, work / "measure", deadline)
    failures += measured["failures"]

    rounds = measured["rounds"]
    untraced = rounds[:1] if trace else rounds
    info = {name: statistics.median(r.get(name, 0.0) for r in untraced) for name in PHASES + ("verb_s",)}
    if trace:
        traced = rounds[1:]
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        metrics.update(measured["steps"])
        metrics["trace.overhead_s"] = statistics.median(r["verb_s"] for r in traced) - info["verb_s"]
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "verb_s": info["verb_s"],
            "evaluate_s": statistics.median(r["evaluate_s"] for r in rounds),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "failures": failures,
        "rounds": len(rounds),
        "phases": info,
        "environment": measured["environment"],
        "setup_s": [s["setup_s"] for s in setups],
    }
    (work / "result.json").write_text(json.dumps({"result": result, "details": details}, indent=1))
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spherekd" / "__init__.py").is_file():
        print("perfbench: no ./src/spherekd here; run from the root of a spherekd checkout", file=sys.stderr)
        return 2
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = details["environment"]
    print(f"# {args.workload} seed {args.seed}: {details['rounds']} rounds, set-ups {details['setup_s']}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in details["phases"].items():
        if value:
            print(f"# median untraced {name} = {value:.4f} s")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    for failure in details["failures"]:
        print(f"# CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
