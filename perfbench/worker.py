"""One process of the benchmark: a set-up, or a set-up followed by measured rounds.

run.py starts it as

    PYTHONPATH=src python3 perfbench/worker.py setup|measure SPEC.json RESULT.json

SPEC.json holds the workload, seed, seconds, trace flag, work directory,
extra config overrides and, for `openset-gallery`, the set-up checkpoints.
The result is written to RESULT.json. Set-up time runs from the first line of
this file, so it counts the imports.
"""

from time import perf_counter

STARTED = perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spherekd import cli, engine  # noqa: E402
from spherekd.config import RunConfig, apply_overrides  # noqa: E402

import checks  # noqa: E402
from probes import Phases, Tracer, file_digest  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402

BUDGET_S = 140  # no round starts that would end past this, counted from process start
SUBSET = 256  # samples checked against the reference forward pass
ROWS = {
    "teacher": "teacher",
    "self_studied": "student_none",
    "l2": "student_l2",
    "angular": "student_angular",
}


def _sets(overrides) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


def _config(spec, overrides) -> RunConfig:
    return apply_overrides(RunConfig(), [f"seed={spec['seed']}"] + overrides + spec["overrides"])


def run_verb(args) -> tuple[bool, float]:
    """Run one CLI verb in this process; its stdout is kept off ours."""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
    except Exception:
        traceback.print_exc()
        code = None
    return code == 0, perf_counter() - start


def digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): file_digest(p) for p in sorted(root.rglob("*")) if p.is_file()}


def warm_up(spec, work: Path) -> None:
    args = ["compare", "--seeds", str(spec["seed"]), "--parallel", "1", "--out", str(work / "warmup")]
    ok, _ = run_verb(args + _sets(WARMUP + spec["overrides"]))
    if not ok:
        raise RuntimeError("warm-up compare failed")


def setup(spec, work: Path) -> dict:
    warm_up(spec, work)
    result = {}
    workload = WORKLOADS[spec["workload"]]
    if "setup" in workload:
        cfg = _config(spec, workload["setup"] + [f"output_dir={work / 'ckpt'}"])
        teacher, _ = engine.train_teacher(cfg)
        student, _ = engine.train_student(cfg, None)
        result["checkpoints"] = {"teacher": str(teacher), "student": str(student)}
    result["setup_s"] = perf_counter() - STARTED
    if "checkpoints" in result:
        result["digests"] = {k: file_digest(v) for k, v in result["checkpoints"].items()}
    return result


# -- rounds -------------------------------------------------------------------------


def compare_round(spec, work: Path, phases: Phases) -> dict:
    out = work / "compare"
    args = ["compare", "--seeds", str(spec["seed"]), "--parallel", "1", "--out", str(out)]
    ok, wall = run_verb(args + _sets(WORKLOADS["compare-seed"]["overrides"] + spec["overrides"]))
    return {
        "verb_s": wall - phases.probe_s,
        **phases.times,
        "attempted": 1,
        "failed": 0 if ok else 1,
        "teacher_digests": list(phases.teacher_digests),
        "digests": digest_tree(out),
    }


def openset_round(spec, work: Path, phases: Phases) -> dict:
    verb_s, failed = 0.0, 0
    for role, path in spec["checkpoints"].items():
        args = ["evaluate", "--checkpoint", path, "--out", str(work / "eval" / role)]
        ok, wall = run_verb(args + _sets([f"seed={spec['seed']}"] + WORKLOADS["openset-gallery"]["overrides"] + spec["overrides"]))
        verb_s += wall
        failed += 0 if ok else 1
    return {
        "verb_s": verb_s - phases.probe_s,
        **phases.times,
        "attempted": len(spec["checkpoints"]),
        "failed": failed,
        "digests": digest_tree(work / "eval"),
    }


# -- output checks ------------------------------------------------------------------


def _same_across_rounds(rounds) -> list[str]:
    first = rounds[0]["digests"]
    changed = sorted(
        {k for r in rounds[1:] for k in set(first) | set(r["digests"]) if first.get(k) != r["digests"].get(k)}
    )
    return [f"outputs differ between rounds of the same seed: {changed[:5]}"] if changed else []


def inspect_compare(spec):
    def inspect(dataset, vprot, iprot, table):
        return {"vprot": vprot, "iprot": iprot, "images": hashlib.sha256(dataset.images.tobytes()).hexdigest()}

    return inspect


def check_compare(spec, work: Path, rounds, phases: Phases) -> list[str]:
    cfg = _config(spec, WORKLOADS["compare-seed"]["overrides"])
    seed_dir = work / "compare" / f"seed{spec['seed']}"
    failures = _same_across_rounds(rounds)
    for i, r in enumerate(rounds):
        if len(r["teacher_digests"]) != 7 or len(set(r["teacher_digests"])) != 1:
            failures.append(f"round {i}: teacher.ckpt bytes changed during distillation")
    report = json.loads((work / "compare" / "report.json").read_text())
    if report["failures"]:
        failures.append(f"report.json lists failures: {sorted(report['failures'])}")
    if len(phases.evaluations) != len(ROWS):
        return failures + [f"{len(phases.evaluations)} evaluations in the last round, expected {len(ROWS)}"]
    dataset = engine.dataset_from_config(cfg)
    if any(e["images"] != hashlib.sha256(dataset.images.tobytes()).hexdigest() for e in phases.evaluations):
        failures.append("evaluations did not run on the dataset of the configured seed")
    vprot, iprot = phases.evaluations[0]["vprot"], phases.evaluations[0]["iprot"]
    scored = checks.scored_indices(vprot, iprot)
    failures += checks.check_protocols(dataset.labels, cfg.data.num_train_classes, cfg.data.num_distractors, vprot, iprot)
    for row, stem in ROWS.items():
        tensors, _ = checks.read_checkpoint(seed_dir / f"{stem}.ckpt")
        emb = np.zeros((dataset.images.shape[0], tensors["net.head.weight"].shape[1]))
        emb[scored] = checks.reference_embeddings(tensors, dataset.images[scored])
        expected = checks.recompute_metrics(emb, vprot, iprot)
        per_seed = {m: report["rows"][row][m]["per_seed"] for m in ("verification_accuracy", "rank1")}
        program = {m: v.get(str(spec["seed"]), float("nan")) for m, v in per_seed.items()}
        failures += checks.check_metrics(expected, program, f"report row {row}")
        if tensors["classifier.weight"].shape[0] != cfg.data.num_train_classes:
            failures.append(f"{stem}: classifier rows differ from the training classes")
        records = checks.read_records(seed_dir / f"{stem}_metrics.jsonl")
        failures += checks.check_loss_decomposition(records, stem)
        failures += checks.check_loss_decreases(records, stem)
    return failures


def inspect_openset(spec):
    cfg = _config(spec, WORKLOADS["openset-gallery"]["overrides"])

    def inspect(dataset, vprot, iprot, table):
        scored = checks.scored_indices(vprot, iprot)
        subset = np.unique(scored[np.linspace(0, len(scored) - 1, SUBSET).astype(int)])
        labels = dataset.labels
        return {
            "recomputed": checks.recompute_metrics(table, vprot, iprot),
            "protocols": checks.check_protocols(labels, cfg.data.num_train_classes, cfg.data.num_distractors, vprot, iprot),
            "rows": table[subset],
            "images": dataset.images[subset],
        }

    return inspect


def check_openset(spec, work: Path, rounds, phases: Phases) -> list[str]:
    cfg = _config(spec, WORKLOADS["openset-gallery"]["overrides"])
    failures = _same_across_rounds(rounds)
    if len(phases.evaluations) != len(spec["checkpoints"]):
        return failures + [f"{len(phases.evaluations)} evaluations in the last round"]
    for ev, (role, path) in zip(phases.evaluations, spec["checkpoints"].items()):
        tensors, _ = checks.read_checkpoint(path)
        failures += checks.check_embeddings(tensors, ev["images"], ev["rows"], role)
        program = json.loads((work / "eval" / role / "evaluation.json").read_text())
        failures += checks.check_metrics(ev["recomputed"], program, role, thr_tol=1e-12)
        failures += ev["protocols"]
        if tensors["classifier.weight"].shape[0] != cfg.data.num_train_classes:
            failures.append(f"{role}: classifier rows differ from the training classes")
    return failures


ROUND = {"compare-seed": compare_round, "openset-gallery": openset_round}
INSPECT = {"compare-seed": inspect_compare, "openset-gallery": inspect_openset}
CHECK = {"compare-seed": check_compare, "openset-gallery": check_openset}


# -- measurement --------------------------------------------------------------------


def blas_threads() -> int:
    """Threads of the OpenBLAS that numpy loaded, or -1 if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return -1


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(spec, work: Path) -> dict:
    warm_up(spec, work)
    phases = Phases(INSPECT[spec["workload"]](spec))
    phases.install()
    tracer = None
    rounds = []
    min_rounds = 3 if spec["trace"] else 2  # traced: one untraced reference round first
    begin = perf_counter()
    while True:
        if spec["trace"] and rounds and tracer is None:
            phases.remove()
            tracer = Tracer(_config(spec, []).arch.input_size)
            tracer.install()
            phases.install()
        if tracer is not None:
            tracer.new_round()
        phases.new_round()
        start = perf_counter()
        record = ROUND[spec["workload"]](spec, work, phases)
        last = perf_counter() - start
        if tracer is not None:
            record["layers"] = tracer.round_metrics()
        rounds.append(record)
        if len(rounds) == 1:
            # A user's process runs one verb; later rounds only add heap fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(rounds) >= min_rounds and (
            perf_counter() - begin >= spec["seconds"] or perf_counter() - STARTED + last > BUDGET_S
        ):
            break
    result = {"peak_rss_mb": peak_rss_mb, "environment": environment()}
    if tracer is not None:
        tracer.remove()
        result["steps"] = tracer.step_metrics()
        tracer.write_spans(work / "spans.npz")
    phases.remove()
    result["failures"] = CHECK[spec["workload"]](spec, work, rounds, phases)
    for r in rounds:
        r.pop("digests", None)
        r.pop("teacher_digests", None)
    result["rounds"] = rounds
    return result


def main(argv) -> int:
    mode, spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["work"])
    result = setup(spec, work) if mode == "setup" else measure(spec, work)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
