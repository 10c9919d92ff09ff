"""Command-line interface.

One binary, six verbs:

    gen-data       write both protocol files
    train-teacher  train the wide network with classification loss
    distill        train a student (none | l2 | angular) against a teacher
    evaluate       score a checkpoint on the verification/identification protocols
    compare        run the full experiment matrix over several seeds
    grad-check     finite-difference verification of all differentiable ops

Exit codes: 0 success, 1 a `compare --parallel` worker process died,
2 config error, 3 I/O error, 4 numeric failure, 5 check failure. `compare`
records a failed cell and goes on; it prints one stderr line per failed
cell and exits with the code of the first, by seed and then by row (4 for
an exception of a type without a code). Every
command writes its effective config (all defaults materialized) next to its
outputs and echoes it to stdout, so a run is reproducible from its printed
output alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import atomic_open
from .config import RunConfig, apply_overrides, dump_config, load_config
from .errors import EXIT_CHECK, EXIT_NUMERIC, EXIT_OK, ConfigError, describe, exit_code
from .losses import DISTILL_KINDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherekd",
        description="Hypersphere knowledge distillation toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="YAML config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, e.g. --set train.batch_size=16",
        )
        p.add_argument("--out", type=str, default=None, help="output directory override")

    p = sub.add_parser("gen-data", help="generate the verification and identification protocol files")
    common(p)

    p = sub.add_parser("train-teacher", help="train the teacher network")
    common(p)

    p = sub.add_parser("distill", help="train a student network")
    common(p)
    p.add_argument("--teacher", type=str, default=None, help="teacher checkpoint path")
    p.add_argument("--kind", choices=DISTILL_KINDS, default=None)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the protocols")
    common(p)
    p.add_argument("--checkpoint", type=str, required=True)

    p = sub.add_parser("compare", help="run the teacher/student experiment matrix")
    common(p)
    p.add_argument("--seeds", type=str, default="0,1,2", help="comma-separated seeds")
    p.add_argument("--parallel", type=int, default=1, help="seed cells run in N processes")

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--module", choices=["all", "losses", "nets"], default="all")
    p.add_argument("--instances", type=int, default=5)
    return parser


def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)  # a path, verbatim: not parsed as YAML
    return cfg.validate()


def _announce(cfg: RunConfig) -> Path:
    """Write the effective config into the output directory, echo it, return the directory."""
    out = Path(cfg.output_dir)
    text = dump_config(cfg)
    with atomic_open(out / "effective_config.yaml") as fh:
        fh.write(text)
    print(f"# effective config ({out / 'effective_config.yaml'}):")
    print(text, end="")
    return out


def _cmd_gen_data(args) -> int:
    from .data import save_identification_protocol, save_verification_protocol
    from .engine import dataset_from_config, protocols_from_config

    cfg = _effective_config(args)
    out = _announce(cfg)
    dataset = dataset_from_config(cfg)
    vprot, iprot = protocols_from_config(cfg, dataset)
    save_verification_protocol(vprot, out / "verification.txt")
    save_identification_protocol(iprot, out / "identification.txt")
    print(
        f"dataset: {dataset.num_samples} samples, "
        f"{len(dataset.train_classes)} train / {len(dataset.test_classes)} test classes, "
        f"{len(dataset.distractor_classes)} distractors"
    )
    print(
        f"verification: {vprot.num_pairs} pairs in {vprot.folds} folds; "
        f"identification: {len(iprot.gallery_indices)} gallery / "
        f"{len(iprot.probe_indices)} probes"
    )
    return EXIT_OK


def _cmd_train_teacher(args) -> int:
    from .engine import train_teacher

    cfg = _effective_config(args)
    _announce(cfg)
    path, summary = train_teacher(cfg)
    print(f"teacher checkpoint: {path}")
    print(
        f"final train loss {summary['train_loss']:.4f}, "
        f"train accuracy {summary['train_accuracy']:.4f}"
    )
    return EXIT_OK


def _cmd_distill(args) -> int:
    from .engine import (
        dataset_from_config, evaluate_network, load_network, protocols_from_config, train_student
    )

    cfg = _effective_config(args)
    if args.kind is not None:
        cfg = apply_overrides(cfg, [f"distill.kind={args.kind}"])
    out = _announce(cfg)
    dataset = dataset_from_config(cfg)
    protocols = protocols_from_config(cfg, dataset)
    path, _ = train_student(cfg, args.teacher, dataset=dataset)
    metrics = evaluate_network(load_network(cfg, path), dataset, *protocols)
    print(f"student checkpoint: {path}")
    print(
        f"verification accuracy {metrics['verification_accuracy']:.4f} "
        f"(threshold {metrics['verification_threshold']:.4f}), "
        f"rank-1 {metrics['rank1']:.4f}"
    )
    with atomic_open(out / f"student_{cfg.distill.kind}_eval.json") as fh:
        fh.write(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .engine import evaluate_checkpoint

    cfg = _effective_config(args)
    out = _announce(cfg)
    metrics = evaluate_checkpoint(cfg, args.checkpoint)
    print(json.dumps(metrics, sort_keys=True, indent=2))
    with atomic_open(out / "evaluation.json") as fh:
        fh.write(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .engine import check_matrix_arguments, format_report, run_experiment_matrix

    cfg = _effective_config(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --seeds value {args.seeds!r}") from exc
    check_matrix_arguments(cfg, seeds, args.parallel)  # before anything is written
    out = _announce(cfg)
    report = run_experiment_matrix(cfg, seeds, parallel=args.parallel)
    print(format_report(report), end="")
    print(f"report: {out / 'report.json'}")
    codes = []
    for seed in sorted(seeds):
        for row, error in report["failures"].get(str(seed), {}).items():  # in row order
            line = error.partition("\n")[0]  # `describe`'s line, then the traceback
            print(f"seed {seed} {row}: {line}", file=sys.stderr)
            codes.append(exit_code(line) or EXIT_NUMERIC)
    return codes[0] if codes else EXIT_OK


def _cmd_grad_check(args) -> int:
    from .gradcheck import format_results, run_suite

    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    results = run_suite(group=args.module, instances=args.instances)
    print(format_results(results))
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} gradient check(s) FAILED")
        return EXIT_CHECK
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-teacher": _cmd_train_teacher,
    "distill": _cmd_distill,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "grad-check": _cmd_grad_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except Exception as exc:
        line = describe(exc)
        code = exit_code(line)
        if code is None:  # a type without a code is a bug: keep its traceback
            raise
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
