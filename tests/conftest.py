"""Shared fixtures: a fast toy configuration for end-to-end runs, threads for toy sizes,
and a check that a frozen network takes no gradient."""

import pytest

import spherekd.evaluate as evaluate_mod
from spherekd.autodiff import Tensor
from spherekd.config import RunConfig, apply_overrides
from spherekd.nets import FoldedUnit

TOY_OVERRIDES = [
    "arch.input_size=8",
    "arch.num_stages=2",
    "arch.teacher_channels=[4, 6]",
    "arch.student_channels=[2, 3]",
    "arch.block_depth=1",
    "arch.embedding_dim=4",
    "data.image_size=8",
    "data.num_train_classes=8",
    "data.num_test_classes=4",
    "data.samples_per_class=6",
    "data.latent_dim=8",
    "data.num_distractors=8",
    "data.pairs_per_side=10",
    "data.folds=2",
    "train.batch_size=8",
    "train.teacher_epochs=3",
    "train.student_epochs=3",
]


def make_toy_config(out_dir, extra=()):
    cfg = apply_overrides(RunConfig().validate(), TOY_OVERRIDES + list(extra))
    return apply_overrides(cfg, [f"output_dir={out_dir}"])


@pytest.fixture
def toy_config(tmp_path):
    return make_toy_config(tmp_path / "run")


def threads_from_8_rows(monkeypatch) -> list[int]:
    """Embed extractions of 16 rows or more on two threads, whatever the machine.

    Returns the thread counts of the pools started.
    """
    monkeypatch.setattr(evaluate_mod, "ROWS_PER_WORKER", 8)
    monkeypatch.setattr(evaluate_mod, "cpu_count", lambda: 2)
    monkeypatch.setattr(evaluate_mod, "blas_threads", lambda: 2)
    started = []
    original = evaluate_mod.ThreadPoolExecutor
    monkeypatch.setattr(
        evaluate_mod, "ThreadPoolExecutor", lambda threads: started.append(threads) or original(threads)
    )
    return started


def takes_no_gradient(net) -> bool:
    """True when no value of the frozen `net` requires or holds a gradient.

    Its stages hold only FoldedUnits, whose values are plain arrays that no
    backward reaches, and its head weight is a constant Tensor.
    """
    units = [unit for stage in net.stages for unit in stage]
    if not all(isinstance(unit, FoldedUnit) for unit in units):
        return False
    if any(isinstance(v, Tensor) for unit in units for v in vars(unit).values()):
        return False
    return not net.head_weight.requires_grad and net.head_weight.grad is None
