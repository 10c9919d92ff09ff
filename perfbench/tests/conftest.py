"""Paths and the toy-size overrides for the benchmark's own tests.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

# The benchmark's workloads shrunk to a few seconds, with the same values as
# the toy configuration of the program's own tests.
TOY = [
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
