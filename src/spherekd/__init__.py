"""spherekd: teacher-student distillation on hypersphere embeddings.

A small, fully deterministic toolkit: a float64 autodiff engine, staged
convolutional teacher/student networks, direction-matching distillation
losses with an exact-match baseline, and open-set verification /
identification benchmarks on synthetic identity data.
"""

from .autodiff import (
    Tensor,
    conv2d_1x1,
    conv2d_3x3,
    cosine,
    l2_normalize,
    matmul,
    prelu,
    softmax_cross_entropy,
)
from .losses import (
    angular_distill_loss,
    build_lambda_schedule,
    composite_loss,
    intermediate_angular_loss,
    l2_distill_loss,
)
from .nets import (
    ArchConfig,
    ClassifierHead,
    StagedNetwork,
    StudentTransform,
    build_reference_pair,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "matmul",
    "conv2d_1x1",
    "conv2d_3x3",
    "l2_normalize",
    "cosine",
    "prelu",
    "softmax_cross_entropy",
    "angular_distill_loss",
    "l2_distill_loss",
    "intermediate_angular_loss",
    "composite_loss",
    "build_lambda_schedule",
    "ArchConfig",
    "StagedNetwork",
    "StudentTransform",
    "ClassifierHead",
    "build_reference_pair",
]
