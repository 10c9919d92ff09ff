"""Objectives: classification, direction-matching distillation, and baselines.

The distillation losses compare teacher and student features on the unit
hypersphere. The final-stage loss penalizes (1 - cos theta)^2 between the two
embeddings; intermediate student features are first lifted to teacher width,
then judged by how the frozen teacher tail would embed them. An exact-match
squared-distance baseline is kept for comparison; it differs from the angular
loss only in the distance function.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError
from .nets import ClassifierHead, StagedNetwork, StudentTransform

DISTILL_KINDS = ("none", "l2", "angular")


def build_lambda_schedule(lambda_n: float, n: int) -> tuple[float, ...]:
    """Per-stage distillation weights lambda_1..lambda_n: lambda_i = lambda_{i+1}/2."""
    if n < 1:
        raise ConfigError("schedule needs at least one stage")
    if lambda_n < 0:
        raise ConfigError("lambda_n must be >= 0")
    weights = [float(lambda_n)]
    for _ in range(n - 1):
        weights.append(weights[-1] / 2.0)
    return tuple(reversed(weights))


def angular_distill_loss(teacher_emb: Tensor, student_emb: Tensor) -> Tensor:
    """Mean over the batch of (1 - cos theta)^2 between embedding directions.

    The teacher side is treated as a constant: no gradient flows into it.
    Invariant to positive rescaling of either argument.
    """
    teacher_emb, student_emb = Tensor._lift(teacher_emb), Tensor._lift(student_emb)
    if teacher_emb.shape != student_emb.shape:
        raise DimensionError(
            f"embedding shapes differ: {teacher_emb.shape} vs {student_emb.shape}"
        )
    cos = ad.cosine(teacher_emb.detach(), student_emb)
    return ((1.0 - cos) ** 2).mean()


def l2_distill_loss(teacher_feat: Tensor, student_feat: Tensor) -> Tensor:
    """Mean over the batch of squared Euclidean distance between features.

    The exact-match baseline: unlike the angular loss it constrains magnitude
    as well as direction. Teacher side is constant.
    """
    teacher_feat, student_feat = Tensor._lift(teacher_feat), Tensor._lift(student_feat)
    if teacher_feat.shape != student_feat.shape:
        raise DimensionError(
            f"feature shapes differ: {teacher_feat.shape} vs {student_feat.shape}"
        )
    diff = student_feat - teacher_feat.detach()
    sq = diff * diff
    if sq.ndim == 1:
        return sq.sum()
    per_sample = sq.reshape(sq.shape[0], -1).sum(axis=1)
    return per_sample.mean()


def intermediate_angular_loss(
    teacher: StagedNetwork,
    stage: int,
    teacher_feat: Tensor,
    student_feat: Tensor,
    transform: StudentTransform,
    train: bool = True,
) -> Tensor:
    """Angular loss between teacher-tail embeddings of both stage-i features.

    The student feature is lifted to teacher width by `transform`, then both
    features are pushed through the frozen teacher blocks i+1..n and the head.
    Gradients reach only the student feature and the transform parameters.
    """
    if transform.stage != stage:
        raise ConfigError(f"transform is for stage {transform.stage}, not {stage}")
    e_teacher = teacher.tail(stage, Tensor._lift(teacher_feat).detach())
    e_student = teacher.tail(stage, transform.forward(student_feat, train))
    return angular_distill_loss(e_teacher, e_student)


def composite_loss(
    batch,
    labels,
    teacher: StagedNetwork | None,
    student: StagedNetwork,
    transforms: list[StudentTransform],
    head: ClassifierHead,
    kind: str,
    lambdas: tuple[float, ...],
    train: bool = True,
    teacher_out: tuple[list[Tensor], Tensor] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Classification loss plus `lambdas`-weighted per-stage distillation terms.

    kind "none" ignores the teacher entirely. kind "l2" compares transformed
    stage features by squared distance; kind "angular" routes intermediate
    features through the teacher tail and compares directions. Stage n always
    compares the d-dim embeddings. `teacher_out` may carry precomputed
    eval-mode teacher features of stages 1..n-1 (the ones read) and the
    embedding for the batch; for the tail comparison the teacher's own
    stage-i tail embedding is its final embedding, so the cached value is
    reused unchanged.

    Returns the total loss tensor and the unweighted value of every term.
    """
    if kind not in DISTILL_KINDS:
        raise ConfigError(f"distill kind must be one of {DISTILL_KINDS}, got {kind!r}")
    batch = Tensor._lift(batch)
    feats_s, emb_s = student.forward(batch, train=train)
    cls = ad.softmax_cross_entropy(head.logits(emb_s), labels)
    if cls.ndim > 0:
        cls = cls.mean()
    parts = {"cls": cls.item()}
    if kind == "none":
        return cls, parts

    if teacher is None:
        raise ConfigError(f"distill kind {kind!r} requires a teacher")
    n = student.num_stages
    if len(lambdas) != n:
        raise ConfigError(f"{len(lambdas)} distillation weights for {n} stages")
    if teacher_out is None:
        feats_t, emb_t = teacher.forward(batch, train=False)
    else:
        feats_t, emb_t = teacher_out

    total = cls
    for i in range(1, n):
        if kind == "angular":
            e_s = teacher.tail(i, transforms[i - 1].forward(feats_s[i - 1], train))
            term = angular_distill_loss(emb_t, e_s)
        else:
            term = l2_distill_loss(feats_t[i - 1], transforms[i - 1].forward(feats_s[i - 1], train))
        parts[f"stage_{i}"] = term.item()
        total = total + lambdas[i - 1] * term
    if kind == "angular":
        final = angular_distill_loss(emb_t, emb_s)
    else:
        final = l2_distill_loss(emb_t, emb_s)
    parts[f"stage_{n}"] = final.item()
    total = total + lambdas[n - 1] * final
    return total, parts
