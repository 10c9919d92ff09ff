"""Objectives: classification, direction-matching distillation, and baselines.

The distillation losses compare teacher and student features on the unit
hypersphere. `angular_distill_loss` penalizes (1 - cos theta)^2 between two
embeddings. `composite_loss` applies it at the final stage to the two
embeddings and, at each intermediate stage, to the teacher's embedding and the
frozen teacher tail's embedding of the student feature lifted to teacher
width; that loop is the only tail path. An exact-match squared-distance
baseline is kept for comparison; it differs from the angular loss only in the
distance function.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError
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
    if teacher_emb.shape != student_emb.shape:
        raise DimensionError(
            f"embedding shapes differ: {teacher_emb.shape} vs {student_emb.shape}"
        )
    cos = ad.cosine(teacher_emb.detach(), student_emb)
    return ((1.0 - cos) ** 2).mean()


def l2_distill_loss(teacher_feat: Tensor, student_feat: Tensor) -> Tensor:
    """Mean over the batch of squared Euclidean distance between features.

    The features are batched, [batch, ...]: stage maps or embeddings. The
    exact-match baseline: unlike the angular loss it constrains magnitude as
    well as direction. Teacher side is constant.
    """
    if teacher_feat.shape != student_feat.shape or student_feat.ndim < 2:
        raise DimensionError(
            f"expected batched features of one shape, got {teacher_feat.shape} vs "
            f"{student_feat.shape}"
        )
    diff = student_feat - teacher_feat.detach()
    sq = diff * diff
    return sq.reshape(sq.shape[0], -1).sum(axis=1).mean()


def composite_loss(
    batch: Tensor,
    labels,
    teacher: StagedNetwork | None,
    student: StagedNetwork,
    transforms: list[StudentTransform],
    head: ClassifierHead,
    kind: str,
    lambdas: tuple[float, ...],
    teacher_out: tuple[list[Tensor], Tensor] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Classification loss plus `lambdas`-weighted per-stage distillation terms.

    The student and its transforms run in train mode, the frozen teacher in
    eval mode; a teacher that is not frozen raises ContractError. kind "none"
    ignores the teacher entirely. kind "l2" compares transformed stage
    features by squared distance; kind "angular" routes intermediate features
    through the teacher tail and compares directions. Stage n always compares
    the d-dim embeddings. `teacher_out` may carry precomputed eval-mode
    teacher features of stages 1..n-1 (the ones read) and the embedding for
    the batch; for the tail comparison the teacher's own stage-i tail
    embedding is its final embedding, so the cached value is reused
    unchanged.

    Returns the total loss tensor and the unweighted value of every term.
    """
    if kind not in DISTILL_KINDS:
        raise ConfigError(f"distill kind must be one of {DISTILL_KINDS}, got {kind!r}")
    n = student.num_stages
    if kind != "none":  # checked before any train-mode forward moves a running estimate
        if teacher is None:
            raise ConfigError(f"distill kind {kind!r} requires a teacher")
        if not teacher.frozen:
            raise ContractError("composite_loss: the teacher is not frozen (see nets.freeze)")
        if len(lambdas) != n:
            raise ConfigError(f"{len(lambdas)} distillation weights for {n} stages")
    feats_s, emb_s = student.forward(batch)
    cls = ad.softmax_cross_entropy(head.logits(emb_s), labels).mean()
    parts = {"cls": cls.item()}
    if kind == "none":
        return cls, parts

    if teacher_out is None:
        feats_t, emb_t = teacher.forward(batch)
    else:
        feats_t, emb_t = teacher_out

    total = cls
    for i in range(1, n):
        lifted = transforms[i - 1].forward(feats_s[i - 1])
        if kind == "angular":
            term = angular_distill_loss(emb_t, teacher.tail(i, lifted))
        else:
            term = l2_distill_loss(feats_t[i - 1], lifted)
        parts[f"stage_{i}"] = term.item()
        total = total + lambdas[i - 1] * term
    if kind == "angular":
        final = angular_distill_loss(emb_t, emb_s)
    else:
        final = l2_distill_loss(emb_t, emb_s)
    parts[f"stage_{n}"] = final.item()
    total = total + lambdas[n - 1] * final
    return total, parts
