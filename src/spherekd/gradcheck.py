"""Finite-difference verification of every differentiable operation.

The checker re-evaluates a scalar loss while nudging one input element at a
time (central differences, step 1e-5 in float64) and compares the numeric
gradient against the analytic one from the reverse pass. Relative error uses
max(|analytic|, |numeric|, 1e-8) as the denominator, elementwise.

The same suite backs both the test suite and the `grad-check` CLI verb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

FD_STEP = 1e-5
FD_TOL = 1e-4
BASE_SEED = 1234


def numeric_gradient(loss_fn: Callable[[], float], leaf: Tensor) -> np.ndarray:
    """Central-difference gradient of loss_fn with respect to leaf.data."""
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + FD_STEP
        up = loss_fn()
        flat[i] = saved - FD_STEP
        down = loss_fn()
        flat[i] = saved
        gflat[i] = (up - down) / (2.0 * FD_STEP)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(build_loss: Callable[[], Tensor], leaves: list[Tensor]) -> float:
    """Max relative error over all leaves between analytic and numeric grads."""
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    loss.backward()
    analytic = []
    for leaf in leaves:
        if leaf.grad is None:
            raise AssertionError("leaf received no gradient from backward")
        analytic.append(leaf.grad.copy())

    worst = 0.0
    for leaf, a in zip(leaves, analytic):
        n = numeric_gradient(lambda: build_loss().item(), leaf)
        worst = max(worst, relative_error(a, n))
    return worst


# -- named check cases ---------------------------------------------------------


@dataclass
class CheckCase:
    name: str
    group: str  # "nets" or "losses"
    build: Callable[[np.random.Generator], tuple[list[Tensor], Callable[[], Tensor]]]


@dataclass
class CheckResult:
    name: str
    group: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < FD_TOL


def _away_from_zero(rng: np.random.Generator, shape) -> np.ndarray:
    """Random values bounded away from 0 so kinked ops stay differentiable."""
    x = rng.normal(size=shape)
    return x + 0.2 * np.sign(x)


def _case_add_sub_mul(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 1)), requires_grad=True)  # broadcast along a size-1 axis
    return [a, b, c], lambda: (a * b + a - 0.5 * b + (1.0 - a) * b - a * c + c).sum()


def _case_pow_mean(rng):
    a = Tensor(rng.uniform(0.5, 2.0, size=(2, 5)), requires_grad=True)
    return [a], lambda: (a**1.7).mean() + (a**0.5).mean(axis=0).sum()


def _case_sum_axes(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    return [a], lambda: (a.sum(axis=(0, 2)) * Tensor(np.arange(3.0))).sum() + a.mean()


def _case_reshape(rng):
    a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    return [a, w], lambda: ad.matmul(a.reshape(3, 4), w).sum()


def _case_matmul(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    return [a, b], lambda: (ad.matmul(a, b) ** 2).sum()


def _case_conv1x1(rng):
    x = Tensor(rng.normal(size=(2, 4, 4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    return [x, w], lambda: (ad.conv2d_1x1(x, w) ** 2).mean()


def _conv3x3_case(x_shape: tuple[int, ...], c_out: int, stride: int):
    """A case for `conv2d_3x3` of an x_shape input to c_out channels at `stride`."""

    def build_case(rng):
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, x_shape[-1], c_out)), requires_grad=True)
        return [x, w], lambda: (ad.conv2d_3x3(x, w, stride) ** 2).mean()

    return build_case


def _case_conv_unit(rng):
    # a stride-2 then a stride-1 folded unit, with random batch-norm state
    from .nets import ConvUnit, FoldedUnit

    units = []
    for c_in, c_out, stride, side in ((2, 3, 2, 5), (3, 4, 1, 3)):
        unit = ConvUnit(c_in, c_out, stride, rng)
        unit.bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=c_out)
        unit.bn.beta.data[:] = rng.normal(size=c_out)
        unit.bn.running_mean[:] = rng.normal(size=c_out)
        unit.bn.running_var[:] = rng.uniform(0.5, 2.0, size=c_out)
        unit.slope.data[:] = rng.uniform(0.1, 0.5, size=c_out)
        units.append(FoldedUnit(unit, side))
    x = Tensor(rng.normal(size=(2, 5, 5, 2)), requires_grad=True)
    return [x], lambda: (units[1].forward(units[0].forward(x)) ** 2).mean()


def _case_prelu(rng):
    x = Tensor(_away_from_zero(rng, (2, 3, 3, 4)), requires_grad=True)
    s = Tensor(rng.uniform(0.1, 0.5, size=(4,)), requires_grad=True)
    return [x, s], lambda: (ad.prelu(x, s) ** 2).mean()


def _case_l2_normalize(rng):
    x = Tensor(rng.normal(size=(3, 6)) + 0.1, requires_grad=True)
    w = Tensor(rng.normal(size=(6,)), requires_grad=True)
    return [x, w], lambda: (ad.l2_normalize(x) * w).sum()


def _case_cosine(rng):
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    return [a, b], lambda: (ad.cosine(a, b) ** 2).sum()


def _case_softmax_ce(rng):
    logits = Tensor(rng.normal(size=(4, 7)) * 2.0, requires_grad=True)
    labels = rng.integers(0, 7, size=4)
    return [logits], lambda: ad.softmax_cross_entropy(logits, labels).mean()


def _case_batchnorm_train(rng):
    from .nets import BatchNorm

    bn = BatchNorm(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
    bn.beta.data[:] = rng.normal(size=3)
    x = Tensor(rng.normal(size=(4, 2, 2, 3)), requires_grad=True)
    # weight per position, otherwise the x-gradient is identically zero
    w = Tensor(rng.normal(size=(4, 2, 2, 3)))
    return [x, bn.gamma, bn.beta], lambda: (bn.forward(x) * w).mean()


def _case_classifier_normalized(rng):
    from .nets import ClassifierHead

    head = ClassifierHead(5, 6, mode="normalized", scale=16.0, rng=rng)
    emb = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    labels = rng.integers(0, 5, size=3)
    return [emb, head.weight], lambda: ad.softmax_cross_entropy(head.logits(emb), labels).mean()


def _case_angular_loss(rng):
    from .losses import angular_distill_loss

    t = Tensor(rng.normal(size=(4, 8)))
    s = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    return [s], lambda: angular_distill_loss(t, s)


def _case_l2_loss(rng):
    from .losses import l2_distill_loss

    t = Tensor(rng.normal(size=(3, 2, 2, 4)))
    s = Tensor(rng.normal(size=(3, 2, 2, 4)), requires_grad=True)
    return [s], lambda: l2_distill_loss(t, s)


def _tiny_pair(rng):
    """A frozen teacher, a student and their transforms at a tiny shape."""
    from .nets import ArchConfig, build_reference_pair, freeze

    # 8x8 input keeps batch-norm statistics over >= 16 values per channel;
    # smaller maps make the finite-difference step interact with bn curvature
    arch = ArchConfig(
        input_size=8,
        in_channels=1,
        num_stages=2,
        teacher_channels=(3, 4),
        student_channels=(2, 3),
        block_depth=1,
        embedding_dim=3,
    )
    seed = int(rng.integers(0, 2**31))
    teacher, student, transforms = build_reference_pair(arch, seed)
    freeze(teacher)
    return teacher, student, transforms


def _composite_case(kind: str, mode: str, lambda_n: float):
    """A case for `composite_loss` of `kind` against a tiny frozen teacher."""

    def build_case(rng):
        from .losses import build_lambda_schedule, composite_loss
        from .nets import ClassifierHead, parameters

        teacher, student, transforms = _tiny_pair(rng)
        head = ClassifierHead(3, 3, mode=mode, scale=16.0, rng=rng)
        schedule = build_lambda_schedule(lambda_n, 2)
        x = Tensor(rng.normal(size=(4, 8, 8, 1)))
        labels = rng.integers(0, 3, size=4)
        leaves = list(parameters(student).values())
        leaves += [transforms[0].proj, transforms[0].gamma, transforms[0].beta]
        leaves.append(head.weight)

        def build():
            return composite_loss(x, labels, teacher, student, transforms, head, kind, schedule)[0]

        return leaves, build

    return build_case


CASES: list[CheckCase] = [
    CheckCase("elementwise-add-sub-mul", "nets", _case_add_sub_mul),
    CheckCase("pow-mean", "nets", _case_pow_mean),
    CheckCase("sum-axes", "nets", _case_sum_axes),
    CheckCase("reshape-matmul", "nets", _case_reshape),
    CheckCase("matmul", "nets", _case_matmul),
    CheckCase("conv2d-1x1", "nets", _case_conv1x1),
    CheckCase("conv2d-3x3-stride1", "nets", _conv3x3_case((2, 5, 5, 2), 3, 1)),
    CheckCase("conv2d-3x3-stride2", "nets", _conv3x3_case((1, 8, 8, 2), 4, 2)),
    # only the four taps reading the 2x2 input are live
    CheckCase("conv2d-3x3-stride2-2x2-to-1x1", "nets", _conv3x3_case((2, 2, 2, 3), 2, 2)),
    # only the centre tap is live
    CheckCase("conv2d-3x3-stride1-1x1", "nets", _conv3x3_case((3, 1, 1, 2), 3, 1)),
    CheckCase("conv2d-3x3-stride1-2x2", "nets", _conv3x3_case((2, 2, 2, 2), 3, 1)),
    CheckCase("conv-unit-folded", "nets", _case_conv_unit),
    CheckCase("prelu", "nets", _case_prelu),
    CheckCase("l2-normalize", "nets", _case_l2_normalize),
    CheckCase("cosine", "nets", _case_cosine),
    CheckCase("softmax-cross-entropy", "nets", _case_softmax_ce),
    CheckCase("batchnorm-train", "nets", _case_batchnorm_train),
    CheckCase("classifier-normalized", "nets", _case_classifier_normalized),
    CheckCase("angular-distill-loss", "losses", _case_angular_loss),
    CheckCase("l2-distill-loss", "losses", _case_l2_loss),
    CheckCase("composite-loss-angular", "losses", _composite_case("angular", "normalized", 1.0)),
    CheckCase("composite-loss-l2", "losses", _composite_case("l2", "plain", 0.001)),
]


def run_suite(group: str, instances: int) -> list[CheckResult]:
    """Run each selected case on `instances` random inputs; report worst error."""
    results = []
    for case in CASES:
        if group != "all" and case.group != group:
            continue
        worst = 0.0
        for k in range(instances):
            rng = np.random.default_rng(BASE_SEED + 97 * k)
            leaves, build = case.build(rng)
            worst = max(worst, check_gradients(build, leaves))
        results.append(CheckResult(case.name, case.group, worst))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = [f"{'op':34s} {'group':8s} {'max rel err':>12s} {'tol':>8s}  status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:34s} {r.group:8s} {r.max_rel_err:12.3e} {FD_TOL:8.0e}  {status}")
    return "\n".join(lines)
