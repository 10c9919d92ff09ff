"""Distillation objectives: identities, invariances, oracles, composition."""

import numpy as np
import pytest

from spherekd.autodiff import Tensor
from spherekd.errors import ConfigError, ContractError, DimensionError
from spherekd.gradcheck import check_gradients
from spherekd.losses import (
    angular_distill_loss,
    build_lambda_schedule,
    composite_loss,
    l2_distill_loss,
)
from spherekd.nets import (
    ArchConfig,
    ClassifierHead,
    build_reference_pair,
    freeze,
    parameters,
    state_arrays,
)
from spherekd.rng import substream

from .conftest import takes_no_gradient

ARCH = ArchConfig(
    input_size=8,
    in_channels=1,
    num_stages=2,
    teacher_channels=(4, 6),
    student_channels=(2, 3),
    block_depth=1,
    embedding_dim=4,
)


def make_pair(seed=0, arch=ARCH):
    teacher, student, transforms = build_reference_pair(arch, seed)
    freeze(teacher)
    return teacher, student, transforms


class TestAngularDistillLoss:
    def test_identical_embeddings_give_zero(self):
        u = np.random.default_rng(0).normal(size=(3, 8))
        assert angular_distill_loss(Tensor(u), Tensor(u)).item() <= 1e-10

    def test_orthogonal_gives_one(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert angular_distill_loss(Tensor(t), Tensor(s)).item() == pytest.approx(1.0, abs=1e-10)

    def test_antipodal_gives_four(self):
        u = np.random.default_rng(1).normal(size=(4, 6))
        assert angular_distill_loss(Tensor(u), Tensor(-u)).item() == pytest.approx(4.0, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(2, 5))
        assert angular_distill_loss(Tensor(2.0 * u), Tensor(u)).item() <= 1e-10
        for _ in range(100):
            t, s = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
            alpha, beta = rng.uniform(0.01, 50, size=2)
            base = angular_distill_loss(Tensor(t), Tensor(s)).item()
            scaled = angular_distill_loss(Tensor(alpha * t), Tensor(beta * s)).item()
            assert abs(base - scaled) <= 1e-10

    def test_range_and_zero_iff_collinear(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t, s = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
            val = angular_distill_loss(Tensor(t), Tensor(s)).item()
            assert 0.0 <= val <= 4.0
        collinear = rng.normal(size=(4, 6))
        scales = rng.uniform(0.5, 3.0, size=(4, 1))
        assert angular_distill_loss(Tensor(collinear), Tensor(scales * collinear)).item() <= 1e-10
        not_collinear = collinear + rng.normal(size=(4, 6))
        assert angular_distill_loss(Tensor(collinear), Tensor(not_collinear)).item() > 1e-10

    def test_no_gradient_into_teacher(self):
        t = Tensor(np.random.default_rng(4).normal(size=(2, 4)), requires_grad=True)
        s = Tensor(np.random.default_rng(5).normal(size=(2, 4)), requires_grad=True)
        angular_distill_loss(t, s).backward()
        assert t.grad is None
        assert s.grad is not None

    def test_descent_step_increases_cosine(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=(1, 8))
        s_data = rng.normal(size=(1, 8))
        cos_before = float(
            (t / np.linalg.norm(t) * (s_data / np.linalg.norm(s_data))).sum()
        )
        assert cos_before < 1.0
        s = Tensor(s_data.copy(), requires_grad=True)
        angular_distill_loss(Tensor(t), s).backward()
        stepped = s_data - 1e-3 * s.grad
        cos_after = float(
            (t / np.linalg.norm(t) * (stepped / np.linalg.norm(stepped))).sum()
        )
        assert cos_after > cos_before


class TestL2DistillLoss:
    def test_identical_features_give_zero(self):
        f = np.random.default_rng(7).normal(size=(3, 2, 2, 2))
        assert l2_distill_loss(Tensor(f), Tensor(f)).item() == 0.0

    def test_all_ones_difference_over_four_elements(self):
        t = np.zeros((2, 4))
        s = np.ones((2, 4))
        assert l2_distill_loss(Tensor(t), Tensor(s)).item() == pytest.approx(4.0, abs=1e-15)

    def test_not_scale_invariant(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=(2, 6))
        s = t + rng.normal(size=(2, 6))
        base = l2_distill_loss(Tensor(t), Tensor(s)).item()
        scaled = l2_distill_loss(Tensor(3.0 * t), Tensor(3.0 * s)).item()
        assert abs(base - scaled) > 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            l2_distill_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_unbatched_features_raise(self):
        # one feature vector is not a batch: the loss takes [batch, ...] only
        with pytest.raises(DimensionError):
            l2_distill_loss(Tensor(np.zeros(4)), Tensor(np.ones(4)))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        t = Tensor(rng.normal(size=(3, 2, 2, 2)))
        s = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        err = check_gradients(lambda: l2_distill_loss(t, s), [s])
        assert err < 1e-6

    def test_scaled_by_three_contrast_fixture(self):
        # scaling features by 3 keeps the direction: angular sees no error,
        # the exact-match baseline sees a large one
        rng = np.random.default_rng(10)
        t = rng.normal(size=(5, 12))
        s = 3.0 * t
        assert angular_distill_loss(Tensor(t), Tensor(s)).item() <= 1e-10
        assert l2_distill_loss(Tensor(t), Tensor(s)).item() > 1.0


class TestIntermediateAngularLoss:
    """The stage-i angular terms of composite_loss, i < n: the one tail path."""

    def _loss(self, seed, sched=(1.0, 1.0)):
        teacher, student, transforms = make_pair(seed)
        head = ClassifierHead(4, ARCH.embedding_dim, "normalized", 16.0, substream(seed, "cls"))
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 8, 8, 1)))
        labels = rng.integers(0, 4, size=3)
        total, parts = composite_loss(x, labels, teacher, student, transforms, head, "angular", sched)
        return teacher, student, transforms, x, total, parts

    def test_stage_n_reduces_to_angular_on_head_outputs(self):
        teacher, student, _, x, _, parts = self._loss(seed=3)
        n = teacher.num_stages
        feats_t, _ = teacher.forward(x)
        feats_s, _ = student.forward(x)
        direct = angular_distill_loss(teacher.tail(n, feats_t[-1]), student.head(feats_s[-1]))
        assert abs(parts[f"stage_{n}"] - direct.item()) <= 1e-12

    def test_matches_recomposition_oracle(self):
        # independent route: plain numpy over the tail outputs
        teacher, student, transforms, x, _, parts = self._loss(seed=4)
        stage = 1
        feats_t, _ = teacher.forward(x)
        feats_s, _ = student.forward(x)
        e_t = teacher.tail(stage, feats_t[0]).data
        e_s = teacher.tail(stage, transforms[0].forward(feats_s[0])).data
        u = e_t / np.linalg.norm(e_t, axis=1, keepdims=True)
        v = e_s / np.linalg.norm(e_s, axis=1, keepdims=True)
        cos = np.clip(np.sum(u * v, axis=1), -1.0, 1.0)
        expected = float(np.mean((1.0 - cos) ** 2))
        assert abs(parts[f"stage_{stage}"] - expected) <= 1e-12

    def test_gradients_reach_student_side_only(self):
        # with and without the stage-1 term; the final stage has no transform
        grads = {}
        for lam in (1.0, 0.0):
            teacher, student, transforms, _, total, _ = self._loss(seed=6, sched=(lam, 0.0))
            total.backward()
            assert takes_no_gradient(teacher)
            assert len(transforms) == ARCH.num_stages - 1
            grads[lam] = (transforms[0].proj.grad, student.stages[0][0].weight.grad)
        assert np.any(grads[1.0][0]) and not np.any(grads[0.0][0])
        # through the transform, the stage-1 term reaches the student's stage-1 feature
        assert not np.array_equal(grads[1.0][1], grads[0.0][1])


class TestLambdaSchedule:
    def test_paper_rule_angular_default(self):
        assert build_lambda_schedule(1.0, 4) == (0.125, 0.25, 0.5, 1.0)

    def test_paper_rule_l2_default(self):
        sched = build_lambda_schedule(0.001, 4)
        expected = [0.000125, 0.00025, 0.0005, 0.001]
        assert all(abs(a - b) <= 1e-15 for a, b in zip(sched, expected))

    def test_single_stage(self):
        assert build_lambda_schedule(0.7, 1) == (0.7,)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            build_lambda_schedule(-0.1, 3)
        with pytest.raises(ConfigError):
            build_lambda_schedule(1.0, 0)


class TestCompositeLoss:
    def _setup(self, seed=7, mode="normalized"):
        teacher, student, transforms = make_pair(seed)
        head = ClassifierHead(4, ARCH.embedding_dim, mode=mode, scale=16.0, rng=substream(seed, "cls"))
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 8, 8, 1)))
        labels = rng.integers(0, 4, size=4)
        return teacher, student, transforms, head, x, labels

    def test_kind_none_is_classification_only(self):
        from spherekd.autodiff import softmax_cross_entropy

        teacher, student, transforms, head, x, labels = self._setup()
        sched = build_lambda_schedule(1.0, 2)
        total, parts = composite_loss(x, labels, None, student, transforms, head, "none", sched)
        _, emb = student.forward(x)
        expected = softmax_cross_entropy(head.logits(emb), labels).mean().item()
        assert total.item() == expected
        assert set(parts) == {"cls"}

    def test_zero_lambdas_reduce_to_classification(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=8)
        zero = (0.0, 0.0)
        for kind in ("l2", "angular"):
            total, parts = composite_loss(x, labels, teacher, student, transforms, head, kind, zero)
            assert total.item() == pytest.approx(parts["cls"], abs=1e-15)

    def test_parts_recombine_to_total(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=9)
        sched = build_lambda_schedule(1.0, 2)
        for kind in ("l2", "angular"):
            total, parts = composite_loss(x, labels, teacher, student, transforms, head, kind, sched)
            recombined = parts["cls"] + sum(
                sched[i - 1] * parts[f"stage_{i}"] for i in (1, 2)
            )
            assert abs(total.item() - recombined) <= 1e-12

    def test_precomputed_teacher_gives_the_live_loss(self):
        from spherekd.engine import _precompute_teacher

        teacher, student, transforms, head, x, labels = self._setup(seed=10)
        sched = build_lambda_schedule(1.0, 2)
        for kind in ("l2", "angular"):
            feats, emb = _precompute_teacher(teacher, x.data, kind)
            if kind == "l2":
                assert len(feats) == ARCH.num_stages - 1  # stages 1..n-1, the ones read
                feats = [Tensor(f) for f in feats]
            args = (x, labels, teacher, student, transforms, head, kind, sched)
            live, _ = composite_loss(*args)
            cached, _ = composite_loss(*args, teacher_out=(feats, Tensor(emb)))
            assert cached.item() == live.item()

    def test_composite_stage_parts_match_direct_intermediate_loss(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=11)
        sched = build_lambda_schedule(1.0, 2)
        total, parts = composite_loss(x, labels, teacher, student, transforms, head, "angular", sched)
        feats_t, emb_t = teacher.forward(x)
        feats_s, emb_s = student.forward(x)
        direct_1 = angular_distill_loss(
            teacher.tail(1, feats_t[0]), teacher.tail(1, transforms[0].forward(feats_s[0]))
        )
        direct_n = angular_distill_loss(emb_t, emb_s)
        assert abs(parts["stage_1"] - direct_1.item()) <= 1e-12
        assert abs(parts["stage_2"] - direct_n.item()) <= 1e-12

    def test_teacher_gets_no_gradients(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=12)
        sched = build_lambda_schedule(1.0, 2)
        total, _ = composite_loss(x, labels, teacher, student, transforms, head, "angular", sched)
        total.backward()
        assert takes_no_gradient(teacher)
        assert all(p.grad is not None for p in parameters(student).values())

    def test_unfrozen_teacher_raises_and_keeps_the_running_estimates(self):
        _, student, transforms, head, x, labels = self._setup(seed=15)
        teacher = build_reference_pair(ARCH, 15)[0]
        before = {k: v.copy() for k, v in state_arrays(teacher, student).items()}
        with pytest.raises(ContractError, match="not frozen"):
            composite_loss(
                x, labels, teacher, student, transforms, head, "l2", build_lambda_schedule(1.0, 2)
            )
        after = state_arrays(teacher, student)
        assert all(np.array_equal(v, before[k]) for k, v in after.items())

    def test_schedule_length_mismatch(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=13)
        with pytest.raises(ConfigError):
            composite_loss(
                x, labels, teacher, student, transforms, head, "angular",
                build_lambda_schedule(1.0, 3),
            )

    def test_unknown_kind_rejected(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=14)
        with pytest.raises(ConfigError):
            composite_loss(
                x, labels, teacher, student, transforms, head, "kl",
                build_lambda_schedule(1.0, 2),
            )
