"""Distillation objectives: identities, invariances, oracles, composition."""

import numpy as np
import pytest

from spherekd.autodiff import Tensor
from spherekd.errors import ConfigError, DimensionError
from spherekd.gradcheck import check_gradients
from spherekd.losses import (
    angular_distill_loss,
    build_lambda_schedule,
    composite_loss,
    intermediate_angular_loss,
    l2_distill_loss,
)
from spherekd.nets import ArchConfig, ClassifierHead, build_reference_pair, freeze, parameters
from spherekd.rng import substream

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
    def test_equal_transformed_features_give_zero(self):
        teacher, student, transforms = make_pair(seed=1)
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 8, 8, 1)))
        feats_t, _ = teacher.forward(x)
        # student feature that the transform maps exactly onto the teacher's:
        # use the teacher feature itself with an identity transform
        arch_eq = ArchConfig(
            input_size=8, in_channels=1, num_stages=2, teacher_channels=(4, 6),
            student_channels=(4, 6), block_depth=1, embedding_dim=4,
        )
        teacher_eq, _, transforms_eq = build_reference_pair(arch_eq, seed=2)
        freeze(teacher_eq)
        tr = transforms_eq[0]
        tr.proj.data = np.eye(4)
        feats, _ = teacher_eq.forward(x)
        loss = intermediate_angular_loss(teacher_eq, 1, feats[0], feats[0], tr, train=False)
        # eval-mode bn rescales by 1/sqrt(1+eps); direction is untouched
        assert loss.item() <= 1e-10

    def test_stage_n_reduces_to_angular_on_head_outputs(self):
        teacher, student, transforms = make_pair(seed=3)
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 8, 8, 1)))
        feats_t, _ = teacher.forward(x)
        feats_s, _ = student.forward(x)
        n = teacher.num_stages
        loss = intermediate_angular_loss(
            teacher, n, feats_t[-1], feats_s[-1], transforms[-1], train=False
        )
        e_t = teacher.tail(n, feats_t[-1].detach())
        e_s = teacher.tail(n, transforms[-1].forward(feats_s[-1], train=False))
        direct = angular_distill_loss(e_t, e_s)
        assert abs(loss.item() - direct.item()) <= 1e-12

    def test_matches_recomposition_oracle(self):
        # independent route: plain numpy over the tail outputs
        teacher, student, transforms = make_pair(seed=4)
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 8, 8, 1)))
        feats_t, _ = teacher.forward(x)
        feats_s, _ = student.forward(x)
        stage = 1
        loss = intermediate_angular_loss(
            teacher, stage, feats_t[0], feats_s[0], transforms[0], train=True
        )

        e_t = teacher.tail(stage, feats_t[0].detach()).data
        e_s = teacher.tail(stage, transforms[0].forward(feats_s[0], train=True)).data
        u = e_t / np.linalg.norm(e_t, axis=1, keepdims=True)
        v = e_s / np.linalg.norm(e_s, axis=1, keepdims=True)
        cos = np.clip(np.sum(u * v, axis=1), -1.0, 1.0)
        expected = float(np.mean((1.0 - cos) ** 2))
        assert abs(loss.item() - expected) <= 1e-12

    def test_wrong_stage_transform_rejected(self):
        teacher, student, transforms = make_pair(seed=5)
        x = Tensor(np.random.default_rng(14).normal(size=(2, 8, 8, 1)))
        feats_t, _ = teacher.forward(x)
        feats_s, _ = student.forward(x)
        with pytest.raises(ConfigError):
            intermediate_angular_loss(teacher, 2, feats_t[1], feats_s[1], transforms[0])

    def test_gradients_reach_student_side_only(self):
        teacher, student, transforms = make_pair(seed=6)
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(2, 8, 8, 1)))
        feats_t, _ = teacher.forward(x)
        f_s = Tensor(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)
        loss = intermediate_angular_loss(teacher, 1, feats_t[0], f_s, transforms[0], train=True)
        loss.backward()
        assert f_s.grad is not None
        assert transforms[0].proj.grad is not None
        assert all(p.grad is None for p in parameters(teacher).values())


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
        total, parts = composite_loss(
            x, labels, None, student, transforms, head, "none", sched, train=False
        )
        _, emb = student.forward(x, train=False)
        expected = softmax_cross_entropy(head.logits(emb), labels).mean().item()
        assert total.item() == expected
        assert set(parts) == {"cls"}

    def test_zero_lambdas_reduce_to_classification(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=8)
        zero = (0.0, 0.0)
        for kind in ("l2", "angular"):
            total, parts = composite_loss(
                x, labels, teacher, student, transforms, head, kind, zero, train=False
            )
            assert total.item() == pytest.approx(parts["cls"], abs=1e-15)

    def test_parts_recombine_to_total(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=9)
        sched = build_lambda_schedule(1.0, 2)
        for kind in ("l2", "angular"):
            total, parts = composite_loss(
                x, labels, teacher, student, transforms, head, kind, sched, train=True
            )
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
            live, _ = composite_loss(*args, train=False)
            cached, _ = composite_loss(*args, train=False, teacher_out=(feats, Tensor(emb)))
            assert cached.item() == live.item()

    def test_channel_matched_copy_has_zero_distill_parts(self):
        # student widths equal teacher widths, weights copied, transforms identity
        arch_eq = ArchConfig(
            input_size=8, in_channels=1, num_stages=2, teacher_channels=(4, 6),
            student_channels=(4, 6), block_depth=1, embedding_dim=4,
        )
        teacher, student, transforms = build_reference_pair(arch_eq, seed=10)
        freeze(teacher)
        t_params = parameters(teacher)
        for name, p in parameters(student).items():
            p.data = t_params[name].data.copy()
        for tr, width in zip(transforms, arch_eq.teacher_channels):
            tr.proj.data = np.eye(width)
        head = ClassifierHead(4, 4, rng=substream(10, "cls"))
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(3, 8, 8, 1)))
        labels = rng.integers(0, 4, size=3)
        sched = build_lambda_schedule(1.0, 2)
        total, parts = composite_loss(
            x, labels, teacher, student, transforms, head, "angular", sched, train=False
        )
        assert parts["stage_1"] <= 1e-10
        assert parts["stage_2"] <= 1e-10

    def test_composite_stage_parts_match_direct_intermediate_loss(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=11)
        sched = build_lambda_schedule(1.0, 2)
        total, parts = composite_loss(
            x, labels, teacher, student, transforms, head, "angular", sched, train=False
        )
        feats_t, emb_t = teacher.forward(x, train=False)
        feats_s, emb_s = student.forward(x, train=False)
        direct_1 = intermediate_angular_loss(
            teacher, 1, feats_t[0], feats_s[0], transforms[0], train=False
        )
        direct_n = angular_distill_loss(emb_t, emb_s)
        assert abs(parts["stage_1"] - direct_1.item()) <= 1e-12
        assert abs(parts["stage_2"] - direct_n.item()) <= 1e-12

    def test_teacher_gets_no_gradients(self):
        teacher, student, transforms, head, x, labels = self._setup(seed=12)
        sched = build_lambda_schedule(1.0, 2)
        total, _ = composite_loss(
            x, labels, teacher, student, transforms, head, "angular", sched, train=True
        )
        total.backward()
        assert all(p.grad is None for p in parameters(teacher).values())
        assert all(p.grad is not None for p in parameters(student).values())

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
