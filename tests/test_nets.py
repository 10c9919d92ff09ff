"""Staged networks, transforms, classifier head, and the reference pair."""

import numpy as np
import pytest

from spherekd import autodiff as ad
from spherekd.autodiff import Tensor
from spherekd.errors import ConfigError, ContractError, DimensionError
from spherekd.evaluate import extract_embeddings
from spherekd.gradcheck import check_gradients
from spherekd.nets import (
    BN_EPS,
    BN_MOMENTUM,
    ArchConfig,
    BatchNorm,
    ClassifierHead,
    FoldedUnit,
    StagedNetwork,
    StudentTransform,
    build_reference_pair,
    freeze,
    parameters,
    state_arrays,
)
from spherekd.rng import substream

from .conftest import takes_no_gradient

TINY = ArchConfig(
    input_size=8,
    in_channels=1,
    num_stages=2,
    teacher_channels=(4, 6),
    student_channels=(2, 3),
    block_depth=1,
    embedding_dim=4,
)


def tiny_teacher(seed=0):
    return StagedNetwork(TINY, TINY.teacher_channels, substream(seed, "teacher-init"))


def frozen_tiny_teacher(seed=0):
    net = tiny_teacher(seed)
    freeze(net)
    return net


class TestForwardAllStages:
    def test_single_stage_composition(self):
        arch = ArchConfig(
            input_size=4, in_channels=1, num_stages=1, teacher_channels=(3,),
            student_channels=(2,), block_depth=1, embedding_dim=2,
        )
        net = StagedNetwork(arch, arch.teacher_channels, substream(0, "t"))
        freeze(net)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 4, 1)))
        feats, emb = net.forward(x)
        assert len(feats) == 1
        direct = x
        for unit in net.stages[0]:
            direct = unit.forward(direct)
        assert np.array_equal(feats[0].data, direct.data)

    def test_head_of_last_feature_equals_embedding(self):
        net = frozen_tiny_teacher()
        x = Tensor(np.random.default_rng(1).normal(size=(3, 8, 8, 1)))
        feats, emb = net.forward(x)
        assert np.array_equal(net.head(feats[-1]).data, emb.data)

    def test_default_stage_spatial_dims(self):
        arch = ArchConfig()
        net = StagedNetwork(arch, arch.teacher_channels, substream(0, "t"))
        freeze(net)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 16, 16, 1)))
        feats, emb = net.forward(x)
        sides = [f.shape[1] for f in feats]
        assert sides == [8, 4, 2, 1]
        assert [f.shape[3] for f in feats] == [32, 64, 128, 256]
        assert emb.shape == (2, 32)

    def test_bad_input_names_stage(self):
        for net in (tiny_teacher(), frozen_tiny_teacher()):
            with pytest.raises(DimensionError, match="stage 1"):
                net.forward(Tensor(np.zeros((2, 8, 8, 3))))

    def test_stage_split_composability_bitwise(self):
        net = frozen_tiny_teacher()
        rng = np.random.default_rng(3)
        for trial in range(10):
            x = Tensor(rng.normal(size=(2, 8, 8, 1)))
            feats, emb = net.forward(x)
            for split in range(1, net.num_stages + 1):
                y = feats[split - 1]
                for units in net.stages[split:]:
                    for unit in units:
                        y = unit.forward(y)
                assert np.array_equal(y.data, feats[-1].data)
                assert np.array_equal(net.head(y).data, emb.data)


class TestTeacherTail:
    def test_tail_at_last_stage_is_head(self):
        net = frozen_tiny_teacher()
        x = Tensor(np.random.default_rng(4).normal(size=(2, 8, 8, 1)))
        feats, emb = net.forward(x)
        out = net.tail(net.num_stages, feats[-1])
        assert np.array_equal(out.data, emb.data)

    def test_tail_composition_identity_every_stage(self):
        net = frozen_tiny_teacher()
        x = Tensor(np.random.default_rng(5).normal(size=(3, 8, 8, 1)))
        feats, emb = net.forward(x)
        for stage in range(1, net.num_stages + 1):
            out = net.tail(stage, feats[stage - 1])
            assert np.array_equal(out.data, emb.data)

    def test_shape_mismatch_names_stage(self):
        net = frozen_tiny_teacher()
        with pytest.raises(DimensionError, match="stage 1"):
            net.tail(1, Tensor(np.zeros((2, 4, 4, 5))))
        with pytest.raises(DimensionError):
            net.tail(3, Tensor(np.zeros((2, 2, 2, 6))))

    def test_gradient_flows_to_feature(self):
        net = frozen_tiny_teacher()
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 8, 8, 1)))
        feats, _ = net.forward(x)
        f = Tensor(feats[0].data.copy(), requires_grad=True)
        err = check_gradients(lambda: (net.tail(1, f) ** 2).mean(), [f])
        assert err < 1e-4

    def test_frozen_params_get_no_grads(self):
        net = frozen_tiny_teacher()
        f = Tensor(np.random.default_rng(8).normal(size=(2, 4, 4, 4)), requires_grad=True)
        (net.tail(1, f) ** 2).mean().backward()
        assert f.grad is not None
        assert takes_no_gradient(net)

    def test_a_training_network_is_refused_and_keeps_its_running_estimates(self):
        # its units would run train-mode batch norm and update the estimates
        net = tiny_teacher()
        before = {k: v.copy() for k, v in state_arrays(net).items()}
        with pytest.raises(ContractError, match="not frozen"):
            net.tail(1, Tensor(np.random.default_rng(17).normal(size=(2, 4, 4, 4))))
        with pytest.raises(ContractError, match="not frozen"):
            extract_embeddings(net, np.random.default_rng(18).normal(size=(4, 8, 8, 1)))
        assert all(np.array_equal(v, before[k]) for k, v in state_arrays(net).items())


def randomized(net, seed):
    """Random batch-norm state and slopes, so that no fold is near the identity."""
    rng = np.random.default_rng(seed)
    for units in net.stages:
        for unit in units:
            c = unit.slope.data.shape[0]
            unit.bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=c)
            unit.bn.beta.data[:] = rng.normal(size=c)
            unit.bn.running_mean[:] = rng.normal(size=c)
            unit.bn.running_var[:] = rng.uniform(0.5, 2.0, size=c)
            unit.slope.data[:] = rng.uniform(0.0, 0.5, size=c)
    return net


def unfolded_features(net, x):
    """Eval-mode stage features unfolded: conv, running-estimate batch norm in Tensor ops, PReLU."""
    features = []
    for units in net.stages:
        for unit in units:
            y = ad.conv2d_3x3(x, unit.weight, stride=unit.stride)
            y = composite_batch_norm(unit.bn, y, train=False)
            x = ad.prelu(y, unit.slope)
        features.append(x)
    return features


def close(got, ref):
    return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFoldedUnits:
    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_forward_and_tails_match_the_unfolded_ops(self, role, batch):
        arch = ArchConfig()
        channels = arch.teacher_channels if role == "teacher" else arch.student_channels
        net = randomized(StagedNetwork(arch, channels, substream(batch, role)), seed=batch)
        x = Tensor(np.random.default_rng(batch).normal(size=(batch, 16, 16, 1)))
        reference = unfolded_features(net, x)  # the unfolded units are gone once frozen
        ref_emb = net.head(reference[-1]).data
        freeze(net)
        feats, emb = net.forward(x)
        assert all(close(f.data, r.data) for f, r in zip(feats, reference))
        assert close(emb.data, ref_emb)
        for stage in range(1, net.num_stages + 1):
            assert close(net.tail(stage, reference[stage - 1]).data, ref_emb)

    def test_a_frozen_network_folds_once(self, monkeypatch):
        folds = []
        original = FoldedUnit.__init__
        monkeypatch.setattr(FoldedUnit, "__init__", lambda *args: folds.append(1) or original(*args))
        net = frozen_tiny_teacher()
        units = [unit for stage in net.stages for unit in stage]
        assert len(folds) == len(units)
        x = Tensor(np.random.default_rng(19).normal(size=(2, 8, 8, 1)))
        for _ in range(2):
            feats, _ = net.forward(x)
            net.tail(1, feats[0])
            freeze(net)
        assert len(folds) == len(units)
        assert all(a is b for a, b in zip((u for stage in net.stages for u in stage), units))

    def test_a_frozen_network_has_no_train_mode_forward(self):
        net = tiny_teacher()
        x = Tensor(np.random.default_rng(15).normal(size=(2, 8, 8, 1)))
        net.forward(x)
        freeze(net)
        values = [(u.wmat.copy(), u.shift.copy(), u.slope.copy()) for s in net.stages for u in s]
        head = net.head_weight.data.copy()
        ref_feats, ref_emb = net.forward(x)
        feats, emb = net.forward(x)
        assert all(np.array_equal(f.data, r.data) for f, r in zip(feats, ref_feats))
        assert np.array_equal(emb.data, ref_emb.data)
        after = [(u.wmat, u.shift, u.slope) for s in net.stages for u in s]
        assert all(np.array_equal(a, b) for v, w in zip(values, after) for a, b in zip(v, w))
        assert np.array_equal(net.head_weight.data, head)


class TestBatchNorm:
    def test_constant_batch_train_mode_gives_beta(self):
        bn = BatchNorm(3)
        bn.beta.data[:] = np.array([1.0, -2.0, 0.5])
        x = Tensor(np.full((4, 2, 2, 3), 7.0))
        out = bn.forward(x)
        np.testing.assert_allclose(
            out.data, np.broadcast_to(bn.beta.data, (4, 2, 2, 3)), atol=1e-12
        )

    def test_running_stats_updated_in_train_only(self):
        # every forward is train mode and updates them; eval mode runs folded and reads them
        assert BN_MOMENTUM == 0.9
        bn = BatchNorm(2)
        x = Tensor(np.random.default_rng(9).normal(size=(8, 1, 1, 2)) + 3.0)
        mean, var = bn.running_mean.copy(), bn.running_var.copy()
        for _ in range(2):
            bn.forward(x)
            mean = 0.9 * mean + 0.1 * x.data.mean(axis=(0, 1, 2))
            var = 0.9 * var + 0.1 * x.data.var(axis=(0, 1, 2))
            np.testing.assert_allclose(bn.running_mean, mean, atol=1e-12)
            np.testing.assert_allclose(bn.running_var, var, atol=1e-12)
        net = tiny_teacher()
        net.forward(Tensor(np.random.default_rng(10).normal(size=(2, 8, 8, 1))))
        arrays = state_arrays(net)
        before = {k: v.copy() for k, v in arrays.items()}
        freeze(net)
        net.forward(Tensor(np.random.default_rng(11).normal(size=(2, 8, 8, 1))))
        assert all(np.array_equal(v, before[k]) for k, v in arrays.items())


class TestNamedState:
    def test_checkpoint_names_in_order(self):
        teacher, student, transforms = build_reference_pair(TINY, seed=4)
        head = ClassifierHead(3, TINY.embedding_dim, "normalized", 16.0, substream(4, "cls"))
        names = list(state_arrays(student, head, transforms[0]))
        units = ["block1", "block2"]
        assert names == [
            *(f"net.{b}.{n}" for b in units
              for n in ("conv1.weight", "bn1.gamma", "bn1.beta", "prelu1.slope")),
            "net.head.weight",
            *(f"net.{b}.bn1.{n}" for b in units for n in ("running_mean", "running_var")),
            "classifier.weight",
            "transform1.proj.weight", "transform1.bn.gamma", "transform1.bn.beta",
        ]
        assert list(parameters(student, head, transforms[0])) == [
            n for n in names if "running" not in n
        ]

    def test_state_arrays_are_live_through_training_steps(self):
        net = tiny_teacher()
        arrays = state_arrays(net)
        x = Tensor(np.random.default_rng(14).normal(size=(4, 8, 8, 1)))
        before = arrays["net.block1.bn1.running_mean"].copy()
        net.forward(x)
        bn = net.stages[0][0].bn
        assert arrays["net.block1.bn1.running_mean"] is bn.running_mean
        assert not np.array_equal(bn.running_mean, before)


def composite_batch_norm(bn, x, train=True):
    """Batch norm built from elementwise Tensor ops.

    In train mode the reference for the fused op, in eval mode for the folded
    units. A per-channel statistic broadcasts against the channels-last input.
    """
    axes = tuple(range(x.ndim - 1))
    if train:
        mean = x.mean(axis=axes)
        centered = x - mean
        var = (centered * centered).mean(axis=axes)
        xhat = centered * (var + BN_EPS) ** -0.5
        m = BN_MOMENTUM
        bn.running_mean = m * bn.running_mean + (1.0 - m) * mean.data
        bn.running_var = m * bn.running_var + (1.0 - m) * var.data
    else:
        xhat = (x - bn.running_mean) * (1.0 / np.sqrt(bn.running_var + BN_EPS))
    return xhat * bn.gamma + bn.beta


class TestBatchNormMatchesComposite:
    def test_values_gradients_and_running_stats(self):
        rng = np.random.default_rng(40)
        fused, reference = BatchNorm(5), BatchNorm(5)
        for bn in (fused, reference):
            bn.gamma.data[:] = np.linspace(0.5, 1.5, 5)
            bn.beta.data[:] = np.linspace(-1.0, 1.0, 5)
            bn.running_mean = np.linspace(-0.3, 0.3, 5)
            bn.running_var = np.linspace(0.5, 2.0, 5)
        x = rng.normal(size=(6, 3, 3, 5)) * 2.0 + 1.0
        g = rng.normal(size=x.shape)
        results = []
        for bn, forward in ((fused, BatchNorm.forward), (reference, composite_batch_norm)):
            xt = Tensor(x.copy(), requires_grad=True)
            out = forward(bn, xt)
            (out * g).sum().backward()
            results.append((out.data, xt.grad, bn.gamma.grad, bn.beta.grad))
        for got, ref in zip(*results):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
        # running statistics follow the same arithmetic, so they agree exactly
        assert np.array_equal(fused.running_mean, reference.running_mean)
        assert np.array_equal(fused.running_var, reference.running_var)


class TestStudentTransform:
    def test_constant_batch_train_mode_gives_beta(self):
        tr = StudentTransform(2, 2, 5, substream(1, "tr"))
        tr.beta.data[:] = np.linspace(-1, 1, 5)
        x = Tensor(np.full((3, 2, 2, 2), 4.0))
        out = tr.forward(x)
        np.testing.assert_allclose(
            out.data, np.broadcast_to(tr.beta.data, (3, 2, 2, 5)), atol=1e-12
        )

    def test_equals_a_batch_norm_after_the_projection(self):
        tr = StudentTransform(1, 3, 5, substream(4, "tr"))
        tr.gamma.data[:] = np.linspace(0.5, 1.5, 5)
        tr.beta.data[:] = np.linspace(-1.0, 1.0, 5)
        bn = BatchNorm(5)
        bn.gamma.data[:], bn.beta.data[:] = tr.gamma.data, tr.beta.data
        x = Tensor(np.random.default_rng(16).normal(size=(4, 2, 2, 3)))
        expected = bn.forward(ad.conv2d_1x1(x, Tensor(tr.proj.data)))
        assert np.array_equal(tr.forward(x).data, expected.data)

    def test_shapes_and_channel_lift(self):
        tr = StudentTransform(1, 2, 4, substream(2, "tr"))
        x = Tensor(np.random.default_rng(11).normal(size=(3, 4, 4, 2)))
        out = tr.forward(x)
        assert out.shape == (3, 4, 4, 4)

    def test_channel_mismatch_names_stage(self):
        tr = StudentTransform(2, 3, 4, substream(3, "tr"))
        with pytest.raises(DimensionError, match="stage 2"):
            tr.forward(Tensor(np.zeros((2, 4, 4, 5))))


class TestClassifierHead:
    def test_perfect_alignment_logit_equals_scale(self):
        rng = substream(0, "cls")
        head = ClassifierHead(4, 6, mode="normalized", scale=16.0, rng=rng)
        y = 2
        f = head.weight.data[y] / np.linalg.norm(head.weight.data[y])
        logits = head.logits(Tensor(f[None, :]))
        assert logits.data[0, y] == pytest.approx(16.0, abs=1e-10)

    def test_scale_invariance_of_normalized_logits(self):
        head = ClassifierHead(5, 4, mode="normalized", scale=16.0, rng=substream(1, "cls"))
        f = np.random.default_rng(12).normal(size=(3, 4))
        l1 = head.logits(Tensor(f)).data
        l2 = head.logits(Tensor(2.0 * f)).data
        np.testing.assert_allclose(l1, l2, atol=1e-10)
        assert np.array_equal(np.argmax(l1, axis=1), np.argmax(l2, axis=1))

    def test_plain_mode_hand_logits(self):
        head = ClassifierHead(2, 3, "plain", 16.0, substream(2, "cls"))
        head.weight.data = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
        f = np.array([[2.0, 3.0, -1.0]])
        logits = head.logits(Tensor(f))
        np.testing.assert_allclose(logits.data, [[2.0 * 1 + 3 * 0 + (-1) * 2, -3.0 - 1.0]])

    def test_bias_is_structurally_absent(self):
        head = ClassifierHead(3, 4, "normalized", 16.0, substream(3, "cls"))
        assert not hasattr(head, "bias")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ClassifierHead(3, 4, "cosface", 16.0, substream(3, "cls"))


class TestReferencePair:
    def test_capacity_gap_and_exact_counts(self):
        teacher, student, transforms = build_reference_pair(ArchConfig(), seed=0)
        # counts derived from layer shapes: conv 9*cin*cout, bn 2c, prelu c per
        # unit, two units per stage, head flat*d
        assert teacher.param_count() == 1_181_792
        assert student.param_count() == 75_992
        ratio = student.param_count() / teacher.param_count()
        assert teacher.param_count() > student.param_count()
        assert 0.05 < ratio < 0.08  # echoes the order-of-magnitude capacity gap

    def test_transform_channels_match_teacher(self):
        arch = ArchConfig()
        teacher, student, transforms = build_reference_pair(arch, seed=1)
        x = Tensor(np.random.default_rng(13).normal(size=(2, 16, 16, 1)))
        feats_s, _ = student.forward(x)
        for i, (tr, f) in enumerate(zip(transforms, feats_s)):
            out = tr.forward(f)
            assert out.shape[-1] == arch.teacher_channels[i]
            assert out.shape[1:3] == f.shape[1:3]  # spatial untouched

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(num_stages=3, teacher_channels=(8, 16), student_channels=(2, 4, 8)).validate()
        with pytest.raises(ConfigError):
            ArchConfig(input_size=8, num_stages=4).validate()

    def test_freeze_marks_all_params(self):
        teacher, _, _ = build_reference_pair(TINY, seed=2)
        teacher.head_weight.grad = np.ones_like(teacher.head_weight.data)  # as after training
        freeze(teacher)
        assert takes_no_gradient(teacher)

    def test_same_seed_same_weights(self):
        t1, s1, tr1 = build_reference_pair(TINY, seed=3)
        t2, s2, tr2 = build_reference_pair(TINY, seed=3)
        for a, b in zip(parameters(t1).values(), parameters(t2).values()):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(tr1, tr2):
            assert np.array_equal(a.proj.data, b.proj.data)
