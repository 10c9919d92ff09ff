"""Tensor engine: op semantics, gradient oracles, and graph invariants."""

import inspect
import weakref

import numpy as np
import pytest

from spherekd import autodiff as ad
from spherekd.autodiff import Tensor, check_finite, topo_order
from spherekd.errors import ConfigError, ContractError, DimensionError, NumericError
from spherekd.gradcheck import check_gradients, relative_error
from spherekd.nets import ArchConfig


class TestMatmul:
    def test_identity(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_sum(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = check_gradients(lambda: (ad.matmul(a, b) ** 2).sum(), [a, b])
        assert err < 1e-6


class TestConv1x1:
    def test_identity_weight(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 3, 4)))
        out = ad.conv2d_1x1(x, Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_channel_map(self):
        x = Tensor(np.array([3.0, 4.0]).reshape(1, 1, 2))
        w = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        out = ad.conv2d_1x1(x, w)
        np.testing.assert_array_equal(out.data.reshape(-1), [3.0, 8.0])

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv2d_1x1(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((4, 5))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        assert ad.conv2d_1x1(x, w).shape == (4, 4, 5)
        err = check_gradients(lambda: (ad.conv2d_1x1(x, w) ** 2).mean(), [x, w])
        assert err < 1e-6


class TestConv3x3:
    def test_zero_weight_annihilates(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 5, 5, 2)))
        out = ad.conv2d_3x3(x, Tensor(np.zeros((3, 3, 2, 3))), stride=1)
        assert out.shape == (1, 5, 5, 3)
        np.testing.assert_array_equal(out.data, np.zeros((1, 5, 5, 3)))

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 6, 6, 1)))
        w = np.zeros((3, 3, 1, 1))
        w[1, 1, 0, 0] = 1.0  # center tap
        out = ad.conv2d_3x3(x, Tensor(w), stride=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_stride2_output_shape(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 8, 8, 2)))
        out = ad.conv2d_3x3(x, Tensor(rng.normal(size=(3, 3, 2, 3))), stride=2)
        assert out.shape == (1, 4, 4, 3)

    def test_odd_size_stride2(self):
        x = Tensor(np.ones((1, 7, 7, 1)))
        out = ad.conv2d_3x3(x, Tensor(np.ones((3, 3, 1, 1))), stride=2)
        assert out.shape == (1, 4, 4, 1)

    def test_unsupported_stride(self):
        with pytest.raises(ConfigError):
            ad.conv2d_3x3(Tensor(np.ones((1, 4, 4, 1))), Tensor(np.ones((3, 3, 1, 1))), stride=3)

    def test_single_map_raises(self):
        # the one input form is a batch of maps; a single map is not lifted
        w = Tensor(np.ones((3, 3, 2, 3)))
        with pytest.raises(DimensionError, match=r"\[B,h,w,2\]"):
            ad.conv2d_3x3(Tensor(np.ones((5, 5, 2))), w, stride=2)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 8, 8, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2, 2)), requires_grad=True)
        err = check_gradients(lambda: (ad.conv2d_3x3(x, w, stride=2) ** 2).mean(), [x, w])
        assert err < 1e-6


class TestL2Normalize:
    def test_three_four_five(self):
        out = ad.l2_normalize(Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_unit_vector_fixed_point(self):
        v = np.array([0.6, 0.8])
        out = ad.l2_normalize(Tensor(v))
        np.testing.assert_allclose(out.data, v, rtol=0, atol=1e-15)

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(size=8) * rng.uniform(0.1, 100)
            norm = np.linalg.norm(ad.l2_normalize(Tensor(x)).data)
            assert abs(norm - 1.0) <= 1e-12

    def test_zero_vector_guard(self):
        out = ad.l2_normalize(Tensor(np.zeros(4)))
        assert np.all(np.isfinite(out.data))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=6))
        err = check_gradients(lambda: (ad.l2_normalize(x) * w).sum(), [x])
        assert err < 1e-6


class TestCosine:
    def test_self_similarity(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=5)
        assert ad.cosine(Tensor(u), Tensor(u)).item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        c = ad.cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
        assert c.item() == pytest.approx(0.0, abs=1e-15)

    def test_antipodal(self):
        rng = np.random.default_rng(10)
        u = rng.normal(size=7)
        assert ad.cosine(Tensor(u), Tensor(-u)).item() == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.normal(size=6), rng.normal(size=6)
            alpha, beta = rng.uniform(0.01, 100, size=2)
            c_ab = ad.cosine(Tensor(a), Tensor(b)).item()
            c_ba = ad.cosine(Tensor(b), Tensor(a)).item()
            c_scaled = ad.cosine(Tensor(alpha * a), Tensor(beta * b)).item()
            assert abs(c_ab - c_ba) <= 1e-12
            assert abs(c_ab - c_scaled) <= 1e-12

    def test_clamped_range(self):
        a = np.full(4, 1e-200)
        assert -1.0 <= ad.cosine(Tensor(a), Tensor(a)).item() <= 1.0


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.softmax_cross_entropy(Tensor(np.zeros((1, 4))), [2])
        assert loss.shape == (1,)
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_extreme_logits_stable(self):
        loss = ad.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert 0.0 <= loss.item() < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_value_and_grad_vs_high_precision(self):
        # oracle: evaluate the definition directly at 50 decimal digits
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(12)
        logits = rng.normal(size=7) * 3.0
        label = 4
        exps = [mpmath.e**z for z in logits]
        total = sum(exps)
        expected = -mpmath.log(exps[label] / total)
        expected_grad = np.array(
            [float(exps[c] / total) - (1.0 if c == label else 0.0) for c in range(7)]
        )

        t = Tensor(logits[None, :], requires_grad=True)
        loss = ad.softmax_cross_entropy(t, [label]).sum()
        loss.backward()
        assert relative_error(np.array(loss.item()), np.array(float(expected))) < 1e-8
        assert relative_error(t.grad[0], expected_grad) < 1e-8

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(5, 6))
        labels = rng.integers(0, 6, size=5)
        batched = ad.softmax_cross_entropy(Tensor(logits), labels)
        rows = [
            ad.softmax_cross_entropy(Tensor(logits[i : i + 1]), labels[i : i + 1]).item()
            for i in range(5)
        ]
        np.testing.assert_allclose(batched.data, rows, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "logits, labels", [(np.zeros(4), 2), (np.zeros(4), [2]), (np.zeros((2, 4)), [1])]
    )
    def test_other_forms_raise(self, logits, labels):
        # 1-d logits, and labels that are not one index per row
        with pytest.raises(DimensionError):
            ad.softmax_cross_entropy(Tensor(logits), labels)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(14).normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_form(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=0, atol=1e-15)

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_leaves_without_requires_grad_receive_none(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        (a * b).sum().backward()
        assert a.grad is not None
        assert b.grad is None
        c = Tensor(np.full(3, 2.0))
        constant = (b * c).sum()
        constant.backward()  # nothing requires a gradient, so nothing is walked
        assert constant.grad is None and b.grad is None and c.grad is None

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x + x
        z = (y * y).sum()  # z = 4 x^2, dz/dx = 8x = 16
        z.backward()
        assert x.grad[0] == pytest.approx(16.0, abs=1e-12)

    def test_topo_visits_every_node_once(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2.0
        z = y + y
        loss = (z * y).sum()
        order = topo_order(loss)
        ids = [id(n) for n in order]
        assert len(ids) == len(set(ids))
        assert id(loss) in ids and id(x) in ids and id(y) in ids

    def test_backward_frees_interior_nodes_and_keeps_leaf_grads(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 4, 4, 3)))
        w = Tensor(rng.normal(size=(3, 3, 3, 5)), requires_grad=True)
        gamma = Tensor(np.ones(5), requires_grad=True)
        beta = Tensor(np.zeros(5), requires_grad=True)
        slope = Tensor(np.full(5, 0.25), requires_grad=True)
        y, _, _ = ad.batch_norm(ad.conv2d_3x3(x, w), gamma, beta, 1e-5)
        loss = (ad.prelu(y, slope) ** 2).mean()
        nodes = topo_order(loss)
        interior = [n for n in nodes if n._parents]
        assert len(interior) == 5  # conv, batch norm, prelu, square, mean
        loss.backward()
        for node in interior:
            assert node._parents == () and node.grad is None
            assert node._backward.__closure__ is None  # holds no saved array
        assert all(leaf.grad is not None for leaf in (w, gamma, beta, slope))
        assert x.grad is None

    def test_conv_columns_die_in_backward(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(2, 4, 4, 3)))
        w = Tensor(rng.normal(size=(3, 3, 3, 5)), requires_grad=True)
        out = ad.conv2d_3x3(x, w)
        saved = [c.cell_contents for c in out._backward.__closure__]
        columns = [a for a in saved if isinstance(a, np.ndarray) and a.shape == (2 * 4 * 4, 9 * 3)]
        assert len(columns) == 1
        ref = weakref.ref(columns[0])
        del saved, columns
        loss = out.sum()
        assert ref() is not None
        loss.backward()
        assert ref() is None

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(ContractError, match="already used"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, -4.0])

    def test_backward_through_a_used_shared_node_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = x * x
        y.sum().backward()
        with pytest.raises(ContractError, match="already used"):
            (y * 2.0).sum().backward()

    def test_backward_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(15)
            x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            loss = (ad.l2_normalize(ad.matmul(x, w)) ** 2).mean() + (x * x).sum() * 0.1
            loss.backward()
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


def nine_tap_conv(x, w, g, stride):
    """Zero-padded 3x3 conv tap by tap over all nine taps, with both gradients.

    Returns (out, d<out*g>/dx, d<out*g>/dw) for an upstream gradient g.
    """
    batch, h, wd, _ = x.shape
    h_out, w_out = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xpad = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((batch, h_out, w_out, w.shape[3]))
    gpad = np.zeros_like(xpad)
    gw = np.zeros_like(w)
    for di in range(3):
        for dj in range(3):
            rows = slice(di, di + (h_out - 1) * stride + 1, stride)
            cols = slice(dj, dj + (w_out - 1) * stride + 1, stride)
            window = xpad[:, rows, cols, :]
            out += np.einsum("bijc,co->bijo", window, w[di, dj])
            gpad[:, rows, cols, :] += np.einsum("bijo,co->bijc", g, w[di, dj])
            gw[di, dj] = np.einsum("bijc,bijo->co", window, g)
    return out, gpad[:, 1 : h + 1, 1 : wd + 1, :], gw


def default_unit_shapes():
    """(input side, c_in, c_out, stride) of every conv unit of the default pair."""
    arch = ArchConfig()
    shapes = []
    for channels in (arch.teacher_channels, arch.student_channels):
        side, c_prev = arch.input_size, arch.in_channels
        for c in channels:
            shapes.append((side, c_prev, c, 2))
            side = (side + 1) // 2
            shapes += [(side, c, c, 1)] * (arch.block_depth - 1)
            c_prev = c
    return shapes


class TestConv3x3MatchesNineTaps:
    """The im2col conv equals the direct nine-tap sum at every default unit shape."""

    @pytest.mark.parametrize("side,c_in,c_out,stride", default_unit_shapes())
    def test_forward_and_gradients(self, side, c_in, c_out, stride):
        rng = np.random.default_rng(side * 1000 + c_in * 10 + stride)
        x = Tensor(rng.normal(size=(4, side, side, c_in)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, c_in, c_out)), requires_grad=True)
        out = ad.conv2d_3x3(x, w, stride=stride)
        g = rng.normal(size=out.shape)
        (out * g).sum().backward()
        ref_out, ref_gx, ref_gw = nine_tap_conv(x.data, w.data, g, stride)
        for got, ref in ((out.data, ref_out), (x.grad, ref_gx), (w.grad, ref_gw)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("side,c_in,c_out,stride", default_unit_shapes())
    def test_columns_equal_the_sliding_window_gather(self, side, c_in, c_out, stride):
        x = np.random.default_rng(side * 1000 + c_in).normal(size=(3, side, side, c_in))
        h_out = (side - 1) // stride + 1
        taps = ad._live_taps(side, h_out)
        xpad = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        windows = np.lib.stride_tricks.sliding_window_view(xpad, (3, 3), axis=(1, 2))
        windows = windows[:, ::stride, ::stride, :, taps, taps].transpose(0, 1, 2, 4, 5, 3)
        gather = windows.reshape(3 * h_out * h_out, -1)
        columns = ad._columns(x, stride)
        assert columns.shape == gather.shape
        assert columns.tobytes() == gather.tobytes()

    def test_frozen_weight_gets_no_gradient(self):
        rng = np.random.default_rng(30)
        x = Tensor(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2, 3)))
        ad.conv2d_3x3(x, w, stride=2).sum().backward()
        assert x.grad is not None and w.grad is None


class TestPrelu:
    def test_positive_passthrough_negative_scaled(self):
        x = Tensor(np.array([[2.0, -2.0], [0.5, -0.5]]))
        s = Tensor(np.array([0.25, 0.1]))
        out = ad.prelu(x, s)
        np.testing.assert_allclose(out.data, [[2.0, -0.2], [0.5, -0.05]], atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(16)
        raw = rng.normal(size=(3, 4))
        x = Tensor(raw + 0.3 * np.sign(raw), requires_grad=True)
        s = Tensor(np.full(4, 0.25), requires_grad=True)
        err = check_gradients(lambda: (ad.prelu(x, s) ** 2).mean(), [x, s])
        assert err < 1e-6


class TestValidation:
    def test_check_finite_passes(self):
        check_finite(Tensor(np.ones(3)), "ok")

    def test_check_finite_raises(self):
        with pytest.raises(NumericError):
            check_finite(Tensor(np.array([1.0, np.nan])), "bad")

    def test_tensor_shape_data_consistency(self):
        t = Tensor(np.ones((2, 3)))
        assert int(np.prod(t.shape)) == t.data.size


class TestFiniteDifferenceProperty:
    """Every differentiable op agrees with central differences at 1e-4."""

    def test_full_suite(self):
        from spherekd.gradcheck import run_suite

        results = run_suite(group="all", instances=5)
        failing = [r for r in results if not r.passed]
        assert not failing, f"gradient checks failed: {[r.name for r in failing]}"

    def test_corrupted_backward_is_detected(self, monkeypatch):
        # mutation check: a wrong backward rule must trip the checker
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        original = Tensor.__mul__

        def corrupted_mul(self, other):
            out = original(self, other)
            if out._backward is not None:
                true_backward = out._backward

                def wrong(g):
                    true_backward(1.5 * g)

                out._backward = wrong
            return out

        monkeypatch.setattr(Tensor, "__mul__", corrupted_mul)
        err = check_gradients(lambda: (x * x).sum(), [x])
        assert err > 1e-4


# ops that return a Tensor but build no graph node, so have nothing to check
NOT_DIFFERENTIABLE = {"check_finite", "Tensor.detach"}


def _returns_tensor(fn) -> bool:
    ann = inspect.signature(fn).return_annotation
    if isinstance(ann, str):
        ann = ann.strip("'\"")  # a method's quoted "Tensor" stays quoted under postponed annotations
        return ann.startswith(("Tensor", "tuple[Tensor"))
    return ann is Tensor


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def ops_without_gradcheck_case(monkeypatch) -> list[str]:
    """Public autodiff functions and Tensor methods returning a Tensor that no gradcheck case's loss calls.

    Methods are named `Tensor.<name>`; an operator counts under its own
    dunder, so `0.5 * t` covers `__rmul__` and `t * 0.5` covers `__mul__`.
    """
    from spherekd import gradcheck

    ops = {
        name: (ad, name, fn)
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and not name.startswith("_") and _returns_tensor(fn)
    }
    ops |= {
        f"Tensor.{name}": (Tensor, name, fn)
        for name, fn in vars(Tensor).items()
        if inspect.isfunction(fn) and _public(name) and _returns_tensor(fn)
    }
    called, covered = set(), set()
    for label, (owner, name, fn) in ops.items():
        if label in NOT_DIFFERENTIABLE:
            continue

        def spy(*args, _label=label, _fn=fn, **kwargs):
            called.add(_label)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    for case in gradcheck.CASES:
        _, build = case.build(np.random.default_rng(0))
        called.clear()  # only what the checked loss calls counts
        build()
        covered |= called
    return sorted(set(ops) - NOT_DIFFERENTIABLE - covered)


class TestEveryOpHasAGradcheckCase:
    def test_every_public_op_is_checked(self, monkeypatch):
        assert ops_without_gradcheck_case(monkeypatch) == []

    def test_the_tensor_methods_are_spied_on(self, monkeypatch):
        monkeypatch.setattr("spherekd.gradcheck.CASES", [])
        missing = ops_without_gradcheck_case(monkeypatch)
        assert {"Tensor.__rmul__", "Tensor.__rsub__", "Tensor.sum", "Tensor.reshape"} <= set(missing)
        assert "Tensor.detach" not in missing

    def test_a_new_op_without_a_case_is_caught(self, monkeypatch):
        def doubled(x: Tensor) -> Tensor:
            return Tensor._lift(x) * 2.0

        monkeypatch.setattr(ad, "doubled", doubled, raising=False)
        assert ops_without_gradcheck_case(monkeypatch) == ["doubled"]

    def test_a_new_method_without_a_case_is_caught(self, monkeypatch):
        def halved(self) -> Tensor:
            return self * 0.5

        monkeypatch.setattr(Tensor, "halved", halved, raising=False)
        assert ops_without_gradcheck_case(monkeypatch) == ["Tensor.halved"]
