"""SGD momentum semantics and the learning-rate schedule."""

import numpy as np
import pytest

from spherekd.autodiff import Tensor
from spherekd.errors import ContractError
from spherekd.optim import LrSchedule, SgdMomentum


def single_param(value=1.0):
    p = Tensor(np.array([value]), requires_grad=True)
    return {"p": p}, p


class TestSgdStep:
    def test_vanilla_step(self):
        params, p = single_param(1.0)
        opt = SgdMomentum(params, LrSchedule(0.1, (), 0.1), momentum=0.0)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.9, abs=1e-15)

    def test_momentum_hand_recursion(self):
        params, p = single_param(1.0)
        opt = SgdMomentum(params, LrSchedule(0.1, (), 0.1), momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=0.9
        assert opt.velocity["p"][0] == pytest.approx(1.0)
        assert p.data[0] == pytest.approx(0.9, abs=1e-15)
        p.grad = np.array([1.0])
        opt.step()  # v=1.9, p=0.71
        assert opt.velocity["p"][0] == pytest.approx(1.9)
        assert p.data[0] == pytest.approx(0.71, abs=1e-15)

    def test_zero_grads_fixed_point(self):
        params, p = single_param(2.5)
        opt = SgdMomentum(params, LrSchedule(0.1, (), 0.1), momentum=0.9)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] == 2.5  # v starts at 0, stays 0

    def test_zero_grad_with_nonzero_velocity_decays(self):
        params, p = single_param(1.0)
        opt = SgdMomentum(params, LrSchedule(0.1, (), 0.1), momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # v=1
        p.grad = np.zeros(1)
        opt.step()  # v=0.5, p moves by -lr*v
        assert opt.velocity["p"][0] == pytest.approx(0.5)
        assert p.data[0] == pytest.approx(1.0 - 0.1 - 0.05, abs=1e-15)

    def test_missing_grad_raises(self):
        params, p = single_param()
        opt = SgdMomentum(params, LrSchedule(0.1, (), 0.1), momentum=0.9)
        with pytest.raises(ContractError, match="p"):
            opt.step()

    def test_step_count_increments(self):
        params, p = single_param()
        opt = SgdMomentum(params, LrSchedule(0.1, (), 0.1), momentum=0.9)
        p.grad = np.zeros(1)
        opt.step()
        p.grad = np.zeros(1)
        opt.step()
        assert opt.step_count == 2


class TestLrSchedule:
    def test_piecewise_decay(self):
        sched = LrSchedule(0.1, decay_steps=(5, 8), factor=0.1)
        assert sched.at(0) == pytest.approx(0.1)
        assert sched.at(4) == pytest.approx(0.1)
        assert sched.at(5) == pytest.approx(0.01)
        assert sched.at(7) == pytest.approx(0.01)
        assert sched.at(8) == pytest.approx(0.001)

    def test_applied_during_steps(self):
        params, p = single_param(1.0)
        opt = SgdMomentum(params, LrSchedule(1.0, decay_steps=(1,), factor=0.5), momentum=0.0)
        p.grad = np.array([1.0])
        lr0 = opt.step()
        p.grad = np.array([1.0])
        lr1 = opt.step()
        assert (lr0, lr1) == (1.0, 0.5)

    def test_invalid_lr(self):
        with pytest.raises(ContractError):
            SgdMomentum({}, LrSchedule(0.0, (), 0.1), momentum=0.9)
