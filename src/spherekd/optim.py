"""SGD with classical momentum and a piecewise-constant learning-rate decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


@dataclass(frozen=True)
class LrSchedule:
    """lr at step t is base * factor^(number of decay points <= t)."""

    base_lr: float
    decay_steps: tuple[int, ...] = ()
    factor: float = 0.1

    def at(self, step: int) -> float:
        passed = sum(1 for d in self.decay_steps if d <= step)
        return self.base_lr * self.factor**passed


class SgdMomentum:
    """v <- mu * v + g; p <- p - lr * v, per named parameter."""

    def __init__(self, params: dict[str, Tensor], schedule: LrSchedule, momentum: float = 0.9):
        if schedule.base_lr <= 0:
            raise ContractError("learning rate must be positive")
        self.params = dict(params)
        self.schedule = schedule
        self.momentum = float(momentum)
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> float:
        """Apply one update; returns the learning rate that was used."""
        lr = self.schedule.at(self.step_count)
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"parameter {name!r} has no gradient")
            v = self.momentum * self.velocity[name] + p.grad
            self.velocity[name] = v
            p.data = p.data - lr * v
        self.step_count += 1
        return lr
