"""Optimisers for the autograd substrate (Adam on an :class:`Optimizer` base)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimiser handling parameter registration and gradient clearing."""

    def __init__(self, parameters: Iterable[Parameter], lr: float, weight_decay: float = 0.0) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.lr = lr
        self.weight_decay = weight_decay

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _grad(self, param: Parameter) -> np.ndarray | None:
        if param.grad is None:
            return None
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        return grad


class Adam(Optimizer):
    """Adam optimiser (the paper trains every model with Adam, lr=1e-3)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr, weight_decay)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Scratch buffers make the update allocation-free (bar the final
        # ``param.data`` rebind, kept so external references to the old array
        # — snapshots, serving indexes — stay valid).  The arithmetic below
        # preserves the exact operation order of the allocating formulation,
        # so the trajectory is bit-identical to earlier revisions.
        self._scratch_m = [np.empty_like(p.data) for p in self.parameters]
        self._scratch_v = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v, sm, sv in zip(
            self.parameters, self._m, self._v, self._scratch_m, self._scratch_v
        ):
            grad = self._grad(param)
            if grad is None:
                continue
            m *= self.beta1
            np.multiply(1.0 - self.beta1, grad, out=sm)
            m += sm
            v *= self.beta2
            np.multiply(1.0 - self.beta2, grad, out=sv)
            sv *= grad
            v += sv
            np.true_divide(m, bias1, out=sm)           # m_hat
            np.true_divide(v, bias2, out=sv)           # v_hat
            np.multiply(self.lr, sm, out=sm)           # lr * m_hat
            np.sqrt(sv, out=sv)
            sv += self.eps
            np.true_divide(sm, sv, out=sm)
            param.data = param.data - sm
