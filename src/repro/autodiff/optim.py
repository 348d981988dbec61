"""Optimizers (SGD, Adam) and gradient clipping."""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional

import numpy as np

from repro.autodiff.module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float,
                   error_if_nonfinite: bool = False) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping.

    A NaN/Inf total norm would make every comparison against ``max_norm``
    ``False``, silently letting poisoned gradients straight through to the
    optimizer.  Instead, when the total is non-finite the gradients are
    zeroed and the non-finite total is returned so callers can detect the
    poisoned batch; with ``error_if_nonfinite=True`` a ``ValueError`` is
    raised instead.  Callers should skip the optimizer step when the
    returned norm is non-finite — zeroed gradients stop the poison from
    entering the parameters, but stateful optimizers like Adam still apply
    a momentum update on zero gradients.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if not math.isfinite(total):
        if error_if_nonfinite:
            raise ValueError(f"gradient norm is non-finite ({total})")
        for p in params:
            p.grad = np.zeros_like(p.grad)
        return total
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total


class Optimizer:
    """Base class holding parameter references and zero_grad logic."""

    def __init__(self, parameters: Iterable[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[List[Any]] = None

    def step(self) -> None:
        if self.momentum and self._velocity is None:
            self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                self._velocity[index] = self.momentum * self._velocity[index] + grad
                grad = self._velocity[index]
            param.data = param.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def state_dict(self) -> dict:
        """Optimizer state (step count + per-parameter moment arrays).

        The moments are returned by reference, in parameter order.
        """
        return {"step": self._step, "m": list(self._m), "v": list(self._v)}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`.

        The moment lists must align with this optimizer's parameter list —
        resuming is only valid against the same architecture.
        """
        m, v = list(state["m"]), list(state["v"])
        if len(m) != len(self.parameters) or len(v) != len(self.parameters):
            raise ValueError(
                f"optimizer state holds {len(m)} moment pairs but this "
                f"optimizer tracks {len(self.parameters)} parameters")
        for index, param in enumerate(self.parameters):
            if tuple(m[index].shape) != tuple(param.data.shape):
                raise ValueError(
                    f"optimizer moment {index} has shape {tuple(m[index].shape)} "
                    f"but parameter has shape {tuple(param.data.shape)}")
        self._step = int(state["step"])
        self._m = [np.asarray(array) for array in m]
        self._v = [np.asarray(array) for array in v]

    def step(self) -> None:
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self._m[index] = self.beta1 * self._m[index] + (1.0 - self.beta1) * grad
            self._v[index] = self.beta2 * self._v[index] + (1.0 - self.beta2) * grad ** 2
            m_hat = self._m[index] / bias_correction1
            v_hat = self._v[index] / bias_correction2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
