"""Adam parameter updates with bias correction.

Operates on any ordered ``{name: Tensor}`` mapping; moment buffers are keyed
by name and shape-matched to their parameters.  Gradients are read, never
modified -- the caller decides when to zero them.  The moment decay rates
and the denominator's epsilon are the module constants ``BETA1``, ``BETA2``
and ``EPSILON``.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class AdamState:
    """Per-parameter first/second moment buffers plus the step counter."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 3e-5):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(state: AdamState, params: dict[str, Tensor]) -> None:
    """One bias-corrected Adam update, in place; grads are left untouched."""
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p.data -= state.learning_rate * mhat / (np.sqrt(vhat) + EPSILON)


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most ``max_norm``."""
    norm = global_grad_norm(params)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / (norm + 1e-12)
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm
