"""Neural-network layers with explicit forward/backward (numpy).

The paper's workload evaluation runs HuggingFace models on GPUs; this
substrate replaces them with small, trainable, from-scratch transformers.
Each layer caches what its backward pass needs; ``backward`` consumes the
cache (single use per forward).
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self):
        return self.value.shape


class Module:
    """Minimal module base: parameter collection and grad reset."""

    def parameters(self) -> list[Parameter]:
        """All trainable parameters, recursively."""
        params = []
        for attr in self.__dict__.values():
            if isinstance(attr, Parameter):
                params.append(attr)
            elif isinstance(attr, Module):
                params.extend(attr.parameters())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` over the last axis."""

    def __init__(self, in_features: int, out_features: int, rng,
                 bias: bool = True):
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(rng.standard_normal(
            (out_features, in_features)) * scale)
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.weight.value.T
        if self.bias is not None:
            y = y + self.bias.value
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        flat_x = x.reshape(-1, x.shape[-1])
        flat_dy = dy.reshape(-1, dy.shape[-1])
        self.weight.grad += flat_dy.T @ flat_x
        if self.bias is not None:
            self.bias.grad += flat_dy.sum(axis=0)
        self._x = None
        return dy @ self.weight.value


class Embedding(Module):
    """Token-id → vector lookup."""

    def __init__(self, vocab_size: int, dim: int, rng):
        self.weight = Parameter(rng.standard_normal((vocab_size, dim)) * 0.02)
        self._ids = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = ids
        return self.weight.value[ids]

    def backward(self, dy: np.ndarray) -> None:
        np.add.at(self.weight.grad, self._ids, dy)
        self._ids = None


class RMSNorm(Module):
    """Root-mean-square layer norm (the Llama-2 normalization)."""

    def __init__(self, dim: int, eps: float = 1e-6):
        self.gain = Parameter(np.ones(dim))
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        ms = np.mean(x * x, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(ms + self.eps)
        xhat = x * inv
        self._cache = (x, inv, xhat)
        return xhat * self.gain.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, inv, xhat = self._cache
        self._cache = None
        d = x.shape[-1]
        self.gain.grad += (dy * xhat).reshape(-1, d).sum(axis=0)
        dxhat = dy * self.gain.value
        # d/dx of x * (mean(x^2)+eps)^(-1/2).
        dot = np.sum(dxhat * x, axis=-1, keepdims=True)
        return inv * dxhat - (inv ** 3 / d) * x * dot


class LayerNorm(Module):
    """Standard layer norm (the Whisper/ViT normalization)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv
        self._cache = (inv, xhat)
        return xhat * self.gain.value + self.bias.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        inv, xhat = self._cache
        self._cache = None
        d = xhat.shape[-1]
        self.gain.grad += (dy * xhat).reshape(-1, d).sum(axis=0)
        self.bias.grad += dy.reshape(-1, d).sum(axis=0)
        dxhat = dy * self.gain.value
        return inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
