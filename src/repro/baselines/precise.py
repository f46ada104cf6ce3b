"""Precise software reference implementations (paper §2.2.1, Eq. 1-5).

These are the ground truth every approximation is compared against, and
the functions whose values are baked into VLP LUTs.  All are numerically
stable, vectorized numpy implementations.
"""

from __future__ import annotations

import numpy as np

#: sqrt(2/pi), the constant in the tanh-form GELU (paper Eq. 4/5).
_GELU_TANH_C = 0.7978845608028654


def exp(x: np.ndarray) -> np.ndarray:
    """Elementwise exponential (overflow-safe clamp at float64 limits)."""
    return np.exp(np.clip(np.asarray(x, dtype=np.float64), -745.0, 709.0))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / Swish: ``x * sigmoid(x)`` (paper Eq. 2)."""
    x = np.asarray(x, dtype=np.float64)
    return x * sigmoid(x)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU via the error function (paper Eq. 3).

    scipy is imported here, not with the module: only the accuracy
    experiments and GELU LUTs evaluate it.
    """
    from scipy.special import erf

    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The common tanh approximation of GELU (paper Eq. 4)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(_GELU_TANH_C * (x + 0.044715 * x ** 3)))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax (paper Eq. 1)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sin(x: np.ndarray) -> np.ndarray:
    """Elementwise sine (for RoPE support, paper §7.1)."""
    return np.sin(np.asarray(x, dtype=np.float64))


def cos(x: np.ndarray) -> np.ndarray:
    """Elementwise cosine (for RoPE support, paper §7.1)."""
    return np.cos(np.asarray(x, dtype=np.float64))


#: Name → reference callable, used when building LUTs and registries.
FUNCTIONS = {
    "exp": exp,
    "sigmoid": sigmoid,
    "silu": silu,
    "gelu": gelu,
    "gelu_tanh": gelu_tanh,
    "sin": sin,
    "cos": cos,
}


def get_function(name: str):
    """Look up a reference nonlinear function by name."""
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise KeyError(f"unknown nonlinear function {name!r}; "
                       f"choose from {sorted(FUNCTIONS)}") from None
