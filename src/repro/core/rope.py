"""Rotary positional embeddings through VLP (paper §7.1 extension).

The paper lists RoPE as unsupported and sketches the fix: "Mugi can
either approximate the required sine and cosine functions, though the
utilization might be low due to its sparse nature, or offload them to
external hardware."  This module implements the first option:

1. the rotation angles ``position / base**(2i/d)`` are *range-reduced*
   to ``[-pi, pi)`` (a subtract-multiple-of-2π vector operation);
2. sin/cos of the reduced angles run through the standard VLP LUT
   pipeline (two LUTs — or one LUT exploiting ``cos(x) = sin(x + π/2)``);
3. the rotation itself is four multiplies + two adds on the vector array.

``precise_rope`` is the reference; ``vlp_rope`` the VLP version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .approx import VLPApproxConfig, VLPApproximator


@dataclass(frozen=True)
class RopeConfig:
    """Rotary-embedding geometry.

    ``head_dim`` must be even; ``base`` is the standard 10000.
    VLP windows: angles live in [-pi, pi), i.e. exponents <= 1, so a LUT
    window topping out at exponent 1 covers everything.
    """

    head_dim: int
    base: float = 10000.0
    mantissa_bits: int = 3
    lut_size: int = 12
    max_exp: int = 1

    def __post_init__(self):
        if self.head_dim % 2:
            raise ConfigError("RoPE head_dim must be even")


def rope_angles(positions: np.ndarray, config: RopeConfig) -> np.ndarray:
    """Rotation angles θ[p, i] = p / base**(2i/d) for each pair lane."""
    positions = np.asarray(positions, dtype=np.float64)
    half = config.head_dim // 2
    inv_freq = config.base ** (-np.arange(half) * 2.0 / config.head_dim)
    return positions[..., None] * inv_freq


def range_reduce(angles: np.ndarray) -> np.ndarray:
    """Fold angles into [-pi, pi) — the vector-array pre-pass."""
    two_pi = 2.0 * np.pi
    return (np.asarray(angles) + np.pi) % two_pi - np.pi


def _rotate(x: np.ndarray, sin_v: np.ndarray, cos_v: np.ndarray
            ) -> np.ndarray:
    """Apply the pairwise rotation given sin/cos of the angles."""
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos_v - x2 * sin_v
    out[..., 1::2] = x1 * sin_v + x2 * cos_v
    return out


def precise_rope(x: np.ndarray, positions: np.ndarray,
                 config: RopeConfig) -> np.ndarray:
    """Reference rotary embedding.

    Parameters
    ----------
    x:
        ``[..., seq, head_dim]`` query or key tensor.
    positions:
        ``[seq]`` (or broadcastable) token positions.
    """
    angles = rope_angles(positions, config)
    return _rotate(x, np.sin(angles), np.cos(angles))


def vlp_rope(x: np.ndarray, positions: np.ndarray, config: RopeConfig
             ) -> np.ndarray:
    """Rotary embedding with VLP-approximated sin/cos.

    The angles are range-reduced, then both trigonometric factors come
    from VLP LUT lookups (signed tables, exponent window topping at 1).
    """
    angles = range_reduce(rope_angles(positions, config))
    sin_approx = VLPApproximator(VLPApproxConfig(
        op="sin", mantissa_bits=config.mantissa_bits,
        lut_size=config.lut_size, max_exp=config.max_exp))
    cos_approx = VLPApproximator(VLPApproxConfig(
        op="cos", mantissa_bits=config.mantissa_bits,
        lut_size=config.lut_size, max_exp=config.max_exp))
    return _rotate(x, sin_approx(angles), cos_approx(angles))
