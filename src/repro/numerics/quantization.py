"""Weight-only and KV-cache quantization (paper §2.3.2, §2.3.3).

LLM inference pairs BF16 activations with sub-byte weights (WOQ, e.g.
GPTQ/AWQ-style BF16-INT4) and quantized KV cache (KVQ, e.g. KVQuant).
Mugi's GEMM datapath consumes exactly this asymmetric pairing: INT4
sign-magnitude weights on the rows, BF16 tokens on the columns.

This module implements group-wise symmetric INT quantization (the common
WOQ/KVQ recipe) plus the dequantization epilogue that Mugi executes on its
vector array after GEMM (paper §4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FormatError
from .bfloat16 import to_bfloat16


#: Elements one quantization block spans.  ``quantize_groupwise`` reads
#: its input in blocks of whole groups near this size (512 KiB of
#: float64), so its temporaries stay that small whatever the input.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class QuantizedTensor:
    """A group-quantized integer tensor with its dequantization scales.

    Attributes
    ----------
    q:
        Integer codes, same shape as the source tensor (int8 storage).
    scales:
        Per-group scales; shape equals the source shape with the quantized
        axis reduced to ``ceil(n / group_size)``.
    axis:
        The axis along which groups were formed.
    group_size:
        Elements per quantization group along ``axis``.
    bits:
        Bit width (4 or 8); the symmetric range is ``±(2**(bits-1) - 1)``.
    """

    q: np.ndarray
    scales: np.ndarray
    axis: int
    group_size: int
    bits: int

    @property
    def qmax(self) -> int:
        """Largest representable magnitude (sign-magnitude symmetric)."""
        return (1 << (self.bits - 1)) - 1

    def dequantize(self) -> np.ndarray:
        """Reconstruct float values: ``q * scale`` broadcast per group.

        The one array this allocates is the float64 result: it is
        scaled in place through a grouped view (the ragged last group on
        its own), so the call peaks at about its output's size.
        """
        q, axis, size = self.q, self.axis, self.group_size
        n = q.shape[axis]
        outer, inner = _outer_inner(q.shape, axis)
        out = q.astype(np.float64, order="C")
        values = out.reshape(outer, n, inner)
        scales = self.scales.reshape(outer, self.scales.shape[axis], inner)
        full = n // size
        grouped = values[:, :full * size].reshape(outer, full, size, inner)
        grouped *= scales[:, :full, None]
        if full * size < n:
            ragged = values[:, full * size:]
            ragged *= scales[:, full:]
        return out


def _outer_inner(shape: tuple, axis: int) -> tuple[int, int]:
    """Element counts before and after ``axis``: the array viewed as
    ``(outer, shape[axis], inner)``."""
    return math.prod(shape[:axis]), math.prod(shape[axis + 1:])


def quantize_groupwise(x: np.ndarray, bits: int = 4, group_size: int = 128,
                       axis: int = -1) -> QuantizedTensor:
    """Symmetric group-wise quantization to ``bits``-bit sign-magnitude.

    Each group of ``group_size`` consecutive elements along ``axis`` shares
    one scale ``max|x| / qmax`` (1 for an all-zero group); codes are
    ``round(x / scale)`` clamped to ``[-qmax, qmax]``.  The last group
    may be ragged.

    The input is read in blocks of whole groups of about
    :data:`_BLOCK_ELEMENTS` elements: leading rows of the
    ``(outer, n, inner)`` view of ``x`` around ``axis`` while a row
    fits in a block, else whole groups of one row.  Each block is
    divided, rounded and clipped in place in one float64 buffer and
    cast straight into the int8 codes, so past its float64 input and
    the returned codes and scales the call holds about one block, never
    a copy of the input (unless ``x`` has more than two axes and is not
    contiguous, where forming that view may copy it once).

    Parameters
    ----------
    x:
        Float tensor to quantize, with at least one axis.
    bits:
        4 (WOQ/KVQ default) or 8.
    group_size:
        Group length; ``group_size <= 0`` means one group spanning the axis.
    axis:
        Axis along which to group, in ``[-x.ndim, x.ndim)``.

    Raises
    ------
    FormatError
        For ``bits`` other than 4 or 8, a 0-d input, an out-of-range
        ``axis``, an empty group axis, or a NaN or infinite value (a
        group's scale would be meaningless and its codes wrong).
    """
    if bits not in (4, 8):
        raise FormatError("quantize_groupwise supports 4- or 8-bit codes")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise FormatError("quantize_groupwise needs at least one axis")
    if not -x.ndim <= axis < x.ndim:
        raise FormatError(
            f"axis {axis} is out of range for a {x.ndim}-D input")
    axis %= x.ndim
    n = x.shape[axis]
    if n == 0:
        raise FormatError("quantize_groupwise needs a non-empty group axis")
    if group_size <= 0 or group_size > n:
        group_size = n

    qmax = (1 << (bits - 1)) - 1
    groups = -(-n // group_size)
    outer, inner = _outer_inner(x.shape, axis)
    values = x.reshape(outer, n, inner)
    q = np.empty(values.shape, dtype=np.int8)
    scales = np.empty((outer, groups, inner))
    if n * inner <= _BLOCK_ELEMENTS:
        rows, span = _BLOCK_ELEMENTS // max(n * inner, 1), n
    else:
        rows = 1
        span = max(_BLOCK_ELEMENTS // (group_size * inner), 1) * group_size
    ragged = n - n % group_size  # Where the ragged last group starts.
    for start in range(0, outer, rows):
        block = slice(start, start + rows)
        for lo in range(0, n, span):
            hi = min(lo + span, n)
            mid = min(hi, ragged)
            if mid > lo:
                _quantize_groups(values[block, lo:mid], q[block, lo:mid],
                                 scales[block, lo // group_size:
                                        mid // group_size],
                                 group_size, qmax)
            if hi > mid:
                _quantize_groups(values[block, mid:hi], q[block, mid:hi],
                                 scales[block, groups - 1:], hi - mid, qmax)

    scale_shape = list(x.shape)
    scale_shape[axis] = groups
    return QuantizedTensor(q=q.reshape(x.shape),
                           scales=scales.reshape(scale_shape), axis=axis,
                           group_size=group_size, bits=bits)


def _quantize_groups(x: np.ndarray, q: np.ndarray, scales: np.ndarray,
                     size: int, qmax: int) -> None:
    """Quantize one ``(rows, m * size, inner)`` block as ``m`` groups of
    ``size`` along its middle axis into ``q`` (int8, the same shape) and
    ``scales`` (``(rows, m, inner)``), through one float64 buffer."""
    rows, length, inner = x.shape
    x = x.reshape(rows, length // size, size, inner)
    buffer = np.abs(x)
    absmax = buffer.max(axis=2)
    if not np.isfinite(absmax).all():
        raise FormatError("quantize_groupwise got a NaN or infinite value")
    scale = np.where(absmax > 0, absmax / qmax, 1.0)
    scales[...] = scale
    np.divide(x, scale[:, :, None], out=buffer)
    np.round(buffer, out=buffer)
    np.clip(buffer, -qmax, qmax, out=buffer)
    q[...] = buffer.reshape(q.shape)


def quantize_weights_woq(weight: np.ndarray, bits: int = 4,
                         group_size: int = 128) -> QuantizedTensor:
    """Weight-only quantization of a ``[out_features, in_features]`` matrix.

    Groups run along the input-feature axis (the GEMM reduction dimension),
    matching GPTQ/AWQ conventions, so the dequant scale can be folded into
    Mugi's vector-array epilogue per output tile.
    """
    weight = np.asarray(weight)
    if weight.ndim != 2:
        raise FormatError("WOQ expects a 2-D weight matrix")
    return quantize_groupwise(weight, bits=bits, group_size=group_size, axis=1)


def quantize_kv_cache(kv: np.ndarray, bits: int = 4,
                      group_size: int = 0) -> QuantizedTensor:
    """KV-cache quantization along the head dimension (per-token groups).

    ``kv`` has shape ``[..., seq_len, head_dim]``; each token's head vector
    is quantized with a single scale by default (``group_size = 0``),
    following per-token KVQ recipes.
    """
    kv = np.asarray(kv)
    if kv.ndim < 2:
        raise FormatError("KVQ expects at least [seq, head_dim]")
    return quantize_groupwise(kv, bits=bits, group_size=group_size, axis=-1)


def quantization_error(x: np.ndarray, qt: QuantizedTensor) -> float:
    """RMS relative error introduced by quantization (for tests/reports)."""
    x = np.asarray(x, dtype=np.float64)
    err = x - qt.dequantize()
    denom = np.sqrt(np.mean(x * x)) + 1e-30
    return float(np.sqrt(np.mean(err * err)) / denom)


def fake_quantize_bf16(x: np.ndarray) -> np.ndarray:
    """Round-trip values through BF16 (activation-side quantization)."""
    return to_bfloat16(x).astype(np.float64)
