"""Tests for INT4, FP8, mantissa rounding, and quantization."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.numerics import quantization
from repro.numerics import (
    E4M3,
    E5M2,
    INT4_MAX,
    INT4_MIN,
    check_int4,
    fp8_representable_values,
    from_sign_magnitude,
    pack_int4,
    quantization_error,
    quantize_fp8,
    quantize_groupwise,
    quantize_kv_cache,
    quantize_weights_woq,
    round_mantissa,
    split_bfloat16,
    split_fields,
    to_sign_magnitude,
    unpack_int4,
)
from repro.numerics.fields import combine_fields


class TestInt4:
    def test_range_enforced(self):
        with pytest.raises(FormatError):
            check_int4(np.array([8]))
        with pytest.raises(FormatError):
            check_int4(np.array([-8]))

    def test_sign_magnitude_round_trip(self):
        values = np.arange(INT4_MIN, INT4_MAX + 1)
        sign, mag = to_sign_magnitude(values)
        assert np.array_equal(from_sign_magnitude(sign, mag), values)

    def test_magnitude_fits_three_bits(self):
        _, mag = to_sign_magnitude(np.arange(INT4_MIN, INT4_MAX + 1))
        assert mag.max() <= 7

    def test_negative_zero_is_canonical(self):
        sign, mag = to_sign_magnitude(np.array([0]))
        assert sign[0] == 0 and mag[0] == 0

    @given(st.lists(st.integers(min_value=-7, max_value=7),
                    min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack(self, values):
        arr = np.asarray(values)
        packed = pack_int4(arr)
        assert packed.nbytes == (arr.size + 1) // 2
        assert np.array_equal(unpack_int4(packed, arr.size), arr)


class TestFP8:
    def test_representable_values_are_fixed_points(self):
        for fmt in (E4M3, E5M2):
            vals = fp8_representable_values(fmt)
            assert np.array_equal(quantize_fp8(vals, fmt),
                                  vals.astype(np.float32))

    def test_saturation(self):
        assert quantize_fp8(np.array([1e6]), E4M3)[0] == np.float32(448.0)
        assert quantize_fp8(np.array([-1e6]), E4M3)[0] == np.float32(-448.0)

    def test_zero(self):
        assert quantize_fp8(np.array([0.0]), E4M3)[0] == 0.0

    def test_subnormal_region(self):
        # Smallest positive E4M3 subnormal is 2**-9.
        tiny = 2.0 ** -9
        assert quantize_fp8(np.array([tiny]), E4M3)[0] == np.float32(tiny)

    @given(st.floats(min_value=-400, max_value=400,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_rounds_to_nearest_representable(self, x):
        vals = fp8_representable_values(E4M3)
        q = float(quantize_fp8(np.array([x]), E4M3)[0])
        best = vals[np.argmin(np.abs(vals - x))]
        # Allow ties (round-half cases) — q must be at least as close.
        assert abs(q - x) <= abs(best - x) + 1e-12

    def test_spike_cycles(self):
        assert E4M3.spike_cycles == 8
        assert E5M2.spike_cycles == 4


class TestMantissaRounding:
    def test_truncation_cases(self):
        fields = split_bfloat16(np.array([1.0 + 1.0 / 128]))  # mantissa 0000001
        rounded = round_mantissa(fields, 3)
        assert rounded.mantissa[0] == 0 and rounded.exponent[0] == 0

    def test_round_up_with_carry(self):
        fields = split_bfloat16(np.array([1.9921875]))  # mantissa 1111111
        rounded = round_mantissa(fields, 3)
        assert rounded.mantissa[0] == 0
        assert rounded.exponent[0] == 1  # Carried into the exponent.

    def test_ties_to_even(self):
        # mantissa fraction 0001000b: exactly half of the 3-bit step, and
        # the truncated value 000 is even -> stays 000.
        fields = split_bfloat16(np.array([1.0 + 8.0 / 128]))
        assert round_mantissa(fields, 3).mantissa[0] == 0
        # 0011000b: half step above 001 (odd) -> rounds up to 010.
        fields = split_bfloat16(np.array([1.0 + 24.0 / 128]))
        assert round_mantissa(fields, 3).mantissa[0] == 2

    def test_zero_passes_through(self):
        fields = split_bfloat16(np.array([0.0]))
        assert round_mantissa(fields, 3).is_zero()[0]

    def test_widening_rejected(self):
        fields = split_bfloat16(np.array([1.0]))
        with pytest.raises(FormatError):
            round_mantissa(fields, 9)

    @given(st.lists(st.floats(min_value=-1e20, max_value=1e20,
                              allow_nan=False, allow_infinity=False)
                    .filter(lambda v: v == 0 or abs(v) > 1e-30),
                    min_size=1, max_size=32),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_relative_error_bound(self, values, bits):
        x = np.asarray(values)
        fields = split_fields(x, mantissa_bits=20)
        rounded = round_mantissa(fields, bits)
        approx = combine_fields(rounded)
        nonzero = x != 0
        rel = np.abs(approx[nonzero] - x[nonzero]) / np.abs(x[nonzero])
        # Half-ulp of a `bits`-bit mantissa plus the 20-bit split error.
        assert np.all(rel <= 2.0 ** -(bits + 1) + 2.0 ** -19)


class TestQuantization:
    def test_woq_shape_and_range(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((64, 256))
        qt = quantize_weights_woq(w, bits=4, group_size=128)
        assert qt.q.shape == w.shape
        assert qt.scales.shape == (64, 2)
        assert qt.q.min() >= -7 and qt.q.max() <= 7

    def test_dequantize_error_small(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((32, 128))
        qt = quantize_weights_woq(w, bits=4, group_size=64)
        assert quantization_error(w, qt) < 0.12  # INT4 RMS error ~5-10%.
        qt8 = quantize_groupwise(w, bits=8, group_size=64)
        assert quantization_error(w, qt8) < 0.01

    def test_kvq_per_token_groups(self):
        rng = np.random.default_rng(4)
        kv = rng.standard_normal((2, 16, 64))  # [head, seq, head_dim]
        qt = quantize_kv_cache(kv, bits=4)
        assert qt.scales.shape == (2, 16, 1)
        err = np.abs(qt.dequantize() - kv)
        assert err.max() < np.abs(kv).max() / 7

    def test_ragged_last_group(self):
        x = np.arange(10, dtype=np.float64).reshape(1, 10)
        qt = quantize_groupwise(x, bits=4, group_size=4)
        assert qt.q.shape == (1, 10)
        assert qt.scales.shape == (1, 3)
        # dequantize() must also handle the ragged tail.
        assert qt.dequantize().shape == (1, 10)

    def test_zero_group_scale_is_safe(self):
        x = np.zeros((2, 8))
        qt = quantize_groupwise(x, bits=4, group_size=4)
        assert np.all(qt.dequantize() == 0.0)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=96))
    @settings(max_examples=50, deadline=None)
    def test_codes_within_symmetric_range(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        x = rng.standard_normal((rows, cols)) * 10
        qt = quantize_groupwise(x, bits=4, group_size=32)
        assert qt.q.min() >= -7 and qt.q.max() <= 7
        sign, mag = to_sign_magnitude(qt.q)
        assert np.array_equal(from_sign_magnitude(sign, mag), qt.q)


# -- references: the whole-array quantizer the blocked one replaced ----------

def reference_quantize_groupwise(x, bits=4, group_size=128, axis=-1):
    """``quantize_groupwise`` as it was: pad the whole input, quantize it
    at once, slice the padding off."""
    x = np.asarray(x, dtype=np.float64)
    axis = axis % x.ndim
    n = x.shape[axis]
    if group_size <= 0 or group_size > n:
        group_size = n

    qmax = (1 << (bits - 1)) - 1
    pad = (-n) % group_size
    if pad:
        pad_width = [(0, 0)] * x.ndim
        pad_width[axis] = (0, pad)
        x_padded = np.pad(x, pad_width)
    else:
        x_padded = x

    groups = x_padded.shape[axis] // group_size
    new_shape = list(x_padded.shape)
    new_shape[axis:axis + 1] = [groups, group_size]
    grouped = x_padded.reshape(new_shape)

    absmax = np.max(np.abs(grouped), axis=axis + 1, keepdims=True)
    scales = np.where(absmax > 0, absmax / qmax, 1.0)
    q = np.clip(np.round(grouped / scales), -qmax, qmax).astype(np.int8)

    q = q.reshape(x_padded.shape)
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(0, n)
    q = q[tuple(slicer)]
    scales = np.squeeze(scales, axis=axis + 1)
    return quantization.QuantizedTensor(q=q, scales=scales, axis=axis,
                                        group_size=group_size, bits=bits)


def reference_dequantize(qt):
    """``QuantizedTensor.dequantize`` as it was: a repeated scale array
    times a float64 copy of the codes."""
    expanded = np.repeat(qt.scales, qt.group_size, axis=qt.axis)
    slicer = [slice(None)] * qt.q.ndim
    slicer[qt.axis] = slice(0, qt.q.shape[qt.axis])
    return qt.q.astype(np.float64) * expanded[tuple(slicer)]


def assert_quantized_like_reference(x, bits, group_size, axis):
    got = quantize_groupwise(x, bits=bits, group_size=group_size, axis=axis)
    want = reference_quantize_groupwise(x, bits=bits, group_size=group_size,
                                        axis=axis)
    assert got.q.dtype == want.q.dtype == np.int8
    assert got.q.shape == want.q.shape
    assert np.array_equal(got.q, want.q)
    assert got.scales.dtype == want.scales.dtype
    assert got.scales.shape == want.scales.shape
    assert got.scales.tobytes() == np.ascontiguousarray(
        want.scales).tobytes()
    assert (got.axis, got.group_size, got.bits) == \
        (want.axis, want.group_size, want.bits)
    values = got.dequantize()
    expected = reference_dequantize(want)
    assert values.dtype == expected.dtype and values.shape == expected.shape
    assert values.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestBlockedQuantizer:
    """The blocked quantizer and the in-place dequantizer against the
    whole-array code they replaced: codes, scales and dequantized
    values bit for bit, over every axis, ragged last groups and block
    boundaries, in bounded memory, and loud on input they cannot
    quantize."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, data):
        ndim = data.draw(st.integers(1, 4), label="ndim")
        shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=ndim,
                                         max_size=ndim), label="shape"))
        axis = data.draw(st.integers(-ndim, ndim - 1), label="axis")
        n = shape[axis]
        # <= 0 and > n both mean one group spanning the axis.
        group_size = data.draw(st.integers(-2, n + 3), label="group_size")
        bits = data.draw(st.sampled_from([4, 8]), label="bits")
        # The real block, and blocks small enough to cut rows and groups.
        block = data.draw(st.sampled_from([1, 5, 24, 1 << 16]),
                          label="block")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6)
        zeros = data.draw(st.integers(0, n), label="zeroed")
        np.moveaxis(x, axis, 0)[:zeros] = 0.0  # All-zero groups.
        if data.draw(st.booleans(), label="fortran"):
            x = np.asfortranarray(x)
        with mock.patch.object(quantization, "_BLOCK_ELEMENTS", block):
            assert_quantized_like_reference(x, bits, group_size, axis)

    @pytest.mark.parametrize("shape,axis,group_size", [
        ((64, 2100), -1, 128),   # Three blocks of 31 rows, ragged group.
        ((2100, 40), 0, 128),    # Rows too long: blocks of whole groups.
        ((3, 2100, 40), 1, 100),
        ((0, 4), -1, 2),         # Empty outside the group axis.
    ])
    def test_matches_reference_across_real_blocks(self, shape, axis,
                                                  group_size):
        x = np.random.default_rng(7).standard_normal(shape)
        assert_quantized_like_reference(x, 4, group_size, axis)

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_memory_budgets(self, axis):
        """Quantize holds about one block past its codes and scales (the
        whole-array code peaked at 2.02x its input's bytes), dequantize
        about its output (2.0x before)."""
        x = np.random.default_rng(3).standard_normal((2048, 2048))
        tracemalloc.start()
        try:
            qt = quantize_groupwise(x, bits=4, group_size=128, axis=axis)
            quantize_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            values = qt.dequantize()
            dequantize_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert quantize_peak < 1.0 * x.nbytes
        assert dequantize_peak <= 1.05 * values.nbytes

    @pytest.mark.parametrize("x,kwargs", [
        (np.array([[1.0, np.nan, 2.0, 3.0]]), {}),
        (np.array([[1.0, np.inf, 2.0, 3.0]]), {}),
        (np.array([[1.0, 2.0], [-np.inf, 3.0]]), {"axis": 0}),
        (np.ones((3, 4)), {"axis": 2}),
        (np.ones((3, 4)), {"axis": -3}),
        (np.float64(3.0), {}),
        (np.ones((3, 0)), {}),
        (np.ones((0, 4)), {"axis": 0}),
    ], ids=["nan", "inf", "minus-inf", "axis-2", "axis-minus-3", "0-d",
            "empty-axis", "empty-axis-0"])
    def test_rejects_what_it_cannot_quantize(self, x, kwargs):
        """A NaN used to quantize its group with scale 1.0 and cast to
        code 0 under a RuntimeWarning; an inf gave scale inf and all-zero
        codes; an out-of-range axis wrapped; a 0-d input or an empty
        group axis died with ZeroDivisionError."""
        with pytest.raises(FormatError):
            quantize_groupwise(x, **kwargs)
