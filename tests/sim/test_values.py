"""Tests for typed 64-bit word values."""

import enum
import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.values import (MASK64, bits_to_float, float_to_bits,
                              int_to_bits, is_valid_type, value_bits,
                              words_equal)


def test_type_tags():
    assert is_valid_type("i") and is_valid_type("f") and is_valid_type("p")
    assert not is_valid_type("x")


@given(value=st.floats(allow_nan=False))
def test_float_bits_roundtrip(value):
    assert bits_to_float(float_to_bits(value)) == value or (
        value == 0.0 and bits_to_float(float_to_bits(value)) == value)


def test_float_bits_roundtrip_negative_zero():
    assert math.copysign(1.0, bits_to_float(float_to_bits(-0.0))) == -1.0


def test_nan_canonicalized():
    import struct

    other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000099))[0]
    assert float_to_bits(other_nan) == float_to_bits(float("nan"))
    assert float_to_bits(float("nan")) == 0x7FF8000000000000


@given(value=st.integers(min_value=-(1 << 63), max_value=(1 << 64) - 1))
def test_int_bits_in_range(value):
    assert 0 <= int_to_bits(value) <= MASK64


def test_twos_complement():
    assert int_to_bits(-1) == MASK64
    assert int_to_bits(-2) == MASK64 - 1
    assert int_to_bits(1 << 64) == 0


def test_value_bits_dispatch():
    assert value_bits(5) == 5
    assert value_bits(True) == 1
    assert value_bits(1.0) == float_to_bits(1.0)
    with pytest.raises(TypeError):
        value_bits("nope")
    with pytest.raises(TypeError):
        value_bits(None)


def test_words_equal_is_bitwise():
    assert words_equal(3, 3)
    assert not words_equal(1, 1.0)
    assert not words_equal(0.0, -0.0)
    assert words_equal(0, 0.0) == (float_to_bits(0.0) == 0)  # both zero bits


# -- the exact-type fast path of value_bits -----------------------------------


def reference_value_bits(value) -> int:
    """``value_bits`` before its exact-type fast path: the isinstance
    chain with format-string struct calls, kept here as the oracle."""
    import struct

    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & MASK64
    if isinstance(value, float):
        if math.isnan(value):
            return 0x7FF8000000000000
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    raise TypeError(f"word values must be int or float, got "
                    f"{type(value).__name__}")


class _Colour(enum.IntEnum):
    RED = 3
    HUGE = (1 << 64) + 5
    NEGATIVE = -7


class _Metres(float):
    pass


#: NaNs with payloads and signs a hardware FP unit might produce.
NAN_PAYLOADS = [bits_to_float(bits) for bits in (
    0x7FF8000000000000, 0x7FF8000000000099, 0x7FF0000000000001,
    0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF, 0x7FF4000000000000)]

FAST_PATH_EDGES = [
    True, False, _Colour.RED, _Colour.HUGE, _Colour.NEGATIVE,
    _Metres(2.5), _Metres(-0.0), _Metres("nan"), _Metres("inf"),
    *NAN_PAYLOADS, 0.0, -0.0, math.inf, -math.inf, 5e-324,
    0, -1, MASK64, 1 << 64, (1 << 64) + 1, (1 << 200) - 3,
    -(1 << 63), -(1 << 63) - 1, -(1 << 100),
]


@pytest.mark.parametrize("value", FAST_PATH_EDGES, ids=repr)
def test_value_bits_fast_path_matches_reference(value):
    assert value_bits(value) == reference_value_bits(value)
    assert 0 <= value_bits(value) <= MASK64


def test_value_bits_canonicalizes_every_nan_payload():
    assert {value_bits(nan) for nan in NAN_PAYLOADS} == {0x7FF8000000000000}


@given(value=st.one_of(st.integers(), st.floats(), st.booleans()))
def test_value_bits_matches_reference_on_random_words(value):
    assert value_bits(value) == reference_value_bits(value)


@pytest.mark.parametrize("value", ["1.0", b"\x01", None, 1j, [1]],
                         ids=repr)
def test_value_bits_rejects_non_words(value):
    with pytest.raises(TypeError, match="word values must be int or float"):
        value_bits(value)
