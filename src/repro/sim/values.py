"""Typed 64-bit word values for the simulated machine.

The simulated memory is *word addressed*: every address names one 64-bit
word. A word holds either a signed/unsigned integer (stored as a Python
int, canonicalized to its 64-bit two's-complement bit pattern), an IEEE-754
double, or a pointer (an int that happens to be an address).

The hashing layer (:mod:`repro.core.hashing`) only ever sees the canonical
64-bit *bit pattern* of a word, produced by :func:`value_bits`.  Two values
hash equally iff their bit patterns are equal, exactly as a hardware hash
unit wired to the L1 data lines would behave.
"""

from __future__ import annotations

import math
import struct

MASK64 = (1 << 64) - 1

#: Type tags used by allocation-site type information (Section 4.2 of the
#: paper: SW-InstantCheck_Tr needs to know which words hold FP values).
TYPE_INT = "i"
TYPE_FLOAT = "f"
TYPE_PTR = "p"

_VALID_TYPES = frozenset({TYPE_INT, TYPE_FLOAT, TYPE_PTR})

#: Canonical quiet-NaN pattern every NaN hashes as.
QNAN_BITS = 0x7FF8000000000000

#: Precompiled binary64 <-> uint64 converters for the exact-type fast
#: path of :func:`value_bits` (every store hashes through it).
_pack_double = struct.Struct("<d").pack
_unpack_u64 = struct.Struct("<Q").unpack


def is_valid_type(tag: str) -> bool:
    """Return True if *tag* is one of the supported word type tags."""
    return tag in _VALID_TYPES


def float_to_bits(value: float) -> int:
    """Return the IEEE-754 binary64 bit pattern of *value* as an int.

    NaNs are canonicalized to the single quiet-NaN pattern so that the
    hash of a NaN does not depend on which NaN payload a particular
    operation produced (hardware FP units are free to vary payloads).
    """
    if math.isnan(value):
        return QNAN_BITS
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    """Inverse of :func:`float_to_bits` (up to NaN canonicalization)."""
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def int_to_bits(value: int) -> int:
    """Canonical 64-bit two's-complement bit pattern of a Python int."""
    return value & MASK64


def value_bits(value) -> int:
    """Canonical 64-bit bit pattern of a word value (int or float).

    This is the only place where the simulator decides how a Python value
    maps onto the 64 wires feeding the hash unit.  Exact ``int`` and
    ``float`` take a fast path; bools and subclasses (``IntEnum``
    members, float subclasses) fall through to the ``isinstance`` chain,
    which maps them to the same patterns.
    """
    kind = type(value)
    if kind is int:
        return value & MASK64
    if kind is float:
        if value != value:  # NaN
            return QNAN_BITS
        return _unpack_u64(_pack_double(value))[0]
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return int_to_bits(value)
    if isinstance(value, float):
        return float_to_bits(value)
    raise TypeError(f"word values must be int or float, got {type(value).__name__}")


def words_equal(a, b) -> bool:
    """Bit-pattern equality of two word values.

    Notably ``words_equal(1, 1.0)`` is False (different bit patterns) and
    ``words_equal(0.0, -0.0)`` is False, mirroring what a bit-by-bit
    memory-state comparison sees.
    """
    return value_bits(a) == value_bits(b)
