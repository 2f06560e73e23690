"""Checksum reference values and algebra used by the checksum logs."""

import zlib

from hypothesis import given, strategies as st

from nvlog.crc import crc32c, crc64_ecma


def test_crc32c_check_value():
    # published check value for the Castagnoli polynomial
    assert crc32c(b"123456789") == 0xE3069283


def test_crc64_ecma_check_value():
    assert crc64_ecma(b"123456789") == 0x6C40DF5F0B497347


def test_crc32c_differs_from_zlib_crc32():
    # different polynomial; catching an accidental stdlib substitution
    assert crc32c(b"123456789") != zlib.crc32(b"123456789")


def test_empty_inputs():
    assert crc32c(b"") == 0
    assert crc64_ecma(b"") == 0


# References: one byte per step, shifted through bit by bit, with no tables.

def _bytewise_crc32c(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def _bytewise_crc64_ecma(data: bytes) -> int:
    crc = 0
    for b in data:
        crc ^= b << 56
        for _ in range(8):
            crc = (crc << 1) ^ 0x42F0E1EBA9EA3693 if crc >> 63 else crc << 1
            crc &= (1 << 64) - 1
    return crc


def test_bytewise_references_match_check_values():
    assert _bytewise_crc32c(b"123456789") == 0xE3069283
    assert _bytewise_crc64_ecma(b"123456789") == 0x6C40DF5F0B497347


@given(st.integers(0, 300).flatmap(lambda n: st.binary(min_size=n,
                                                       max_size=n)))
def test_word_stepped_crcs_match_bytewise_reference(data):
    # uniform lengths 0..300 reach every tail length 0..7 after the words
    assert crc32c(data) == _bytewise_crc32c(data)
    assert crc64_ecma(data) == _bytewise_crc64_ecma(data)


@given(st.binary(min_size=1, max_size=32))
def test_single_bit_sensitivity(data):
    flipped = bytes([data[0] ^ 1]) + data[1:]
    assert crc32c(data) != crc32c(flipped)
    assert crc64_ecma(data) != crc64_ecma(flipped)
