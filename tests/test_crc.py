"""Checksum reference values and algebra used by the checksum logs."""

import zlib

from hypothesis import example, given, strategies as st

from nvlog import crc
from nvlog.crc import crc32c, crc64_ecma, crc_by_lines
from nvlog.harness import run_crash_suite


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


# ---------------------------------------------------- line-summed checksums

@given(st.integers(0, 300).flatmap(lambda n: st.binary(min_size=n,
                                                       max_size=n)))
@example(b"")
@example(bytes(range(37)))     # shorter than a line, tail not a word
@example(bytes(range(64)))     # one whole line
@example(bytes(range(192)))    # whole lines only
@example(bytes(range(67)))     # a line and a 3-byte tail
@example(bytes(range(250)))    # 3 lines and 58 bytes, 2 past a word
def test_line_summed_crcs_match_direct(data):
    assert crc_by_lines(crc32c, data) == crc32c(data)
    assert crc_by_lines(crc64_ecma, data) == crc64_ecma(data)


def test_term_caches_are_bounded():
    assert crc.crc_term.cache_info().maxsize is not None
    assert crc._zeros_crc.cache_info().maxsize is not None


def test_crash_report_is_the_same_with_terms_cold_or_warm():
    # one torn 4-line crc64 slot: 6,561 images recovered from cached terms
    payload = bytes(range(7, 247))
    script = f"crash at-op 0\nappend {payload.hex()}\ntrim"
    crc.crc_term.cache_clear()
    crc._zeros_crc.cache_clear()
    cold = run_crash_suite(script, algo="crc64", payload_len=240)
    assert crc.crc_term.cache_info().hits > 0
    warm = run_crash_suite(script, algo="crc64", payload_len=240)
    assert cold == warm
    assert cold.distinct_states == 6561 and not cold.violations
