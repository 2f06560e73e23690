"""Flexible validity bit: the last word of a line that differs from its old
content is written last, and one of its changed bits certifies the line."""

import random

import pytest

from conftest import RecordingMemory
from nvlog.logalg import ALGORITHMS
from nvlog.logalg.base import HEADER_BYTES
from nvlog.logalg.fvb import (check_cacheline, entry_lines, pack_meta,
                              unpack_meta, write_cacheline)
from nvlog.pmem import SimMemory


def reference_offset(old: bytes, new: bytes):
    """Independent route: whole-line integers instead of per-word scans."""
    o = int.from_bytes(old, "little")
    n = int.from_bytes(new, "little")
    diff = o ^ n
    if not diff:
        return None
    word = (diff.bit_length() - 1) // 64
    word_diff = (diff >> (word * 64)) & ((1 << 64) - 1)
    intra = (word_diff & -word_diff).bit_length() - 1
    return word * 64 + intra


def run_pair(old: bytes, new: bytes):
    mem = RecordingMemory(64)
    mem.store(0, old)
    mem.flush_range(0, 64)
    mem.sfence()
    mark = len(mem.trace)
    off, bit = write_cacheline(mem, 0, new)
    return mem, mem.stores_since(mark), off, bit


def test_single_changed_bit_low_word():
    old = bytes(64)
    new = bytes([8]) + bytes(63)
    _, events, off, bit = run_pair(old, new)
    assert (off, bit) == (3, 1)
    assert len(events) == 1


def test_single_changed_bit_word7():
    old = bytes(64)
    new = bytes(56) + bytes([8]) + bytes(7)
    mem, events, off, bit = run_pair(old, new)
    assert (off, bit) == (64 * 7 + 3, 1)
    assert mem.load(0, 64) == new


def test_equal_lines_store_nothing():
    old = bytes(range(64))
    _, events, off, bit = run_pair(old, old)
    assert events == []
    assert check_cacheline(old, off, bit)


@pytest.mark.parametrize("seed", range(200))
def test_offset_matches_reference_and_no_overshoot(seed):
    rng = random.Random(seed)
    old = bytes(rng.randrange(256) for _ in range(64))
    new = bytearray(old)
    for _ in range(rng.randint(1, 10)):
        new[rng.randrange(64)] ^= 1 << rng.randrange(8)
    new = bytes(new)
    mem, events, off, bit = run_pair(old, new)
    ref = reference_offset(old, new)
    if ref is None:
        assert events == []
        return
    assert off == ref
    assert check_cacheline(mem.load(0, 64), off, bit)
    # no stores beyond the certifying word
    last_word = ref // 64
    assert all(e.offset_in_line // 8 <= last_word for e in events)
    assert events[-1].offset_in_line // 8 == last_word
    # bytes at and below the last differing word all reach the new content
    assert mem.load(0, (last_word + 1) * 8) == new[:(last_word + 1) * 8]


def test_partial_line_rejects_check():
    old = bytes(64)
    new = bytes([0xFF] * 64)
    mem, events, off, bit = run_pair(old, new)
    torn = old[:56] + bytes(8)  # missing the certifying word
    assert not check_cacheline(torn, off, bit)


# ----------------------------------------------------------------- meta words

def test_meta_word_round_trip():
    pairs = [(451, 1), (0, 0), (511, 1), (37, 0), (212, 1), (64, 0)]
    word = pack_meta(pairs, self_bit=1)
    assert word >> 63 == 1
    assert unpack_meta(word, 6) == pairs


def test_entry_lines_grouping():
    assert entry_lines(56)[0] == 1
    lines, meta_words = entry_lines(8 * 64 - 16)
    assert (lines, meta_words) == (8, 2)  # 6 lines on word 0, 1 on word 1


# ------------------------------------------------------------------- log level

def test_fvb_multiline_entry_round_trip():
    cls = ALGORITHMS["cso-fvb"]
    payload_len = 240
    region = HEADER_BYTES + 8 * 256
    mem = SimMemory(region)
    log = cls(mem, 0, region, payload_len)
    data = [bytes([i + 1] * payload_len) for i in range(4)]
    for p in data:
        log.append(p)
    got = cls.attach(mem, 0, region, payload_len).recover()
    assert [e.payload for e in got] == data
