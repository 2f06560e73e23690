"""Flexible-validity-bit log: the last bit where new content differs from the
old log content acts as the validity bit for its cache line.

A metadata word packs up to six (9-bit offset, value) pairs, one per extra
cache line of the entry; pair i sits at bits 10i..10i+9 with the offset in the
low 9 bits.  The first metadata word also carries its own plain validity bit
in bit 63, which certifies the whole first line (metadata words and the
payload bytes sharing that line) because it is written last.
"""

from __future__ import annotations

import struct

from ..pmem import LINE_SIZE, RELEASE, SimMemory, WORD_SIZE
from .base import CircularLog, PayloadError, padded, slot_size_for, words_of

PAIRS_PER_WORD = 6
_WORD = struct.Struct("<Q")


def write_cacheline(mem: SimMemory, line_addr: int, new: bytes) -> tuple[int, int]:
    """Write `new` (64 bytes) over the line's old content so that the last
    differing bit is stored last; returns that bit's (offset, value).

    Words above the last differing word are not stored at all; if old and new
    are identical nothing is stored and an arbitrary offset is reported.
    """
    if line_addr % LINE_SIZE or len(new) != LINE_SIZE:
        raise PayloadError("need a full line at a line-aligned address")
    old = mem.load(line_addr, LINE_SIZE)
    # the line as one little-endian integer: word j is bits 64j..64j+63
    diff = int.from_bytes(new, "little") ^ int.from_bytes(old, "little")
    if not diff:
        return 0, new[0] & 1
    j = (diff.bit_length() - 1) >> 6   # the last differing word
    word_diff = diff >> (64 * j)       # nothing above word j differs
    offset = 64 * j + (word_diff & -word_diff).bit_length() - 1
    mem.store_words(line_addr, new[:j * WORD_SIZE])
    mem.store_word(line_addr + j * WORD_SIZE,
                   _WORD.unpack_from(new, j * WORD_SIZE)[0], RELEASE)
    return offset, new[offset >> 3] >> (offset & 7) & 1


def check_cacheline(line: bytes, offset: int, bit_value: int) -> bool:
    if not 0 <= offset < 512:
        raise PayloadError(f"bit offset {offset} out of range")
    word = int.from_bytes(line[offset // 64 * 8:offset // 64 * 8 + 8], "little")
    return (word >> (offset % 64)) & 1 == bit_value


def pack_meta(pairs: list[tuple[int, int]], self_bit: int | None) -> int:
    word = 0
    for i, (off, val) in enumerate(pairs):
        word |= (off | (val << 9)) << (10 * i)
    if self_bit is not None:
        word |= self_bit << 63
    return word


def unpack_meta(word: int, npairs: int) -> list[tuple[int, int]]:
    return [((word >> (10 * i)) & 0x1FF, (word >> (10 * i + 9)) & 1)
            for i in range(npairs)]


def entry_lines(payload_len: int) -> tuple[int, int]:
    """(lines, metadata words) for a multi-line entry."""
    lines = 1
    while True:
        meta_words = max(1, (lines - 1 + PAIRS_PER_WORD - 1) // PAIRS_PER_WORD)
        if lines * LINE_SIZE - meta_words * WORD_SIZE >= payload_len:
            return lines, meta_words
        lines += 1


class CsoFvbLog(CircularLog):
    name = "cso-fvb"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lines, self.meta_words = entry_lines(self.payload_len)

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        lines, _ = entry_lines(payload_len)
        if lines == 1:
            return slot_size_for(WORD_SIZE + payload_len)
        return lines * LINE_SIZE

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        mem = self.mem
        bit = self.expected_bit(slot)
        # the payload runs on from the metadata words through the last line
        first_len = min(self.payload_len,
                        LINE_SIZE - self.meta_words * WORD_SIZE)
        pairs: list[tuple[int, int]] = []
        pos = first_len
        for li in range(1, self.lines):
            line_addr = addr + li * LINE_SIZE
            chunk = payload[pos:pos + LINE_SIZE]
            pos += len(chunk)
            if len(chunk) < LINE_SIZE:  # keep old bytes beyond the payload
                chunk = chunk + mem.load(line_addr + len(chunk),
                                         LINE_SIZE - len(chunk))
            pairs.append(write_cacheline(mem, line_addr, chunk))
        mem.store_words(addr + self.meta_words * WORD_SIZE,
                        padded(payload[:first_len]))
        for mi in range(self.meta_words - 1, 0, -1):
            group = pairs[mi * PAIRS_PER_WORD:(mi + 1) * PAIRS_PER_WORD]
            mem.store_word(addr + mi * WORD_SIZE, pack_meta(group, None))
        mem.store_word(addr, pack_meta(pairs[:PAIRS_PER_WORD], bit), RELEASE)

    def _decode(self, slot: int, addr: int):
        raw = self._load_through(addr, b"", 0)
        meta = words_of(raw[:self.meta_words * WORD_SIZE])
        if meta[0] >> 63 != self.expected_bit(slot):
            return None
        pairs = []
        for mi, word in enumerate(meta):
            n = min(self.lines - 1 - mi * PAIRS_PER_WORD, PAIRS_PER_WORD)
            pairs.extend(unpack_meta(word, n))
        for li, (off, val) in enumerate(pairs, 1):
            raw = self._load_through(addr, raw, li * LINE_SIZE)
            if not check_cacheline(raw[li * LINE_SIZE:], off, val):
                return None
        start = self.meta_words * WORD_SIZE
        return raw[start:start + self.payload_len], 1
