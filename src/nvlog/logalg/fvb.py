"""Flexible-validity-bit log: the last bit where new content differs from the
old log content acts as the validity bit for its cache line.

A metadata word packs up to six (9-bit offset, value) pairs, one per extra
cache line of the entry; pair i sits at bits 10i..10i+9 with the offset in the
low 9 bits.  The first metadata word also carries its own plain validity bit
in bit 63, which certifies the whole first line (metadata words and the
payload bytes sharing that line) because it is written last.
"""

from __future__ import annotations

from ..pmem import LINE_SIZE, RELEASE, SimMemory, WORD_SIZE
from .base import CircularLog, PayloadError, slot_size_for, words_of

PAIRS_PER_WORD = 6


def write_cacheline(mem: SimMemory, line_addr: int, new: bytes) -> tuple[int, int]:
    """Write `new` (64 bytes) over the line's old content so that the last
    differing bit is stored last; returns that bit's (offset, value).

    Words above the last differing word are not stored at all; if old and new
    are identical nothing is stored and an arbitrary offset is reported.
    """
    if line_addr % LINE_SIZE or len(new) != LINE_SIZE:
        raise PayloadError("need a full line at a line-aligned address")
    old = mem.load(line_addr, LINE_SIZE)
    new_words = words_of(new)
    old_words = words_of(old)
    j = -1
    for k in range(7, -1, -1):
        diff = new_words[k] ^ old_words[k]
        if diff:
            j = k
            intra = (diff & -diff).bit_length() - 1  # count trailing zeros
            offset = 64 * j + intra
            bit_value = (new_words[j] >> intra) & 1
            break
    if j < 0:
        offset = 0
        bit_value = new_words[0] & 1
        return offset, bit_value
    for k in range(j):
        mem.store_word(line_addr + k * WORD_SIZE, new_words[k])
    mem.store_word(line_addr + j * WORD_SIZE, new_words[j], RELEASE)
    return offset, bit_value


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

    def _first_line_payload(self) -> int:
        if self.lines == 1:
            return self.payload_len
        return min(self.payload_len,
                   LINE_SIZE - self.meta_words * WORD_SIZE)

    def _write_entry(self, slot: int, payload: bytes) -> int:
        mem = self.mem
        addr = self.slot_addr(slot)
        bit = self.expected_bit(slot)
        first_len = self._first_line_payload()
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
        data_off = self.meta_words * WORD_SIZE
        for i, w in enumerate(words_of(payload[:first_len])):
            mem.store_word(addr + data_off + i * WORD_SIZE, w)
        for mi in range(self.meta_words - 1, 0, -1):
            group = pairs[mi * PAIRS_PER_WORD:(mi + 1) * PAIRS_PER_WORD]
            mem.store_word(addr + mi * WORD_SIZE, pack_meta(group, None))
        mem.store_word(addr, pack_meta(pairs[:PAIRS_PER_WORD], bit), RELEASE)
        mem.flush_range(addr, self.slot_size)
        mem.sfence()
        return 1

    def _read_entry(self, slot: int):
        mem = self.mem
        addr = self.slot_addr(slot)
        meta0 = mem.load_word(addr)
        if meta0 >> 63 != self.expected_bit(slot):
            return None
        pairs = unpack_meta(meta0, min(self.lines - 1, PAIRS_PER_WORD))
        for mi in range(1, self.meta_words):
            word = mem.load_word(addr + mi * WORD_SIZE)
            n = min(self.lines - 1 - mi * PAIRS_PER_WORD, PAIRS_PER_WORD)
            pairs.extend(unpack_meta(word, n))
        first_len = self._first_line_payload()
        parts = [mem.load(addr + self.meta_words * WORD_SIZE, first_len)]
        pos = first_len
        for li in range(1, self.lines):
            line = mem.load(addr + li * LINE_SIZE, LINE_SIZE)
            off, val = pairs[li - 1]
            if not check_cacheline(line, off, val):
                return None
            take = min(LINE_SIZE, self.payload_len - pos)
            parts.append(line[:take])
            pos += take
        return b"".join(parts), 1
