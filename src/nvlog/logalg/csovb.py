"""Validity-bit log: one dedicated metadata word per cache line of the entry.

The metadata word is written after the payload, so its bit reaching memory
proves every earlier store to the same line reached memory too.  Bit 0 of the
metadata word is the validity bit; the other 63 bits are reserved.
"""

from __future__ import annotations

from ..pmem import RELEASE, WORD_SIZE
from .base import (CircularLog, EntryLayout, PayloadError, slot_size_for,
                   words_of)

MAX_SINGLE_LINE_PAYLOAD = 56
MAX_PAYLOAD = 112


def layout(payload_len: int) -> EntryLayout:
    """Entry layout rules: up to one line, a trailing metadata word shares the
    line; up to two lines, a metadata word opens the first line and another
    closes the second."""
    if payload_len <= 0 or payload_len % WORD_SIZE:
        raise PayloadError("payload must be a positive multiple of 8 bytes")
    if payload_len <= MAX_SINGLE_LINE_PAYLOAD:
        return EntryLayout(payload_len, payload_len + WORD_SIZE,
                           ((payload_len, WORD_SIZE),))
    if payload_len <= MAX_PAYLOAD:
        return EntryLayout(payload_len, 128, ((0, WORD_SIZE), (120, WORD_SIZE)))
    raise PayloadError(
        f"payload {payload_len} exceeds two lines minus two words; "
        "use the flexible-bit or randomized log")


class CsoVbLog(CircularLog):
    name = "cso-vb"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.layout = layout(self.payload_len)

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        return slot_size_for(layout(payload_len).total_len)

    def _write_entry(self, slot: int, payload: bytes) -> int:
        mem = self.mem
        addr = self.slot_addr(slot)
        bit = self.expected_bit(slot)
        if self.layout.total_len <= 64:
            for i, w in enumerate(words_of(payload)):
                mem.store_word(addr + i * WORD_SIZE, w)
            mem.store_word(addr + self.layout.metadata_slots[0][0], bit, RELEASE)
        else:
            for i, w in enumerate(words_of(payload)):
                mem.store_word(addr + WORD_SIZE + i * WORD_SIZE, w)
            mem.store_word(addr + 120, bit, RELEASE)
            mem.store_word(addr, bit, RELEASE)
        mem.flush_range(addr, self.slot_size)
        mem.sfence()
        return 1

    def _read_entry(self, slot: int):
        mem = self.mem
        addr = self.slot_addr(slot)
        bit = self.expected_bit(slot)
        for off, _ in self.layout.metadata_slots:
            if mem.load_word(addr + off) & 1 != bit:
                return None
        start = WORD_SIZE if self.layout.total_len > 64 else 0
        return mem.load(addr + start, self.payload_len), 1
