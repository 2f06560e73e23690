"""Validity-bit log: one dedicated metadata word per cache line of the entry.

The metadata word is written after the payload, so its bit reaching memory
proves every earlier store to the same line reached memory too.  Bit 0 of the
metadata word is the validity bit; the other 63 bits are reserved.
"""

from __future__ import annotations

from ..pmem import RELEASE, WORD_SIZE
from .base import CircularLog, EntryLayout, PayloadError, slot_size_for

MAX_SINGLE_LINE_PAYLOAD = 56
MAX_PAYLOAD = 112


def layout(payload_len: int) -> EntryLayout:
    """Entry layout rules: up to one line, a trailing metadata word shares the
    line; up to two lines, a metadata word opens the first line and another
    closes the second."""
    if payload_len <= 0 or payload_len % WORD_SIZE:
        raise PayloadError("payload must be a positive multiple of 8 bytes")
    if payload_len <= MAX_SINGLE_LINE_PAYLOAD:
        return EntryLayout(payload_len + WORD_SIZE, (payload_len,))
    if payload_len <= MAX_PAYLOAD:
        return EntryLayout(128, (0, 120))
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

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        mem = self.mem
        bit = self.expected_bit(slot)
        if self.layout.total_len <= 64:
            mem.store_words(addr, payload)
            mem.store_word(addr + self.layout.metadata_slots[0], bit, RELEASE)
        else:
            mem.store_words(addr + WORD_SIZE, payload)
            mem.store_word(addr + 120, bit, RELEASE)
            mem.store_word(addr, bit, RELEASE)

    def _decode(self, slot: int, addr: int):
        bit = self.expected_bit(slot)
        raw = b""
        for off in self.layout.metadata_slots:   # one per line
            raw = self._load_through(addr, raw, off)
            if raw[off] & 1 != bit:  # bit 0 of a little-endian word
                return None
        start = WORD_SIZE if self.layout.total_len > 64 else 0
        return raw[start:start + self.payload_len], 1
