"""Baseline log: write and fence the data, then write and fence a commit word.

The commit word is only written after the data is known durable, so a
persisted commit word certifies the entry at the cost of a second fenced
round trip.
"""

from __future__ import annotations

from ..pmem import RELEASE, WORD_SIZE
from .base import CircularLog, padded, slot_size_for


class TwoRoundsLog(CircularLog):
    name = "two-rounds"

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        return slot_size_for(WORD_SIZE + payload_len)

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        self.mem.store_words(addr + WORD_SIZE, padded(payload))

    def _commit(self, slot: int, addr: int, payload: bytes, needed: int) -> None:
        mem = self.mem
        mem.store_word(addr, self.expected_bit(slot), RELEASE)
        mem.clflushopt(mem.line_of(addr))
        mem.sfence()

    def _decode(self, slot: int, addr: int):
        raw = self._load_through(addr, b"", 0)
        if raw[0] & 1 != self.expected_bit(slot):
            return None
        raw = self._load_through(addr, raw, self.slot_size - 1)
        return raw[WORD_SIZE:WORD_SIZE + self.payload_len], 1
