"""Baseline log: write and fence the data, then write and fence a commit word.

The commit word is only written after the data is known durable, so a
persisted commit word certifies the entry at the cost of a second fenced
round trip.
"""

from __future__ import annotations

from ..pmem import RELEASE, WORD_SIZE
from .base import CircularLog, slot_size_for, words_of


class TwoRoundsLog(CircularLog):
    name = "two-rounds"

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        return slot_size_for(WORD_SIZE + payload_len)

    def _write_entry(self, slot: int, payload: bytes) -> int:
        mem = self.mem
        addr = self.slot_addr(slot)
        for i, w in enumerate(words_of(payload)):
            mem.store_word(addr + WORD_SIZE + i * WORD_SIZE, w)
        mem.flush_range(addr, self.slot_size)
        mem.sfence()
        mem.store_word(addr, self.expected_bit(slot), RELEASE)
        mem.clflushopt(mem.line_of(addr))
        mem.sfence()
        return 1

    def _read_entry(self, slot: int):
        addr = self.slot_addr(slot)
        if self.mem.load_word(addr) & 1 != self.expected_bit(slot):
            return None
        return self.mem.load(addr + WORD_SIZE, self.payload_len), 1
