"""Torn-bit log: 63 payload bits per word, bit 63 is a per-word validity bit.

Every word self-validates, so a single flush and fence suffice, but payloads
must be reassembled on read.
"""

from __future__ import annotations

from ..pmem import RELEASE, WORD_SIZE
from .base import CircularLog

_PAYLOAD_MASK = (1 << 63) - 1


def pack(payload: bytes, bit: int) -> list[int]:
    bits = int.from_bytes(payload, "little")
    nwords = (len(payload) * 8 + 62) // 63
    return [((bits >> (63 * i)) & _PAYLOAD_MASK) | (bit << 63)
            for i in range(nwords)]


def unpack(words: list[int], payload_len: int) -> bytes:
    bits = 0
    for i, w in enumerate(words):
        bits |= (w & _PAYLOAD_MASK) << (63 * i)
    return bits.to_bytes((63 * len(words) + 7) // 8, "little")[:payload_len]


class TornbitLog(CircularLog):
    name = "tornbit"

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        return (payload_len * 8 + 62) // 63 * WORD_SIZE

    @property
    def _nwords(self) -> int:
        return self.slot_size // WORD_SIZE

    def _write_entry(self, slot: int, payload: bytes) -> int:
        mem = self.mem
        addr = self.slot_addr(slot)
        words = pack(payload, self.expected_bit(slot))
        for i, w in enumerate(words[:-1]):
            mem.store_word(addr + i * WORD_SIZE, w)
        mem.store_word(addr + (len(words) - 1) * WORD_SIZE, words[-1], RELEASE)
        mem.flush_range(addr, self.slot_size)
        mem.sfence()
        return 1

    def _read_entry(self, slot: int):
        mem = self.mem
        addr = self.slot_addr(slot)
        bit = self.expected_bit(slot)
        words = [mem.load_word(addr + i * WORD_SIZE) for i in range(self._nwords)]
        if any(w >> 63 != bit for w in words):
            return None
        return unpack(words, self.payload_len), 1
