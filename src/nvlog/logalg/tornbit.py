"""Torn-bit log: 63 payload bits per word, bit 63 is a per-word validity bit.

Every word self-validates, so a single flush and fence suffice, but payloads
must be reassembled on read.
"""

from __future__ import annotations

import struct

from ..pmem import RELEASE, WORD_SIZE
from .base import CircularLog, words_of

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

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        mem = self.mem
        words = pack(payload, self.expected_bit(slot))
        last = len(words) - 1
        mem.store_words(addr, struct.pack(f"<{last}Q", *words[:last]))
        mem.store_word(addr + last * WORD_SIZE, words[-1], RELEASE)

    def _decode(self, slot: int, addr: int):
        bit = self.expected_bit(slot)
        raw = b""
        while len(raw) < self.slot_size:   # a line at a time
            checked = len(raw)
            raw = self._load_through(addr, raw, checked)
            if any(w >> 63 != bit for w in words_of(raw[checked:])):
                return None
        return unpack(words_of(raw), self.payload_len), 1
