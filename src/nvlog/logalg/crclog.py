"""Checksum logs: entry = {seq, len, payload, checksum}; one fenced round
trip.  The seq field holds the log's wrap epoch so stale entries from the
previous pass fail validation without reinitializing the log.

The epoch must change atomically with the head on trim, so it shares the head
word: head index in bits 0..47, epoch in bits 48..62, polarity (unused here)
in bit 63.
"""

from __future__ import annotations

import struct

from ..crc import crc32c, crc64_ecma
from ..pmem import RELEASE, WORD_SIZE
from .base import CircularLog, slot_size_for

_HDR = struct.Struct("<II")  # seq, len
_HEAD_MASK = (1 << 48) - 1
_EPOCH_MASK = 0x7FFF


class _CrcLog(CircularLog):
    crc_fn = staticmethod(crc32c)

    def __init__(self, *args, **kwargs):
        self.epoch = 0
        super().__init__(*args, **kwargs)

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        padded = (payload_len + WORD_SIZE - 1) // WORD_SIZE * WORD_SIZE
        return slot_size_for(WORD_SIZE + padded + WORD_SIZE)

    def _pack_header(self) -> int:
        return ((self.head & _HEAD_MASK) | ((self.epoch & _EPOCH_MASK) << 48)
                | (self.polarity << 63))

    def _load_header(self, word: int) -> None:
        self.head = word & _HEAD_MASK
        self.epoch = (word >> 48) & _EPOCH_MASK
        self.polarity = word >> 63

    def _on_wrap(self) -> None:
        self.epoch = (self.epoch + 1) & _EPOCH_MASK

    def _entry_seq(self, slot: int) -> int:
        """The epoch as stored in the head word once the head passes `slot`."""
        return self.epoch if slot >= self.head else (self.epoch + 1) & _EPOCH_MASK

    def _crc_off(self) -> int:
        padded = (self.payload_len + WORD_SIZE - 1) // WORD_SIZE * WORD_SIZE
        return WORD_SIZE + padded

    def _write_entry(self, slot: int, payload: bytes) -> int:
        mem = self.mem
        addr = self.slot_addr(slot)
        hdr = _HDR.pack(self._entry_seq(slot), len(payload))
        mem.store(addr, hdr)
        for i in range(0, len(payload), WORD_SIZE):
            mem.store(addr + WORD_SIZE + i, payload[i:i + WORD_SIZE])
        checksum = self.crc_fn(hdr + payload)
        mem.store_word(addr + self._crc_off(), checksum, RELEASE)
        mem.flush_range(addr, self.slot_size)
        mem.sfence()
        return 1

    def _read_entry(self, slot: int):
        mem = self.mem
        addr = self.slot_addr(slot)
        hdr = mem.load(addr, _HDR.size)
        seq, length = _HDR.unpack(hdr)
        if seq != self._entry_seq(slot) or length != self.payload_len:
            return None
        payload = mem.load(addr + WORD_SIZE, self.payload_len)
        if mem.load_word(addr + self._crc_off()) != self.crc_fn(hdr + payload):
            return None
        return payload, 1


class Crc32Log(_CrcLog):
    name = "crc32"
    crc_fn = staticmethod(crc32c)


class Crc64Log(_CrcLog):
    name = "crc64"
    crc_fn = staticmethod(crc64_ecma)
