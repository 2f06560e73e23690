"""Checksum logs: entry = {seq, len, payload, checksum}; one fenced round
trip.  The seq field holds the log's wrap epoch so stale entries from the
previous pass fail validation without reinitializing the log.

The epoch must change atomically with the head on trim, so it shares the head
word: head index in bits 0..47, epoch in bits 48..62, polarity (unused here)
in bit 63.
"""

from __future__ import annotations

import struct

from ..crc import crc32c, crc64_ecma, crc_by_lines
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
        padded = (self.payload_len + WORD_SIZE - 1) // WORD_SIZE * WORD_SIZE
        self._crc_off = WORD_SIZE + padded   # after the header and payload

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

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        mem = self.mem
        body = _HDR.pack(self._entry_seq(slot), len(payload)) + payload
        mem.store_words(addr, body)
        mem.store_word(addr + self._crc_off, self.crc_fn(body), RELEASE)

    def _decode(self, slot: int, addr: int):
        # the header line first: a slot whose seq or length fails is not
        # read on; the checksum covers every byte, so the rest is one load
        raw = self._load_through(addr, b"", 0)
        seq, length = _HDR.unpack_from(raw)
        if seq != self._entry_seq(slot) or length != self.payload_len:
            return None
        raw = self._load_through(addr, raw, self.slot_size - 1)
        off = self._crc_off
        crc = int.from_bytes(raw[off:off + WORD_SIZE], "little")
        # torn images of a slot share its lines' versions: sum their terms
        if crc != crc_by_lines(self.crc_fn, raw[:WORD_SIZE + length]):
            return None
        return raw[WORD_SIZE:WORD_SIZE + length], 1


class Crc32Log(_CrcLog):
    name = "crc32"
    crc_fn = staticmethod(crc32c)


class Crc64Log(_CrcLog):
    name = "crc64"
    crc_fn = staticmethod(crc64_ecma)
