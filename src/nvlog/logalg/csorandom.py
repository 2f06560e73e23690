"""Randomized-initialization log: entries keep their natural layout.

Free log space is pre-filled with a fixed 64-bit random constant R.  A line of
an entry is fully written iff its last payload word differs from R; in the
2^-64 collision case a follow-up sentinel entry (all words S = ~R) certifies
the data entry at the cost of a second critical-path round trip.
Initialization writes are flushed lazily and ride a later append's fence.
"""

from __future__ import annotations

from ..pmem import LINE_SIZE, RELEASE, WORD_SIZE
from .base import CircularLog, PayloadError, slot_size_for

RANDOM_VALUE = 0x9E3779B97F4A7C15
SENTINEL_VALUE = RANDOM_VALUE ^ ((1 << 64) - 1)

_R_BYTES = RANDOM_VALUE.to_bytes(WORD_SIZE, "little")
_S_BYTES = SENTINEL_VALUE.to_bytes(WORD_SIZE, "little")


class CsoRandomLog(CircularLog):
    name = "cso-random"

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        if payload_len % WORD_SIZE:
            raise PayloadError("payload must be a multiple of 8 bytes")
        return slot_size_for(payload_len)

    def _init_area(self) -> None:
        self.random_init(0, self.nslots)

    def _check_offsets(self, slot: int) -> list[int]:
        """Offsets of the last payload word inside each overlapped line."""
        addr = self.slot_addr(slot)
        end = addr + self.payload_len
        offs = []
        pos = addr
        while pos < end:
            line_end = min(end, (pos // LINE_SIZE + 1) * LINE_SIZE)
            offs.append(line_end - WORD_SIZE)
            pos = line_end
        return offs

    # ------------------------------------------------------------------- ops

    def random_init(self, first_slot: int, count: int) -> None:
        """Refill slots with R; flushed but not fenced (a later operation's
        fence completes the round trip off the critical path)."""
        mem = self.mem
        lines = set()
        for s in range(first_slot, first_slot + count):
            addr = self.slot_addr(s % self.nslots)
            mem.store(addr, _R_BYTES * (self.slot_size // WORD_SIZE))
            lines.update(range(addr // LINE_SIZE,
                               (addr + self.slot_size - 1) // LINE_SIZE + 1))
        for line in sorted(lines):
            mem.clflushopt(line)

    def _slots_needed(self, payload: bytes) -> int:
        for i in range(0, len(payload), WORD_SIZE):
            if payload[i:i + WORD_SIZE] == _S_BYTES:
                raise PayloadError("payload contains the reserved sentinel word")
        collision = any(
            payload[off:off + WORD_SIZE] == _R_BYTES
            for off in self._payload_check_offsets())
        return 2 if collision else 1

    def _payload_check_offsets(self) -> list[int]:
        # Same geometry as _check_offsets but relative to the payload start of
        # an aligned slot; slot starts are slot_size-aligned so the in-line
        # phase is identical for every slot.
        base = self.slot_addr(0)
        return [off - base for off in self._check_offsets(0)]

    def _write_entry(self, slot: int, payload: bytes) -> int:
        mem = self.mem
        addr = self.slot_addr(slot)
        nwords = len(payload) // WORD_SIZE
        for i in range(nwords - 1):
            mem.store(addr + i * WORD_SIZE, payload[i * WORD_SIZE:(i + 1) * WORD_SIZE])
        mem.store(addr + (nwords - 1) * WORD_SIZE, payload[-WORD_SIZE:], RELEASE)
        mem.flush_range(addr, self.payload_len)
        mem.sfence()
        if self._slots_needed(payload) == 1:
            return 1
        # Collision: certify with a sentinel entry in the next slot.
        sslot = (slot + 1) % self.nslots
        saddr = self.slot_addr(sslot)
        mem.store(saddr, _S_BYTES * (self.slot_size // WORD_SIZE), RELEASE)
        mem.flush_range(saddr, self.slot_size)
        mem.sfence()
        return 2

    def _sentinel_valid(self, slot: int) -> bool:
        addr = self.slot_addr(slot)
        if self.mem.load(addr, WORD_SIZE) != _S_BYTES:
            return False
        end = addr + self.slot_size
        pos = addr
        while pos < end:
            line_end = min(end, (pos // LINE_SIZE + 1) * LINE_SIZE)
            if self.mem.load(line_end - WORD_SIZE, WORD_SIZE) != _S_BYTES:
                return False
            pos = line_end
        return True

    def _read_entry(self, slot: int):
        mem = self.mem
        addr = self.slot_addr(slot)
        first = mem.load(addr, WORD_SIZE)
        if first == _S_BYTES:
            return None  # stray sentinel: not a data entry
        checks = [mem.load(off, WORD_SIZE) for off in self._check_offsets(slot)]
        if all(c != _R_BYTES for c in checks):
            return mem.load(addr, self.payload_len), 1
        # Collision or torn write: only a valid sentinel in the next slot
        # proves the entry was fully persisted.
        if self._sentinel_valid((slot + 1) % self.nslots):
            return mem.load(addr, self.payload_len), 2
        return None

    def _after_trim(self, freed_slots: list[int]) -> None:
        for s in freed_slots:
            self.random_init(s, 1)
