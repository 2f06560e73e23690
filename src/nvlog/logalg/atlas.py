"""Linked-list log for 24-byte payloads: 32-byte entries with an 8-byte link.

An append writes the entry (its own link cleared), fences it, then links the
previous entry (or the chain root in the header line) to it.  When the
previous link lives in the same cache line as the new entry, same-line store
order makes the link certify the data and one fenced round trip suffices;
otherwise the link needs its own, giving 1.5 round trips on average.
"""

from __future__ import annotations

from ..pmem import LINE_SIZE, RELEASE, WORD_SIZE
from .base import (CircularLog, PayloadError, RecoveredEntry, ROOT_WORD_OFF,
                   TrimError, UnrecoverableLogError)

ENTRY_BYTES = 32
PAYLOAD_BYTES = 24


class AtlasLog(CircularLog):
    name = "atlas"

    def __init__(self, *args, **kwargs):
        self._last_slot: int | None = None
        super().__init__(*args, **kwargs)

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        if payload_len != PAYLOAD_BYTES:
            raise PayloadError("the linked log holds 24-byte payloads only")
        return ENTRY_BYTES

    def _prev_link_addr(self) -> int:
        if self._last_slot is None:
            return self.base + ROOT_WORD_OFF
        return self.slot_addr(self._last_slot)

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        mem = self.mem
        # the cleared link first: no stale link before the entry is reachable
        mem.store_words(addr, bytes(WORD_SIZE) + payload)
        link_addr = self._prev_link_addr()
        if link_addr // LINE_SIZE == addr // LINE_SIZE:
            # same line: the entry's own fence persists the link after it
            mem.store_word(link_addr, slot + 1, RELEASE)

    def _commit(self, slot: int, addr: int, payload: bytes, needed: int) -> None:
        link_addr = self._prev_link_addr()
        if link_addr // LINE_SIZE != addr // LINE_SIZE:
            mem = self.mem
            mem.store_word(link_addr, slot + 1, RELEASE)
            mem.clflushopt(link_addr // LINE_SIZE)
            mem.sfence()
        self._last_slot = slot

    def recover(self) -> list[RecoveredEntry]:
        mem = self.mem
        self._consumed.clear()
        entries: list[RecoveredEntry] = []
        seen: set[int] = set()
        cur = mem.load_word(self.base + ROOT_WORD_OFF)
        while cur:
            slot = cur - 1
            if slot >= self.nslots or slot in seen:
                raise UnrecoverableLogError(f"corrupt link to slot {slot}")
            seen.add(slot)
            addr = self.slot_addr(slot)
            entries.append(RecoveredEntry(mem.load(addr + WORD_SIZE, PAYLOAD_BYTES),
                                          slot, len(entries)))
            self._consumed[slot] = 1
            cur = mem.load_word(addr)
        if entries:
            self.head = entries[0].slot
            self._last_slot = entries[-1].slot
            self.tail = (entries[-1].slot + 1) % self.nslots
        else:
            self.head = self.tail = 0
            self._last_slot = None
        self.used = len(entries)
        return entries

    def trim(self, upto: int) -> None:
        if upto not in self._consumed:
            raise TrimError(f"slot {upto} is not a known entry")
        mem = self.mem
        d = (upto - self.head) % self.nslots + 1
        if d > self.used:
            raise TrimError("trimming past the tail")
        new_root = mem.load_word(self.slot_addr(upto))
        mem.store_word(self.base + ROOT_WORD_OFF, new_root, RELEASE)
        mem.clflushopt(mem.line_of(self.base))
        mem.sfence()
        for i in range(d):
            self._consumed.pop((self.head + i) % self.nslots, None)
        self.used -= d
        self.head = (upto + 1) % self.nslots
        if self.used == 0:
            self._last_slot = None
            self.tail = self.head
