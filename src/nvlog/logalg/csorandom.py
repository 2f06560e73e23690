"""Randomized-initialization log: entries keep their natural layout.

Free log space is pre-filled with a fixed 64-bit random constant R.  A line of
an entry is fully written iff its last payload word differs from R; in the
2^-64 collision case a follow-up sentinel entry (all words S = ~R) certifies
the data entry at the cost of a second critical-path round trip.

Refills (R over the whole log at creation, and over each slot a trim frees)
are flushed but not fenced; a later fence makes them durable off the critical
path.  Recovery may trust R only once it is durable, so:

* an append fences first when any slot from its own first slot through two
  slots past its end was refilled since the last fence: the slot after the
  entry ends the scan, and a stale sentinel in the one after that would
  certify an all-R slot as an entry;
* a full log has no free slot to end the scan, so trimming it records its
  first freed slot as the stop slot in the head word (head index in bits
  0..31, stop slot + 1 in bits 32..62, 0 for none; polarity in bit 63), and
  the append into that slot clears the stop in the same fence as its entry.
"""

from __future__ import annotations

from ..pmem import LINE_SIZE, RELEASE, WORD_SIZE
from .base import CircularLog, HEAD_WORD_OFF, PayloadError, slot_size_for

RANDOM_VALUE = 0x9E3779B97F4A7C15
SENTINEL_VALUE = RANDOM_VALUE ^ ((1 << 64) - 1)

_R_BYTES = RANDOM_VALUE.to_bytes(WORD_SIZE, "little")
_S_BYTES = SENTINEL_VALUE.to_bytes(WORD_SIZE, "little")
_HEAD_MASK = (1 << 32) - 1
_STOP_MASK = (1 << 31) - 1


class CsoRandomLog(CircularLog):
    name = "cso-random"

    def __init__(self, *args, **kwargs):
        self._stop = -1  # slot that ends the scan, -1 for none
        self._refilled: set[int] = set()  # refilled since sfence _fill_mark
        self._fill_mark = -1
        super().__init__(*args, **kwargs)
        # Slot-relative offset of the last payload word in each line the
        # payload touches.  A slot either fits in one line or starts on a
        # line boundary, so the list is the same for every slot.
        self._checks = [min(self.payload_len, off + LINE_SIZE) - WORD_SIZE
                        for off in range(0, self.payload_len, LINE_SIZE)]

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        if payload_len % WORD_SIZE:
            raise PayloadError("payload must be a multiple of 8 bytes")
        return slot_size_for(payload_len)

    def _init_area(self) -> None:
        self.random_init(0, self.nslots)

    def _pack_header(self) -> int:
        return ((self.head & _HEAD_MASK) | ((self._stop + 1) << 32)
                | (self.polarity << 63))

    def _load_header(self, word: int) -> None:
        self.head = word & _HEAD_MASK
        self._stop = ((word >> 32) & _STOP_MASK) - 1
        self.polarity = word >> 63

    def _unfenced_refills(self) -> set[int]:
        """Slots refilled since the last fence."""
        if self.mem.stats.sfence_count != self._fill_mark:
            self._refilled.clear()
        return self._refilled

    # ------------------------------------------------------------------- ops

    def random_init(self, first_slot: int, count: int) -> None:
        """Refill slots with R; flushed but not fenced (a later operation's
        fence completes the round trip off the critical path)."""
        mem = self.mem
        refilled = self._unfenced_refills()
        lines = set()
        for s in range(first_slot, first_slot + count):
            slot = s % self.nslots
            addr = self.slot_addr(slot)
            mem.store(addr, _R_BYTES * (self.slot_size // WORD_SIZE))
            refilled.add(slot)
            lines.update(range(addr // LINE_SIZE,
                               (addr + self.slot_size - 1) // LINE_SIZE + 1))
        for line in sorted(lines):
            mem.clflushopt(line)
        self._fill_mark = mem.stats.sfence_count

    def _slots_needed(self, payload: bytes) -> int:
        for i in range(0, len(payload), WORD_SIZE):
            if payload[i:i + WORD_SIZE] == _S_BYTES:
                raise PayloadError("payload contains the reserved sentinel word")
        collision = any(payload[off:off + WORD_SIZE] == _R_BYTES
                        for off in self._checks)
        return 2 if collision else 1

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        mem = self.mem
        refilled = self._unfenced_refills()
        if refilled:
            end = slot + self._slots_needed(payload)
            if any(s % self.nslots in refilled for s in range(slot, end + 2)):
                mem.sfence()
        if slot == self._stop:  # R ends the scan again after this entry
            self._stop = -1
            mem.store_word(self.base + HEAD_WORD_OFF, self._pack_header(),
                           RELEASE)
            mem.clflushopt(mem.line_of(self.base))
        last = len(payload) - WORD_SIZE
        mem.store_words(addr, payload[:last])
        mem.store(addr + last, payload[last:], RELEASE)

    def _commit(self, slot: int, addr: int, payload: bytes, needed: int) -> None:
        if needed == 1:
            return
        # Collision: certify with a sentinel entry in the next slot.
        mem = self.mem
        saddr = self.slot_addr((slot + 1) % self.nslots)
        mem.store(saddr, _S_BYTES * (self.slot_size // WORD_SIZE), RELEASE)
        mem.flush_range(saddr, self.slot_size)
        mem.sfence()

    def _decode(self, slot: int, addr: int):
        if slot == self._stop:
            return None
        raw = self._load_through(addr, b"", 0)
        if raw[:WORD_SIZE] == _S_BYTES:
            return None  # stray sentinel: not a data entry
        for off in self._checks:   # one per line
            raw = self._load_through(addr, raw, off)
            if raw[off:off + WORD_SIZE] == _R_BYTES:
                break
        else:
            return raw[:self.payload_len], 1
        # Collision or torn write: only a valid sentinel in the next slot
        # proves the entry was fully persisted.
        nxt = self.mem.load(self.slot_addr((slot + 1) % self.nslots),
                            self.slot_size)
        if all(nxt[off:off + WORD_SIZE] == _S_BYTES
               for off in (0, *self._checks)):
            raw = self._load_through(addr, raw, self.payload_len - 1)
            return raw[:self.payload_len], 2
        return None

    def _before_head_moves(self) -> None:
        if self.used == self.nslots:
            self._stop = self.head  # the first slot this trim frees

    def _after_trim(self, freed_slots: list[int]) -> None:
        # freed slots run on from the old head, wrapping at the region end
        self.random_init(freed_slots[0], len(freed_slots))
