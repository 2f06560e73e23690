"""Shared circular-log machinery: slot addressing, durable head word, polarity.

A log region starts with one header cache line holding the durable head word
(head slot index in bits 0..62, validity-bit polarity in bit 63).  The linked
log keeps its chain root, and the checksum logs their wrap epoch, in the same
header line.  The entry area after the header is divided into fixed-size
slots; entries never straddle the region end.  The tail is volatile and is
never consulted by recovery.
"""

from __future__ import annotations

import functools
import struct
from typing import NamedTuple

from ..pmem import LINE_SIZE, RELEASE, SimMemory, WORD_SIZE

HEADER_BYTES = LINE_SIZE
HEAD_WORD_OFF = 0
ROOT_WORD_OFF = 16  # linked log only


class LogError(Exception):
    pass


class PayloadError(LogError):
    pass


class LogFullError(LogError):
    pass


class TrimError(LogError):
    pass


class UnrecoverableLogError(LogError):
    pass


class EntryLayout(NamedTuple):
    total_len: int
    metadata_slots: tuple[int, ...]  # metadata word offsets in the entry


class RecoveredEntry(NamedTuple):
    payload: bytes
    slot: int
    rank: int  # 0 = oldest


def slot_size_for(total: int) -> int:
    """Smallest slot that holds `total` bytes without an entry crossing a
    cache-line boundary it cannot validate: a divisor of the line size, or a
    whole number of lines."""
    for s in (16, 32, LINE_SIZE):
        if total <= s:
            return s
    return (total + LINE_SIZE - 1) // LINE_SIZE * LINE_SIZE


def padded(data: bytes) -> bytes:
    """`data` zero-padded to whole 8-byte words."""
    return data + b"\0" * (-len(data) % WORD_SIZE)


@functools.lru_cache(maxsize=64)
def _words_struct(nbytes: int) -> struct.Struct:
    return struct.Struct(f"<{nbytes // WORD_SIZE}Q")


def words_of(data: bytes) -> list[int]:
    """Little-endian 8-byte words of `data`, the last zero-padded."""
    data = padded(data)
    return list(_words_struct(len(data)).unpack(data))


class CircularLog:
    """Base class for the slot-oriented log algorithms.

    An append is one round trip, and this class owns it: the format's
    `_store_entry` issues the entry's stores in persist order (each run of
    relaxed payload words as one `store_words` call), `append`
    flushes the slot and fences once, and the format's `_commit` does only
    what must follow that fence.  Recovery hands each scanned slot's address
    to the format's `_decode`, which loads the slot in the order it
    validates it: a slot within one line in one load, a slot across lines
    one line at a time (`_load_through`), each only once the checks of the
    lines before it pass.  Subclasses implement
    `_slot_bytes`, `_store_entry` and `_decode`.  Payload length is fixed per
    log instance; the geometry classmethods size a log without building one.
    """

    name = "?"

    def __init__(self, mem: SimMemory, base: int, size: int, payload_len: int,
                 *, create: bool = True):
        if base % LINE_SIZE or size % LINE_SIZE:
            raise LogError("log region must be line-aligned")
        self.mem = mem
        self.base = base
        self.size = size
        self.payload_len = payload_len
        self.slot_size = self.slot_bytes(payload_len)
        self.nslots = (size - HEADER_BYTES) // self.slot_size
        if self.nslots < 2:
            raise LogError("log region too small for two entries")
        self.head = 0
        self.polarity = 1
        self.tail = 0
        self.used = 0
        self._consumed: dict[int, int] = {}  # entry slot -> slots it occupies
        if create:
            self._create()

    @classmethod
    def attach(cls, mem: SimMemory, base: int, size: int, payload_len: int):
        """Bind to an existing (e.g. crash-image) region without writing."""
        return cls(mem, base, size, payload_len, create=False)

    # --------------------------------------------------------------- geometry

    @classmethod
    def slot_bytes(cls, payload_len: int) -> int:
        """Bytes of one slot for `payload_len`-byte payloads; raises
        PayloadError if this entry format cannot hold such a payload."""
        if payload_len <= 0:
            raise PayloadError("payload length must be positive")
        return cls._slot_bytes(payload_len)

    @classmethod
    def region_bytes(cls, payload_len: int, nslots: int) -> int:
        """Smallest line-aligned region holding the header and `nslots`
        slots."""
        size = HEADER_BYTES + nslots * cls.slot_bytes(payload_len)
        return -(-size // LINE_SIZE) * LINE_SIZE

    @classmethod
    def fresh(cls, payload_len: int, nslots: int, **mem_options):
        """A new log of at least `nslots` slots alone in a new
        `SimMemory(region, **mem_options)`, its formatting writes fenced."""
        region = cls.region_bytes(payload_len, nslots)
        mem = SimMemory(region, **mem_options)
        log = cls(mem, 0, region, payload_len)
        if mem.pending_flushes:
            mem.sfence()
        return log

    # ------------------------------------------------------------------ hooks

    @classmethod
    def _slot_bytes(cls, payload_len: int) -> int:
        raise NotImplementedError

    def _slots_needed(self, payload: bytes) -> int:
        return 1

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        """Store the entry at `addr`, in persist order; no flush, no fence."""
        raise NotImplementedError

    def _commit(self, slot: int, addr: int, payload: bytes, needed: int) -> None:
        """Whatever must follow the fence that made the entry durable."""

    def _decode(self, slot: int, addr: int):
        """(payload, slots consumed) if the slot at `addr` holds a valid
        entry under the current head/polarity, else None."""
        raise NotImplementedError

    def _init_area(self) -> None:
        pass

    def _before_head_moves(self) -> None:
        """Runs in a valid `trim` before the new head word is written."""

    def _after_trim(self, freed_slots: list[int]) -> None:
        pass

    # -------------------------------------------------------------- addresses

    def slot_addr(self, slot: int) -> int:
        return self.base + HEADER_BYTES + slot * self.slot_size

    def _load_through(self, addr: int, raw: bytes, off: int) -> bytes:
        """`raw`, the first bytes of the slot at `addr`, extended by one
        load through the line that holds slot offset `off`."""
        n = len(raw)
        if off < n:
            return raw
        end = min(self.slot_size, ((addr + off) | (LINE_SIZE - 1)) + 1 - addr)
        return raw + self.mem.load(addr + n, end - n)

    def expected_bit(self, slot: int) -> int:
        return self.polarity if slot >= self.head else 1 - self.polarity

    # ----------------------------------------------------------- durable head

    def _pack_header(self) -> int:
        return (self.head & ((1 << 63) - 1)) | (self.polarity << 63)

    def _load_header(self, word: int) -> None:
        self.head = word & ((1 << 63) - 1)
        self.polarity = word >> 63

    def _persist_header(self) -> None:
        self.mem.store_word(self.base + HEAD_WORD_OFF, self._pack_header(), RELEASE)
        self.mem.clflushopt(self.mem.line_of(self.base))
        self.mem.sfence()

    def _create(self) -> None:
        self._persist_header()
        self._init_area()

    # -------------------------------------------------------------------- ops

    def append(self, payload: bytes) -> int:
        if len(payload) != self.payload_len:
            raise PayloadError(
                f"this log holds {self.payload_len}-byte payloads, got {len(payload)}")
        needed = self._slots_needed(payload)
        if self.used + needed > self.nslots:
            raise LogFullError("log full; trim before appending")
        slot = self.tail
        addr = self.slot_addr(slot)
        self._store_entry(slot, addr, payload)
        self.mem.flush_range(addr, self.slot_size)
        self.mem.sfence()
        self._commit(slot, addr, payload, needed)
        self._consumed[slot] = needed
        self.tail = (slot + needed) % self.nslots
        self.used += needed
        return slot

    def recover(self) -> list[RecoveredEntry]:
        word = self.mem.load_word(self.base + HEAD_WORD_OFF)
        self._load_header(word)
        if self.head >= self.nslots:
            raise UnrecoverableLogError(f"corrupt head word {word:#x}")
        self._consumed.clear()
        entries: list[RecoveredEntry] = []
        slot = self.head
        scanned = 0
        while scanned < self.nslots:
            res = self._decode(slot, self.slot_addr(slot))
            if res is None:
                break
            payload, consumed = res
            entries.append(RecoveredEntry(payload, slot, len(entries)))
            self._consumed[slot] = consumed
            scanned += consumed
            slot = (slot + consumed) % self.nslots
        self.tail = slot
        self.used = scanned
        return entries

    def trim(self, upto: int) -> None:
        if self.used == 0:
            raise TrimError("nothing to trim")
        consumed = self._consumed.get(upto)
        if consumed is None:
            raise TrimError(f"slot {upto} is not a known entry")
        end = (upto + consumed - 1) % self.nslots
        d = (end - self.head) % self.nslots + 1
        if d > self.used:
            raise TrimError("trimming past the tail")
        freed = [(self.head + i) % self.nslots for i in range(d)]
        self._before_head_moves()
        new_head = (self.head + d) % self.nslots
        if self.head + d >= self.nslots:
            self.polarity ^= 1
            self._on_wrap()
        self.head = new_head
        self._persist_header()
        self.used -= d
        for s in freed:
            self._consumed.pop(s, None)
        self._after_trim(freed)

    def _on_wrap(self) -> None:
        pass
