"""Single-trip persistent hash map on top of an enhanced log.

Entries live in fixed-size log slots; the index (a dict from each live key to
its slot, with no buckets or chains), the reuse queue and the version counter
are volatile and rebuilt by recovery.  Each slot's first word packs two
validity bits, an 8-bit transaction counter and a 54-bit version; an entry is
valid only when all of its validity bits agree, which a flip-before /
flip-after write protocol maintains so that a crash leaves the slot readable
as wholly old, wholly new, or invalid.

Slot layout (``node_lines`` cache lines):

    line 0:  meta word | klen+flags u8 | vlen u16 | data bytes...
    line i:  data bytes... | validity byte (bit 0; bits 0..1 when the line
             also holds key bytes, i.e. for long keys)

Key and value bytes stream through the data region, skipping each later
line's trailing validity byte.  A tombstone is flagged in bit 7 of the
key-length byte.

Updates, removes and transactions share one write path: an update is a
one-member write, a remove a one-tombstone write, and a transaction writes
all its members under one version, each op ending in one commit fence.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import NamedTuple

from .pmem import LINE_SIZE, RELEASE, SimMemory, WORD_SIZE

_TXN_SHIFT = 2
_VER_SHIFT = 10
_VER_MAX = (1 << 54) - 1

_HDR = struct.Struct("<QBH")   # meta word, klen+flags, vlen
_KV_HDR = struct.Struct("<BH")  # the header after the meta word
_HDR_BYTES = _HDR.size
_TOMBSTONE = 0x80
_KLEN_MASK = 0x7F


class StpsError(Exception):
    pass


class CapacityError(StpsError):
    pass


class InvariantError(StpsError):
    pass


def pack_meta(v1: int, v2: int, txncount: int, version: int) -> int:
    return v1 | (v2 << 1) | (txncount << _TXN_SHIFT) | (version << _VER_SHIFT)


class ParsedEntry(NamedTuple):
    key: bytes
    value: bytes
    version: int
    txncount: int
    tombstone: bool


class PersistentHashMap:
    def __init__(self, mem: SimMemory, base: int, size: int, *,
                 node_lines: int = 1, nbuckets: int | None = None,
                 two_round_commit: bool = False):
        """A map over the line-aligned region [base, base + size).

        `nbuckets` is ignored: the volatile index is a dict.  The keyword is
        kept only because nvbench's kv-mixed workload still passes it."""
        if base % LINE_SIZE or size % LINE_SIZE:
            raise StpsError("region must be line-aligned")
        self.mem = mem
        self.base = base
        self.node_lines = node_lines
        self.slot_size = node_lines * LINE_SIZE
        self.nslots = size // self.slot_size
        self.two_round_commit = two_round_commit
        # data region capacities
        self._run0 = LINE_SIZE - _HDR_BYTES
        self._runN = LINE_SIZE - 1
        self.capacity = self._run0 + (node_lines - 1) * self._runN
        # slot offsets of the validity bytes of the lines after the first
        # (the first line's bits live in the meta word)
        self._bit_offs = [(i + 1) * LINE_SIZE + self._runN
                          for i in range(node_lines - 1)]
        self.max_key = min(self._run0 + (self._runN if node_lines > 1 else 0),
                           _KLEN_MASK)
        # volatile structures; a zeroed region already reads as all-dead
        # slots, so a new map writes nothing (call recover() on an image)
        self._index: dict[bytes, int] = {}   # live key -> slot
        self._reuse: deque[int] = deque()
        self._bump = 0
        self._next_version = 1

    # ------------------------------------------------------------- addressing

    def slot_addr(self, slot: int) -> int:
        return self.base + slot * self.slot_size

    def _data_runs(self, length: int) -> list[tuple[int, int]]:
        """(offset in slot, nbytes) runs covering `length` data bytes."""
        runs = [(_HDR_BYTES, min(length, self._run0))]
        remaining = length - self._run0
        off = LINE_SIZE
        while remaining > 0:
            runs.append((off, min(remaining, self._runN)))
            remaining -= self._runN
            off += LINE_SIZE
        return runs

    # ------------------------------------------------------ entry read/write

    def _dual_for(self, klen: int) -> int:
        return 1 if klen <= self._run0 else 2

    def _slot_bit(self, raw: bytes) -> int | None:
        """The validity bit every line of the slot whose bytes are `raw`
        agrees on, or None.  The meta word holds two bits; each later line's
        validity byte holds bit 0, and bit 1 too while the line also holds
        key bytes."""
        b0 = raw[0]
        v = b0 & 1
        if (b0 >> 1) & 1 != v:
            return None
        bit_offs = self._bit_offs
        if not bit_offs:
            return v
        dual = self._dual_for(raw[WORD_SIZE] & _KLEN_MASK)
        for i, off in enumerate(bit_offs):
            b = raw[off]
            if b & 1 != v or (i + 1 < dual and (b >> 1) & 1 != v):
                return None
        return v

    def _decode(self, raw: bytes) -> ParsedEntry | None:
        """Validate and decode a slot from its bytes `raw`."""
        meta, kbyte, vlen = _HDR.unpack_from(raw)
        version = meta >> _VER_SHIFT
        klen = kbyte & _KLEN_MASK
        n = klen + vlen
        if (version == 0 or klen == 0 or klen > self.max_key
                or n > self.capacity or self._slot_bit(raw) is None):
            return None
        if n <= self._run0:   # all in line 0's run
            data = raw[_HDR_BYTES:_HDR_BYTES + n]
        else:
            data = b"".join([raw[off:off + size]
                             for off, size in self._data_runs(n)])
        return ParsedEntry(data[:klen], data[klen:], version,
                           (meta >> _TXN_SHIFT) & 0xFF, bool(kbyte & _TOMBSTONE))

    def parse_entry(self, slot: int) -> ParsedEntry | None:
        """Validate and decode a slot; None if invalid, dead, or implausible."""
        size = self.slot_size
        return self._decode(self.mem.load(self.base + slot * size, size))

    def append_entry(self, slot: int, key: bytes, value: bytes, version: int,
                     txncount: int, *, tombstone: bool = False) -> None:
        """Store and flush one entry over a reusable slot; the caller's
        commit fence makes it durable (two-round mode fences it here).

        Precondition: all of the slot's validity bits are equal.  The first
        bit set flips before any data store and the second flips after all of
        them, so an interrupted write can never read back as a mixture."""
        self._check_kv(key, value)
        self._store_slot(slot, key, value, version, txncount, tombstone)

    def _store_slot(self, slot: int, key: bytes, value: bytes, version: int,
                    txncount: int, tombstone: bool) -> None:
        """`append_entry` without its key and value check.  `_write`
        stores every entry through this; `update` and `txn_update` check
        each pair once before `_write`, and a tombstone's key was checked
        when it was indexed.  Key and value go out as one word run when
        they fit in line 0's data run, which they always do with 1-line
        nodes."""
        if version > _VER_MAX or not 1 <= txncount <= 255:
            raise StpsError("bad version or transaction count")
        mem = self.mem
        size = self.slot_size
        addr = self.base + slot * size
        raw = mem.load(addr, size)
        old = self._slot_bit(raw)
        if old is None:
            raise InvariantError(f"slot {slot} validity bits disagree")
        new = old ^ 1
        klen = len(key)
        bit_offs = self._bit_offs

        # first flip: line 0 via the meta word, plus line 1 when it holds key
        meta = _HDR.unpack_from(raw)[0]
        mem.store_word(addr, (meta & ~1) | new)
        if bit_offs and klen > self._run0:
            b = raw[bit_offs[0]]
            mem.store(addr + bit_offs[0], bytes([(b & ~1) | new]))

        mem.store(addr + WORD_SIZE, _KV_HDR.pack(
            klen | _TOMBSTONE if tombstone else klen, len(value)))
        data = key + value
        if len(data) <= self._run0:
            mem.store_words(addr + _HDR_BYTES, data)
        else:
            pos = 0
            for run_off, run_len in self._data_runs(len(data)):
                mem.store_words(addr + run_off, data[pos:pos + run_len])
                pos += run_len

        if self.two_round_commit:
            mem.flush_range(addr, size)
            mem.sfence()

        new_meta = (new | new << 1 | txncount << _TXN_SHIFT
                    | version << _VER_SHIFT)
        if self.node_lines == 1:
            mem.store_word(addr, new_meta, RELEASE)
        else:
            mem.store_word(addr, new_meta)
            dual = self._dual_for(klen)
            for i, off in enumerate(bit_offs):
                val = new | (new << 1) if i + 1 < dual else new
                mem.store(addr + off, bytes([val]))
        mem.flush_range(addr, size)
        if self.two_round_commit:
            mem.sfence()

    # ----------------------------------------------------------- volatile ops

    def _alloc(self) -> int:
        if self._reuse:
            return self._reuse.popleft()
        if self._bump < self.nslots:
            slot = self._bump
            self._bump += 1
            return slot
        raise CapacityError("map region exhausted and nothing is reusable")

    def _check_kv(self, key: bytes, value: bytes) -> None:
        if not key or len(key) > self.max_key:
            raise StpsError(f"key length {len(key)} unsupported "
                            f"(1..{self.max_key} bytes)")
        if len(key) + len(value) > self.capacity:
            raise CapacityError("key+value exceed the node size")

    def _write(self, pairs: list[tuple[bytes, bytes | None]]) -> None:
        """The one write path: store `(key, value)` pairs under one version
        and transaction count, then one commit fence.  A None value is a
        tombstone (only `remove` writes one, alone, for an indexed key): it
        is never indexed.  The version is used up once a slot is taken, so
        a write that fails part way never shares it with the next.
        Replaced and tombstone slots join the reuse FIFO only after the
        commit fence.  A write the free slots cannot hold raises
        CapacityError before it stores anything."""
        index, reuse = self._index, self._reuse
        n = len(pairs)
        # the members must fit in the free slots; a tombstone, which comes
        # alone, is not counted
        if (pairs[0][1] is not None
                and n > len(reuse) + self.nslots - self._bump):
            raise CapacityError("map region exhausted and nothing is reusable")
        version = self._next_version
        freed = []
        popped = False
        for key, value in pairs:
            old = index.get(key, -1)
            # Reused slots are only safe once every earlier-queued slot's
            # overwrite is durable; a second pop inside one fence window could
            # leave a torn tombstone next to a torn target, resurrecting a
            # removed key.  Fence before popping again.
            if reuse:
                if popped:
                    self.mem.sfence()
                popped = True
            slot = self._alloc()
            self._next_version = version + 1
            tombstone = value is None
            self._store_slot(slot, key, value or b"", version, n, tombstone)
            if tombstone:
                del index[key]
                freed += [old, slot]
            else:
                index[key] = slot
                if old != -1:
                    freed.append(old)
        self.mem.sfence()
        reuse.extend(freed)

    # ------------------------------------------------------------- public ops

    def get(self, key: bytes) -> bytes | None:
        slot = self._index.get(key)
        if slot is None:
            return None
        return self.parse_entry(slot).value

    def update(self, key: bytes, value: bytes) -> None:
        self._check_kv(key, value)
        self._write([(key, value)])

    def remove(self, key: bytes) -> None:
        if key in self._index:   # an absent key's remove writes nothing
            self._write([(key, None)])

    def txn_update(self, pairs: list[tuple[bytes, bytes]]) -> None:
        """Write several entries with one shared version and a matching
        transaction counter; recovery applies all of them or none.  A key
        named twice raises StpsError before anything is stored: its members
        share one version, so recovery could not tell which value came last.

        Cost: one fenced round trip, plus one more for each slot after the
        first that the transaction takes from the reuse FIFO (popping a
        second reused slot fences first).  Fresh slots cost nothing extra."""
        n = len(pairs)
        if not 1 <= n <= 255:
            raise StpsError("transactions hold 1..255 elements")
        seen = set()
        for key, value in pairs:
            self._check_kv(key, value)
            if key in seen:
                raise StpsError(f"transaction names key {key!r} twice")
            seen.add(key)
        self._write(pairs)

    def items(self) -> dict[bytes, bytes]:
        return {key: self.parse_entry(slot).value
                for key, slot in self._index.items()}

    # --------------------------------------------------------------- recovery

    def recover(self) -> "PersistentHashMap":
        """Rebuild all volatile state from the region and reinitialize
        every non-live slot to the canonical dead state, so it can be
        reused without history: `scan()`, then `repair()` of what it
        read."""
        self.repair(self.scan())
        return self

    def scan(self) -> list[bytes]:
        """Recovery's read-only half: validate every slot, drop
        transaction groups with missing members, replay survivors in
        version order, and rebuild the index, the reuse queue (every
        non-live slot, in slot order), the bump and the version.  Writes
        nothing.  Returns each slot's bytes, for `repair()`."""
        size = self.slot_size
        region = self.mem.load(self.base, self.nslots * size)
        raws = [region[off:off + size] for off in range(0, len(region), size)]
        zero = bytes(size)   # never written: decodes to None, needs no reset
        parsed: dict[int, ParsedEntry] = {}
        for slot, raw in enumerate(raws):
            if raw != zero:
                e = self._decode(raw)
                if e is not None:
                    parsed[slot] = e
        by_version: dict[int, list[int]] = {}
        for slot, e in parsed.items():
            by_version.setdefault(e.version, []).append(slot)
        committed = []
        for version in sorted(by_version):
            slots = by_version[version]
            if all(parsed[s].txncount == len(slots) for s in slots):
                committed.extend(sorted(slots))
        live: dict[bytes, int] = {}
        max_version = 0
        for slot in committed:
            e = parsed[slot]
            max_version = max(max_version, e.version)
            if e.tombstone:
                live.pop(e.key, None)
            else:
                live[e.key] = slot
        self._index = live
        live_slots = set(live.values())
        reuse = self._reuse = deque()
        for slot in range(self.nslots):
            if slot not in live_slots:
                reuse.append(slot)
        self._bump = self.nslots
        self._next_version = max_version + 1
        return raws

    def repair(self, raws: list[bytes]) -> None:
        """Recovery's writes, after `scan()` returned `raws`: zero the
        meta word and the validity bytes of each reusable slot where they
        are nonzero, in slot order, flush each slot it wrote, then fence
        once if it wrote any.  Changes no volatile state."""
        mem = self.mem
        size = self.slot_size
        zero = bytes(size)
        touched = False
        for slot in self._reuse:
            raw = raws[slot]
            if raw == zero:
                continue
            addr = self.slot_addr(slot)
            dirty = False
            if any(raw[:WORD_SIZE]):
                mem.store_word(addr, 0)
                dirty = True
            for off in self._bit_offs:
                if raw[off]:
                    mem.store(addr + off, b"\0")
                    dirty = True
            if dirty:
                mem.flush_range(addr, size)
                touched = True
        if touched:
            mem.sfence()
