"""Single-trip persistent hash map on top of an enhanced log.

Entries live in fixed-size log slots; the bucket array, chain links, reuse
queue and version counter are volatile and rebuilt by recovery.  Each slot's
first word packs two validity bits, an 8-bit transaction counter and a 54-bit
version; an entry is valid only when all of its validity bits agree, which a
flip-before / flip-after write protocol maintains so that a crash leaves the
slot readable as wholly old, wholly new, or invalid.

Slot layout (``node_lines`` cache lines):

    line 0:  meta word | klen+flags u8 | vlen u16 | data bytes...
    line i:  data bytes... | validity byte (bit 0; bits 0..1 when the line
             also holds key bytes, i.e. for long keys)

Key and value bytes stream through the data region, skipping each later
line's trailing validity byte.  A tombstone is flagged in bit 7 of the
key-length byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .pmem import LINE_SIZE, RELEASE, SimMemory, WORD_SIZE

_V1 = 1
_V2 = 2
_TXN_SHIFT = 2
_VER_SHIFT = 10
_VER_MAX = (1 << 54) - 1

_HDR_BYTES = WORD_SIZE + 3  # meta word, klen+flags, vlen
_TOMBSTONE = 0x80
_KLEN_MASK = 0x7F

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class StpsError(Exception):
    pass


class CapacityError(StpsError):
    pass


class InvariantError(StpsError):
    pass


def hash_key(key: bytes) -> int:
    h = _FNV_OFFSET
    for b in key:
        h = ((h ^ b) * _FNV_PRIME) & (2 ** 64 - 1)
    return h


def pack_meta(v1: int, v2: int, txncount: int, version: int) -> int:
    return v1 | (v2 << 1) | (txncount << _TXN_SHIFT) | (version << _VER_SHIFT)


@dataclass(frozen=True)
class ParsedEntry:
    key: bytes
    value: bytes
    version: int
    txncount: int
    tombstone: bool


class PersistentHashMap:
    def __init__(self, mem: SimMemory, base: int, size: int, *,
                 node_lines: int = 1, nbuckets: int = 1 << 16,
                 two_round_commit: bool = False):
        if base % LINE_SIZE or size % LINE_SIZE:
            raise StpsError("region must be line-aligned")
        if nbuckets & (nbuckets - 1):
            raise StpsError("bucket count must be a power of two")
        self.mem = mem
        self.base = base
        self.node_lines = node_lines
        self.slot_size = node_lines * LINE_SIZE
        self.nslots = size // self.slot_size
        self.nbuckets = nbuckets
        self.two_round_commit = two_round_commit
        # data region capacities
        self._run0 = LINE_SIZE - _HDR_BYTES
        self._runN = LINE_SIZE - 1
        self.capacity = self._run0 + (node_lines - 1) * self._runN
        self.max_key = min(self._run0 + (self._runN if node_lines > 1 else 0),
                           _KLEN_MASK)
        # volatile structures; a zeroed region already reads as all-dead
        # slots, so a new map writes nothing (call recover() on an image)
        self._buckets = [-1] * nbuckets
        self._next = [-1] * self.nslots
        self._reuse: deque[int] = deque()
        self._bump = 0
        self._next_version = 1

    # ------------------------------------------------------------- addressing

    def slot_addr(self, slot: int) -> int:
        return self.base + slot * self.slot_size

    def _bit_addrs(self, slot: int) -> list[int]:
        """Addresses of the per-line validity bytes for lines beyond the
        first (the first line's bits live in the meta word)."""
        addr = self.slot_addr(slot)
        return [addr + (i + 1) * LINE_SIZE + self._runN
                for i in range(self.node_lines - 1)]

    def _data_addrs(self, slot: int, length: int) -> list[tuple[int, int]]:
        """(addr, nbytes) runs covering `length` data bytes of the slot."""
        addr = self.slot_addr(slot)
        runs = []
        remaining = length
        take = min(remaining, self._run0)
        runs.append((addr + _HDR_BYTES, take))
        remaining -= take
        line = 1
        while remaining > 0:
            take = min(remaining, self._runN)
            runs.append((addr + line * LINE_SIZE, take))
            remaining -= take
            line += 1
        return runs

    # ------------------------------------------------------ entry read/write

    def _read_bits(self, slot: int) -> tuple[int, list[int]]:
        meta = self.mem.load_word(self.slot_addr(slot))
        bits = [meta & 1, (meta >> 1) & 1]
        klen = self.mem.load(self.slot_addr(slot) + WORD_SIZE, 1)[0] & _KLEN_MASK
        dual = self._dual_for(klen)
        for i, a in enumerate(self._bit_addrs(slot)):
            b = self.mem.load(a, 1)[0]
            bits.append(b & 1)
            if i + 1 < dual:
                bits.append((b >> 1) & 1)
        return meta, bits

    def _dual_for(self, klen: int) -> int:
        return 1 if klen <= self._run0 else 2

    def parse_entry(self, slot: int) -> ParsedEntry | None:
        """Validate and decode a slot; None if invalid, dead, or implausible."""
        mem = self.mem
        addr = self.slot_addr(slot)
        meta = mem.load_word(addr)
        version = meta >> _VER_SHIFT
        if version == 0:
            return None
        v = meta & 1
        if (meta >> 1) & 1 != v:
            return None
        kbyte = mem.load(addr + WORD_SIZE, 1)[0]
        klen = kbyte & _KLEN_MASK
        vlen = int.from_bytes(mem.load(addr + WORD_SIZE + 1, 2), "little")
        if klen == 0 or klen > self.max_key or klen + vlen > self.capacity:
            return None
        dual = self._dual_for(klen)
        for i, a in enumerate(self._bit_addrs(slot)):
            b = mem.load(a, 1)[0]
            if b & 1 != v:
                return None
            if i + 1 < dual and (b >> 1) & 1 != v:
                return None
        data = b"".join(mem.load(a, n) for a, n in
                        self._data_addrs(slot, klen + vlen))
        return ParsedEntry(data[:klen], data[klen:], version,
                           (meta >> _TXN_SHIFT) & 0xFF, bool(kbyte & _TOMBSTONE))

    def append_entry(self, slot: int, key: bytes, value: bytes, version: int,
                     txncount: int, *, tombstone: bool = False,
                     fence: bool = True) -> None:
        """Write one durable entry over a reusable slot.

        Precondition: all of the slot's validity bits are equal.  The first
        bit set flips before any data store and the second flips after all of
        them, so an interrupted write can never read back as a mixture."""
        mem = self.mem
        addr = self.slot_addr(slot)
        self._check_kv(key, value)
        if version > _VER_MAX or not 1 <= txncount <= 255:
            raise StpsError("bad version or transaction count")
        meta, bits = self._read_bits(slot)
        if len(set(bits)) != 1:
            raise InvariantError(f"slot {slot} validity bits disagree")
        old = bits[0]
        new = old ^ 1
        dual = self._dual_for(len(key))
        bit_addrs = self._bit_addrs(slot)

        # first flip: line 0 via the meta word, plus line 1 when it holds key
        mem.store_word(addr, (meta & ~1) | new)
        if dual > 1 and self.node_lines > 1:
            b = mem.load(bit_addrs[0], 1)[0]
            mem.store(bit_addrs[0], bytes([(b & ~1) | new]))
        mem.release_fence()

        kbyte = len(key) | (_TOMBSTONE if tombstone else 0)
        hdr = bytes([kbyte]) + len(value).to_bytes(2, "little")
        mem.store(addr + WORD_SIZE, hdr)
        data = key + value
        pos = 0
        for run_addr, run_len in self._data_addrs(slot, len(data)):
            for off in range(0, run_len, WORD_SIZE):
                chunk = data[pos + off:pos + min(off + WORD_SIZE, run_len)]
                mem.store(run_addr + off, chunk)
            pos += run_len

        if self.two_round_commit:
            mem.flush_range(addr, self.slot_size)
            mem.sfence()

        new_meta = pack_meta(new, new, txncount, version)
        if self.node_lines == 1:
            mem.store_word(addr, new_meta, RELEASE)
        else:
            mem.release_fence()
            mem.store_word(addr, new_meta)
            for i, a in enumerate(bit_addrs):
                val = new | (new << 1) if i + 1 < dual else new
                mem.store(a, bytes([val]))
        mem.flush_range(addr, self.slot_size)
        if fence or self.two_round_commit:
            mem.sfence()

    # ----------------------------------------------------------- volatile ops

    def _bucket_of(self, key: bytes) -> int:
        return hash_key(key) & (self.nbuckets - 1)

    def _find(self, key: bytes) -> tuple[int, int, int]:
        """(bucket, prev slot or -1, matching slot or -1)."""
        b = self._bucket_of(key)
        prev, cur = -1, self._buckets[b]
        while cur != -1:
            e = self.parse_entry(cur)
            if e is not None and not e.tombstone and e.key == key:
                return b, prev, cur
            prev, cur = cur, self._next[cur]
        return b, prev, -1

    def _alloc(self) -> int:
        if self._reuse:
            return self._reuse.popleft()
        if self._bump < self.nslots:
            slot = self._bump
            self._bump += 1
            return slot
        raise CapacityError("map region exhausted and nothing is reusable")

    def _link(self, bucket: int, slot: int, replaced: int) -> None:
        if replaced != -1:
            # splice out the replaced node, insert the new one at its spot
            self._next[slot] = self._next[replaced]
            cur = self._buckets[bucket]
            if cur == replaced:
                self._buckets[bucket] = slot
            else:
                while self._next[cur] != replaced:
                    cur = self._next[cur]
                self._next[cur] = slot
            self._next[replaced] = -1
        else:
            self._next[slot] = self._buckets[bucket]
            self._buckets[bucket] = slot

    def _check_kv(self, key: bytes, value: bytes) -> None:
        if not key or len(key) > self.max_key:
            raise StpsError(f"key length {len(key)} unsupported "
                            f"(1..{self.max_key} bytes)")
        if len(key) + len(value) > self.capacity:
            raise CapacityError("key+value exceed the node size")

    def allow_reuse(self, slot: int) -> None:
        self._reuse.append(slot)

    # ------------------------------------------------------------- public ops

    def get(self, key: bytes) -> bytes | None:
        _, _, cur = self._find(key)
        if cur == -1:
            return None
        return self.parse_entry(cur).value

    def update(self, key: bytes, value: bytes) -> None:
        self._check_kv(key, value)
        bucket, _, replaced = self._find(key)
        slot = self._alloc()
        version = self._next_version
        self._next_version += 1
        self.append_entry(slot, key, value, version, 1)
        self._link(bucket, slot, replaced)
        if replaced != -1:
            self.allow_reuse(replaced)

    def update_optimized(self, key: bytes, value: bytes) -> None:
        """Same contract as update, but the entry's flush is issued before the
        bucket navigation and the fence last, overlapping flush latency with
        the volatile work."""
        self._check_kv(key, value)
        slot = self._alloc()
        version = self._next_version
        self._next_version += 1
        self.append_entry(slot, key, value, version, 1, fence=False)
        bucket, _, replaced = self._find(key)
        self._link(bucket, slot, replaced)
        if replaced != -1:
            self.allow_reuse(replaced)
        self.mem.sfence()

    def remove(self, key: bytes) -> None:
        bucket, prev, cur = self._find(key)
        if cur == -1:
            return
        slot = self._alloc()
        version = self._next_version
        self._next_version += 1
        self.append_entry(slot, key, b"", version, 1, tombstone=True)
        # unlink the data node; the tombstone is never chained
        if prev == -1:
            self._buckets[bucket] = self._next[cur]
        else:
            self._next[prev] = self._next[cur]
        self._next[cur] = -1
        self.allow_reuse(cur)
        self.allow_reuse(slot)

    def txn_update(self, pairs: list[tuple[bytes, bytes]]) -> None:
        """Write several entries with one shared version and a matching
        transaction counter; recovery applies all of them or none."""
        n = len(pairs)
        if not 1 <= n <= 255:
            raise StpsError("transactions hold 1..255 elements")
        for key, value in pairs:
            self._check_kv(key, value)
        version = self._next_version
        self._next_version += 1
        freed = []
        popped_since_fence = False
        for key, value in pairs:
            bucket, _, replaced = self._find(key)
            # Reused slots are only safe once every earlier-queued slot's
            # overwrite is durable; a second pop inside one fence window could
            # leave a torn tombstone next to a torn target, resurrecting a
            # removed key.  Fence before popping again.
            if self._reuse:
                if popped_since_fence:
                    self.mem.sfence()
                popped_since_fence = True
            slot = self._alloc()
            self.append_entry(slot, key, value, version, n, fence=False)
            self._link(bucket, slot, replaced)
            if replaced != -1:
                freed.append(replaced)
        self.mem.sfence()
        for slot in freed:  # only reusable once the transaction is durable
            self.allow_reuse(slot)

    def items(self) -> dict[bytes, bytes]:
        out = {}
        for head in self._buckets:
            cur = head
            while cur != -1:
                e = self.parse_entry(cur)
                out[e.key] = e.value
                cur = self._next[cur]
        return out

    # --------------------------------------------------------------- recovery

    def recover(self) -> "PersistentHashMap":
        """Rebuild all volatile state from the region: validate every slot,
        drop transaction groups with missing members, replay survivors in
        version order, then reinitialize every non-live slot to the canonical
        dead state so it can be reused without history."""
        mem = self.mem
        parsed: dict[int, ParsedEntry] = {}
        for slot in range(self.nslots):
            e = self.parse_entry(slot)
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
        self._buckets = [-1] * self.nbuckets
        self._next = [-1] * self.nslots
        live_slots = set(live.values())
        for key, slot in live.items():
            b = self._bucket_of(key)
            self._next[slot] = self._buckets[b]
            self._buckets[b] = slot
        # reinitialize everything else
        self._reuse = deque()
        touched = False
        for slot in range(self.nslots):
            if slot in live_slots:
                continue
            addr = self.slot_addr(slot)
            dirty = False
            if mem.load_word(addr) != 0:
                mem.store_word(addr, 0)
                dirty = True
            for a in self._bit_addrs(slot):
                if mem.load(a, 1) != b"\0":
                    mem.store(a, b"\0")
                    dirty = True
            if dirty:
                mem.flush_range(addr, self.slot_size)
                touched = True
            self._reuse.append(slot)
        if touched:
            mem.sfence()
        self._bump = self.nslots
        self._next_version = max_version + 1
        return self
