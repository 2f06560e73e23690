"""Simulated CPU-cache / non-volatile-memory stack with crash-state semantics.

The model keeps two byte images: ``cached`` (what the program last wrote) and a
durable baseline.  Every store is logged per cache line in program order.  A
crash state is a per-line prefix cut over those write logs, constrained by two
rules:

* stores to the same line persist in the order they were issued (a line moves
  to memory atomically, so a persisted store implies all earlier stores to the
  same line persisted too);
* a store that was flushed and fenced persists no later than any store issued
  after the fence.

Unflushed lines may spontaneously write back any prefix at any time, so no
eviction events are modeled.  Crash states are enumerated over the whole
trace, i.e. power may fail at any point up to and including "now".

The model keeps one record: each line's writes (``_writes``), the durable
floors and an undo log of floor raises.  Each write is stamped with the number
of round-trip fences issued before it (``WriteEvent.fence``), which is all the
second rule needs to know about when it was issued.  ``_floors`` holds each
line's floor: the writes that fenced flushes made durable.  A round-trip fence
gets an index (the fence count before it) and appends ``(fence index, line,
previous floor)`` to ``_raises`` for each pending line whose floor it raises,
so a fence costs O(pending lines) and the log holds at most one entry per
flush.  A crash state whose persisted writes carry stamps up to k must honour
the requirements of every fence before fence k: ``_reqs_before`` copies the
floors and undoes the raises of fences k and later, newest first, on first
use, and caches the view by k until ``checkpoint()``.  Later fences get larger
indices, so a cached view never goes stale.

A crash image starts from a copy of ``cached``, which always equals
``_base`` (the image at the start of the epoch) with every logged write
applied, so only the torn lines, those cut below their write count, cost
work: cut 0 pastes the ``_base`` slice, and any other cut pastes the line
replayed from ``_base`` through its first ``cut`` writes, memoised in
``_torn`` by (line, cut).  Within an epoch a line's writes are only
appended to, so a memoised image never goes stale; ``checkpoint()`` clears
the memo with the rest of the history.  Fully persisted lines are never
memoised.

The ``RELEASE`` store tag does not change which crash states are legal; it
marks the writes around which ``boundary_crash_states`` cuts.
"""

from __future__ import annotations

import itertools
import random
import struct
from dataclasses import dataclass
from typing import NamedTuple

LINE_SIZE = 64
WORD_SIZE = 8

RELAXED = "relaxed"
RELEASE = "release"

SNAPSHOT_MAGIC = b"PCSO"
SNAPSHOT_VERSION = 1
_SNAPSHOT_HEADER = struct.Struct("<4sIIQ")


class UsageError(Exception):
    """Caller broke a precondition of the memory model."""


class SnapshotFormatError(Exception):
    """Snapshot file is truncated or has a bad header."""


class EnumerationLimitError(Exception):
    """Too many candidate crash states to enumerate."""


class StaleCrashStateError(Exception):
    """Crash state does not belong to this memory's current event history."""


class WriteEvent(NamedTuple):
    fence: int  # round-trip fences issued before this write, this epoch
    offset_in_line: int
    data: bytes
    ordering: str


_new_event = tuple.__new__   # builds a WriteEvent without its Python __new__


@dataclass
class FlushStats:
    clflushopt_count: int = 0
    sfence_count: int = 0
    fenced_roundtrips: int = 0
    simulated_time_ns: int = 0


@dataclass(frozen=True)
class CrashState:
    """One persisted image: per-line prefix counts over the write logs."""

    cuts: tuple[tuple[int, int], ...]  # sorted (line, writes persisted)
    epoch: int = 0

    def cut(self, line: int) -> int:
        for ln, c in self.cuts:
            if ln == line:
                return c
        return 0


def _check_geometry(capacity: int) -> None:
    if capacity <= 0 or capacity % LINE_SIZE != 0:
        raise UsageError(f"capacity {capacity} not a multiple of line size {LINE_SIZE}")


class SimMemory:
    line_size = LINE_SIZE  # every layer above lays out data by LINE_SIZE

    def __init__(self, capacity: int, latency_ns: int = 0,
                 fence_cost_ns: int = 0):
        _check_geometry(capacity)
        self._start(bytearray(capacity), latency_ns, fence_cost_ns)

    @classmethod
    def _from_image(cls, image: bytearray, latency_ns: int = 0,
                    fence_cost_ns: int = 0) -> "SimMemory":
        """A memory with no history whose cached image is `image` (taken,
        not copied) and whose durable image is a copy of it."""
        mem = cls.__new__(cls)
        mem._start(image, latency_ns, fence_cost_ns)
        return mem

    def _start(self, image: bytearray, latency_ns: int,
               fence_cost_ns: int) -> None:
        self.capacity = len(image)
        self.latency_ns = latency_ns
        self.fence_cost_ns = fence_cost_ns
        self.cached = image
        self._base = bytes(image)  # image at the start of this epoch
        self.stats = FlushStats()
        self._writes: dict[int, list[WriteEvent]] = {}
        self._floors: dict[int, int] = {}   # per-line durable prefix (fenced flushes)
        self._pending: dict[int, int] = {}  # line -> captured prefix of unfenced flushes
        self._fences = 0                    # round-trip fences this epoch
        # (fence index, line, floor before it) per floor raise, in fence order
        self._raises: list[tuple[int, int, int]] = []
        self._req_views: dict[int, dict[int, int]] = {}  # k -> _reqs_before(k)
        self._torn: dict[tuple[int, int], bytes] = {}    # (line, cut) -> image
        self._epoch = 0

    # ------------------------------------------------------------------ basics

    @property
    def num_lines(self) -> int:
        return self.capacity // LINE_SIZE

    def line_of(self, addr: int) -> int:
        return addr // LINE_SIZE

    def load(self, addr: int, size: int) -> bytes:
        if addr < 0 or addr + size > self.capacity:
            raise UsageError(f"load [{addr}, {addr + size}) out of range")
        return bytes(self.cached[addr:addr + size])

    def load_word(self, addr: int) -> int:
        return int.from_bytes(self.load(addr, WORD_SIZE), "little")

    # ------------------------------------------------------------------ stores

    def store(self, addr: int, data: bytes, ordering: str = RELAXED) -> None:
        n = len(data)
        if addr < 0 or addr + n > self.capacity:
            raise UsageError(f"store [{addr}, {addr + n}) out of range")
        if not n:
            return
        self.cached[addr:addr + n] = data
        line, off = divmod(addr, LINE_SIZE)
        if off + n <= LINE_SIZE:  # within one line: a single event
            ev = WriteEvent(self._fences, off, bytes(data), ordering)
            evs = self._writes.get(line)
            if evs is None:
                self._writes[line] = [ev]
            else:
                evs.append(ev)
            return
        # Split at line boundaries, low address first; each piece is one event.
        pos = 0
        while pos < n:
            a = addr + pos
            line = a // LINE_SIZE
            room = (line + 1) * LINE_SIZE - a
            chunk = data[pos:pos + room]
            self._writes.setdefault(line, []).append(
                WriteEvent(self._fences, a % LINE_SIZE, bytes(chunk),
                           ordering))
            pos += len(chunk)

    def store_word(self, addr: int, value: int, ordering: str = RELAXED) -> None:
        self.store(addr, (value & (2 ** 64 - 1)).to_bytes(WORD_SIZE, "little"), ordering)

    def store_words(self, addr: int, data: bytes) -> None:
        """Store `data` as a run of relaxed 8-byte stores, low address
        first, the last one shorter when the length is not a multiple of 8.
        Logs exactly the events one `store` per 8-byte chunk would, each
        chunk split at line boundaries, in one call."""
        n = len(data)
        if addr < 0 or addr + n > self.capacity:
            raise UsageError(f"store [{addr}, {addr + n}) out of range")
        data = bytes(data)
        self.cached[addr:addr + n] = data
        fence = self._fences
        writes = self._writes
        pos = 0
        while pos < n:
            line, off = divmod(addr + pos, LINE_SIZE)
            stop = min(n, pos + LINE_SIZE - off)   # the run's end in this line
            # chunks start here and at each later word boundary of the run
            starts = [pos, *range(pos - pos % WORD_SIZE + WORD_SIZE, stop,
                                  WORD_SIZE)]
            delta = off - pos
            evs = [_new_event(WriteEvent, (fence, s + delta, data[s:e], RELAXED))
                   for s, e in zip(starts, [*starts[1:], stop])]
            logged = writes.get(line)
            if logged is None:
                writes[line] = evs
            else:
                logged += evs
            pos = stop

    # ----------------------------------------------------------------- flushes

    def clflushopt(self, line: int) -> None:
        if line < 0 or line >= self.num_lines:
            raise UsageError(f"line {line} out of range")
        captured = len(self._writes.get(line, ()))
        self._pending[line] = max(self._pending.get(line, 0), captured)
        self.stats.clflushopt_count += 1

    def flush_range(self, addr: int, size: int) -> None:
        """Flush every line overlapped by [addr, addr+size)."""
        first = addr // LINE_SIZE
        last = (addr + size - 1) // LINE_SIZE
        for line in range(first, last + 1):
            self.clflushopt(line)

    def sfence(self) -> None:
        pending = self._pending
        self.stats.sfence_count += 1
        if pending:
            self.stats.fenced_roundtrips += 1
            self.stats.simulated_time_ns += self.latency_ns + self.fence_cost_ns
            k = self._fences
            floors = self._floors
            for line, captured in pending.items():
                floor = floors.get(line, 0)
                if captured > floor:
                    floors[line] = captured
                    self._raises.append((k, line, floor))
            self._fences = k + 1
            pending.clear()

    @property
    def pending_flushes(self) -> bool:
        return bool(self._pending)

    @property
    def quiescent(self) -> bool:
        """No pending flush, and every logged write at its durable floor."""
        return not self._pending and all(
            self._floors.get(line, 0) >= len(evs)
            for line, evs in self._writes.items())

    def write_counts(self) -> dict[int, int]:
        """line -> writes logged to it since the last checkpoint."""
        return {line: len(evs) for line, evs in self._writes.items()}

    # ------------------------------------------------------------ crash states

    def _line_image(self, line: int, cut: int) -> bytes:
        lo = line * LINE_SIZE
        buf = bytearray(self._base[lo:lo + LINE_SIZE])
        for ev in self._writes.get(line, ())[:cut]:
            buf[ev.offset_in_line:ev.offset_in_line + len(ev.data)] = ev.data
        return bytes(buf)

    def _reqs_before(self, k: int) -> dict[int, int]:
        """line -> writes that the first k round-trip fences made durable."""
        view = self._req_views.get(k)
        if view is None:
            view = dict(self._floors)
            for fence, line, floor in reversed(self._raises):
                if fence < k:
                    break
                view[line] = floor
            self._req_views[k] = view
        return view

    def _reqs_of(self, lines: list[int], cuts) -> dict[int, int]:
        """The flush requirements a crash state with these cuts must meet:
        those of every fence issued before its newest persisted write."""
        k = 0
        writes = self._writes
        for line, cut in zip(lines, cuts):
            if cut:
                fence = writes[line][cut - 1].fence
                if fence > k:
                    k = fence
        return self._reqs_before(k) if k else {}

    def _state_valid(self, lines: list[int], cuts: tuple[int, ...]) -> bool:
        req = self._reqs_of(lines, cuts)
        if not req:
            return True
        by_line = dict(zip(lines, cuts))
        return all(by_line.get(line, 0) >= need for line, need in req.items())

    def _cut_ranges(self, at_least_durable: bool = False
                    ) -> tuple[list[int], list[tuple[int, int]]]:
        """The written lines in order, and each line's lowest and highest
        cut: its durable floor under ``at_least_durable`` (else 0), and its
        write count."""
        writes = self._writes
        floors = self._floors if at_least_durable else {}
        lines = sorted(writes)
        return lines, [(floors.get(line, 0), len(writes[line]))
                       for line in lines]

    def _crash_state(self, lines: list[int], cuts) -> CrashState:
        return CrashState(tuple(zip(lines, cuts)), self._epoch)

    def enumerate_crash_states(self, limit: int = 1 << 20,
                               at_least_durable: bool = False,
                               prefix: dict[int, int] | None = None
                               ) -> list[CrashState]:
        """All persisted images the persist relation allows for this trace.

        With ``at_least_durable`` the durable floor is applied, i.e. only
        crashes at or after the present instant are considered; by default a
        crash at any earlier point of the trace is included too.  With
        ``prefix`` (line -> writes), no line is cut past that many of its
        writes (none for a line left out): the states, in the same order,
        of a trace holding only those writes.
        """
        lines, ranges = self._cut_ranges(at_least_durable)
        if prefix is not None:
            ranges = [(lo, min(hi, prefix.get(line, 0)))
                      for line, (lo, hi) in zip(lines, ranges)]
        total = 1
        for lo, hi in ranges:
            total *= max(hi - lo + 1, 0)
            if total > limit:
                raise EnumerationLimitError(
                    f"{total}+ candidate cut tuples exceed limit {limit}")
        product = itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))
        return [self._crash_state(lines, cuts) for cuts in product
                if self._state_valid(lines, cuts)]

    def _fix_up(self, lines: list[int], cuts: list[int]) -> CrashState:
        """The state with `cuts` raised until every triggered flush
        requirement holds."""
        while True:
            req = self._reqs_of(lines, cuts)
            low = [i for i, line in enumerate(lines)
                   if cuts[i] < req.get(line, 0)]
            if not low:
                return self._crash_state(lines, cuts)
            for i in low:
                cuts[i] = req[lines[i]]

    def sample_crash_state(self, rng: random.Random,
                           at_least_durable: bool = False) -> CrashState:
        """A random cut per written line, raised to meet the flush
        requirements."""
        lines, ranges = self._cut_ranges(at_least_durable)
        return self._fix_up(lines, [rng.randint(lo, hi) for lo, hi in ranges])

    def sample_crash_states(self, count: int, seed: int = 0,
                            at_least_durable: bool = False):
        rng = random.Random(seed)
        for _ in range(count):
            yield self.sample_crash_state(rng=rng, at_least_durable=at_least_durable)

    def boundary_crash_states(self) -> list[CrashState]:
        """States cut just before/after each release-ordered (metadata) write,
        with every other line fully persisted.  Force-included in sampling."""
        lines, ranges = self._cut_ranges()
        full = [hi for _, hi in ranges]
        states = []
        for i, line in enumerate(lines):
            for idx, ev in enumerate(self._writes[line]):
                if ev.ordering != RELEASE:
                    continue
                for cut in (idx, idx + 1):
                    cuts = list(full)
                    cuts[i] = cut
                    states.append(self._fix_up(lines, cuts))
        return states

    def _crash_image(self, cuts) -> bytearray:
        """`cached` with each written line cut back to the prefix `cuts`
        gives it, as (line, cut) pairs; a written line they leave out counts
        as cut 0."""
        cut_of = dict(cuts)
        writes = self._writes
        base = self._base
        memo = self._torn
        size = LINE_SIZE
        image = bytearray(self.cached)
        for line, evs in writes.items():
            cut = cut_of.get(line, 0)
            if cut < len(evs):
                lo = line * size
                if cut:
                    torn = memo.get((line, cut))
                    if torn is None:
                        torn = memo[line, cut] = self._line_image(line, cut)
                    image[lo:lo + size] = torn
                else:
                    image[lo:lo + size] = base[lo:lo + size]
            elif cut > len(evs):
                raise StaleCrashStateError(f"cut {cut} beyond line {line} history")
        if not cut_of.keys() <= writes.keys():
            for line in cut_of.keys() - writes.keys():
                if cut_of[line]:
                    raise StaleCrashStateError(
                        f"cut {cut_of[line]} beyond line {line} history")
        return image

    def apply_crash(self, state: CrashState) -> "SimMemory":
        if state.epoch != self._epoch:
            raise StaleCrashStateError("crash state from a different history")
        return SimMemory._from_image(self._crash_image(state.cuts),
                                     self.latency_ns, self.fence_cost_ns)

    def persisted_image(self) -> bytes:
        return bytes(self._crash_image(self._floors.items()))

    def checkpoint(self) -> None:
        """Collapse history at a quiescent point: everything written so far
        is durable.  Bounds enumeration to the events since that point."""
        if not self.quiescent:
            raise UsageError("checkpoint before the memory is quiescent")
        self._base = bytes(self.cached)
        self._writes.clear()
        self._floors.clear()
        self._fences = 0
        self._raises.clear()
        self._req_views.clear()
        self._torn.clear()
        self._epoch += 1

    # -------------------------------------------------------------- snapshots

    def snapshot_save(self, path) -> None:
        if self._pending:
            raise UsageError("snapshot with pending flushes")
        with open(path, "wb") as f:
            f.write(_SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                                          LINE_SIZE, self.capacity))
            f.write(self.persisted_image())

    @classmethod
    def snapshot_load(cls, path) -> "SimMemory":
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) < _SNAPSHOT_HEADER.size:
            raise SnapshotFormatError("truncated snapshot header")
        magic, version, line_size, capacity = _SNAPSHOT_HEADER.unpack_from(raw)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"unsupported version {version}")
        if line_size != LINE_SIZE:
            raise SnapshotFormatError(f"unsupported line size {line_size}")
        body = raw[_SNAPSHOT_HEADER.size:]
        if len(body) != capacity:
            raise SnapshotFormatError(
                f"expected {capacity} image bytes, found {len(body)}")
        _check_geometry(capacity)
        return cls._from_image(bytearray(body))
