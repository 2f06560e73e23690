"""Simulated CPU-cache / non-volatile-memory stack: the write kernel.

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
eviction events are modeled.  ``flush_range`` checks its whole range before
it flushes a line, and flushes each line through ``clflushopt``.  Crash
states range over the whole trace, i.e. power may fail at any point up to
and including "now".

The model keeps one record: each line's write records (``_writes``) and unit
counts (``_counts``), the durable floors and an undo log of floor raises.  A
unit is what the same-line rule orders: a crash persists a prefix of each
line's units.  Each store call logs one record per line it touches,
``(fence, offset_in_line, data, ordering, units, first)``, and one routine
(``_log``) writes them all but a single-line ``store``'s, which ``store``
appends itself.  ``_log`` writes a run that fits in one line as one record
without its per-line loop, the record the loop would give.  A ``store`` is
one unit at any width (its piece of the line), so a wide store never tears
within a line.  A ``store_words`` run is one unit per 8-byte chunk it has
in the line, chunk boundaries counted from the run's start, not from
address 0, and ``first`` is the length of its first chunk there.  Cuts,
floors and the raise log count units.

Each record is stamped with the number of round-trip fences issued before it
(``fence``), which is all the second rule needs to know about when it was
issued.  ``_floors`` holds each line's floor: the units that fenced flushes
made durable.  A round-trip fence gets an index (the fence count before it)
and appends ``(fence index, line, previous floor)`` to ``_raises`` for each
pending line whose floor it raises, so a fence costs O(pending lines) and the
log holds at most one entry per flush.

The crash side reads this record through one window,
`nvlog.persist.CsoWindow`, which ``_window()`` caches until a store, a
fence or a checkpoint changes the trace; ``sample_crash_state``,
``apply_crash`` and ``persisted_image`` delegate to it.
"""

from __future__ import annotations

import random
import struct
from typing import NamedTuple

LINE_SIZE = 64
ENUMERATION_LIMIT = 1 << 20   # the most cut tuples a window enumerates
WORD_SIZE = 8
_LINE_SHIFT = LINE_SIZE.bit_length() - 1   # line of an address: addr >> this
_LINE_MASK = LINE_SIZE - 1                 # offset in its line: addr & this
_WORD = struct.Struct("<Q")

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


class FlushStats:   # one live object per memory: callers keep it for deltas
    __slots__ = ("clflushopt_count", "sfence_count", "fenced_roundtrips",
                 "simulated_time_ns")

    def __init__(self):
        self.clflushopt_count = 0
        self.sfence_count = 0
        self.fenced_roundtrips = 0
        self.simulated_time_ns = 0

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"FlushStats({fields})"


class CrashState(NamedTuple):
    """One persisted image: per-line prefix counts over the write logs."""

    cuts: tuple[tuple[int, int], ...]  # sorted (line, units persisted)
    epoch: int = 0


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
        # line -> (fence, offset_in_line, data, ordering, units, first) records
        self._writes: dict[int, list[tuple]] = {}
        self._counts: dict[int, int] = {}   # line -> units logged
        self._floors: dict[int, int] = {}   # per-line durable prefix (fenced flushes)
        self._pending: dict[int, int] = {}  # line -> captured prefix of unfenced flushes
        self._fences = 0                    # round-trip fences this epoch
        # (fence index, line, floor before it) per floor raise, in fence order
        self._raises: list[tuple[int, int, int]] = []
        self._win = None                    # the crash side's CsoWindow
        self._epoch = 0

    # ------------------------------------------------------------------ basics

    @property
    def num_lines(self) -> int:
        return self.capacity // LINE_SIZE

    def line_of(self, addr: int) -> int:
        return addr // LINE_SIZE

    def load(self, addr: int, size: int) -> bytes:
        if addr < 0 or size < 0 or addr + size > self.capacity:
            raise UsageError(f"load [{addr}, {addr + size}) out of range")
        return bytes(self.cached[addr:addr + size])

    def load_word(self, addr: int) -> int:
        return int.from_bytes(self.load(addr, WORD_SIZE), "little")

    # ------------------------------------------------------------------ stores

    def store(self, addr: int, data: bytes, ordering: str = RELAXED) -> None:
        """One store: a single unit in each line it touches."""
        n = len(data)
        if addr < 0 or addr + n > self.capacity:
            raise UsageError(f"store [{addr}, {addr + n}) out of range")
        if not n:
            return
        self.cached[addr:addr + n] = data
        off = addr & _LINE_MASK
        if off + n <= LINE_SIZE:  # within one line: a single record
            line = addr >> _LINE_SHIFT
            rec = (self._fences, off, bytes(data), ordering, 1, n)
            recs = self._writes.get(line)
            if recs is None:
                self._writes[line] = [rec]
                self._counts[line] = 1
            else:
                recs.append(rec)
                self._counts[line] += 1
            return
        self._log(addr, bytes(data), ordering, n)

    def store_word(self, addr: int, value: int, ordering: str = RELAXED) -> None:
        self.store(addr, _WORD.pack(value & (2 ** 64 - 1)), ordering)

    def store_words(self, addr: int, data: bytes) -> None:
        """Store `data` as a run of relaxed 8-byte stores, low address
        first, the last one shorter when the length is not a multiple of 8.
        A crash may tear the run between any two chunks, as it may between
        one `store` per chunk."""
        n = len(data)
        if addr < 0 or addr + n > self.capacity:
            raise UsageError(f"store [{addr}, {addr + n}) out of range")
        data = bytes(data)
        self.cached[addr:addr + n] = data
        self._log(addr, data, RELAXED, WORD_SIZE)

    def _log(self, addr: int, data: bytes, ordering: str, width: int) -> None:
        """Log `data`, stored at `addr`, as a run of `width`-byte chunks
        counted from its start: one record per line it touches, one unit
        per chunk in that line (a chunk that crosses a line is one unit in
        each).  A `store` is one chunk as wide as itself; any other
        `width` is WORD_SIZE, the chunk `CsoWindow.units` splits runs by.  A run
        within one line is logged without the loop; an empty run logs
        nothing."""
        fence = self._fences
        writes, counts = self._writes, self._counts
        n = len(data)
        off = addr & _LINE_MASK
        if off + n <= LINE_SIZE:   # the loop's one record, at pos = 0
            if not n:
                return
            line = addr >> _LINE_SHIFT
            first = n if n < width else width
            units = 1 + (n - first + width - 1) // width
            rec = (fence, off, data, ordering, units, first)
            recs = writes.get(line)
            if recs is None:
                writes[line] = [rec]
                counts[line] = units
            else:
                recs.append(rec)
                counts[line] += units
            return
        pos = 0
        while pos < n:
            line, off = divmod(addr + pos, LINE_SIZE)
            stop = min(n, pos + LINE_SIZE - off)   # the run's end in this line
            # the first chunk here ends at the run's next chunk boundary
            first = min(stop, pos - pos % width + width) - pos
            units = 1 + (stop - pos - first + width - 1) // width
            rec = (fence, off, data[pos:stop], ordering, units, first)
            recs = writes.get(line)
            if recs is None:
                writes[line] = [rec]
                counts[line] = units
            else:
                recs.append(rec)
                counts[line] += units
            pos = stop

    # ----------------------------------------------------------------- flushes

    def clflushopt(self, line: int) -> None:
        if line < 0 or line * LINE_SIZE >= self.capacity:
            raise UsageError(f"line {line} out of range")
        captured = self._counts.get(line, 0)
        pending = self._pending
        if pending.get(line, -1) < captured:
            pending[line] = captured
        self.stats.clflushopt_count += 1

    def flush_range(self, addr: int, size: int) -> None:
        """Flush every line overlapped by [addr, addr+size), each through
        `clflushopt`; an empty range flushes nothing.  The whole range is
        bounds-checked before any line is flushed."""
        if size < 0:
            raise UsageError(f"flush of negative size {size}")
        if addr < 0 or addr + size > self.capacity:
            raise UsageError(f"flush [{addr}, {addr + size}) out of range")
        if size:
            flush = self.clflushopt
            for line in range(addr >> _LINE_SHIFT,
                              ((addr + size - 1) >> _LINE_SHIFT) + 1):
                flush(line)

    def sfence(self) -> None:
        pending, stats = self._pending, self.stats
        stats.sfence_count += 1
        if pending:
            stats.fenced_roundtrips += 1
            stats.simulated_time_ns += self.latency_ns + self.fence_cost_ns
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
        """No pending flush, and every logged unit at its durable floor."""
        floors = self._floors
        return not self._pending and all(
            floors.get(line, 0) >= count for line, count in self._counts.items())

    def write_counts(self) -> dict[int, int]:
        """line -> units logged to it since the last checkpoint."""
        return dict(self._counts)

    # ------------------------------------------------------------ crash states

    def _window(self):
        """The crash side's view of this trace, a `persist.CsoWindow`,
        rebuilt only after a store, a fence or a checkpoint."""
        win = self._win
        if (win is None or win.fences != self._fences
                or win.counts != self._counts):
            from .persist import CsoWindow   # persist builds on this module
            win = self._win = CsoWindow(self, win)
        return win

    def sample_crash_state(self, rng: random.Random,
                           at_least_durable: bool = False) -> CrashState:
        """A random cut per written line, raised to meet the flush
        requirements."""
        win = self._window()
        [cuts] = win.samples(rng, 1, at_least_durable)
        return CrashState(tuple(zip(win.lines, cuts)), self._epoch)

    def apply_crash(self, state: CrashState) -> "SimMemory":
        """A memory holding the image `state` persists; a written line it
        leaves out counts as cut 0."""
        return self._window().apply(state)

    def persisted_image(self) -> bytes:
        win = self._window()
        return bytes(win.image(win.floors))

    def checkpoint(self) -> None:
        """Collapse history at a quiescent point: everything written so far
        is durable.  Bounds enumeration to the events since that point."""
        if not self.quiescent:
            raise UsageError("checkpoint before the memory is quiescent")
        self._base = bytes(self.cached)
        self._writes.clear()
        self._counts.clear()
        self._floors.clear()
        self._fences = 0
        self._raises.clear()
        self._win = None
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

