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

The model keeps one record: each line's write records (``_writes``) and unit
counts (``_counts``), the durable floors and an undo log of floor raises.  A
unit is what the same-line rule orders: a crash persists a prefix of each
line's units.  Each store call logs one record per line it touches,
``(fence, offset_in_line, data, ordering, units, first)``, and one routine
(``_log``) writes them all but a single-line ``store``'s, which ``store``
appends itself.  A ``store`` is one unit at any width (its piece of the
line), so a wide store never tears within a line.  A ``store_words`` run is
one unit per 8-byte chunk it has in the line, chunk boundaries counted from
the run's start, not from address 0, and ``first`` is the length of its
first chunk there.  One generator (``_units``) splits a line's records into
units, ``(fence, offset_in_line, data, ordering)`` in issue order: a store's
piece of the line, or one chunk of a run.  ``events(line)`` lists them as
``WriteEvent``s, torn line images replay them and ``boundary_crash_states``
finds the ``RELEASE`` ones in them.  Cuts, floors and the raise log count
units.

Each record is stamped with the number of round-trip fences issued before it
(``fence``), which is all the second rule needs to know about when it was
issued.  ``_floors`` holds each line's floor: the units that fenced flushes
made durable.  A round-trip fence gets an index (the fence count before it)
and appends ``(fence index, line, previous floor)`` to ``_raises`` for each
pending line whose floor it raises, so a fence costs O(pending lines) and the
log holds at most one entry per flush.  A crash state whose persisted units
carry stamps up to k must honour the requirements of every fence before
fence k.  The crash side reads the trace through a ``_Window``, rebuilt only
after a store, a fence or a checkpoint: the written lines in order, each
line's unit count, floor and per-unit stamps, and the requirement vector of
each k it meets, the floors with the raises of fences k and later undone.

Within a window a crash state is a cut vector: a tuple of cuts, one per
written line in line order.  ``_vectors`` yields the legal ones in product
order, and ``enumerate_crash_states`` zips each with the lines into a
``CrashState``.  A window in which no unit carries a nonzero stamp (no unit
was stored after a round-trip fence of the epoch, as in the window of an
append that fences once) triggers no requirement, so its legal vectors are
the whole product and no tuple is tested.  A sampled or boundary state is
fixed up in one pass: its cuts are raised to the requirement vector of the
newest stamp k they persist.  That raise persists no unit stamped k or
later, since the fences before fence k made durable only units issued
before them, so it triggers no further requirement and one pass gives what
raising until nothing is triggered would.  The sampler draws each cut as
``randrange(floor, count + 1)`` would, draw for draw.

Each window keeps one crash image buffer, which starts as a copy of
``cached``: that always equals ``_base`` (the image at the start of the
epoch) with every logged write applied, so it shows every line fully
persisted.  To show a vector, ``_image`` pastes only the lines whose cut
differs from the vector the buffer showed last; in product order that is
mostly the last line.  A full cut pastes the line from ``cached``, cut 0
the ``_base`` slice, and any other cut the ``_base`` slice with the line's
first ``cut`` units applied, memoised in ``_torn`` by (line, cut).  Within
an epoch a line's records are only appended to, so a memoised image never
goes stale; ``checkpoint()`` clears the memo with the rest of the history.
Fully persisted lines are never memoised.  A crash memory of the harness's
judge gets a copy of the buffer; ``apply_crash`` hands its memory the
buffer itself, so a one-off state costs no more than one image.

``apply_crash(state, record_loads=True)`` gives a crash memory that lists
the lines its loads touch, in load order, so a caller can tell which lines
a recovery read; other memories do not record.

The ``RELEASE`` store tag does not change which crash states are legal; it
marks the writes around which ``boundary_crash_states`` cuts.
"""

from __future__ import annotations

import itertools
import operator
import random
import struct
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
    """One unit of a line's writes, as `SimMemory.events` lists them."""
    fence: int  # round-trip fences issued before this write, this epoch
    offset_in_line: int
    data: bytes
    ordering: str


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

    def cut(self, line: int) -> int:
        for ln, c in self.cuts:
            if ln == line:
                return c
        return 0


def _check_geometry(capacity: int) -> None:
    if capacity <= 0 or capacity % LINE_SIZE != 0:
        raise UsageError(f"capacity {capacity} not a multiple of line size {LINE_SIZE}")


class _Window:
    """The trace as the crash side reads it, valid while no store, fence
    or checkpoint changes it: the written lines in order, and per line its
    unit count, durable floor and unit stamps; whether any unit carries a
    nonzero stamp (`fenced`); `reqs` caches requirement vectors by fence
    index; `draws` holds the sampler's floors, spans and span bit lengths,
    by `at_least_durable`; and `image` is the window's crash image buffer,
    showing the cut vector `shown`.

    A line's unit stamps are 0, then the fence stamp of each of its units
    in issue order, so entry c is the stamp of the newest unit a cut of c
    persists.  They are read off each record's fence and unit count, not
    split out by `SimMemory._units`: a window is rebuilt for a one-off
    sample after every long epoch, and unit by unit that costs a multiple."""

    __slots__ = ("fences", "counts", "lines", "his", "stops", "floors",
                 "stamps", "fenced", "reqs", "draws", "image", "shown")

    def __init__(self, mem: "SimMemory"):
        counts, writes = mem._counts, mem._writes
        self.fences = mem._fences
        self.counts = dict(counts)
        self.lines = lines = sorted(counts)
        self.his = his = [counts[line] for line in lines]
        self.stops = [hi + 1 for hi in his]
        self.floors = [mem._floors.get(line, 0) for line in lines]
        self.stamps = []
        for line in lines:
            stamps = [0]
            for fence, _, _, _, units, _ in writes[line]:
                stamps += [fence] * units
            self.stamps.append(stamps)
        # a line's stamps ascend, so its last is its largest
        self.fenced = any(stamps[-1] for stamps in self.stamps)
        self.reqs: dict[int, list[int]] = {}
        self.draws: dict[bool, tuple[list[int], list[int], list[int]]] = {}
        self.image: bytearray | None = None
        self.shown: tuple[int, ...] = ()


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
        self._win: _Window | None = None
        self._torn: dict[tuple[int, int], bytes] = {}    # (line, cut) -> image
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
        line, off = divmod(addr, LINE_SIZE)
        if off + n <= LINE_SIZE:  # within one line: a single record
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
        self.store(addr, (value & (2 ** 64 - 1)).to_bytes(WORD_SIZE, "little"), ordering)

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
        `width` is WORD_SIZE, the chunk `_units` splits runs by."""
        fence = self._fences
        writes, counts = self._writes, self._counts
        n = len(data)
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

    def _units(self, line: int):
        """The line's units since the last checkpoint, in issue order, as
        (fence, offset_in_line, data, ordering): a store's piece of the
        line, or one chunk of a word run."""
        for fence, off, data, ordering, _, first in self._writes.get(line, ()):
            start, stop = 0, first
            while start < len(data):
                yield fence, off + start, data[start:stop], ordering
                start, stop = stop, stop + WORD_SIZE

    def events(self, line: int) -> list[WriteEvent]:
        """The line's units as `WriteEvent`s, in issue order."""
        return [WriteEvent(*unit) for unit in self._units(line)]

    # ----------------------------------------------------------------- flushes

    def clflushopt(self, line: int) -> None:
        if line < 0 or line >= self.num_lines:
            raise UsageError(f"line {line} out of range")
        captured = self._counts.get(line, 0)
        self._pending[line] = max(self._pending.get(line, 0), captured)
        self.stats.clflushopt_count += 1

    def flush_range(self, addr: int, size: int) -> None:
        """Flush every line overlapped by [addr, addr+size); an empty range
        flushes nothing."""
        if size < 0:
            raise UsageError(f"flush of negative size {size}")
        if size:
            for line in range(addr // LINE_SIZE,
                              (addr + size - 1) // LINE_SIZE + 1):
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
        """No pending flush, and every logged unit at its durable floor."""
        floors = self._floors
        return not self._pending and all(
            floors.get(line, 0) >= count for line, count in self._counts.items())

    def write_counts(self) -> dict[int, int]:
        """line -> units logged to it since the last checkpoint."""
        return dict(self._counts)

    # ------------------------------------------------------------ crash states

    def _line_image(self, line: int, cut: int) -> bytes:
        """The line replayed from `_base` through its first `cut` units."""
        lo = line * LINE_SIZE
        buf = bytearray(self._base[lo:lo + LINE_SIZE])
        for _, off, data, _ in itertools.islice(self._units(line), cut):
            buf[off:off + len(data)] = data
        return bytes(buf)

    def _window(self) -> _Window:
        win = self._win
        if (win is None or win.fences != self._fences
                or win.counts != self._counts):
            win = self._win = _Window(self)
        return win

    def _reqs(self, win: _Window, k: int) -> list[int]:
        """Per window line, the units that the first k round-trip fences
        made durable: the floors with the raises of fences k and later
        undone, newest first."""
        vec = win.reqs.get(k)
        if vec is None:
            view = dict(self._floors)
            for fence, line, floor in reversed(self._raises):
                if fence < k:
                    break
                view[line] = floor
            vec = win.reqs[k] = [view.get(line, 0) for line in win.lines]
        return vec

    def _vectors(self, win: _Window, limit: int = 1 << 20,
                 at_least_durable: bool = False) -> list[tuple[int, ...]]:
        """The window's legal cut vectors, in product order; with
        ``at_least_durable`` only those at or above the durable floor."""
        los = win.floors if at_least_durable else [0] * len(win.lines)
        total = 1
        for lo, hi in zip(los, win.his):
            total *= hi - lo + 1
            if total > limit:
                raise EnumerationLimitError(
                    f"{total}+ candidate cut tuples exceed limit {limit}")
        vectors = itertools.product(*map(range, los, win.stops))
        if not win.fenced:   # no requirement can trigger: all are legal
            return list(vectors)
        # a state must meet the requirements of every fence issued before
        # its newest persisted unit
        stamps, reqs = win.stamps, self._reqs
        return [cuts for cuts in vectors
                if not (k := max(map(list.__getitem__, stamps, cuts)))
                or all(map(operator.ge, cuts, reqs(win, k)))]

    def enumerate_crash_states(self, limit: int = 1 << 20,
                               at_least_durable: bool = False
                               ) -> list[CrashState]:
        """All persisted images the persist relation allows for this trace.

        With ``at_least_durable`` the durable floor is applied, i.e. only
        crashes at or after the present instant are considered; by default a
        crash at any earlier point of the trace is included too.
        """
        win = self._window()
        lines, epoch = win.lines, self._epoch
        return [CrashState(tuple(zip(lines, cuts)), epoch)
                for cuts in self._vectors(win, limit, at_least_durable)]

    def _fix_up(self, win: _Window, cuts: list[int]) -> CrashState:
        """The state with `cuts` raised to meet every triggered flush
        requirement, in one pass: to max(cuts, reqs(k)), k the newest stamp
        `cuts` persist.  One pass is exact because reqs(k) persists no unit
        stamped k or later: the fences before fence k made durable only
        units issued before them, so the raise triggers no requirement
        beyond reqs(k)."""
        k = max(map(list.__getitem__, win.stamps, cuts), default=0)
        if k:
            cuts = [c if c >= r else r
                    for c, r in zip(cuts, self._reqs(win, k))]
        return CrashState(tuple(zip(win.lines, cuts)), self._epoch)

    def sample_crash_state(self, rng: random.Random,
                           at_least_durable: bool = False) -> CrashState:
        """A random cut per written line, raised to meet the flush
        requirements."""
        win = self._window()
        draws = win.draws.get(at_least_durable)
        if draws is None:
            los = win.floors if at_least_durable else [0] * len(win.lines)
            spans = list(map(operator.sub, win.stops, los))
            draws = win.draws[at_least_durable] = (
                los, spans, [span.bit_length() for span in spans])
        # lo + rng._randbelow(span), which randrange(lo, stop) computes,
        # draw for draw: the fewest bits that cover the span, drawn again
        # until they fall below it
        getrandbits = rng.getrandbits
        cuts = []
        for lo, span, bits in zip(*draws):
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            cuts.append(lo + r)
        return self._fix_up(win, cuts)

    def sample_crash_states(self, count: int, seed: int = 0,
                            at_least_durable: bool = False):
        rng = random.Random(seed)
        for _ in range(count):
            yield self.sample_crash_state(rng=rng, at_least_durable=at_least_durable)

    def boundary_crash_states(self) -> list[CrashState]:
        """States cut just before/after each release-ordered (metadata) write,
        with every other line fully persisted.  Force-included in sampling."""
        win = self._window()
        states = []
        for i, line in enumerate(win.lines):
            for pos, (_, _, _, ordering) in enumerate(self._units(line)):
                if ordering == RELEASE:
                    for cut in (pos, pos + 1):
                        cuts = list(win.his)
                        cuts[i] = cut
                        states.append(self._fix_up(win, cuts))
        return states

    def _image(self, win: _Window, cuts) -> bytearray:
        """The window's crash image buffer, showing the cut vector `cuts`:
        only the lines whose cut differs from the vector it showed last
        are pasted again.  It starts as a copy of `cached`, which shows
        every line fully persisted."""
        image = win.image
        if image is None:
            image = win.image = bytearray(self.cached)
            win.shown = tuple(win.his)
        shown = win.shown
        size = LINE_SIZE
        for i, cut in enumerate(cuts):
            if cut == shown[i]:
                continue
            line = win.lines[i]
            lo = line * size
            if cut == win.his[i]:
                image[lo:lo + size] = self.cached[lo:lo + size]
            elif cut:
                torn = self._torn.get((line, cut))
                if torn is None:
                    torn = self._torn[line, cut] = self._line_image(line, cut)
                image[lo:lo + size] = torn
            else:
                image[lo:lo + size] = self._base[lo:lo + size]
        win.shown = tuple(cuts)
        return image

    def _crash_memory(self, image: bytearray,
                      record_loads: bool = False) -> "SimMemory":
        """A memory that takes the crash image `image` as its own; see
        `apply_crash`."""
        cls = _LoadRecordingMemory if record_loads else SimMemory
        return cls._from_image(image, self.latency_ns, self.fence_cost_ns)

    def apply_crash(self, state: CrashState,
                    record_loads: bool = False) -> "SimMemory":
        """A memory holding the image `state` persists; a written line it
        leaves out counts as cut 0.  With `record_loads`, it lists in
        `loaded_lines` the lines its loads touch, in load order."""
        if state.epoch != self._epoch:
            raise StaleCrashStateError("crash state from a different history")
        win = self._window()
        cut_of = dict(state.cuts)
        cuts = tuple(cut_of.pop(line, 0) for line in win.lines)
        for line, cut in itertools.chain(zip(win.lines, cuts),
                                         cut_of.items()):
            if cut > win.counts.get(line, 0):
                raise StaleCrashStateError(
                    f"cut {cut} beyond line {line} history")
        image = self._image(win, cuts)
        win.image = None   # a one-off state: its memory takes the buffer
        return self._crash_memory(image, record_loads)

    def persisted_image(self) -> bytes:
        win = self._window()
        return bytes(self._image(win, win.floors))

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


class _LoadRecordingMemory(SimMemory):
    """A crash memory that appends to `loaded_lines` the lines each load
    touches, in load order; a plain `SimMemory` pays nothing for it."""

    def _start(self, *args) -> None:
        super()._start(*args)
        self.loaded_lines: list[int] = []

    def load(self, addr: int, size: int) -> bytes:
        data = super().load(addr, size)
        if size:
            self.loaded_lines += range(addr // LINE_SIZE,
                                       (addr + size - 1) // LINE_SIZE + 1)
        return data
