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
eviction events are modeled.  ``flush_range`` checks its whole range before
it flushes a line, and flushes each line through ``clflushopt``.  Crash
states are enumerated over the whole trace, i.e. power may fail at any point
up to and including "now".

The model keeps one record: each line's write records (``_writes``) and unit
counts (``_counts``), the durable floors and an undo log of floor raises.  A
unit is what the same-line rule orders: a crash persists a prefix of each
line's units.  Each store call logs one record per line it touches,
``(fence, offset_in_line, data, ordering, units, first)``, and one routine
(``_log``) writes them all but a single-line ``store``'s, which ``store``
appends itself.  ``_log`` writes a run that fits in one line as one record
without its per-line loop, the record the loop would give.  A ``store`` is
one unit at any width (its piece of the line), so a wide store never tears
within a line.  A ``store_words`` run is
one unit per 8-byte chunk it has in the line, chunk boundaries counted from
the run's start, not from address 0, and ``first`` is the length of its
first chunk there.  One generator (``_units``) splits a line's records into
units, ``(fence, offset_in_line, data, ordering)`` in issue order: a store's
piece of the line, or one chunk of a run.  ``events(line)`` lists them as
``WriteEvent``s and torn line images replay them.  ``boundary_crash_states``
needs no split: a ``RELEASE`` record is a ``store``, one unit in its line,
so it finds them from the records and their unit counts.  Cuts, floors and
the raise log count units.

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
written line in line order.  Three sources give vectors: ``_vectors`` the
legal ones in product order, ``_samples`` random ones and ``_boundaries``
the cuts around ``RELEASE`` stores.  The crash checker takes the vectors as
they are; ``enumerate_crash_states``, ``sample_crash_state(s)`` and
``boundary_crash_states`` zip each with the lines into a ``CrashState``.
A window in which no unit carries a nonzero stamp (no unit
was stored after a round-trip fence of the epoch, as in the window of an
append that fences once) triggers no requirement, so its legal vectors are
the whole product and no tuple is tested.  A sampled or boundary vector is
fixed up in one pass: its cuts are raised to the requirement vector of the
newest stamp k they persist.  That raise persists no unit stamped k or
later, since the fences before fence k made durable only units issued
before them, so it triggers no further requirement and one pass gives what
raising until nothing is triggered would.  The sampler draws each cut as
``randrange(floor, count + 1)`` would, draw for draw, so a caller that
shares its generator with other draws sees the same stream whichever form
it takes the states in.

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

import bisect
import itertools
import operator
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


def _check_limit(win: "_Window", los: list[int], limit: int) -> None:
    """Raise `EnumerationLimitError` if the window's cut tuples from `los`
    up number more than `limit`."""
    total = 1
    for lo, hi in zip(los, win.his):
        total *= hi - lo + 1
        if total > limit:
            raise EnumerationLimitError(
                f"{total}+ candidate cut tuples exceed limit {limit}")


class _Window:
    """The trace as the crash side reads it, valid while no store, fence
    or checkpoint changes it: the written lines in order, and per line its
    unit count, durable floor and unit stamps; whether any unit carries a
    nonzero stamp (`fenced`); `reqs` caches requirement vectors by fence
    index; `draws` holds, by `at_least_durable`, the sampler's table of
    (floor, span, span bit length) per line; and `image` is the window's
    crash image buffer, showing the cut vector `shown`.

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
        self.draws: dict[bool, list[tuple[int, int, int]]] = {}
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
        `width` is WORD_SIZE, the chunk `_units` splits runs by.  A run
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

    def _vectors(self, win: _Window, limit: int = ENUMERATION_LIMIT,
                 at_least_durable: bool = False) -> list[tuple[int, ...]]:
        """The window's legal cut vectors, in product order; with
        ``at_least_durable`` only those at or above the durable floor."""
        los = win.floors if at_least_durable else [0] * len(win.lines)
        _check_limit(win, los, limit)
        return self._legal(win, map(range, los, win.stops))

    def _legal(self, win: _Window, ranges) -> list[tuple[int, ...]]:
        """The legal vectors of the product of `ranges`, one range of cuts
        per window line, in product order."""
        vectors = itertools.product(*ranges)
        if not win.fenced:   # no requirement can trigger: all are legal
            return list(vectors)
        # a state must meet the requirements of every fence issued before
        # its newest persisted unit
        stamps, reqs = win.stamps, self._reqs
        return [cuts for cuts in vectors
                if not (k := max(map(list.__getitem__, stamps, cuts)))
                or all(map(operator.ge, cuts, reqs(win, k)))]

    def _holding(self, win: _Window, fixed: dict[int, int]
                 ) -> list[tuple[int, ...]]:
        """The legal vectors of `win` that hold line i at cut fixed[i] for
        each i in `fixed`, in product order."""
        return self._legal(win, [range(fixed[i], fixed[i] + 1) if i in fixed
                                 else range(stop)
                                 for i, stop in enumerate(win.stops)])

    def _count(self, win: _Window, fixed: dict[int, int] = {}) -> int:
        """``len(self._holding(win, fixed))``, with no vector built.  A
        legal vector whose newest persisted stamp is k meets reqs(k) (k = 0
        asks nothing).  The vectors at or above reqs(k) whose stamps are at
        most k form a product of intervals, one per line, since a line's
        stamps ascend (a held line's is one cut or none), and those whose
        newest stamp is exactly k are that product less the one whose
        stamps are below k.  So the count sums, over k = 0 and every stamp
        the window carries, the difference of two products."""
        total = 0
        ks = {0}.union(*win.stamps) if win.fenced else (0,)
        for k in ks:
            reqs = self._reqs(win, k) if k else itertools.repeat(0)
            at_most = below = 1
            for i, (stamps, req) in enumerate(zip(win.stamps, reqs)):
                cut = fixed.get(i)
                if cut is None:
                    at_most *= max(0, bisect.bisect_right(stamps, k) - req)
                    below *= max(0, bisect.bisect_left(stamps, k) - req)
                else:
                    at_most *= cut >= req and stamps[cut] <= k
                    below *= cut >= req and stamps[cut] < k
            total += at_most - below if k else at_most
        return total

    def _completion(self, win: _Window, fixed: dict[int, int]
                    ) -> tuple[int, ...] | None:
        """A legal vector of `win` that holds line i at cut fixed[i] for
        each i in `fixed`, or None if none does.  It is the held cuts with
        every other line at cut 0, raised by `_fix_up`: if the raise leaves
        the held cuts as they are, it is one; if it raises one, none is,
        since any completion persists a stamp at least as new, whose
        requirement is at least as high."""
        cuts = [0] * len(win.lines)
        for i, cut in fixed.items():
            cuts[i] = cut
        if not win.fenced:   # every vector is legal
            return tuple(cuts)
        cuts = self._fix_up(win, cuts)
        return (cuts if all(cuts[i] == cut for i, cut in fixed.items())
                else None)

    def enumerate_crash_states(self, limit: int = ENUMERATION_LIMIT,
                               at_least_durable: bool = False
                               ) -> list[CrashState]:
        """All persisted images the persist relation allows for this trace.

        With ``at_least_durable`` the durable floor is applied, i.e. only
        crashes at or after the present instant are considered; by default a
        crash at any earlier point of the trace is included too.
        """
        win = self._window()
        return self._states(win, self._vectors(win, limit, at_least_durable))

    def _states(self, win: _Window, vectors) -> list[CrashState]:
        """The cut vectors `vectors` of `win` as `CrashState`s."""
        lines, epoch = win.lines, self._epoch
        return [CrashState(tuple(zip(lines, cuts)), epoch) for cuts in vectors]

    def _fix_up(self, win: _Window, cuts: list[int]) -> tuple[int, ...]:
        """The vector `cuts` raised to meet every triggered flush
        requirement, in one pass: to max(cuts, reqs(k)), k the newest stamp
        `cuts` persist.  One pass is exact because reqs(k) persists no unit
        stamped k or later: the fences before fence k made durable only
        units issued before them, so the raise triggers no requirement
        beyond reqs(k)."""
        k = max(map(list.__getitem__, win.stamps, cuts), default=0)
        if k:
            return tuple([c if c >= r else r
                          for c, r in zip(cuts, self._reqs(win, k))])
        return tuple(cuts)

    def _samples(self, win: _Window, rng: random.Random, count: int,
                 at_least_durable: bool = False) -> list[tuple[int, ...]]:
        """`count` random vectors of `win`, a cut per written line each,
        raised to meet the flush requirements."""
        draws = win.draws.get(at_least_durable)
        if draws is None:
            los = win.floors if at_least_durable else [0] * len(win.lines)
            spans = list(map(operator.sub, win.stops, los))
            # rows repeat from line to line: each is kept once, so a long
            # window's table costs a pointer a line, not a tuple
            rows = {}
            draws = win.draws[at_least_durable] = [
                rows.setdefault(row, row)
                for row in zip(los, spans, map(int.bit_length, spans))]
        # lo + rng._randbelow(span), which randrange(lo, stop) computes,
        # draw for draw: the fewest bits that cover the span, drawn again
        # until they fall below it
        getrandbits, fix_up = rng.getrandbits, self._fix_up
        vectors = []
        for _ in range(count):
            cuts = []
            for lo, span, bits in draws:
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                cuts.append(lo + r)
            vectors.append(fix_up(win, cuts))
        return vectors

    def sample_crash_state(self, rng: random.Random,
                           at_least_durable: bool = False) -> CrashState:
        """A random cut per written line, raised to meet the flush
        requirements."""
        win = self._window()
        return self._states(win, self._samples(win, rng, 1,
                                               at_least_durable))[0]

    def sample_crash_states(self, count: int, seed: int = 0,
                            at_least_durable: bool = False):
        win = self._window()
        yield from self._states(win, self._samples(
            win, random.Random(seed), count, at_least_durable))

    def boundary_crash_states(self) -> list[CrashState]:
        """States cut just before/after each release-ordered (metadata) write,
        with every other line fully persisted.  Force-included in sampling."""
        win = self._window()
        return self._states(win, self._boundaries(win))

    def _boundaries(self, win: _Window) -> list[tuple[int, ...]]:
        """`boundary_crash_states` as vectors of `win`.  The writes are
        found from each line's records, counting units: a ``RELEASE``
        record is always a ``store``, one unit in its line."""
        vectors = []
        for i, line in enumerate(win.lines):
            pos = 0
            for _, _, _, ordering, units, _ in self._writes[line]:
                if ordering == RELEASE:
                    for cut in (pos, pos + 1):
                        cuts = list(win.his)
                        cuts[i] = cut
                        vectors.append(self._fix_up(win, cuts))
                pos += units
        return vectors

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

    def _line_images(self, win: _Window, i: int) -> list[bytes]:
        """Window line i's image at each of its cuts, as `_image` pastes
        it."""
        line, hi = win.lines[i], win.his[i]
        lo = line * LINE_SIZE
        images = [self._base[lo:lo + LINE_SIZE]]
        for cut in range(1, hi):
            torn = self._torn.get((line, cut))
            if torn is None:
                torn = self._torn[line, cut] = self._line_image(line, cut)
            images.append(torn)
        if hi:
            images.append(bytes(self.cached[lo:lo + LINE_SIZE]))
        return images

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
