"""The crash side of the simulated memory: one window over a memory's trace,
under same-line persist order (CSO) and flush-plus-fence.

`SimMemory._window()` gives the memory's `CsoWindow`, built from its trace
and rebuilt only after a store, a fence or a checkpoint: the written lines
in order, each line's unit count, floor and per-unit stamps, and the
requirement vector of each fence k it meets (`reqs`), the floors with the
raises of fences k and later undone.  A crash state whose persisted units
carry stamps up to k must honour the requirements of every fence before
fence k.

Within a window a crash state is a cut vector: a tuple of cuts, one per
written line in line order.  Three sources give vectors: `vectors` the
legal ones in product order, `samples` random ones and `boundaries` the
cuts around ``RELEASE`` stores.  The crash checker takes the vectors as
they are; `SimMemory.sample_crash_state` zips a sample with the lines into
a `CrashState`.  A window in which no unit carries a nonzero stamp (no unit
was stored after a round-trip fence of the epoch, as in the window of an
append that fences once) triggers no requirement, so its legal vectors are
the whole product and no tuple is tested.  `count`, `completion` and
`holding` answer for the legal vectors that hold some lines at given cuts,
`count` with no vector built.

A sampled or boundary vector is fixed up in one pass (`fix_up`): its cuts
are raised to the requirement vector of the newest stamp k they persist.
That raise persists no unit stamped k or later, since the fences before
fence k made durable only units issued before them, so it triggers no
further requirement and one pass gives what raising until nothing is
triggered would.  The sampler draws each cut as ``randrange(floor, count +
1)`` would, draw for draw, so a caller that shares its generator with other
draws sees the same stream whichever form it takes the states in.

A line's units, ``(fence, offset_in_line, data, ordering)`` in issue order,
are a store's piece of the line or one chunk of a word run (`units`); a
torn line's image replays them (`line_image`).  `boundaries` needs no
split: a ``RELEASE`` record is a ``store``, one unit in its line, so it
finds them from the records and their unit counts.  The ``RELEASE`` tag
does not change which crash states are legal; it only marks the writes
around which `boundaries` cuts.

Each window keeps one crash image buffer, which starts as a copy of
``cached``: that always equals the image at the start of the epoch with
every logged write applied, so it shows every line fully persisted.  To
show a vector, `image` pastes only the lines whose cut differs from the
vector the buffer showed last; in product order that is mostly the last
line.  A full cut pastes the line from ``cached``, cut 0 the epoch's base
slice, and any other cut the base slice with the line's first ``cut``
units applied, memoised in ``_torn`` by (line, cut).  Within an epoch a
line's records are only appended to, so a memoised image never goes stale:
a rebuilt window takes over its predecessor's memo, and a checkpoint, which
drops the window, drops the memo with it.  Fully persisted lines are never
memoised.  A crash memory of the harness's judge gets a copy of the buffer
(`crash_memory`), and can list the lines its loads touch; `apply` hands
its memory the buffer itself, so a one-off state costs no more than one
image.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import random

from .pmem import (ENUMERATION_LIMIT, LINE_SIZE, RELEASE, WORD_SIZE,
                   CrashState, EnumerationLimitError, SimMemory,
                   StaleCrashStateError)


class CsoWindow:
    """The trace as the crash side reads it, valid while no store, fence
    or checkpoint changes it: the written lines in order, and per line its
    unit count (`his`), durable floor and unit stamps; whether any unit
    carries a nonzero stamp (`fenced`).  `_reqs` caches requirement vectors
    by fence index, `_draws` holds, by `at_least_durable`, the sampler's
    table of (floor, span, span bit length) per line, and `_buffer` is the
    crash image buffer, showing the cut vector `_shown`.

    A line's unit stamps are 0, then the fence stamp of each of its units
    in issue order, so entry c is the stamp of the newest unit a cut of c
    persists.  They are read off each record's fence and unit count, not
    split out by `units`: a window is rebuilt for a one-off sample after
    every long epoch, and unit by unit that costs a multiple."""

    __slots__ = ("fences", "epoch", "counts", "lines", "his", "stops",
                 "floors", "stamps", "fenced", "_writes", "_raises", "_base",
                 "_cached", "_costs", "_reqs", "_draws", "_torn", "_buffer",
                 "_shown")

    def __init__(self, mem: SimMemory, prior: CsoWindow | None):
        counts, writes = mem._counts, mem._writes
        self.fences, self.epoch = mem._fences, mem._epoch
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
        self._writes, self._raises = writes, mem._raises
        self._base, self._cached = mem._base, mem.cached
        self._costs = mem.latency_ns, mem.fence_cost_ns
        self._reqs: dict[int, list[int]] = {}
        self._draws: dict[bool, list[tuple[int, int, int]]] = {}
        # (line, cut) -> image, passed on from window to window for the
        # epoch: `prior` is the memory's previous window of it, or None
        self._torn = {} if prior is None else prior._torn
        self._buffer: bytearray | None = None
        self._shown: tuple[int, ...] = ()

    # ------------------------------------------------------- legal vectors

    def check_limit(self, limit: int = ENUMERATION_LIMIT) -> None:
        """Raise `EnumerationLimitError` if the window's cut tuples number
        more than `limit`."""
        total = 1
        for stop in self.stops:
            total *= stop
            if total > limit:
                raise EnumerationLimitError(
                    f"{total}+ candidate cut tuples exceed limit {limit}")

    def reqs(self, k: int) -> list[int]:
        """Per window line, the units that the first k round-trip fences
        made durable: the floors with the raises of fences k and later
        undone, newest first.  Only a written line's floor is raised."""
        vec = self._reqs.get(k)
        if vec is None:
            view = dict(zip(self.lines, self.floors))
            for fence, line, floor in reversed(self._raises):
                if fence < k:
                    break
                view[line] = floor
            vec = self._reqs[k] = [view[line] for line in self.lines]
        return vec

    def vectors(self, limit: int = ENUMERATION_LIMIT
                ) -> list[tuple[int, ...]]:
        """The window's legal cut vectors, in product order."""
        self.check_limit(limit)
        return self._legal(map(range, self.stops))

    def _legal(self, ranges) -> list[tuple[int, ...]]:
        """The legal vectors of the product of `ranges`, one range of cuts
        per window line, in product order."""
        vectors = itertools.product(*ranges)
        if not self.fenced:   # no requirement can trigger: all are legal
            return list(vectors)
        # a state must meet the requirements of every fence issued before
        # its newest persisted unit
        stamps, reqs = self.stamps, self.reqs
        return [cuts for cuts in vectors
                if not (k := max(map(list.__getitem__, stamps, cuts)))
                or all(map(operator.ge, cuts, reqs(k)))]

    def holding(self, fixed: dict[int, int]) -> list[tuple[int, ...]]:
        """The legal vectors that hold line i at cut fixed[i] for each i in
        `fixed`, in product order."""
        return self._legal([range(fixed[i], fixed[i] + 1) if i in fixed
                            else range(stop)
                            for i, stop in enumerate(self.stops)])

    def count(self, fixed: dict[int, int] = {}) -> int:
        """``len(self.holding(fixed))``, with no vector built.  A legal
        vector whose newest persisted stamp is k meets reqs(k) (k = 0 asks
        nothing).  The vectors at or above reqs(k) whose stamps are at most
        k form a product of intervals, one per line, since a line's stamps
        ascend (a held line's is one cut or none), and those whose newest
        stamp is exactly k are that product less the one whose stamps are
        below k.  So the count sums, over k = 0 and every stamp the window
        carries, the difference of two products."""
        total = 0
        ks = {0}.union(*self.stamps) if self.fenced else (0,)
        for k in ks:
            reqs = self.reqs(k) if k else itertools.repeat(0)
            at_most = below = 1
            for i, (stamps, req) in enumerate(zip(self.stamps, reqs)):
                cut = fixed.get(i)
                if cut is None:
                    at_most *= max(0, bisect.bisect_right(stamps, k) - req)
                    below *= max(0, bisect.bisect_left(stamps, k) - req)
                else:
                    at_most *= cut >= req and stamps[cut] <= k
                    below *= cut >= req and stamps[cut] < k
            total += at_most - below if k else at_most
        return total

    def completion(self, fixed: dict[int, int]) -> tuple[int, ...] | None:
        """A legal vector that holds line i at cut fixed[i] for each i in
        `fixed`, or None if none does.  It is the held cuts with every
        other line at cut 0, raised by `fix_up`: if the raise leaves the
        held cuts as they are, it is one; if it raises one, none is, since
        any completion persists a stamp at least as new, whose requirement
        is at least as high."""
        cuts = [0] * len(self.lines)
        for i, cut in fixed.items():
            cuts[i] = cut
        if not self.fenced:   # every vector is legal
            return tuple(cuts)
        cuts = self.fix_up(cuts)
        return (cuts if all(cuts[i] == cut for i, cut in fixed.items())
                else None)

    def fix_up(self, cuts: list[int]) -> tuple[int, ...]:
        """The vector `cuts` raised to meet every triggered flush
        requirement, in one pass: to max(cuts, reqs(k)), k the newest stamp
        `cuts` persist."""
        k = max(map(list.__getitem__, self.stamps, cuts), default=0)
        if k:
            return tuple([c if c >= r else r
                          for c, r in zip(cuts, self.reqs(k))])
        return tuple(cuts)

    # ------------------------------------------------------ other sources

    def samples(self, rng: random.Random, count: int,
                at_least_durable: bool = False) -> list[tuple[int, ...]]:
        """`count` random vectors, a cut per written line each (at or above
        its floor with `at_least_durable`), raised to meet the flush
        requirements."""
        draws = self._draws.get(at_least_durable)
        if draws is None:
            los = self.floors if at_least_durable else [0] * len(self.lines)
            spans = list(map(operator.sub, self.stops, los))
            # rows repeat from line to line: each is kept once, so a long
            # window's table costs a pointer a line, not a tuple
            rows = {}
            draws = self._draws[at_least_durable] = [
                rows.setdefault(row, row)
                for row in zip(los, spans, map(int.bit_length, spans))]
        # lo + rng._randbelow(span), which randrange(lo, stop) computes,
        # draw for draw: the fewest bits that cover the span, drawn again
        # until they fall below it
        getrandbits, fix_up = rng.getrandbits, self.fix_up
        vectors = []
        for _ in range(count):
            cuts = []
            for lo, span, bits in draws:
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                cuts.append(lo + r)
            vectors.append(fix_up(cuts))
        return vectors

    def boundaries(self) -> list[tuple[int, ...]]:
        """The vectors cut just before and just after each ``RELEASE``
        store, every other line fully persisted, fixed up.  The stores are
        found from each line's records, counting units: a ``RELEASE``
        record is always a ``store``, one unit in its line."""
        vectors = []
        for i, line in enumerate(self.lines):
            pos = 0
            for _, _, _, ordering, units, _ in self._writes[line]:
                if ordering == RELEASE:
                    for cut in (pos, pos + 1):
                        cuts = list(self.his)
                        cuts[i] = cut
                        vectors.append(self.fix_up(cuts))
                pos += units
        return vectors

    # --------------------------------------------------------------- images

    def units(self, line: int):
        """The line's units since the last checkpoint, in issue order, as
        (fence, offset_in_line, data, ordering): a store's piece of the
        line, or one chunk of a word run."""
        for fence, off, data, ordering, _, first in self._writes.get(line,
                                                                     ()):
            start, stop = 0, first
            while start < len(data):
                yield fence, off + start, data[start:stop], ordering
                start, stop = stop, stop + WORD_SIZE

    def line_image(self, line: int, cut: int) -> bytes:
        """The line replayed from the epoch's base through its first `cut`
        units."""
        lo = line * LINE_SIZE
        buf = bytearray(self._base[lo:lo + LINE_SIZE])
        for _, off, data, _ in itertools.islice(self.units(line), cut):
            buf[off:off + len(data)] = data
        return bytes(buf)

    def line_images(self, i: int) -> list[bytes]:
        """Window line i's image at each of its cuts, as `image` pastes
        it."""
        line, hi = self.lines[i], self.his[i]
        lo = line * LINE_SIZE
        images = [self._base[lo:lo + LINE_SIZE]]
        for cut in range(1, hi):
            torn = self._torn.get((line, cut))
            if torn is None:
                torn = self._torn[line, cut] = self.line_image(line, cut)
            images.append(torn)
        if hi:
            images.append(bytes(self._cached[lo:lo + LINE_SIZE]))
        return images

    def image(self, cuts) -> bytearray:
        """The crash image buffer, showing the cut vector `cuts`: only the
        lines whose cut differs from the vector it showed last are pasted
        again.  It starts as a copy of ``cached``, which shows every line
        fully persisted."""
        image, cached = self._buffer, self._cached
        if image is None:
            image = self._buffer = bytearray(cached)
            self._shown = tuple(self.his)
        shown = self._shown
        size = LINE_SIZE
        for i, cut in enumerate(cuts):
            if cut == shown[i]:
                continue
            line = self.lines[i]
            lo = line * size
            if cut == self.his[i]:
                image[lo:lo + size] = cached[lo:lo + size]
            elif cut:
                torn = self._torn.get((line, cut))
                if torn is None:
                    torn = self._torn[line, cut] = self.line_image(line, cut)
                image[lo:lo + size] = torn
            else:
                image[lo:lo + size] = self._base[lo:lo + size]
        self._shown = tuple(cuts)
        return image

    def crash_memory(self, cuts, record_loads: bool = False) -> SimMemory:
        """A memory over a copy of the buffer showing `cuts`.  With
        `record_loads` it lists in `loaded_lines` the lines its loads
        touch, in load order."""
        cls = _LoadRecordingMemory if record_loads else SimMemory
        return cls._from_image(bytearray(self.image(cuts)), *self._costs)

    def apply(self, state: CrashState) -> SimMemory:
        """`SimMemory.apply_crash`: a memory holding the image `state`
        persists, which takes the buffer itself.  A written line the state
        leaves out counts as cut 0.  Every cut is checked before any line
        is pasted, so a rejected state leaves the buffer as it was."""
        if state.epoch != self.epoch:
            raise StaleCrashStateError("crash state from a different history")
        cut_of = dict(state.cuts)
        cuts = tuple(cut_of.pop(line, 0) for line in self.lines)
        for line, cut in itertools.chain(zip(self.lines, cuts),
                                         cut_of.items()):
            if not 0 <= cut <= self.counts.get(line, 0):
                raise StaleCrashStateError(
                    f"cut {cut} outside line {line}'s history")
        image = self.image(cuts)
        self._buffer = None   # a one-off state: its memory takes the buffer
        return SimMemory._from_image(image, *self._costs)


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
