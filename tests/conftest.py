"""Shared test helpers.

`widened` pads every `append` payload of a crash script to a given size.
`RecordingMemory` is a `SimMemory` that keeps its own trace of every store,
flush and fence, in issue order, so tests can replay the persist rules from
that trace without reading the bookkeeping of the engine they check.  It
records a `store_words` run as one store per 8-byte chunk, splits stores at
line boundaries and counts each line's writes itself.
`WriteRefusingMemory` fails every store, flush and fence.
`enumerated_states`, `sampled_states` and `boundary_states` give a
memory's crash window's enumerated, sampled and boundary vectors as
`CrashState`s, in the window's order; `cut_of` reads one line's cut.
"""

import itertools
import random
import re
from typing import NamedTuple

from nvlog.pmem import (CrashState, ENUMERATION_LIMIT, RELAXED, SimMemory,
                        WORD_SIZE)


class Store(NamedTuple):
    line: int
    offset_in_line: int
    data: bytes
    ordering: str


class Flush(NamedTuple):
    line: int
    captured: int  # writes to the line issued before the flush


class Fence(NamedTuple):
    pass


class RecordingMemory(SimMemory):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace: list[Store | Flush | Fence] = []
        self.stores = 0   # stores issued (a run counts one per word), unsplit
        self._line_writes: dict[int, int] = {}

    def store(self, addr, data, ordering=RELAXED):
        super().store(addr, data, ordering)
        self._record(addr, data, ordering)

    def store_words(self, addr, data):
        super().store_words(addr, data)
        for pos in range(0, len(data), WORD_SIZE):
            self._record(addr + pos, data[pos:pos + WORD_SIZE], RELAXED)

    def _record(self, addr, data, ordering):
        """One store of `data` at `addr`, split at line boundaries."""
        self.stores += 1
        pos = 0
        while pos < len(data):
            line, off = divmod(addr + pos, self.line_size)
            piece = bytes(data[pos:pos + self.line_size - off])
            self.trace.append(Store(line, off, piece, ordering))
            self._line_writes[line] = self._line_writes.get(line, 0) + 1
            pos += len(piece)

    def clflushopt(self, line):
        super().clflushopt(line)
        self.trace.append(Flush(line, self._line_writes.get(line, 0)))

    def sfence(self):
        super().sfence()
        self.trace.append(Fence())

    def checkpoint(self):
        super().checkpoint()
        self.trace.clear()
        self._line_writes.clear()

    def stores_since(self, mark: int) -> list[Store]:
        """The store pieces recorded after trace position `mark`."""
        return [e for e in self.trace[mark:] if isinstance(e, Store)]


def widened(text: str, size: int) -> str:
    """`text`, a crash script, with each `append` payload padded to `size`
    bytes with 0x5a."""
    return re.sub(r"append (\w+)", lambda m: "append " + bytes.fromhex(
        m[1]).ljust(size, b"\x5a").hex(), text)


class WriteRefusingMemory(SimMemory):
    """A memory every store, flush and fence of which fails."""

    def _refuse(self, *args):
        raise AssertionError("a write to a memory that refuses them")

    store = store_word = store_words = clflushopt = flush_range = sfence = \
        _refuse


def crash_states(mem: SimMemory, vectors) -> list[CrashState]:
    """The cut vectors `vectors` of `mem`'s window as `CrashState`s."""
    lines = mem._window().lines
    return [CrashState(tuple(zip(lines, cuts)), mem._epoch)
            for cuts in vectors]


def enumerated_states(mem: SimMemory, limit: int = ENUMERATION_LIMIT,
                      at_least_durable: bool = False) -> list[CrashState]:
    """Every legal state of `mem`'s window, in product order; with
    `at_least_durable` only those at or above the durable floors, from
    the product of those cuts alone: a vector is legal iff the window's
    fix-up leaves it as it is."""
    win = mem._window()
    if not at_least_durable:
        return crash_states(mem, win.vectors(limit))
    return crash_states(mem, [
        cuts for cuts in itertools.product(*map(range, win.floors, win.stops))
        if win.fix_up(cuts) == cuts])


def sampled_states(mem: SimMemory, count: int, seed: int = 0,
                   at_least_durable: bool = False) -> list[CrashState]:
    """`count` states of `mem`'s window, drawn from `Random(seed)`."""
    return crash_states(mem, mem._window().samples(
        random.Random(seed), count, at_least_durable))


def boundary_states(mem: SimMemory) -> list[CrashState]:
    """The states cut around each of the window's RELEASE stores."""
    return crash_states(mem, mem._window().boundaries())


def cut_of(state: CrashState, line: int) -> int:
    """`state`'s cut of `line`, 0 if it leaves the line out."""
    return dict(state.cuts).get(line, 0)
