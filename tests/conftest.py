"""Shared test helpers.

`RecordingMemory` is a `SimMemory` that keeps its own trace of every store,
flush and fence, in issue order, so tests can replay the persist rules from
that trace without reading the bookkeeping of the engine they check.  It
splits stores at line boundaries and counts each line's writes itself.
"""

from typing import NamedTuple

from nvlog.pmem import RELAXED, SimMemory


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
        self.stores = 0            # store() calls, before any splitting
        self._line_writes: dict[int, int] = {}

    def store(self, addr, data, ordering=RELAXED):
        super().store(addr, data, ordering)
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
