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
"""

from __future__ import annotations

import itertools
import random
import struct
from bisect import bisect_left
from dataclasses import dataclass

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


@dataclass(frozen=True)
class WriteEvent:
    seq: int
    line: int
    offset_in_line: int
    data: bytes
    ordering: str
    after_release_fence: int  # seq of most recent release fence, -1 if none


@dataclass(frozen=True)
class FlushEvent:
    seq: int
    line: int
    captured: int  # number of this line's writes covered by the flush


@dataclass(frozen=True)
class FenceEvent:
    seq: int
    kind: str  # "sfence" or "release"
    roundtrip: bool


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


class SimMemory:
    def __init__(self, capacity: int, line_size: int = LINE_SIZE,
                 latency_ns: int = 0, fence_cost_ns: int = 0):
        if capacity <= 0 or capacity % line_size != 0:
            raise UsageError(f"capacity {capacity} not a multiple of line size {line_size}")
        self.capacity = capacity
        self.line_size = line_size
        self.latency_ns = latency_ns
        self.fence_cost_ns = fence_cost_ns
        self.cached = bytearray(capacity)
        self._base = bytearray(capacity)  # image at the start of this epoch
        self.write_log: list[WriteEvent] = []
        self.flush_log: list[FlushEvent | FenceEvent] = []
        self.stats = FlushStats()
        self._writes: dict[int, list[WriteEvent]] = {}
        self._floors: dict[int, int] = {}   # per-line durable prefix (fenced flushes)
        self._pending: dict[int, int] = {}  # line -> captured prefix of unfenced flushes
        self._fence_seqs: list[int] = []
        self._cum_reqs: list[dict[int, int]] = []  # cumulative flush requirements
        self._seq = 0
        self._last_release_fence = -1
        self._epoch = 0

    # ------------------------------------------------------------------ basics

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    @property
    def num_lines(self) -> int:
        return self.capacity // self.line_size

    def line_of(self, addr: int) -> int:
        return addr // self.line_size

    def load(self, addr: int, size: int) -> bytes:
        if addr < 0 or addr + size > self.capacity:
            raise UsageError(f"load [{addr}, {addr + size}) out of range")
        return bytes(self.cached[addr:addr + size])

    def load_word(self, addr: int) -> int:
        return int.from_bytes(self.load(addr, WORD_SIZE), "little")

    # ------------------------------------------------------------------ stores

    def store(self, addr: int, data: bytes, ordering: str = RELAXED) -> None:
        if addr < 0 or addr + len(data) > self.capacity:
            raise UsageError(f"store [{addr}, {addr + len(data)}) out of range")
        if not data:
            return
        self.cached[addr:addr + len(data)] = data
        # Split at line boundaries, low address first; each piece is one event.
        pos = 0
        while pos < len(data):
            a = addr + pos
            line = a // self.line_size
            room = (line + 1) * self.line_size - a
            chunk = data[pos:pos + room]
            ev = WriteEvent(self._next_seq(), line, a % self.line_size,
                            bytes(chunk), ordering, self._last_release_fence)
            self.write_log.append(ev)
            self._writes.setdefault(line, []).append(ev)
            pos += len(chunk)

    def store_word(self, addr: int, value: int, ordering: str = RELAXED) -> None:
        self.store(addr, (value & (2 ** 64 - 1)).to_bytes(WORD_SIZE, "little"), ordering)

    def release_fence(self) -> None:
        seq = self._next_seq()
        self._last_release_fence = seq
        self.flush_log.append(FenceEvent(seq, "release", False))

    # ----------------------------------------------------------------- flushes

    def clflushopt(self, line: int) -> None:
        if line < 0 or line >= self.num_lines:
            raise UsageError(f"line {line} out of range")
        captured = len(self._writes.get(line, ()))
        seq = self._next_seq()
        self.flush_log.append(FlushEvent(seq, line, captured))
        self._pending[line] = max(self._pending.get(line, 0), captured)
        self.stats.clflushopt_count += 1

    def flush_range(self, addr: int, size: int) -> None:
        """Flush every line overlapped by [addr, addr+size)."""
        first = addr // self.line_size
        last = (addr + size - 1) // self.line_size
        for line in range(first, last + 1):
            self.clflushopt(line)

    def sfence(self) -> None:
        seq = self._next_seq()
        had_pending = bool(self._pending)
        self.flush_log.append(FenceEvent(seq, "sfence", had_pending))
        self.stats.sfence_count += 1
        if had_pending:
            self.stats.fenced_roundtrips += 1
            self.stats.simulated_time_ns += self.latency_ns + self.fence_cost_ns
            req = dict(self._pending)
            for line, captured in req.items():
                self._floors[line] = max(self._floors.get(line, 0), captured)
            merged = dict(self._cum_reqs[-1]) if self._cum_reqs else {}
            for line, captured in req.items():
                merged[line] = max(merged.get(line, 0), captured)
            self._fence_seqs.append(seq)
            self._cum_reqs.append(merged)
            self._pending.clear()

    @property
    def pending_flushes(self) -> bool:
        return bool(self._pending)

    # ------------------------------------------------------------ crash states

    def _line_image(self, line: int, cut: int) -> bytes:
        lo = line * self.line_size
        buf = bytearray(self._base[lo:lo + self.line_size])
        for ev in self._writes.get(line, ())[:cut]:
            buf[ev.offset_in_line:ev.offset_in_line + len(ev.data)] = ev.data
        return bytes(buf)

    def _state_valid(self, lines: list[int], cuts: tuple[int, ...]) -> bool:
        max_seq = -1
        for line, cut in zip(lines, cuts):
            if cut:
                s = self._writes[line][cut - 1].seq
                if s > max_seq:
                    max_seq = s
        if max_seq < 0 or not self._fence_seqs:
            return True
        k = bisect_left(self._fence_seqs, max_seq)
        if k == 0:
            return True
        req = self._cum_reqs[k - 1]
        by_line = dict(zip(lines, cuts))
        return all(by_line.get(line, 0) >= need for line, need in req.items())

    def enumerate_crash_states(self, limit: int = 1 << 20,
                               at_least_durable: bool = False) -> list[CrashState]:
        """All persisted images the persist relation allows for this trace.

        With ``at_least_durable`` the durable floor is applied, i.e. only
        crashes at or after the present instant are considered; by default a
        crash at any earlier point of the trace is included too.
        """
        lines = sorted(self._writes)
        ranges = []
        total = 1
        for line in lines:
            lo = self._floors.get(line, 0) if at_least_durable else 0
            hi = len(self._writes[line])
            ranges.append(range(lo, hi + 1))
            total *= hi - lo + 1
            if total > limit:
                raise EnumerationLimitError(
                    f"{total}+ candidate cut tuples exceed limit {limit}; "
                    "use sample_crash_state instead")
        states = []
        for cuts in itertools.product(*ranges):
            if self._state_valid(lines, cuts):
                states.append(CrashState(tuple(zip(lines, cuts)), self._epoch))
        return states

    def _fix_up(self, lines: list[int], cuts: list[int]) -> None:
        # Raise cuts until every triggered flush requirement holds.
        while True:
            max_seq = -1
            for line, cut in zip(lines, cuts):
                if cut:
                    s = self._writes[line][cut - 1].seq
                    if s > max_seq:
                        max_seq = s
            if max_seq < 0 or not self._fence_seqs:
                return
            k = bisect_left(self._fence_seqs, max_seq)
            if k == 0:
                return
            req = self._cum_reqs[k - 1]
            changed = False
            for i, line in enumerate(lines):
                need = req.get(line, 0)
                if cuts[i] < need:
                    cuts[i] = need
                    changed = True
            if not changed:
                return

    def sample_crash_state(self, seed: int | None = None,
                           rng: random.Random | None = None,
                           at_least_durable: bool = False) -> CrashState:
        if rng is None:
            rng = random.Random(seed)
        lines = sorted(self._writes)
        cuts = []
        for line in lines:
            lo = self._floors.get(line, 0) if at_least_durable else 0
            cuts.append(rng.randint(lo, len(self._writes[line])))
        self._fix_up(lines, cuts)
        return CrashState(tuple(zip(lines, cuts)), self._epoch)

    def sample_crash_states(self, count: int, seed: int = 0,
                            at_least_durable: bool = False):
        rng = random.Random(seed)
        for _ in range(count):
            yield self.sample_crash_state(rng=rng, at_least_durable=at_least_durable)

    def boundary_crash_states(self) -> list[CrashState]:
        """States cut just before/after each release-ordered (metadata) write,
        with every other line fully persisted.  Force-included in sampling."""
        lines = sorted(self._writes)
        full = [len(self._writes[line]) for line in lines]
        states = []
        for i, line in enumerate(lines):
            for idx, ev in enumerate(self._writes[line]):
                if ev.ordering != RELEASE:
                    continue
                for cut in (idx, idx + 1):
                    cuts = list(full)
                    cuts[i] = cut
                    self._fix_up(lines, cuts)
                    states.append(CrashState(tuple(zip(lines, cuts)), self._epoch))
        return states

    def apply_crash(self, state: CrashState) -> "SimMemory":
        if state.epoch != self._epoch:
            raise StaleCrashStateError("crash state from a different history")
        image = bytearray(self._base)
        for line, cut in state.cuts:
            if cut > len(self._writes.get(line, ())):
                raise StaleCrashStateError(f"cut {cut} beyond line {line} history")
            lo = line * self.line_size
            image[lo:lo + self.line_size] = self._line_image(line, cut)
        fresh = SimMemory(self.capacity, self.line_size,
                          self.latency_ns, self.fence_cost_ns)
        fresh.cached = bytearray(image)
        fresh._base = bytearray(image)
        return fresh

    def persisted_image(self) -> bytes:
        image = bytearray(self._base)
        for line, floor in self._floors.items():
            lo = line * self.line_size
            image[lo:lo + self.line_size] = self._line_image(line, floor)
        return bytes(image)

    def checkpoint(self) -> None:
        """Collapse history: everything written so far must already be durable.
        Used to bound enumeration to the events of a single operation."""
        if self._pending:
            raise UsageError("checkpoint with pending flushes")
        for line, evs in self._writes.items():
            if self._floors.get(line, 0) < len(evs):
                raise UsageError(f"checkpoint with unfenced writes on line {line}")
        self._base = bytearray(self.cached)
        self.write_log.clear()
        self.flush_log.clear()
        self._writes.clear()
        self._floors.clear()
        self._fence_seqs.clear()
        self._cum_reqs.clear()
        self._last_release_fence = -1
        self._epoch += 1

    # -------------------------------------------------------------- snapshots

    def snapshot_save(self, path) -> None:
        if self._pending:
            raise UsageError("snapshot with pending flushes")
        with open(path, "wb") as f:
            f.write(_SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                                          self.line_size, self.capacity))
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
        body = raw[_SNAPSHOT_HEADER.size:]
        if len(body) != capacity:
            raise SnapshotFormatError(
                f"expected {capacity} image bytes, found {len(body)}")
        mem = cls(capacity, line_size)
        mem.cached = bytearray(body)
        mem._base = bytearray(body)
        return mem
