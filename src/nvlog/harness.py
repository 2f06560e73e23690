"""Crash-injection test harness.

Replays a small workload script against a log or hash map on simulated
persistent memory and checks that every injected crash state recovers to a
state the history allows.  It adds no fence: a window runs from the last
point the program left the memory quiescent to the next one or to the end
of the script (sampling makes the whole script one window), and its crash
states are drawn and checked once, at its end (`crash at-op I`: right after
op I).  States travel as cut vectors, one cut per written line of the
window in line order.

A window that one op wrote, checked exhaustively or at an op, is judged
class by class (`_ReadPaths.classes`).  A class is a set of legal states
that provably recover the same value; its size is counted from the
window's stamps and requirement vectors (`SimMemory._count`) with no
state built, and its value is judged once.  Only a class whose value is
illegal is listed, so that each of its states is reported, in product
order.  A log's classes are the leaves of its read-path tree, walked
eagerly: one recovery per distinct read path.  A checksum log's unfenced
window that lies in one slot is classed first by the CRC's line terms, so
its invalid states form one class with one recovery.  A map's unfenced
window is classed by the decodes of the slots it wrote.  Any other window
(one that several ops wrote, a fenced checksum or map window, a sampled
one) is judged state by state, each distinct state once, against the
window's owner columns (which op issued each unit), through the same
routes: recovery runs once per read path recorded so far, invalid checksum
states share one recovery, and map states whose written slots decode
alike share one.  Every recovery runs on the check's one reader (a log
attached, or a map built, once per check; the map only scans, as its
repair writes would land on a memory that is thrown away), pointed at a
memory over a copy of the window's one crash image buffer, patched only
where the cuts changed.

Also houses round-trip audits, a deliberately broken log variant, and a
checksum-collision construction that defeats 32-bit CRC validation.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
import random
from typing import NamedTuple

from .crc import _zeros_crc, crc32c, crc_term
from .logalg import ALGORITHMS
from .logalg.base import (HEAD_WORD_OFF, CircularLog, TrimError,
                          UnrecoverableLogError)
from .logalg.csovb import CsoVbLog
from .pmem import (ENUMERATION_LIMIT, LINE_SIZE, SimMemory, WORD_SIZE,
                   _check_limit)
from .stps import PersistentHashMap


class ScriptError(Exception):
    pass


MAP_OPS = ("U", "R", "T", "G")
# the most arguments each op takes (`crash exhaustive` one, `T` any)
_MAX_ARGS = {"seed": 1, "crash": 2, "append": 1, "trim": 1, "U": 2, "R": 1,
             "G": 1}


# --------------------------------------------------------------------- scripts

class Script:
    def __init__(self):
        self.ops: list[tuple] = []
        self.seed = 0
        self.mode = "exhaustive"   # exhaustive | sampled | at-op
        self.mode_arg = 0

    @property
    def kind(self) -> str:
        return "stps" if any(op[0] in MAP_OPS for op in self.ops) else "log"


def parse_script(text: str) -> Script:
    """Workload grammar, one directive or operation per line:

        seed N
        crash exhaustive | sampled K | at-op I
                                 (K > 0 samples, default 10000; I an op
                                 index, 0 <= I < number of ops, default 0,
                                 checks only the crash states whose newest
                                 persisted write op I issued)
        append HEXBYTES          (log)
        trim [N]                 (log; drop the oldest N >= 1 entries,
                                 default all)
        U key value              (map update)
        R key                    (map remove)
        T k1 v1 k2 v2 ...        (map transaction, each key once)
        G key                    (map read, checked against the model)

    A script holds log operations or map operations, not both.  An extra
    token on any line is a script error.
    """
    script = Script()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            extra = tok[1 + (1 if tok[:2] == ["crash", "exhaustive"]
                             else _MAX_ARGS.get(tok[0], len(tok))):]
            if extra:
                raise ValueError(f"unexpected argument {' '.join(extra)!r}")
            if tok[0] == "seed":
                script.seed = int(tok[1])
            elif tok[0] == "crash":
                script.mode = tok[1]
                if script.mode not in ("exhaustive", "sampled", "at-op"):
                    raise ScriptError(f"unknown crash mode {tok[1]!r}")
                script.mode_arg = int(tok[2]) if len(tok) > 2 else 0
                if script.mode == "sampled" and tok[2:] and script.mode_arg < 1:
                    raise ValueError(f"sample count {script.mode_arg} "
                                     "is not positive")
            elif tok[0] == "append":
                script.ops.append(("append", bytes.fromhex(tok[1])))
            elif tok[0] == "trim":
                n = int(tok[1]) if len(tok) > 1 else None   # None: all
                if n is not None and n < 1:
                    raise ValueError(f"negative trim count {n}" if n else
                                     "trim count 0 is not positive")
                script.ops.append(("trim", n))
            elif tok[0] == "U":
                script.ops.append(("U", tok[1].encode(), tok[2].encode()))
            elif tok[0] == "R":
                script.ops.append(("R", tok[1].encode()))
            elif tok[0] == "G":
                script.ops.append(("G", tok[1].encode()))
            elif tok[0] == "T":
                if len(tok) < 3 or len(tok) % 2 == 0:
                    raise ScriptError("T needs key/value pairs")
                pairs = [(tok[i].encode(), tok[i + 1].encode())
                         for i in range(1, len(tok), 2)]
                script.ops.append(("T", pairs))
            else:
                raise ScriptError(f"unknown op {tok[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ScriptError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
        ops = script.ops
        if ops and (ops[-1][0] in MAP_OPS) != (ops[0][0] in MAP_OPS):
            raise ScriptError(f"line {lineno}: {raw.strip()!r}: "
                              "log and map operations in one script")
    n = len(script.ops)
    if script.mode == "at-op" and not 0 <= script.mode_arg < n:
        raise ScriptError(f"crash at-op {script.mode_arg}: no such op in a "
                          f"{n}-op script")
    return script


# --------------------------------------------------------------------- reports

def csv_text(rows: list[list]) -> str:
    """`rows` as the CSV text every report and command writes."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


class Violation(NamedTuple):
    op_index: int
    cuts: tuple[tuple[int, int], ...]
    recovered: object
    legal: tuple   # the boundary states before and after op `op_index`


class Report(NamedTuple):
    target: str
    mode: str
    ops_run: int
    states_checked: int
    distinct_states: int
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_csv(self) -> str:
        return csv_text([["target", "mode", "ops", "states_checked",
                          "distinct_states", "violations"],
                         [self.target, self.mode, self.ops_run,
                          self.states_checked, self.distinct_states,
                          len(self.violations)],
                         *(["violation", v.op_index,
                            ";".join(f"{ln}:{c}" for ln, c in v.cuts),
                            repr(v.recovered)] for v in self.violations)])


# ------------------------------------------------------------- crash checking

class _LogTarget:
    """A log and the live entries a script has appended to it.  Crash
    images recover on one reader attached once per check: `recover()`
    rebuilds all of a log's volatile state from its memory (head,
    polarity, and the crc epoch, cso-random's stop slot or atlas's last
    slot), so the reader only has to be pointed at each crash memory."""

    def __init__(self, algo: str, payload_len: int, slots: int,
                 registry: dict | None):
        self.log = (registry or ALGORITHMS)[algo].fresh(payload_len, slots)
        self.mem = self.log.mem
        self.reader = type(self.log).attach(self.mem, 0, self.log.size,
                                            payload_len)
        self.handles: list[int] = []
        self.live: list[bytes] = []

    def run_op(self, op: tuple) -> None:
        if op[0] == "append":
            self.handles.append(self.log.append(op[1]))
            self.live.append(op[1])
        elif op[0] == "trim":
            n = len(self.live) if op[1] is None else op[1]
            if n > len(self.live):
                raise TrimError(f"trim {n}: only {len(self.live)} live entries")
            if n:
                self.log.trim(self.handles[n - 1])
                del self.handles[:n], self.live[:n]
        else:
            raise ScriptError(f"op {op[0]!r} is not a log operation")

    def model_state(self):
        return tuple(self.live)

    def recovered_state(self, crashed: SimMemory):
        reader = self.reader
        reader.mem = crashed
        try:
            return tuple(e.payload for e in reader.recover())
        except UnrecoverableLogError:
            return ("<unrecoverable>",)


class _StpsTarget:
    """A map and the dict model of what a script wrote to it.  Crash
    images recover on one reader built once per check: `scan()`, the
    read-only half of `recover()`, rebuilds the index, reuse queue, bump
    and version from its memory.  `repair()`'s dead-slot resets change no
    recovered value and would only write to a crash memory that is
    thrown away, so the reader never runs them.  The reader memoises
    `_decode`, a pure function of a slot's bytes and the map's geometry,
    so across a check's states each distinct slot image is decoded once.
    The map the script runs on decodes as it always does.

    The target declares the map route (`slot_decodes`): `scan()` uses a
    slot's bytes only through `_decode` (it skips a zeroed slot, which
    `_decode` rejects), and `items()` reads the live slots' values through
    it, so the recovered value is a function of the slots' decodes, slot
    by slot.  A state whose slots decode as an earlier state's recovers
    the same value."""

    def __init__(self, node_lines: int, slots: int):
        region = slots * node_lines * 64
        self.mem = SimMemory(region)
        self.map = PersistentHashMap(self.mem, 0, region,
                                     node_lines=node_lines)
        self.reader = PersistentHashMap(self.mem, 0, region,
                                        node_lines=node_lines)
        self.reader._decode = functools.cache(self.reader._decode)
        self.model: dict[bytes, bytes] = {}

    def run_op(self, op: tuple) -> None:
        if op[0] == "U":
            self.map.update(op[1], op[2])
            self.model[op[1]] = op[2]
        elif op[0] == "R":
            self.map.remove(op[1])
            self.model.pop(op[1], None)
        elif op[0] == "T":
            self.map.txn_update(op[1])
            self.model.update(op[1])
        elif op[0] == "G":
            got = self.map.get(op[1])
            want = self.model.get(op[1])
            if got != want:
                raise ScriptError(f"read of {op[1]!r}: got {got!r}, "
                                  f"expected {want!r}")
        else:
            raise ScriptError(f"op {op[0]!r} is not a map operation")

    def model_state(self):
        return dict(self.model)

    def slot_decodes(self) -> tuple:
        """The map route's declaration (`_ReadPaths`): the region's base,
        its slot size and the reader's memoised `_decode`, whose results,
        slot by slot, fix what `recovered_state` returns."""
        reader = self.reader
        return reader.base, reader.slot_size, reader._decode

    def recovered_state(self, crashed: SimMemory):
        reader = self.reader
        reader.mem = crashed
        reader.scan()
        return reader.items()


class _ReadPaths:
    """The recovered states of one window, as classes (`classes`) when one
    op wrote it, or state by state (`recovered`).  States are cut vectors,
    one cut per written line in the window's line order.

    Read paths.  Recovery is a deterministic function of the bytes it
    loads, and a line the window did not write reads the same in every
    state.  So states that agree on the cuts of the written lines recovery
    has loaded so far make the same next load, and, by induction over the
    loads, states that agree on every written line a recovery loaded load
    the same bytes in the same order and recover the same value.  A log
    window's classes are the leaves of the tree of these paths, walked
    eagerly (`_walk`): one recovery per distinct read path.

    States judged one by one keep the paths recovered so far on a tree,
    and a state that follows a recorded path takes its value.  No other
    state can share a recovery that loaded every written line.  Once one
    has, the window records no more loads and only looks up the paths it
    has.  This is a measured trade-off, not a bound: recording costs every
    load of every recovery, and in the windows judged state by state
    (sampled ones, those that several ops wrote, and a checksum window's
    valid states) the recoveries after such a one mostly share nothing.
    Skipping a recording changes which states run recovery, never what
    they recover.

    A recovery runs on the target's one reader, which `recovered_state`
    points at the state's crash memory.

    The checksum route.  A window whose written lines all lie in one slot
    of at least one line, of a log that declares its slot check
    (`slot_check`), is judged first by the CRC's line terms: a table holds,
    per written line and cut, that line's `crc_term` (XORed with the stored
    checksum on the checksum's line, and with bit 64, which no CRC has,
    where the slot's header word is one `_decode` rejects).  A state's slot
    is valid iff its terms XOR to the CRC of zeros (with the constant
    terms of the slot's unwritten lines), which is `_decode`'s own test:
    a few lookups per state.  Every invalid state recovers the same value,
    taken from one real recovery of the first of them: recovery reads the
    head word and then decodes slots from the head on, stopping at the
    first one `_decode` rejects; no line outside the slot differs within
    the window, so every state reads the same bytes until it meets the
    slot, and an invalid one stops there (or never meets it).  So the
    invalid states of an unfenced window form one class
    (`_checksum_classes`).  A valid state takes the read paths above.

    The map route.  A map's window (its target declares `slot_decodes`)
    keeps no tree: a state is keyed by the decodes of the slots that hold
    its written lines, and states with equal keys share one real `scan()`
    and `items()`.  This is exact: the recovered value is a function of
    every slot's decode (`_StpsTarget`), `_decode` is a pure function of
    the slot's bytes and the map's geometry, and a slot with no written
    line reads the same in every state of the window.  An unfenced
    window's classes take one decode per written slot
    (`_decode_classes`).  The routes are chosen once per window."""

    def __init__(self, mem: SimMemory, target, win):
        self.mem = mem
        self.target = target
        self.win = win
        # A node is a list [i, {cut: node}]: recovery loads the written line
        # at position i of the vector next.  Any other node is the state
        # recovery returns there (a log's tuple or a map's dict).
        self.root = None
        self.recording = True
        self.at = {line: i for i, line in enumerate(win.lines)}
        self.sums = self.goal = self.invalid = self.slots = None
        check = getattr(target.reader, "slot_check", None)
        if check is not None:
            self._slot_sums(target.reader, check)
        route = getattr(target, "slot_decodes", None)
        if route is not None:
            base, size, self.decode = route()
            # the written slots' byte ranges, in line order
            self.slots = [(lo, lo + size) for lo in dict.fromkeys(
                line * LINE_SIZE - (line * LINE_SIZE - base) % size
                for line in win.lines)]
            self.outcomes = {}   # the slots' decodes -> the recovered value

    def _slot_sums(self, reader, check) -> None:
        """Build the checksum route's table if the window lies in one
        slot of at least one line."""
        mem, lines, size = self.mem, self.win.lines, reader.slot_size
        if not lines:
            return
        slot = (lines[0] * LINE_SIZE - reader.slot_addr(0)) // size
        addr = reader.slot_addr(slot)
        if (size < LINE_SIZE or not 0 <= slot < reader.nslots
                or lines[-1] * LINE_SIZE >= addr + size):
            return
        reader.mem = mem   # the head word's line is outside the window
        reader._load_header(mem.load_word(reader.base + HEAD_WORD_OFF))
        n, crc_off, fn, header = check(slot)
        goal, sums = _zeros_crc(fn, n), []
        for off in range(0, size, LINE_SIZE):
            line = (addr + off) // LINE_SIZE
            i = self.at.get(line)   # None: unwritten, one image
            terms = []
            for cut in range(1 if i is None else self.win.stops[i]):
                image = mem._line_image(line, cut)
                term = crc_term(fn, n, off, image[:n - off]) if off < n else 0
                if off <= crc_off < off + LINE_SIZE:
                    term ^= int.from_bytes(
                        image[crc_off - off:crc_off - off + WORD_SIZE],
                        "little")
                if off == 0 and image[:WORD_SIZE] != header:
                    term ^= 1 << 64
                terms.append(term)
            if i is None:
                goal ^= terms[0]
            else:
                sums.append(terms)
        self.sums, self.goal = sums, goal

    def _by_decodes(self, cuts: tuple[int, ...]):
        """The map route's value for `cuts`.  Its own method: inlined, its
        comprehension would turn `recovered`'s locals into cells that
        every state pays for."""
        mem = self.mem
        image, decode = mem._image(self.win, cuts), self.decode
        key = tuple([decode(bytes(image[lo:hi])) for lo, hi in self.slots])
        recovered = self.outcomes.get(key)
        if recovered is None:
            recovered = self.outcomes[key] = self.target.recovered_state(
                mem._crash_memory(bytearray(image)))
        return recovered

    def recovered(self, cuts: tuple[int, ...]):
        """The value a state on its own recovers to."""
        sums = self.sums
        if (sums is not None and functools.reduce(
                operator.xor, map(list.__getitem__, sums, cuts)) != self.goal):
            return self._invalid(cuts)
        if self.slots is not None:   # a map window's tree stays empty
            return self._by_decodes(cuts)
        return self._by_path(cuts)

    def _invalid(self, cuts: tuple[int, ...]):
        """The value of every state whose checksum slot is invalid,
        recovered from the first of them, `cuts`."""
        if self.invalid is None:
            self.invalid = self.target.recovered_state(
                self.mem._crash_memory(bytearray(
                    self.mem._image(self.win, cuts))))
        return self.invalid

    def _by_path(self, cuts: tuple[int, ...]):
        """The read paths' value for `cuts`."""
        node, parent, depth = self.root, None, 0
        while type(node) is list:
            parent, depth = node, depth + 1
            node = node[1].get(cuts[node[0]])
        if node is not None:
            return node
        mem, target = self.mem, self.target
        image = bytearray(mem._image(self.win, cuts))   # the buffer stays
        if not self.recording:
            return target.recovered_state(mem._crash_memory(image))
        crashed = mem._crash_memory(image, record_loads=True)
        recovered = target.recovered_state(crashed)
        at = self.at
        path = [at[line] for line in dict.fromkeys(crashed.loaded_lines)
                if line in at]
        if len(path) == len(cuts):   # no other state can share it
            self.recording = False
            return recovered
        node = recovered
        for i in reversed(path[depth:]):   # the part no earlier state took
            node = [i, {cuts[i]: node}]
        if parent is None:
            self.root = node
        else:
            parent[1][cuts[parent[0]]] = node
        return recovered

    @property
    def by_class(self) -> bool:
        """Whether `classes` covers the window: a log's walk covers any
        window, the checksum and map routes only an unfenced one, whose
        product is all legal."""
        return not self.win.fenced or (self.sums is None
                                       and self.slots is None)

    def classes(self):
        """The window's legal vectors in classes that recover alike, as
        (recovered value, size, members): `members()` lists the class's
        vectors in product order.  The classes partition the vectors."""
        if self.slots is not None:
            return self._decode_classes()
        if self.sums is not None:
            return self._checksum_classes()
        return self._walk()

    def _walk(self):
        """A log window's read-path tree, walked eagerly: recovery runs on
        one legal completion of a node's held cuts, and the first written
        line it loads that the node does not hold is the node's branch.
        Each cut of it that keeps a legal completion is a child; the
        completion's own cut is followed on by the same recovery, each
        other child's completion runs its own.  A recovery that loads no
        unheld written line ends at a leaf, whose class is every legal
        vector holding its cuts: one recovery per leaf, which is one per
        distinct read path."""
        mem, win, at, width = self.mem, self.win, self.at, len(self.at)
        stack = [({}, mem._completion(win, {}))]
        while stack:
            held, cuts = stack.pop()
            image = bytearray(mem._image(win, cuts))
            if len(held) == width:   # a class of one: no load can branch
                yield (self.target.recovered_state(mem._crash_memory(image)),
                       1, functools.partial(list, (cuts,)))
                continue
            crashed = mem._crash_memory(image, record_loads=True)
            recovered = self.target.recovered_state(crashed)
            for line in dict.fromkeys(crashed.loaded_lines):
                i = at.get(line)
                if i is None or i in held:
                    continue
                for cut in range(win.stops[i]):
                    if cut != cuts[i]:
                        child = {**held, i: cut}
                        completion = mem._completion(win, child)
                        if completion is not None:
                            stack.append((child, completion))
                held[i] = cuts[i]
            if len(held) == width:
                yield recovered, 1, functools.partial(list, (cuts,))
            else:
                yield (recovered, mem._count(win, held),
                       functools.partial(mem._holding, win, held))

    def _checksum_classes(self):
        """An unfenced one-slot window of a checksum log: each vector's
        line terms XORed, line by line in product order.  A vector whose
        XOR is not the goal fails `_decode`, and all of them recover as
        the first of them does; each valid vector is its own class."""
        xors = [0]
        for terms in self.sums:
            xors = [x ^ term for x in xors for term in terms]
        goal, stops = self.goal, self.win.stops
        vectors = functools.partial(itertools.product, *map(range, stops))
        n = -1
        valid = [n := xors.index(goal, n + 1) for _ in range(xors.count(goal))]
        invalid = len(xors) - len(valid)
        if invalid:
            first = next(n for n, x in enumerate(xors) if x != goal)
            yield self._invalid(_unrank(first, stops)), invalid, lambda: [
                cuts for cuts, x in zip(vectors(), xors) if x != goal]
        for n in valid:
            cuts = _unrank(n, stops)
            yield self._by_path(cuts), 1, functools.partial(list, (cuts,))

    def _decode_classes(self):
        """An unfenced map window: each written slot's cut combinations,
        one cut per written line in the slot, grouped by the slot's
        decode.  A class takes one decode per slot; it holds the product
        of those groups' combinations and recovers once."""
        mem, win = self.mem, self.win
        groups = []   # per written slot: (its window lines, {decode: combos})
        for lo, hi in self.slots:
            spots, parts = [], []   # each line of the slot: its images
            for line in range(lo // LINE_SIZE, hi // LINE_SIZE):
                i = self.at.get(line)
                if i is None:
                    parts.append((mem.cached[line * LINE_SIZE:
                                             (line + 1) * LINE_SIZE],))
                else:
                    spots.append(i)
                    parts.append(mem._line_images(win, i))
            by_decode = {}
            for combo, images in zip(
                    itertools.product(*(range(win.stops[i]) for i in spots)),
                    itertools.product(*parts)):
                by_decode.setdefault(self.decode(b"".join(images)),
                                     []).append(combo)
            groups.append((spots, by_decode))
        for key in itertools.product(*(by_decode for _, by_decode in groups)):
            chosen = [(spots, by_decode[d])
                      for (spots, by_decode), d in zip(groups, key)]
            size = math.prod(len(combos) for _, combos in chosen)
            cuts = _merge(len(win.lines),
                          [(spots, combos[0]) for spots, combos in chosen])
            yield self._by_decodes(cuts), size, functools.partial(
                _merged, len(win.lines), chosen)


def _unrank(n: int, stops: list[int]) -> tuple[int, ...]:
    """The `n`-th vector of the product of `range(stop)` over `stops`."""
    cuts = []
    for stop in reversed(stops):
        n, cut = divmod(n, stop)
        cuts.append(cut)
    return tuple(reversed(cuts))


def _merge(width: int, parts) -> tuple[int, ...]:
    """One vector of `width` cuts from (positions, cuts) parts."""
    cuts = [0] * width
    for spots, combo in parts:
        for i, cut in zip(spots, combo):
            cuts[i] = cut
    return tuple(cuts)


def _merged(width: int, chosen: list) -> list[tuple[int, ...]]:
    """Every vector that takes one combination per slot of `chosen`,
    (positions, combinations) pairs, in product order."""
    return sorted(_merge(width, zip((spots for spots, _ in chosen), pick))
                  for pick in itertools.product(*(combos
                                                  for _, combos in chosen)))


def _judge_states(reads: _ReadPaths, vectors, own: list[list[int]],
                  first: int, only: int | None, legal: list,
                  violations: list) -> int:
    """Judge each of a window's `vectors` on its own, in their order;
    returns how many were judged.  Op j is the largest entry of the owner
    columns `own` at the vector's cuts; at op `only`, a vector with
    another j is skipped."""
    lines = reads.win.lines
    # columns ascend: if each ends in `first`, one op wrote the window and
    # every state's j is `first`
    one_op = all(column[-1] == first for column in own)
    judged = 0
    for cuts in vectors:
        j = first if one_op else max(map(list.__getitem__, own, cuts))
        if only is not None and j != only:
            continue
        judged += 1
        recovered = reads.recovered(cuts)
        if recovered not in legal[j - first:j + 2 - first]:
            violations.append(Violation(
                j, tuple(zip(lines, cuts)), recovered,
                tuple(legal[j - first:j + 2 - first])))
    return judged


def _judge_classes(reads: _ReadPaths, first: int, legal: list,
                   violations: list) -> int:
    """Judge a window that op `first` alone wrote class by class: a class's
    value once, and each vector of a class whose value is illegal, so that
    the violations come out as `_judge_states` gives them, in product
    order.  Returns how many vectors were judged."""
    pair = legal[:2]
    bad, judged = [], 0
    for recovered, size, members in reads.classes():
        judged += size
        if recovered not in pair:
            bad += [(cuts, recovered) for cuts in members()]
    bad.sort(key=operator.itemgetter(0))
    lines = reads.win.lines
    violations += [Violation(first, tuple(zip(lines, cuts)), recovered,
                             tuple(pair)) for cuts, recovered in bad]
    return judged


def run_crash_suite(script: Script | str, *, algo: str = "cso-vb",
                    payload_len: int = 24, node_lines: int = 1,
                    slots: int = 16, registry: dict | None = None) -> Report:
    """Replay a script and verify every injected crash recovers to a state
    the operation history allows (an op boundary, and for transactions
    all-or-nothing).  Each window is checked once, at its end, and each
    distinct image once, by durable linearizability: an image whose newest
    persisted write op j issued (the window's first op if none persisted)
    recovers to the boundary before op j or after it, the pair its
    violation carries.  `at-op I` checks right after op I runs instead:
    it enumerates the memory as op I left it, keeps the images with j = I,
    and counts every state it enumerated in `states_checked`.

    A window's states are cut vectors in its line order: enumerated ones
    come from the product, once each; sampled and boundary ones are
    deduplicated in first-seen order.  Op j is the largest entry of the
    window's owner columns at the vector's cuts, where column i holds the
    window's first op at cut 0 and at cut c the op that issued line i's
    c-th unit.  If every column ends at the first op, that op wrote the
    whole window and every state's j is it, with no lookup; such a window,
    unless sampled, is judged by classes of states that recover alike
    (`_judge_classes`), and its states are counted, not listed, unless
    their class's value is illegal.  Any other window is judged state by
    state (`_judge_states`).  Either way recovery runs once per read path
    of a log's window, or per distinct decode of a map window's written
    slots (`_ReadPaths`), on the target's one reader and images patched
    into one buffer per window, and `EnumerationLimitError` is raised for
    a window whose cut tuples number more than `ENUMERATION_LIMIT`, unless
    it is sampled.  A recovered value is judged by equality with the legal
    pair: a log's tuple of payloads, or a map's dict, which equals the
    model's whatever its key order."""
    if isinstance(script, str):
        script = parse_script(script)
    if script.kind == "log":
        target = _LogTarget(algo, payload_len, slots, registry)
        name = algo
    else:
        target = _StpsTarget(node_lines, slots)
        name = "stps"
    mem = target.mem
    mem.checkpoint()   # formatting the region is not crashable history

    sampled = script.mode == "sampled"
    only = script.mode_arg if script.mode == "at-op" else None
    first, legal, owner = 0, [target.model_state()], {}
    checked, distinct, violations = 0, 0, []
    for i, op in enumerate(script.ops):
        target.run_op(op)
        legal.append(target.model_state())
        for line, count in mem.write_counts().items():
            ops = owner.setdefault(line, [])   # the op that issued each write
            ops += [i] * (count - len(ops))
        quiet = not sampled and mem.quiescent
        end = quiet or i == len(script.ops) - 1   # the window ends here
        if (i == only) if only is not None else end:
            win = mem._window()
            own = [[first, *owner[line]] for line in win.lines]
            one_op = all(column[-1] == first for column in own)
            reads = _ReadPaths(mem, target, win)
            if sampled:
                vectors = mem._boundaries(win)
                vectors += mem._samples(win, random.Random(script.seed),
                                        script.mode_arg or 10000)
                checked += len(vectors)
                distinct += _judge_states(reads, dict.fromkeys(vectors), own,
                                          first, only, legal, violations)
            elif one_op and reads.by_class:
                _check_limit(win, [0] * len(win.lines), ENUMERATION_LIMIT)
                checked += mem._count(win)
                if only in (None, first):
                    distinct += _judge_classes(reads, first, legal,
                                               violations)
            else:
                vectors = mem._vectors(win)
                checked += len(vectors)
                distinct += _judge_states(reads, vectors, own, first, only,
                                          legal, violations)
        if quiet:
            mem.checkpoint()
            first, legal, owner = i + 1, legal[-1:], {}
    return Report(name, script.mode, len(script.ops), checked, distinct,
                  violations)


# --------------------------------------------------------- round-trip audits

class RoundTripAudit(NamedTuple):
    algorithm: str
    payload_len: int
    appends: int
    roundtrips_per_append: float
    init_flushes_per_entry: float


def run_appends(log: CircularLog, payload: bytes, ops: int, drain: int) -> int:
    """Append `payload` `ops` times, trimming the whole log after every
    `drain` appends; returns the fenced round trips the appends took (trims
    not counted).  Nothing reads the crash history of these appends, so the
    memory is checkpointed at the first quiescent point after each trim,
    which bounds the history it retains."""
    mem = log.mem
    stats = mem.stats
    roundtrips = 0
    handles = []
    trimmed = False
    for _ in range(ops):
        before = stats.fenced_roundtrips
        handles.append(log.append(payload))
        roundtrips += stats.fenced_roundtrips - before
        if len(handles) >= drain:
            log.trim(handles[-1])
            handles.clear()
            trimmed = True
        if trimmed and mem.quiescent:
            mem.checkpoint()
            trimmed = False
    return roundtrips


def audit_roundtrips(algo: str, n: int = 256, payload_len: int = 24) -> RoundTripAudit:
    """Measure fenced write round trips per append over a drained run."""
    drain = 8
    log = ALGORITHMS[algo].fresh(payload_len, 4 * drain)
    init_flushes = log.mem.stats.clflushopt_count - 1  # minus the header line
    payload = bytes((i % 251 for i in range(payload_len)))
    total = run_appends(log, payload, n, drain)
    return RoundTripAudit(algo, payload_len, n, total / n,
                          init_flushes / log.nslots)


# ------------------------------------------------------------ fault injection

class BrokenVbLog(CsoVbLog):
    """Validity-bit log with the write order inverted: the validity word goes
    out before the payload, so a crash between them recovers stale bytes as a
    valid entry.  Exists to prove the suite catches ordering mistakes."""

    name = "broken-vb"

    def _store_entry(self, slot: int, addr: int, payload: bytes) -> None:
        mem = self.mem
        bit = self.expected_bit(slot)
        if self.layout.total_len <= 64:
            mem.store_word(addr + self.layout.metadata_slots[0], bit)
            mem.store_words(addr, payload)
        else:
            mem.store_word(addr, bit)
            mem.store_word(addr + 120, bit)
            mem.store_words(addr + WORD_SIZE, payload)


EXTRA_ALGORITHMS = dict(ALGORITHMS)
EXTRA_ALGORITHMS[BrokenVbLog.name] = BrokenVbLog


# --------------------------------------------------- checksum collision demo

def crc32_collision_word(buf: bytes, word_off: int) -> int:
    """A nonzero 64-bit value v such that XORing it into buf at word_off
    leaves the CRC32C unchanged.  XOR deltas map to CRC deltas by a GF(2)-
    linear function, the word's `crc_term`, which depends only on len(buf)
    and word_off; its kernel for a 64-bit word under a 32-bit checksum is
    nontrivial."""
    n = len(buf)
    basis = [crc_term(crc32c, n, word_off, (1 << i).to_bytes(8, "little"))
             for i in range(64)]
    pivots: dict[int, tuple[int, int]] = {}   # bit -> (vector, combination)
    for i, vec in enumerate(basis):
        combo = 1 << i
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = (vec, combo)
                break
            pv, pc = pivots[top]
            vec ^= pv
            combo ^= pc
        else:
            return combo   # nonzero combination mapping to zero delta
    raise AssertionError("64->32 bit linear map had a trivial kernel")


class ChecksumDemo(NamedTuple):
    algorithm: str
    payload: bytes
    states_checked: int   # distinct cut tuples after deduplication
    false_valids: int


def checksum_vulnerability_demo(algo: str) -> ChecksumDemo:
    """Append one crafted 112-byte payload and hunt for crash states that
    validate with the wrong contents.  The payload's word 6 is chosen so the
    32-bit checksum cannot see it torn; 64-bit checksums and validity bits
    are expected to reject every torn state.  The append runs through
    `run_crash_suite`, exhaustively."""
    payload_len = 112
    # craft against the 32-bit checksum's own framing: seq 1, len, payload
    hdr = (0).to_bytes(4, "little") + payload_len.to_bytes(4, "little")
    base_payload = bytes(range(1, 113))
    buf = hdr + base_payload
    v = crc32_collision_word(buf, 8 + 48)     # payload word 6
    payload = base_payload[:48] + v.to_bytes(8, "little") + base_payload[56:]
    report = run_crash_suite(f"crash exhaustive\nappend {payload.hex()}",
                             algo=algo, payload_len=payload_len, slots=4)
    return ChecksumDemo(algo, payload, report.distinct_states,
                        len(report.violations))
