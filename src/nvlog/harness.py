"""Crash-injection test harness.

Replays a small workload script against a log or hash map on simulated
persistent memory and checks that every injected crash state recovers to a
state the history allows.  It adds no fence: a window runs from the last
point the program left the memory quiescent to the next one or to the end
of the script (sampling makes the whole script one window), and its crash
states are drawn and checked once, at its end (`crash at-op I`: right after
op I).  States travel as cut vectors, one cut per written line of the
window in line order.

Every window takes one judge (`_judge`), class by class
(`_ReadPaths.classes`): a class is a set of states that provably recover
the same value, and its value is judged once.  Only a class whose value
is illegal for one of its states' ops has its states reported.  A window
that one op wrote, checked exhaustively or at an op, is counted unless it
is a fenced map window: its classes cover every legal state, each sized
from the window's stamps and requirement vectors (`CsoWindow.count`)
with no state built, and its violations come out in product order.  Any
other window is listed: its distinct states (a sampled window's boundary
and sample vectors, or the legal vectors, at op I only op I's) are
classed, each with its op from the window's owner columns (which op
issued each unit), and its violations come out in list order.

A log window's classes are the leaves of its read-path tree, walked
eagerly: one recovery per distinct read path.  A counted window's walk
branches on every legal cut; a listed window's splits its group of
states, and records loads only while the group holds more than one.  A
checksum log's unfenced window that lies in one slot is classed first by
the CRC's line terms, so its invalid states form one class with one
recovery, at any size: a counted one finds its valid states by meeting in
the middle, and counts them against the enumeration limit before it
builds them.  A map's window is classed by the decodes of the slots it
wrote.  Every recovery runs on the check's one reader (a log attached, or
a map built, once per check; the map only scans, as its repair writes
would land on a memory that is thrown away), pointed at a memory over a
copy of the window's one crash image buffer, patched only where the cuts
changed.

Also houses round-trip audits and a deliberately broken log variant.
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

from .crc import _zeros_crc, crc_term
from .logalg import ALGORITHMS
from .logalg.base import (HEAD_WORD_OFF, CircularLog, TrimError,
                          UnrecoverableLogError)
from .logalg.csovb import CsoVbLog
from .pmem import (ENUMERATION_LIMIT, LINE_SIZE, WORD_SIZE,
                   EnumerationLimitError, SimMemory)
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
    """The recovered states of one window, in classes of states that
    provably recover alike (`classes`).  States are cut vectors, one cut
    per written line in the window's line order.  A counted window's
    classes cover its legal vectors, each sized with no vector built; a
    listed window's cover the vectors it is given.

    Read paths.  Recovery is a deterministic function of the bytes it
    loads, and a line the window did not write reads the same in every
    state.  So states that agree on the cuts of the written lines recovery
    has loaded so far make the same next load, and, by induction over the
    loads, states that agree on every written line a recovery loaded load
    the same bytes in the same order and recover the same value.  A log
    window's classes are the leaves of the tree of these paths (`_walk`):
    one recovery per distinct read path.  A counted window's walk branches
    on every legal cut of the line it meets.  A listed window's walk
    splits a node's group of vectors by that line's cut, and records a
    recovery's loads only while its group holds more than one vector.  The
    rule is exact: the vectors that agree with a recovered one on every
    line its path loaded are all in its group, so a group of one shares
    its recovery with no other state, and nothing is lost by not
    recording it.

    A recovery runs on the target's one reader, which `recovered_state`
    points at the state's crash memory.

    The checksum route.  An unfenced window whose written lines all lie
    in one slot of at least one line, of a log that declares its slot
    check (`slot_check`), is classed first by the CRC's line terms: a
    table holds, per written line and cut, that line's `crc_term` (XORed
    with the stored checksum on the checksum's line, and with bit 64,
    which no CRC has, where the slot's header word is one `_decode`
    rejects); it is built (`_slot_sums`) when such a window's classes are
    asked for.  A state's slot is valid iff its terms XOR to the CRC of
    zeros (with the constant terms of the slot's unwritten lines), which
    is `_decode`'s own test.  Every invalid state recovers the same value,
    so one real recovery of the first of them stands for all: recovery
    reads the head word and then decodes slots from the head on, stopping
    at the first one `_decode` rejects; no line outside the slot differs
    within the window, so every state reads the same bytes until it meets
    the slot, and an invalid one stops there (or never meets it).  So the
    invalid states form one class (`_checksum_classes`), and the valid
    ones take the walk as a listed group.  A listed window XORs each
    vector's terms.  A counted one never builds the product: it meets in
    the middle (Horowitz and Sahni), indexing the XORs of the first half
    of its lines by their complement to the goal and looking up each XOR
    of the second half, so an 8-line slot's 9**8 states cost two tables
    of 9**4.  Any other checksum window takes the walk.

    The map route.  A map's window (its target declares `slot_decodes`)
    takes no walk: states whose written slots decode alike share one real
    `scan()` and `items()`.  This is exact: the recovered value is a
    function of every slot's decode (`_StpsTarget`), `_decode` is a pure
    function of the slot's bytes and the map's geometry, and a slot with
    no written line reads the same in every state of the window.  A
    counted window, which is unfenced, takes one decode per written slot
    (`_decode_classes`); a listed one groups its vectors by their decodes
    (`_decode_groups`)."""

    def __init__(self, mem: SimMemory, target, win):
        self.mem = mem
        self.target = target
        self.win = win
        self.at = {line: i for i, line in enumerate(win.lines)}
        self.slots = None
        route = getattr(target, "slot_decodes", None)
        if route is not None:
            base, size, self.decode = route()
            # the written slots' byte ranges, in line order
            self.slots = [(lo, lo + size) for lo in dict.fromkeys(
                line * LINE_SIZE - (line * LINE_SIZE - base) % size
                for line in win.lines)]

    def _slot_sums(self) -> bool:
        """Build the checksum route's table, and say whether it did: only
        for an unfenced window of a log that declares its slot check, if
        the window lies in one slot of at least one line."""
        mem, win, reader = self.mem, self.win, self.target.reader
        check, lines = getattr(reader, "slot_check", None), win.lines
        if check is None or win.fenced or not lines:
            return False
        size = reader.slot_size
        slot = (lines[0] * LINE_SIZE - reader.slot_addr(0)) // size
        addr = reader.slot_addr(slot)
        if (size < LINE_SIZE or not 0 <= slot < reader.nslots
                or lines[-1] * LINE_SIZE >= addr + size):
            return False
        reader.mem = mem   # the head word's line is outside the window
        reader._load_header(mem.load_word(reader.base + HEAD_WORD_OFF))
        n, crc_off, fn, header = check(slot)
        goal, sums = _zeros_crc(fn, n), []
        for off in range(0, size, LINE_SIZE):
            line = (addr + off) // LINE_SIZE
            i = self.at.get(line)   # None: unwritten, one image
            terms = []
            for cut in range(1 if i is None else win.stops[i]):
                image = win.line_image(line, cut)
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
        return True

    def _recovered(self, cuts: tuple[int, ...]):
        """The value the state `cuts` recovers to, its loads unrecorded."""
        return self.target.recovered_state(self.win.crash_memory(cuts))

    def _decodes(self, cuts: tuple[int, ...]) -> tuple:
        """The map route's key for `cuts`: its written slots' decodes."""
        image, decode = self.win.image(cuts), self.decode
        return tuple([decode(bytes(image[lo:hi])) for lo, hi in self.slots])

    def classes(self, listed: list | None = None):
        """The window's classes of vectors that recover alike, as
        (recovered value, size, members): `members()` lists the class's
        vectors, in product order when counted.  The classes partition the
        window's legal vectors (counted, `listed` None) or the vectors of
        `listed`, distinct legal vectors of the window."""
        if self.slots is not None:
            return (self._decode_classes() if listed is None
                    else self._decode_groups(listed))
        if self._slot_sums():
            return self._checksum_classes(listed)
        return self._walk(listed)

    def _walk(self, listed: list | None = None):
        """A log window's read-path tree, walked eagerly.  A node holds the
        cuts of the written lines its path has loaded.  Recovery runs on
        one vector of the node, and the first written line it loads that
        the node does not hold is the node's branch; the vector's own cut
        is followed on by the same recovery, and each other child runs its
        own.  A recovery that loads no unheld written line ends at a leaf:
        one recovery per leaf, which is one per distinct read path.

        Counted, the vector is a legal completion of the held cuts, each
        cut of the branch that keeps a legal completion is a child, and a
        leaf's class is every legal vector holding its cuts.  Listed, a
        node carries its group of the listed vectors, runs on the first of
        them, and splits the group by the branch's cuts, each part a
        child; it records loads only while the group holds more than one
        vector, and a leaf's class is its group."""
        win, at, width = self.win, self.at, len(self.at)
        if listed is None:
            win.check_limit()
            stack = [({}, win.completion({}), None)]
        else:
            stack = [({}, listed[0], listed)] if listed else []
        while stack:
            held, cuts, group = stack.pop()
            if len(held) == width or group is not None and len(group) == 1:
                # a class of one: no load can branch
                yield self._recovered(cuts), 1, functools.partial(list,
                                                                  (cuts,))
                continue
            crashed = win.crash_memory(cuts, record_loads=True)
            recovered = self.target.recovered_state(crashed)
            for line in dict.fromkeys(crashed.loaded_lines):
                i = at.get(line)
                if i is None or i in held:
                    continue
                if group is None:
                    for cut in range(win.stops[i]):
                        if cut != cuts[i]:
                            child = {**held, i: cut}
                            completion = win.completion(child)
                            if completion is not None:
                                stack.append((child, completion, None))
                else:
                    parts = {}
                    for vector in group:
                        parts.setdefault(vector[i], []).append(vector)
                    group = parts.pop(cuts[i])
                    stack += [({**held, i: cut}, part[0], part)
                              for cut, part in parts.items()]
                    if len(group) == 1:
                        break
                held[i] = cuts[i]
            if group is not None:
                yield recovered, len(group), functools.partial(list, group)
            elif len(held) == width:
                yield recovered, 1, functools.partial(list, (cuts,))
            else:
                yield (recovered, win.count(held),
                       functools.partial(win.holding, held))

    def _checksum_classes(self, listed: list | None = None):
        """A one-slot, unfenced window of a checksum log: its invalid
        vectors are one class, which recovers as the first of them does,
        and its valid ones take the walk as a listed group.  A listed
        vector is valid if its line terms XOR to the goal.  Counted, the
        valid vectors are found by meeting in the middle: the XORs of the
        first half of the lines are indexed by their complement to the
        goal, and each XOR of the second half is looked up there; the
        matches are counted before any is built, as each valid vector may
        need its own recovery."""
        sums, goal, stops = self.sums, self.goal, self.win.stops
        if listed is None:
            half = len(sums) // 2
            index, tails = {}, _xors(sums[half:])
            for head, x in zip(_product(stops[:half]), _xors(sums[:half])):
                index.setdefault(x ^ goal, []).append(head)
            count = sum(len(index.get(x, ())) for x in tails)
            if count > ENUMERATION_LIMIT:
                raise EnumerationLimitError(
                    f"{count} valid cut tuples exceed limit "
                    f"{ENUMERATION_LIMIT}")
            valid = sorted(head + tail for tail, x in zip(
                _product(stops[half:]), tails) for head in index.get(x, ()))
            others = functools.partial(itertools.filterfalse,
                                       set(valid).__contains__)
            size = math.prod(stops) - len(valid)
            first = next(others(_product(stops)), None)

            def members():
                return list(others(_product(stops)))
        else:
            valid, bad = [], []
            for cuts in listed:
                xor = functools.reduce(operator.xor,
                                       map(list.__getitem__, sums, cuts))
                (valid if xor == goal else bad).append(cuts)
            size, first = len(bad), next(iter(bad), None)
            members = functools.partial(list, bad)
        if size:
            yield self._recovered(first), size, members
        yield from self._walk(valid)

    def _decode_classes(self):
        """A counted map window: each written slot's cut combinations, one
        cut per written line in the slot, grouped by the slot's decode.  A
        class takes one decode per slot; it holds the product of those
        groups' combinations and recovers once."""
        mem, win = self.mem, self.win
        win.check_limit()
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
                    parts.append(win.line_images(i))
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
            yield self._recovered(cuts), size, functools.partial(
                _merged, len(win.lines), chosen)

    def _decode_groups(self, listed: list):
        """A listed map window's vectors grouped by their decodes, in
        first-seen order; a group recovers once, on its first vector."""
        groups = {}
        for cuts in listed:
            groups.setdefault(self._decodes(cuts), []).append(cuts)
        for group in groups.values():
            yield (self._recovered(group[0]), len(group),
                   functools.partial(list, group))


def _xors(sums: list[list[int]]) -> list[int]:
    """The XOR of one term per line of `sums`, for every choice of terms,
    in product order."""
    xors = [0]
    for terms in sums:
        xors = [x ^ term for x in xors for term in terms]
    return xors


def _product(stops: list[int]):
    """Every vector of the product of `range(stop)` over `stops`, in
    product order."""
    return itertools.product(*map(range, stops))


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


def _judge(reads: _ReadPaths, listed: dict | None, first: int, legal: list,
           violations: list) -> int:
    """Judge a window class by class (`_ReadPaths.classes`).  `listed` is
    None for a counted window, whose states op `first` alone issued, or a
    listed window's op j per vector, in list order.  A state of op j is
    legal if it recovers to the boundary before op j or after it (op j's
    pair).  A class's value is compared once with the pair of each op the
    window's states have; only if it is illegal for one of them are the
    class's members listed, each judged against its own op's pair; a
    counted window's illegal class of more states than `ENUMERATION_LIMIT`
    raises `EnumerationLimitError` instead.  Violations come out in product order
    (counted) or list order (listed).  Returns how many states were
    judged."""
    pairs = {j: legal[j - first:j + 2 - first]
             for j in ({first} if listed is None else set(listed.values()))}
    bad, judged = {}, 0
    for recovered, size, members in reads.classes(
            None if listed is None else list(listed)):
        judged += size
        for pair in pairs.values():
            if recovered not in pair:
                break
        else:   # legal for every op of the window
            continue
        if listed is None and size > ENUMERATION_LIMIT:
            raise EnumerationLimitError(f"an illegal class of {size} states "
                                        f"exceeds limit {ENUMERATION_LIMIT}")
        for cuts in members():
            j = first if listed is None else listed[cuts]
            if recovered not in pairs[j]:
                bad[cuts] = j, recovered
    lines = reads.win.lines
    for cuts in (sorted(bad) if listed is None or not bad
                 else [cuts for cuts in listed if cuts in bad]):
        j, recovered = bad[cuts]
        violations.append(Violation(j, tuple(zip(lines, cuts)), recovered,
                                    tuple(pairs[j])))
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

    A window's states are cut vectors in its line order.  Op j is the
    largest entry of the window's owner columns at the vector's cuts,
    where column i holds the window's first op at cut 0 and at cut c the
    op that issued line i's c-th unit; if every column ends at the first
    op, that op wrote the whole window and every state's j is it.  Such a
    window, unless sampled or a fenced map window, is counted; any other
    is listed: its legal vectors in product order, or its sampled and
    boundary ones deduplicated in first-seen order, at-op keeping those of
    op I.  Both kinds take one judge (`_judge`), on the target's one
    reader and images patched into one buffer per window.
    `EnumerationLimitError` is raised where a route would enumerate more
    than `ENUMERATION_LIMIT` cut tuples: a listed window's legal vectors,
    a counted log window's read-path walk and a counted map window's
    decodes.  The checksum route enumerates only the valid vectors of a
    counted window, so its windows are judged at any size unless those, or
    an illegal class it would list, number more than the limit.  A
    recovered value is judged by equality with the legal pair: a log's
    tuple of payloads, or a map's dict, which equals the model's whatever
    its key order."""
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
            if one_op and not sampled and not (
                    win.fenced and reads.slots is not None):
                checked += win.count()
                # no state is op I's unless op `first` is op I
                listed = None if only in (None, first) else {}
            else:
                if sampled:
                    vectors = win.boundaries() + win.samples(
                        random.Random(script.seed), script.mode_arg or 10000)
                else:
                    vectors = win.vectors()
                checked += len(vectors)
                if sampled:
                    vectors = dict.fromkeys(vectors)   # first-seen order
                js = (itertools.repeat(first) if one_op else
                      (max(map(list.__getitem__, own, cuts))
                       for cuts in vectors))
                listed = {cuts: j for cuts, j in zip(vectors, js)
                          if only in (None, j)}
            distinct += _judge(reads, listed, first, legal, violations)
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
