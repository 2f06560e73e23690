"""Crash-injection test harness.

Replays a small workload script against a log or hash map on simulated
persistent memory and checks that every injected crash state recovers to a
state the history allows.  It adds no fence: a window runs from the last
point the program left the memory quiescent to the next one or to the end
of the script (sampling makes the whole script one window), and its crash
states are drawn and checked once, at its end (`crash at-op I`: right after
op I).  States travel as cut vectors, one cut per written line of the
window in line order.  Each distinct state is judged once, against the
window's owner columns (which op issued each unit) and its legal states,
and recovery runs once per read path: a state that agrees with an earlier
one on every written line that recovery loaded takes its recovered value.
Every other recovery reads a copy of the window's one crash image buffer,
patched only where the cuts changed.  Also houses round-trip audits,
a deliberately broken log variant, and a checksum-collision construction
that defeats 32-bit CRC validation.
"""

from __future__ import annotations

import csv
import io
import operator
from typing import NamedTuple

from .crc import crc32c, crc_term
from .logalg import ALGORITHMS
from .logalg.base import CircularLog, TrimError, UnrecoverableLogError
from .logalg.csovb import CsoVbLog
from .pmem import SimMemory, WORD_SIZE
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
    def __init__(self, algo: str, payload_len: int, slots: int,
                 registry: dict | None):
        self.log = (registry or ALGORITHMS)[algo].fresh(payload_len, slots)
        self.mem = self.log.mem
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
        log = type(self.log).attach(crashed, 0, self.log.size,
                                    self.log.payload_len)
        try:
            return tuple(e.payload for e in log.recover())
        except UnrecoverableLogError:
            return ("<unrecoverable>",)


class _StpsTarget:
    def __init__(self, node_lines: int, slots: int):
        self.node_lines = node_lines
        self.region = slots * node_lines * 64
        self.mem = SimMemory(self.region)
        self.map = PersistentHashMap(self.mem, 0, self.region,
                                     node_lines=node_lines)
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

    def recovered_state(self, crashed: SimMemory):
        m = PersistentHashMap(crashed, 0, self.region,
                              node_lines=self.node_lines)
        m.recover()
        return m.items()


def _freeze(state):
    return tuple(sorted(state.items())) if isinstance(state, dict) else state


class _ReadPaths:
    """The recovered states of one window, kept on a tree of read paths:
    recovery runs once per path.  States are cut vectors, one cut per
    written line in the window's line order.

    Recovery is a deterministic function of the bytes it loads, and a line
    the window did not write reads the same in every state.  So states
    that agree on the cuts of the written lines recovery has loaded so far
    make the same next load, and, by induction over the loads, states that
    agree on every written line a recovery loaded load the same bytes in
    the same order and recover the same value.

    No other state can share a recovery that loaded every written line.
    Once one has, the window records no more loads and only looks up the
    paths it has: in enumeration order the recoveries after it add no
    shared path in any crash-check window measured, and recording costs
    every load.  Skipping a recording changes which states run recovery,
    never what they recover."""

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

    def recovered(self, cuts: tuple[int, ...]):
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
    c-th unit.  Recovery runs once per read path of a window
    (`_ReadPaths`), on images patched into one buffer per window."""
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
            if sampled:
                states = mem.boundary_crash_states()
                states += mem.sample_crash_states(script.mode_arg or 10000,
                                                  seed=script.seed)
                checked += len(states)
                second = operator.itemgetter(1)
                vectors = [tuple(map(second, cuts)) for cuts
                           in dict.fromkeys(st.cuts for st in states)]
            else:
                vectors = mem._vectors(win)
                checked += len(vectors)
            lines = win.lines
            own = [[first, *owner[line]] for line in lines]
            frozen = [_freeze(state) for state in legal]
            reads = _ReadPaths(mem, target, win)
            for cuts in vectors:
                j = max(map(list.__getitem__, own, cuts), default=first)
                if only is not None and j != only:
                    continue
                distinct += 1
                recovered = reads.recovered(cuts)
                if _freeze(recovered) not in frozen[j - first:j + 2 - first]:
                    violations.append(Violation(
                        j, tuple(zip(lines, cuts)), recovered,
                        tuple(legal[j - first:j + 2 - first])))
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
