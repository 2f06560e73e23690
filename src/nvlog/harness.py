"""Crash-injection test harness.

Replays a small workload script against a log or hash map on simulated
persistent memory, derives the set of states the map/log may legally recover
to, then injects crash states (exhaustively per operation, or sampled over
the whole run) and checks every recovery lands on a legal state.  Also houses
round-trip audits, a differential recovery check, a deliberately broken log
variant, and a checksum-collision construction that defeats 32-bit CRC
validation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .crc import crc32c
from .logalg import ALGORITHMS
from .logalg.base import CircularLog, UnrecoverableLogError, words_of
from .logalg.csovb import CsoVbLog
from .pmem import SimMemory, WORD_SIZE
from .stps import PersistentHashMap


class ScriptError(Exception):
    pass


# --------------------------------------------------------------------- scripts

@dataclass
class Script:
    ops: list[tuple] = field(default_factory=list)
    seed: int = 0
    mode: str = "exhaustive"   # exhaustive | sampled | at-op
    mode_arg: int = 0

    @property
    def kind(self) -> str:
        return "stps" if any(op[0] in ("U", "R", "T", "G") for op in self.ops) \
            else "log"


def parse_script(text: str) -> Script:
    """Workload grammar, one directive or operation per line:

        seed N
        crash exhaustive | sampled K | at-op I
        append HEXBYTES          (log)
        trim [N]                 (log; drop the oldest N entries, default all)
        U key value              (map update)
        R key                    (map remove)
        T k1 v1 k2 v2 ...        (map transaction)
        G key                    (map read, checked against the model)
    """
    script = Script()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "seed":
                script.seed = int(tok[1])
            elif tok[0] == "crash":
                script.mode = tok[1]
                if script.mode not in ("exhaustive", "sampled", "at-op"):
                    raise ScriptError(f"unknown crash mode {tok[1]!r}")
                script.mode_arg = int(tok[2]) if len(tok) > 2 else 0
            elif tok[0] in ("append", "A"):
                script.ops.append(("append", bytes.fromhex(tok[1])))
            elif tok[0] == "trim":
                script.ops.append(("trim", int(tok[1]) if len(tok) > 1 else 0))
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
    return script


# --------------------------------------------------------------------- reports

@dataclass(frozen=True)
class Violation:
    op_index: int
    cuts: tuple[tuple[int, int], ...]
    recovered: object
    legal: tuple


@dataclass
class Report:
    target: str
    mode: str
    ops_run: int
    states_checked: int = 0
    distinct_states: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["target", "mode", "ops", "states_checked",
                    "distinct_states", "violations"])
        w.writerow([self.target, self.mode, self.ops_run, self.states_checked,
                    self.distinct_states, len(self.violations)])
        for v in self.violations:
            w.writerow(["violation", v.op_index,
                        ";".join(f"{ln}:{c}" for ln, c in v.cuts),
                        repr(v.recovered)])
        return buf.getvalue()


# ------------------------------------------------------------- crash checking

def _quiesce(mem: SimMemory) -> None:
    if mem.pending_flushes:
        mem.sfence()


class _LogTarget:
    def __init__(self, algo: str, payload_len: int, slots: int = 16,
                 registry: dict | None = None):
        self.log = (registry or ALGORITHMS)[algo].fresh(payload_len, slots)
        self.mem = self.log.mem
        self.handles: list[int] = []
        self.live: list[bytes] = []

    def run_op(self, op: tuple) -> None:
        if op[0] == "append":
            self.handles.append(self.log.append(op[1]))
            self.live.append(op[1])
        elif op[0] == "trim":
            n = op[1] or len(self.live)
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
    def __init__(self, node_lines: int = 1, slots: int = 32,
                 nbuckets: int = 64, two_round: bool = False):
        self.node_lines = node_lines
        self.nbuckets = nbuckets
        self.region = slots * node_lines * 64
        self.mem = SimMemory(self.region)
        self.map = PersistentHashMap(self.mem, 0, self.region,
                                     node_lines=node_lines, nbuckets=nbuckets,
                                     two_round_commit=two_round)
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
                              node_lines=self.node_lines,
                              nbuckets=self.nbuckets)
        m.recover()
        return m.items()


def _freeze(state):
    return tuple(sorted(state.items())) if isinstance(state, dict) else state


def _check_states(target, states, legal, op_index, report, cache):
    legal_frozen = {_freeze(s) for s in legal}
    for st in states:
        key = st.cuts
        if key in cache:
            continue
        cache[key] = True
        report.distinct_states += 1
        recovered = target.recovered_state(target.mem.apply_crash(st))
        if _freeze(recovered) not in legal_frozen:
            report.violations.append(
                Violation(op_index, st.cuts, recovered, tuple(legal)))
    report.states_checked += len(states)


def run_crash_suite(script: Script | str, *, algo: str = "cso-vb",
                    payload_len: int = 24, node_lines: int = 1,
                    slots: int = 16, state_limit: int = 1 << 20,
                    registry: dict | None = None) -> Report:
    """Replay a script and verify every injected crash recovers to a state
    the operation history allows (a prefix point of the run, and for
    transactions all-or-nothing)."""
    if isinstance(script, str):
        script = parse_script(script)
    if script.kind == "log":
        target = _LogTarget(algo, payload_len, slots, registry)
        name = algo
    else:
        target = _StpsTarget(node_lines, slots)
        name = "stps"
    mem = target.mem
    report = Report(name, script.mode, len(script.ops))
    mem.checkpoint()   # formatting the region is not crashable history

    if script.mode in ("exhaustive", "at-op"):
        only = script.mode_arg if script.mode == "at-op" else None
        for i, op in enumerate(script.ops):
            _quiesce(mem)
            mem.checkpoint()
            pre = target.model_state()
            target.run_op(op)
            if only is not None and i != only:
                continue
            legal = [pre, target.model_state()]
            cache: dict = {}
            _check_states(target, mem.enumerate_crash_states(state_limit),
                          legal, i, report, cache)
    else:
        legal = []
        for op in script.ops:
            legal.append(target.model_state())
            target.run_op(op)
        legal.append(target.model_state())
        _quiesce(mem)
        cache: dict = {}
        states = list(mem.boundary_crash_states())
        states.extend(mem.sample_crash_states(script.mode_arg or 10000,
                                              seed=script.seed))
        _check_states(target, states, legal, len(script.ops) - 1, report, cache)
    return report


# --------------------------------------------------------- round-trip audits

@dataclass(frozen=True)
class RoundTripAudit:
    algorithm: str
    payload_len: int
    appends: int
    roundtrips_per_append: float
    init_flushes_per_entry: float


def run_appends(log: CircularLog, payload: bytes, ops: int, drain: int) -> int:
    """Append `payload` `ops` times, trimming the whole log after every
    `drain` appends; returns the fenced round trips the appends took (trims
    not counted)."""
    stats = log.mem.stats
    roundtrips = 0
    handles = []
    for _ in range(ops):
        before = stats.fenced_roundtrips
        handles.append(log.append(payload))
        roundtrips += stats.fenced_roundtrips - before
        if len(handles) >= drain:
            log.trim(handles[-1])
            handles.clear()
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


def differential_recovery(algo_a: str, algo_b: str, script: Script | str,
                          payload_len: int = 24) -> bool:
    """Run the same append/trim workload through two algorithms and compare
    the contents each recovers from its fully persisted image."""
    if isinstance(script, str):
        script = parse_script(script)
    results = []
    for algo in (algo_a, algo_b):
        t = _LogTarget(algo, payload_len, slots=64)
        for op in script.ops:
            t.run_op(op)
        _quiesce(t.mem)
        state = t.mem.sample_crash_state(seed=0, at_least_durable=True)
        results.append(t.recovered_state(t.mem.apply_crash(state)))
    return results[0] == results[1]


# ------------------------------------------------------------ fault injection

class BrokenVbLog(CsoVbLog):
    """Validity-bit log with the write order inverted: the validity word goes
    out before the payload, so a crash between them recovers stale bytes as a
    valid entry.  Exists to prove the suite catches ordering mistakes."""

    name = "broken-vb"

    def _write_entry(self, slot: int, payload: bytes) -> int:
        mem = self.mem
        addr = self.slot_addr(slot)
        bit = self.expected_bit(slot)
        if self.layout.total_len <= 64:
            mem.store_word(addr + self.layout.metadata_slots[0][0], bit)
            for i, w in enumerate(words_of(payload)):
                mem.store_word(addr + i * WORD_SIZE, w)
        else:
            mem.store_word(addr, bit)
            mem.store_word(addr + 120, bit)
            for i, w in enumerate(words_of(payload)):
                mem.store_word(addr + WORD_SIZE + i * WORD_SIZE, w)
        mem.flush_range(addr, self.slot_size)
        mem.sfence()
        return 1


EXTRA_ALGORITHMS = dict(ALGORITHMS)
EXTRA_ALGORITHMS[BrokenVbLog.name] = BrokenVbLog


# --------------------------------------------------- checksum collision demo

def _crc32_linear_delta(buf0: bytes, word_off: int, v: int) -> int:
    b = bytearray(buf0)
    b[word_off:word_off + 8] = v.to_bytes(8, "little")
    return crc32c(bytes(b)) ^ crc32c(buf0)


def crc32_collision_word(buf: bytes, word_off: int) -> int:
    """A nonzero 64-bit value v such that XORing it into buf at word_off
    leaves the CRC32C unchanged.  XOR deltas map to CRC deltas by a GF(2)-
    linear function, whose kernel for a 64-bit word under a 32-bit checksum
    is nontrivial; linearize around a zeroed word so set == xor."""
    buf0 = bytearray(buf)
    buf0[word_off:word_off + 8] = bytes(8)
    buf0 = bytes(buf0)
    basis = [_crc32_linear_delta(buf0, word_off, 1 << i) for i in range(64)]
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


@dataclass(frozen=True)
class ChecksumDemo:
    algorithm: str
    payload: bytes
    states_checked: int   # distinct cut tuples after deduplication
    false_valids: int
    samples_drawn: int = 0


def checksum_vulnerability_demo(algo: str, *, samples: int = 0,
                                seed: int = 0) -> ChecksumDemo:
    """Append one crafted 112-byte payload and hunt for crash states that
    validate with the wrong contents.  The payload's word 6 is chosen so the
    32-bit checksum cannot see it torn; 64-bit checksums and validity bits
    are expected to reject every torn state."""
    payload_len = 112
    cls = ALGORITHMS[algo]
    log = cls.fresh(payload_len, 4)
    mem = log.mem
    mem.checkpoint()

    # craft against the 32-bit checksum's own framing: seq 1, len, payload
    hdr = (0).to_bytes(4, "little") + payload_len.to_bytes(4, "little")
    base_payload = bytes(range(1, 113))
    buf = hdr + base_payload
    v = crc32_collision_word(buf, 8 + 48)     # payload word 6
    payload = base_payload[:48] + v.to_bytes(8, "little") + base_payload[56:]

    log.append(payload)
    states = mem.enumerate_crash_states()
    drawn = len(states)
    if samples:
        states = list(states)
        states.extend(mem.sample_crash_states(samples, seed=seed))
        drawn += samples
    checked = 0
    false_valids = 0
    seen = set()
    for st in states:
        if st.cuts in seen:
            continue
        seen.add(st.cuts)
        checked += 1
        attached = cls.attach(mem.apply_crash(st), 0, log.size, payload_len)
        try:
            entries = attached.recover()
        except UnrecoverableLogError:
            continue
        for e in entries:
            if e.payload != payload:
                false_valids += 1
                break
    return ChecksumDemo(algo, payload, checked, false_valids, drawn)
