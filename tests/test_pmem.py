"""Persistence model tests: event splitting, crash-state enumeration against
an independent brute-force oracle, sampling, boundary states, crash
application, statistics, and the snapshot format."""

import hashlib
import itertools
import math
import operator
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Fence, Flush, RecordingMemory, Store
from nvlog.pmem import (
    CrashState,
    EnumerationLimitError,
    RELAXED,
    RELEASE,
    SimMemory,
    SnapshotFormatError,
    StaleCrashStateError,
    UsageError,
)


def cuts_of(states):
    return {tuple(s.cuts) for s in states}


# ------------------------------------------------------------- store semantics

def test_store_splits_at_line_boundaries():
    m = SimMemory(256)
    m.store(60, b"abcdefgh")
    lines = [(line, e.offset_in_line, e.data)
             for line in sorted(m.write_counts()) for e in m.events(line)]
    assert lines == [(0, 60, b"abcd"), (1, 0, b"efgh")]
    assert m.load(60, 8) == b"abcdefgh"


def test_store_word_little_endian():
    m = SimMemory(64)
    m.store_word(8, 0x0102030405060708)
    assert m.load(8, 8) == bytes([8, 7, 6, 5, 4, 3, 2, 1])
    assert m.load_word(8) == 0x0102030405060708


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 255), st.binary(max_size=140), st.booleans())
def test_store_words_logs_one_store_per_chunk(addr, data, fenced):
    # a run must log exactly the events, fence stamps included, of one
    # store per 8-byte chunk, each split at line boundaries as store splits
    data = data[:256 - addr]
    run, chunks = SimMemory(256), SimMemory(256)
    for m in (run, chunks):
        m.store(addr & ~7, b"old", RELEASE)
        if fenced:
            m.clflushopt(addr // 64)
            m.sfence()
    run.store_words(addr, data)
    for pos in range(0, len(data), 8):
        chunks.store(addr + pos, data[pos:pos + 8])
    assert run.write_counts() == chunks.write_counts()
    for line in chunks.write_counts():
        assert run.events(line) == chunks.events(line)
    assert run.cached == chunks.cached


def test_bounds_checked():
    m = SimMemory(64)
    with pytest.raises(UsageError):
        m.store(60, b"too long!")
    with pytest.raises(UsageError):
        m.store_words(56, b"too long!")
    assert m.write_counts() == {} and m.cached == bytes(64)
    with pytest.raises(UsageError):
        m.load(64, 1)
    for addr, size in ((0, -8), (8, -16), (64, -1)):
        with pytest.raises(UsageError):
            m.load(addr, size)
    with pytest.raises(UsageError):
        m.flush_range(8, -2)
    with pytest.raises(UsageError):
        SimMemory(100)


def test_empty_flush_range_flushes_nothing():
    m = SimMemory(256)
    m.store(64, b"x" * 8)
    for addr in (0, 64, 70, 256):
        m.flush_range(addr, 0)
    assert m.stats.clflushopt_count == 0 and not m.pending_flushes
    m.flush_range(70, 1)
    assert m.stats.clflushopt_count == 1 and m.pending_flushes


# ----------------------------------------------------------------- enumeration

def test_same_line_pair_yields_three_states():
    m = SimMemory(64)
    m.store(0, b"A" * 8)
    m.store(8, b"B" * 8, RELEASE)
    states = m.enumerate_crash_states()
    assert cuts_of(states) == {((0, 0),), ((0, 1),), ((0, 2),)}
    # never the second store without the first
    for s in states:
        img = m.apply_crash(s)
        if img.load(8, 8) == b"B" * 8:
            assert img.load(0, 8) == b"A" * 8


def test_k_writes_one_line_k_plus_one_states():
    m = SimMemory(64)
    for i in range(5):
        m.store(0, bytes([i]))
    assert len(m.enumerate_crash_states()) == 6


def test_empty_trace_single_state():
    m = SimMemory(64)
    states = m.enumerate_crash_states()
    assert len(states) == 1 and states[0].cuts == ()


def test_flush_fence_write_ordering():
    # W1; flush; sfence; W2 -> {}, {W1}, {W1,W2}; never {W2} alone
    m = SimMemory(256)
    m.store(0, b"1" * 8)
    m.clflushopt(0)
    m.sfence()
    m.store(64, b"2" * 8)
    assert cuts_of(m.enumerate_crash_states()) == {
        ((0, 0), (1, 0)), ((0, 1), (1, 0)), ((0, 1), (1, 1))}


def test_unflushed_lines_independent():
    m = SimMemory(256)
    m.store(0, b"x" * 8)
    m.store(64, b"y" * 8)
    assert len(m.enumerate_crash_states()) == 4


def test_enumeration_limit():
    m = SimMemory(4096)
    for line in range(16):
        for _ in range(4):
            m.store(line * 64, b"w" * 8)
    with pytest.raises(EnumerationLimitError):
        m.enumerate_crash_states(limit=1000)


# --------------------------------------------------- brute-force oracle check

def brute_force_states(m: RecordingMemory):
    """Directly apply the two persist rules over all cut tuples, from the
    recorded trace; an event's sequence number is its trace position."""
    trace = list(enumerate(m.trace))
    lines = sorted({e.line for _, e in trace if isinstance(e, Store)})
    per_line = {ln: [seq for seq, e in trace
                     if isinstance(e, Store) and e.line == ln] for ln in lines}
    flushes = [(seq, e) for seq, e in trace if isinstance(e, Flush)]
    fences = [seq for seq, e in trace if isinstance(e, Fence)]
    legal = set()
    for cuts in itertools.product(*(range(len(per_line[l]) + 1) for l in lines)):
        persisted = []
        for ln, c in zip(lines, cuts):
            persisted.extend(per_line[ln][:c])
        maxseq = max(persisted, default=-1)
        ok = True
        for ln, evs in per_line.items():
            c = cuts[lines.index(ln)]
            for pos, w in enumerate(evs):
                if pos < c:
                    continue  # already persisted
                required = any(
                    f.line == ln and f.captured >= pos + 1 and
                    any(n > fseq and maxseq > n for n in fences)
                    for fseq, f in flushes)
                if required:
                    ok = False
        if ok:
            legal.add(tuple(zip(lines, cuts)))
    return legal


def random_trace(seed: int) -> RecordingMemory:
    rng = random.Random(seed)
    m = RecordingMemory(256)
    dirty = set()
    for _ in range(rng.randint(1, 10)):
        roll = rng.random()
        if roll < 0.6:
            line = rng.randrange(4)
            m.store(line * 64 + 8 * rng.randrange(8), bytes([rng.randrange(256)]))
            dirty.add(line)
        elif roll < 0.8 and dirty:
            m.clflushopt(rng.choice(sorted(dirty)))
        else:
            m.sfence()
    return m


@pytest.mark.parametrize("seed", range(40))
def test_enumeration_matches_brute_force(seed):
    m = random_trace(seed)
    assert cuts_of(m.enumerate_crash_states()) == brute_force_states(m)


def long_trace(seed: int, events: int = 24,
               m: RecordingMemory | None = None):
    """`events` events over 4 lines: stores of up to 16 bytes that may cross
    a line boundary, and flush+fence rounds that often hit a line again."""
    rng = random.Random(seed)
    m = m or RecordingMemory(256)
    for _ in range(events):
        roll = rng.random()
        if roll < 0.5:
            n = rng.randint(1, 16)
            m.store(rng.randrange(256 - n), bytes(rng.randrange(256)
                                                  for _ in range(n)))
        elif roll < 0.85:
            m.clflushopt(rng.randrange(4))
            if rng.random() < 0.7:
                m.sfence()
        else:
            m.sfence()
    return m


def durable_floors(m: RecordingMemory) -> dict[int, int]:
    """Per line, the writes that fenced flushes made durable, replayed from
    the recorded trace."""
    floors, pending = {}, {}
    for e in m.trace:
        if isinstance(e, Flush):
            pending[e.line] = max(pending.get(e.line, 0), e.captured)
        elif isinstance(e, Fence):
            for line, captured in pending.items():
                floors[line] = max(floors.get(line, 0), captured)
            pending.clear()
    return floors


def replay(m: RecordingMemory, base: bytes, cuts) -> bytes:
    """The image a crash state persists, replayed from the recorded trace
    over `base`: each line's first `cut` store pieces, in issue order."""
    want = dict(cuts)
    image = bytearray(base)
    seen: dict[int, int] = {}
    for e in m.trace:
        if isinstance(e, Store):
            i = seen.get(e.line, 0)
            seen[e.line] = i + 1
            if i < want.get(e.line, 0):
                lo = e.line * m.line_size + e.offset_in_line
                image[lo:lo + len(e.data)] = e.data
    return bytes(image)


def crashed_image(m: SimMemory, state: CrashState) -> bytes:
    return m.apply_crash(state).load(0, m.capacity)


def test_long_traces_cross_lines_and_refence():
    crossing = refenced = 0
    for seed in range(30):
        m = long_trace(seed)
        crossing += len(m.stores_since(0)) > m.stores
        raised = [line for _, line, _ in m._raises]
        refenced += any(raised.count(line) > 1 for line in raised)
    assert crossing >= 10 and refenced >= 10


@pytest.mark.parametrize("seed", range(30))
def test_long_trace_enumeration_matches_brute_force(seed):
    m = long_trace(seed)
    legal = brute_force_states(m)
    assert cuts_of(m.enumerate_crash_states()) == legal
    floors = durable_floors(m)
    assert cuts_of(m.enumerate_crash_states(at_least_durable=True)) == {
        cuts for cuts in legal
        if all(c >= floors.get(line, 0) for line, c in cuts)}


@pytest.mark.parametrize("seed", range(30))
def test_long_trace_samples_legal_and_above_floor(seed):
    m = long_trace(seed)
    legal = brute_force_states(m)
    floors = durable_floors(m)
    for s in m.sample_crash_states(100, seed=seed):
        assert s.cuts in legal
    for s in m.sample_crash_states(100, seed=seed, at_least_durable=True):
        assert s.cuts in legal
        assert all(c >= floors.get(line, 0) for line, c in s.cuts)


@pytest.mark.parametrize("seed", range(10))
def test_queries_across_checkpoints_stay_exact(seed):
    # views cached by a query must still hold after later fences, and a
    # checkpoint starts fence numbering again: nothing recorded or cached
    # before it may constrain the next epoch, and a torn line image
    # memoised by (line, cut) names other bytes after it
    m = RecordingMemory(256)
    for step in range(4):
        base = m.load(0, m.capacity)
        long_trace(seed * 10 + step, events=10, m=m)
        states = m.enumerate_crash_states()
        assert cuts_of(states) == brute_force_states(m)
        for state in states:
            assert crashed_image(m, state) == replay(m, base, state.cuts)
        m.flush_range(0, 256)
        m.sfence()
        assert cuts_of(m.enumerate_crash_states()) == brute_force_states(m)
        m.checkpoint()


def test_requirement_entries_bounded_by_flushes():
    m = SimMemory(64 * 64)
    rng = random.Random(0)
    for i in range(2000):
        line = rng.randrange(64)
        m.store(line * 64 + 8 * rng.randrange(8), i.to_bytes(8, "little"))
        m.clflushopt(line)
        m.sfence()
    assert len(m._raises) <= m.stats.clflushopt_count == 2000
    assert m.stats.fenced_roundtrips == 2000


# -------------------------------------------------------------------- sampling

def test_sampling_deterministic():
    m = random_trace(7)
    a = [s.cuts for s in m.sample_crash_states(50, seed=3)]
    b = [s.cuts for s in m.sample_crash_states(50, seed=3)]
    assert a == b


@pytest.mark.parametrize("seed", range(10))
def test_samples_are_always_legal(seed):
    m = random_trace(seed)
    legal = cuts_of(m.enumerate_crash_states())
    for s in m.sample_crash_states(200, seed=seed):
        assert s.cuts in legal


def test_sampling_covers_two_line_unfenced_trace():
    m = SimMemory(256)
    m.store(0, b"a" * 8)
    m.store(64, b"b" * 8)
    seen = {s.cuts for s in m.sample_crash_states(10000, seed=0)}
    assert len(seen) == 4


def _run(m: SimMemory, op: tuple) -> None:
    if op[0] == "store":
        m.store(op[1], op[2])
    elif op[0] == "flush":
        m.clflushopt(op[1])
    elif op[0] == "fence":
        m.sfence()
    else:  # make everything durable, then start a new epoch
        m.flush_range(0, m.capacity)
        m.sfence()
        m.checkpoint()


@pytest.mark.parametrize("seed", range(10))
def test_memoised_samples_match_fresh_replay(seed):
    # writes, fences, checkpoints and samples interleave, and lines are
    # first written at different times: every sample must equal the one a
    # memory that replays the same history, with no draws before, samples
    # from the same generator state
    rng = random.Random(seed)
    draws = random.Random(seed + 1000)
    m = SimMemory(256)
    history = []
    for _ in range(80):
        roll = rng.random()
        if roll < 0.6:
            durable = rng.random() < 0.5
            before = draws.getstate()
            got = m.sample_crash_state(draws, at_least_durable=durable)
            twin = SimMemory(256)
            for op in history:
                _run(twin, op)
            replay_rng = random.Random()
            replay_rng.setstate(before)
            assert got == twin.sample_crash_state(replay_rng,
                                                  at_least_durable=durable)
            assert [line for line, _ in got.cuts] == sorted(m.write_counts())
            continue
        if roll < 0.8:
            op = ("store", 64 * rng.randrange(4) + 8 * rng.randrange(8),
                  bytes([rng.randrange(1, 256)]))
        elif roll < 0.9:
            op = ("flush", rng.randrange(4))
        elif roll < 0.97:
            op = ("fence",)
        else:
            op = ("checkpoint",)
        _run(m, op)
        history.append(op)


def test_sample_memo_cleared_by_checkpoint():
    # a sample drawn after a checkpoint belongs to the new epoch and walks
    # only the lines written since
    m = SimMemory(128)
    m.store(0, b"a")
    m.sample_crash_state(random.Random(0))
    m.flush_range(0, 128)
    m.sfence()
    m.checkpoint()
    m.store(64, b"b")
    state = m.sample_crash_state(random.Random(0))
    assert state.epoch == 1 and [ln for ln, _ in state.cuts] == [1]


@pytest.mark.parametrize("durable", [False, True])
def test_sampler_draws_as_randrange_does(durable):
    # callers share their generator with other draws, so the sampler must
    # take the states and consume the generator exactly as drawing each cut
    # by randrange(floor or 0, units + 1) did
    m = SimMemory(64 * 40)
    for rnd in range(3):
        for line in range(33):
            m.store(64 * line + 8 * rnd, bytes([rnd + 1]) * 8)
            if (line + rnd) % 3 == 0:
                m.clflushopt(line)
        m.sfence()
    fast, slow = random.Random(5), random.Random(5)
    win = m._window()
    los = win.floors if durable else [0] * len(win.lines)
    for _ in range(2000):
        want = m._fix_up(win, list(map(slow.randrange, los, win.stops)))
        assert m.sample_crash_state(fast, at_least_durable=durable) == want
    assert fast.getstate() == slow.getstate()
    assert any(los) == durable


def iterative_fix_up(m: SimMemory, win, cuts: list[int]) -> CrashState:
    """The reference fix-up: raise `cuts` to the requirement vector of the
    newest stamp they persist, and again, until they meet it."""
    stamps = win.stamps
    k = max(map(list.__getitem__, stamps, cuts), default=0)
    while k:
        req = m._reqs(win, k)
        if all(map(operator.ge, cuts, req)):
            break
        cuts = [max(c, r) for c, r in zip(cuts, req)]
        k = max(map(list.__getitem__, stamps, cuts))
    return CrashState(tuple(zip(win.lines, cuts)), m._epoch)


@pytest.mark.parametrize("seed", range(40))
def test_one_pass_fix_up_matches_the_iterative_raise(seed):
    # random cuts, cuts drawn at or above the durable floors, and the floors
    # themselves, on short, long and 60-event traces
    rng = random.Random(seed)
    raised = 0
    for m in (random_trace(seed), long_trace(seed),
              long_trace(seed, events=60)):
        win = m._window()
        # why one raise suffices: reqs(k) persists no unit stamped k or later
        for k in range(1, m._fences + 1):
            assert max(map(list.__getitem__, win.stamps, m._reqs(win, k)),
                       default=0) < k
        draws = [[rng.randrange(lo, stop) for lo, stop in zip(los, win.stops)]
                 for los in ([0] * len(win.lines), win.floors)
                 for _ in range(150)]
        for cuts in draws + [list(win.floors)]:
            want = iterative_fix_up(m, win, cuts)
            assert m._fix_up(win, cuts) == want
            raised += [c for _, c in want.cuts] != cuts
    assert raised


@pytest.mark.parametrize("seed", range(10))
def test_fence_free_window_is_the_whole_product(seed):
    # stores and flushes, with at most a fence after the last store: no
    # unit carries a nonzero stamp, so every cut tuple is legal
    rng = random.Random(seed)
    m = RecordingMemory(256)
    for _ in range(8):
        if rng.random() < 0.7:
            m.store(64 * rng.randrange(4) + 8 * rng.randrange(8),
                    bytes([rng.randrange(1, 256)]))
        elif m.write_counts():
            m.clflushopt(rng.choice(sorted(m.write_counts())))
    if seed % 2:
        m.sfence()
    win = m._window()
    assert not win.fenced
    assert m._vectors(win) == list(itertools.product(*map(range, win.stops)))
    assert m._vectors(win, at_least_durable=True) == list(
        itertools.product(*map(range, win.floors, win.stops)))
    assert cuts_of(m.enumerate_crash_states()) == brute_force_states(m)


def test_at_least_durable_respects_floor():
    m = SimMemory(256)
    m.store(0, b"1" * 8)
    m.clflushopt(0)
    m.sfence()
    m.store(0, b"2" * 8)
    for s in m.enumerate_crash_states(at_least_durable=True):
        assert s.cut(0) >= 1


# ------------------------------------------------------------ boundary states

def release_trace() -> SimMemory:
    """RELEASE stores on lines 0 and 1, with a flush+fence of line 0 between
    them; line 0 is written once more after the fence."""
    m = SimMemory(256)
    m.store(0, b"a" * 8)
    m.store(8, b"b" * 8, RELEASE)     # line 0, write 1
    m.clflushopt(0)
    m.sfence()
    m.store(64, b"c" * 8)
    m.store(72, b"d" * 8, RELEASE)    # line 1, write 1
    m.store(16, b"e" * 8)
    return m


def test_boundary_states_are_legal_cuts_at_release_stores():
    m = release_trace()
    states = m.boundary_crash_states()
    assert {s.cuts for s in states} <= cuts_of(m.enumerate_crash_states())
    full = {0: 3, 1: 2}
    floor = {0: 2}    # line 0's writes made durable by the fence
    # two states per RELEASE store, in (line, write) order
    assert len(states) == 4
    for state, (line, idx) in zip(states, [(0, 1), (0, 1), (1, 1), (1, 1)]):
        cuts = dict(state.cuts)
        assert all(cuts[other] == full[other] for other in full
                   if other != line)
        assert cuts[line] in (idx, idx + 1) or cuts[line] == floor[line]
    # cutting line 0 before its write 1 would persist line 1's writes, issued
    # after the fence, without line 0's fenced ones: fix-up raises the cut
    assert [s.cuts for s in states] == [
        ((0, 2), (1, 2)), ((0, 2), (1, 2)), ((0, 3), (1, 1)), ((0, 3), (1, 2))]


@pytest.mark.parametrize("seed", range(10))
def test_boundary_states_of_random_traces_are_legal(seed):
    rng = random.Random(seed)
    m = long_trace(seed)
    for line in range(4):
        m.store(line * 64 + 56, b"r" * 8, RELEASE)
        if rng.random() < 0.5:
            m.clflushopt(line)
            m.sfence()
    states = m.boundary_crash_states()
    assert len(states) == 8
    assert {s.cuts for s in states} <= brute_force_states(m)


def test_crash_state_order_is_pinned():
    # enumeration, sampling (both floor settings) and the boundary states
    # must keep drawing the same states in the same order: a digest of
    # their ordered cut lists on seeded traces with RELEASE writes
    digest = hashlib.sha256()
    for seed in range(20):
        rng = random.Random(seed)
        m = long_trace(seed)
        for line in range(4):
            m.store(line * 64 + 56, b"r" * 8, RELEASE)
            if rng.random() < 0.5:
                m.clflushopt(line)
                m.sfence()
        for durable in (False, True):
            for states in (m.enumerate_crash_states(at_least_durable=durable),
                           m.sample_crash_states(50, seed=seed,
                                                 at_least_durable=durable)):
                digest.update(repr([s.cuts for s in states]).encode())
        boundary = m.boundary_crash_states()
        digest.update(repr([s.cuts for s in boundary]).encode())
    assert digest.hexdigest() == (
        "db1e82144d96f233f34ba6ac35199588a8e65a6cf3b1fc7f38033b5ca2f266c8")


def test_no_release_store_no_boundary_states():
    m = SimMemory(256)
    m.store(0, b"a" * 8)
    m.clflushopt(0)
    m.sfence()
    m.store(64, b"b" * 72)
    assert m.boundary_crash_states() == []


# ------------------------------------------------------------- crash applying

def test_apply_crash_empty_and_full():
    m = SimMemory(128)
    m.store(0, b"new line 0 data!")
    empty = next(s for s in m.enumerate_crash_states() if s.cut(0) == 0)
    full = next(s for s in m.enumerate_crash_states() if s.cut(0) == 1)
    assert m.apply_crash(empty).load(0, 16) == bytes(16)
    assert m.apply_crash(full).load(0, 16) == b"new line 0 data!"


def test_apply_crash_records_loaded_lines_on_request():
    m = SimMemory(256)
    m.store(0, b"x" * 8)
    state = m.enumerate_crash_states()[-1]
    assert not hasattr(m.apply_crash(state), "loaded_lines")
    crashed = m.apply_crash(state, record_loads=True)
    assert crashed.load(0, 8) == b"x" * 8
    crashed.load_word(136)
    crashed.load(60, 72)
    crashed.load(192, 0)
    assert crashed.loaded_lines == [0, 2, 0, 1, 2]


def test_apply_crash_partial_matches_manual_replay():
    m = SimMemory(64)
    writes = [(0, b"11111111"), (4, b"2222"), (8, b"33333333")]
    for addr, data in writes:
        m.store(addr, data)
    for s in m.enumerate_crash_states():
        manual = bytearray(64)
        for addr, data in writes[:s.cut(0)]:
            manual[addr:addr + len(data)] = data
        assert m.apply_crash(s).load(0, 64) == bytes(manual)


@pytest.mark.parametrize("seed", range(30))
def test_apply_crash_matches_replay(seed):
    m = long_trace(seed)
    base = bytes(m.capacity)
    states = m.enumerate_crash_states()
    states += m.sample_crash_states(50, seed=seed)
    kinds = set()
    for state in states:
        assert crashed_image(m, state) == replay(m, base, state.cuts)
        for line, cut in state.cuts:
            kinds.add("zero" if cut == 0 else
                     "full" if cut == m.write_counts()[line] else "torn")
        # a written line the state leaves out persists nothing
        for i in range(len(state.cuts)):
            short = CrashState(state.cuts[:i] + state.cuts[i + 1:], state.epoch)
            assert crashed_image(m, short) == replay(m, base, short.cuts)
    assert kinds == {"zero", "full", "torn"}


@pytest.mark.parametrize("seed", range(30))
def test_persisted_image_matches_replayed_floors(seed):
    m = long_trace(seed)
    want = replay(m, bytes(m.capacity), durable_floors(m).items())
    assert m.persisted_image() == want


def run_trace(seed: int, events: int = 6):
    """`events` events over 4 lines: word runs of 0-140 bytes at any
    address (unaligned, often crossing lines), relaxed and RELEASE stores of
    up to 16 bytes, and flush+fence rounds.  Also returns the (line, cut)
    pairs that fall between two chunks of one run, from the recorded trace."""
    rng = random.Random(seed)
    m = RecordingMemory(256)
    inside = set()
    for _ in range(events):
        roll = rng.random()
        if roll < 0.45:
            n = rng.randint(0, 140)
            before = Counter(e.line for e in m.stores_since(0))
            mark = len(m.trace)
            m.store_words(rng.randrange(257 - n), rng.randbytes(n))
            for line, k in Counter(e.line
                                   for e in m.stores_since(mark)).items():
                inside.update((line, before[line] + c) for c in range(1, k))
        elif roll < 0.6:
            n = rng.randint(1, 16)
            m.store(rng.randrange(257 - n), rng.randbytes(n),
                    rng.choice((RELAXED, RELEASE)))
        elif roll < 0.85:
            m.clflushopt(rng.randrange(4))
            if rng.random() < 0.7:
                m.sfence()
        else:
            m.sfence()
    return m, inside


def test_run_traces_tear_runs_and_release():
    traces = [run_trace(seed) for seed in range(20)]
    assert sum(bool(inside) for _, inside in traces) >= 15
    assert sum(any(isinstance(e, Store) and e.ordering == RELEASE
                   for e in m.trace) for m, _ in traces) >= 5


@pytest.mark.parametrize("seed", range(20))
def test_torn_runs_match_replay(seed):
    # a crash may tear a word run between any two of its chunks: every
    # enumerated, sampled and boundary image must equal the recorder's
    # replay of each line's first `cut` store pieces
    m, inside = run_trace(seed)
    states = m.enumerate_crash_states()
    if math.prod(c + 1 for c in m.write_counts().values()) <= 3000:
        assert cuts_of(states) == brute_force_states(m)
    assert inside <= {cut for state in states for cut in state.cuts}
    states += m.boundary_crash_states()
    for durable in (False, True):
        states += m.sample_crash_states(50, seed=seed,
                                        at_least_durable=durable)
    for state in states:
        assert crashed_image(m, state) == replay(m, bytes(m.capacity),
                                                 state.cuts)


def test_torn_line_memo_cleared_by_checkpoint():
    m = SimMemory(64)
    m.store(0, b"a" * 8)
    m.store(8, b"b" * 8)
    first = CrashState(((0, 1),), 0)
    assert crashed_image(m, first)[:16] == b"a" * 8 + bytes(8)
    m.clflushopt(0)
    m.sfence()
    m.checkpoint()
    assert m._torn == {}
    m.store(0, b"c" * 8)
    m.store(8, b"d" * 8)
    again = CrashState(((0, 1),), 1)
    assert crashed_image(m, again)[:16] == b"c" * 8 + b"b" * 8


def test_full_cuts_memoise_nothing():
    m = long_trace(3)
    full = CrashState(tuple(sorted(m.write_counts().items())))
    assert crashed_image(m, full) == m.load(0, m.capacity)
    assert m._torn == {}


def test_cut_beyond_history_rejected():
    m = SimMemory(128)
    m.store(0, b"x" * 8)
    with pytest.raises(StaleCrashStateError):
        m.apply_crash(CrashState(((0, 2),)))
    with pytest.raises(StaleCrashStateError):
        m.apply_crash(CrashState(((1, 1),)))


def test_stale_crash_state_rejected():
    m = SimMemory(64)
    m.store(0, b"x" * 8)
    state = m.enumerate_crash_states()[-1]
    m.clflushopt(0)
    m.sfence()
    m.checkpoint()
    with pytest.raises(StaleCrashStateError):
        m.apply_crash(state)


def test_checkpoint_requires_quiescence():
    m = SimMemory(64)
    m.store(0, b"x" * 8)
    m.clflushopt(0)
    with pytest.raises(UsageError):
        m.checkpoint()


# ------------------------------------------------------------------ statistics

def test_sfence_with_nothing_pending_is_free():
    m = SimMemory(64)
    m.sfence()
    assert m.stats.fenced_roundtrips == 0


def test_flush_fence_counts_one_roundtrip():
    m = SimMemory(256)
    m.store(0, b"a" * 8)
    m.store(64, b"b" * 8)
    m.clflushopt(0)
    m.clflushopt(1)
    m.sfence()
    assert m.stats.clflushopt_count == 2
    assert m.stats.fenced_roundtrips == 1


def test_latency_model_512_appends():
    m = SimMemory(64, latency_ns=800)
    for _ in range(512):
        m.store(0, b"e" * 8)
        m.clflushopt(0)
        m.sfence()
    assert m.stats.simulated_time_ns == 409_600


# -------------------------------------------------------------------- snapshot

def test_snapshot_round_trip(tmp_path):
    m = SimMemory(256)
    m.store(3, b"snapshot payload")
    m.flush_range(0, 64)
    m.sfence()
    path = tmp_path / "img.pcso"
    m.snapshot_save(path)
    loaded = SimMemory.snapshot_load(path)
    assert loaded.load(0, 256) == m.load(0, 256)
    assert loaded.capacity == 256 and loaded.line_size == 64


def test_snapshot_truncated_rejected(tmp_path):
    m = SimMemory(128)
    path = tmp_path / "img.pcso"
    m.snapshot_save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(SnapshotFormatError):
        SimMemory.snapshot_load(path)


def test_snapshot_geometry_checked(tmp_path):
    path = tmp_path / "img.pcso"
    path.write_bytes(b"PCSO" + (1).to_bytes(4, "little")
                     + (64).to_bytes(4, "little")
                     + (100).to_bytes(8, "little") + bytes(100))
    with pytest.raises(UsageError):
        SimMemory.snapshot_load(path)


@pytest.mark.parametrize("line_size", [0, 32, 128])
def test_snapshot_other_line_size_rejected(tmp_path, line_size):
    path = tmp_path / "img.pcso"
    path.write_bytes(b"PCSO" + (1).to_bytes(4, "little")
                     + line_size.to_bytes(4, "little")
                     + (256).to_bytes(8, "little") + bytes(256))
    with pytest.raises(SnapshotFormatError):
        SimMemory.snapshot_load(path)


def test_snapshot_bad_magic_rejected(tmp_path):
    path = tmp_path / "img.pcso"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(SnapshotFormatError):
        SimMemory.snapshot_load(path)


# ------------------------------------------------------------------ properties

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 191), st.binary(min_size=1, max_size=40))
def test_store_load_round_trip(addr, data):
    m = SimMemory(256)
    if addr + len(data) > 256:
        return
    m.store(addr, data)
    assert m.load(addr, len(data)) == data
