"""The write trace every log format and the map issue: what the test
recorder sees of it, and a digest that pins it.

Seeded append/trim scripts fill, trim and wrap a small log of every format
at each payload size it holds, and seeded update/remove/transaction scripts
run the map with 1-, 2- and 4-line nodes.  No checkpoint is taken, so the
whole history stays in the memory's write logs.
"""

import hashlib
import random
from collections import Counter

from conftest import Fence, Flush, RecordingMemory, Store
from nvlog.harness import EXTRA_ALGORITHMS
from nvlog.logalg.base import PayloadError
from nvlog.logalg.csorandom import RANDOM_VALUE
from nvlog.pmem import CrashState, LINE_SIZE, SimMemory, WORD_SIZE
from nvlog.stps import PersistentHashMap

SIZES = (20, 24, 56, 112, 240, 496)


def _legal(cls, size: int) -> bool:
    try:
        cls.slot_bytes(size)
    except PayloadError:
        return False
    return True


LOG_CASES = [(name, size) for name, cls in sorted(EXTRA_ALGORITHMS.items())
             for size in SIZES if _legal(cls, size)]
NODE_LINES = (1, 2, 4)
_R_BYTES = RANDOM_VALUE.to_bytes(WORD_SIZE, "little")


def run_log_script(mem_cls, name: str, size: int, seed: int) -> SimMemory:
    """Appends and trims on a 5-slot log; some payloads carry the random
    fill constant R in one word, so cso-random takes its sentinel path."""
    cls = EXTRA_ALGORITHMS[name]
    rng = random.Random(seed)
    region = cls.region_bytes(size, 5)
    mem = mem_cls(region)
    log = cls(mem, 0, region, size)
    handles = []
    for _ in range(30):
        if handles and (rng.random() < 0.3 or log.used + 2 > log.nslots):
            n = rng.randint(1, len(handles))
            log.trim(handles[n - 1])
            del handles[:n]
            continue
        payload = bytearray(rng.randbytes(size))
        if size >= WORD_SIZE and rng.random() < 0.2:
            off = rng.randrange(size // WORD_SIZE) * WORD_SIZE
            payload[off:off + WORD_SIZE] = _R_BYTES
        handles.append(log.append(bytes(payload)))
    return mem


def run_map_script(mem_cls, node_lines: int, seed: int) -> SimMemory:
    """Updates, removes and 2-3 key transactions over six keys."""
    rng = random.Random(seed)
    region = 24 * node_lines * LINE_SIZE
    mem = mem_cls(region)
    m = PersistentHashMap(mem, 0, region, node_lines=node_lines)
    keys = [b"k%d" % i for i in range(5)] + [b"K" * m.max_key]

    def value(key):
        return rng.randbytes(rng.randint(0, m.capacity - len(key)))

    for _ in range(30):
        r = rng.random()
        if r < 0.6:
            key = rng.choice(keys)
            m.update(key, value(key))
        elif r < 0.8:
            m.remove(rng.choice(keys))
        else:
            members = rng.sample(keys, rng.randint(2, 3))
            m.txn_update([(k, value(k)) for k in members])
    return mem


def scripted_memories(mem_cls):
    """(case name, memory) after each seeded script."""
    for name, size in LOG_CASES:
        for seed in range(2):
            yield (f"{name}/{size}/{seed}",
                   run_log_script(mem_cls, name, size, seed))
    for node_lines in NODE_LINES:
        for seed in range(3):
            yield f"map/{node_lines}/{seed}", run_map_script(
                mem_cls, node_lines, seed)


def test_recorder_sees_every_logged_write():
    # the recorder's per-line Store counts must equal the engine's write
    # counts, and its Flush and Fence counts the engine's clflushopt and
    # sfence counts, or its checks of a format's events see only part of
    # them (a fast path that bypasses clflushopt or sfence fails here)
    for case, mem in scripted_memories(RecordingMemory):
        seen = Counter(e.line for e in mem.trace if isinstance(e, Store))
        assert dict(seen) == mem.write_counts(), case
        kinds = Counter(type(e) for e in mem.trace)
        assert kinds[Flush] == mem.stats.clflushopt_count, case
        assert kinds[Fence] == mem.stats.sfence_count, case


def test_write_trace_is_pinned():
    # every line's events, in order, and the flush and fence counts of the
    # scripts above: any change to what a format stores, or to how a store
    # is cut into events, moves this digest
    digest = hashlib.sha256()
    for case, mem in scripted_memories(SimMemory):
        digest.update(case.encode())
        for line in sorted(mem.write_counts()):
            for ev in mem.events(line):
                digest.update(repr((line, ev.fence, ev.offset_in_line,
                                    ev.data, ev.ordering)).encode())
        digest.update(repr(mem.stats).encode())
    assert digest.hexdigest() == (
        "01f9146be805b21e1c3be027c78b7b755a659aa70e0f2696d7c38a0085070fb4")


def test_crash_images_are_pinned():
    # the images apply_crash builds after the scripts above for every
    # at-least-durable enumerated state, every boundary state and 20
    # samples, and each line's bytes when it alone is cut after each of its
    # units: any change to which bytes a cut persists, a torn run's first
    # chunks included, moves this digest
    digest = hashlib.sha256()
    for case, mem in scripted_memories(SimMemory):
        digest.update(case.encode())
        states = mem.enumerate_crash_states(at_least_durable=True)
        states += mem.boundary_crash_states()
        states += mem.sample_crash_states(20, seed=0)
        for state in states:
            digest.update(repr(state.cuts).encode())
            digest.update(mem.apply_crash(state).load(0, mem.capacity))
        full = sorted(mem.write_counts().items())
        for i, (line, count) in enumerate(full):
            for cut in range(count):
                state = CrashState((*full[:i], (line, cut), *full[i + 1:]))
                digest.update(mem.apply_crash(state).load(line * LINE_SIZE,
                                                          LINE_SIZE))
    assert digest.hexdigest() == (
        "6c7913301dfd80d3348d7ec89561f0fe9d343638cd707df4e385f52cc758e866")
