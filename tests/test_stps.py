"""Persistent hash map tests: append protocol, reuse FIFO, transactions,
and recovery replay."""

import pytest

from conftest import RecordingMemory
from nvlog.pmem import SimMemory
from nvlog.stps import (CapacityError, InvariantError, PersistentHashMap,
                        StpsError, pack_meta)


def fresh(slots=32, node_lines=1, nbuckets=16, two_round=False):
    region = slots * node_lines * 64
    mem = SimMemory(region)
    m = PersistentHashMap(mem, 0, region, node_lines=node_lines,
                          nbuckets=nbuckets, two_round_commit=two_round)
    return mem, m


def recovered_copy(mem, m):
    clone = mem.apply_crash(mem.sample_crash_state(seed=0,
                                                   at_least_durable=True))
    r = PersistentHashMap(clone, 0, m.nslots * m.slot_size,
                          node_lines=m.node_lines, nbuckets=m.nbuckets)
    r.recover()
    return r


# ---------------------------------------------------------------------- basics

def test_update_get_remove():
    mem, m = fresh()
    assert m.get(b"k") is None
    m.update(b"k", b"v1")
    assert m.get(b"k") == b"v1"
    m.update(b"k", b"v2")
    assert m.get(b"k") == b"v2"
    m.remove(b"k")
    assert m.get(b"k") is None
    m.remove(b"k")  # absent key is a no-op
    assert m.items() == {}


def test_get_touches_no_memory():
    region = 32 * 64
    mem = RecordingMemory(region)
    m = PersistentHashMap(mem, 0, region, nbuckets=16)
    m.update(b"k", b"v")
    before = len(mem.trace)
    m.get(b"k")
    m.get(b"missing")
    assert len(mem.trace) == before


def test_overwrite_enqueues_old_slot():
    mem, m = fresh()
    m.update(b"k", b"v1")
    old_slot = m._find(b"k")[2]
    m.update(b"k", b"v2")
    assert old_slot in m._reuse


def test_reuse_is_fifo():
    mem, m = fresh()
    for i in range(3):
        m.update(b"k%d" % i, b"v")
    data_slots = {i: m._find(b"k%d" % i)[2] for i in range(3)}
    for i in range(3):
        before = list(m._reuse)
        m.remove(b"k%d" % i)
        after = list(m._reuse)
        # remove allocates its tombstone from the queue head (if any), then
        # enqueues the data slot followed by the tombstone slot
        assert after[-2] == data_slots[i]
        if before:
            assert after[:len(before) - 1] == before[1:]
    queued = list(m._reuse)
    assert [m._alloc() for _ in range(len(queued))] == queued


def test_single_roundtrip_per_update():
    mem, m = fresh()
    for i in range(8):
        before = mem.stats.fenced_roundtrips
        m.update(b"key%d" % i, b"value")
        assert mem.stats.fenced_roundtrips - before == 1


def test_two_round_variant_costs_two():
    mem, m = fresh(two_round=True)
    for i in range(4):
        before = mem.stats.fenced_roundtrips
        m.update(b"key%d" % i, b"value")
        assert mem.stats.fenced_roundtrips - before == 2


def test_capacity_errors():
    mem, m = fresh(slots=4, nbuckets=4)
    with pytest.raises(StpsError):
        m.update(b"", b"v")
    with pytest.raises(CapacityError):
        m.update(b"k", b"v" * 64)
    for i in range(4):
        m.update(b"key%d" % i, b"v")
    with pytest.raises(CapacityError):
        m.update(b"one-too-many", b"v")


def test_append_precondition_enforced():
    mem, m = fresh()
    mem.store_word(0, pack_meta(1, 0, 1, 5))  # bits disagree
    with pytest.raises(InvariantError):
        m.append_entry(0, b"k", b"v", 6, 1)


# ------------------------------------------------------------------ validity

def test_quiescent_bits_all_equal():
    mem, m = fresh(node_lines=2)
    for i in range(6):
        m.update(b"key%d" % i, b"x" * 70)
    for slot in range(m.nslots):
        _, bits = m._read_bits(slot)
        assert len(set(bits)) == 1


def test_multiline_entries_round_trip():
    mem, m = fresh(slots=16, node_lines=4)
    long_key = b"K" * 100
    big_value = b"V" * 120
    m.update(long_key, big_value)
    m.update(b"small", b"v")
    r = recovered_copy(mem, m)
    assert r.items() == {long_key: big_value, b"small": b"v"}


def test_version_monotone_and_recovered():
    mem, m = fresh()
    for i in range(5):
        m.update(b"k", b"v%d" % i)
    r = recovered_copy(mem, m)
    assert r._next_version == m._next_version


# -------------------------------------------------------------------- recovery

def test_empty_region_recovers_empty():
    mem, m = fresh()
    r = recovered_copy(mem, m)
    assert r.items() == {}
    assert len(r._reuse) == r.nslots


def test_recovery_replays_in_version_order():
    mem, m = fresh()
    m.update(b"a", b"1")
    m.update(b"b", b"2")
    m.update(b"a", b"3")
    m.remove(b"b")
    r = recovered_copy(mem, m)
    assert r.items() == {b"a": b"3"}


def test_recovery_reinitializes_dead_slots():
    mem, m = fresh()
    for i in range(4):
        m.update(b"k", b"v%d" % i)  # supersedes itself repeatedly
    r = recovered_copy(mem, m)
    live = set(r._find(b"k")[2:])
    for slot in range(r.nslots):
        if slot in live:
            continue
        assert r.mem.load_word(r.slot_addr(slot)) == 0
    # reinitialized slots are immediately reusable
    assert len(r._reuse) == r.nslots - 1


def test_recovered_map_usable_for_more_updates():
    mem, m = fresh()
    m.update(b"a", b"1")
    r = recovered_copy(mem, m)
    r.update(b"b", b"2")
    r.remove(b"a")
    assert r.items() == {b"b": b"2"}
    rr = recovered_copy(r.mem, r)
    assert rr.items() == {b"b": b"2"}


# ---------------------------------------------------------------- transactions

def test_txn_bounds():
    mem, m = fresh()
    with pytest.raises(StpsError):
        m.txn_update([])
    with pytest.raises(StpsError):
        m.txn_update([(b"k%d" % i, b"v") for i in range(256)])


def test_txn_all_visible_after_fence():
    mem, m = fresh()
    m.txn_update([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
    r = recovered_copy(mem, m)
    assert r.items() == {b"a": b"1", b"b": b"2", b"c": b"3"}


def test_txn_partial_group_discarded():
    mem, m = fresh()
    m.txn_update([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
    # forge a partial group: invalidate one member before recovery
    slot = m._find(b"b")[2]
    mem.store_word(m.slot_addr(slot), 0)
    mem.flush_range(m.slot_addr(slot), 64)
    mem.sfence()
    r = recovered_copy(mem, m)
    assert r.items() == {}


def test_txn_defers_reuse_until_commit():
    mem, m = fresh()
    m.update(b"a", b"old")
    old_slot = m._find(b"a")[2]
    reused_during = []
    original = m._alloc

    def spy():
        s = original()
        reused_during.append(s)
        return s

    m._alloc = spy
    m.txn_update([(b"a", b"new"), (b"b", b"2")])
    m._alloc = original
    assert old_slot not in reused_during
    assert old_slot in m._reuse
