"""Persistent hash map tests: append protocol, reuse FIFO, transactions,
round-trip costs, a stateful model check, and recovery replay."""

import random
from collections import deque

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from conftest import (Fence, Flush, RecordingMemory, Store,
                      WriteRefusingMemory)
from nvlog.pmem import RELAXED, SimMemory, WORD_SIZE
from nvlog.stps import (CapacityError, InvariantError, PersistentHashMap,
                        StpsError, pack_meta)


def fresh(slots=32, node_lines=1, two_round=False):
    region = slots * node_lines * 64
    mem = SimMemory(region)
    m = PersistentHashMap(mem, 0, region, node_lines=node_lines,
                          two_round_commit=two_round)
    return mem, m


def recovered_copy(mem, m):
    clone = mem.apply_crash(mem.sample_crash_state(rng=random.Random(0),
                                                   at_least_durable=True))
    r = PersistentHashMap(clone, 0, m.nslots * m.slot_size,
                          node_lines=m.node_lines)
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
    m = PersistentHashMap(mem, 0, region)
    m.update(b"k", b"v")
    before = len(mem.trace)
    m.get(b"k")
    m.get(b"missing")
    assert len(mem.trace) == before


def test_overwrite_enqueues_old_slot():
    mem, m = fresh()
    m.update(b"k", b"v1")
    old_slot = m._index[b"k"]
    m.update(b"k", b"v2")
    assert old_slot in m._reuse


def test_reuse_is_fifo():
    mem, m = fresh()
    for i in range(3):
        m.update(b"k%d" % i, b"v")
    data_slots = {i: m._index[b"k%d" % i] for i in range(3)}
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


def roundtrips(mem, op, *args):
    before = mem.stats.fenced_roundtrips
    op(*args)
    return mem.stats.fenced_roundtrips - before


def test_stated_roundtrip_costs():
    # an update or a present key's remove is one round trip, an absent
    # key's remove none; a transaction is one, plus one for each slot after
    # the first that it pops from the reuse FIFO
    mem, m = fresh()
    txn = [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
    assert roundtrips(mem, m.txn_update, txn) == 1
    assert roundtrips(mem, m.update, b"x", b"v") == 1
    assert roundtrips(mem, m.remove, b"x") == 1
    version = m._next_version
    assert roundtrips(mem, m.remove, b"x") == 0
    assert m._next_version == version   # and uses no version
    m.remove(b"a")
    assert len(m._reuse) == 3
    assert roundtrips(mem, m.txn_update, [(b"d", b"4"), (b"e", b"5"),
                                          (b"f", b"6")]) == 3
    assert roundtrips(mem, m.update, b"a", b"again") == 1


def test_two_round_variant_costs_two():
    mem, m = fresh(two_round=True)
    for i in range(4):
        before = mem.stats.fenced_roundtrips
        m.update(b"key%d" % i, b"value")
        assert mem.stats.fenced_roundtrips - before == 2


def test_capacity_errors():
    mem, m = fresh(slots=4)
    with pytest.raises(StpsError):
        m.update(b"", b"v")
    with pytest.raises(CapacityError):
        m.update(b"k", b"v" * 64)
    for i in range(4):
        m.update(b"key%d" % i, b"v")
    with pytest.raises(CapacityError):
        m.update(b"one-too-many", b"v")


def test_txn_beyond_capacity_stores_nothing():
    mem, m = fresh(slots=4)
    m.update(b"a", b"1")
    with pytest.raises(CapacityError):
        m.txn_update([(b"k%d" % i, b"v") for i in range(5)])
    assert m.items() == {b"a": b"1"}
    assert not mem.pending_flushes
    assert recovered_copy(mem, m).items() == {b"a": b"1"}
    m.txn_update([(b"b", b"2"), (b"c", b"3"), (b"d", b"4")])
    assert recovered_copy(mem, m).items() == {
        b"a": b"1", b"b": b"2", b"c": b"3", b"d": b"4"}


def test_txn_naming_a_key_twice_stores_nothing():
    # a transaction's members share one version, so recovery could not tell
    # which of two values of one key came last: the map refuses it
    mem, m = fresh()
    m.update(b"a", b"1")
    m.update(b"b", b"1")
    m.remove(b"a")
    m.update(b"b", b"2")
    writes, fences = mem.write_counts(), mem.stats.sfence_count
    reuse, version = list(m._reuse), m._next_version
    with pytest.raises(StpsError, match="b'z' twice"):
        m.txn_update([(b"z", b"1"), (b"z", b"2")])
    assert mem.write_counts() == writes and mem.stats.sfence_count == fences
    assert list(m._reuse) == reuse and m._next_version == version
    assert recovered_copy(mem, m).items() == m.items() == {b"b": b"2"}


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
        raw = mem.load(m.slot_addr(slot), m.slot_size)
        assert m._slot_bit(raw) is not None


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
    live = {r._index[b"k"]}
    for slot in range(r.nslots):
        if slot in live:
            continue
        assert r.mem.load_word(r.slot_addr(slot)) == 0
    # reinitialized slots are immediately reusable
    assert len(r._reuse) == r.nslots - 1


class LoadCountingMemory(SimMemory):
    """Counts `load` and `load_word` calls (a `load_word` also counts the
    `load` it makes)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.loads = self.load_words = 0

    def load(self, addr, size):
        self.loads += 1
        return super().load(addr, size)

    def load_word(self, addr):
        self.load_words += 1
        return super().load_word(addr)


@pytest.mark.parametrize("node_lines", [1, 2, 4])
def test_recovery_and_parse_read_each_once(node_lines):
    region = 16 * node_lines * 64
    mem = LoadCountingMemory(region)
    m = PersistentHashMap(mem, 0, region, node_lines=node_lines)
    for i in range(10):
        m.update(b"k%d" % (i % 4), b"v" * (i * 7 % m.capacity))
    m.txn_update([(b"t1", b"x"), (b"t2", b"y")])
    m.remove(b"k1")
    mem.loads = mem.load_words = 0
    r = PersistentHashMap(mem, 0, region, node_lines=node_lines).recover()
    assert (mem.loads, mem.load_words) == (1, 0)
    mem.loads = 0
    for slot in range(r.nslots):
        r.parse_entry(slot)
    assert (mem.loads, mem.load_words) == (r.nslots, 0)


@pytest.mark.parametrize("node_lines", [1, 2, 4])
def test_map_ops_read_only_the_slots_they_use(node_lines):
    # a hit reads its slot once, a miss nothing; an update or a present
    # key's remove reads only the slot `append_entry` overwrites
    region = 64 * node_lines * 64
    mem = LoadCountingMemory(region)
    m = PersistentHashMap(mem, 0, region, node_lines=node_lines)
    keys = [b"k%d" % i for i in range(20)]
    for k in keys:
        m.update(k, b"v")

    def loads(op, *args):
        mem.loads = mem.load_words = 0
        op(*args)
        return mem.loads, mem.load_words

    for k in keys:
        assert loads(m.get, k) == (1, 0)
        assert loads(m.get, k + b"?") == (0, 0)
        assert loads(m.update, k, b"w") == (1, 0)
    assert loads(m.items) == (len(keys), 0)
    for k in keys:
        assert loads(m.remove, k) == (1, 0)
        assert loads(m.remove, k) == (0, 0)


def test_recovery_resets_dead_slot_with_only_a_later_validity_byte():
    region = 4 * 4 * 64
    mem = RecordingMemory(region)
    m = PersistentHashMap(mem, 0, region, node_lines=4)
    bit_addr = m.slot_addr(2) + 3 * 64 + 63  # line 3's validity byte
    mem.store(bit_addr, b"\x01")
    mem.clflushopt(mem.line_of(bit_addr))
    mem.sfence()
    mark = len(mem.trace)
    m.recover()
    assert mem.load(bit_addr, 1) == b"\0"
    first = mem.line_of(m.slot_addr(2))
    assert mem.trace[mark:] == [
        Store(mem.line_of(bit_addr), 63, b"\0", RELAXED),
        *(Flush(first + i, 2 if i == 3 else 0) for i in range(4)),
        Fence()]
    assert list(m._reuse) == [0, 1, 2, 3]


@pytest.mark.parametrize("node_lines", [1, 4])
def test_recovery_resets_only_written_dead_slots(node_lines):
    # a, b, c take slots 0-2 and the tombstone for b slot 3; slots 4-7
    # were never written, so recovery stores nothing there but still
    # queues them for reuse in slot order
    region = 8 * node_lines * 64
    mem = RecordingMemory(region)
    m = PersistentHashMap(mem, 0, region, node_lines=node_lines)
    for key in (b"a", b"b", b"c"):
        m.update(key, b"v")
    m.remove(b"b")
    mark = len(mem.trace)
    r = PersistentHashMap(mem, 0, region, node_lines=node_lines).recover()
    assert r.items() == {b"a": b"v", b"c": b"v"}
    assert list(r._reuse) == [1, 3, 4, 5, 6, 7]
    stored = {e.line // node_lines for e in mem.trace[mark:]
              if isinstance(e, Store)}
    assert stored == {1, 3}
    assert mem.trace[-1] == Fence()


def parent_recover(self):
    """`PersistentHashMap.recover` as one method, before it was split into
    `scan` and `repair`: the reference for what recovery writes."""
    mem = self.mem
    size = self.slot_size
    region = mem.load(self.base, self.nslots * size)
    raws = [region[off:off + size] for off in range(0, len(region), size)]
    zero = bytes(size)
    parsed = {}
    for slot, raw in enumerate(raws):
        if raw != zero:
            e = self._decode(raw)
            if e is not None:
                parsed[slot] = e
    by_version = {}
    for slot, e in parsed.items():
        by_version.setdefault(e.version, []).append(slot)
    committed = []
    for version in sorted(by_version):
        slots = by_version[version]
        if all(parsed[s].txncount == len(slots) for s in slots):
            committed.extend(sorted(slots))
    live = {}
    max_version = 0
    for slot in committed:
        e = parsed[slot]
        max_version = max(max_version, e.version)
        if e.tombstone:
            live.pop(e.key, None)
        else:
            live[e.key] = slot
    self._index = live
    live_slots = set(live.values())
    self._reuse = deque()
    touched = False
    for slot, raw in enumerate(raws):
        if slot in live_slots:
            continue
        self._reuse.append(slot)
        if raw == zero:
            continue
        addr = self.slot_addr(slot)
        dirty = False
        if any(raw[:WORD_SIZE]):
            mem.store_word(addr, 0)
            dirty = True
        for off in self._bit_offs:
            if raw[off]:
                mem.store(addr + off, b"\0")
                dirty = True
        if dirty:
            mem.flush_range(addr, size)
            touched = True
    if touched:
        mem.sfence()
    self._bump = self.nslots
    self._next_version = max_version + 1
    return self


def crash_images(node_lines: int, seed: int):
    """Persisted and sampled crash images of a map run through updates
    (short and node-filling), removes and transactions over reused slots."""
    rng = random.Random(seed)
    mem, m = fresh(slots=6, node_lines=node_lines)
    keys = [b"a", b"b", b"c", b"K" * m.max_key]
    for _ in range(14):
        key, op = rng.choice(keys), rng.random()
        try:
            if op < 0.5:
                m.update(key, rng.randbytes(
                    rng.randint(0, m.capacity - len(key))))
            elif op < 0.8:
                m.remove(key)
            else:
                m.txn_update([(k, rng.randbytes(3))
                              for k in rng.sample(keys[:3], 2)])
        except CapacityError:
            pass
        for state in mem.sample_crash_states(6, seed=rng.randrange(1 << 30)):
            yield bytes(mem.apply_crash(state).cached)
        yield mem.persisted_image()


def volatile(m) -> dict:
    return {k: v for k, v in vars(m).items() if k != "mem"}


@pytest.mark.parametrize("node_lines", [1, 2, 4])
def test_scan_writes_nothing_and_rebuilds_what_recover_does(node_lines):
    images = 0
    for image in crash_images(node_lines, node_lines):
        size = len(image)
        scanned = PersistentHashMap(
            WriteRefusingMemory._from_image(bytearray(image)), 0, size,
            node_lines=node_lines)
        scanned.scan()
        recovered = PersistentHashMap(
            SimMemory._from_image(bytearray(image)), 0, size,
            node_lines=node_lines).recover()
        assert scanned.items() == recovered.items()
        assert volatile(scanned) == volatile(recovered)
        images += 1
    assert images > 50


@pytest.mark.parametrize("node_lines", [1, 2, 4])
def test_recover_writes_what_the_one_method_recovery_wrote(node_lines):
    fenced = 0
    for image in crash_images(node_lines, 10 + node_lines):
        size = len(image)
        mems = [SimMemory._from_image(bytearray(image)) for _ in range(2)]
        maps = [PersistentHashMap(mem, 0, size, node_lines=node_lines)
                for mem in mems]
        assert maps[0].recover() is maps[0]
        assert parent_recover(maps[1]) is maps[1]
        got, want = mems
        assert got._writes == want._writes and got._floors == want._floors
        assert got._raises == want._raises and got._pending == want._pending
        assert repr(got.stats) == repr(want.stats)
        assert got.cached == want.cached
        assert volatile(maps[0]) == volatile(maps[1])
        fenced += got.stats.sfence_count
    assert fenced > 10


def test_recovered_map_usable_for_more_updates():
    mem, m = fresh()
    m.update(b"a", b"1")
    r = recovered_copy(mem, m)
    r.update(b"b", b"2")
    r.remove(b"a")
    assert r.items() == {b"b": b"2"}
    rr = recovered_copy(r.mem, r)
    assert rr.items() == {b"b": b"2"}


@pytest.mark.parametrize("seed", range(6))
def test_live_index_equals_recovered_index(seed):
    # after every update or remove, recovering the persisted image rebuilds
    # exactly the live index.  Transactions are left out: recovery can still
    # drop a committed transaction once one member's slot is reused.
    rng = random.Random(seed)
    for node_lines in (1, 2, 4):
        for two_round in (False, True):
            mem, m = fresh(slots=rng.randint(4, 16), node_lines=node_lines,
                           two_round=two_round)
            keys = [b"a", b"b", b"c", b"d", b"e", b"K" * m.max_key]
            for _ in range(40):
                key = rng.choice(keys)
                try:
                    if rng.random() < 0.7:
                        m.update(key, rng.randbytes(
                            rng.randint(0, m.capacity - len(key))))
                    else:
                        m.remove(key)
                except CapacityError:
                    pass
                image = bytearray(mem.persisted_image())
                r = PersistentHashMap(SimMemory._from_image(image), 0,
                                      m.nslots * m.slot_size,
                                      node_lines=node_lines).recover()
                assert r._index == m._index
                assert r.items() == m.items()


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
    slot = m._index[b"b"]
    mem.store_word(m.slot_addr(slot), 0)
    mem.flush_range(m.slot_addr(slot), 64)
    mem.sfence()
    r = recovered_copy(mem, m)
    assert r.items() == {}


def test_txn_defers_reuse_until_commit():
    mem, m = fresh()
    m.update(b"a", b"old")
    old_slot = m._index[b"a"]
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


# ------------------------------------------------------------- stateful model

VALUES = st.binary(max_size=40)


class LiveMap(RuleBasedStateMachine):
    """Updates, removes, transactions and reads on a live map (no crash),
    checked against a dict model.  Each op's fenced round trips must match
    the stated cost, with the reuse FIFO's length modelled alongside."""

    @initialize(node_lines=st.sampled_from([1, 2]), two_round=st.booleans())
    def build(self, node_lines, two_round):
        self.mem, self.m = fresh(node_lines=node_lines, two_round=two_round)
        self.two_round = two_round
        self.keys = [b"a", b"b", b"c", b"d"]
        if node_lines > 1:
            self.keys.append(b"K" * 60)   # key bytes reach line 1
        self.model = {}
        self.reusable = 0

    def write(self, members, op, *args):
        """Apply `members` ((key, value or None)) to the model, run `op`,
        and check the round trips it took."""
        written = reused = 0
        freed = 0
        for key, value in members:
            present = key in self.model
            if value is None and not present:
                continue
            written += 1
            if self.reusable:
                self.reusable -= 1
                reused += 1
            if value is None:
                del self.model[key]
                freed += 2
            else:
                self.model[key] = value
                freed += present
        self.reusable += freed
        if self.two_round:
            want = 2 * written
        else:
            want = 1 + max(0, reused - 1) if written else 0
        assert roundtrips(self.mem, op, *args) == want

    @rule(i=st.integers(0, 4), value=VALUES)
    def update(self, i, value):
        key = self.keys[i % len(self.keys)]
        self.write([(key, value)], self.m.update, key, value)

    @rule(i=st.integers(0, 4))
    def remove(self, i):
        key = self.keys[i % len(self.keys)]
        self.write([(key, None)], self.m.remove, key)

    @rule(members=st.lists(st.tuples(st.integers(0, 4), VALUES),
                           min_size=1, max_size=4))
    def txn(self, members):
        pairs = [(self.keys[i % len(self.keys)], v) for i, v in members]
        if len({key for key, _ in pairs}) < len(pairs):
            # a key named twice is refused before anything is stored
            mem = self.mem
            writes, fences = mem.write_counts(), mem.stats.sfence_count
            with pytest.raises(StpsError, match="twice"):
                self.m.txn_update(pairs)
            assert mem.write_counts() == writes
            assert mem.stats.sfence_count == fences
            return
        self.write(pairs, self.m.txn_update, pairs)

    @rule(i=st.integers(0, 4))
    def get(self, i):
        key = self.keys[i % len(self.keys)]
        assert self.m.get(key) == self.model.get(key)

    @invariant()
    def items_match(self):
        assert self.m.items() == self.model


LiveMap.TestCase.settings = settings(max_examples=40, stateful_step_count=25,
                                     deadline=None)
TestLiveMap = LiveMap.TestCase
