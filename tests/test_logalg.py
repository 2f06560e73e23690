"""Per-algorithm log tests: layouts, append/recover round trips, wrap-around
and polarity, trim, durability, and crash behavior of each validity scheme."""

import pytest
from hypothesis import given, settings, strategies as st

from nvlog.logalg import ALGORITHMS, make_log
from nvlog.logalg.base import (HEADER_BYTES, LogFullError, PayloadError,
                               TrimError, UnrecoverableLogError)
from nvlog.logalg import csovb, tornbit
from nvlog.logalg.atlas import ENTRY_BYTES
from nvlog.logalg.csorandom import RANDOM_VALUE, SENTINEL_VALUE
from nvlog.pmem import LINE_SIZE, SimMemory

ALL = sorted(ALGORITHMS)


def fresh(algo, payload_len=24, slots=8):
    log = ALGORITHMS[algo].fresh(payload_len, slots)
    return log.mem, log, log.size


def payloads(n, size=24):
    return [bytes([i + 1] * size) for i in range(n)]


# ------------------------------------------------------------------ round trip

@pytest.mark.parametrize("algo", ALL)
def test_append_recover_round_trip(algo):
    mem, log, region = fresh(algo)
    data = payloads(5)
    for p in data:
        log.append(p)
    recovered = ALGORITHMS[algo].attach(mem, 0, region, 24).recover()
    assert [e.payload for e in recovered] == data
    assert [e.rank for e in recovered] == list(range(5))


@pytest.mark.parametrize("algo", ALL)
def test_fresh_log_recovers_empty(algo):
    mem, log, region = fresh(algo)
    assert ALGORITHMS[algo].attach(mem, 0, region, 24).recover() == []


@pytest.mark.parametrize("algo", ALL)
def test_wrong_payload_length_rejected(algo):
    mem, log, _ = fresh(algo)
    with pytest.raises(PayloadError):
        log.append(b"short")


@pytest.mark.parametrize("algo", ALL)
def test_log_full_error(algo):
    mem, log, _ = fresh(algo, slots=4)
    with pytest.raises(LogFullError):
        for p in payloads(20):
            log.append(p)


@pytest.mark.parametrize("algo", ALL)
def test_wraparound_with_trim(algo):
    mem, log, region = fresh(algo, slots=4)
    seen = []
    handle = None
    for i in range(11):
        p = bytes([i + 1] * 24)
        if log.used + 2 > log.nslots:
            log.trim(handle)
            seen.clear()
        handle = log.append(p)
        seen.append(p)
        got = ALGORITHMS[algo].attach(mem, 0, region, 24).recover()
        assert [e.payload for e in got] == seen


@pytest.mark.parametrize("algo", ALL)
def test_trim_drops_prefix(algo):
    mem, log, region = fresh(algo)
    data = payloads(4)
    handles = [log.append(p) for p in data]
    log.trim(handles[1])
    got = ALGORITHMS[algo].attach(mem, 0, region, 24).recover()
    assert [e.payload for e in got] == data[2:]
    with pytest.raises(TrimError):
        log.trim(handles[0])


@pytest.mark.parametrize("algo", ALL)
def test_stale_entries_invalid_after_wrap(algo):
    # fill, drain, refill: slots from the previous pass must read invalid
    mem, log, region = fresh(algo, slots=4)
    handles = [log.append(p) for p in payloads(log.nslots)]
    log.trim(handles[-1])
    log.append(bytes([99] * 24))
    got = ALGORITHMS[algo].attach(mem, 0, region, 24).recover()
    assert [e.payload for e in got] == [bytes([99] * 24)]


@pytest.mark.parametrize("algo", ALL)
def test_corrupt_header_unrecoverable(algo):
    mem, log, region = fresh(algo)
    # atlas chains from the root pointer; the others read the head word
    off = 16 if algo == "atlas" else 0
    mem.store_word(off, (1 << 48) - 1)  # far beyond the region
    with pytest.raises(UnrecoverableLogError):
        ALGORITHMS[algo].attach(mem, 0, region, 24).recover()


@pytest.mark.parametrize("algo", sorted(set(ALL) - {"atlas", "two-rounds"}))
def test_single_roundtrip_per_append(algo):
    mem, log, _ = fresh(algo, slots=16)
    for p in payloads(8):
        before = mem.stats.fenced_roundtrips
        log.append(p)
        assert mem.stats.fenced_roundtrips - before == 1


def test_two_rounds_costs_two():
    mem, log, _ = fresh("two-rounds", slots=16)
    for p in payloads(8):
        before = mem.stats.fenced_roundtrips
        log.append(p)
        assert mem.stats.fenced_roundtrips - before == 2


# ------------------------------------------------------------------- geometry

@pytest.mark.parametrize("payload_len", (24, 56, 112, 240, 496))
@pytest.mark.parametrize("algo", ALL)
def test_geometry_matches_construction(algo, payload_len):
    cls = ALGORITHMS[algo]
    region = HEADER_BYTES + 16 * LINE_SIZE   # two slots of the largest entry
    try:
        built = cls(SimMemory(region), 0, region, payload_len)
    except PayloadError:
        with pytest.raises(PayloadError):
            cls.slot_bytes(payload_len)
        return
    assert cls.slot_bytes(payload_len) == built.slot_size
    for n in range(2, 18):
        size = cls.region_bytes(payload_len, n)
        assert size % LINE_SIZE == 0
        assert cls(SimMemory(size), 0, size, payload_len).nslots >= n
        exact = HEADER_BYTES + n * built.slot_size
        if exact % LINE_SIZE == 0:
            assert size == exact


# ------------------------------------------------------------- cso-vb layouts

def test_csovb_layout_24():
    lay = csovb.layout(24)
    assert lay.total_len == 32 and lay.metadata_slots == ((24, 8),)


def test_csovb_layout_56():
    lay = csovb.layout(56)
    assert lay.total_len == 64 and lay.metadata_slots == ((56, 8),)


def test_csovb_layout_112():
    lay = csovb.layout(112)
    assert lay.total_len == 128
    assert lay.metadata_slots == ((0, 8), (120, 8))


def test_csovb_rejects_three_lines():
    with pytest.raises(PayloadError):
        csovb.layout(240)


# ----------------------------------------------------------------- cso-random

def test_csorandom_fresh_area_is_r():
    mem, log, _ = fresh("cso-random", slots=4)
    for s in range(log.nslots):
        addr = log.slot_addr(s)
        for off in range(0, log.slot_size, 8):
            assert mem.load_word(addr + off) == RANDOM_VALUE


def test_csorandom_sentinel_payload_rejected():
    mem, log, _ = fresh("cso-random")
    bad = SENTINEL_VALUE.to_bytes(8, "little") * 3
    with pytest.raises(PayloadError):
        log.append(bad)


def test_csorandom_collision_takes_sentinel_path():
    mem, log, region = fresh("cso-random", payload_len=56, slots=8)
    # line-last payload word equals R: needs a sentinel successor slot
    colliding = bytes(48) + RANDOM_VALUE.to_bytes(8, "little")
    before = mem.stats.fenced_roundtrips
    h = log.append(colliding)
    assert mem.stats.fenced_roundtrips - before == 2  # entry + sentinel
    assert log.used == 2
    got = ALGORITHMS["cso-random"].attach(mem, 0, region, 56).recover()
    assert [e.payload for e in got] == [colliding]
    log.trim(h)
    assert log.used == 0


def test_csorandom_reinit_after_trim():
    mem, log, _ = fresh("cso-random", slots=4)
    h = log.append(payloads(1)[0])
    log.trim(h)
    if mem.pending_flushes:
        mem.sfence()
    addr = log.slot_addr(0)
    for off in range(0, log.slot_size, 8):
        assert mem.load_word(addr + off) == RANDOM_VALUE


def test_csorandom_init_flushes_batched():
    # formatting many slots must not fence per line
    cls = ALGORITHMS["cso-random"]
    region = HEADER_BYTES + 64 * 64
    mem = SimMemory(region)
    cls(mem, 0, region, 56)
    assert mem.stats.clflushopt_count > 32
    assert mem.stats.fenced_roundtrips <= 1


# ------------------------------------------------------------------ checksums

@pytest.mark.parametrize("algo", ["crc32", "crc64"])
def test_crc_epoch_wraps_within_head_word(algo):
    # the head word keeps a 15-bit epoch; entries must carry the same value
    mem, log, region = fresh(algo, slots=4)
    log.epoch = 0x7FFF
    handles = [log.append(p) for p in payloads(log.nslots)]
    log.trim(handles[-1])
    log.append(bytes([99] * 24))
    if mem.pending_flushes:
        mem.sfence()
    crashed = mem.apply_crash(mem.sample_crash_state(seed=0,
                                                     at_least_durable=True))
    got = ALGORITHMS[algo].attach(crashed, 0, region, 24).recover()
    assert [e.payload for e in got] == [bytes([99] * 24)]


# -------------------------------------------------------------------- tornbit

@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=72), st.integers(0, 1))
def test_tornbit_pack_unpack_round_trip(data, bit):
    words = tornbit.pack(data, bit)
    assert all(w >> 63 == bit for w in words)
    assert tornbit.unpack(words, len(data)) == data


def test_tornbit_63bit_payload_fits_one_word():
    words = tornbit.pack(b"\xff" * 7, 1)
    assert len(words) == 1


# ----------------------------------------------------------------------- atlas

def test_atlas_fixed_payload():
    with pytest.raises(PayloadError):
        fresh("atlas", payload_len=48)


def test_atlas_alternating_roundtrips():
    mem, log, _ = fresh("atlas", slots=8)
    costs = []
    for p in payloads(6):
        before = mem.stats.fenced_roundtrips
        log.append(p)
        costs.append(mem.stats.fenced_roundtrips - before)
    # 32-byte entries pair up in lines: cross-line then same-line links
    assert sum(costs) / len(costs) == 1.5
