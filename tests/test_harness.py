"""Harness tests: script parsing, crash suites catching real bugs, round-trip
audits, the append loop's history bound, and the checksum route's verdicts
on torn payloads that a 32-bit CRC cannot see."""

import functools
import importlib.util
import itertools
import operator
import random
from collections import Counter
from pathlib import Path

import pytest

import nvlog
from conftest import WriteRefusingMemory, widened
from nvlog import harness
from nvlog.crc import crc32c, crc_term
from nvlog.harness import (BrokenVbLog, EXTRA_ALGORITHMS, Script, ScriptError,
                           Violation, _LogTarget, _ReadPaths, _StpsTarget,
                           audit_roundtrips, parse_script, run_appends,
                           run_crash_suite)
from nvlog.logalg import ALGORITHMS
from nvlog.logalg.base import TrimError, UnrecoverableLogError
from nvlog.logalg.crclog import Crc64Log
from nvlog.logalg.csorandom import CsoRandomLog
from nvlog.logalg.csovb import CsoVbLog
from nvlog.pmem import EnumerationLimitError, SimMemory
from nvlog.stps import PersistentHashMap

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = Path(nvlog.__file__).parent / "workloads"

THREE_APPENDS = """
seed 1
crash exhaustive
append 101112131415161718191a1b1c1d1e1f2021222324252627
append 202122232425262728292a2b2c2d2e2f3031323334353637
append 303132333435363738393a3b3c3d3e3f4041424344454647
trim
"""

# bytes 1..112 with word 6 set to a value whose crc32c term, at that word of
# the crc32 log's framing (seq 0, length 112), is zero: the slot's checksum
# cannot see the word torn, so one torn state of its append is valid
CRAFTED_112 = (bytes(range(1, 49)) + (0x105EC76F1).to_bytes(8, "little")
               + bytes(range(57, 113)))

MAP_SCRIPT = """
crash exhaustive
U alpha one
U beta two
U alpha three
R beta
T gamma g delta d
G alpha
"""


# --------------------------------------------------------------------- parsing

def test_parse_directives_and_ops():
    s = parse_script(THREE_APPENDS)
    assert s.seed == 1 and s.mode == "exhaustive"
    assert [op[0] for op in s.ops] == ["append"] * 3 + ["trim"]
    assert s.kind == "log"
    assert parse_script(MAP_SCRIPT).kind == "stps"


def test_parse_errors():
    with pytest.raises(ScriptError):
        parse_script("explode now")
    with pytest.raises(ScriptError):
        parse_script("append nothex!")
    with pytest.raises(ScriptError):
        parse_script("T odd")
    with pytest.raises(ScriptError):
        parse_script("crash sideways")


def test_parse_rejects_negative_trim():
    with pytest.raises(ScriptError, match="negative trim count -1"):
        parse_script("append " + "00" * 24 + "\ntrim -1")


@pytest.mark.parametrize("directive, why", [
    ("at-op 1", "crash at-op 1: no such op in a 1-op script"),
    ("at-op -1", "crash at-op -1: no such op in a 1-op script"),
    ("sampled -5", "sample count -5 is not positive"),
    ("sampled 0", "sample count 0 is not positive"),
    ("exhaustive 5", "unexpected argument '5'"),
    ("sampled 50 extra", "unexpected argument 'extra'"),
    ("at-op 0 1", "unexpected argument '1'"),
], ids=["past-the-end", "negative-op", "negative-samples", "zero-samples",
        "exhaustive-argument", "sampled-extra", "at-op-extra"])
def test_parse_rejects_crash_directives_that_check_nothing(directive, why):
    with pytest.raises(ScriptError, match=why):
        parse_script(f"crash {directive}\nU a 1\n")


@pytest.mark.parametrize("line", [
    "U a 1 2", "R a extra", "G a extra", "append 00112233 extra", "trim 1 2",
    "seed 1 2"])
def test_parse_rejects_extra_tokens(line):
    with pytest.raises(ScriptError, match="unexpected argument"):
        parse_script(line)


def test_parse_has_no_append_alias():
    with pytest.raises(ScriptError, match="unknown op 'A'"):
        parse_script("A 00112233")


def test_crash_directive_defaults():
    # `sampled` draws 10000 samples (beside the boundary states), `at-op`
    # checks op 0
    assert run_crash_suite("crash sampled\nU a 1\n").states_checked > 10000
    assert run_crash_suite("crash at-op\nU a 1\n").distinct_states > 0


def test_parse_rejects_trim_of_nothing():
    # `trim` alone drops every live entry; `trim 0` must not mean the same
    assert parse_script("trim\ntrim 2").ops == [("trim", None), ("trim", 2)]
    with pytest.raises(ScriptError, match="trim count 0 is not positive"):
        parse_script("append " + "00" * 24 + "\ntrim 0\ntrim 1")


def test_trim_past_the_live_entries():
    with pytest.raises(TrimError, match="trim 5: only 1 live entries"):
        run_crash_suite("append " + "00" * 24 + "\ntrim 5")


@pytest.mark.parametrize("text", ["U a b\nappend 00112233",
                                  "append 00112233\ntrim\nG a"])
def test_parse_rejects_mixed_log_and_map_ops(text):
    with pytest.raises(ScriptError, match="log and map operations"):
        parse_script(text)


def test_read_mismatch_raises_script_error(monkeypatch):
    monkeypatch.setattr(PersistentHashMap, "get", lambda self, key: b"wrong")
    with pytest.raises(ScriptError, match="got b'wrong'"):
        run_crash_suite(MAP_SCRIPT)


def test_empty_script_is_legal():
    s = parse_script("# only a comment\n")
    assert s.ops == []
    assert run_crash_suite(s).ok


# ---------------------------------------------------------------- crash suites

@pytest.mark.parametrize("algo", sorted(set(EXTRA_ALGORITHMS) - {"broken-vb"}))
def test_exhaustive_suite_clean(algo):
    report = run_crash_suite(THREE_APPENDS, algo=algo,
                             registry=EXTRA_ALGORITHMS)
    assert report.ok
    assert report.distinct_states > 10


def test_broken_variant_caught():
    report = run_crash_suite(THREE_APPENDS, algo="broken-vb",
                             registry=EXTRA_ALGORITHMS)
    assert not report.ok
    v = report.violations[0]
    assert v.recovered not in ([], list(v.legal))


class DropNewestLog(CsoVbLog):
    """A cso-vb log whose recovery loses its newest entry."""

    name = "drop-newest"

    def recover(self):
        return super().recover()[:-1]


SIX_APPENDS = "\n".join(f"append {payload.hex()}" for payload
                        in map(random.Random(0).randbytes, [48] * 6))


@pytest.mark.parametrize("mode, want", [
    ("exhaustive", 35), ("sampled 2000", 19), ("sampled 30", 11),
    *((f"at-op {i}", 7 if i else 0) for i in range(6))])
def test_a_log_that_drops_its_newest_entry_is_caught(mode, want):
    # a state recovers one entry short: legal once op j's append persisted
    # whole, a violation while it is torn, unless the log before op j was
    # empty (op 0); pins the power of each mode, sampled ones included
    report = run_crash_suite(f"crash {mode}\n{SIX_APPENDS}",
                             algo="drop-newest", payload_len=48,
                             registry={DropNewestLog.name: DropNewestLog})
    assert len(report.violations) == want
    assert all(v.recovered == v.legal[0][:-1] for v in report.violations)


def test_sampled_suite_with_wrap():
    script = "crash sampled 1500\n" + "".join(
        f"append {bytes([i] * 24).hex()}\n" for i in range(1, 5)) + \
        "trim\n" + "".join(
        f"append {bytes([i] * 24).hex()}\n" for i in range(5, 8))
    for algo in ("cso-vb", "crc64", "atlas"):
        assert run_crash_suite(script, algo=algo, slots=4).ok


def test_sampled_violations_carry_their_op():
    # broken-vb tears each of the three appends three ways; sampling finds
    # the same images as enumeration and blames the op that wrote them
    appends = THREE_APPENDS.replace("trim\n", "")
    for mode in ("exhaustive", "sampled 300"):
        report = run_crash_suite(appends.replace("exhaustive", mode),
                                 algo="broken-vb", registry=EXTRA_ALGORITHMS)
        assert Counter(v.op_index for v in report.violations) == {
            0: 3, 1: 3, 2: 3}, mode


def test_txn_reuse_loss_violations_hold_pre_and_post():
    # the known stps transaction loss (ROADMAP item 2); nvbench unpacks
    # each violation's legal states as the op's (pre, post) pair
    report = run_crash_suite("crash exhaustive\nT a 2 b 2\nU a 3\nU c 4\n"
                             "U d 5\n")
    assert len(report.violations) == 9
    for v in report.violations:
        pre, post = v.legal
        assert isinstance(pre, dict) and isinstance(post, dict)


class NoFence:
    """Mixed into a log: its append flushes the slot but issues no fence."""

    def append(self, payload):
        self.mem.sfence = lambda: None   # shadows the method for this call
        try:
            return super().append(payload)
        finally:
            del self.mem.sfence


class NoFenceVbLog(NoFence, CsoVbLog):
    name = "cso-vb-no-fence"


@pytest.mark.parametrize("algo, violations", [("cso-vb", 0),
                                               (NoFenceVbLog.name, 64)])
def test_an_image_recovers_to_a_boundary_of_its_own_op(algo, violations):
    # with no fence the two appends share one window; an image that holds
    # the second entry but lost the first must not pass as the boundary
    # before the first append
    script = "crash exhaustive\n" + "".join(
        f"append {bytes([b] * 56).hex()}\n" for b in (1, 2))
    registry = {**ALGORITHMS, NoFenceVbLog.name: NoFenceVbLog}
    report = run_crash_suite(script, algo=algo, payload_len=56, slots=2,
                             registry=registry)
    assert report.distinct_states
    assert len(report.violations) == violations
    assert all(len(v.legal) == 2 for v in report.violations)


def random_log_script(rng: random.Random, payload_len: int,
                      slots: int) -> str:
    """Appends and trims that fill a tiny log, empty it and wrap it."""
    ops, live = [rng.choice(["crash exhaustive", "crash sampled 300"])], 0
    for _ in range(rng.randint(2, 9)):
        if live and (live == slots or rng.random() < 0.35):
            n = rng.randint(1, live)
            ops.append(f"trim {n}")
            live -= n
        else:
            ops.append(f"append {rng.randbytes(payload_len).hex()}")
            live += 1
    return "\n".join(ops)


@pytest.mark.parametrize("algo", sorted(set(EXTRA_ALGORITHMS) - {"broken-vb"}))
def test_random_scripts_on_tiny_logs(algo):
    # 2-5 slot logs reach a full region, full and partial trims of it, and
    # appends over freshly trimmed slots within a few operations
    rng = random.Random(algo)
    for _ in range(12):
        size = 24 if algo == "atlas" else rng.choice([24, 56, 112])
        slots = rng.randint(2, 5)
        script = random_log_script(rng, size, slots)
        report = run_crash_suite(script, algo=algo, payload_len=size,
                                 slots=slots)
        assert report.ok, script


# (distinct crash states, violations) of the shipped scripts at 24 B, per
# algorithm: (three_appends, wraparound)
SHIPPED_LOG_VERDICTS = {
    "atlas": ((20, 0), (26, 0)),
    "broken-vb": ((17, 9), (23, 16)),
    "crc32": ((20, 0), (20, 0)),
    "crc64": ((20, 0), (20, 0)),
    "cso-fvb": ((17, 0), (23, 0)),
    "cso-random": ((19, 0), (42, 0)),
    "cso-vb": ((17, 0), (23, 0)),
    "tornbit": ((17, 0), (23, 0)),
    "two-rounds": ((17, 0), (23, 0)),
}


SHIPPED_VERDICTS = [
    *[pytest.param(name, algo, False, verdicts[i], id=f"{name}-{algo}")
      for algo, verdicts in SHIPPED_LOG_VERDICTS.items()
      for i, name in enumerate(("three_appends", "wraparound"))],
    *[pytest.param("map_smoke", lines, False, want, id=f"map_smoke-{lines}")
      for lines, want in ((1, (48, 0)), (2, (144, 0)), (4, (1770, 0)))],
    # cso-random's trims leave their refills unfenced, so each trim's
    # window runs on into the next append
    pytest.param("wraparound", "cso-random", True, (66, 0),
                 id="wraparound-cso-random-exhaustive"),
]


@pytest.mark.parametrize("name, target, exhaustive, want", SHIPPED_VERDICTS)
def test_shipped_script_verdicts(name, target, exhaustive, want):
    script = parse_script((WORKLOADS / f"{name}.txt").read_text())
    if exhaustive:
        script.mode = "exhaustive"
    if isinstance(target, int):
        report = run_crash_suite(script, node_lines=target)
    else:
        report = run_crash_suite(script, algo=target,
                                 registry=EXTRA_ALGORITHMS)
    assert (report.distinct_states, len(report.violations)) == want
    # each violation names the boundaries before and after its op
    assert all(len(v.legal) == 2 for v in report.violations)


def test_every_shipped_script_is_pinned():
    pinned = {case.values[0] for case in SHIPPED_VERDICTS}
    assert pinned == {path.stem for path in WORKLOADS.glob("*.txt")}


def judged_states(monkeypatch, seen) -> None:
    """Call `seen(reads, cuts, recovered)` for every state a suite judges
    from here on: each member of a class (`_ReadPaths.classes`), whose
    size must be the number of its members."""
    classes = _ReadPaths.classes

    def classed(reads, listed=None):
        for got, size, members in classes(reads, listed):
            vectors = members()
            assert len(vectors) == size
            for cuts in vectors:
                seen(reads, cuts, got)
            yield got, size, members

    monkeypatch.setattr(_ReadPaths, "classes", classed)


PARTITION_CASES = [
    *[pytest.param(name, algo, size, id=f"{name}-{algo}-{size}")
      for name in ("three_appends", "wraparound")
      for algo in sorted(EXTRA_ALGORITHMS)
      for size in (24, 112) if size == 24 or algo != "atlas"],
    *[pytest.param("map_smoke", lines, 0, id=f"map_smoke-{lines}")
      for lines in (1, 2, 4)],
]


@pytest.mark.parametrize("name, target, size", PARTITION_CASES)
def test_at_op_reports_partition_the_exhaustive_report(name, target, size,
                                                       monkeypatch):
    text = (WORKLOADS / f"{name}.txt").read_text()
    if isinstance(target, int):
        kw = dict(node_lines=target)
    else:
        text = widened(text, size)
        kw = dict(algo=target, payload_len=size, registry=EXTRA_ALGORITHMS)
    images = []   # per report: (epoch, cuts with zero cuts dropped) checked

    def recording(reads, cuts, recovered):
        images[-1].append((reads.mem._epoch, tuple(
            (line, cut) for line, cut in zip(reads.win.lines, cuts) if cut)))

    judged_states(monkeypatch, recording)

    def run(mode, arg=0):
        script = parse_script(text)
        script.mode, script.mode_arg = mode, arg
        images.append([])
        return run_crash_suite(script, **kw)

    whole = run("exhaustive")
    parts = [run("at-op", i) for i in range(whole.ops_run)]
    assert sum(p.distinct_states for p in parts) == whole.distinct_states
    assert all(v.op_index == i for i, p in enumerate(parts)
               for v in p.violations)
    assert sorted((v.op_index, v.cuts) for p in parts
                  for v in p.violations) == \
        sorted((v.op_index, v.cuts) for v in whole.violations)
    # each image is checked once, and by exactly one at-op report
    part_images = [img for imgs in images[1:] for img in imgs]
    assert len(set(part_images)) == len(part_images)
    assert sorted(part_images) == sorted(images[0])
    assert len(images[0]) == whole.distinct_states


def read_paths(target, ops) -> int:
    """Run `ops` on `target` and count the distinct read paths of the
    window the last one ends: every legal state recovered with its loads
    recorded, a path being the (written line, cut) pairs in the order
    recovery first loaded them."""
    mem = target.mem
    for op in ops:
        if mem.quiescent:
            mem.checkpoint()
        target.run_op(op)
    win = mem._window()
    at = {line: i for i, line in enumerate(win.lines)}
    paths = set()
    for cuts in win.vectors():
        crashed = win.crash_memory(cuts, record_loads=True)
        target.recovered_state(crashed)
        paths.add(tuple((line, cuts[at[line]]) for line in dict.fromkeys(
            crashed.loaded_lines) if line in at))
    return len(paths)


def counted_recoveries(monkeypatch) -> Counter:
    """Count the log recoveries a suite runs from here on."""
    runs = Counter()
    recovered_state = _LogTarget.recovered_state

    def counted(target, crashed):
        runs["recoveries"] += 1
        return recovered_state(target, crashed)

    monkeypatch.setattr(_LogTarget, "recovered_state", counted)
    return runs


@pytest.mark.parametrize("algo, most", [("cso-fvb", 40), ("tornbit", 40),
                                        ("two-rounds", 40), ("crc64", 2),
                                        ("crc32", 2)])
def test_recovery_runs_once_per_read_path(algo, most, monkeypatch):
    # a 240-byte append window: the validity formats walk the read paths,
    # one recovery per distinct path; a checksum log's states are judged by
    # their CRC line terms, so its invalid states share one recovery and
    # the whole entry takes one more
    payload = random.Random(4).randbytes(240)
    text = f"crash at-op 0\nappend {payload.hex()}\ntrim"
    paths = read_paths(_LogTarget(algo, 240, 16, None),
                       parse_script(text).ops[:1])
    runs = counted_recoveries(monkeypatch)
    report = run_crash_suite(text, algo=algo, payload_len=240)
    assert report.ok and report.distinct_states > 5000
    assert runs["recoveries"] <= most
    if "crc" not in algo:
        assert runs["recoveries"] == paths


def test_a_trim_window_recovers_once_per_read_path(monkeypatch):
    # nvbench's cso-random 112-B script at op 3, `trim 1`: its 5 states
    # take 2 read paths, and once recorded the first recovery loads every
    # written line, which used to stop recording and recover the other 4
    # states on their own
    rng = random.Random(6)
    text = "\n".join([*(f"append {rng.randbytes(112).hex()}"
                        for _ in range(3)), "trim 1"])
    paths = read_paths(_LogTarget("cso-random", 112, 16, None),
                       parse_script(text).ops)
    runs = counted_recoveries(monkeypatch)
    report = run_crash_suite(f"crash at-op 3\n{text}", algo="cso-random",
                             payload_len=112)
    assert report.ok and report.distinct_states == 5
    assert runs["recoveries"] == paths == 2


def test_map_check_recoveries_write_nothing(monkeypatch):
    # the map route recovers a few of a 4-line map check's states, by
    # `scan()` alone: no crash memory it recovers on is stored to, flushed
    # or fenced, where full recoveries of the check's states would fence;
    # and `scan()` reads every state's image on a memory that refuses
    # every write
    crashed_mems, images = [], []
    recovered_state = _StpsTarget.recovered_state

    def kept(target, crashed):
        crashed_mems.append((crashed, bytes(crashed.cached)))
        return recovered_state(target, crashed)

    def judged(reads, cuts, recovered):
        images.append(bytes(reads.win.image(cuts)))

    monkeypatch.setattr(_StpsTarget, "recovered_state", kept)
    judged_states(monkeypatch, judged)
    text = (WORKLOADS / "map_smoke.txt").read_text()
    report = run_crash_suite(text, node_lines=4)
    assert report.distinct_states == len(images) > 100
    assert 0 < len(crashed_mems) < len(images)
    for crashed, image in crashed_mems:
        stats = crashed.stats
        assert (stats.sfence_count, stats.clflushopt_count) == (0, 0)
        assert not crashed.write_counts() and crashed.cached == image
    repaired = 0
    for image in images:
        refusing = WriteRefusingMemory._from_image(bytearray(image))
        PersistentHashMap(refusing, 0, len(image), node_lines=4).scan()
        fresh = SimMemory._from_image(bytearray(image))
        PersistentHashMap(fresh, 0, len(image), node_lines=4).recover()
        repaired += fresh.stats.sfence_count
    assert repaired > 0


def map_route_checked(monkeypatch) -> Counter:
    """Check every map state a suite judges from here on: the route's value
    must be, key order included, what a fresh map's full `scan()` and
    `items()` give on the state's own crash memory.  Counts the states, the
    recoveries and the states of windows that wrote two slots or more."""
    seen = Counter()
    recovered_state = _StpsTarget.recovered_state

    def checked(reads, cuts, got):
        node_lines = reads.target.reader.node_lines
        own = reads.win.crash_memory(cuts)
        fresh = PersistentHashMap(own, 0, own.capacity, node_lines=node_lines)
        fresh.scan()
        assert list(got.items()) == list(fresh.items().items())
        seen["states"] += 1
        seen["two slots"] += len(reads.slots) > 1

    def counted(target, crashed):
        assert type(crashed) is SimMemory   # records no loads
        seen["recoveries"] += 1
        return recovered_state(target, crashed)

    walk = _ReadPaths._walk

    def walked(reads, listed=None):
        assert reads.slots is None   # a map window never walks read paths
        return walk(reads, listed)

    judged_states(monkeypatch, checked)
    monkeypatch.setattr(_StpsTarget, "recovered_state", counted)
    monkeypatch.setattr(_ReadPaths, "_walk", walked)
    return seen


def every_mode(text: str) -> list[Script]:
    """`text` parsed once per crash mode: exhaustive, sampled, and at-op
    for each of its ops."""
    modes = ["exhaustive", "sampled 300",
             *(f"at-op {i}" for i in range(len(parse_script(text).ops)))]
    return [parse_script(f"{text}\ncrash {mode}") for mode in modes]


def nvbench_workloads():
    """nvbench's workload generators (`nvbench/workloads.py`)."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "nvbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def nvbench_scripts(seed: int, per_op: bool = True):
    """nvbench crash-check's scripts of one round that it checks at each
    op (or, not `per_op`, those it samples), as (suite kwargs, text),
    their payloads and values drawn from `seed`."""
    return [(s["kw"], "\n".join(s["body"]))
            for s in nvbench_workloads().crash_scripts(random.Random(seed))
            if s["per_op"] == per_op]


def nvbench_map_scripts(seed: int):
    """nvbench crash-check's map scripts of one round, as (node lines,
    text)."""
    return [(kw["node_lines"], text) for kw, text in nvbench_scripts(seed)
            if "node_lines" in kw]


@pytest.mark.parametrize("node_lines", [1, 2, 4])
def test_the_map_route_recovers_as_a_full_scan(node_lines, monkeypatch):
    # map_smoke writes a transaction's two slots in one window
    seen = map_route_checked(monkeypatch)
    text = (WORKLOADS / "map_smoke.txt").read_text()
    for script in every_mode(text):
        assert run_crash_suite(script, node_lines=node_lines).ok
    assert seen["two slots"] and seen["recoveries"] < seen["states"]


@pytest.mark.parametrize("seed", [3, 8])
def test_the_map_route_recovers_nvbench_scripts_as_a_full_scan(seed,
                                                               monkeypatch):
    seen = map_route_checked(monkeypatch)
    for node_lines, text in nvbench_map_scripts(seed):
        for script in every_mode(text):
            run_crash_suite(script, node_lines=node_lines)
    assert seen["two slots"] and seen["recoveries"] < seen["states"]


def test_slot_images_that_decode_alike_share_one_recovery(monkeypatch):
    # a store past the entry's key and value changes the slot's bytes but
    # not its decode: the window's two states share one recovery, which is
    # what a full scan of each gives
    seen = map_route_checked(monkeypatch)
    target = _StpsTarget(1, 4)
    mem = target.mem
    target.run_op(("U", b"a", b"1"))
    mem.checkpoint()
    mem.store(40, b"x")
    mem.clflushopt(0)
    mem.sfence()
    win = mem._window()
    reads = _ReadPaths(mem, target, win)
    vectors = win.vectors()
    for recovered, _, _ in reads.classes(vectors):
        assert recovered == {b"a": b"1"}
    images = {bytes(win.image(cuts)) for cuts in vectors}
    [decodes] = {reads._decodes(cuts) for cuts in vectors}
    assert len(images) == 2 and decodes[0] is not None
    assert seen == Counter(states=2, recoveries=1)


def recovered_alone(target, crashed):
    """What a freshly attached reader recovers from the crash memory
    `crashed`: a log's payloads or a map's items."""
    if isinstance(target, _StpsTarget):
        return PersistentHashMap(crashed, 0, crashed.capacity,
                                 node_lines=target.reader.node_lines
                                 ).recover().items()
    log = target.log
    fresh = type(log).attach(crashed, 0, log.size, log.payload_len)
    try:
        return tuple(e.payload for e in fresh.recover())
    except UnrecoverableLogError:
        return ("<unrecoverable>",)


def judged_one_by_one(reads, listed, first, legal, violations) -> int:
    """A plain reference for `harness._judge`: each state of the window
    (every legal vector of a counted window, op `first`'s, in product
    order, or each listed one in list order) recovered on its own crash
    memory, replayed line by line, by a freshly attached reader, with no
    shared recovery and no class."""
    mem, win = reads.mem, reads.win
    if listed is None:
        listed = dict.fromkeys(win.vectors(), first)
    for cuts, j in listed.items():
        image = bytearray(mem.cached)
        for line, cut in zip(win.lines, cuts):
            image[line * 64:(line + 1) * 64] = win.line_image(line, cut)
        recovered = recovered_alone(reads.target, SimMemory._from_image(image))
        pair = tuple(legal[j - first:j + 2 - first])
        if recovered not in pair:
            violations.append(Violation(j, tuple(zip(win.lines, cuts)),
                                        recovered, pair))
    return len(listed)


def differential_runs():
    """(id, suite kwargs, scripts) of every differential run: in every
    mode, the shipped log scripts under every log at 24/56/112 B (atlas at
    24 B), the map script at 1/2/4-line nodes, two rounds of nvbench's
    per-op scripts and a one-append crc32/crc64 script; and one round of
    nvbench's sampled scripts as nvbench samples them."""
    for name in ("three_appends", "wraparound"):
        text = (WORKLOADS / f"{name}.txt").read_text()
        for algo in sorted(EXTRA_ALGORITHMS):
            for size in (24, 56, 112) if algo != "atlas" else (24,):
                yield (f"{name}-{algo}-{size}",
                       dict(algo=algo, payload_len=size),
                       every_mode(widened(text, size)))
    for lines in (1, 2, 4):
        yield (f"map_smoke-{lines}", dict(node_lines=lines),
               every_mode((WORKLOADS / "map_smoke.txt").read_text()))
    for seed in (3, 8):
        for n, (kw, text) in enumerate(nvbench_scripts(seed)):
            yield f"nvbench-{seed}-{n}", kw, every_mode(text)
    samples = nvbench_workloads().CC_SAMPLES
    for n, (kw, text) in enumerate(nvbench_scripts(3, per_op=False)):
        yield (f"nvbench-sampled-3-{n}", kw,
               [parse_script(f"seed 3\ncrash sampled {samples}\n{text}")])
    # sampled, the append's window lies in one slot and is listed
    payload = random.Random(7).randbytes(112)
    for algo in ("crc32", "crc64"):
        yield (f"one-append-{algo}", dict(algo=algo, payload_len=112),
               every_mode(f"append {payload.hex()}"))


@pytest.mark.parametrize("case, kw, scripts", [
    pytest.param(*run, id=run[0]) for run in differential_runs()])
def test_class_judge_reports_as_the_per_state_loop(case, kw, scripts,
                                                   monkeypatch):
    # in every mode: equal reports, the order of their violations and each
    # recovered value's repr included, or the same enumeration limit error
    judged = Counter()
    judge = harness._judge

    def counted(reads, listed, first, legal, violations):
        judged["listed" if listed else "counted"] += 1
        judged["fenced map"] += bool(reads.win.fenced and reads.slots)
        return judge(reads, listed, first, legal, violations)

    def outcome(script):
        try:
            report = run_crash_suite(script, registry=EXTRA_ALGORITHMS, **kw)
        except EnumerationLimitError as exc:
            return str(exc)
        judged["violations"] += len(report.violations)
        return repr(report), report.to_csv()

    for script in scripts:
        monkeypatch.setattr(harness, "_judge", counted)
        got = outcome(script)
        monkeypatch.setattr(harness, "_judge", judged_one_by_one)
        assert got == outcome(script)
    assert judged["listed"]
    assert judged["counted"] or "sampled" in case
    if kw.get("algo") == "broken-vb":
        assert judged["violations"]
    if case.startswith("nvbench-") and kw.get("node_lines") == 1:
        assert judged["fenced map"]   # its transaction at op 8


def table_valid(reads, cuts) -> bool:
    """The checksum route's call on a state: its line terms sum to the
    goal."""
    return functools.reduce(operator.xor, map(list.__getitem__, reads.sums,
                                              cuts)) == reads.goal


def checksum_classes(algo: str, size: int, text: str, slots: int):
    """Run `text`'s ops on a crc log and yield, for every state of every
    window that takes the checksum route, the table's call and whether
    `_decode` accepts the slot on the state's crash memory."""
    target = _LogTarget(algo, size, slots, None)
    mem, cls = target.mem, type(target.log)
    ops = parse_script(text).ops
    mem.checkpoint()
    for i, op in enumerate(ops):
        target.run_op(op)
        quiet = mem.quiescent
        if quiet or i == len(ops) - 1:
            win = mem._window()
            reads = _ReadPaths(mem, target, win)
            if reads._slot_sums():
                for cuts in win.vectors():
                    crashed = win.crash_memory(cuts)
                    log = cls.attach(crashed, 0, target.log.size, size)
                    log._load_header(crashed.load_word(0))
                    slot = ((win.lines[0] * 64 - log.slot_addr(0))
                            // log.slot_size)
                    yield (table_valid(reads, cuts),
                           log._decode(slot, log.slot_addr(slot)) is not None)
        if quiet:
            mem.checkpoint()


@pytest.mark.parametrize("algo", ["crc32", "crc64"])
@pytest.mark.parametrize("size", [24, 112, 240])
def test_checksum_classes_agree_with_decode(algo, size):
    # the shipped log scripts, widened, and nvbench-shaped append/trim
    # scripts, on 4 slots so that the head wraps and the epoch moves
    rng = random.Random(f"{algo}/{size}")
    texts = [widened((WORKLOADS / f"{name}.txt").read_text(), size)
             for name in ("three_appends", "wraparound")]
    texts += ["\n".join(f"append {rng.randbytes(size).hex()}" if op == "a"
                        else op for op in shape)
              for shape in (("a", "a", "a", "trim 1", "a", "trim"),
                            ("a", "trim"))]
    classes = Counter()
    for text in texts:
        for table, decoded in checksum_classes(algo, size, text, 4):
            assert table == decoded
            classes[table] += 1
    assert classes[True] >= 10 and classes[False] > classes[True]


def test_a_crafted_crc32_payload_is_classed_valid_when_torn(monkeypatch):
    # the crafted payload's word 6 is one the 32-bit checksum cannot see
    # torn: the table classes that torn state valid, as `_decode` does, and
    # it is recovered on its own, so the check reports it
    assert crc_term(crc32c, 120, 56, CRAFTED_112[48:56]) == 0
    text = f"crash exhaustive\nappend {CRAFTED_112.hex()}"
    classes = Counter(table for table, decoded
                      in checksum_classes("crc32", 112, text, 4)
                      if table == decoded)
    assert classes[True] == 2 and sum(classes.values()) == 81
    runs = counted_recoveries(monkeypatch)
    report = run_crash_suite(text, algo="crc32", payload_len=112, slots=4)
    assert len(report.violations) == 1
    assert runs["recoveries"] == classes[True] + 1


@pytest.mark.parametrize("algo", ["crc32", "crc64"])
@pytest.mark.parametrize("mode", ["exhaustive", "at-op 2"])
def test_a_checksum_log_window_with_no_written_line(algo, mode):
    # a trim of an empty log writes nothing, so its window has no line and
    # one state; the checksum route, which locates its slot from the first
    # written line, is not taken (it used to raise IndexError)
    text = f"crash {mode}\nappend {'ab' * 24}\ntrim\ntrim"
    report = run_crash_suite(text, algo=algo)
    assert report.ok
    assert (report.states_checked, report.distinct_states) == (
        (9, 9) if mode == "exhaustive" else (1, 1))


@pytest.mark.parametrize("mode, checked, distinct", [
    pytest.param("sampled 300", 302, 79, id="sampled"),
    pytest.param("exhaustive", 81, 81, id="exhaustive")])
def test_a_one_slot_checksum_window_builds_the_table(mode, checked, distinct,
                                                     monkeypatch):
    # one crc64 append lies in one slot: sampled, its window is listed,
    # exhaustive, it is counted, and either way it is classed by the table,
    # its invalid states one class with one recovery and its one valid
    # state another, with the report the read-path walk gave
    calls = []
    slot_sums = _ReadPaths._slot_sums

    def hooked(reads):
        calls.append(slot_sums(reads))
        return calls[-1]

    monkeypatch.setattr(_ReadPaths, "_slot_sums", hooked)
    runs = counted_recoveries(monkeypatch)
    payload = random.Random(7).randbytes(112)
    report = run_crash_suite(f"crash {mode}\nappend {payload.hex()}",
                             algo="crc64", payload_len=112)
    assert calls == [True]
    assert runs["recoveries"] == 2
    assert report == harness.Report("crc64", mode.split()[0], 1, checked,
                                    distinct, [])


def product_of_xors(reads):
    """A plain reference for the checksum route's counted classes: every
    vector's line terms XORed over the whole product of cuts, in product
    order; the invalid vectors one class recovered on the first of them,
    the valid ones walked as a listed group."""
    xors = [0]
    for terms in reads.sums:
        xors = [x ^ term for x in xors for term in terms]
    vectors = itertools.product(*map(range, reads.win.stops))
    parts = {True: [], False: []}
    for cuts, x in zip(vectors, xors):
        parts[x == reads.goal].append(cuts)
    if parts[False]:
        yield (reads._recovered(parts[False][0]), len(parts[False]),
               parts[False])
    for recovered, size, members in reads._walk(parts[True]):
        yield recovered, size, members()


def crc_digest_and_nvbench_runs():
    """(suite kwargs, script) of every crc run of the pinned digests and of
    two rounds of nvbench's per-op scripts, in every mode, of the shipped
    log scripts at a 168-B entry, which spans three lines, and of a 168-B
    append with four valid states."""
    for name in ("three_appends", "wraparound"):
        text = (WORKLOADS / f"{name}.txt").read_text()
        for size in (24, 56, 112, 168):
            for algo in ("crc32", "crc64"):
                for script in every_mode(widened(text, size)):
                    yield dict(algo=algo, payload_len=size), script
    rng = random.Random(20)
    text = f"append {rng.randbytes(240).hex()}\ntrim"
    yield dict(algo="crc64", payload_len=240), parse_script(
        f"seed 5\ncrash at-op 0\n{text}")
    # zero payload words 6 and 14 end lines 1 and 2 of a 168-B slot, so
    # either line torn before them is valid: four valid states, which the
    # second half's lookups find out of product order
    words = [random.Random(21).randbytes(8) for _ in range(21)]
    words[6] = words[14] = bytes(8)
    for algo in ("crc32", "crc64"):
        yield dict(algo=algo, payload_len=168), parse_script(
            f"crash exhaustive\nappend {b''.join(words).hex()}")
    for seed in (3, 8):
        for kw, text in nvbench_scripts(seed):
            if "crc" in kw.get("algo", ""):
                for script in every_mode(text):
                    yield kw, script


def test_meet_in_the_middle_classes_as_the_product_of_xors(monkeypatch):
    # every counted checksum-route window of those runs: the same classes,
    # values, sizes and members, in the same order, as the product of XORs
    route = _ReadPaths._checksum_classes
    widths, valid = Counter(), Counter()

    def compared(reads, listed=None):
        got = [(recovered, size, members())
               for recovered, size, members in route(reads, listed)]
        if listed is None:
            assert got == list(product_of_xors(reads))
            widths[len(reads.win.lines)] += 1
            valid[sum(size for _, size, _ in got[1:])] += 1
        for recovered, size, members in got:
            yield recovered, size, functools.partial(list, members)

    monkeypatch.setattr(_ReadPaths, "_checksum_classes", compared)
    for kw, script in crc_digest_and_nvbench_runs():
        run_crash_suite(script, **kw)
    assert set(widths) == {1, 2, 3, 4} and max(valid) == 4


class ForgetfulCrc64Log(Crc64Log):
    """A crc64 log whose recovery drops its newest entry."""

    name = "forgetful-crc64"

    def recover(self):
        return super().recover()[:-1]


@pytest.mark.parametrize("limit, violations", [(80, 80), (79, None)])
def test_an_illegal_class_past_the_limit_lists_no_member(limit, violations,
                                                         monkeypatch):
    # the second append's 80 invalid states recover the first entry, which
    # the mutant drops: one illegal class, its members listed only while it
    # holds no more states than the limit
    monkeypatch.setattr(harness, "ENUMERATION_LIMIT", limit)
    listed = Counter()
    classes = _ReadPaths.classes

    def watched(reads, listed_vectors=None):
        for recovered, size, members in classes(reads, listed_vectors):
            def counted(members=members, size=size):
                listed[size] += 1
                return members()
            yield recovered, size, counted

    monkeypatch.setattr(_ReadPaths, "classes", watched)
    rng = random.Random(9)
    text = "\n".join(["crash exhaustive", *(
        f"append {rng.randbytes(112).hex()}" for _ in range(2))])
    kw = dict(algo=ForgetfulCrc64Log.name, payload_len=112,
              registry={ForgetfulCrc64Log.name: ForgetfulCrc64Log})
    if violations is None:
        with pytest.raises(EnumerationLimitError,
                           match="illegal class of 80 states exceeds limit 79"):
            run_crash_suite(text, **kw)
        assert not listed[80]
    else:
        report = run_crash_suite(text, **kw)
        assert len(report.violations) == violations and listed[80] == 1


def test_a_listed_illegal_class_is_reported_past_the_limit(monkeypatch):
    # a sampled window's members are already listed, so its illegal class
    # of 79 states is judged whatever the limit
    monkeypatch.setattr(harness, "ENUMERATION_LIMIT", 1)
    rng = random.Random(9)
    text = "\n".join(["crash sampled 300", *(
        f"append {rng.randbytes(112).hex()}" for _ in range(2))])
    report = run_crash_suite(
        text, algo=ForgetfulCrc64Log.name, payload_len=112,
        registry={ForgetfulCrc64Log.name: ForgetfulCrc64Log})
    assert len(report.violations) == 79


@pytest.mark.parametrize("limit", [648, 647])
def test_valid_vectors_past_the_limit_are_counted_not_built(limit,
                                                             monkeypatch):
    # an all-zero 240-byte append writes 4 lines whose two middle lines
    # read the same at every cut: 8 valid end pairs times 81 middles give
    # 648 valid vectors, each its own read path; past the limit they are
    # counted and never listed
    monkeypatch.setattr(harness, "ENUMERATION_LIMIT", limit)
    walked = []
    walk = _ReadPaths._walk

    def watched(reads, listed=None):
        walked.append(None if listed is None else len(listed))
        return walk(reads, listed)

    monkeypatch.setattr(_ReadPaths, "_walk", watched)
    text = f"crash exhaustive\nappend {bytes(240).hex()}"
    if limit < 648:
        with pytest.raises(EnumerationLimitError,
                           match="648 valid cut tuples exceed limit 647"):
            run_crash_suite(text, algo="crc64", payload_len=240)
        assert walked == []
    else:
        report = run_crash_suite(text, algo="crc64", payload_len=240)
        assert report.states_checked == 9 ** 4 and not report.violations
        assert walked == [648]


@pytest.mark.parametrize("algo", ["cso-fvb", "tornbit", "two-rounds"])
def test_an_eight_line_append_is_past_the_walks_limit(algo):
    # a 496-byte append writes 8 lines of 9 cuts each, and the read-path
    # walk counts their whole product first; the checksum route, which
    # judges all 9**8, is pinned in `test_crc32_weakness_demonstration`
    payload = random.Random(0).randbytes(496)
    with pytest.raises(EnumerationLimitError, match="exceed limit"):
        run_crash_suite(f"crash exhaustive\nappend {payload.hex()}",
                        algo=algo, payload_len=496)


def window_crash_memories(target, ops):
    """Run `ops` on `target` and, at the end of each window (a quiescent
    point or the last op), yield two crash memories of each of the window's
    states.  A window's states come newest first, in reverse product
    order, so a reader meets older states after newer ones within a window
    and newer after older from one window to the next."""
    mem = target.mem
    mem.checkpoint()
    for i, op in enumerate(ops):
        target.run_op(op)
        quiet = mem.quiescent
        if quiet or i == len(ops) - 1:
            win = mem._window()
            for cuts in reversed(win.vectors()):
                yield win.crash_memory(cuts), win.crash_memory(cuts)
        if quiet:
            mem.checkpoint()


# fill a log, trim it while full, append over the trimmed slot, and trim
# across the region's end twice: between states the head, the polarity,
# the crc epoch and cso-random's stop slot all change.  4-line entries get
# two slots and two appends, one wrap (and cso-random its full-log trim),
# which keeps their 6,561-state append windows few.
READER_LOG_SCRIPT = "aaaa t1 a t2 t aa t aaa t"
READER_240_SCRIPTS = {"cso-random": "aa t1 t"}
READER_240_SCRIPT = "a t a t"


def volatile(obj) -> dict:
    return {k: v for k, v in vars(obj).items() if k not in ("mem", "_decode")}


@pytest.mark.parametrize("algo, size", [
    *((algo, size) for algo in EXTRA_ALGORITHMS for size in (24, 112)
      if algo != "atlas" or size == 24),
    *((algo, 240) for algo in ("cso-random", "cso-fvb", "tornbit", "crc32",
                               "crc64", "two-rounds"))])
def test_a_reused_log_reader_recovers_as_a_fresh_one(algo, size):
    slots, script = ((2, READER_240_SCRIPTS.get(algo, READER_240_SCRIPT))
                     if size == 240 else (4, READER_LOG_SCRIPT))
    rng = random.Random(f"{algo}/{size}")
    ops = parse_script("\n".join(
        f"append {rng.randbytes(size).hex()}" if tok == "a"
        else "trim" if tok == "t" else f"trim {tok[1:]}"
        for word in script.split() for tok in
        (word if word[0] == "a" else [word]))).ops
    target = _LogTarget(algo, size, slots, EXTRA_ALGORITHMS)
    reader = target.reader
    seen = Counter()
    for crashed, copy in window_crash_memories(target, ops):
        got = target.recovered_state(crashed)
        fresh = type(target.log).attach(copy, 0, target.log.size, size)
        try:
            want = tuple(e.payload for e in fresh.recover())
        except UnrecoverableLogError:
            want = ("<unrecoverable>",)
        else:
            assert volatile(reader) == volatile(fresh)
        assert got == want
        seen.update((k, v) for k, v in volatile(fresh).items()
                    if k in ("head", "polarity", "epoch", "_stop"))
    assert len({v for k, v in seen if k == "head"}) > 1
    if algo != "atlas":   # a linked log keeps no polarity
        assert {v for k, v in seen if k == "polarity"} == {0, 1}
    if "crc" in algo:
        assert len({v for k, v in seen if k == "epoch"}) > 1
    if algo == "cso-random":
        assert len({v for k, v in seen if k == "_stop"}) > 1


# updates, reused slots, a transaction over reused slots and removes; the
# map's region is small enough that slots are reused
READER_MAP_SCRIPT = """
U a 1
U b 2
T a 3 c 4
R b
U c 5
T d 6 e 7
R a
U b 8
"""


@pytest.mark.parametrize("node_lines", [1, 4])
def test_a_reused_map_reader_recovers_as_a_fresh_one(node_lines):
    target = _StpsTarget(node_lines, 8)
    reader = target.reader
    region = 8 * node_lines * 64
    size = reader.slot_size
    states = 0
    for crashed, copy in window_crash_memories(
            target, parse_script(READER_MAP_SCRIPT).ops):
        raws = [bytes(crashed.cached[off:off + size])
                for off in range(0, region, size)]
        got = target.recovered_state(crashed)
        fresh = PersistentHashMap(copy, 0, region, node_lines=node_lines)
        assert got == fresh.recover().items()
        assert volatile(reader) == volatile(fresh)
        assert list(map(reader._decode, raws)) == list(map(fresh._decode,
                                                            raws))
        states += 1
    assert states > 50
    assert reader._decode.cache_info().hits > reader._decode.cache_info().misses


def test_a_map_recovered_in_another_key_order_is_legal(monkeypatch):
    # `U c` reuses slot 0, which held a's first version, so recovery, which
    # replays slots in version order, meets b (version 3) before a (version
    # 4), while the model has held a first since `U a 1`; the judge compares
    # by equality, and a dict equals a dict whatever its key order
    recovered = []
    recovered_state = _StpsTarget.recovered_state

    def kept(target, crashed):
        recovered.append(recovered_state(target, crashed))
        return recovered[-1]

    monkeypatch.setattr(_StpsTarget, "recovered_state", kept)
    report = run_crash_suite("crash exhaustive\nU a 1\nU b 2\nU b 3\n"
                             "U a 4\nU c 5\n")
    model = {b"a": b"4", b"b": b"3", b"c": b"5"}
    assert [list(state) for state in recovered if state == model] == [
        [b"b", b"a", b"c"]]
    assert report.ok and report.distinct_states == 25


def test_at_op_enumerates_only_its_prefix():
    # a cso-random trim leaves its refill unfenced, so ops 1 and 2 share a
    # window; `at-op I` enumerates only that window's states with no line
    # cut past op I, which are the states of the script cut after op I
    ops = ["append " + "11" * 24, "trim", "append " + "22" * 24]

    def checked(mode, n):
        script = f"crash {mode}\n" + "\n".join(ops[:n])
        return run_crash_suite(script, algo="cso-random").states_checked

    before = checked("exhaustive", 1)
    assert checked("at-op 1", 3) == checked("exhaustive", 2) - before
    assert checked("at-op 2", 3) == checked("exhaustive", 3) - before
    assert checked("at-op 1", 3) < checked("at-op 2", 3)


class NoFenceRandomLog(NoFence, CsoRandomLog):
    name = "cso-random-no-fence"


def test_at_op_violations_name_only_lines_written_through_their_op():
    # one window of four ops: `at-op I` checks the memory as op I left it,
    # so its cuts never name the header line that only the trim writes
    registry = {NoFenceRandomLog.name: NoFenceRandomLog}
    kw = dict(algo=NoFenceRandomLog.name, payload_len=24, slots=3,
              registry=registry)
    text = "\n".join([*(f"append {bytes([b] * 24).hex()}" for b in (1, 2, 3)),
                      "trim 1"])
    target = _LogTarget(kw["algo"], 24, 3, registry)
    target.mem.checkpoint()
    written = []   # per op: the lines written through it
    for op in parse_script(text).ops:
        target.run_op(op)
        written.append(set(target.mem.write_counts()))

    def run(mode, arg=0):
        script = parse_script(text)
        script.mode, script.mode_arg = mode, arg
        return run_crash_suite(script, **kw)

    def persisted(violations):
        return sorted((v.op_index, tuple((ln, c) for ln, c in v.cuts if c))
                      for v in violations)

    whole = run("exhaustive")
    parts = [run("at-op", i) for i in range(4)]
    assert len(whole.violations) == 45
    assert persisted(v for p in parts for v in p.violations) == \
        persisted(whole.violations)
    assert written[2] < written[3]
    for i, p in enumerate(parts):
        assert all({ln for ln, _ in v.cuts} <= written[i]
                   for v in p.violations)


def test_map_suite_clean():
    assert run_crash_suite(MAP_SCRIPT).ok


def test_map_suite_multiline_nodes():
    assert run_crash_suite(MAP_SCRIPT, node_lines=2).ok


def test_reports_deterministic():
    a = run_crash_suite(THREE_APPENDS, algo="cso-random")
    b = run_crash_suite(THREE_APPENDS, algo="cso-random")
    assert a.to_csv() == b.to_csv()


def test_report_csv_shape():
    report = run_crash_suite(THREE_APPENDS, algo="cso-vb")
    lines = report.to_csv().strip().splitlines()
    assert lines[0].startswith("target,mode,ops")
    assert lines[1].startswith("cso-vb,exhaustive,4")


# ---------------------------------------------------------------------- audits

def test_audit_exact_values():
    assert audit_roundtrips("cso-vb", 64, 24).roundtrips_per_append == 1.0
    assert audit_roundtrips("two-rounds", 64, 24).roundtrips_per_append == 2.0
    assert audit_roundtrips("atlas", 64, 24).roundtrips_per_append == 1.5


def test_audit_cso_random_background_init():
    audit = audit_roundtrips("cso-random", 64, 56)
    assert audit.roundtrips_per_append == 1.0
    assert audit.init_flushes_per_entry == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------- append loop

def retained_writes(algo: str, ops: int) -> int:
    log = ALGORITHMS[algo].fresh(24, 16)
    run_appends(log, bytes(range(24)), ops, 8)
    return sum(log.mem.write_counts().values())


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_run_appends_history_does_not_grow(algo):
    # checkpoints after the trims bound the write events the memory keeps
    assert retained_writes(algo, 512) <= retained_writes(algo, 64)


# ------------------------------------------------------ crafted crc32 payload

def test_crc32_demo_finds_planted_false_valid():
    # the crafted payload torn before its word 6: crc32 takes the slot as
    # valid and recovers an entry that was never appended
    report = run_crash_suite(f"crash exhaustive\nappend {CRAFTED_112.hex()}",
                             algo="crc32", payload_len=112, slots=4)
    [violation] = report.violations
    torn = CRAFTED_112[:48] + bytes(8) + CRAFTED_112[56:]
    assert violation.cuts == ((1, 7), (2, 8))
    assert violation.recovered == (torn,)


# every log that holds the crafted 112-byte payload (atlas takes 24 only)
@pytest.mark.parametrize("algo", sorted(set(ALGORITHMS) - {"atlas"}))
def test_checksum_demo_exhaustive(algo):
    report = run_crash_suite(f"crash exhaustive\nappend {CRAFTED_112.hex()}",
                             algo=algo, payload_len=112, slots=4)
    assert report.distinct_states > 1
    assert len(report.violations) == (1 if algo == "crc32" else 0)
