"""Harness tests: script parsing, crash suites catching real bugs, round-trip
audits, the append loop's history bound, and the checksum collision
construction."""

import random
from collections import Counter
from pathlib import Path

import pytest

import nvlog
from conftest import widened
from nvlog.crc import crc32c
from nvlog.harness import (BrokenVbLog, EXTRA_ALGORITHMS, Script, ScriptError,
                           _LogTarget, _ReadPaths, audit_roundtrips,
                           checksum_vulnerability_demo, crc32_collision_word,
                           parse_script, run_appends, run_crash_suite)
from nvlog.logalg import ALGORITHMS
from nvlog.logalg.base import TrimError
from nvlog.logalg.csorandom import CsoRandomLog
from nvlog.logalg.csovb import CsoVbLog
from nvlog.stps import PersistentHashMap

WORKLOADS = Path(nvlog.__file__).parent / "workloads"

THREE_APPENDS = """
seed 1
crash exhaustive
append 101112131415161718191a1b1c1d1e1f2021222324252627
append 202122232425262728292a2b2c2d2e2f3031323334353637
append 303132333435363738393a3b3c3d3e3f4041424344454647
trim
"""

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
    judge = _ReadPaths.recovered

    def recording(reads, cuts):
        images[-1].append((reads.mem._epoch, tuple(
            (line, cut) for line, cut in zip(reads.win.lines, cuts) if cut)))
        return judge(reads, cuts)

    monkeypatch.setattr(_ReadPaths, "recovered", recording)

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


@pytest.mark.parametrize("algo, most", [("cso-fvb", 40), ("tornbit", 40),
                                        ("two-rounds", 40), ("crc64", None)])
def test_recovery_runs_once_per_read_path(algo, most, monkeypatch):
    # a 240-byte append window: the validity formats share recoveries among
    # states that agree on every line recovery loaded; a checksum log reads
    # the whole slot once its header word checks, so crc64 recovers each
    # state but the 9**3 that lost the header word, which share one
    runs = Counter()
    recovered_state = _LogTarget.recovered_state

    def counted(target, crashed):
        runs["recoveries"] += 1
        return recovered_state(target, crashed)

    monkeypatch.setattr(_LogTarget, "recovered_state", counted)
    payload = random.Random(4).randbytes(240)
    report = run_crash_suite(f"crash at-op 0\nappend {payload.hex()}\ntrim",
                             algo=algo, payload_len=240)
    assert report.ok and report.distinct_states > 5000
    if most is None:
        assert runs["recoveries"] == report.distinct_states - 728
    else:
        assert runs["recoveries"] <= most


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


# ---------------------------------------------------------- checksum collision

def test_collision_word_is_in_kernel():
    buf = bytes(range(120))
    v = crc32_collision_word(buf, 56)
    assert v != 0
    patched = bytearray(buf)
    patched[56:64] = (int.from_bytes(buf[56:64], "little") ^ v).to_bytes(8, "little")
    assert crc32c(bytes(patched)) == crc32c(buf)


def test_collision_word_for_demo_buffer_is_pinned():
    # the demo's framing (seq 0, len 112) and payload bytes 1..112, word 6
    buf = (0).to_bytes(4, "little") + (112).to_bytes(4, "little") \
        + bytes(range(1, 113))
    assert crc32_collision_word(buf, 8 + 48) == 0x105EC76F1


def test_crc32_demo_finds_planted_false_valid():
    demo = checksum_vulnerability_demo("crc32")
    assert demo.false_valids == 1


# every log that holds the demo's 112-byte payload (atlas takes 24 only)
@pytest.mark.parametrize("algo", sorted(set(ALGORITHMS) - {"atlas"}))
def test_checksum_demo_exhaustive(algo):
    demo = checksum_vulnerability_demo(algo)
    assert demo.states_checked > 1
    assert demo.false_valids == (1 if algo == "crc32" else 0)
