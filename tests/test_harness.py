"""Harness tests: script parsing, crash suites catching real bugs, round-trip
audits, differential recovery, and the checksum collision construction."""

import pytest

from nvlog.crc import crc32c
from nvlog.harness import (BrokenVbLog, EXTRA_ALGORITHMS, Script, ScriptError,
                           audit_roundtrips, checksum_vulnerability_demo,
                           crc32_collision_word, differential_recovery,
                           parse_script, run_crash_suite)
from nvlog.logalg import ALGORITHMS

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


# ---------------------------------------------------------------- differential

def test_differential_recovery_agrees():
    assert differential_recovery("cso-vb", "crc64", THREE_APPENDS)
    assert differential_recovery("tornbit", "cso-random", THREE_APPENDS)


# ---------------------------------------------------------- checksum collision

def test_collision_word_is_in_kernel():
    buf = bytes(range(120))
    v = crc32_collision_word(buf, 56)
    assert v != 0
    patched = bytearray(buf)
    patched[56:64] = (int.from_bytes(buf[56:64], "little") ^ v).to_bytes(8, "little")
    assert crc32c(bytes(patched)) == crc32c(buf)


def test_crc32_demo_finds_planted_false_valid():
    demo = checksum_vulnerability_demo("crc32")
    assert demo.false_valids == 1


# every log that holds the demo's 112-byte payload (atlas takes 24 only)
@pytest.mark.parametrize("algo", sorted(set(ALGORITHMS) - {"atlas"}))
def test_checksum_demo_exhaustive(algo):
    demo = checksum_vulnerability_demo(algo)
    assert demo.states_checked > 1
    assert demo.false_valids == (1 if algo == "crc32" else 0)


def test_crc64_and_vb_reject_all_torn_states():
    for algo in ("crc64", "cso-vb"):
        demo = checksum_vulnerability_demo(algo, samples=20000)
        assert demo.false_valids == 0
