"""Command-line front end: CSV schemas, determinism, exit codes, inspect."""

import csv
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nvlog
from nvlog import cli
from nvlog.cli import ENTRY_PAYLOAD, main
from nvlog.logalg import ALGORITHMS
from nvlog.pmem import SimMemory

WORKLOADS = "src/nvlog/workloads"


def run_main(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ----------------------------------------------------------------------- bench

def test_bench_csv_schema_and_determinism(tmp_path, capsys):
    argv = ["bench", "--algo", "cso-vb,two-rounds", "--entry-lines", "0.5",
            "--ops", "500", "--latency-ns", "800", "--seed", "7"]
    _, out1 = run_main(argv, capsys)
    _, out2 = run_main(argv, capsys)
    rows1, rows2 = read_csv(out1), read_csv(out2)
    assert rows1[0] == ["algorithm", "payload_bytes", "latency_ns",
                        "appends_per_sec_wallclock", "appends_per_sec_modeled",
                        "roundtrips_per_append"]
    # modeled columns are a pure function of the config
    assert [r[4:] for r in rows1[1:]] == [r[4:] for r in rows2[1:]]


def test_bench_roundtrip_column():
    from nvlog.cli import _bench_one
    row = _bench_one("cso-vb", 56, 0, 600, 0, 200, 100)
    assert row[5] == 1.0
    row = _bench_one("two-rounds", 56, 0, 600, 0, 200, 100)
    assert row[5] == 2.0


def test_bench_csovb_capped_at_two_lines(capsys):
    code, out = run_main(["bench", "--algo", "cso-vb", "--entry-lines", "4",
                          "--ops", "50"], capsys)
    assert code == 0
    assert len(read_csv(out)) == 1  # header only; size skipped with a warning


def test_bench_unknown_entry_size(capsys):
    code, _ = run_main(["bench", "--entry-lines", "3"], capsys)
    assert code == 2


def test_bench_unknown_algorithm(capsys):
    code = main(["bench", "--algo", "cso-vb,nope", "--ops", "50"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("unknown algorithm 'nope' "
                   f"(choices: {','.join(ALGORITHMS)})\n")


@pytest.mark.parametrize("command", ["bench", "ycsb"])
@pytest.mark.parametrize("ops", ["0", "-5"])
def test_nonpositive_ops_is_a_usage_error(command, ops, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--ops", ops])
    assert exc.value.code == 2
    assert "--ops: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ycsb", "--set-size"],
    ["ycsb", "--node-lines"],
    ["crashtest", f"{WORKLOADS}/map_smoke.txt", "--node-lines"],
], ids=["ycsb-set-size", "ycsb-node-lines", "crashtest-node-lines"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_sizes_are_usage_errors(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    assert f"{argv[-1]}: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "ycsb"])
@pytest.mark.parametrize("flag", ["--latency-ns", "--fence-ns", "--base-ns"])
def test_negative_times_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "-100"])
    assert exc.value.code == 2
    assert f"{flag}: must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv, column", [
    (["bench", "--algo", "cso-vb", "--entry-lines", "0.5"], 4),
    (["ycsb", "--set-size", "16"], 3),
], ids=["bench", "ycsb"])
def test_zero_modeled_time_leaves_the_rate_empty(argv, column, capsys):
    # with every modeled cost 0 there is no rate to report, as for wall time
    code, out = run_main(argv + ["--ops", "50", "--base-ns", "0",
                                 "--fence-ns", "0"], capsys)
    rows = read_csv(out)[1:]
    assert code == 0 and rows
    assert all(row[column] == "" for row in rows)


@pytest.mark.parametrize("argv", [
    ["bench", "--algo", "cso-vb", "--entry-lines", "0.5", "--ops", "50"],
    ["ycsb", "--set-size", "16", "--ops", "50"],
    ["crashtest", f"{WORKLOADS}/three_appends.txt"],
], ids=["bench", "ycsb", "crashtest"])
def test_unwritable_csv_path_is_one_line(argv, tmp_path, capsys):
    # exit 2, not a traceback: for crashtest, exit 1 means violations found
    path = tmp_path / "missing" / "x.csv"
    code = main(argv + ["--csv", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["bench", "--algo", "cso-vb", "--entry-lines", "0.5", "--ops", "50"],
    ["ycsb", "--set-size", "16", "--ops", "50"],
], ids=["bench", "ycsb"])
def test_unwritable_csv_path_is_reported_before_any_work(argv, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    # a mistyped path must not cost a whole run first
    ran = []
    for worker in ("_bench_one", "_run_kv"):
        monkeypatch.setattr(cli, worker,
                            lambda *a, worker=worker, **k: ran.append(worker))
    path = tmp_path / "missing" / "x.csv"
    code = main(argv + ["--csv", str(path)])
    assert code == 2 and ran == []
    assert capsys.readouterr().err == (
        f"cannot write {path}: No such file or directory\n")


def test_entry_payloads_fit_declared_lines():
    assert ENTRY_PAYLOAD == {"0.5": 24, "1": 56, "2": 112, "4": 240, "8": 496}


# ------------------------------------------------------------------------ ycsb

def test_ycsb_reports_both_variants(capsys):
    code, out = run_main(["ycsb", "--set-size", "64", "--ops", "400",
                          "--latency-ns", "800"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert [r[0] for r in rows[1:]] == ["single-trip-set", "two-round-set"]
    assert float(rows[1][3]) > float(rows[2][3])


# ------------------------------------------------------------------- crashtest

def test_crashtest_clean_suite_exits_zero(capsys):
    code, out = run_main(
        ["crashtest", f"{WORKLOADS}/three_appends.txt", "--algo", "cso-vb"],
        capsys)
    assert code == 0 and "0 violations" in out


def test_crashtest_broken_variant_exits_nonzero(capsys):
    code, out = run_main(
        ["crashtest", f"{WORKLOADS}/three_appends.txt", "--algo", "broken-vb"],
        capsys)
    assert code == 1 and "violations" in out


def test_crashtest_map_script(capsys):
    code, _ = run_main(["crashtest", f"{WORKLOADS}/map_smoke.txt"], capsys)
    assert code == 0


def test_crashtest_empty_script_exits_zero(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing\n")
    code, _ = run_main(["crashtest", str(p)], capsys)
    assert code == 0


def test_crashtest_trim_of_nothing_is_a_script_error(tmp_path, capsys):
    p = tmp_path / "trim0.txt"
    p.write_text("append " + "00" * 24 + "\ntrim 0\ntrim 1\n")
    code = main(["crashtest", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("script error: line 2: 'trim 0': ")
    assert "trim count 0 is not positive" in err


def test_crashtest_payload_the_log_cannot_hold(capsys):
    # a usage error (2), not a traceback, whose exit code 1 means violations
    code = main(["crashtest", f"{WORKLOADS}/three_appends.txt",
                 "--algo", "cso-vb", "--payload-bytes", "20"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "multiple of 8 bytes" in err


@pytest.mark.parametrize("text", ["U a b\nappend 00112233\n",
                                  "append 00112233\nG a\n"])
def test_crashtest_mixed_script_is_a_usage_error(text, tmp_path, capsys):
    p = tmp_path / "mixed.txt"
    p.write_text(text)
    code = main(["crashtest", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "log and map operations in one script" in err


def test_crashtest_read_mismatch_is_one_line(monkeypatch, capsys):
    # a `G` that disagrees with the model is a failure of the map (1), not
    # a traceback
    from nvlog.stps import PersistentHashMap
    monkeypatch.setattr(PersistentHashMap, "get", lambda self, key: b"wrong")
    code = main(["crashtest", f"{WORKLOADS}/map_smoke.txt"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines() == [out.strip()]
    assert out.startswith("stps: read of ") and "got b'wrong'" in out


@pytest.mark.parametrize("text, why", [
    ("".join(f"U k{i} v\n" for i in range(40)), "region exhausted"),
    (f"U {'k' * 80} v\n", "key length 80"),
], ids=["full-map", "long-key"])
def test_crashtest_map_the_script_overflows(text, why, tmp_path, capsys):
    p = tmp_path / "map.txt"
    p.write_text(text)
    code = main(["crashtest", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("cannot run the script on stps: ") and why in err


def test_crashtest_txn_naming_a_key_twice_is_a_usage_error(tmp_path, capsys):
    # recovery cannot order two values of one key in one transaction, so
    # the map refuses the transaction rather than recover the wrong one
    p = tmp_path / "txn.txt"
    p.write_text("crash exhaustive\nU a 1\nU b 1\nR a\nU b 2\nT z 1 z 2\n"
                 "G z\n")
    code = main(["crashtest", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("cannot run the script on stps: transaction names key "
                   "b'z' twice\n")


@pytest.mark.parametrize("count, why", [
    ("5", "cannot run the script on cso-vb: trim 5: only 1 live entries"),
    ("-1", "script error: line 2: 'trim -1': negative trim count -1"),
], ids=["past-live", "negative"])
def test_crashtest_bad_trim_is_a_usage_error(count, why, tmp_path, capsys):
    # exit 1 means violations found, so a bad trim must not escape with it
    p = tmp_path / "trim.txt"
    p.write_text(f"append {'00' * 24}\ntrim {count}\n")
    code = main(["crashtest", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.strip() == why


@pytest.mark.parametrize("directive, why", [
    ("at-op 7", "crash at-op 7: no such op in a 1-op script"),
    ("at-op -1", "crash at-op -1: no such op in a 1-op script"),
    ("sampled -5", "line 1: 'crash sampled -5': sample count -5 is not "
                   "positive"),
], ids=["past-the-end", "negative-op", "negative-samples"])
def test_crashtest_directive_that_checks_nothing(directive, why, tmp_path,
                                                 capsys):
    # such a script checks no crash state, so exit 0 would read as a pass
    p = tmp_path / "crash.txt"
    p.write_text(f"crash {directive}\nU a 1\n")
    code = main(["crashtest", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.strip() == f"script error: {why}"


NOT_UTF8 = b"\xff\xfe\x00append 00\n"


def test_crashtest_script_file_not_utf8(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(NOT_UTF8)
    code = main(["crashtest", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("script error: ") and "can't decode" in err
    assert err.splitlines() == [err.strip()]


def test_crashtest_stdin_not_utf8(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8),
                                                       encoding="utf-8"))
    code = main(["crashtest", "-"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("script error: ") and "can't decode" in err
    assert err.splitlines() == [err.strip()]


def test_crashtest_window_past_the_enumeration_limit(tmp_path, capsys):
    # one 496-byte tornbit append has too many crash states to walk
    p = tmp_path / "big.txt"
    p.write_text(f"crash exhaustive\nappend {'01' * 496}\n")
    code = main(["crashtest", str(p), "--algo", "tornbit",
                 "--payload-bytes", "496"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("tornbit: ")
    assert "4782969+ candidate cut tuples exceed limit 1048576" in err
    assert "`crash sampled K`" in err


def test_crashtest_finds_the_torn_state_crc32_accepts(tmp_path, capsys):
    # every crash state of an 8-line crc32 append is checked: for this
    # payload the checksum accepts one torn state
    rng = random.Random(127)
    payload = bytes(rng.getrandbits(8) for _ in range(496))
    p = tmp_path / "crc.txt"
    p.write_text(f"crash exhaustive\nappend {payload.hex()}\n")
    code = main(["crashtest", str(p), "--algo", "crc32",
                 "--payload-bytes", "496"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines()[0] == ("crc32: 1 ops, 43046721 distinct crash "
                                   "states, 1 violations")
    assert out.splitlines()[1].startswith(
        "  op 0 cuts [1:4 2:0 3:5 4:4 5:7 6:1 7:2 8:5] recovered ")


def test_crashtest_parse_error_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("frobnicate\n")
    code, _ = run_main(["crashtest", str(p)], capsys)
    assert code == 2


def test_crashtest_missing_file_exits_two(capsys):
    code, _ = run_main(["crashtest", "/no/such/script.txt"], capsys)
    assert code == 2


# --------------------------------------------------------------------- inspect

def test_inspect_matches_recover(tmp_path, capsys):
    mem = SimMemory(1024)
    log = ALGORITHMS["cso-vb"](mem, 0, 1024, 24)
    log.append(b"A" * 24)
    log.append(b"B" * 24)
    if mem.pending_flushes:
        mem.sfence()
    snap = tmp_path / "log.img"
    mem.snapshot_save(snap)
    code, out = run_main(["inspect", str(snap), "--algo", "cso-vb",
                          "--payload-bytes", "24"], capsys)
    assert code == 0
    assert out.count("entry #") == 2


def test_inspect_fresh_log_all_invalid(tmp_path, capsys):
    mem = SimMemory(512)
    ALGORITHMS["tornbit"](mem, 0, 512, 24)
    if mem.pending_flushes:
        mem.sfence()
    snap = tmp_path / "fresh.img"
    mem.snapshot_save(snap)
    code, out = run_main(["inspect", str(snap), "--algo", "tornbit",
                          "--payload-bytes", "24"], capsys)
    assert code == 0
    assert "entry #" not in out


def test_inspect_payload_the_log_cannot_hold(tmp_path, capsys):
    mem = SimMemory(1024)
    ALGORITHMS["cso-vb"](mem, 0, 1024, 24)
    if mem.pending_flushes:
        mem.sfence()
    snap = tmp_path / "log.img"
    mem.snapshot_save(snap)
    code = main(["inspect", str(snap), "--algo", "cso-vb",
                 "--payload-bytes", "20"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "multiple of 8 bytes" in err


def test_inspect_bad_snapshot(tmp_path, capsys):
    p = tmp_path / "junk.img"
    p.write_bytes(b"not a snapshot")
    code, _ = run_main(["inspect", str(p)], capsys)
    assert code == 2


@pytest.mark.parametrize("line_size, capacity", [(64, 100), (0, 256)])
def test_inspect_unloadable_geometry_exits_two(tmp_path, capsys, line_size,
                                               capacity):
    p = tmp_path / "odd.img"
    p.write_bytes(b"PCSO" + (1).to_bytes(4, "little")
                  + line_size.to_bytes(4, "little")
                  + capacity.to_bytes(8, "little") + bytes(capacity))
    code = main(["inspect", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "cannot load snapshot" in err


# ------------------------------------------------------------------ entry point

def test_console_script_help():
    # the child imports the package under test, installed or not
    src = str(Path(nvlog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "nvlog.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "bench" in proc.stdout and "crashtest" in proc.stdout
