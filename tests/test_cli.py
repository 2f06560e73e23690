"""Command-line front end: CSV schemas, determinism, exit codes, inspect."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nvlog
from nvlog.cli import ENTRY_PAYLOAD, main
from nvlog.logalg import make_log
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
    log = make_log("cso-vb", mem, 0, 1024, 24)
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
    make_log("tornbit", mem, 0, 512, 24)
    if mem.pending_flushes:
        mem.sfence()
    snap = tmp_path / "fresh.img"
    mem.snapshot_save(snap)
    code, out = run_main(["inspect", str(snap), "--algo", "tornbit",
                          "--payload-bytes", "24"], capsys)
    assert code == 0
    assert "entry #" not in out


def test_inspect_bad_snapshot(tmp_path, capsys):
    p = tmp_path / "junk.img"
    p.write_bytes(b"not a snapshot")
    code, _ = run_main(["inspect", str(p)], capsys)
    assert code == 2


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
