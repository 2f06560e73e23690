"""`perf/crash_pairs.py`, the paired crash-check timer: one named check on
one pair of processes, this checkout's sources against themselves."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "perf" / "crash_pairs.py"


def run_tool(*args):
    return subprocess.run([sys.executable, "-B", str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_one_check_on_one_pair(tmp_path):
    out = tmp_path / "pairs.json"
    src = str(ROOT / "src")
    proc = run_tool(src, src, "-n", "1", "--checks", "cso-fvb/240@0",
                    "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split()[0] == "check" and row.split()[0] == "cso-fvb/240@0"
    table = json.loads(out.read_text())
    assert table["pairs"] == 1 and list(table["checks"]) == ["cso-fvb/240@0"]
    check = table["checks"]["cso-fvb/240@0"]
    assert 0 < check["parent_min"] < 1 and 0 < check["change_min"] < 1
    assert check["change_better_pairs"] in ("0/1", "1/1")


def test_unknown_check_is_a_usage_error():
    proc = run_tool("src", "src", "--checks", "crc64/240@9")
    assert proc.returncode == 2 and "unknown checks" in proc.stderr
