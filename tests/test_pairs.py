"""`perf/pairs.py`, the paired CPU timer: one named probe on one pair of
processes, this checkout's sources against themselves."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nvlog.harness import EXTRA_ALGORITHMS

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "perf" / "pairs.py"


def run_tool(*args):
    return subprocess.run([sys.executable, "-B", str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("probe", ["cso-fvb/240@0", "store_words/56",
                                   "recover/crc64"])
def test_one_probe_on_one_pair(tmp_path, probe):
    out = tmp_path / "pairs.json"
    src = str(ROOT / "src")
    proc = run_tool(src, src, "-n", "1", "--probes", probe,
                    "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split()[0] == "probe" and row.split()[0] == probe
    table = json.loads(out.read_text())
    assert table["pairs"] == 1 and list(table["probes"]) == [probe]
    assert table["peak_rss_mb"]["parent"] > 0
    timing = table["probes"][probe]
    assert 0 < timing["parent_min"] < 1 and 0 < timing["change_min"] < 1
    assert timing["change_better_pairs"] in ("0/1", "1/1")


def test_unknown_probe_is_a_usage_error():
    proc = run_tool("src", "src", "--probes", "crc64/240@9")
    assert proc.returncode == 2 and "unknown probes" in proc.stderr


def test_a_recovery_probe_per_log():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    assert pairs.RECOVER_PROBES == tuple(f"recover/{algo}"
                                         for algo in EXTRA_ALGORITHMS)
