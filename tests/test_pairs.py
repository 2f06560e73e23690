"""`perf/pairs.py`, the paired CPU timer: one named probe on one pair of
processes, this checkout's sources against themselves, and the gain rule
on made-up process results."""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nvlog import harness
from nvlog.harness import EXTRA_ALGORITHMS
from nvlog.pmem import SimMemory

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "perf" / "pairs.py"


def run_tool(*args):
    return subprocess.run([sys.executable, "-B", str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("probe", ["cso-fvb/240@0", "tornbit/240@0",
                                   "two-rounds/240@0", "stps/4@2",
                                   "cso-random/112@4",
                                   "crash/slowest-at-op", "store_words/56",
                                   "recover/crc64", "crash/sample-source"])
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


def pairs_module():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def test_the_sample_source_probe_draws_only_the_public_sampler(monkeypatch):
    # a pair runs the probe on both trees, so it may call only a sampler
    # both have: `SimMemory.sample_crash_state`, once per timed sample
    drawn = []
    sample = SimMemory.sample_crash_state

    def counted(mem, rng, at_least_durable=False):
        drawn.append(sample(mem, rng, at_least_durable))
        return drawn[-1]

    monkeypatch.setattr(SimMemory, "sample_crash_state", counted)
    script = harness.parse_script(f"seed 3\ncrash sampled 200\n"
                                  f"append {'ab' * 24}\ntrim")
    seconds = pairs_module()._sample_source(
        harness, script, dict(algo="crc64", payload_len=24), 200)
    assert seconds > 0 and len(drawn) == 200
    assert len({state.cuts for state in drawn}) > 1


def child_runs(values):
    return [{"probes": {"p": v}, "peak_rss_mb": 50.0} for v in values]


def test_gain_rule_pairs_a_slow_parent_process_away():
    # the change halves every pair; one parent process ran 3x slow
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 3.0, 1.0, 1.03, 0.97, 1.0]
    change = [x / 2 for x in parent[:5]] + [0.5] + [x / 2 for x in parent[6:]]
    row = pairs_module().summary(child_runs(parent), child_runs(change),
                                 ["p"])["p"]
    assert row["change_better_pairs"] == "10/10" and row["gain_rule"]


def test_gain_rule_pairs_away_a_drifting_host():
    # the host's speed drifts threefold between pairs and the change halves
    # each pair: the parent's own spread is wider than the gap between the
    # medians, the paired differences' is not
    parent = [1.0 + 0.2 * i for i in range(10)]
    change = [x / 2 for x in parent]
    pairs = pairs_module()
    row = pairs.summary(child_runs(parent), child_runs(change), ["p"])["p"]
    q = pairs.statistics.quantiles(parent, n=4)
    assert row["parent_median"] - row["change_median"] < q[2] - q[0]
    assert row["gain_rule"]


def test_gain_rule_reads_no_gain_between_equal_trees():
    rng = random.Random(5)
    parent = [rng.uniform(0.9, 1.1) for _ in range(10)]
    change = [rng.uniform(0.9, 1.1) for _ in range(10)]
    row = pairs_module().summary(child_runs(parent), child_runs(change),
                                 ["p"])["p"]
    assert not row["gain_rule"]
