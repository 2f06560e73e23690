"""Pinned crash verdicts: a SHA-256 over `run_crash_suite` reports.

Each case hashes, per report, `states_checked`, `distinct_states` and every
violation's op index, cuts, recovered value and legal states, so a change to
the crash engine that alters any verdict, count or order fails here.  The
cases cover the shipped log scripts under every registered algorithm at
24/56/112 B (atlas at 24 B only) in their own mode, exhaustively and at each
op; the shipped map script at 1/2/4-line nodes in the same modes; and
nvbench-shaped 240-B append/trim checks at op 0.
"""

import hashlib
import random
from pathlib import Path

import pytest

import nvlog
from conftest import widened
from nvlog.harness import EXTRA_ALGORITHMS, parse_script, run_crash_suite

WORKLOADS = Path(nvlog.__file__).parent / "workloads"


def _digest(runs, every_mode=True) -> str:
    """SHA-256 over the reports of `runs`, (script text, suite kwargs)
    pairs, each run in its own mode and, with `every_mode`, exhaustively
    and at each op."""
    h = hashlib.sha256()
    for text, kw in runs:
        script = parse_script(text)
        modes = [(script.mode, script.mode_arg)]
        if every_mode:
            modes += [("exhaustive", 0),
                      *(("at-op", i) for i in range(len(script.ops)))]
        for mode, arg in modes:
            script.mode, script.mode_arg = mode, arg
            report = run_crash_suite(script, registry=EXTRA_ALGORITHMS, **kw)
            h.update(repr((mode, arg, report.states_checked,
                           report.distinct_states,
                           [(v.op_index, v.cuts, v.recovered, v.legal)
                            for v in report.violations])).encode())
    return h.hexdigest()


def _log_runs(name: str):
    text = (WORKLOADS / f"{name}.txt").read_text()
    return [(widened(text, size), dict(algo=algo, payload_len=size))
            for algo in sorted(EXTRA_ALGORITHMS)
            for size in (24, 56, 112) if size == 24 or algo != "atlas"]


def _map_runs():
    text = (WORKLOADS / "map_smoke.txt").read_text()
    return [(text, dict(node_lines=lines)) for lines in (1, 2, 4)]


def _four_line_runs():
    rng = random.Random(20)
    return [(f"seed 5\ncrash at-op 0\nappend {rng.randbytes(240).hex()}\n"
             "trim", dict(algo=algo, payload_len=240))
            for algo in ("cso-fvb", "crc64", "tornbit", "two-rounds")]


# case -> (its runs, whether each runs in every mode, pinned digest)
CASES = {
    "three_appends": (lambda: _log_runs("three_appends"), True,
                      "5cd3bd9bcc2385926435c52b40dfdaa3"
                      "7c05204ca38a21d2bc2522abdffe7e40"),
    "wraparound": (lambda: _log_runs("wraparound"), True,
                   "766fa2e9640e3afa16159236769068ec"
                   "c99aa0c9accb666b996390ede1f3a3b8"),
    "map_smoke": (_map_runs, True,
                  "003ca4d9530671bc7ec40d4c70400d08"
                  "aacd3eca563ad141a7f0df1e6b9beeb2"),
    "four_line_240": (_four_line_runs, False,
                      "b3326d4f9d119f59afac591cc10ec5ca"
                      "60308acfd22eefa1ad7ff2f33c18fb79"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_crash_reports_match_pinned_digest(case):
    runs, every_mode, pinned = CASES[case]
    assert _digest(runs(), every_mode) == pinned
