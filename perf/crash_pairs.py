"""Paired CPU timing of nvbench's crash-check calls on two nvlog source trees.

    python3 perf/crash_pairs.py PARENT/src CHANGE/src -n 10
    python3 perf/crash_pairs.py src src -n 1 --checks cso-fvb/240@0

Runs `-n` pairs of child processes, one per tree, alternating which tree
runs first.  Each child imports nvlog from its tree only, builds ROUNDS
rounds of nvbench's crash-check scripts from SEED (`crash_scripts` from
`nvbench/workloads.py`, parsed as `crash_round` parses them) and times each
named check of each round by `time.process_time`, keeping the least over
the rounds.  Every child uses the same SEED, so both trees check the same
scripts.  A round's scripts differ only in their random payloads and
values, so every round of a check does the same work, and each round meets
the CRC line terms cold, as nvbench's rounds do.

Checks (`--checks`, default all):

  crc64/240@0    the crc64 240-B append/trim script at op 0
  stps/4@1       the 4-line map script at op 1
  cso-fvb/240@0  the cso-fvb 240-B append/trim script at op 0
  sampled/crc64  the crc64 sampled fill/drain/refill script
  round          every check of the round, summed

Prints per check each tree's min and median over its processes (each
process's value being its least round), the change's median over the
parent's, the parent's quartiles and the pairs the change won.  With
`--json FILE` it also writes those as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ("crc64/240@0", "stps/4@1", "cso-fvb/240@0", "sampled/crc64",
          "round")
SEED = 3
ROUNDS = 3


def _calls(round_scripts, seed, harness):
    """(check name, parsed script, suite kwargs) for every call of one
    round, in nvbench's order."""
    head = f"seed {seed}\n"
    for s in round_scripts:
        text = "\n".join(s["body"])
        kw = s["kw"]
        if "algo" in kw:
            name = f"{kw['algo']}/{kw['payload_len']}"
        else:
            name = f"stps/{kw['node_lines']}"
        if s["per_op"]:
            for i in range(len(s["body"])):
                yield (f"{name}@{i}", harness.parse_script(
                    f"{head}crash at-op {i}\n{text}"), kw)
        else:
            yield (f"sampled/{kw['algo']}", harness.parse_script(
                f"{head}crash sampled 500\n{text}"), kw)


def child(src: str, checks: list[str]) -> dict:
    """Least CPU seconds over ROUNDS rounds for each named check."""
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(ROOT / "nvbench"))
    import random

    import workloads
    from nvlog import harness

    rng = random.Random(SEED)
    best = dict.fromkeys(checks, float("inf"))
    for _ in range(ROUNDS):
        scripts = workloads.crash_scripts(rng)
        calls = list(_calls(scripts, rng.randrange(1 << 30), harness))
        total = 0.0
        for name, script, kw in calls:
            if name not in best and "round" not in best:
                continue
            t0 = time.process_time()
            harness.run_crash_suite(script, registry=harness.EXTRA_ALGORITHMS,
                                    **kw)
            dt = time.process_time() - t0
            total += dt
            if name in best:
                best[name] = min(best[name], dt)
        if "round" in best:
            best["round"] = min(best["round"], total)
    return best


def run_child(src: str, args) -> dict:
    cmd = [sys.executable, "-B", __file__, "--child", src, "--checks",
           ",".join(args.checks)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(proc.stdout.splitlines()[-1])


def summary(parent: list[dict], change: list[dict], checks) -> dict:
    out = {}
    for name in checks:
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        qa = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
        out[name] = dict(
            parent_min=min(a), parent_median=statistics.median(a),
            change_min=min(b), change_median=statistics.median(b),
            change_over_parent=statistics.median(b) / statistics.median(a),
            parent_iqr=[qa[0], qa[2]],
            change_better_pairs=f"{sum(y < x for x, y in zip(a, b))}/{len(a)}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", nargs="?", help="the parent tree's src directory")
    p.add_argument("change", nargs="?", help="the change tree's src directory")
    p.add_argument("-n", type=int, default=10, help="process pairs")
    p.add_argument("--checks", default=",".join(CHECKS))
    p.add_argument("--json", help="also write the table to this file")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.checks = args.checks.split(",")
    unknown = set(args.checks) - set(CHECKS)
    if unknown or args.n < 1:
        p.error(f"unknown checks {sorted(unknown)}" if unknown
                else "-n must be at least 1")
    if args.child:
        print(json.dumps(child(args.child, args.checks)))
        return 0
    if not (args.parent and args.change):
        p.error("give the parent and the change src directories")
    parent, change = [], []
    for i in range(args.n):
        sides = [(args.parent, parent), (args.change, change)]
        for src, runs in (sides if i % 2 == 0 else sides[::-1]):
            runs.append(run_child(src, args))
    table = summary(parent, change, args.checks)
    print(f"{'check':<15}{'parent min':>12}{'median':>10}{'change min':>12}"
          f"{'median':>10}{'ratio':>8}{'better':>8}")
    for name, row in table.items():
        print(f"{name:<15}{row['parent_min'] * 1e3:>10.1f}ms"
              f"{row['parent_median'] * 1e3:>8.1f}ms"
              f"{row['change_min'] * 1e3:>10.1f}ms"
              f"{row['change_median'] * 1e3:>8.1f}ms"
              f"{row['change_over_parent']:>8.3f}"
              f"{row['change_better_pairs']:>8}")
    if args.json:
        Path(args.json).write_text(json.dumps(dict(
            python=sys.version.split()[0], seed=SEED, pairs=args.n,
            rounds=ROUNDS, unit="CPU seconds (time.process_time)",
            checks=table), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
