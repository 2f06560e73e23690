"""nvlog benchmark: log-append, kv-mixed and crash-check.

    python3 nvbench/run.py --workload log-append --seed 1 --seconds 36 --trace 0
    python3 nvbench/run.py              # all three workloads, untraced

Each workload runs in a fresh single-threaded process (`workloads.py`)
against this checkout's ``src/``.  Untraced runs (``--trace 0``) report the
end-to-end metrics listed in ``BENCHMARK.json``; a traced run (``--trace 1``)
runs the workload untraced and then traced, each for a third of
``--seconds``, with class-level wrappers from `tracing.py`, and reports the
per-layer metrics plus ``trace.overhead_frac``.

The command prints every metric by name and unit, every verification failure
(up to 20) with its op index, and provenance; it writes the full record to
``.nvbench/result-<workload>-seed<n>-trace<t>.json`` and, for a traced run,
the spans to ``.nvbench/trace-<workload>.tsv.gz``.  The last line of standard
output is the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".nvbench"
WORKLOADS = ("log-append", "kv-mixed", "crash-check")
TIME_LIMIT_S = 170     # a whole invocation of one workload
SHOWN_FAILURES = 20
TRACE_SHARE = 3        # a traced invocation runs each child for 1/3 of it


def provenance() -> dict:
    """The commit when the checkout is a git work tree, and a hash of the
    sources either way."""
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        commit = r.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def run_child(workload: str, seed: int, seconds: float, trace: int,
              deadline: float) -> dict:
    """Run one workload in its own process and return its record.  The
    hash seed is fixed so that dict layouts repeat from run to run."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"nvbench: {workload} did not finish in time")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"nvbench: {workload} exited with {r.returncode}")
    return json.loads(lines[-1])


def report(rec: dict, metrics: dict, prov: dict) -> None:
    print(f"nvbench {rec['workload']} seed {rec['seed']} trace {rec['trace']}"
          f" rounds {rec['rounds']} python {rec['python']} nproc "
          f"{rec['nproc']} commit {prov['commit']} src "
          f"{prov['src_sha256'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    fails = rec["failures"]
    known = sum(f["known"] for f in fails)
    print(f"  verification: {'correct' if rec['correct'] else 'INCORRECT'},"
          f" {rec['failed']} of {rec['attempted']} ops failed ({known} "
          f"failures are the known stps txn-reuse loss)")
    for f in fails[:SHOWN_FAILURES]:
        print(f"  failure {rec['workload']} op {f['op']}: {f['why']}")
    if len(fails) > SHOWN_FAILURES:
        print(f"  ... {len(fails) - SHOWN_FAILURES} more failures in the "
              f"result file")
    for note in rec["notes"]:
        print(f"  note: {note}")


def save(rec: dict, prov: dict, trace: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{rec['workload']}-seed{rec['seed']}-trace{trace}.json"
    path.write_text(json.dumps(dict(rec, **prov), indent=1))


def pick(values: dict, specs: list[dict], workload: str) -> dict:
    """The metrics named in BENCHMARK.json, as name -> {value, unit}."""
    out = {}
    for spec in specs:
        if spec["name"] not in values:
            raise SystemExit(f"nvbench: {workload} did not report "
                             f"{spec['name']}")
        value, unit = values[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"nvbench: {spec['name']} in {unit}, "
                             f"BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def bench(workload: str, seed: int, seconds: float, trace: int,
          spec: dict, prov: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        # the untraced half only gives trace.overhead_frac its base; the
        # traced half runs about twice as slowly
        seconds /= TRACE_SHARE
    plain = run_child(workload, seed, seconds, 0, deadline)
    report(plain, plain["end_to_end"], prov)
    save(plain, prov, 0)
    if not trace:
        return {"correct": plain["correct"], "attempted": plain["attempted"],
                "failed": plain["failed"],
                "metrics": pick(plain["end_to_end"], spec["end_to_end"],
                                workload)}
    traced = run_child(workload, seed, seconds, 1, deadline)
    overhead = (plain["end_to_end"]["ops_per_s"][0]
                / traced["end_to_end"]["ops_per_s"][0] - 1)
    layers = dict(traced["per_layer"])
    layers["trace.overhead_frac"] = (overhead, "ratio")
    report(traced, layers, prov)
    print(f"  spans: {traced['spans_written']} written to "
          f"{traced['trace_file']}, {traced['spans_dropped']} beyond the cap")
    save(traced, prov, 1)
    return {"correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": pick(layers, spec["per_layer"], workload)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nvlog" / "__init__.py").is_file():
        print(f"nvbench: no nvlog sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prov = provenance()
    if args.workload != "all":
        result = bench(args.workload, args.seed, args.seconds, args.trace,
                       spec, prov)
    else:
        parts = {w: bench(w, args.seed, args.seconds, args.trace, spec, prov)
                 for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in parts.values()),
            "attempted": sum(r["attempted"] for r in parts.values()),
            "failed": sum(r["failed"] for r in parts.values()),
            "metrics": {f"{w}.{name}": m for w, r in parts.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
