"""Command line front end: micro-benchmarks, a key-value workload runner,
crash-injection checks over workload scripts, and a snapshot inspector.

Reported "modeled" throughput charges each operation a fixed software cost
plus the memory's fenced round trips at the configured media latency, so the
relative cost of the algorithms' persistence protocols is visible without a
real device.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time

from .harness import (EXTRA_ALGORITHMS, ScriptError, parse_script,
                      run_appends, run_crash_suite)
from .logalg import ALGORITHMS
from .logalg.base import LogError, UnrecoverableLogError
from .pmem import SimMemory, SnapshotFormatError
from .stps import PersistentHashMap

# payload bytes that fit an entry of the given size in cache lines,
# after each algorithm family's metadata word(s)
ENTRY_PAYLOAD = {"0.5": 24, "1": 56, "2": 112, "4": 240, "8": 496}

BASE_NS_DEFAULT = 100     # fixed software cost per operation
FENCE_NS_DEFAULT = 200    # ordering cost per fenced round trip
BENCH_DRAIN = 512         # appends between full trims; the log holds two batches


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if path:
            out.close()


# ----------------------------------------------------------------------- bench

def _bench_one(algo: str, payload_len: int, latency_ns: int, ops: int,
               seed: int, fence_ns: int, base_ns: int) -> list:
    log = ALGORITHMS[algo].fresh(payload_len, 2 * BENCH_DRAIN,
                                 latency_ns=latency_ns, fence_cost_ns=fence_ns)
    stats = log.mem.stats
    rng = random.Random(seed)
    payload = bytes(rng.randrange(256) for _ in range(payload_len))
    t0_time = stats.simulated_time_ns
    wall0 = time.perf_counter()
    append_rt = run_appends(log, payload, ops, BENCH_DRAIN)
    wall = time.perf_counter() - wall0
    sim_ns = stats.simulated_time_ns - t0_time
    modeled_ns = ops * base_ns + sim_ns
    rtrips = append_rt / ops
    return [algo, payload_len, latency_ns,
            round(ops / wall, 1) if wall > 0 else "",
            round(ops * 1e9 / modeled_ns, 1),
            round(rtrips, 3)]


def cmd_bench(args) -> int:
    algos = args.algo.split(",") if args.algo else list(ALGORITHMS)
    sizes = args.entry_lines.split(",")
    rows = []
    for algo in algos:
        for size in sizes:
            if size not in ENTRY_PAYLOAD:
                print(f"unknown entry size {size!r} "
                      f"(choices: {','.join(ENTRY_PAYLOAD)})", file=sys.stderr)
                return 2
            payload = ENTRY_PAYLOAD[size]
            try:
                rows.append(_bench_one(algo, payload, args.latency_ns,
                                       args.ops, args.seed, args.fence_ns,
                                       args.base_ns))
            except (KeyError, LogError) as exc:
                print(f"skipping {algo}/{size}: {exc}", file=sys.stderr)
    _write_csv(args.csv, ["algorithm", "payload_bytes", "latency_ns",
                          "appends_per_sec_wallclock",
                          "appends_per_sec_modeled",
                          "roundtrips_per_append"], rows)
    return 0


# ----------------------------------------------------------------------- ycsb

def _run_kv(two_round: bool, set_size: int, ops: int, latency_ns: int,
            seed: int, node_lines: int, fence_ns: int, base_ns: int) -> list:
    slots = 2 * set_size + 64
    region = slots * node_lines * 64
    nbuckets = 1 << max(4, (set_size - 1).bit_length())
    mem = SimMemory(region, latency_ns=latency_ns, fence_cost_ns=fence_ns)
    m = PersistentHashMap(mem, 0, region, node_lines=node_lines,
                          nbuckets=nbuckets, two_round_commit=two_round)
    keys = [f"key{i:06d}".encode() for i in range(set_size)]
    for k in keys:
        m.update(k, b"v0")
    t0_time = mem.stats.simulated_time_ns
    rng = random.Random(seed)
    wall0 = time.perf_counter()
    for i in range(ops):
        k = keys[rng.randrange(set_size)]
        if rng.random() < 0.5:
            m.get(k)
        else:
            m.update(k, b"v%d" % i)
    wall = time.perf_counter() - wall0
    modeled_ns = ops * base_ns + (mem.stats.simulated_time_ns - t0_time)
    variant = "two-round-set" if two_round else "single-trip-set"
    return [variant, set_size, latency_ns,
            round(ops * 1e9 / modeled_ns, 1),
            round(ops / wall, 1) if wall > 0 else ""]


def cmd_ycsb(args) -> int:
    rows = [_run_kv(tr, args.set_size, args.ops, args.latency_ns, args.seed,
                    args.node_lines, args.fence_ns, args.base_ns)
            for tr in (False, True)]
    _write_csv(args.csv, ["variant", "set_size", "latency_ns",
                          "ops_per_sec_modeled", "ops_per_sec_wallclock"],
               rows)
    return 0


# ------------------------------------------------------------------ crashtest

def cmd_crashtest(args) -> int:
    try:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            text = open(args.script).read()
        script = parse_script(text)
    except (OSError, ScriptError) as exc:
        print(f"script error: {exc}", file=sys.stderr)
        return 2
    if args.exhaustive:
        script.mode = "exhaustive"
    report = run_crash_suite(script, algo=args.algo,
                             payload_len=args.payload_bytes,
                             node_lines=args.node_lines,
                             registry=EXTRA_ALGORITHMS)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(report.to_csv())
    print(f"{report.target}: {report.ops_run} ops, "
          f"{report.distinct_states} distinct crash states, "
          f"{len(report.violations)} violations")
    for v in report.violations[:20]:
        cuts = " ".join(f"{ln}:{c}" for ln, c in v.cuts)
        print(f"  op {v.op_index} cuts [{cuts}] recovered {v.recovered!r}")
    return 0 if report.ok else 1


# -------------------------------------------------------------------- inspect

def cmd_inspect(args) -> int:
    try:
        mem = SimMemory.snapshot_load(args.snapshot)
    except (OSError, SnapshotFormatError) as exc:
        print(f"cannot load snapshot: {exc}", file=sys.stderr)
        return 2
    cls = EXTRA_ALGORITHMS[args.algo]
    log = cls.attach(mem, 0, mem.capacity, args.payload_bytes)
    word = mem.load_word(0)
    print(f"capacity {mem.capacity} line {mem.line_size} "
          f"head word {word:#018x}")
    try:
        entries = log.recover()
    except UnrecoverableLogError as exc:
        print(f"unrecoverable: {exc}")
        return 1
    print(f"head {log.head} tail {log.tail} used {log.used} "
          f"of {log.nslots} slots")
    valid = {e.slot: e for e in entries}
    for slot in range(log.nslots):
        e = valid.get(slot)
        first = mem.load(log.slot_addr(slot), 16).hex()
        mark = f"entry #{e.rank}" if e else "-"
        print(f"  slot {slot:4d}  {first}  {mark}")
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nvlog",
        description="durable log and hash map simulation tools")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, ops_default):
        sp.add_argument("--latency-ns", type=int, default=0,
                        help="modeled media write latency per round trip")
        sp.add_argument("--ops", type=int, default=ops_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--csv", metavar="PATH",
                        help="write results to a CSV file instead of stdout")
        sp.add_argument("--fence-ns", type=int, default=FENCE_NS_DEFAULT)
        sp.add_argument("--base-ns", type=int, default=BASE_NS_DEFAULT)

    b = sub.add_parser("bench", help="append micro-benchmark")
    b.add_argument("--algo", help="comma-separated algorithm names "
                   f"({','.join(ALGORITHMS)}); default all")
    b.add_argument("--entry-lines", default="0.5,1,2",
                   help="entry sizes in cache lines, comma separated")
    common(b, 10000)
    b.set_defaults(func=cmd_bench)

    y = sub.add_parser("ycsb", help="mixed read/update key-value workload")
    y.add_argument("--set-size", type=int, default=1000)
    y.add_argument("--node-lines", type=int, default=1)
    common(y, 10000)
    y.set_defaults(func=cmd_ycsb)

    c = sub.add_parser("crashtest", help="run a crash-injection script")
    c.add_argument("script", help="workload script path, or - for stdin")
    c.add_argument("--algo", default="cso-vb",
                   choices=sorted(EXTRA_ALGORITHMS))
    c.add_argument("--payload-bytes", type=int, default=24)
    c.add_argument("--node-lines", type=int, default=1)
    c.add_argument("--exhaustive", action="store_true",
                   help="force per-operation exhaustive enumeration")
    c.add_argument("--csv", metavar="PATH")
    c.set_defaults(func=cmd_crashtest)

    i = sub.add_parser("inspect", help="decode a memory snapshot")
    i.add_argument("snapshot")
    i.add_argument("--algo", default="cso-vb",
                   choices=sorted(EXTRA_ALGORITHMS))
    i.add_argument("--payload-bytes", type=int, default=24)
    i.set_defaults(func=cmd_inspect)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
