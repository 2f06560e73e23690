"""Command line front end: micro-benchmarks, a key-value workload runner,
crash-injection checks over workload scripts, and a snapshot inspector.

Reported "modeled" throughput charges each operation a fixed software cost
plus the memory's fenced round trips at the configured media latency, so the
relative cost of the algorithms' persistence protocols is visible without a
real device.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
import time

from .harness import (EXTRA_ALGORITHMS, ScriptError, csv_text, parse_script,
                      run_appends, run_crash_suite)
from .logalg import ALGORITHMS
from .logalg.base import LogError, UnrecoverableLogError
from .pmem import (EnumerationLimitError, SimMemory, SnapshotFormatError,
                   UsageError)
from .stps import PersistentHashMap, StpsError

# payload bytes that fit an entry of the given size in cache lines,
# after each algorithm family's metadata word(s)
ENTRY_PAYLOAD = {"0.5": 24, "1": 56, "2": 112, "4": 240, "8": 496}

BASE_NS_DEFAULT = 100     # fixed software cost per operation
FENCE_NS_DEFAULT = 200    # ordering cost per fenced round trip
BENCH_DRAIN = 512         # appends between full trims; the log holds two batches


def _open_csv(path: str | None):
    """The stream a command writes its CSV to, opened before the command
    does any work so that a bad path costs none: `path`, or stdout without
    one.  None, after one stderr line, if `path` cannot be opened."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror}", file=sys.stderr)
        return None


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
            round(ops * 1e9 / modeled_ns, 1) if modeled_ns else "",
            round(rtrips, 3)]


def cmd_bench(args) -> int:
    algos = args.algo.split(",") if args.algo else list(ALGORITHMS)
    sizes = args.entry_lines.split(",")
    for what, names, choices in (("algorithm", algos, ALGORITHMS),
                                 ("entry size", sizes, ENTRY_PAYLOAD)):
        unknown = [name for name in names if name not in choices]
        if unknown:
            print(f"unknown {what} {unknown[0]!r} "
                  f"(choices: {','.join(choices)})", file=sys.stderr)
            return 2
    out = _open_csv(args.csv)
    if out is None:
        return 2
    rows = [["algorithm", "payload_bytes", "latency_ns",
             "appends_per_sec_wallclock", "appends_per_sec_modeled",
             "roundtrips_per_append"]]
    with out as f:
        for algo in algos:
            for size in sizes:
                try:
                    rows.append(_bench_one(algo, ENTRY_PAYLOAD[size],
                                           args.latency_ns, args.ops,
                                           args.seed, args.fence_ns,
                                           args.base_ns))
                except LogError as exc:
                    print(f"skipping {algo}/{size}: {exc}", file=sys.stderr)
        f.write(csv_text(rows))
    return 0


# ----------------------------------------------------------------------- ycsb

def _run_kv(two_round: bool, set_size: int, ops: int, latency_ns: int,
            seed: int, node_lines: int, fence_ns: int, base_ns: int) -> list:
    slots = 2 * set_size + 64
    region = slots * node_lines * 64
    mem = SimMemory(region, latency_ns=latency_ns, fence_cost_ns=fence_ns)
    m = PersistentHashMap(mem, 0, region, node_lines=node_lines,
                          two_round_commit=two_round)
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
            round(ops * 1e9 / modeled_ns, 1) if modeled_ns else "",
            round(ops / wall, 1) if wall > 0 else ""]


def cmd_ycsb(args) -> int:
    out = _open_csv(args.csv)
    if out is None:
        return 2
    with out as f:
        rows = [_run_kv(tr, args.set_size, args.ops, args.latency_ns,
                        args.seed, args.node_lines, args.fence_ns,
                        args.base_ns)
                for tr in (False, True)]
        header = ["variant", "set_size", "latency_ns", "ops_per_sec_modeled",
                  "ops_per_sec_wallclock"]
        f.write(csv_text([header, *rows]))
    return 0


# ------------------------------------------------------------------ crashtest

def cmd_crashtest(args) -> int:
    try:
        if args.script == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.script, encoding="utf-8") as f:
                text = f.read()
        script = parse_script(text)
    except (OSError, UnicodeDecodeError, ScriptError) as exc:
        print(f"script error: {exc}", file=sys.stderr)
        return 2
    if args.exhaustive:
        script.mode = "exhaustive"
    target = args.algo if script.kind == "log" else "stps"
    try:
        report = run_crash_suite(script, algo=args.algo,
                                 payload_len=args.payload_bytes,
                                 node_lines=args.node_lines,
                                 registry=EXTRA_ALGORITHMS)
    except (LogError, StpsError) as exc:
        print(f"cannot run the script on {target}: {exc}", file=sys.stderr)
        return 2
    except EnumerationLimitError as exc:
        print(f"{target}: {exc}; use `crash sampled K` in the script "
              "instead", file=sys.stderr)
        return 2
    except ScriptError as exc:   # a `G` read disagreed with the model
        print(f"{target}: {exc}")
        return 1
    if args.csv:   # written after the run: a failed run leaves no file
        out = _open_csv(args.csv)
        if out is None:
            return 2
        with out as f:
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
    except (OSError, SnapshotFormatError, UsageError) as exc:
        print(f"cannot load snapshot: {exc}", file=sys.stderr)
        return 2
    try:
        log = EXTRA_ALGORITHMS[args.algo].attach(mem, 0, mem.capacity,
                                                 args.payload_bytes)
    except LogError as exc:
        print(f"cannot read the snapshot as {args.algo}: {exc}",
              file=sys.stderr)
        return 2
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

def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nvlog",
        description="durable log and hash map simulation tools")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, ops_default):
        sp.add_argument("--latency-ns", type=_non_negative_int, default=0,
                        help="modeled media write latency per round trip")
        sp.add_argument("--ops", type=_positive_int, default=ops_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--csv", metavar="PATH",
                        help="write results to a CSV file instead of stdout")
        sp.add_argument("--fence-ns", type=_non_negative_int,
                        default=FENCE_NS_DEFAULT)
        sp.add_argument("--base-ns", type=_non_negative_int,
                        default=BASE_NS_DEFAULT)

    b = sub.add_parser("bench", help="append micro-benchmark")
    b.add_argument("--algo", help="comma-separated algorithm names "
                   f"({','.join(ALGORITHMS)}); default all")
    b.add_argument("--entry-lines", default="0.5,1,2",
                   help="entry sizes in cache lines, comma separated")
    common(b, 10000)
    b.set_defaults(func=cmd_bench)

    y = sub.add_parser("ycsb", help="mixed read/update key-value workload")
    y.add_argument("--set-size", type=_positive_int, default=1000)
    y.add_argument("--node-lines", type=_positive_int, default=1)
    common(y, 10000)
    y.set_defaults(func=cmd_ycsb)

    c = sub.add_parser("crashtest", help="run a crash-injection script")
    c.add_argument("script", help="workload script path, or - for stdin")
    c.add_argument("--algo", default="cso-vb",
                   choices=sorted(EXTRA_ALGORITHMS))
    c.add_argument("--payload-bytes", type=int, default=24)
    c.add_argument("--node-lines", type=_positive_int, default=1)
    c.add_argument("--exhaustive", action="store_true",
                   help="force exhaustive enumeration of every window")
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
