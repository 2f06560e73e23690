"""Paired CPU timing of nvlog's write path and crash checker on two
source trees.

    python3 perf/pairs.py PARENT/src CHANGE/src -n 10
    python3 perf/pairs.py src src -n 1 --probes store_words/56,kv/round

Runs `-n` pairs of child processes, one per tree, alternating which tree
runs first.  Each child imports nvlog from its tree only and times each
named probe by `time.process_time` ROUNDS times, keeping the least.  Every
child uses the same SEED, so both trees do the same work.

Per-call probes (CPU seconds per call, over CALLS calls on a 64-line
memory whose lines each already hold records):

  store/3            a 3-byte `store`
  store_word         `store_word`
  store_words/56     a 56-byte run at 8 bytes into a line (one line)
  store_words/248    a 248-byte run at 8 bytes into a line (four lines)
  store_words/496    a 496-byte run at 8 bytes into a line (eight lines)
  clflushopt         `clflushopt` of a written line
  flush_range/1      `flush_range` over one line
  flush_range/8      `flush_range` over eight lines
  clflushopt+sfence  `clflushopt` of a written line, then the `sfence`
                     that fences it (a fence works only over flushed lines,
                     so it is timed with the flush that gives it one)

Workload probes (CPU seconds per round), built from SEED with nvbench's
generators (`nvbench/workloads.py`), so a round does what nvbench's does:

  kv/round           one kv-mixed round's map operations (`kv_ops`),
                     the preload untimed
  log/cso-fvb        one `log_pair`'s 1280 appends and trims, cso-fvb 496 B
  log/crc64          the same for crc64 at 240 B

Recovery probes (CPU seconds per recovered entry), one per log of
`harness.EXTRA_ALGORITHMS`, at the payload size of crash-check's per-op
log scripts (24 B for atlas, 112 B for the others):

  recover/ALGO       `attach` and `recover` of a full 16-slot log, RECOVERS
                     times in a row on its own memory, over the entries
                     recovered (a crc log's line terms are warm after the
                     first)

Crash-check probes (CPU seconds per call), each round built from
`crash_scripts` and parsed as `crash_round` parses them; a round's scripts
differ only in their random payloads and values, so every round of a check
does the same work, and each meets the CRC line terms cold, as nvbench's
rounds do:

  crc64/240@0        the crc64 240-B append/trim script at op 0
  stps/4@1           the 4-line map script at op 1
  stps/4@2           the 4-line map script at op 2
  cso-fvb/240@0      the cso-fvb 240-B append/trim script at op 0
  tornbit/240@0      the tornbit 240-B append/trim script at op 0
  two-rounds/240@0   the two-rounds 240-B append/trim script at op 0
  sampled/crc64      the crc64 sampled fill/drain/refill script
  cso-random/112@4   the cso-random 112-B script at op 4, the round's one
                     window that several ops wrote (a trim's unfenced
                     refill and the next append), which is listed
  crash/slowest-at-op  the round's slowest at-op check, whichever it is:
                     nvbench's crash-check op_p99 is about the slowest
                     check type's time, since a run repeats each check
                     once a round
  crash/per-op       every at-op check of the round, summed
  crash/sampled      the round's eight sampled checks, summed
  crash/round        every check of the round, summed
  crash/sample-source  the public sampler on the round's eight sampled
                     windows, summed: CC_SAMPLES calls of
                     `sample_crash_state(rng)`, rng `Random(seed)`, on
                     each script's one window (running its ops and
                     building the window are not timed)

Prints per probe each tree's min and median over its processes (each
process's value being its least round), the change's median over the
parent's, the pairs the change won, and whether the change passes the
gain rule, judged on the paired differences (parent minus change, one per
pair): the change wins at least nine tenths of the pairs, and the median
difference is larger than the differences' interquartile range.  Pairing
keeps one slow process, or the host's speed drifting between pairs, from
widening the spread that the gain is measured against.
`--json FILE` also writes those, the host, Python, SEED and each tree's
peak RSS, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALL_PROBES = ("store/3", "store_word", "store_words/56", "store_words/248",
               "store_words/496", "clflushopt", "flush_range/1",
               "flush_range/8", "clflushopt+sfence")
WORKLOAD_PROBES = ("kv/round", "log/cso-fvb", "log/crc64")
RECOVER_PROBES = ("recover/cso-vb", "recover/cso-random", "recover/cso-fvb",
                  "recover/tornbit", "recover/crc32", "recover/crc64",
                  "recover/two-rounds", "recover/atlas", "recover/broken-vb")
CRASH_PROBES = ("crc64/240@0", "stps/4@1", "stps/4@2", "cso-fvb/240@0",
                "tornbit/240@0", "two-rounds/240@0", "sampled/crc64",
                "cso-random/112@4", "crash/slowest-at-op", "crash/per-op", "crash/sampled",
                "crash/round", "crash/sample-source")
# sums over a round's calls: each call counts in its half (per-op or
# sampled) and in the whole round
SUMS = ("crash/per-op", "crash/sampled", "crash/round")
SLOWEST = "crash/slowest-at-op"
PROBES = CALL_PROBES + WORKLOAD_PROBES + RECOVER_PROBES + CRASH_PROBES
SEED = 3
ROUNDS = 3
CALLS = 20000
LINES = 64
RECOVERS = 50


# ------------------------------------------------------------ per call

def _memory(pmem):
    """A 64-line memory with one record in each line."""
    mem = pmem.SimMemory(LINES * pmem.LINE_SIZE)
    for line in range(LINES):
        mem.store(line * pmem.LINE_SIZE, b"\1")
    return mem


def _per_call(pmem, probe: str) -> float:
    """CPU seconds per call of one per-call probe, over CALLS calls, the
    loop that makes them included."""
    mem = _memory(pmem)
    size = pmem.LINE_SIZE
    name, _, arg = probe.partition("/")
    lines = [i % LINES for i in range(CALLS)]
    if name == "clflushopt+sfence":
        flush, fence = mem.clflushopt, mem.sfence
        t0 = time.process_time()
        for line in lines:
            flush(line)
            fence()
        return (time.process_time() - t0) / CALLS
    if name == "store":
        call, args = mem.store, [(line * size + 8, b"abc") for line in lines]
    elif name == "store_word":
        call, args = mem.store_word, [(line * size + 8, line)
                                      for line in lines]
    elif name == "store_words":
        data = bytes(int(arg))
        fit = LINES - (len(data) + 8 - 1) // size   # first lines it fits at
        call, args = mem.store_words, [((line % fit) * size + 8, data)
                                       for line in lines]
    elif name == "clflushopt":
        call, args = mem.clflushopt, [(line,) for line in lines]
    else:   # flush_range over `arg` lines
        nbytes = int(arg) * size
        fit = LINES - int(arg) + 1
        call, args = mem.flush_range, [((line % fit) * size, nbytes)
                                       for line in lines]
    t0 = time.process_time()
    for a in args:
        call(*a)
    return (time.process_time() - t0) / CALLS


# ------------------------------------------------------------ workloads

def _kv_round(workloads, rng) -> float:
    """CPU seconds of one nvbench kv-mixed round's operations."""
    from nvlog.pmem import SimMemory
    from nvlog.stps import PersistentHashMap

    region = (2 * workloads.KV_KEYS + 64) * 64
    keys = [f"key{i:06d}".encode() for i in range(workloads.KV_KEYS)]
    preload = [(k, rng.randbytes(6).hex().encode()) for k in keys]
    ops = workloads.kv_ops(rng, keys, workloads.KV_OPS)
    mem = SimMemory(region, latency_ns=workloads.LATENCY_NS,
                    fence_cost_ns=workloads.FENCE_NS)
    m = PersistentHashMap(mem, 0, region, node_lines=1)
    for k, v in preload:
        m.update(k, v)
    get, update, remove, txn = m.get, m.update, m.remove, m.txn_update
    t0 = time.process_time()
    for op in ops:
        kind = op[0]
        if kind == "G":
            get(op[1])
        elif kind == "U":
            update(op[1], op[2])
        elif kind == "R":
            remove(op[1])
        else:
            txn(op[1])
    return time.process_time() - t0


def _log_round(workloads, rng, algo: str) -> float:
    """CPU seconds of one nvbench `log_pair`'s appends and trims."""
    from nvlog.logalg import ALGORITHMS
    from nvlog.logalg.base import HEADER_BYTES
    from nvlog.pmem import SimMemory

    payload_len = next(n for a, _, n in workloads.LOG_PAIRS if a == algo)
    cls = ALGORITHMS[algo]
    payloads = [rng.randbytes(payload_len)
                for _ in range(workloads.APPENDS)]
    region = (HEADER_BYTES + 2 * workloads.DRAIN
              * workloads._slot_size(cls, payload_len))
    mem = SimMemory(region, latency_ns=workloads.LATENCY_NS,
                    fence_cost_ns=workloads.FENCE_NS)
    log = cls(mem, 0, region, payload_len)
    if mem.pending_flushes:
        mem.sfence()
    handles = []
    t0 = time.process_time()
    for payload in payloads:
        handles.append(log.append(payload))
        if len(handles) >= workloads.DRAIN:
            log.trim(handles[-1])
            handles.clear()
    return time.process_time() - t0


def _recover_per_entry(harness, algo: str) -> float:
    """CPU seconds per recovered entry of a full 16-slot log, attached and
    recovered RECOVERS times."""
    cls = harness.EXTRA_ALGORITHMS[algo]
    payload_len = 24 if algo == "atlas" else 112
    log = cls.fresh(payload_len, 16)
    rng = random.Random(SEED)
    for _ in range(log.nslots):
        log.append(rng.randbytes(payload_len))
    mem, size = log.mem, log.size
    t0 = time.process_time()
    for _ in range(RECOVERS):
        entries = cls.attach(mem, 0, size, payload_len).recover()
    dt = time.process_time() - t0
    assert len(entries) == log.nslots
    return dt / (RECOVERS * len(entries))


# ---------------------------------------------------------- crash check

def _calls(round_scripts, seed, harness, samples):
    """(probe name, parsed script, suite kwargs) for every call of one
    crash-check round, in nvbench's order."""
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
                f"{head}crash sampled {samples}\n{text}"), kw)


def _sample_source(harness, script, kw, samples) -> float:
    """CPU seconds of `samples` calls of the public sampler on a
    sampled script's one window; the window is built untimed."""
    target = harness._LogTarget(kw["algo"], kw["payload_len"], 16,
                                harness.EXTRA_ALGORITHMS)
    mem = target.mem
    mem.checkpoint()
    for op in script.ops:
        target.run_op(op)
    mem._window()
    sample, rng = mem.sample_crash_state, random.Random(script.seed)
    t0 = time.process_time()
    for _ in range(samples):
        sample(rng)
    return time.process_time() - t0


def _crash_round(workloads, harness, rng, best: dict) -> None:
    """Time one crash-check round's named calls into `best`."""
    scripts = workloads.crash_scripts(rng)
    totals = dict.fromkeys(SUMS, 0.0)
    source = slowest = 0.0
    for name, script, kw in _calls(scripts, rng.randrange(1 << 30), harness,
                                   workloads.CC_SAMPLES):
        half = "crash/sampled" if name.startswith("sampled/") else "crash/per-op"
        if half == "crash/sampled" and "crash/sample-source" in best:
            source += _sample_source(harness, script, kw, workloads.CC_SAMPLES)
        per_op = half == "crash/per-op"
        if not ({name, half, "crash/round"} & best.keys()
                or per_op and SLOWEST in best):
            continue
        t0 = time.process_time()
        harness.run_crash_suite(script, registry=harness.EXTRA_ALGORITHMS,
                                **kw)
        dt = time.process_time() - t0
        totals[half] += dt
        totals["crash/round"] += dt
        if per_op:
            slowest = max(slowest, dt)
        if name in best:
            best[name] = min(best[name], dt)
    for name, total in (*totals.items(), ("crash/sample-source", source),
                        (SLOWEST, slowest)):
        if name in best:
            best[name] = min(best[name], total)


# ---------------------------------------------------------------- child

def child(src: str, probes: list[str]) -> dict:
    """Least CPU seconds over ROUNDS rounds for each named probe, and the
    process's peak RSS in MB."""
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(ROOT / "nvbench"))
    import workloads
    from nvlog import harness, pmem

    best = dict.fromkeys(probes, float("inf"))
    for probe in probes:
        if probe in CALL_PROBES:
            best[probe] = min(_per_call(pmem, probe) for _ in range(ROUNDS))
        elif probe == "kv/round":
            rng = random.Random(SEED)
            best[probe] = min(_kv_round(workloads, rng)
                              for _ in range(ROUNDS))
        elif probe.startswith("log/"):
            rng = random.Random(SEED)
            best[probe] = min(_log_round(workloads, rng, probe[4:])
                              for _ in range(ROUNDS))
        elif probe in RECOVER_PROBES:
            best[probe] = min(_recover_per_entry(harness, probe[8:])
                              for _ in range(ROUNDS))
    crash = {p: best[p] for p in probes if p in CRASH_PROBES}
    if crash:
        rng = random.Random(SEED)
        for _ in range(ROUNDS):
            _crash_round(workloads, harness, rng, crash)
        best.update(crash)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"probes": best, "peak_rss_mb": rss}


def run_child(src: str, args) -> dict:
    cmd = [sys.executable, "-B", __file__, "--child", src, "--probes",
           ",".join(args.probes)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(proc.stdout.splitlines()[-1])


def summary(parent: list[dict], change: list[dict], probes) -> dict:
    out = {}
    for name in probes:
        a = [run["probes"][name] for run in parent]
        b = [run["probes"][name] for run in change]
        diffs = [x - y for x, y in zip(a, b)]   # parent minus change
        qd = statistics.quantiles(diffs, n=4) if len(a) > 1 else [diffs[0]] * 3
        better = sum(d > 0 for d in diffs)
        gap = statistics.median(diffs)
        out[name] = dict(
            parent_min=min(a), parent_median=statistics.median(a),
            change_min=min(b), change_median=statistics.median(b),
            change_over_parent=statistics.median(b) / statistics.median(a),
            diff_median=gap, diff_iqr=[qd[0], qd[2]],
            change_better_pairs=f"{better}/{len(a)}",
            gain_rule=10 * better >= 9 * len(a) and gap > qd[2] - qd[0])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", nargs="?", help="the parent tree's src directory")
    p.add_argument("change", nargs="?", help="the change tree's src directory")
    p.add_argument("-n", type=int, default=10, help="process pairs")
    p.add_argument("--probes", default=",".join(PROBES))
    p.add_argument("--json", help="also write the table to this file")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.probes = args.probes.split(",")
    unknown = set(args.probes) - set(PROBES)
    if unknown or args.n < 1:
        p.error(f"unknown probes {sorted(unknown)}" if unknown
                else "-n must be at least 1")
    if args.child:
        print(json.dumps(child(args.child, args.probes)))
        return 0
    if not (args.parent and args.change):
        p.error("give the parent and the change src directories")
    parent, change = [], []
    for i in range(args.n):
        sides = [(args.parent, parent), (args.change, change)]
        for src, runs in (sides if i % 2 == 0 else sides[::-1]):
            runs.append(run_child(src, args))
    table = summary(parent, change, args.probes)
    print(f"{'probe':<19}{'parent min':>13}{'median':>13}{'change min':>13}"
          f"{'median':>13}{'ratio':>8}{'better':>8}{'gain':>6}")
    for name, row in table.items():
        print(f"{name:<19}" + "".join(
            f"{row[k] * 1e6:>11.2f}us" for k in (
                "parent_min", "parent_median", "change_min",
                "change_median"))
              + f"{row['change_over_parent']:>8.3f}"
              f"{row['change_better_pairs']:>8}"
              f"{'yes' if row['gain_rule'] else 'no':>6}")
    if args.json:
        Path(args.json).write_text(json.dumps(dict(
            host=f"{platform.processor() or platform.machine()}, "
                 f"{os.cpu_count()} CPUs",
            python=sys.version.split()[0], seed=SEED, pairs=args.n,
            rounds=ROUNDS, calls=CALLS,
            unit="CPU seconds (time.process_time)",
            peak_rss_mb=dict(parent=max(r["peak_rss_mb"] for r in parent),
                             change=max(r["peak_rss_mb"] for r in change)),
            probes=table), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
