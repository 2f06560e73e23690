"""The three benchmark workloads, each a closed loop with one caller.

Run one in a process of its own:

    python3 nvbench/workloads.py --workload log-append --seed 1 --seconds 36 --trace 0

The last line of standard output is a JSON record of the run.  `run.py`
starts this file and reports the record; use that instead.

Every workload builds its inputs from ``--seed`` (one `random.Random` per
run), runs a fixed number of whole rounds, and checks every output of the
program against a model kept by the benchmark.  The number of rounds follows
from ``--seconds`` and a fixed nominal round time per workload
(`ROUND_SECONDS`), never from the clock, so one seed and one ``--seconds``
always do the same work and find the same failures:

* ``log-append`` mirrors the `nvlog bench` loop and geometry (a region of
  ``HEADER_BYTES + 2*512`` slots, fully trimmed every 512 appends, the crash
  trace kept).  Each round runs seven algorithm/size pairs with 1280 fresh
  seeded payloads each, then recovers each log from a crash image at or above
  the durable floor and compares it with the live payloads, checks the round
  trips per append, and (once per run) checks the modeled throughput against
  `nvlog bench --csv`.
* ``kv-mixed`` runs the single-trip `PersistentHashMap` (1-line nodes, bucket
  count by the `nvlog ycsb` rule) preloaded with 1000 keys (the preload is
  set-up), then 5000 uniform-key operations: 45% get, 45% update, 5% remove,
  5% 3-key txn_update.  Every get is checked against a dict model and, at the
  end of the round, a map recovered from the durable image must equal it.
* ``crash-check`` runs generated scripts through
  `harness.run_crash_suite(..., registry=EXTRA_ALGORITHMS)`, the `nvlog
  crashtest` path: exhaustive per-op log scripts for the seven suite logs,
  crc32 and broken-vb (112 B entries, atlas 24 B; 240 B as well for cso-fvb,
  crc64, tornbit and two-rounds), one sampled fill/drain/refill script per
  log that wraps the head four times, and exhaustive map scripts with 1-line
  and 4-line nodes.  Exhaustive scripts are checked one op per call
  (``crash at-op I``) so each op has its own latency.  Correct targets must
  show no violation and broken-vb must show some.

Known defect: `PersistentHashMap.recover()` drops every committed member of a
transaction once one member has been superseded and its slot reused.  Such
losses are counted as failed operations and listed; a run stays ``correct``
only if every failure it finds has exactly that signature (see
`txn_reuse_loss`).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".nvbench"

WORKLOADS = ("log-append", "kv-mixed", "crash-check")
# Nominal wall time of one round, set-up and verification included, on a
# 2-vCPU VM with Python 3.11; a run of --seconds S does round(S / this)
# rounds, at least one.
ROUND_SECONDS = {"log-append": 2.2, "kv-mixed": 0.55, "crash-check": 3.2}

LATENCY_NS = 800   # modeled media latency per fenced round trip
FENCE_NS = 200     # `nvlog bench` / `nvlog ycsb` default --fence-ns
BASE_NS = 100      # `nvlog bench` / `nvlog ycsb` default --base-ns

# log-append: (algorithm, entry size in lines as `nvlog bench` names it,
# payload bytes)
LOG_PAIRS = (("cso-vb", "1", 56), ("cso-random", "1", 56),
             ("tornbit", "1", 56), ("two-rounds", "1", 56),
             ("atlas", "0.5", 24), ("crc64", "4", 240),
             ("cso-fvb", "8", 496))
DRAIN = 512          # appends between full trims, as in `nvlog bench`
APPENDS = 1280       # per pair and round; leaves 256 entries live
EXPECTED_RT = {"two-rounds": 2.0, "atlas": 1.5}   # others: 1.0

# kv-mixed
KV_KEYS = 1000
KV_OPS = 5000        # per round
KV_MIX = (("get", 0.45), ("update", 0.45), ("remove", 0.05), ("txn", 0.05))

# crash-check
CC_LOG_TARGETS = ("cso-vb", "cso-random", "cso-fvb", "tornbit", "crc32",
                  "crc64", "two-rounds", "atlas", "broken-vb")
CC_FOUR_LINE = ("cso-fvb", "crc64", "tornbit", "two-rounds")
CC_LOG_SCRIPT = ("append", "append", "append", "trim 1", "append", "trim")
CC_FOUR_LINE_SCRIPT = ("append", "trim")
CC_SLOTS = 16        # run_crash_suite's default log size
CC_FILL = ("append",) * 14 + ("trim 9",) + ("append",) * 2 + ("trim",)
CC_SAMPLED_SCRIPT = CC_FILL * 4     # 64 appends: the head wraps 4 times
CC_SAMPLES = 500
# map scripts: (node lines, ops); keys are fixed so that every round checks
# the same number of crash states, values are drawn per round ("*" a short
# value, "**" a 100-byte one).  The transaction members that are updated
# later hit the known stps defect.
CC_MAP_SCRIPTS = ((1, ("U a *", "U b *", "T a * b * c *", "G a", "U c *",
                       "R b", "U d *", "G c", "T b * d * e *", "U a *",
                       "G e", "R d")),
                  (4, ("U a **", "T b * c *", "U b **", "G c", "R a",
                       "U d *")))


def load_nvlog() -> None:
    """Import nvlog from this checkout's src/, and no other copy."""
    if not (SRC / "nvlog" / "__init__.py").is_file():
        raise SystemExit(f"nvbench: no nvlog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nvlog
    import nvlog.cli  # noqa: F401  (imports every layer)
    if Path(nvlog.__file__).resolve().parent != SRC / "nvlog":
        raise SystemExit(f"nvbench: imported nvlog from {nvlog.__file__}, "
                         f"not from {SRC}")


class Run:
    """Measurements and verdicts of one workload run."""

    def __init__(self, workload: str, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.lat_ns: list[int] = []            # one per single-op call
        self.kind_ns: dict[str, list[int]] = {}
        self.attempted = 0
        self.op_ns = 0                          # time inside operations
        self.setup_s: list[float] = []          # one per round
        self.modeled_ops = 0
        self.modeled_ns = 0
        self.failures: list[tuple[int, str, bool]] = []  # (op, why, known)
        self.notes: list[str] = []
        # at the end of each round: (attempted, op_ns)
        self.round_marks: list[tuple[int, int]] = []

    @property
    def rounds(self) -> int:
        return len(self.round_marks)

    def end_round(self) -> None:
        """Close a round.  A full collection (untimed) before each round
        makes every round start from the same collector state."""
        self.round_marks.append((self.attempted, self.op_ns))
        gc.collect()

    def fail(self, op: int, why: str, known: bool = False) -> None:
        self.failures.append((op, why, known))

    def time_op(self, op: int, fn, *args, kind: str | None = None,
                ops: int = 1):
        """Call fn(*args) as operation `op`.  A call that stands for `ops`
        operations adds to the throughput but not to the latency samples."""
        if self.tracer is not None:
            self.tracer.op = op
        t = time.perf_counter_ns()
        result = fn(*args)
        dt = time.perf_counter_ns() - t
        if self.tracer is not None:
            self.tracer.op = -1
        if ops == 1:
            self.lat_ns.append(dt)
            if kind is not None:
                self.kind_ns.setdefault(kind, []).append(dt)
        self.op_ns += dt
        self.attempted += ops
        return result

    @property
    def failed(self) -> int:
        return len({op for op, _, _ in self.failures})

    @property
    def correct(self) -> bool:
        return all(known for _, _, known in self.failures)


def percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in microseconds."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3


# --------------------------------------------------------- known defect

def txn_reuse_loss(ops: list[tuple], recovered: dict, expected: dict):
    """Op indices whose effect `recovered` lost in the way of the known
    stps defect, or None if any difference has another cause.

    `ops` is the write history in harness form (("U", k, v), ("R", k),
    ("T", [(k, v), ...]), ("G", k)).  A difference on key k is the defect
    when k's last write was a transaction one of whose other members was
    written again later, and k now reads absent or as a value it held before
    that transaction."""
    last: dict[bytes, int] = {}
    held: dict[bytes, list[tuple[int, bytes | None]]] = {}
    for i, op in enumerate(ops):
        if op[0] == "U":
            writes = [(op[1], op[2])]
        elif op[0] == "R":
            writes = [(op[1], None)]
        elif op[0] == "T":
            writes = op[1]
        else:
            continue
        for k, v in writes:
            last[k] = i
            held.setdefault(k, []).append((i, v))
    lost = set()
    for k in recovered.keys() | expected.keys():
        got = recovered.get(k)
        if got == expected.get(k):
            continue
        i = last.get(k)
        if i is None or ops[i][0] != "T":
            return None
        if not any(last[m] > i for m, _ in ops[i][1] if m != k):
            return None
        if got is not None and got not in {v for j, v in held[k] if j < i}:
            return None
        lost.add(i)
    return lost


# ----------------------------------------------------------- log-append

def _slot_size(cls, payload_len: int) -> int:
    from nvlog.logalg.base import HEADER_BYTES
    from nvlog.pmem import SimMemory
    probe = HEADER_BYTES + 16 * 64
    return cls(SimMemory(probe), 0, probe, payload_len).slot_size


def log_pair(run: Run, algo: str, payload_len: int, op0: int, *,
             tamper=None) -> float:
    """Append APPENDS fresh payloads through the `nvlog bench` loop, then
    verify; returns the pair's modeled appends per second as `nvlog bench`
    rounds it.  `tamper(log, crashed)` may alter the crash image before
    recovery (self-test only)."""
    from nvlog.logalg import ALGORITHMS
    from nvlog.logalg.base import HEADER_BYTES
    from nvlog.pmem import SimMemory

    cls = ALGORITHMS[algo]
    payloads = [run.rng.randbytes(payload_len) for _ in range(APPENDS)]
    t0 = time.perf_counter()
    region = HEADER_BYTES + 2 * DRAIN * _slot_size(cls, payload_len)
    mem = SimMemory(region, latency_ns=LATENCY_NS, fence_cost_ns=FENCE_NS)
    log = cls(mem, 0, region, payload_len)
    if mem.pending_flushes:
        mem.sfence()
    setup = time.perf_counter() - t0

    sim0 = mem.stats.simulated_time_ns
    stats = mem.stats
    handles: list[int] = []
    append_rt = 0

    def append(payload):
        nonlocal append_rt
        before = stats.fenced_roundtrips
        handles.append(log.append(payload))
        append_rt += stats.fenced_roundtrips - before
        if len(handles) >= DRAIN:
            log.trim(handles[-1])
            handles.clear()

    for i, payload in enumerate(payloads):
        run.time_op(op0 + i, append, payload)
    modeled_ns = APPENDS * BASE_NS + stats.simulated_time_ns - sim0
    run.modeled_ops += APPENDS
    run.modeled_ns += modeled_ns
    last_op = op0 + APPENDS - 1

    rt = append_rt / APPENDS
    want_rt = EXPECTED_RT.get(algo, 1.0)
    if rt != want_rt:
        run.fail(last_op, f"{algo}: {rt} round trips per append, "
                          f"expected {want_rt}")
    state = mem.sample_crash_state(rng=run.rng, at_least_durable=True)
    crashed = mem.apply_crash(state)
    if tamper is not None:
        tamper(log, crashed)
    got = [e.payload for e in cls.attach(crashed, 0, region,
                                         payload_len).recover()]
    live = APPENDS - len(handles)
    want = payloads[live:]
    for j in range(max(len(got), len(want))):
        if j >= len(want) or j >= len(got) or got[j] != want[j]:
            run.fail(min(op0 + live + j, last_op),
                     f"{algo}: recovered entry {j} differs from the model "
                     f"({len(got)} recovered, {len(want)} live)")
    if algo == "crc64":
        run.notes.append(f"the crc64 log wrapped its epoch {log.epoch} "
                         f"time(s); the ROADMAP 3c defect needs 32768")
    run.setup_s[-1] += setup
    return round(APPENDS * 1e9 / modeled_ns, 1)


def cli_bench_modeled(algo: str, lines: str) -> float:
    """`nvlog bench --csv` modeled appends/s for one pair."""
    from nvlog import cli
    OUT.mkdir(exist_ok=True)
    path = OUT / f"bench-{algo}-{os.getpid()}.csv"
    try:
        rc = cli.main(["bench", "--algo", algo, "--entry-lines", lines,
                       "--latency-ns", str(LATENCY_NS), "--ops", str(APPENDS),
                       "--csv", str(path)])
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    finally:
        path.unlink(missing_ok=True)
    if rc != 0 or len(rows) != 1:
        return float("nan")
    return float(rows[0]["appends_per_sec_modeled"])


def log_append(run: Run, rounds: int) -> None:
    modeled: dict[str, set[float]] = {algo: set() for algo, _, _ in LOG_PAIRS}
    op = 0
    for _ in range(rounds):
        run.setup_s.append(0.0)
        for algo, _, payload_len in LOG_PAIRS:
            modeled[algo].add(log_pair(run, algo, payload_len, op))
            op += APPENDS
        run.end_round()
    for algo, lines, _ in LOG_PAIRS:
        want = cli_bench_modeled(algo, lines)
        if modeled[algo] != {want}:
            run.fail(op - 1, f"{algo}: modeled appends/s {sorted(modeled[algo])}"
                             f" differ from `nvlog bench` {want}")


# ------------------------------------------------------------- kv-mixed

def kv_ops(rng: random.Random, keys: list[bytes], n: int) -> list[tuple]:
    kinds = [k for k, _ in KV_MIX]
    weights = [w for _, w in KV_MIX]
    ops = []
    for kind in rng.choices(kinds, weights, k=n):
        if kind == "get":
            ops.append(("G", rng.choice(keys)))
        elif kind == "update":
            ops.append(("U", rng.choice(keys), rng.randbytes(6).hex().encode()))
        elif kind == "remove":
            ops.append(("R", rng.choice(keys)))
        else:
            ops.append(("T", [(k, rng.randbytes(6).hex().encode())
                              for k in rng.sample(keys, 3)]))
    return ops


def kv_round(run: Run, op0: int) -> None:
    from nvlog.pmem import SimMemory
    from nvlog.stps import PersistentHashMap

    # geometry and key names of `nvlog ycsb`
    region = (2 * KV_KEYS + 64) * 64
    nbuckets = 1 << max(4, (KV_KEYS - 1).bit_length())
    keys = [f"key{i:06d}".encode() for i in range(KV_KEYS)]
    preload = [("U", k, run.rng.randbytes(6).hex().encode()) for k in keys]
    ops = kv_ops(run.rng, keys, KV_OPS)

    t0 = time.perf_counter()
    mem = SimMemory(region, latency_ns=LATENCY_NS, fence_cost_ns=FENCE_NS)
    m = PersistentHashMap(mem, 0, region, node_lines=1, nbuckets=nbuckets)
    for _, k, v in preload:
        m.update(k, v)
    run.setup_s.append(time.perf_counter() - t0)

    model = {k: v for _, k, v in preload}
    sim0 = mem.stats.simulated_time_ns
    for j, op in enumerate(ops):
        i = op0 + j
        if op[0] == "G":
            got = run.time_op(i, m.get, op[1], kind="get")
            if got != model.get(op[1]):
                run.fail(i, f"get {op[1]!r}: {got!r}, model "
                            f"{model.get(op[1])!r}")
        elif op[0] == "U":
            run.time_op(i, m.update, op[1], op[2], kind="update")
            model[op[1]] = op[2]
        elif op[0] == "R":
            run.time_op(i, m.remove, op[1], kind="remove")
            model.pop(op[1], None)
        else:
            run.time_op(i, m.txn_update, op[1], kind="txn_update")
            model.update(op[1])
    run.modeled_ops += len(ops)
    run.modeled_ns += (len(ops) * BASE_NS
                       + mem.stats.simulated_time_ns - sim0)

    state = mem.sample_crash_state(rng=run.rng, at_least_durable=True)
    back = PersistentHashMap(mem.apply_crash(state), 0, region,
                             node_lines=1, nbuckets=nbuckets)
    recovered = back.recover().items()
    if recovered != model:
        history = preload + ops
        lost = txn_reuse_loss(history, recovered, model)
        if lost is None:
            diff = sorted(k for k in recovered.keys() | model.keys()
                          if recovered.get(k) != model.get(k))
            run.fail(op0 + len(ops) - 1,
                     f"recovered map differs from the model on {diff[:5]}")
        for i in sorted(lost or ()):
            run.fail(op0 + i - len(preload),
                     "stps txn-reuse loss: committed transaction dropped by "
                     "recovery", known=True)


def kv_mixed(run: Run, rounds: int) -> None:
    for r in range(rounds):
        kv_round(run, r * KV_OPS)
        run.end_round()


# ---------------------------------------------------------- crash-check

def _log_script(rng, ops, payload_len) -> list[str]:
    return [f"append {rng.randbytes(payload_len).hex()}" if op == "append"
            else op for op in ops]


def _map_script(rng, ops) -> list[str]:
    def value(tok):
        if tok == "*":
            return rng.randbytes(3).hex()
        return rng.randbytes(50).hex() if tok == "**" else tok
    return [" ".join(value(tok) for tok in op.split()) for op in ops]


def crash_scripts(rng: random.Random) -> list[dict]:
    """One round of crash-check scripts: dicts with the script body lines,
    the run_crash_suite arguments, whether it is checked per op, and whether
    the target must show violations."""
    scripts = []
    for algo in CC_LOG_TARGETS:
        sizes = [24] if algo == "atlas" else [112]
        if algo in CC_FOUR_LINE:
            sizes.append(240)
        for size in sizes:
            body = _log_script(rng, CC_FOUR_LINE_SCRIPT if size == 240
                               else CC_LOG_SCRIPT, size)
            scripts.append(dict(body=body, per_op=True, broken=algo ==
                                "broken-vb", kw=dict(algo=algo,
                                                     payload_len=size)))
    for algo in CC_LOG_TARGETS:
        if algo == "broken-vb":
            continue
        size = 24 if algo == "atlas" else 112
        body = _log_script(rng, CC_SAMPLED_SCRIPT, size)
        scripts.append(dict(body=body, per_op=False, broken=False,
                            kw=dict(algo=algo, payload_len=size)))
    for node_lines, ops in CC_MAP_SCRIPTS:
        scripts.append(dict(body=_map_script(rng, ops), per_op=True,
                            broken=False, kw=dict(node_lines=node_lines)))
    return scripts


def crash_round(run: Run, scripts: list[dict], op0: int) -> int:
    """Check one round of scripts; returns the number of ops run."""
    from nvlog import harness

    t0 = time.perf_counter()
    seed = run.rng.randrange(1 << 30)
    for s in scripts:
        head = f"seed {seed}\n"
        text = "\n".join(s["body"])
        if s["per_op"]:
            s["parsed"] = [harness.parse_script(f"{head}crash at-op {i}\n{text}")
                           for i in range(len(s["body"]))]
        else:
            s["parsed"] = [harness.parse_script(
                f"{head}crash sampled {CC_SAMPLES}\n{text}")]
    run.setup_s.append(time.perf_counter() - t0)

    op = op0
    for s in scripts:
        ops = s["parsed"][0].ops
        violations = []
        if s["per_op"]:
            for i, script in enumerate(s["parsed"]):
                violations += run.time_op(op + i, _suite, run, op + i,
                                          script, s)
        else:
            # a sampled check covers the whole trace: one call stands for
            # all of the script's ops
            violations += run.time_op(op, _suite, run, op + len(ops) - 1,
                                      s["parsed"][0], s, ops=len(ops))
        name = s["kw"].get("algo", f"stps/{s['kw'].get('node_lines')}-line")
        if s["broken"]:
            run.notes.append(f"{name}: {len(violations)} violating crash "
                             f"states found (some are required)")
            if not violations:
                run.fail(op + len(ops) - 1,
                         f"{name}: no violation found in a broken log")
        else:
            _judge(run, op, ops, name, violations, "node_lines" in s["kw"])
        op += len(ops)
    return op - op0


def _suite(run: Run, last_op: int, script, s) -> list:
    from nvlog import harness
    try:
        report = harness.run_crash_suite(script, registry=
                                         harness.EXTRA_ALGORITHMS, **s["kw"])
    except harness.ScriptError as exc:
        run.fail(last_op, f"script error: {exc}")
        return []
    return report.violations


def _judge(run: Run, op0: int, ops, name, violations, is_map) -> None:
    """Record one failure per op with violations: known when every violation
    of the op is the stps txn-reuse loss."""
    by_op: dict[int, list] = {}
    for v in violations:
        by_op.setdefault(v.op_index, []).append(v)
    for i, vs in sorted(by_op.items()):
        odd = [v for v in vs if not (is_map and _txn_loss_state(ops, v))]
        if odd:
            v = odd[0]
            cuts = " ".join(f"{ln}:{c}" for ln, c in v.cuts)
            run.fail(op0 + i, f"{name}: {len(vs)} violating crash states, "
                              f"e.g. cuts [{cuts}] recovered {v.recovered!r}")
        else:
            run.fail(op0 + i, f"{name}: {len(vs)} crash states show the stps "
                              f"txn-reuse loss", known=True)


def _txn_loss_state(ops, v) -> bool:
    pre, post = v.legal
    return any(txn_reuse_loss(ops[:upto], v.recovered, legal) is not None
               for legal, upto in ((pre, v.op_index), (post, v.op_index + 1)))


def crash_check(run: Run, rounds: int, scripts_fn=crash_scripts) -> None:
    op = 0
    for _ in range(rounds):
        op += crash_round(run, scripts_fn(run.rng), op)
        run.end_round()
    # The harness runs its memories at zero modeled latency, so modeled
    # time is the fixed software cost alone.
    run.modeled_ops = run.attempted
    run.modeled_ns = run.attempted * BASE_NS
    wraps = CC_SAMPLED_SCRIPT.count("append") // CC_SLOTS
    run.notes.append(f"each sampled script wraps the head {wraps} times; "
                     f"crc epoch wraps needed for the ROADMAP 3c defect: 32768")


# ----------------------------------------------------------------- main

RUNNERS = {"log-append": log_append, "kv-mixed": kv_mixed,
           "crash-check": crash_check}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def run_workload(workload: str, seed: int, rounds: int, tracer=None) -> Run:
    run = Run(workload, seed, tracer)
    gc.collect()
    RUNNERS[workload](run, rounds)
    return run


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import nvlog.cli
print(time.perf_counter() - t)
"""


def import_seconds(times: int = 5) -> float:
    """Median time to import nvlog in a fresh interpreter."""
    samples = []
    for _ in range(times):
        r = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, timeout=60,
                           check=True)
        samples.append(float(r.stdout))
    return statistics.median(samples)


def round_rates(run: Run) -> list[float]:
    """Operations per second of operation time, per round (kept in the
    result file, to show how much the host's speed moved during a run)."""
    rates, prev = [], (0, 0)
    for ops, ns in run.round_marks:
        rates.append((ops - prev[0]) * 1e9 / (ns - prev[1]))
        prev = (ops, ns)
    return rates


def end_to_end(run: Run, import_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of a run, as name -> (value, unit).
    Throughput and the op percentiles cover every operation of the run.  On
    a shared host the speed of a round jumps between a fast and a slow
    level; a median over rounds jumps with it, while these move only with
    the share of the run spent at each level."""
    m = {
        "setup_s": (import_s + statistics.median(run.setup_s), "s"),
        "ops_per_s": (run.attempted * 1e9 / run.op_ns, "1/s"),
        "op_p50_us": (percentile(run.lat_ns, 0.50), "us"),
        "op_p90_us": (percentile(run.lat_ns, 0.90), "us"),
        "op_p99_us": (percentile(run.lat_ns, 0.99), "us"),
        "modeled_ops_per_s": (run.modeled_ops * 1e9 / run.modeled_ns, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    for kind in ("get", "update"):
        if kind in run.kind_ns:
            m[f"{kind}_p50_us"] = (percentile(run.kind_ns[kind], 0.50), "us")
            m[f"{kind}_p99_us"] = (percentile(run.kind_ns[kind], 0.99), "us")
    m["failed_frac"] = (run.failed / run.attempted, "ratio")
    m["latency_samples"] = (float(len(run.lat_ns)), "count")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_nvlog()
    import_s = import_seconds()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    run = run_workload(args.workload, args.seed,
                       rounds_for(args.workload, args.seconds), tracer=tracer)
    record = {
        "workload": run.workload, "seed": run.seed, "trace": args.trace,
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed, "rounds": run.rounds,
        "round_rates": round_rates(run),
        "end_to_end": end_to_end(run, import_s),
        "failures": [dict(op=op, why=why, known=known)
                     for op, why, known in run.failures],
        "notes": sorted(set(run.notes)),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }
    if tracer is not None:
        from tracing import per_layer
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{run.workload}.tsv.gz"
        record["spans_written"] = tracer.write_spans(path)
        record["spans_dropped"] = tracer.dropped
        record["trace_file"] = str(path.relative_to(ROOT))
        record["per_layer"] = per_layer(tracer, run)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
