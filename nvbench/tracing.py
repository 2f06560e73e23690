"""Span tracing installed from outside the program, for the traced run only.

`Tracer.install()` replaces methods of nvlog's classes with wrappers that
record one span per call: a name, start and end (``perf_counter_ns``), the
enclosing span and the workload operation it ran under.  Wrappers are set on
the classes, not on instances, because `SimMemory.apply_crash` and the crash
harness build their own instances.  Spans are kept in memory (up to
`max_spans`; later ones are still aggregated) and written out by
`write_spans`.  Per-name aggregates (calls, inclusive and self time) are kept
for every span.  Counts per workload operation come from `SimMemory.stats`
deltas taken around `clflushopt` and `sfence`, and from the arguments of
`store`.
"""

from __future__ import annotations

import gzip
import time
import types
import weakref
from array import array
from collections import defaultdict

# SimMemory.stats fields whose change across a call is counted per operation
_STAT_DELTAS = {
    "clflushopt": ("clflushopt_count",),
    "sfence": ("sfence_count", "fenced_roundtrips"),
}


class Tracer:
    def __init__(self, max_spans: int = 1_000_000):
        self.op = -1              # workload operation index, -1 outside ops
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per name id: [calls, inclusive ns, self ns]
        self.agg: list[list[int]] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []   # [span, name, start, child ns]
        self.pair_calls: defaultdict[tuple[int, int], int] = defaultdict(int)
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._op = array("i")
        self.dropped = 0
        self._samples: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.agg.append([0, 0, 0])
        return nid

    def _wrapper(self, fn, name, after=None, stat_fields=()):
        """Wrap `fn`; `name` is a string or a function of the call's first
        argument.  `after(args, result)` runs once the span is closed."""
        clock = time.perf_counter_ns
        stack = self._stack
        fixed = self.name_id(name) if isinstance(name, str) else None
        tracer = self

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args[0]))
            n = len(tracer._name)
            if n < tracer.max_spans:
                idx = n
                tracer._name.append(nid)
                tracer._start.append(0)
                tracer._end.append(0)
                tracer._parent.append(stack[-1][0] if stack else -1)
                tracer._op.append(tracer.op)
            else:
                idx = -1
                tracer.dropped += 1
            if stat_fields:
                stats = args[0].stats
                before = [getattr(stats, f) for f in stat_fields]
            if stack:
                tracer.pair_calls[stack[-1][1], nid] += 1
            frame = [idx, nid, 0, 0]
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                a = tracer.agg[nid]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                if idx >= 0:
                    tracer._start[idx] = start
                    tracer._end[idx] = end
            if stat_fields and tracer.op >= 0:
                for f, b in zip(stat_fields, before):
                    tracer.counters["pmem." + f] += getattr(stats, f) - b
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------- hooks

    def _count_store(self, args, result):
        if self.op >= 0:
            self.counters["pmem.stores"] += 1
            self.counters["pmem.store_bytes"] += len(args[2])

    def _count_sample(self, args, state):
        mem = args[0]
        seen = self._samples.get(mem)
        if seen is None or seen[0] != state.epoch:
            seen = self._samples[mem] = (state.epoch, set())
        self.counters["pmem.samples"] += 1
        if state.cuts not in seen[1]:
            seen[1].add(state.cuts)
            self.counters["pmem.distinct_samples"] += 1

    def _count_enumerate(self, args, states):
        self.counters["pmem.enumerated_states"] += len(states)

    def install(self) -> None:
        """Wrap the SimMemory public methods, the logs' append/trim/recover,
        the crc functions the logs call, the map's operations and
        run_crash_suite."""
        from nvlog import harness, pmem, stps
        from nvlog.logalg.base import CircularLog

        mem_hooks = {
            "store": self._count_store,
            "sample_crash_state": self._count_sample,
            "enumerate_crash_states": self._count_enumerate,
        }
        for attr, fn in list(vars(pmem.SimMemory).items()):
            if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            setattr(pmem.SimMemory, attr, self._wrapper(
                fn, f"pmem.{attr}", mem_hooks.get(attr),
                _STAT_DELTAS.get(attr, ())))

        def count_entries(args, entries):
            self.counters["logalg.recovered_entries"] += len(entries)

        log_classes = {CircularLog, *harness.EXTRA_ALGORITHMS.values()}
        for cls in log_classes:
            for attr in ("append", "trim", "recover"):
                fn = cls.__dict__.get(attr)
                if isinstance(fn, types.FunctionType):
                    setattr(cls, attr, self._wrapper(
                        fn, lambda log, a=attr: f"logalg.{log.name}.{a}",
                        count_entries if attr == "recover" else None))
        for cls in {c for k in log_classes for c in k.__mro__}:
            crc = cls.__dict__.get("crc_fn")
            if isinstance(crc, staticmethod):
                fn = crc.__func__
                key = f"crc.{fn.__name__}.bytes"

                def count_bytes(args, result, key=key):
                    self.counters[key] += len(args[0])
                cls.crc_fn = staticmethod(self._wrapper(
                    fn, f"crc.{fn.__name__}", count_bytes))

        def count_slots(args, result):
            self.counters["stps.recovered_slots"] += args[0].nslots

        for attr in ("get", "update", "remove", "txn_update", "parse_entry",
                     "recover"):
            fn = stps.PersistentHashMap.__dict__[attr]
            setattr(stps.PersistentHashMap, attr, self._wrapper(
                fn, f"stps.{attr}",
                count_slots if attr == "recover" else None))

        def count_report(args, report):
            c = self.counters
            c["harness.states_checked"] += report.states_checked
            c["harness.distinct_states"] += report.distinct_states
            c["harness.violations"] += len(report.violations)

        harness.run_crash_suite = self._wrapper(
            harness.run_crash_suite, "harness.run_crash_suite", count_report)

    # ------------------------------------------------------------- results

    def totals(self, match) -> tuple[int, int, int]:
        """(calls, inclusive ns, self ns) summed over the span names equal
        to `match`, or for which `match(name)` is true."""
        calls = incl = own = 0
        for name, (c, t, s) in zip(self.names, self.agg):
            if (match(name) if callable(match) else name == match):
                calls += c
                incl += t
                own += s
        return calls, incl, own

    def child_calls(self, parent: str, child: str) -> int:
        """Calls to `child` made directly inside a `parent` span."""
        pid, cid = self._ids.get(parent), self._ids.get(child)
        return self.pair_calls.get((pid, cid), 0)

    def write_spans(self, path) -> int:
        """Write the kept spans as gzip'd tab-separated text; returns the
        number written."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            rows = zip(range(len(self._name)), self._name, self._start,
                       self._end, self._parent, self._op)
            f.writelines(f"{i}\t{names[n]}\t{s}\t{e}\t{p}\t{o}\n"
                         for i, n, s, e, p, o in rows)
        return len(self._name)


def per_layer(tr: Tracer, run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit).  A layer
    the workload never calls reads 0.  Per-op counts cover the spans opened
    inside timed operations; `logalg.recover_us_per_entry` divides recovery
    time by the slots a recovery examined (the entries it returned plus the
    one that ended the scan)."""
    from nvlog.harness import EXTRA_ALGORITHMS

    c = tr.counters
    ops = run.attempted

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def mean(match, scale=1e-3):   # ns -> us by default
        calls, incl, _ = tr.totals(match)
        return ratio(incl, calls, scale)

    def log_op(op):
        return lambda name: name.startswith("logalg.") and name.endswith(op)

    m = {}
    for name in ("store", "sfence", "clflushopt", "load"):
        m[f"pmem.{name}_ns"] = (mean(f"pmem.{name}", 1.0), "ns")
    m["pmem.stores_per_op"] = (ratio(c["pmem.stores"], ops), "count")
    m["pmem.store_bytes_per_op"] = (ratio(c["pmem.store_bytes"], ops), "B")
    m["pmem.flushes_per_op"] = (ratio(c["pmem.clflushopt_count"], ops),
                                "count")
    m["pmem.fences_per_op"] = (ratio(c["pmem.sfence_count"], ops), "count")
    m["pmem.roundtrips_per_op"] = (ratio(c["pmem.fenced_roundtrips"], ops),
                                   "count")
    m["pmem.enumerate_us"] = (mean("pmem.enumerate_crash_states"), "us")
    m["pmem.states_per_enumerate"] = (
        ratio(c["pmem.enumerated_states"],
              tr.totals("pmem.enumerate_crash_states")[0]), "count")
    m["pmem.sample_us"] = (mean("pmem.sample_crash_state"), "us")
    m["pmem.sample_distinct_ratio"] = (
        ratio(c["pmem.distinct_samples"], c["pmem.samples"]), "ratio")
    m["pmem.apply_crash_us"] = (mean("pmem.apply_crash"), "us")
    m["pmem.checkpoint_us"] = (mean("pmem.checkpoint"), "us")

    calls, incl, own = tr.totals(log_op(".append"))
    m["logalg.append_us"] = (ratio(incl, calls, 1e-3), "us")
    m["logalg.append_self_us"] = (ratio(own, calls, 1e-3), "us")
    for algo in EXTRA_ALGORITHMS:
        m[f"logalg.{algo}.append_us"] = (mean(f"logalg.{algo}.append"), "us")
    m["logalg.trim_us"] = (mean(log_op(".trim")), "us")
    recover_calls, recover_ns, _ = tr.totals(log_op(".recover"))
    m["logalg.recover_us_per_entry"] = (
        ratio(recover_ns, c["logalg.recovered_entries"] + recover_calls,
              1e-3), "us")

    for fn, metric in (("crc32c", "crc32c"), ("crc64_ecma", "crc64")):
        m[f"crc.{metric}_mb_per_s"] = (
            ratio(c[f"crc.{fn}.bytes"], tr.totals(f"crc.{fn}")[1], 1e3),
            "MB/s")

    for op in ("get", "update", "remove", "txn_update", "parse_entry"):
        m[f"stps.{op}_us"] = (mean(f"stps.{op}"), "us")
    m["stps.parse_entry_per_get"] = (
        ratio(tr.child_calls("stps.get", "stps.parse_entry"),
              tr.totals("stps.get")[0]), "count")
    m["stps.recover_us_per_slot"] = (
        ratio(tr.totals("stps.recover")[1], c["stps.recovered_slots"], 1e-3),
        "us")

    suite_ns = tr.totals("harness.run_crash_suite")[1]
    m["harness.states_per_op"] = (ratio(c["harness.states_checked"], ops),
                                  "count")
    m["harness.distinct_states_per_s"] = (
        ratio(c["harness.distinct_states"], suite_ns, 1e9), "1/s")
    m["harness.check_us_per_state"] = (
        ratio(suite_ns, c["harness.distinct_states"], 1e-3), "us")
    m["harness.violations"] = (float(c["harness.violations"]), "count")
    return m
