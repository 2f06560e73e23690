"""Self-tests of the benchmark's own checks.

    python3 nvbench/selftest.py

Each check runs a workload for a fixed number of rounds in this process and
prints PASS or FAIL; the exit status is 1 if any check fails.
"""

from __future__ import annotations

import sys

import workloads as w


def altered_payload_counts_as_failed() -> bool:
    def tamper(log, crashed):
        addr = log.slot_addr(log.head)   # first live entry of a cso-vb log
        crashed.cached[addr] ^= 0xFF

    clean, bad = w.Run("log-append", 3), w.Run("log-append", 3)
    for run, hook in ((clean, None), (bad, tamper)):
        run.setup_s.append(0.0)
        w.log_pair(run, "cso-vb", 56, 0, tamper=hook)
    return clean.failed == 0 and bad.failed == 1 and not bad.correct


def broken_log_run_as_correct_is_flagged() -> bool:
    def scripts(rng):
        broken = [s for s in w.crash_scripts(rng)
                  if s["kw"].get("algo") == "broken-vb"]
        for s in broken:
            s["broken"] = False
        return broken

    run = w.Run("crash-check", 4)
    w.crash_check(run, 1, scripts_fn=scripts)
    return run.failed > 0 and not run.correct


def known_defect_signature() -> bool:
    ops = [("T", [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]),
           ("U", b"a", b"x"), ("U", b"d", b"y")]
    model = {b"a": b"x", b"b": b"2", b"c": b"3", b"d": b"y"}
    lost = w.txn_reuse_loss(ops, {b"a": b"x", b"d": b"y"}, model)
    other = w.txn_reuse_loss(ops, {b"a": b"x", b"b": b"2", b"c": b"3"}, model)
    return lost == {0} and other is None


def same_seed_same_counts() -> bool:
    for name in w.WORKLOADS:
        a, b = (w.run_workload(name, 5, 1) for _ in range(2))
        if (a.modeled_ops, a.modeled_ns, a.attempted, a.failed) != \
                (b.modeled_ops, b.modeled_ns, b.attempted, b.failed):
            return False
    return True


def second_seed_verifies() -> bool:
    for name in w.WORKLOADS:
        run = w.run_workload(name, 2, 1)
        if not run.correct or (name == "log-append" and run.failed):
            return False
    return True


CHECKS = (altered_payload_counts_as_failed,
          broken_log_run_as_correct_is_flagged,
          known_defect_signature,
          same_seed_same_counts,
          second_seed_verifies)


def main() -> int:
    w.load_nvlog()
    ok = True
    for check in CHECKS:
        passed = check()
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {check.__name__}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
