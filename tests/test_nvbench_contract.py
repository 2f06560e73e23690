"""What the benchmark in `nvbench/` uses of nvlog: its workload and tracing
modules, imported as they are, still run against this checkout.

The tracer wraps every public `SimMemory` method and named map methods, the
log-append pair reads `Crc64Log.epoch`, and the map round passes
`nbuckets=`; a rename in `src/` that breaks one of them fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """
import json, math, random, sys
sys.path.insert(0, sys.argv[1])
import tracing
import workloads as w

w.load_nvlog()
tr = tracing.Tracer()
tr.install()
runs = {name: w.Run(name, 3, tr) for name in w.WORKLOADS}

run = runs["log-append"]
run.setup_s.append(0.0)
w.log_pair(run, "crc64", 240, 0)
w.kv_round(runs["kv-mixed"], 0)
run = runs["crash-check"]
scripts = [s for s in w.crash_scripts(run.rng)
           if s["kw"].get("algo") in ("crc64", "cso-random")
           or s["kw"].get("node_lines") == 1]
w.crash_round(run, scripts, 0)

out = {}
for name, run in runs.items():
    layer = tracing.per_layer(tr, run)
    out[name] = dict(correct=run.correct, attempted=run.attempted,
                     finite=all(math.isfinite(v) for v, _ in layer.values()),
                     layer=sorted(layer))
out["stores"] = tr.counters["pmem.stores"]
print(json.dumps(out))
"""


def test_nvbench_workloads_run_traced_against_this_checkout():
    proc = subprocess.run([sys.executable, "-B", "-c", PROGRAM,
                           str(ROOT / "nvbench")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_frac"}
    for name in ("log-append", "kv-mixed", "crash-check"):
        run = out[name]
        assert run["correct"] and run["attempted"] > 0, name
        assert run["finite"] and wanted <= set(run["layer"]), name
    assert out["stores"] > 0
