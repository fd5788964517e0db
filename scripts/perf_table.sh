#!/usr/bin/env bash
# perf_table.sh — generate the README's performance table from the newest
# BENCH_<N>.json (written by scripts/bench.sh), as GitHub-flavored
# markdown on stdout. Regenerate after every perf PR and paste the output
# over the table in README.md's Performance section:
#
#   scripts/perf_table.sh            # newest record, delta vs previous
#   scripts/perf_table.sh BENCH_3.json BENCH_2.json   # explicit pair
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "$@" <<'PY'
import glob, json, os, re, sys

def records():
    paths = [p for p in glob.glob("BENCH_*.json")
             if re.fullmatch(r"BENCH_\d+\.json", os.path.basename(p))]
    return sorted(paths, key=lambda p: int(re.search(r"(\d+)", p).group(1)))

args = sys.argv[1:]
if args:
    new_path = args[0]
    old_path = args[1] if len(args) > 1 else None
else:
    recs = records()
    if not recs:
        sys.exit("no BENCH_*.json found; run scripts/bench.sh first")
    new_path = recs[-1]
    old_path = recs[-2] if len(recs) > 1 else None

def index(path):
    return {b["name"]: b for b in json.load(open(path))["benchmarks"]}

new = index(new_path)
old = index(old_path) if old_path else {}

# (benchmark, label, preferred unit key, formatter)
def ns(v):      return f"{v:,.0f} ns/op"
def nsinstr(v): return f"{v:.1f} ns/instr"
def msconf(v):  return f"{v:.2f} ms/config"
def us(v):      return f"{v/1e3:,.0f} µs/req"
def s(v):       return f"{v/1e9:.2f} s"

ROWS = [
    ("BenchmarkProfilerInstr",   "profiler, per instruction",            "ns_per_instr", nsinstr),
    ("BenchmarkSimStep",         "simulator core, per instruction",      "ns_per_instr", nsinstr),
    ("BenchmarkSimStepSweep",    "simulator core, sweep mode (batched)", "ns_per_instr", nsinstr),
    ("BenchmarkCacheAccess",     "cache lookup + LRU update",            "ns_per_op",    ns),
    ("BenchmarkHierarchyData",   "full hierarchy data access",           "ns_per_op",    ns),
    ("BenchmarkGenerate",        "workload stream generation",           "ns_per_instr", nsinstr),
    ("BenchmarkRecord",          "trace capture (generate + pack)",      "ns_per_instr", nsinstr),
    ("BenchmarkReplay",          "trace replay decode (items)",          "ns_per_instr", nsinstr),
    ("BenchmarkDecodeShared",    "shared sweep decode (once per sweep)", "ns_per_instr", nsinstr),
    ("BenchmarkSweep16",         "16-config sweep (record+replay)",      "ms_per_config", msconf),
    ("BenchmarkSweep16Regen",    "16-config sweep (regeneration)",       "ms_per_config", msconf),
    ("BenchmarkServePredictWarm","served /v1/predict, warm cache",       "ns_per_op",    us),
    ("BenchmarkServePredictCold","served /v1/predict, cold",             "ns_per_op",    us),
    ("BenchmarkServePredictColdPersisted",
                                 "served /v1/predict, cold, persisted profile", "ns_per_op", us),
    ("BenchmarkFigure4",         "Figure 4 end to end",                  "ns_per_op",    s),
]

base = os.path.basename(new_path)
if old_path:
    print(f"| benchmark | this PR ({base}) | previous ({os.path.basename(old_path)}) | Δ |")
    print("|---|---|---|---|")
else:
    print(f"| benchmark | {base} |")
    print("|---|---|")

def emit(label, nv, ov, fmt):
    cell_new = fmt(nv)
    if not old_path:
        print(f"| {label} | {cell_new} |")
    elif ov is None:
        print(f"| {label} | {cell_new} | — | new |")
    else:
        delta = 100.0 * (nv - ov) / ov
        print(f"| {label} | {cell_new} | {fmt(ov)} | {delta:+.0f}% |")

for name, label, key, fmt in ROWS:
    n = new.get(name)
    if n is None:
        continue
    o = old.get(name)
    emit(label, n.get(key, n["ns_per_op"]),
         o.get(key, o["ns_per_op"]) if o else None, fmt)
    if name == "BenchmarkSweep16Regen":
        # Derived row: how much one trace pass beats per-config
        # regeneration across the sweep (higher is better).
        def ratio(idx):
            a, b = idx.get("BenchmarkSweep16"), idx.get("BenchmarkSweep16Regen")
            if a and b and a.get("ms_per_config"):
                return b["ms_per_config"] / a["ms_per_config"]
            return None
        nr = ratio(new)
        if nr is not None:
            emit("sweep speedup vs regeneration", nr, ratio(old),
                 lambda v: f"{v:.2f}×")
PY
