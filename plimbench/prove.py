"""Measure the benchmark's own steadiness and write the committed baseline.

    python3 plimbench/prove.py [--workloads table1,serve] [--seeds 1,2,...]

Runs the command ``BENCHMARK.json`` records once per seed and workload
with ``--trace 0`` and once per workload with ``--trace 1``.  For every
end-to-end metric it prints the median and the spread (distance between
the first and third quartile as a share of the median, the quantity the
bounds are judged against), and writes ``plimbench/baseline/<workload>.json``:
every run's values, medians, spreads, the per-circuit or per-class rows,
the traced run's per-layer values and tracing overhead, and the
environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE_DIR = os.path.join(HERE, "baseline")


def _run(command, workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "summary"):
            tagged[tag] = json.loads(rest)
        elif tag == "row":
            tagged.setdefault("rows", []).append(json.loads(rest))
    return {"exit": proc.returncode, "result": json.loads(lines[-1]), **tagged}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args()
    command = spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            run = _run(command, workload, seed, spec["run_seconds"], 0)
            run["wall_s"] = time.perf_counter() - start
            print(f"{workload} seed {seed}: exit {run['exit']} "
                  f"wall {run['wall_s']:.1f} s", flush=True)
            ok &= run["exit"] == 0
            runs.append(run)
        traced = _run(command, workload, seeds[0], spec["run_seconds"], 1)
        ok &= traced["exit"] == 0
        stats = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name], "values": values}
            flag = "" if name == "setup_s" or spread <= bounds[name] else "  OVER BOUND"
            print(f"  {name:22s} median {med:12.5g}  spread {spread:6.3f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
            ok &= bool(name == "setup_s" or spread <= bounds[name])
        counts = {
            name: runs[0]["result"]["metrics"][name]["value"]
            for name in ("instructions", "rrams", "gates_out", "max_writes")
        }
        snapshot = {
            "workload": workload,
            "seeds": seeds,
            "run_seconds": spec["run_seconds"],
            "env": runs[0].get("env"),
            "counts": counts,
            "end_to_end": stats,
            "run_wall_s": [r["wall_s"] for r in runs],
            "rows": runs[0].get("rows"),
            "traced": {
                "seed": seeds[0],
                "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
                "trace_overhead_s": traced["summary"].get("trace_overhead_s"),
                "rows": traced.get("rows"),
            },
        }
        os.makedirs(BASELINE_DIR, exist_ok=True)
        with open(os.path.join(BASELINE_DIR, f"{workload}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
