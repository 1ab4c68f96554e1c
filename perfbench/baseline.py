"""Repeat the benchmark over seeds, twice, and summarise each metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, as separate processes, the
way a comparison between two commits does: seeds 1-10 for every workload
of BENCHMARK.json, then the same again as a second set.  For each set and
end-to-end metric it records the values, their median and the quartile
distance over the median (``statistics.quantiles(values, n=4)``), and for
each metric how far the second set's median lies from the first's.  It
also records one traced run per workload, at the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "spread": (q3 - q1) / median}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "sets": [],
           "set_to_set": {}, "per_layer": {}}
    for number in range(1, SETS + 1):
        entry = {}
        for workload in workloads:
            runs = [run_once(workload, s, spec["run_seconds"], 0) for s in SEEDS]
            entry[workload] = {m["name"]: summarise([r["metrics"][m["name"]]["value"]
                                                     for r in runs])
                               for m in spec["end_to_end"]}
            for name, stats in entry[workload].items():
                print(f"set {number} {workload:5s} {name:12s} median={stats['median']:.6g} "
                      f"spread={stats['spread']:.3f}", flush=True)
        out["sets"].append(entry)
    first, last = out["sets"][0], out["sets"][-1]
    for workload in workloads:
        out["set_to_set"][workload] = {
            name: last[workload][name]["median"] / stats["median"] - 1.0
            for name, stats in first[workload].items()}
    for workload in workloads:
        traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    environment = json.loads((ROOT / ".perfbench" / "results" /
                              f"{workloads[-1]}-seed{SEEDS[0]}-trace1.json").read_text())
    out["environment"] = environment["environment"]
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
