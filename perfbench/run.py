"""tmcat benchmark: one run of one workload, metrics as a JSON line.

    python3 perfbench/run.py --workload {cli,lab,scan,all} --seed N [--seconds S] --trace {0,1}

Run from the root of a checkout; tmcat is imported from its ``src/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Lines before it
give the environment record, the calibration probe, failures and, for cli,
each command's median time.  ``all`` runs the three workloads in turn, one
process each, each ending with its own JSON line.  The full result (and,
when traced, every span) is written under ``.perfbench/results/``.  The
exit code is 0 only when every job ran and passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = DECLARED["run_seconds"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cli", "lab", "scan", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tmcat" / "__init__.py").is_file():
        print(f"perfbench: no tmcat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    if args.workload == "all":
        # one process per workload, so that in-process peak RSS is its own
        codes = [subprocess.run([sys.executable, __file__, "--workload", workload,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for workload in measure.WORKLOADS]
        return max(codes)

    wanted = DECLARED["per_layer" if args.trace else "end_to_end"]
    result = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in result:
        (results / f"{stem}-spans.json").write_text(json.dumps(result.pop("spans")))
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    lines, final = report(result, wanted)
    print("\n".join(lines))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def report(result: dict, wanted: list[dict]) -> tuple[list[str], dict]:
    """Human-readable lines and the final result object for one run."""
    cal = result["calibration_s"]
    lines = [f"environment {json.dumps(result['environment'], sort_keys=True)}",
             f"calibration_s before={cal['before']:.6f} after={cal['after']:.6f}",
             f"unscaled wall_s = {result['unscaled_wall_s']:.6g} s"]
    lines += [f"command {name}_s = {seconds:.4f} s (median of "
              f"{len(result['job_s'][name])})"
              for name, seconds in result.get("command_median_s", {}).items()]
    lines += [f"FAILED {entry['job']}: {'; '.join(entry['problems'])}"
              for entry in result["problems"]]
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"failed_ratio = {failed / attempted:.6g} ({failed}/{attempted} jobs, "
                 f"{len(result['passes']['untraced_s'])} untraced passes, "
                 f"{result['job_samples']} distinct jobs)")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return lines, final


if __name__ == "__main__":
    sys.exit(main())
