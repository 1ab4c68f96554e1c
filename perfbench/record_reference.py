"""Write reference.json: cli artifacts and scan protocol counts at seed 0.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are the accepted baseline; every
later benchmark run compares its artifacts with this file.  Each command's
argv is stored with its artifacts, and each scan count with its job's
inputs, so the reference applies exactly where the inputs match.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import clirun  # noqa: E402
import measure  # noqa: E402
import workloads as wl  # noqa: E402


def record(seed: int, sizes: wl.Sizes, workdir: Path) -> dict:
    """Run one cli pass and one scan pass; fail if any check fails."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli = measure.CliJobs(seed, sizes, workdir, {"commands": {}})  # nothing to compare yet
    commands = {}
    for i, cmd in enumerate(cli.inputs):
        out = cli.run(i, None)
        problems, _ = cli.check(i, out)
        if problems:
            raise RuntimeError(f"{cmd.name}: {problems}")
        files = clirun.artifact_files(out)
        commands[cmd.name] = {
            "argv": list(cmd.argv),
            "artifacts": {name: clirun.describe(name, path) for name, path in files.items()},
        }
    scan = measure.InProcessJobs("scan", seed, sizes, workdir, {})
    counts = [[list(scan.key(i)), list(scan.run(i, None)["counts"])]
              for i in range(len(scan.inputs))]
    return {"seed": seed, "commands": commands, "scan": counts}


if __name__ == "__main__":
    reference = record(0, wl.FULL, ROOT / ".perfbench" / "work" / "reference")
    clirun.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {clirun.REFERENCE}")
