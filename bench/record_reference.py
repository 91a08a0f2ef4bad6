#!/usr/bin/env python3
"""Record bench/reference.json: the final-state summaries of every input.

    python3 bench/record_reference.py [workload ...]

Runs each workload once per seed variant, untraced, and stores the norm and
fixed projections of every final state (one per time loop; the ladder has
four) with the step and iteration counts.  Only re-record when the inputs or
the numerics are meant to change; an optimisation must match the stored
states within the tolerance in ``workloads.py``.
"""

import json
import shutil
import sys

import run
import workloads


def record(cli, workload: str) -> dict:
    out = {}
    for variant in range(workloads.VARIANTS):
        workdir = run.WORK / f"record-{workload}-{variant}"
        r = run.run_repeat(cli, workload, variant, workdir, False, None)
        shutil.rmtree(workdir)
        failed = [name for name, ok, _ in r["checks"] if not ok]
        if failed:
            sys.exit(f"{workload} variant {variant}: checks failed: {failed}")
        rec = r["rec"]
        out[str(variant)] = {
            "states": [workloads.summarize(s) for s in r["finals"]],
            "steps": sum(steps for _, steps, _ in rec.trajectories),
            "step_attempts": rec.step_attempts,
            "outer_iterations": rec.outer_iterations,
            "inner_iterations": rec.inner_iterations,
        }
        print(f"{workload} variant {variant}: {r['wall']:.2f} s, {rec.outer_iterations} outer / "
              f"{rec.inner_iterations} inner iterations", flush=True)
    return out


def main():
    cli = run.import_chemoflow()
    path = run.BENCH / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for workload in sys.argv[1:] or list(workloads.SETTINGS):
        data[workload] = record(cli, workload)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
