#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --workloads bench_n64,low_xi --seeds 1-10 [--trace 1] [--out FILE]

Each (workload, seed) is one ``bench/run.py`` process, run one after another.
For every metric the summary holds the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  With ``--out`` the summary and the
provenance of the first run are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {"seeds": seeds(args.seeds), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            result = json.loads(lines[-1])
            provenance = next(line for line in lines if line.startswith("provenance "))
            summary.setdefault("provenance", json.loads(provenance.split(" ", 1)[1]))
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")} | {"seed": seed})
            for name, metric in result["metrics"].items():
                values.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if not args.trace), flush=True)
        for name, m in values.items():
            q1, median, q3 = statistics.quantiles(m["values"], n=4)
            m.update(median=median, q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        summary["workloads"][workload] = {"runs": runs, "metrics": values}
        for name, m in values.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}, spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
