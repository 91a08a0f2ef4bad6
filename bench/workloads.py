"""The three workloads: seeded inputs, the commands they run, and their checks.

Every workload starts from the shipped ``configs/benchmark.json`` and changes
only what is listed here.  The seed moves the initial Gaussian cell blob
(amplitude within 5 %, centre within 0.05 in each coordinate); seed 0 keeps
the shipped data exactly.  Seeds select one of ``VARIANTS`` inputs
(``seed % VARIANTS``), so that every input has a committed reference state in
``reference.json``.

Why each workload exists:

* ``bench_n64`` -- the paper's benchmark trajectory as ``scripts/run_benchmark.py``
  runs it (``run`` with per-step checkpoints and snapshots every 16 steps,
  then ``energy`` on the checkpoints).  Convection assembly is about half of
  the solve; the fluid defect correction never falls back.  The only
  workload with checkpoint/snapshot I/O and checkpoint read-back.
* ``ladder_coarse`` -- ``converge --levels 4`` at N=16 on the h=0.1 mesh:
  240 steps over 4 step sizes, 4 saddle factorisations and the cross-level
  verification.  Small systems, so fixed per-call overhead weighs more.
* ``low_xi`` -- the benchmark data with xi=0.01 on the h=0.1 mesh, N=16.
  Every fluid defect correction stalls and falls back to a direct saddle LU,
  so the fluid layer dominates and assembly is minor: a frozen-factor change
  that helps ``bench_n64`` must not slow this one.
"""

from __future__ import annotations

import copy
import csv
import json
import random
import re
from pathlib import Path

import numpy as np

VARIANTS = 10
# a final state matches its reference when every summary agrees to
# REFERENCE_FACTOR * solver.outer_tol relative to the field norm: each step
# converges to outer_tol in the update norm, and the factor leaves room for
# the error of up to 128 steps to add up
REFERENCE_FACTOR = 1e3
N_PROJECTIONS = 4
FIELDS = ("c", "n", "u", "p")

# workload -> (config overrides, checkpoints/snapshots on)
SETTINGS = {
    "bench_n64": ({}, True),
    "ladder_coarse": ({"time.N": 16, "mesh.target_h": 0.1}, False),
    "low_xi": ({"params.xi": 0.01, "mesh.target_h": 0.1, "time.N": 16}, False),
}


def blob(base: dict, seed: int) -> dict:
    """Initial cell-density spec for a seed; variant 0 is the shipped one."""
    spec = copy.deepcopy(base)
    variant = seed % VARIANTS
    if variant == 0:
        return spec
    rng = random.Random(variant)
    spec["amplitude"] = spec["amplitude"] * (1.0 + rng.uniform(-0.05, 0.05))
    spec["center"] = [x + rng.uniform(-0.05, 0.05) for x in spec["center"]]
    return spec


def write_config(root: Path, workload: str, seed: int, workdir: Path) -> Path:
    """The only input the program receives: a config file in the work directory."""
    raw = json.loads((root / "configs" / "benchmark.json").read_text())
    overrides, outputs = SETTINGS[workload]
    for key, value in overrides.items():
        node = raw
        *parents, leaf = key.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
    raw["initial"]["n"] = blob(raw["initial"]["n"], seed)
    raw["output"]["directory"] = str(workdir / "out")
    if not outputs:
        raw["output"]["checkpoints"] = False
        raw["output"]["snapshot_stride"] = 0
    path = workdir / "config.json"
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return path


def commands(workload: str, config: Path, workdir: Path) -> list:
    out = str(workdir / "out")
    if workload == "bench_n64":
        return [
            ["run", "--config", str(config), "--output", out],
            ["energy", "--config", str(config), "--checkpoints", f"{out}/checkpoints", "--output", out],
        ]
    if workload == "ladder_coarse":
        return [["converge", "--config", str(config), "--levels", "4", "--output", out]]
    return [["run", "--config", str(config), "--output", out]]


def outer_tol(config: Path) -> float:
    return float(json.loads(config.read_text())["solver"]["outer_tol"])


def _weights(size: int) -> np.ndarray:
    i = np.arange(size, dtype=float)
    w = np.cos(np.outer(np.arange(1, N_PROJECTIONS + 1) * 0.7548776662466927, i) + 0.5)
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def summarize(state) -> dict:
    """Norm and fixed projections of each field of a final state."""
    out = {}
    for name in FIELDS:
        x = getattr(state, name)
        out[name] = {"norm": float(np.linalg.norm(x)), "proj": [float(v) for v in _weights(x.size) @ x]}
    return out


def reference_misses(summaries: list, reference: list, tol: float) -> list:
    """Fields whose summary differs from the reference by more than tol."""
    if len(summaries) != len(reference):
        return [f"{len(summaries)} final states, reference has {len(reference)}"]
    misses = []
    for level, (got, ref) in enumerate(zip(summaries, reference)):
        for name in FIELDS:
            scale = max(ref[name]["norm"], 1e-300)
            diff = max(abs(got[name]["norm"] - ref[name]["norm"]),
                       *(abs(a - b) for a, b in zip(got[name]["proj"], ref[name]["proj"])))
            if diff > tol * scale:
                misses.append(f"level {level} field {name}: relative difference {diff / scale:.3e}")
    return misses


def _mass_drift(ledger_csv: Path) -> float:
    with open(ledger_csv) as f:
        mass = [float(row["mass_n"]) for row in csv.DictReader(f)]
    return max(abs(m - mass[0]) for m in mass) / abs(mass[0])


def _number(pattern: str, text: str) -> float:
    match = re.search(pattern, text)
    return float(match.group(1)) if match else float("nan")


def output_checks(workload: str, workdir: Path, texts: list) -> list:
    """(name, ok, detail) for each check on the files and reports written."""
    out = workdir / "out"
    checks = []
    ledgers = sorted(out.glob("ledger*.csv"))
    for ledger in ledgers:
        drift = _mass_drift(ledger)
        checks.append((f"cell-mass drift {ledger.name}", drift <= 1e-12, f"relative {drift:.3e}"))
    if not ledgers:
        checks.append(("cell-mass drift", False, "no ledger written"))

    if workload == "bench_n64":
        report = texts[-1]
        for what in ("combined-step", "oxygen-solve", "cell-solve"):
            slack = _number(rf"worst {what} slack:\s+(\S+)", report)
            checks.append((f"{what} slack", slack >= 0.0, f"{slack:.6g}"))
        kin = _number(r"max kinetic identity residual:\s+(\S+)", report)
        checks.append(("kinetic identity", kin <= 1e-10, f"{kin:.3e}"))
    elif workload == "ladder_coarse":
        report = texts[-1]
        rows = re.findall(r"\[(ok  |FAIL)\] spread", report)
        checks.append(("uniform-in-k verdict", len(rows) == 8 and "FAIL" not in rows, f"{rows.count('ok  ')}/8 ok"))
        slopes = [float(s) for s in re.findall(r"slope (\S+)", report)]
        checks.append(("gap slopes about 1", len(slopes) == 3 and all(0.9 <= s <= 1.1 for s in slopes),
                       " ".join(f"{s:.4f}" for s in slopes)))
        ratios = [float(r) for r in re.findall(r"ratio (\S+)", report)]
        checks.append(("self-convergence ratios about 2", len(ratios) == 2 and all(1.5 <= r <= 2.5 for r in ratios),
                       " ".join(f"{r:.4f}" for r in ratios)))
    return checks
