"""Per-step iteration counts and ledger rows of two shipped inputs, pinned by a golden.

``golden/step_counts.json`` holds two runs of ``configs/benchmark.json`` with
its shipped solver settings: the ``low_xi`` bench input (xi=0.01, h=0.1,
N=16) and the N=16 level of the ``ladder_coarse`` ladder (h=0.1, N=16).
For each step it lists every attempt in order, retries included, with its
step size, inner and outer iterations and convergence, and the golden also
holds every ledger row.

The counts must match exactly, as the bench's seed-0 count gate does across
machines.  Each ledger column must match to ``LEDGER_RTOL`` of its largest
magnitude: solving the same steps through another held factor moves the
columns by about 1e-12 of that, and the solver's own tolerances (1e-11
inner, 1e-10 outer) bound what a change of the converged iterates moves
them by from below, so 1e-9 passes the first and catches a change of the
numerics that keeps the counts.

Re-record only when the numerics are meant to change, with
``PYTHONPATH=src python tests/test_step_counts.py``.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from chemoflow import timestepping
from chemoflow.assembly import build_operators
from chemoflow.config import apply_overrides, build_initial_state, config_from_dict, load_config
from chemoflow.energy import CSV_COLUMNS, build_ledger
from chemoflow.geometry import build_disc_mesh

GOLDEN = Path(__file__).parent / "golden" / "step_counts.json"
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"
CASES = {
    "low_xi": ["params.xi=0.01", "mesh.target_h=0.1", "time.N=16"],
    "ladder_coarse_N16": ["mesh.target_h=0.1", "time.N=16"],
}
LEDGER_RTOL = 1e-9


@lru_cache(maxsize=None)
def operators(radius, target_h, first_ring):
    return build_operators(build_disc_mesh(radius, target_h, first_ring))


def record(case: str) -> dict:
    """Every attempt of each step and the ledger rows of one case's run."""
    cfg = config_from_dict(apply_overrides(load_config(CONFIG).raw, CASES[case]), base_dir=CONFIG.parent)
    ops = operators(**cfg.mesh)
    steps = []
    outer = timestepping.outer_step

    def recorded(inputs, params, ops, options, **kwargs):
        # only a grid step's first attempt names its step; its halved retries pass step=0
        if kwargs.get("step"):
            steps.append([])
        result = outer(inputs, params, ops, options, **kwargs)
        d = result.diagnostics
        steps[-1].append({"k": inputs.dt, "inner": d.inner_iterations, "outer": d.outer_iterations,
                          "converged": d.converged})
        return result

    timestepping.outer_step = recorded
    try:
        traj = timestepping.run(ops, cfg.params, cfg.grid, build_initial_state(cfg, ops), options=cfg.options)
    finally:
        timestepping.outer_step = outer
    ledger = build_ledger(traj, ops, cfg.params)
    return {"steps": steps, "ledger": {name: ledger[name].tolist() for name in CSV_COLUMNS[1:]}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_per_step_counts_and_ledger_match_the_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    got = record(case)
    assert got["steps"] == golden["steps"]
    for name, want in golden["ledger"].items():
        want = np.array(want)
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got["ledger"][name], want, rtol=0, atol=LEDGER_RTOL * scale, err_msg=name)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: record(case) for case in sorted(CASES)}, indent=1) + "\n")
