import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chemoflow import cli, config, fluid, timestepping
from chemoflow.cli import main
from chemoflow.config import (
    ConfigError,
    apply_overrides,
    build_initial_state,
    config_from_dict,
    load_config,
)
from chemoflow.fields_io import export_fields, load_fields, snapshot_name
from chemoflow.geometry import load_mesh
from chemoflow.timestepping import State, TimeGrid

REPO = Path(__file__).resolve().parents[1]
BENCHMARK_CONFIG = REPO / "configs" / "benchmark.json"
STEADY_CONFIG = REPO / "configs" / "steady.json"


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {}))
    assert cfg.grid.N == 16
    assert cfg.params.alpha == 1.0
    assert cfg.initial["c"]["preset"] == "constant"


def test_config_semantic_error_names_key(tmp_path):
    path = write_config(tmp_path, {"params": {"b": 0.0}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("params.b" in f"{k}: {m}" for k, m in exc.value.problems)


def test_config_zero_steps_rejected(tmp_path):
    path = write_config(tmp_path, {"time": {"N": 0}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any(k == "time.N" for k, _ in exc.value.problems)


def test_config_collects_all_errors(tmp_path):
    path = write_config(
        tmp_path,
        {"time": {"N": 0}, "params": {"b": 0.0, "alpha": -1}, "solver": {"max_inner": 0}},
    )
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert len(exc.value.problems) >= 4


def test_config_parse_error_has_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"mesh": }')
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "line 1" in exc.value.problems[0][1]


# a typo, three keys the format dropped, each with a value it once
# accepted, and keys a preset or response family does not take; keyed by
# the name the error reports
UNKNOWN_KEYS = {
    "tyme": {"tyme": {"N": 4}},
    "mollifier_eps": {"mollifier_eps": 0.0},
    "seed": {"seed": 0},
    "solver.damping": {"solver": {"damping": 1.0}},
    "initial.n.amplitud": {"initial": {"n": {"preset": "gaussian", "amplitud": 0.5}}},
    "params.g.thet": {"params": {"g": {"family": "constant", "thet": 0.5}}},
    "initial.c.value": {"initial": {"c": {"preset": "zero", "value": 3}}},
}


@pytest.mark.parametrize("key", list(UNKNOWN_KEYS))
def test_config_unknown_key_rejected(tmp_path, key):
    path = write_config(tmp_path, UNKNOWN_KEYS[key])
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert (key, "unknown key") in exc.value.problems


def test_integer_setting_is_stored_as_int(tmp_path, capsys):
    args = ["--set", "mesh.first_ring=6.0", "--set", "mesh.target_h=0.35", "--set", "time.N=1"]
    cfg = load_config(STEADY_CONFIG, args[1::2])
    assert type(cfg.mesh["first_ring"]) is int and cfg.mesh["first_ring"] == 6
    assert main(["run", "--config", str(STEADY_CONFIG), *args, "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    # json reads 6.0 back as a float, 6 as an int
    used = json.loads((tmp_path / "config_used.json").read_text())
    assert type(used["mesh"]["first_ring"]) is int and used["mesh"]["first_ring"] == 6


def test_config_missing_file_reference(tmp_path):
    path = write_config(tmp_path, {"initial": {"c": {"preset": "file", "path": "nope.txt"}}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("does not exist" in m for _, m in exc.value.problems)


def test_overrides_apply_and_validate(tmp_path):
    cfg = load_config(write_config(tmp_path, {}))
    raw = apply_overrides(cfg.raw, ["time.N=8", "params.alpha=0.25"])
    cfg2 = config_from_dict(raw)
    assert cfg2.grid.N == 8 and cfg2.params.alpha == 0.25
    with pytest.raises(ConfigError):
        apply_overrides(cfg.raw, ["no-equals-sign"])


def test_override_switching_a_preset_validates(capsys):
    assert main(["validate", "--config", str(STEADY_CONFIG), "--set", "initial.c.preset=zero"]) == 0
    assert "configuration valid" in capsys.readouterr().out


def test_override_switching_a_preset_drops_its_keys(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(BENCHMARK_CONFIG), "--output", str(out), "--set", "initial.n.preset=constant",
                 "--set", "mesh.target_h=0.35", "--set", "time.N=1", "--set", "output.checkpoints=false",
                 "--set", "output.snapshot_stride=0"])
    assert code == 0
    assert json.loads((out / "config_used.json").read_text())["initial"]["n"] == {"preset": "constant"}


def test_override_switching_a_family_drops_its_keys():
    raw = {"params": {"g": {"family": "constant", "g1": 0.02, "theta": 0.5}}}
    switched = apply_overrides(raw, ["params.g.family=saturating"])
    assert switched["params"]["g"] == {"family": "saturating", "g1": 0.02}
    config_from_dict(switched)
    # an unknown or unchanged name keeps every key, so validation still names them
    assert apply_overrides(raw, ["params.g.family=bogus"])["params"]["g"] == {**raw["params"]["g"], "family": "bogus"}
    assert apply_overrides(raw, ["params.g.family=constant"]) == raw


def test_fields_roundtrip_bit_exact(coarse_ops, tmp_path):
    rng = np.random.default_rng(0)
    state = State(
        c=rng.standard_normal(coarse_ops.mesh.n_vertices),
        n=rng.standard_normal(coarse_ops.mesh.n_vertices),
        u=rng.standard_normal(coarse_ops.vspace.n_velocity),
        p=rng.standard_normal(coarse_ops.mesh.n_vertices),
        t=0.7301,
    )
    path = tmp_path / "state.txt"
    export_fields(state, path)
    back = load_fields(path)
    assert back.t == state.t
    for name in ("c", "n", "u", "p"):
        assert np.array_equal(getattr(back, name), getattr(state, name))


def test_initial_state_from_file_preset(coarse_ops, tmp_path):
    nv = coarse_ops.mesh.n_vertices
    vals = np.linspace(0, 1, nv)
    np.savetxt(tmp_path / "c0.txt", vals, fmt="%.17g")
    cfg = load_config(
        write_config(tmp_path, {"initial": {"c": {"preset": "file", "path": "c0.txt"}}})
    )
    # mesh of the config (default target_h 0.1) differs from coarse_ops; build matching config
    cfg = load_config(
        write_config(
            tmp_path,
            {
                "mesh": {"radius": 1.0, "target_h": 0.35},
                "initial": {"c": {"preset": "file", "path": "c0.txt"}},
            },
        )
    )
    state = build_initial_state(cfg, coarse_ops)
    assert np.array_equal(state.c, vals)


def test_cli_validate_benchmark_exit_zero(capsys):
    code = main(["validate", "--config", str(BENCHMARK_CONFIG)])
    out = capsys.readouterr().out
    assert code == 0
    assert "WARNING" not in out


def test_cli_validate_checks_the_parameters_once(monkeypatch, capsys):
    # the findings of the config's own check are the ones printed
    calls = []
    check = config.validate_params

    def counted(params):
        calls.append(params)
        return check(params)

    monkeypatch.setattr(config, "validate_params", counted)
    assert main(["validate", "--config", str(STEADY_CONFIG)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "INFO    delta-hat-window: admissible delta-hat window: (0.1, 1)\nconfiguration valid\n"
    )


def test_cli_validate_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {"params": {"b": 0.0}})
    code = main(["validate", "--config", str(path)])
    assert code == 1
    assert "params.b" in capsys.readouterr().out


def test_cli_config_not_utf8_exits_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"mesh": \xff}')
    assert main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert f"ERROR   {path}: cannot read" in out and "Traceback" not in out + err
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert f"ERROR   {path}: cannot read" in err and "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


def test_cli_overrides_apply_before_validation(tmp_path, capsys):
    path = write_config(tmp_path, {"params": {"xi": -1}})
    assert main(["validate", "--config", str(path), "--set", "params.xi=1.0"]) == 0
    assert "configuration valid" in capsys.readouterr().out
    cfg = load_config(path, ["params.xi=1.0", "params.g.g1=0.3"])
    assert cfg.params.xi == 1.0 and cfg.base_dir == tmp_path
    # an object the override creates starts from its defaults
    assert cfg.raw["params"]["g"] == {"family": "saturating", "g1": 0.3}


@pytest.mark.parametrize(
    "response", [{"f": {"family": "bogus"}}, {"g": {"family": "constant", "theta": 2}}]
)
def test_cli_bad_response_family_exits_config(tmp_path, capsys, response):
    path = write_config(tmp_path, {"params": response})
    assert main(["validate", "--config", str(path)]) == 1
    assert "response-family" in capsys.readouterr().out
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 1
    assert "response-family" in capsys.readouterr().err


# an override and the key path its problem names; validation finds every one
# but the file preset's contents, which only the run reads
BAD_INPUTS = [
    ("params.alpha=abc", "params.alpha"),
    ("params.f.f0=abc", "params.f.f0"),
    ("params.g.g1=null", "params.g.g1"),
    ("params.xi=true", "params.xi"),
    ("params.b=1e999", "params.b"),
    ('params.g={"family": "constant", "theta": null}', "params (response-family)"),
    ("params.f=[1]", "params.f"),
    ("params.grad_sigma=[0, true]", "params.grad_sigma[1]"),
    ("mesh.radius=abc", "mesh.radius"),
    ("time.N=0", "time.N"),
    ("initial.c.value=abc", "initial.c.value"),
    ("initial.n.amplitude=abc", "initial.n.amplitude"),
    ("initial.n.width_sq=0", "initial.n.width_sq"),
    ('initial.n.center=[0, "abc"]', "initial.n.center[1]"),
    ('initial.u={"preset": "swirl", "radius": "abc"}', "initial.u.radius"),
    ('initial.c={"preset": "file", "path": "bad.txt"}', "initial.c"),
    ("mesh.first_ring=3", "mesh"),
    # keys the preset or family does not take
    ("initial.n.amplitud=0.5", "initial.n.amplitud"),
    ("params.g.thet=0.5", "params.g.thet"),
    ('initial.c={"preset": "zero", "value": 3}', "initial.c.value"),
    # a preset or family that is not a string is never looked up in a key table
    ("initial.c.preset=[1]", "initial.c.preset"),
    ("params.g.family=[1]", "params (response-family)"),
]


@pytest.mark.parametrize("override, key", BAD_INPUTS)
def test_cli_bad_input_is_a_config_error(tmp_path, capsys, override, key):
    (tmp_path / "bad.txt").write_text("abc\n")
    path = write_config(tmp_path, json.loads(BENCHMARK_CONFIG.read_text()))
    args = ["--config", str(path), "--set", "mesh.target_h=0.5", "--set", override]
    code = main(["validate", *args])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    # validate reads no field file and builds no mesh
    if key not in ("initial.c", "mesh"):
        assert code == 1 and f"ERROR   {key}: " in out
    assert main(["run", *args, "--output", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert f"ERROR   {key}: " in err and "Traceback" not in out + err


def test_cli_mesh_info(capsys):
    code = main(["mesh-info", "--config", str(STEADY_CONFIG)])
    assert code == 0
    out = capsys.readouterr().out
    assert "vertices" in out and "h_max" in out


def test_cli_run_steady_and_energy(tmp_path, capsys):
    out_dir = tmp_path / "steady"
    code = main(
        [
            "run",
            "--config",
            str(STEADY_CONFIG),
            "--output",
            str(out_dir),
            "--set",
            "time.N=4",
            "--set",
            "mesh.target_h=0.35",
            "--set",
            "output.checkpoints=true",
            "--set",
            "output.snapshot_stride=2",
        ]
    )
    assert code == 0
    ledger_lines = (out_dir / "ledger.csv").read_text().strip().split("\n")
    assert len(ledger_lines) == 4 + 2  # header + N+1 rows
    # steady run: zero increments column-wise
    import csv

    rows = list(csv.DictReader(ledger_lines))
    assert all(float(r["dc_sq"]) < 1e-24 for r in rows[1:])
    # snapshots at m = 0, 2, 4
    assert sorted(p.name for p in out_dir.glob("fields_*.txt")) == [
        snapshot_name(0),
        snapshot_name(2),
        snapshot_name(4),
    ]
    # re-analyze the checkpoints
    code = main(
        [
            "energy",
            "--config",
            str(STEADY_CONFIG),
            "--checkpoints",
            str(out_dir / "checkpoints"),
            "--output",
            str(tmp_path / "energy"),
            "--set",
            "time.N=4",
            "--set",
            "mesh.target_h=0.35",
        ]
    )
    assert code == 0
    assert (tmp_path / "energy" / "energy_report.txt").exists()


def test_cli_run_diagnostics_csv_follows_the_histories(tmp_path, monkeypatch, capsys):
    # docs/formats.md: per step, in step order, one row per fixed-point
    # iteration of each converged attempt, its inner rows and then its outer
    # rows, each level's iterations numbered from 1
    trajectories = []
    run_time_loop = cli.run_time_loop

    def kept(*args, **kwargs):
        trajectories.append(run_time_loop(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(cli, "run_time_loop", kept)
    out_dir = tmp_path / "steady"
    assert main(["run", "--config", str(STEADY_CONFIG), "--output", str(out_dir), "--set", "time.N=4"]) == 0
    (traj,) = trajectories
    assert traj.diagnostics[0] == () and all(len(ds) == 1 for ds in traj.diagnostics[1:])
    header, *lines = (out_dir / "diagnostics.csv").read_text().splitlines()
    assert header == "step,level,iteration,residual"
    rows = [line.split(",") for line in lines]
    expected, residuals = [], []
    for m, ds in enumerate(traj.diagnostics):
        for d in ds:
            assert d.converged and d.inner_iterations >= d.outer_iterations >= 1
            expected += [(m, "inner", i) for i in range(1, d.inner_iterations + 1)]
            expected += [(m, "outer", i) for i in range(1, d.outer_iterations + 1)]
            residuals += d.inner_history + d.outer_history
    assert [(int(m), level, int(i)) for m, level, i, _ in rows] == expected
    assert [float(r) for *_, r in rows] == residuals


def test_cli_converge_smoke(tmp_path, capsys):
    code = main(
        [
            "converge",
            "--config",
            str(BENCHMARK_CONFIG),
            "--levels",
            "3",
            "--output",
            str(tmp_path / "conv"),
            "--set",
            "mesh.target_h=0.35",
            "--set",
            "time.N=16",
        ]
    )
    assert code == 0
    report = (tmp_path / "conv" / "convergence_report.txt").read_text()
    assert "uniform-in-k bound scan" in report
    assert "self-convergence" in report
    assert (tmp_path / "conv" / "ledger_N64.csv").exists()


def test_cli_converge_non_uniform_verdict_exits_verify(tmp_path, monkeypatch, capsys):
    # a gate no ladder can meet: every level solves, the verdict fails
    scan = cli.uniform_bound_scan
    monkeypatch.setattr(cli, "uniform_bound_scan", lambda *a, **kw: replace(scan(*a, **kw), factor=0.5))
    code = main(
        ["converge", "--config", str(STEADY_CONFIG), "--levels", "3", "--output", str(tmp_path / "conv"),
         "--set", "mesh.target_h=0.35", "--set", "time.N=4"]
    )
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY == 5
    assert "[FAIL]" in (tmp_path / "conv" / "convergence_report.txt").read_text()
    assert "Traceback" not in captured.err


def test_cli_converge_level_check(tmp_path, capsys):
    code = main(
        [
            "converge",
            "--config",
            str(STEADY_CONFIG),
            "--levels",
            "1",
            "--output",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "3 refinement levels" in capsys.readouterr().err


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(path).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_cli_run_hash_stable(tmp_path):
    args = lambda out: [
        "run",
        "--config",
        str(STEADY_CONFIG),
        "--output",
        str(out),
        "--set",
        "time.N=2",
        "--set",
        "mesh.target_h=0.35",
    ]
    assert main(args(tmp_path / "a")) == 0
    assert main(args(tmp_path / "b")) == 0
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


def counted_heap_releases(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_release_heap", lambda: calls.append(None))
    return calls


def test_cli_releases_heap_after_success(monkeypatch, capsys):
    calls = counted_heap_releases(monkeypatch)
    assert main(["mesh-info", "--config", str(STEADY_CONFIG)]) == 0
    assert len(calls) == 2  # before and after the command


def test_cli_releases_heap_after_error_exit(tmp_path, monkeypatch, capsys):
    calls = counted_heap_releases(monkeypatch)
    path = write_config(tmp_path, {"tyme": {"N": 4}})
    assert main(["mesh-info", "--config", str(path)]) == 1
    assert len(calls) == 2


def test_release_heap_skips_a_missing_malloc_trim(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._release_heap()


# Runs one command through main, then prints the thread count of each OpenBLAS
# copy in the process: numpy's and scipy's.
THREAD_PROBE = """
import ctypes, json, sys
from chemoflow.cli import main
assert main(["validate", "--config", sys.argv[1]]) == 0
counts = {}
with open("/proc/self/maps") as maps:
    paths = sorted({line.split()[-1] for line in maps if "libscipy_openblas" in line})
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        if hasattr(lib, name):
            counts[name] = getattr(lib, name)()
print(json.dumps(counts))
"""


@pytest.mark.parametrize("threads_set, expected", [(None, 1), ("2", 2)])
def test_cli_pins_blas_threads_unless_set(threads_set, expected):
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs Linux and two CPUs: OpenBLAS runs one thread on one CPU whatever is asked")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    if threads_set is not None:
        env["OPENBLAS_NUM_THREADS"] = threads_set
    out = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, str(STEADY_CONFIG)], env=env, capture_output=True, text=True, check=True
    ).stdout
    counts = json.loads(out.splitlines()[-1])
    if "scipy_openblas_get_num_threads" not in counts:
        pytest.skip("scipy's OpenBLAS has no thread-count symbol here")
    assert counts and all(n == expected for n in counts.values()), counts


def test_cli_run_linear_solve_failure_exits_solver(tmp_path, monkeypatch, capsys):
    def singular(matrix, **kw):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fluid, "splu", singular)
    code = main(
        ["run", "--config", str(STEADY_CONFIG), "--output", str(tmp_path / "out"), "--set", "time.N=2",
         "--set", "mesh.target_h=0.35"]
    )
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert "solver failure: step 1 " in err and "factorisation failed" in err
    assert "Traceback" not in err


def test_cli_run_failed_step_leaves_only_checkpoints(tmp_path, monkeypatch, capsys):
    # snapshots, diagnostics and the ledger are written from the whole
    # trajectory, so a run whose step 3 fails leaves the checkpoints of
    # steps 0-2 and nothing else of the time loop
    outer = timestepping.outer_step

    def failing_step3(*args, step, **kwargs):
        result = outer(*args, step=step, **kwargs)
        if step == 3:
            result.diagnostics.converged = False
        return result

    monkeypatch.setattr(timestepping, "outer_step", failing_step3)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(STEADY_CONFIG), "--output", str(out), "--set", "time.N=4",
         "--set", "mesh.target_h=0.35", "--set", "output.snapshot_stride=1", "--set", "output.checkpoints=true",
         "--set", "solver.retry_depth=0"]
    )
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert "solver failure: step 3 " in err and "Traceback" not in err
    assert sorted(path.name for path in (out / "checkpoints").iterdir()) == [f"step_{m:06d}.ckpt" for m in range(3)]
    assert sorted(path.name for path in out.iterdir()) == ["checkpoints", "config_used.json", "mesh.txt"]


def stopped_in_step3(tmp_path, monkeypatch, capsys, stop):
    """Exit code and stderr of a checkpointed ``run`` that calls ``stop()`` as step 3 starts.

    The checkpoints of steps 0-2 must be whole, with no partial write left.
    """
    outer = timestepping.outer_step
    calls = []

    def stopping(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            stop()
        return outer(*args, **kwargs)

    monkeypatch.setattr(timestepping, "outer_step", stopping)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(STEADY_CONFIG), "--output", str(out), "--set", "time.N=4",
         "--set", "mesh.target_h=0.35", "--set", "output.checkpoints=true"]
    )
    err = capsys.readouterr().err
    names = sorted(path.name for path in (out / "checkpoints").iterdir())
    assert names == [timestepping.checkpoint_name(m) for m in range(3)]
    mesh_hash = load_mesh(out / "mesh.txt").data_hash()
    for m, name in enumerate(names):
        assert timestepping.read_checkpoint(out / "checkpoints" / name, mesh_hash, TimeGrid(T=1.0, N=4)).m == m
    return code, err


def test_cli_run_interrupted_exits_130(tmp_path, monkeypatch, capsys):
    # Ctrl-C during step 3 ends typed
    def interrupt():
        raise KeyboardInterrupt

    code, err = stopped_in_step3(tmp_path, monkeypatch, capsys, interrupt)
    assert code == cli.EXIT_INTERRUPTED == 130
    assert err.startswith("interrupted: run") and "Traceback" not in err


def test_cli_run_terminated_exits_143(tmp_path, monkeypatch, capsys):
    # a real SIGTERM during step 3 ends typed, and the caller's handler is back after it
    before = signal.getsignal(signal.SIGTERM)
    code, err = stopped_in_step3(tmp_path, monkeypatch, capsys, lambda: os.kill(os.getpid(), signal.SIGTERM))
    assert signal.getsignal(signal.SIGTERM) is before
    assert code == cli.EXIT_TERMINATED == 143
    assert err == "terminated: run\n"


def test_cli_setup_solve_failure_exits_solver(tmp_path, monkeypatch, capsys):
    # the Stokes preset's saddle solve fails before the first step
    def singular(matrix, **kw):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fluid, "splu", singular)
    code = main(
        ["run", "--config", str(STEADY_CONFIG), "--output", str(tmp_path / "out"),
         "--set", "initial.u.preset=stokes", "--set", "mesh.target_h=0.35"]
    )
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert "solver failure: saddle factorisation failed" in err
    assert "Traceback" not in err


def test_cli_write_failure_exits_io(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("a regular file")
    code = main(
        ["run", "--config", str(STEADY_CONFIG), "--set", f"output.directory={blocker / 'out'}",
         "--set", "time.N=2", "--set", "mesh.target_h=0.35"]
    )
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err.startswith("I/O failure: ")
    assert "Traceback" not in err


SMALL_STEADY = ["--config", str(STEADY_CONFIG), "--set", "time.N=2", "--set", "mesh.target_h=0.35"]


def missing_checkpoints(tmp_path):
    return tmp_path / "none", "missing checkpoint for step 0 in "


def truncated_checkpoint(tmp_path):
    assert main(["run", *SMALL_STEADY, "--output", str(tmp_path / "run"), "--set", "output.checkpoints=true"]) == 0
    directory = tmp_path / "run" / "checkpoints"
    path = directory / "step_000001.ckpt"
    path.write_bytes(path.read_bytes()[:300])
    return directory, "checkpoint is 300 bytes, its header implies "


def foreign_hash_checkpoint(tmp_path):
    assert main(["run", *SMALL_STEADY, "--output", str(tmp_path / "run"), "--set", "output.checkpoints=true"]) == 0
    directory = tmp_path / "run" / "checkpoints"
    path = directory / "step_000001.ckpt"
    data = bytearray(path.read_bytes())
    data[8] = 0xFF  # the first mesh-hash byte, not ascii
    path.write_bytes(bytes(data))
    return directory, "checkpoint belongs to a different mesh"


def misplaced_checkpoint(tmp_path):
    assert main(["run", *SMALL_STEADY, "--output", str(tmp_path / "run"), "--set", "output.checkpoints=true"]) == 0
    directory = tmp_path / "run" / "checkpoints"
    (directory / "step_000002.ckpt").write_bytes((directory / "step_000001.ckpt").read_bytes())
    return directory, "step_000002.ckpt: checkpoint holds step 1 at t="


def v1_checkpoint(tmp_path):
    # step 1's file in the version 1 layout: the header without the data
    # hash and the factor sources, and no checksum
    assert main(["run", *SMALL_STEADY, "--output", str(tmp_path / "run"), "--set", "output.checkpoints=true"]) == 0
    directory = tmp_path / "run" / "checkpoints"
    path = directory / "step_000001.ckpt"
    data = path.read_bytes()
    path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:120] + data[timestepping.CHECKPOINT_HEADER.size : -4])
    return directory, "step_000001.ckpt: checkpoint version 1 not supported, only 4"


def v3_checkpoint(tmp_path):
    # step 1's file as version 3 wrote it: the same layout, resealed, but a
    # factor source 0 there named the convection-free factor, which no
    # resume rebuilds any more
    assert main(["run", *SMALL_STEADY, "--output", str(tmp_path / "run"), "--set", "output.checkpoints=true"]) == 0
    directory = tmp_path / "run" / "checkpoints"
    path = directory / "step_000001.ckpt"
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 3)
    data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
    path.write_bytes(bytes(data))
    return directory, "step_000001.ckpt: checkpoint version 3 not supported, only 4"


@pytest.mark.parametrize(
    "checkpoints",
    [missing_checkpoints, truncated_checkpoint, foreign_hash_checkpoint, misplaced_checkpoint, v1_checkpoint,
     v3_checkpoint],
)
def test_cli_energy_refused_checkpoint_exits_solver(tmp_path, capsys, checkpoints):
    # a checkpoint the reader refuses is a StepFailure, exit 3; exit 4 is an
    # OSError while opening a file
    directory, message = checkpoints(tmp_path)
    capsys.readouterr()
    code = main(["energy", *SMALL_STEADY, "--checkpoints", str(directory), "--output", str(tmp_path / "energy")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert err.startswith("solver failure: ") and message in err
    assert "Traceback" not in err


def test_cli_energy_refuses_checkpoints_of_other_coefficients(tmp_path, capsys):
    # checkpoints written with alpha=0.05 are not analysed as alpha=0.07
    assert main(["run", *SMALL_STEADY, "--output", str(tmp_path / "run"), "--set", "output.checkpoints=true"]) == 0
    directory = tmp_path / "run" / "checkpoints"
    capsys.readouterr()
    code = main(["energy", *SMALL_STEADY, "--set", "params.alpha=0.07", "--checkpoints", str(directory),
                 "--output", str(tmp_path / "energy")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    path = directory / "step_000000.ckpt"
    assert err.startswith(f"solver failure: {path}: checkpoint belongs to a different problem")
    assert "Traceback" not in err
    assert not (tmp_path / "energy").exists()
