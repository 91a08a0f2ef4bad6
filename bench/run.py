#!/usr/bin/env python3
"""chemoflow benchmark: seeded solver workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload bench_n64 --seed 0 --seconds 25 --trace 0

Each run is one process.  It repeats the workload in-process through
``chemoflow.cli.main`` while another repeat fits in ``--seconds`` (at least
one), then starts ``SETUP_PROBES`` fresh interpreters that stop at the first
time step (``setup_s``), checks every repeat's outputs, and prints one JSON
object as its last line.  BLAS and OpenMP threads are pinned to 1, and
scratch files go to ``bench/_work``.

``verify_s`` sums over the commands the median of the in-run verification
time and of replays of the same verification calls with the same
arguments, made outside ``wall_s``: a single pass (5 ms on ``low_xi``) is
too short to time steadily on a shared machine.  Half the replay time
follows each command; the other half replays the last command's calls
between the set-up probes, so that the samples are spread over the run.

``--trace 1`` runs one untraced and one traced repeat and reports the
per-layer metrics instead (see ``spans.py``).  The traced final states must
be bit-identical to the untraced ones; at seed 0 the traced counts are also
printed next to the counts known when the benchmark was defined.

``fail_ratio`` is (failed + 1) / (attempted + 2) over the operations of one
repeat and the set-up probes, worst repeat; the add-one form keeps it above
zero, and with no failures it reads 1 / (attempted + 2).  An operation is
one step attempt (halved retries included), one command, one set-up probe
or one correctness check.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in every child

import argparse
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SRC = ROOT / "src"
SETUP_PROBES = 3
VERIFY_REPLAY_S = 6.0  # replay time per run
END_TO_END = ("wall_s", "setup_s", "solve_s", "verify_s", "cpu_s", "peak_rss_mb", "fail_ratio")
UNITS = {"peak_rss_mb": "MB", "fail_ratio": "ratio"}
# traced counts of the shipped inputs (seed 0) at the commit that defined the benchmark
SEED0_COUNTS = {
    "bench_n64": {"timestepping.steps": 64, "step_solver.outer_iters": 192, "step_solver.inner_iters": 607,
                  "step_solver.lu_factor.calls": 384, "fluid.cache_solve.calls": 192, "fluid.fallbacks": 0},
    "low_xi": {"fluid.cache_solve.calls": 149, "fluid.fallbacks": 149, "step_solver.inner_iters": 476},
    "ladder_coarse": {"timestepping.steps": 240, "step_solver.outer_iters": 768},
}


def import_chemoflow():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "chemoflow" / "__init__.py").is_file():
        sys.exit(f"bench: no chemoflow sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import chemoflow.cli

    if Path(chemoflow.__file__).resolve().parent != (SRC / "chemoflow").resolve():
        sys.exit(f"bench: imported chemoflow from {chemoflow.__file__}, not from {SRC}")
    return chemoflow.cli


def probe_setup(argv_json: str) -> None:
    """Child process: run the first command and exit at the first time step."""
    cli = import_chemoflow()
    from chemoflow import timestepping

    def first_step(*args, **kwargs):
        os._exit(0)

    timestepping.outer_step = first_step
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(json.loads(argv_json))
    os._exit(3)  # the command ended without taking a step


def setup_times(argv: list, between) -> tuple:
    """Wall time from process spawn to the first time step, per probe.

    ``between()`` runs after each probe, outside the probe's time.
    """
    times, failures = [], 0
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-setup", json.dumps(argv)],
                                  cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
            code, err = proc.returncode, proc.stderr.decode()[-500:]
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
            code, err = "timeout", ""
        times.append(time.perf_counter() - t0)
        if code != 0:
            failures += 1
            print(f"setup probe failed (exit {code}): {err}")
        between()
    return times, failures


def state_digest(states) -> str:
    h = hashlib.sha256()
    for s in states:
        for name in ("c", "n", "u", "p"):
            h.update(getattr(s, name).tobytes())
    return h.hexdigest()


def replay(calls: list, seconds: float) -> list:
    """Times of passes over one command's verification calls.

    The calls are replayed with the same arguments, at least 3 passes and
    until the passes take ``seconds`` in all.  Files the calls write are
    removed before each pass, so that every pass creates them as the run
    did; rewriting a file in place is slower and far less steady.
    """
    times = []
    while len(times) < 3 or (sum(times) < seconds and len(times) < 1000):
        for *_, written in calls:
            if written is not None:
                Path(written).unlink(missing_ok=True)
        t0 = time.perf_counter()
        for fn, args, kwargs, _ in calls:
            fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return times


def run_repeat(cli, workload, seed, workdir, full, reference):
    """One in-process repeat of the workload; returns its measurements and checks.

    ``reference`` holds the summaries the final states must match, or None
    while the references are being recorded.  The caller removes ``workdir``.
    """
    workdir.mkdir(parents=True)
    config = workloads.write_config(ROOT, workload, seed, workdir)
    rec = spans.Recorder()
    main = rec.wrap(cli.main, "cli.main")
    codes, texts = [], []
    wall = cpu = 0.0
    samples = []  # verification times per command: in-run, then replays
    commands = workloads.commands(workload, config, workdir)
    with spans.installed(spans.patches(rec, full)):
        for argv in commands:
            stdout = io.StringIO()
            first_span = len(rec.spans)
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                with redirect_stdout(stdout), redirect_stderr(stdout):
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed command, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            cpu += time.process_time() - cpu0
            codes.append(code)
            texts.append(stdout.getvalue())
            in_run = sum(end - start for name, start, end, _ in rec.spans[first_span:]
                         if name in spans.VERIFY_SPANS)
            replays = [] if full else replay(rec.verify_calls, VERIFY_REPLAY_S / 2 / len(commands))
            samples.append([in_run] + replays)
            last_calls, rec.verify_calls = rec.verify_calls, []

    checks = [(f"exit code of {argv[0]}", code == 0, str(code)) for argv, code in zip(commands, codes)]
    if all(code == 0 for code in codes):
        checks += workloads.output_checks(workload, workdir, texts)
    checks += [(f"time loop {i} converged ({steps} steps)", ok, "")
               for i, (_, steps, ok) in enumerate(rec.trajectories)]
    finals = [state for state, _, _ in rec.trajectories]
    if reference is not None:
        tol = workloads.REFERENCE_FACTOR * workloads.outer_tol(config)
        misses = workloads.reference_misses([workloads.summarize(s) for s in finals], reference, tol)
        checks.append(("final states match reference", not misses, "; ".join(misses)))
    return {
        "rec": rec,
        "wall": wall,
        "cpu": cpu,
        "solve": rec.total("timestepping.run"),
        "verify_samples": samples,
        "last_calls": last_calls,
        "digest": state_digest(finals),
        "finals": finals,
        "checks": checks,
    }


def provenance() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                             "unknown")
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe_setup is not None:
        probe_setup(args.probe_setup)

    cli = import_chemoflow()
    if args.workload not in workloads.SETTINGS:
        parser.error(f"--workload must be one of {', '.join(workloads.SETTINGS)}")
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    reference = reference[str(args.seed % workloads.VARIANTS)]["states"]
    repeats = []
    start = time.perf_counter()
    while True:
        repeats.append(run_repeat(cli, args.workload, args.seed, run_dir / f"repeat{len(repeats)}",
                                  full=False, reference=reference))
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + repeats[-1]["wall"] > args.seconds:
            break
        repeats[-1]["last_calls"] = None

    last = repeats[-1]

    def more_replays():
        last["verify_samples"][-1] += replay(last["last_calls"], VERIFY_REPLAY_S / 2 / SETUP_PROBES)

    probe_dir = run_dir / "probe"
    probe_dir.mkdir(parents=True)
    first = workloads.commands(args.workload, workloads.write_config(ROOT, args.workload, args.seed, probe_dir),
                               probe_dir)[0]
    probe_times, probe_failures = setup_times(first, more_replays)
    last["last_calls"] = None
    if args.trace:
        traced = run_repeat(cli, args.workload, args.seed, run_dir / "traced", full=True, reference=reference)
        same = traced["digest"] == repeats[0]["digest"]
        traced["checks"].append(("traced final states bit-identical to untraced", same, traced["digest"][:16]))
        repeats.append(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(run_dir)

    attempted, failed, check_failures = SETUP_PROBES, probe_failures, 0
    ratios = []
    for r in repeats:
        ops = len(r["checks"]) + r["rec"].step_attempts
        bad = sum(not ok for _, ok, _ in r["checks"]) + r["rec"].failed_attempts
        ratios.append((bad + probe_failures + 1) / (ops + SETUP_PROBES + 2))
        attempted += ops
        failed += bad
        for name, ok, detail in r["checks"]:
            if not ok:
                check_failures += 1
                print(f"CHECK FAILED: {name}: {detail}")

    if args.trace:
        rec = traced["rec"]
        WORK.mkdir(exist_ok=True)
        rec.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = spans.layer_metrics(rec)
        values["trace.overhead_s"] = traced["wall"] - repeats[0]["wall"]
        expected = SEED0_COUNTS[args.workload] if args.seed % workloads.VARIANTS == 0 else {}
        for name, want in expected.items():
            print(f"seed-0 count {name}: traced {values[name]}, known {want}"
                  f" [{'match' if values[name] == want else 'MISMATCH'}]")
        metrics = {name: {"value": values[name], "unit": spans.layer_unit(name)} for name in sorted(values)}
    else:
        values = {
            "wall_s": statistics.median(r["wall"] for r in repeats),
            "setup_s": statistics.median(probe_times),
            "solve_s": statistics.median(r["solve"] for r in repeats),
            "verify_s": statistics.median(sum(map(statistics.median, r["verify_samples"])) for r in repeats),
            "cpu_s": statistics.median(r["cpu"] for r in repeats),
            "peak_rss_mb": peak_rss_mb,
            "fail_ratio": max(ratios),
        }
        metrics = {name: {"value": values[name], "unit": UNITS.get(name, "s")} for name in END_TO_END}

    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(repeats)} repeat(s), walls "
          + " ".join(f"{r['wall']:.3f}" for r in repeats) + " s, setup probes "
          + " ".join(f"{t:.3f}" for t in probe_times) + " s")
    correct = check_failures + probe_failures == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
