"""Benchmark for mal: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Run from the repository root; mal is imported from ./src.  With --trace 0
the run reports the end-to-end metrics with tracing off; with --trace 1 it
runs a fixed number of ops per workload, each once traced and once not, and
reports per-layer counts and times per op plus the tracing overhead.
--workload all runs the three workloads in turn, each in its own process.  Human
lines come first; the last line of stdout is the JSON result.  Spans and a
full result file go to .perfbench/ in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# thread pools are pinned before numpy loads; mal's own MAL_THREADS handling
# runs after numpy is imported, so it cannot be relied on to do this
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "MAL_THREADS": "1"}
os.environ.update(THREAD_ENV)

import hashlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_STARTS = 5
# approximate op time on a 2-core x86 host; sets the traced op count so a
# traced run (each op twice) lasts about --seconds and repeats exactly
NOMINAL_OP_S = {"solve": 3.7, "least-action": 8.8, "jacobi": 0.26}

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# Per-layer metrics in the result line.  Layer times that are exactly zero on
# a workload that never enters the layer (action, lagrangians, rearrangement
# and cli times) are printed with the rest but left out of it.
PER_LAYER = (
    "grid.fft_calls", "grid.fft_points", "grid.fft_s", "grid.deriv_calls", "grid.deriv_s",
    "grid.potential_calls", "grid.potential_s", "geodesics.levels", "geodesics.solves",
    "geodesics.newton_steps", "geodesics.matvecs", "geodesics.precond_applies",
    "geodesics.matvecs_per_newton", "geodesics.krylov_unconverged", "geodesics.matvec_s",
    "geodesics.precond_s", "geodesics.krylov_s", "geodesics.newton_s", "fixtures.draws",
    "fixtures.draw_s", "action.competitors", "action.knot_accept_ratio", "action.path_actions",
    "lagrangians.evaluations", "rearrangement.sorts", "rearrangement.sorted_cells",
    "transport.paths", "transport.path_s", "cli.bytes_written", "trace.overhead_s",
)
UNITS = {**END_TO_END, "op_s.tail": "s", "op_s.tail.percentile": "%", "fail_rate": "ratio",
         "geodesics.matvecs_per_newton": "ratio", "action.knot_accept_ratio": "ratio",
         "cli.bytes_written": "bytes"}


def unit(name: str) -> str:
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def setup_seconds() -> list[float]:
    """Fresh-interpreter start to the end of `import mal.cli`, several times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = "import mal.cli, time; print(time.monotonic())"
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip()) - t0)
    return times


def tail(durations):
    """(value, percentile, ops beyond) of the highest percentile with ten ops
    beyond it; undefined, (None, None, 0), for ten ops or fewer."""
    ranked = sorted(durations)
    n = len(ranked)
    if n <= 10:
        return None, None, 0
    return ranked[n - 11], 100.0 * (n - 10) / n, 10


def provenance(args) -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def attempt(wl, op, failures, tracer=None, written=None):
    """Make op's inputs, time the op, check its output.

    Returns the op's duration, None if it raised; a failed check or a raise
    is appended to failures.  With a tracer the op runs traced, and a traced
    solve is also cross-checked against its history.csv.
    """
    inputs = wl.make_inputs(op)
    label = f"op {op}" + ("" if tracer is None else " traced")
    t0 = time.perf_counter()
    try:
        result = wl.run(inputs) if tracer is None else tracer.run(op, wl.run, inputs)
    except Exception as exc:  # a raising op is a failed op, not a harness error
        failures.append((label, [f"raised {type(exc).__name__}: {exc}"]))
        return None
    elapsed = time.perf_counter() - t0
    problems = []
    if tracer is not None and wl.name == "solve" and result == 0:
        problems = _history_cross_check(wl, tracer, op, inputs, written)
    problems += wl.check(inputs, result)
    if problems:
        failures.append((label, problems))
    return elapsed


def measure(wl, seconds):
    """Warm up with op 0, then run ops back to back for `seconds`."""
    failures, durations, passed = [], [], 0
    attempt(wl, 0, failures)
    op, started = 1, time.perf_counter()
    while time.perf_counter() - started < seconds:
        failed_before = len(failures)
        elapsed = attempt(wl, op, failures)
        if elapsed is not None:
            durations.append(elapsed)
        passed += len(failures) == failed_before
        op += 1
    return durations, passed, op, failures


def traced(wl, tracer, seconds):
    """Warm up, then ops 1..k each traced and again untraced.

    k depends only on the workload and --seconds, so two traced runs at one
    seed do identical work and their counts repeat exactly.  The traced pass
    comes first, so a cache kept across calls cannot hide work from the
    counters.
    """
    import tracer as tracing

    failures, with_trace, without, written = [], [], [], []
    attempt(wl, 0, failures)
    k = max(1, int(seconds / (2.0 * NOMINAL_OP_S[wl.name])))
    for op in range(1, k + 1):
        with_trace.append(attempt(wl, op, failures, tracer, written))
        without.append(attempt(wl, op, failures))
    with_trace = [t for t in with_trace if t is not None]
    without = [t for t in without if t is not None]
    layers = tracing.reduce(tracer.spans, range(1, k + 1))
    layers["cli.bytes_written"] = statistics.fmean(written) if written else 0.0
    layers["trace.overhead_s"] = (
        statistics.median(with_trace) - statistics.median(without) if with_trace and without else 0.0
    )
    return layers, 1 + 2 * k, failures, with_trace, without


def _history_cross_check(wl, tracer, op, inputs, written):
    """history.csv of a traced solve must agree with the traced counts."""
    import tracer as tracing

    size, rows = wl.artifacts(inputs)
    written.append(size)
    counts = tracing.reduce(tracer.spans, [op])
    newton = sum(int(r["iterations"]) for r in rows)
    problems = []
    if counts["geodesics.newton_steps"] != newton:
        problems.append(f"{counts['geodesics.newton_steps']} lgmres calls, history says {newton}")
    if counts["geodesics.levels"] != len(rows):
        problems.append(f"{counts['geodesics.levels']} levels, history has {len(rows)} rows")
    return problems


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in NOMINAL_OP_S:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*NOMINAL_OP_S, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mal" / "__init__.py").is_file():
        print(f"no mal sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    setup = setup_seconds() if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        info = provenance(args)
        if args.trace == 0:
            durations, passed, attempted, failures = measure(wl, args.seconds)
            value, pct, beyond = tail(durations)
            metrics = {
                "setup_s": statistics.median(setup),
                "op_s.p50": statistics.median(durations),
                "ops_per_s": passed / sum(durations),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            # op_s.tail is undefined below eleven ops, so it is printed here
            # rather than returned as a metric every workload must have
            extra = {"op_s.tail": value, "op_s.tail.percentile": pct,
                     "op_s.tail.ops_beyond": beyond, "fail_rate": len(failures) / attempted,
                     "op_s": durations, "setup_samples_s": setup}
        else:
            tracer = tracing.Tracer()
            layers, attempted, failures, with_trace, without = traced(wl, tracer, args.seconds)
            metrics = {name: layers[name] for name in PER_LAYER}
            extra = {name: value for name, value in layers.items() if name not in metrics}
            extra.update({"fail_rate": len(failures) / attempted, "traced_op_s": with_trace,
                          "untraced_op_s": without, "wrapped": tracer.wrapped,
                          "missing": tracer.missing})
            tracer.write(OUT / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"provenance": info, "failures": failures, "extra": extra, **result}, indent=2))
    print("provenance " + json.dumps(info, sort_keys=True))
    for label, problems in failures:
        print(f"FAILED {label}: {'; '.join(problems)}")
    for name, entry in result["metrics"].items():
        print(f"{args.workload:13s} {name:32s} {entry['value']:.6g} {entry['unit']}")
    for name, value in extra.items():
        if value is None:
            value = "undefined: fewer than 11 timed ops"
        elif not (isinstance(value, list) and value and isinstance(value[0], str)):
            value = f"{value} {unit(name)}"
        print(f"{args.workload:13s} {name:32s} {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
