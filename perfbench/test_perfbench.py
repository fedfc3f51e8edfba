"""Self-tests of the benchmark; run with `python3 -m pytest perfbench` from the root.

They start the benchmark as a subprocess, the way it is run for real, and
take a few minutes: the traced runs of each workload are made twice.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

COUNTS = ("grid.fft_calls", "grid.fft_points", "grid.deriv_calls", "grid.potential_calls",
          "geodesics.levels", "geodesics.solves", "geodesics.newton_steps", "geodesics.matvecs",
          "geodesics.precond_applies", "geodesics.matvecs_per_newton",
          "geodesics.krylov_unconverged", "fixtures.draws", "action.competitors",
          "action.knot_accept_ratio", "action.path_actions", "lagrangians.evaluations",
          "rearrangement.sorts", "rearrangement.sorted_cells", "transport.paths",
          "cli.bytes_written")


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done


def traced(workload, seconds):
    done = bench("--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload,seconds", [("solve", "1"), ("least-action", "1"), ("jacobi", "2")])
def test_counts_repeat_between_traced_runs(workload, seconds):
    # a traced solve also checks its counts against history.csv, and fails
    # the op (so `correct`) when lgmres calls or levels disagree with it
    first, second = traced(workload, seconds), traced(workload, seconds)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["geodesics.newton_steps"] > 0


def test_every_anchor_is_wrapped_and_a_missing_one_is_skipped(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import mal.cli  # noqa: F401

    t = tracer.Tracer()
    monkeypatch.setattr(tracer, "ANCHORS", tracer.ANCHORS + [("mal.grid", "gone", "grid.deriv", None)])
    t.install()
    t.uninstall()
    assert t.missing == ["mal.grid.gone"]
    assert len(t.wrapped) == len(tracer.ANCHORS) - 1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit(name)) for name in run.PER_LAYER
    ]


def test_tail_needs_ten_ops_beyond_it():
    assert run.tail([1.0] * 10) == (None, None, 0)
    durations = [float(i) for i in range(100)]
    assert run.tail(durations) == (89.0, 90.0, 10)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "solve", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
