"""Measure the ROADMAP baselines with the benchmark's tracer, for BASELINES.md.

    python3 perfbench/reconcile.py

Run from the repository root.  It takes about two minutes: one `mal solve`
on the README config at its own fixture seed 5, then acceptance check 08's
loop (5 fixtures x 3 forms x 100 competitors) once untraced and once traced.
"""

import sys
import tempfile
import time
from pathlib import Path

from run import OUT, SRC  # pins the thread environment before numpy loads

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from mal import action, cli, fixtures, geodesics, grid, lagrangians  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import README_CONFIG  # noqa: E402


def solve_at_seed_5():
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        config = Path(tmp) / "readme.ini"
        config.write_text(README_CONFIG.format(seed=5, out=Path(tmp) / "out"))
        cli.main(["solve", "--config", str(config)])  # warm-up
        t = tracing.Tracer()
        t0 = time.perf_counter()
        t.run(0, cli.main, ["solve", "--config", str(config)])
        elapsed = time.perf_counter() - t0
    m = tracing.reduce(t.spans, [0])
    print(f"mal solve, README config, fixture seed 5: {elapsed:.2f} s traced")
    for name in ("geodesics.levels", "geodesics.newton_steps", "geodesics.matvecs",
                 "geodesics.precond_applies", "cli.write_s"):
        print(f"  {name} = {m[name]:g}")
    print(f"  FFT share of the op: {m['grid.fft_s'] / elapsed:.0%}")


def check_08(verify_time):
    g = grid.Grid(32)
    specs = [lagrangians.Power(1.0), lagrangians.Power(2.0), lagrangians.LorentzWeak(0.5)]
    for fixture_seed in range(5):
        rng = np.random.default_rng(80 + fixture_seed)
        start = fixtures.random_potential(g, rng, 0.02)
        end = fixtures.random_potential(g, rng, 0.02)
        geod = geodesics.weak_geodesic(start, end, (0.0, 1.0), tol=1e-4, time_steps=16)
        for spec in specs:
            q = action.LeastActionQuery(start, end, 1.0, spec, tol=1e-4, time_steps=16)
            t0 = time.perf_counter()
            action.verify_least_action(q, count=100, seed=fixture_seed, tol=5e-3, geodesic=geod)
            verify_time.append(time.perf_counter() - t0)


def main():
    solve_at_seed_5()
    verify_time = []
    t0 = time.perf_counter()
    check_08(verify_time)
    print(f"check 08 loop, untraced: {time.perf_counter() - t0:.1f} s, "
          f"verify_least_action {sum(verify_time):.1f} s")
    t = tracing.Tracer()
    verify_time = []
    t.run(0, check_08, verify_time)
    m = tracing.reduce(t.spans, [0])
    # draws made by competitor_paths, which verify_least_action calls
    names = {s[1]: s[3] for s in t.spans}
    draws = [s for s in t.spans if s[3] == "fixtures.draw" and names.get(s[2]) == "action.competitors"]
    draw_s = sum(s[5] - s[4] for s in draws)
    print(f"check 08 loop, traced: random_band_limited {draw_s:.1f} s of "
          f"verify_least_action {sum(verify_time):.1f} s ({draw_s / sum(verify_time):.0%}); "
          f"{len(draws)} competitor draws, accept ratio {m['action.knot_accept_ratio']:.3f}; "
          f"{m['geodesics.levels']:g} levels over 5 weak geodesics")


if __name__ == "__main__":
    main()
