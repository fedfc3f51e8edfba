"""The three benchmark workloads: inputs, one op through mal, output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Every op gets its own fixture seed, derived from
the run seed, the workload and the op index.  make_inputs() and check() run
outside the timed region; run() is the op.

Ops call mal through module attributes (geodesics.solve_epsilon_geodesic,
not a saved reference), so the tracer's wrappers see those calls too.

Checks recompute what they can with perfbench.reference instead of trusting
mal.  At DEFAULT_SEED the first timed op (index 1) is also compared with headline
values recorded at the seed commit, within tolerances derived from the solve
tolerances rather than bit equality, so a change that moves results by
rounding (a real-FFT rewrite, say) still passes.
"""

from __future__ import annotations

import csv
import shutil
from pathlib import Path

import numpy as np
from mal import action, cli, fixtures, geodesics, grid, lagrangians, rearrangement, transport

import reference

DEFAULT_SEED = 0
SOLVER_TOL = 1e-8
JACOBI_DELTA = 1e-3

README_CONFIG = """\
[grid]
n = 32
scheme = spectral

[fixture]
kind = band-limited
seed = {seed}
amplitude = 0.02
max_mode = 2

[lagrangian]
spec = power:p1

[geodesic]
duration = 1.0
time_steps = 32
epsilon = 0.1
continuation_tol = 1e-5
solver_tol = 1e-8
mode = weak

[verification]
seed = 3
count = 20
tolerance = 5e-3

[output]
directory = {out}
formats = csv,json
"""


def fixture_seed(seed: int, workload: str, op: int) -> int:
    key = [seed, list(WORKLOADS).index(workload), op]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _near(got, want, tol):
    return abs(got - want) <= tol


def _same_endpoints(fields, start, end):
    return np.abs(fields[0] - start).max() <= 1e-12 and np.abs(fields[-1] - end).max() <= 1e-12


class Solve:
    """`mal solve` on the README config, run in-process."""

    name = "solve"
    # recorded at the seed commit, op 1 of DEFAULT_SEED
    headline = {"action": 0.0027031251062046603, "hcma_sup": 3.05175803472185e-05}

    def __init__(self, seed, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def make_inputs(self, op):
        s = fixture_seed(self.seed, self.name, op)
        out = self.work_dir / f"solve-{op}"
        config = self.work_dir / f"solve-{op}.ini"
        config.write_text(README_CONFIG.format(seed=s, out=out))
        return {"op": op, "fixture_seed": s, "config": config, "out": out}

    def run(self, inputs):
        return cli.main(["solve", "--config", str(inputs["config"])])

    def artifacts(self, inputs):
        """Bytes written and the per-level history rows of one op."""
        out = inputs["out"]
        size = sum(p.stat().st_size for p in out.iterdir())
        with (out / "history.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        return size, rows

    def check(self, inputs, exit_code):
        problems = []
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        out = inputs["out"]
        table = np.loadtxt(out / "path.csv", delimiter=",", skiprows=1)
        n = 32
        fields = table[:, 3].reshape(-1, n, n)
        times = table[:: n * n, 0]
        rng = np.random.default_rng(inputs["fixture_seed"])
        start = reference.potential(n, "spectral", rng, 0.02, 2)
        end = reference.potential(n, "spectral", rng, 0.02, 2)
        if not _same_endpoints(fields, start, end):
            problems.append("path endpoints differ from the fixture")
        _, rows = self.artifacts(inputs)
        eps = [float(r["epsilon"]) for r in rows]
        if eps != [0.5**k for k in range(len(eps))]:
            problems.append("history epsilons do not halve from 1")
        dt = float(times[1] - times[0])
        res = reference.epsilon_residual(fields, dt, eps[-1], "spectral")
        if not res <= SOLVER_TOL:
            problems.append(f"final-level residual {res:.3e} above solver_tol")
        if self.seed == DEFAULT_SEED and inputs["op"] == 1:
            geodesic_action = reference.power_action(fields, times, 1.0, "spectral")
            hcma = reference.hcma_sup(fields, dt, "spectral")
            if not _near(geodesic_action, self.headline["action"], 100 * SOLVER_TOL):
                problems.append(f"geodesic action {geodesic_action!r} off its reference")
            if not _near(hcma, self.headline["hcma_sup"], 10 * SOLVER_TOL):
                problems.append(f"hcma_sup {hcma!r} off its reference")
        shutil.rmtree(out)
        inputs["config"].unlink()
        return problems


class LeastAction:
    """Acceptance check 08 on one fixture pair: 3 forms x 100 competitors.

    The warm-up op draws 2 competitors per form instead: it reaches every
    code path the timed ops do at a ninth of their cost.
    """

    name = "least-action"
    headline = {"action": 0.0009985141914076456, "min_margin": 0.0034866585895527774}

    def __init__(self, seed, work_dir: Path):
        self.seed = seed
        self.grid = grid.Grid(32, "spectral")
        self.specs = (lagrangians.Power(1.0), lagrangians.Power(2.0), lagrangians.LorentzWeak(0.5))

    def make_inputs(self, op):
        return {"op": op, "fixture_seed": fixture_seed(self.seed, self.name, op),
                "count": 2 if op == 0 else 100}

    def run(self, inputs):
        s = inputs["fixture_seed"]
        rng = np.random.default_rng(s)
        start = fixtures.random_potential(self.grid, rng, 0.02)
        end = fixtures.random_potential(self.grid, rng, 0.02)
        geod = geodesics.weak_geodesic(start, end, (0.0, 1.0), tol=1e-4, time_steps=16)
        reports = [
            action.verify_least_action(
                action.LeastActionQuery(start, end, 1.0, spec, tol=1e-4, time_steps=16),
                count=inputs["count"], seed=s, tol=5e-3, geodesic=geod,
            )
            for spec in self.specs
        ]
        return geod, reports

    def check(self, inputs, result):
        geod, reports = result
        problems = []
        rng = np.random.default_rng(inputs["fixture_seed"])
        start = reference.potential(32, "spectral", rng, 0.02, 3)
        end = reference.potential(32, "spectral", rng, 0.02, 3)
        fields, times = geod.fields, np.asarray(geod.times)
        if not _same_endpoints(fields, start, end):
            problems.append("geodesic endpoints differ from the fixture")
        if not all(r.passed for r in reports):
            problems.append("a least-action report failed")
        margins = [m for r in reports for m in r.provenance["margins"]]
        if len(margins) != 3 * inputs["count"] or min(margins) < -5e-3:
            problems.append(f"{len(margins)} margins, minimum {min(margins):.3e}")
        for p, report in zip((1.0, 2.0), reports):
            own = reference.power_action(fields, times, p, "spectral")
            if not _near(own, report.provenance["geodesic_action"], 1e-9 * abs(own)):
                problems.append(f"power:p{p:g} geodesic action disagrees with the recomputed one")
        if self.seed == DEFAULT_SEED and inputs["op"] == 1:
            geodesic_action = reference.power_action(fields, times, 1.0, "spectral")
            if not _near(geodesic_action, self.headline["action"], 100 * SOLVER_TOL):
                problems.append(f"geodesic action {geodesic_action!r} off its reference")
            if not _near(min(margins), self.headline["min_margin"], 100 * SOLVER_TOL):
                problems.append(f"minimum margin {min(margins)!r} off its reference")
        return problems


class Jacobi:
    """Acceptance check 06 on one fixture, central scheme, epsilon by op index."""

    name = "jacobi"
    epsilons = (1.0, 0.3, 0.1, 0.05, 0.02)
    headline = {
        "action": 0.07499193419628494, "margin": -0.0010677595758155807, "control": 0.02149274119317157,
    }

    def __init__(self, seed, work_dir: Path):
        self.seed = seed
        self.grid = g = grid.Grid(32, "central")
        supfam = lagrangians.SupFamily((
            (0.0, rearrangement.rearrange_values([2.0, 1.0], [0.5, 0.5])),
            (0.1, rearrangement.rearrange_values([1.5, 0.5], [0.25, 0.75])),
        ))
        self.specs = (
            lagrangians.Power(1.0), lagrangians.Power(2.0), lagrangians.LorentzWeak(0.5), supfam,
        )
        base = grid.make_potential(np.zeros((g.n, g.n)), g)
        self.control_path = transport.linear_path(base, base, 0.0, 1.0, 8)

    def make_inputs(self, op):
        return {"op": op, "fixture_seed": fixture_seed(self.seed, self.name, op),
                "epsilon": self.epsilons[op % len(self.epsilons)]}

    def run(self, inputs):
        g = self.grid
        rng = np.random.default_rng(inputs["fixture_seed"])
        a, b = fixtures.random_potential(g, rng, 0.02), fixtures.random_potential(g, rng, 0.02)
        p = geodesics.EpsGeodesicProblem(a, b, (0.0, 1.0), inputs["epsilon"], 16, solver_tol=SOLVER_TOL)
        sol = geodesics.solve_epsilon_geodesic(p)
        da = fixtures.random_band_limited(g, rng, 0.5, max_mode=2)
        db = fixtures.random_band_limited(g, rng, 0.5, max_mode=2)
        field = geodesics.jacobi_field(p, da, db, delta=JACOBI_DELTA)
        worst = [
            action.verify_jacobi_convexity(spec, p, da, db, solution=sol, field=field).worst
            for spec in self.specs
        ]
        xi = fixtures.random_band_limited(g, rng, 1.0, max_mode=2)
        profile = np.sin(np.pi * self.control_path.times)
        control = action.midpoint_convexity_margin(
            self.specs[0], self.control_path, profile[:, None, None] * xi)
        return sol, field, worst, xi, control

    def check(self, inputs, result):
        sol, field, worst, xi, control = result
        problems = []
        rng = np.random.default_rng(inputs["fixture_seed"])
        a = reference.potential(32, "central", rng, 0.02, 3)
        b = reference.potential(32, "central", rng, 0.02, 3)
        fields, times = sol.path.fields, np.asarray(sol.path.times)
        if not _same_endpoints(fields, a, b):
            problems.append("solution endpoints differ from the fixture")
        dt = float(times[1] - times[0])
        res = reference.epsilon_residual(fields, dt, inputs["epsilon"], "central")
        if not res <= SOLVER_TOL:
            problems.append(f"base residual {res:.3e} above solver_tol")
        if not max(worst) <= 1e-4:
            problems.append(f"convexity violation {max(worst):.3e} above 1e-4")
        # Power(1) of the Jacobi field at each knot, against that knot's measure
        g_xi = np.sum(np.abs(field) * reference.density(fields, "central"), axis=(1, 2)) / 32**2
        margin = float((g_xi[1:-1] - 0.5 * (g_xi[:-2] + g_xi[2:])).max())
        if not margin <= 1e-4:
            problems.append(f"recomputed power:p1 convexity margin {margin:.3e} above 1e-4")
        # on the flat potential Power(1) of sin(pi t) xi is sin(pi t) mean|xi|
        t = np.asarray(self.control_path.times)
        g_t = np.sin(np.pi * t) * np.abs(xi).mean()
        own = float((g_t[1:-1] - 0.5 * (g_t[:-2] + g_t[2:])).max())
        if not (control > 1e-2 and _near(control, own, 1e-12)):
            problems.append(f"control margin {control!r}, recomputed {own!r}")
        if self.seed == DEFAULT_SEED and inputs["op"] == 1:
            geodesic_action = reference.power_action(fields, times, 1.0, "central")
            if not _near(geodesic_action, self.headline["action"], 100 * SOLVER_TOL):
                problems.append(f"geodesic action {geodesic_action!r} off its reference")
            if not _near(margin, self.headline["margin"], SOLVER_TOL / JACOBI_DELTA):
                problems.append(f"power:p1 convexity margin {margin!r} off its reference")
            if not _near(control, self.headline["control"], 1e-12):
                problems.append(f"control margin {control!r} off its reference")
        return problems


WORKLOADS = {w.name: w for w in (Solve, LeastAction, Jacobi)}
