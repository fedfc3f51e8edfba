"""Command-line front end: fixtures from config, solves, verification suites.

One declarative INI config file drives everything; there is no interactive
mode.  Subcommands:

    mal solve     --config FILE             solve one geodesic problem
    mal verify    --config FILE --suite A,B run verification suites
    mal rearrange --in CSV --out CSV        decreasing rearrangement utility

Solved paths are written as plain CSV (one row per (t, i, j, u), 17
significant digits) with a JSON metadata sidecar; verification results as
JSON-lines records with a fixed key set plus a details sidecar carrying the
full provenance.  Exit codes: 0 success, 1 verification violation, 2 solver
failure, 3 config error.  Every verify suite runs a negative control, a
deliberately false instance whose record passes only when the underlying
check fails.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .action import (
    LeastActionQuery,
    midpoint_convexity_margin,
    midpoint_excess,
    path_action,
    verify_action_convexity,
    verify_comparison_inequality,
    verify_jacobi_convexity,
    verify_least_action,
    verify_least_action_continuity,
    verify_noether,
)
from .errors import MalError, NonConvergence, NotKahler, PositivityLoss, StepUnstable
from .fixtures import random_potential
from .geodesics import (
    EpsGeodesicProblem,
    epsilon_continuation,
    hcma_residual,
    solve_epsilon_geodesic,
)
from .grid import SCHEMES, Grid, Potential, make_potential
from .lagrangians import (
    LagrangianSpec,
    LorentzWeak,
    Orlicz,
    Power,
    SupFamily,
    VerificationReport,
)
from .rearrangement import StepFunction, rearrange_values
from .transport import PotentialPath, linear_path

class ConfigError(ValueError):
    """Configuration file is malformed; the message names the field."""


# (admissible, message) pairs several keys share
POSITIVE = (lambda x: x > 0, "must be positive")
NONNEGATIVE = (lambda x: x >= 0, "must be nonnegative")
# far below the ~1e306 at which a field's Fourier transform overflows
MODERATE = (lambda x: abs(x) <= 1e6, "magnitude must be at most 1e6")
ANY = (lambda value: True, "")

# the [fixture] keys each kind reads
FIXTURE_KINDS = {"constants": ("start", "end"), "band-limited": ("seed", "amplitude", "max_mode")}

# Every key a config may set: (section, key) -> (cast, default, admissible,
# message).  The default is config-file text, read like a given value; None
# marks a required key.  The message states the rule admissible tests.  A key
# that is present is validated even when the fixture kind or the mode does
# not read it.
CONFIG_SCHEMA = {
    # desk scale: a 64 x 64 grid with 128 time steps still solves in memory
    ("grid", "n"): (int, None, lambda n: n % 2 == 0 and 4 <= n <= 64, "must be even in [4, 64]"),
    ("grid", "scheme"): (str, "spectral", SCHEMES.__contains__, f"must be one of {SCHEMES}"),
    ("fixture", "kind"): (str, "band-limited", FIXTURE_KINDS.__contains__, "unknown kind"),
    ("fixture", "start"): (float, "0.0", *MODERATE),
    ("fixture", "end"): (float, "1.0", *MODERATE),
    ("fixture", "seed"): (int, "0", *NONNEGATIVE),
    ("fixture", "amplitude"): (float, "0.02", lambda a: 0 < a <= 1e6, "must lie in (0, 1e6]"),
    # parse_config also bounds a band-limited fixture's max_mode below n/2
    ("fixture", "max_mode"): (int, "3", lambda m: m >= 1, "must be at least 1"),
    # parse_lagrangian validates the form
    ("lagrangian", "spec"): (str, "power:p1", *ANY),
    ("geodesic", "duration"): (float, "1.0", *POSITIVE),
    ("geodesic", "time_steps"): (int, "32", lambda k: 2 <= k <= 128, "must lie in [2, 128]"),
    ("geodesic", "epsilon"): (float, "0.1", *POSITIVE),
    ("geodesic", "continuation_tol"): (float, "1e-6", *POSITIVE),
    ("geodesic", "solver_tol"): (float, "1e-8", *POSITIVE),
    ("geodesic", "mode"): (str, "weak", ("weak", "epsilon").__contains__, "unknown mode"),
    ("verification", "seed"): (int, "0", *NONNEGATIVE),
    ("verification", "count"): (int, "20", lambda c: c >= 1, "must be at least 1"),
    ("verification", "tolerance"): (float, "5e-3", *POSITIVE),
    ("output", "directory"): (Path, "out", *ANY),
    ("output", "formats"): (
        lambda text: tuple(f.strip() for f in text.split(",")), "csv,json",
        lambda formats: set(formats) <= {"csv", "json"}, "each format must be csv or json",
    ),
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description plus its canonical hash."""

    grid: Grid
    fixture_kind: str
    fixture_params: dict
    lagrangian: LagrangianSpec
    duration: float
    time_steps: int
    epsilon: float
    continuation_tol: float
    solver_tol: float
    mode: str
    seed: int
    count: int
    tolerance: float
    out_dir: Path
    formats: tuple[str, ...]
    config_hash: str


def parse_lagrangian(text: str, base_dir: Path) -> LagrangianSpec:
    """Build a Lagrangian from its text form.

    Forms: "power:pP", "orlicz:pP" (the convex weight |t|^P), "lorentz:aA",
    and "supfam:FILE" where FILE is a JSON list of members, each an object
    with keys "offset", "bounds", "levels".
    """
    kind, _, arg = text.partition(":")

    def number(letter):
        if not arg.startswith(letter):
            raise ValueError(f"expected {kind}:{letter}<number>, got {text!r}")
        return float(arg[1:])

    try:
        if kind == "power":
            return Power(number("p"))
        if kind == "orlicz":
            p = number("p")
            if p < 1.0:
                raise ValueError("orlicz exponent must be >= 1")
            return Orlicz(lambda t: np.abs(t) ** p)
        if kind == "lorentz":
            return LorentzWeak(number("a"))
        if kind == "supfam":
            members = []
            for m in json.loads((base_dir / arg).read_text()):
                step = StepFunction(
                    np.asarray(m["bounds"], dtype=float),
                    np.asarray(m["levels"], dtype=float),
                )
                members.append((float(m["offset"]), step))
            return SupFamily(tuple(members))
    except (OSError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"[lagrangian] spec: {exc}") from None
    raise ConfigError(f"[lagrangian] spec: unknown form {text!r}")


def parse_config(path: str) -> ExperimentConfig:
    """Read an INI experiment config and validate it against CONFIG_SCHEMA.

    Raises:
        ConfigError: naming the offending section and key.
    """
    # no config interpolates, so a % in a value is a literal character
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file: {exc}") from None
    if not read:
        raise ConfigError(f"config file: cannot read {path!r}")

    values = {section: {} for section, _ in CONFIG_SCHEMA}
    for (section, key), (cast, default, admissible, message) in CONFIG_SCHEMA.items():
        raw = parser.get(section, key, fallback=default)
        if raw is None:
            raise ConfigError(f"[{section}] {key}: required field is missing")
        try:
            value = cast(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
        if not admissible(value):
            raise ConfigError(f"[{section}] {key}: {message}, got {raw!r}")
        values[section][key] = value

    for section in parser.sections():
        if section not in values:
            raise ConfigError(f"[{section}]: unknown section")
        for key in parser.options(section):
            if (section, key) not in CONFIG_SCHEMA:
                raise ConfigError(f"[{section}] {key}: unknown key")

    n = values["grid"]["n"]
    kind = values["fixture"]["kind"]
    fixture_params = {key: values["fixture"][key] for key in FIXTURE_KINDS[kind]}
    if kind == "band-limited" and not fixture_params["max_mode"] < n // 2:
        raise ConfigError(f"[fixture] max_mode: must lie in [1, n/2) = [1, {n // 2})")

    # sort_keys orders the sections and the keys within each
    canonical = json.dumps({s: dict(parser.items(s)) for s in parser.sections()}, sort_keys=True)
    # the [geodesic] and [verification] keys are named like their config fields
    return ExperimentConfig(
        Grid(n, values["grid"]["scheme"]), kind, fixture_params,
        parse_lagrangian(values["lagrangian"]["spec"], Path(path).resolve().parent),
        **values["geodesic"], **values["verification"],
        out_dir=values["output"]["directory"], formats=values["output"]["formats"],
        config_hash=hashlib.sha256(canonical.encode()).hexdigest(),
    )


def build_fixture(cfg: ExperimentConfig) -> tuple[Potential, Potential]:
    """Endpoint pair named by the config's fixture section."""
    g, params = cfg.grid, cfg.fixture_params
    if cfg.fixture_kind == "constants":
        return tuple(make_potential(np.full((g.n, g.n), params[k]), g) for k in ("start", "end"))
    # both endpoints come from one stream, the start first
    rng = np.random.default_rng(params["seed"])
    amp, mode = params["amplitude"], params["max_mode"]
    return tuple(random_potential(g, rng, amplitude=amp, max_mode=mode) for _ in range(2))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_field_csv(path: Path, times, stack, column: str) -> None:
    """One (t, i, j, value) row per cell, in csv.writer's CRLF rows, one write per knot.

    A knot's rows are one % operation on a per-file template whose {t} takes
    the knot's time; %.17g formats a float as _fmt does.
    """
    rows = "".join(f"{{t}},{i},{j},%.17g\r\n" for i, j in np.ndindex(*stack.shape[1:]))
    with path.open("w", newline="") as fh:
        fh.write(f"t,i,j,{column}\r\n")
        for t, field in zip(times, stack):
            fh.write(rows.replace("{t}", _fmt(float(t))) % tuple(field.ravel().tolist()))


def cmd_solve(cfg: ExperimentConfig) -> int:
    """Solve the configured geodesic problem and write path artifacts."""
    start, end = build_fixture(cfg)
    interval = (0.0, cfg.duration)
    if cfg.mode == "epsilon":
        problem = EpsGeodesicProblem(
            start, end, interval, cfg.epsilon, cfg.time_steps, cfg.solver_tol
        )
        solutions = [solve_epsilon_geodesic(problem)]
    else:
        solutions = epsilon_continuation(
            start, end, interval, cfg.continuation_tol, cfg.time_steps, cfg.solver_tol
        )
    path = solutions[-1].path
    residual = hcma_residual(path)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.formats:
        _write_field_csv(cfg.out_dir / "path.csv", path.times, path.fields, "u")
        _write_field_csv(cfg.out_dir / "hcma.csv", path.times[1:-1], residual, "c")
        with (cfg.out_dir / "history.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epsilon", "residual_norm", "iterations"])
            for sol in solutions:
                writer.writerow([_fmt(sol.epsilon), _fmt(sol.residual_norm), sol.iterations])
    if "json" in cfg.formats:
        meta = {
            "n": cfg.grid.n,
            "scheme": cfg.grid.scheme,
            "mode": cfg.mode,
            "times": [float(t) for t in path.times],
            "epsilon_final": solutions[-1].epsilon,
            "residual_norm": solutions[-1].residual_norm,
            "iterations": solutions[-1].iterations,
            "hcma_sup": float(np.abs(residual).max()),
            "config_hash": cfg.config_hash,
        }
        (cfg.out_dir / "path.json").write_text(json.dumps(meta, sort_keys=True, indent=2))
    return 0


def _concavity_control(spec: LagrangianSpec, path: PotentialPath, fields) -> tuple[float, float]:
    """Midpoint-convexity margin of fields along path, and the bound it must exceed.

    The bound is half the squared knot spacing in normalized time: the margin
    of a concave profile shrinks with that square, so a fixed bound would stop
    discriminating as time_steps grows.
    """
    t = path.times
    h = float(t[1] - t[0]) / float(t[-1] - t[0])
    return midpoint_convexity_margin(spec, path, fields), 0.5 * h * h


@dataclass(frozen=True, eq=False)
class VerifyRun:
    """Inputs the suites of one verify run share, each computed on first use."""

    cfg: ExperimentConfig
    start: Potential
    end: Potential

    @cached_property
    def query(self) -> LeastActionQuery:
        """Least action between the fixture endpoints under the config's settings."""
        cfg = self.cfg
        return LeastActionQuery(
            self.start, self.end, cfg.duration, cfg.lagrangian,
            cfg.continuation_tol, cfg.time_steps, cfg.solver_tol,
        )

    @cached_property
    def detour(self) -> PotentialPath:
        """Piecewise-linear detour through a bumped midpoint, never a geodesic."""
        g = self.cfg.grid
        x, y = g.coords()
        bump = 0.01 * (np.cos(2.0 * np.pi * x) + np.sin(2.0 * np.pi * y))
        # a constant lift above both endpoints makes every cell rise and then
        # fall, so no form charges the detour like a monotone path; density is unchanged
        lift = 0.5 * float(np.abs(self.end.field - self.start.field).max()) + 0.05
        mid = make_potential(0.5 * (self.start.field + self.end.field) + bump + lift, g)
        times = np.array([0.0, 0.5 * self.cfg.duration, self.cfg.duration])
        times.setflags(write=False)
        return PotentialPath(times, (self.start, mid, self.end))


def _noether(run: VerifyRun) -> tuple[VerificationReport, VerificationReport]:
    spec = run.cfg.lagrangian
    return (
        verify_noether(spec, run.query.geodesic, run.cfg.tolerance),
        verify_noether(spec, run.detour, tol=1e-6),
    )


def _least_action(run: VerifyRun) -> tuple[VerificationReport, VerificationReport]:
    cfg = run.cfg
    return tuple(
        verify_least_action(run.query, cfg.count, cfg.seed, cfg.tolerance, geodesic=path)
        for path in (run.query.geodesic, run.detour)
    )


def _comparison(run: VerifyRun) -> tuple[VerificationReport, VerificationReport]:
    cfg = run.cfg
    if not cfg.lagrangian.positively_homogeneous:
        raise ConfigError(
            "[lagrangian] spec: the comparison suite needs a positively homogeneous form"
        )
    apex = random_potential(cfg.grid, np.random.default_rng(cfg.seed), amplitude=0.02)
    report = verify_comparison_inequality(
        cfg.lagrangian, linear_path(run.start, run.end, 0.0, cfg.duration, 4), apex,
        tol=cfg.tolerance, epsilon=cfg.epsilon, time_steps=cfg.time_steps,
        solver_tol=cfg.solver_tol,
    )
    # false hypothesis: a costly detour keeps the margin below 1e-2; it shares
    # the primary's endpoints and apex, hence its two legs
    legs = report.provenance["leg_values"]
    margin = path_action(cfg.lagrangian, run.detour) - (legs[1] - legs[0])
    return report, VerificationReport(
        report.experiment, margin, 1e-2, {**report.provenance, "margin": margin}
    )


def _jacobi_convexity(run: VerifyRun) -> tuple[VerificationReport, VerificationReport]:
    cfg = run.cfg
    x, y = cfg.grid.coords()
    problem = EpsGeodesicProblem(
        run.start, run.end, (0.0, cfg.duration), cfg.epsilon, cfg.time_steps, cfg.solver_tol
    )
    sol = solve_epsilon_geodesic(problem)
    report = verify_jacobi_convexity(
        cfg.lagrangian, problem, 0.02 * np.cos(2.0 * np.pi * x), 0.02 * np.sin(2.0 * np.pi * y),
        tol=max(cfg.tolerance, 1e-4), solution=sol,
    )
    t = problem.times
    concave = np.sin(np.pi * (t - t[0]) / (t[-1] - t[0]))[:, None, None] * (
        1.0 + 0.1 * np.cos(2.0 * np.pi * x)
    )
    margin, bound = _concavity_control(cfg.lagrangian, sol.path, concave)
    return report, VerificationReport(report.experiment, margin, bound, {"margin": margin})


def _action_convexity(run: VerifyRun) -> tuple[VerificationReport, VerificationReport]:
    cfg = run.cfg
    rng = np.random.default_rng(cfg.seed + 1)
    v_path = replace(
        run.query,
        start=random_potential(cfg.grid, rng, amplitude=0.02),
        end=random_potential(cfg.grid, rng, amplitude=0.02),
    ).geodesic
    stride = max(1, cfg.time_steps // 8)
    report = verify_action_convexity(
        replace(run.query, end=v_path.knots[0], time_steps=max(8, cfg.time_steps // 2)),
        run.query.geodesic, v_path, stride, cfg.tolerance,
    )
    # vacuity guard: a synthetic concave sequence at the same sample
    # times must register a violation of the expected h^2 size
    s = run.query.geodesic.times[::stride]
    margin = midpoint_excess(-((s - s.mean()) ** 2))
    h = float(s[1] - s[0])
    return report, VerificationReport(report.experiment, margin, 0.5 * h * h, {"margin": margin})


def _continuity(run: VerifyRun) -> tuple[VerificationReport, VerificationReport]:
    cfg = run.cfg
    shifts = (0.04, 0.01, 0.0025)
    seq_b = [make_potential(run.end.field + s, cfg.grid) for s in shifts]

    def converges(seq_a):
        return verify_least_action_continuity(run.query, seq_a, seq_b, cfg.tolerance)

    return (
        converges([make_potential(run.start.field + s, cfg.grid) for s in shifts]),
        # false hypothesis: a sequence stuck away from the limit converges
        converges([make_potential(run.start.field + 0.2, cfg.grid)] * 3),
    )


# Each suite maps the run to its (primary, negative-control) reports.
SUITES = {
    "noether": _noether,
    "least-action": _least_action,
    "comparison": _comparison,
    "jacobi-convexity": _jacobi_convexity,
    "action-convexity": _action_convexity,
    "continuity": _continuity,
}


def cmd_verify(cfg: ExperimentConfig, suites: list[str]) -> int:
    """Run the named suites; exit 0 only if every record passes."""
    for s in suites:
        if s not in SUITES:
            raise ConfigError(f"--suite: unknown suite {s!r}, valid: {', '.join(SUITES)}")
    run = VerifyRun(cfg, *build_fixture(cfg))
    shared = {"seed": cfg.seed, "N": cfg.grid.n, "time_steps": cfg.time_steps,
              "config_hash": cfg.config_hash}
    records = []
    all_details = {}
    for s in suites:
        primary, control = SUITES[s](run)
        # only the suites that solve at a fixed epsilon record one
        epsilon = primary.provenance.get("epsilon", 0.0)
        # a negative control is a false instance: its record passes when its check fails
        for check, report, passed in (
            ("primary", primary, primary.passed),
            ("negative-control", control, not control.passed),
        ):
            records.append({
                **shared, "experiment": s, "check": check, "epsilon": epsilon,
                "value": float(report.worst), "tolerance": float(report.tolerance),
                "pass": bool(passed),
            })
        all_details[s] = {"primary": primary.provenance, "negative-control": control.provenance}
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with (cfg.out_dir / "records.jsonl").open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if "json" in cfg.formats:
        (cfg.out_dir / "details.json").write_text(
            json.dumps(all_details, sort_keys=True, indent=2, default=lambda o: o.item())
        )
    for rec in records:
        marker = "pass" if rec["pass"] else "FAIL"
        print(f"{rec['experiment']}/{rec['check']}: {marker} "
              f"(value {rec['value']:.3e}, tolerance {rec['tolerance']:.3e})")
    return 0 if all(rec["pass"] for rec in records) else 1


def cmd_rearrange(in_path: str, out_path: str) -> int:
    """Decreasing rearrangement of a CSV of (value, weight) rows."""
    values = []
    weights = []
    try:
        with open(in_path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().lower() == "value":
                    continue
                if len(row) < 2:
                    raise ConfigError(f"rearrange input: row {row!r} needs value,weight")
                values.append(float(row[0]))
                weights.append(float(row[1]))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"rearrange input: {exc}") from None
    if not values:
        raise ConfigError("rearrange input: no data rows")
    if not np.isfinite(values + weights).all():
        raise ConfigError("rearrange input: values and weights must be finite")
    if min(weights) <= 0.0:
        raise ConfigError("rearrange input: weights must be strictly positive")
    try:
        step = rearrange_values(np.asarray(values), np.asarray(weights))
    except ValueError as exc:
        raise ConfigError(f"rearrange input: {exc}") from None
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["breakpoint", "level"])
        for b, level in zip(step.bounds[1:], step.levels):
            writer.writerow([_fmt(float(b)), _fmt(float(level))])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mal", description="Geodesic and least-action laboratory on the flat 2-torus"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve the configured geodesic problem")
    p_solve.add_argument("--config", required=True)
    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--suite", required=True, help="comma-separated suite names")
    p_re = sub.add_parser("rearrange", help="decreasing rearrangement of a CSV table")
    p_re.add_argument("--in", dest="in_path", required=True)
    p_re.add_argument("--out", dest="out_path", required=True)
    args = parser.parse_args(argv)

    try:
        if args.command == "rearrange":
            return cmd_rearrange(args.in_path, args.out_path)
        cfg = parse_config(args.config)
        if args.command == "solve":
            return cmd_solve(cfg)
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not suites:
            raise ConfigError("--suite: need at least one suite name")
        return cmd_verify(cfg, suites)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (NonConvergence, PositivityLoss, StepUnstable, NotKahler) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except MalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
