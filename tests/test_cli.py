"""Tests for the command-line front end: config parsing, artifacts, suites."""

import csv
import json

import numpy as np
import pytest

import mal.geodesics
from mal.cli import (
    ConfigError,
    _concavity_control,
    build_fixture,
    main,
    parse_config,
    parse_lagrangian,
)
from mal.grid import Grid, make_potential
from mal.lagrangians import LorentzWeak, Orlicz, Power, SupFamily
from mal.transport import linear_path

BASE_CONFIG = """\
[grid]
n = 8
scheme = spectral

[fixture]
kind = constants
start = 0.0
end = 1.0

[lagrangian]
spec = power:p1

[geodesic]
duration = 1.0
time_steps = 8
epsilon = 0.1
continuation_tol = 1e-5
solver_tol = 1e-8
mode = epsilon

[verification]
seed = 3
count = 3
tolerance = 5e-3

[output]
directory = {out}
formats = csv,json
"""


def write_config(tmp_path, name="exp.ini", text=None, **replacements):
    text = text if text is not None else BASE_CONFIG
    text = text.format(out=tmp_path / "out")
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseLagrangian:
    def test_power_form(self, tmp_path):
        spec = parse_lagrangian("power:p2", tmp_path)
        assert isinstance(spec, Power) and spec.p == 2.0

    def test_orlicz_form(self, tmp_path):
        spec = parse_lagrangian("orlicz:p2", tmp_path)
        assert isinstance(spec, Orlicz)
        assert spec.chi(np.array([-3.0]))[0] == 9.0

    def test_lorentz_form(self, tmp_path):
        spec = parse_lagrangian("lorentz:a0.5", tmp_path)
        assert isinstance(spec, LorentzWeak) and spec.alpha == 0.5

    def test_supfam_form(self, tmp_path):
        member_file = tmp_path / "members.json"
        member_file.write_text(
            json.dumps([{"offset": 0.0, "bounds": [0.0, 0.5, 1.0], "levels": [2.0, 1.0]}])
        )
        spec = parse_lagrangian("supfam:members.json", tmp_path)
        assert isinstance(spec, SupFamily) and len(spec.members) == 1

    def test_unknown_form(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_lagrangian("sobolev:s1", tmp_path)

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_lagrangian("orlicz:p0.5", tmp_path)
        with pytest.raises(ConfigError):
            parse_lagrangian("lorentz:a1.5", tmp_path)
        with pytest.raises(ConfigError):
            parse_lagrangian("supfam:missing.json", tmp_path)
        for text in ("power:pnan", "power:pinf", "lorentz:anan"):
            with pytest.raises(ConfigError):
                parse_lagrangian(text, tmp_path)


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        cfg = parse_config(str(write_config(tmp_path)))
        assert cfg.grid.n == 8 and cfg.grid.scheme == "spectral"
        assert cfg.fixture_kind == "constants"
        assert cfg.duration == 1.0 and cfg.time_steps == 8
        assert cfg.mode == "epsilon" and cfg.epsilon == 0.1
        assert cfg.seed == 3 and cfg.count == 3
        assert cfg.formats == ("csv", "json")
        assert len(cfg.config_hash) == 64

    def test_hash_tracks_content(self, tmp_path):
        a = parse_config(str(write_config(tmp_path, "a.ini")))
        b = parse_config(str(write_config(tmp_path, "b.ini")))
        c = parse_config(str(write_config(tmp_path, "c.ini", **{"epsilon = 0.1": "epsilon = 0.2"})))
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_missing_required_field(self, tmp_path):
        path = write_config(tmp_path, **{"n = 8": "m = 8"})
        with pytest.raises(ConfigError, match=r"\[grid\] n"):
            parse_config(str(path))

    def test_negative_n(self, tmp_path):
        path = write_config(tmp_path, **{"n = 8": "n = -8"})
        with pytest.raises(ConfigError, match=r"\[grid\]"):
            parse_config(str(path))

    def test_bad_scheme(self, tmp_path):
        path = write_config(tmp_path, **{"scheme = spectral": "scheme = upwind"})
        with pytest.raises(ConfigError, match=r"\[grid\]"):
            parse_config(str(path))

    def test_bad_duration(self, tmp_path):
        for bad in ("-1.0", "nan", "inf", "-inf"):
            path = write_config(tmp_path, **{"duration = 1.0": f"duration = {bad}"})
            with pytest.raises(ConfigError, match=r"\[geodesic\] duration"):
                parse_config(str(path))

    def test_bad_fixture_kind(self, tmp_path):
        path = write_config(tmp_path, **{"kind = constants": "kind = pyramid"})
        with pytest.raises(ConfigError, match=r"\[fixture\] kind"):
            parse_config(str(path))

    def test_bad_format(self, tmp_path):
        path = write_config(tmp_path, **{"formats = csv,json": "formats = csv,xml"})
        with pytest.raises(ConfigError, match=r"\[output\] formats"):
            parse_config(str(path))

    def test_band_limited_fixture(self, tmp_path):
        path = write_config(
            tmp_path,
            **{
                "kind = constants\nstart = 0.0\nend = 1.0": (
                    "kind = band-limited\nseed = 5\namplitude = 0.02\nmax_mode = 2"
                )
            },
        )
        cfg = parse_config(str(path))
        start, end = build_fixture(cfg)
        assert not np.array_equal(start.field, end.field)
        again, _ = build_fixture(cfg)
        assert np.array_equal(start.field, again.field)


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolve:
    def test_constants_match_closed_form(self, tmp_path):
        code = main(["solve", "--config", str(write_config(tmp_path))])
        assert code == 0
        header, rows = read_rows(tmp_path / "out" / "path.csv")
        assert header == ["t", "i", "j", "u"]
        eps, span = 0.1, 1.0
        for t_str, i, j, u_str in rows:
            t, u = float(t_str), float(u_str)
            closed = t / span + 0.5 * eps * (t * t - span * t)
            assert abs(u - closed) < 1e-6
        meta = json.loads((tmp_path / "out" / "path.json").read_text())
        assert len(meta["config_hash"]) == 64
        assert meta["n"] == 8

    def test_history_and_hcma_written(self, tmp_path):
        code = main(["solve", "--config", str(write_config(tmp_path))])
        assert code == 0
        header, rows = read_rows(tmp_path / "out" / "history.csv")
        assert header == ["epsilon", "residual_norm", "iterations"]
        assert len(rows) == 1
        header, rows = read_rows(tmp_path / "out" / "hcma.csv")
        assert header == ["t", "i", "j", "c"]
        assert all(abs(float(r[3]) - 0.1) < 1e-6 for r in rows)

    def test_weak_mode_continuation(self, tmp_path):
        path = write_config(tmp_path, **{"mode = epsilon": "mode = weak"})
        assert main(["solve", "--config", str(path)]) == 0
        _, rows = read_rows(tmp_path / "out" / "history.csv")
        assert len(rows) > 1
        eps = [float(r[0]) for r in rows]
        assert eps == sorted(eps, reverse=True)

    def test_malformed_config_exits_three(self, tmp_path, capsys):
        constants = "kind = constants\nstart = 0.0\nend = 1.0"
        band_limited = "kind = band-limited\namplitude = "
        cases = [
            ({"n = 8": "n = -8"}, "[grid]"),
            ({"epsilon = 0.1": "epsilon = nan"}, "[geodesic] epsilon"),
            ({"start = 0.0": "start = inf"}, "[fixture] start"),
            ({constants: band_limited + "nan"}, "[fixture] amplitude"),
            ({constants: band_limited + "inf"}, "[fixture] amplitude"),
        ]
        for replacements, section in cases:
            path = write_config(tmp_path, **replacements)
            assert main(["solve", "--config", str(path)]) == 3
            assert section in capsys.readouterr().err

    def test_byte_determinism(self, tmp_path):
        p1 = write_config(tmp_path, "one.ini")
        main(["solve", "--config", str(p1)])
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("path.csv", "hcma.csv", "history.csv", "path.json")
        }
        main(["solve", "--config", str(p1)])
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob


RECORD_KEYS = {
    "experiment", "check", "value", "tolerance", "pass",
    "seed", "N", "time_steps", "epsilon", "config_hash",
}


def band_limited_config(tmp_path, **replacements):
    return write_config(
        tmp_path,
        **{
            "kind = constants\nstart = 0.0\nend = 1.0": (
                "kind = band-limited\nseed = 5\namplitude = 0.02\nmax_mode = 2"
            ),
            **replacements,
        },
    )


def read_records(tmp_path):
    lines = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


class TestVerify:
    def test_noether_suite(self, tmp_path):
        path = band_limited_config(tmp_path)
        assert main(["verify", "--config", str(path), "--suite", "noether"]) == 0
        records = read_records(tmp_path)
        assert len(records) == 2
        for rec in records:
            assert set(rec) == RECORD_KEYS
            assert rec["experiment"] == "noether"
            assert rec["pass"] is True
        checks = {rec["check"] for rec in records}
        assert checks == {"primary", "negative-control"}

    def test_least_action_suite_details(self, tmp_path):
        path = band_limited_config(tmp_path)
        assert main(["verify", "--config", str(path), "--suite", "least-action"]) == 0
        details = json.loads((tmp_path / "out" / "details.json").read_text())
        margins = details["least-action"]["primary"]["margins"]
        assert len(margins) == 3
        assert min(margins) > -5e-3

    def test_multiple_suites(self, tmp_path):
        path = band_limited_config(tmp_path)
        code = main([
            "verify", "--config", str(path),
            "--suite", "comparison,jacobi-convexity,continuity",
        ])
        assert code == 0
        records = read_records(tmp_path)
        assert len(records) == 6
        assert all(rec["pass"] for rec in records)

    def test_jacobi_control_discriminates_at_readme_resolution(self, tmp_path):
        # the README example: n = 32 and time_steps = 32 shrink the control's margin to ~5e-3
        path = band_limited_config(tmp_path, **{"n = 8": "n = 32", "time_steps = 8": "time_steps = 32"})
        assert main(["verify", "--config", str(path), "--suite", "jacobi-convexity"]) == 0
        control = [rec for rec in read_records(tmp_path) if rec["check"] == "negative-control"]
        assert control[0]["pass"] and control[0]["tolerance"] == 0.5 / 32**2

    def test_jacobi_control_fails_on_convex_data(self):
        g = Grid(16)
        u = make_potential(np.zeros((16, 16)), g)
        x, _ = g.coords()
        shape = 1.0 + 0.1 * np.cos(2.0 * np.pi * x)
        for steps in (2, 8, 32, 128):
            path = linear_path(u, u, 0.0, 1.0, steps)
            s = path.times[:, None, None]
            margin, bound = _concavity_control(Power(1.0), path, np.sin(np.pi * s) * shape)
            assert margin > bound
            for convex in ((s - 0.5) ** 2, s, np.zeros_like(s)):
                margin, bound = _concavity_control(Power(1.0), path, convex * shape)
                assert not margin > bound

    def test_all_suites_share_one_fixture_geodesic(self, tmp_path, monkeypatch):
        path = band_limited_config(tmp_path)
        start, end = build_fixture(parse_config(str(path)))
        continuation = mal.geodesics.epsilon_continuation
        fixture_calls = []

        def spy(u_a, u_b, *args, **kwargs):
            if np.array_equal(u_a.field, start.field) and np.array_equal(u_b.field, end.field):
                fixture_calls.append(args)
            return continuation(u_a, u_b, *args, **kwargs)

        monkeypatch.setattr(mal.geodesics, "epsilon_continuation", spy)
        suites = "noether,least-action,comparison,jacobi-convexity,action-convexity,continuity"
        assert main(["verify", "--config", str(path), "--suite", suites]) == 0
        records = read_records(tmp_path)
        assert len(records) == 12
        assert all(rec["pass"] for rec in records)
        assert len(fixture_calls) == 1

    def test_suites_honour_solver_tol(self, tmp_path, monkeypatch):
        path = band_limited_config(tmp_path, **{"solver_tol = 1e-8": "solver_tol = 1e-9"})
        solve = mal.geodesics.solve_epsilon_geodesic
        tolerances = []

        def spy(problem, *args, **kwargs):
            tolerances.append(problem.solver_tol)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(mal.geodesics, "solve_epsilon_geodesic", spy)
        code = main(["verify", "--config", str(path), "--suite", "action-convexity,continuity"])
        assert code == 0
        assert tolerances and set(tolerances) == {1e-9}

    def test_action_convexity_suite(self, tmp_path):
        path = band_limited_config(tmp_path)
        assert main(["verify", "--config", str(path), "--suite", "action-convexity"]) == 0
        records = read_records(tmp_path)
        assert {rec["check"] for rec in records} == {"primary", "negative-control"}

    def test_unknown_suite_exits_three(self, tmp_path, capsys):
        path = band_limited_config(tmp_path)
        assert main(["verify", "--config", str(path), "--suite", "bogus"]) == 3
        assert "suite" in capsys.readouterr().err

    def test_comparison_needs_homogeneous_spec(self, tmp_path, capsys):
        path = band_limited_config(tmp_path, **{"spec = power:p1": "spec = orlicz:p2"})
        assert main(["verify", "--config", str(path), "--suite", "comparison"]) == 3
        assert "homogeneous" in capsys.readouterr().err

    def test_violation_exits_one(self, tmp_path):
        path = band_limited_config(
            tmp_path, **{"tolerance = 5e-3": "tolerance = 1e-15"}
        )
        assert main(["verify", "--config", str(path), "--suite", "noether"]) == 1

    def test_records_deterministic(self, tmp_path):
        path = band_limited_config(tmp_path)
        main(["verify", "--config", str(path), "--suite", "noether"])
        first = (tmp_path / "out" / "records.jsonl").read_bytes()
        main(["verify", "--config", str(path), "--suite", "noether"])
        assert (tmp_path / "out" / "records.jsonl").read_bytes() == first


class TestRearrange:
    def run(self, tmp_path, rows):
        src = tmp_path / "in.csv"
        with src.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        dst = tmp_path / "out.csv"
        code = main(["rearrange", "--in", str(src), "--out", str(dst)])
        return code, dst

    def test_three_rows(self, tmp_path):
        code, dst = self.run(tmp_path, [(1, 0.5), (3, 0.3), (2, 0.2)])
        assert code == 0
        header, rows = read_rows(dst)
        assert header == ["breakpoint", "level"]
        assert [(float(b), float(v)) for b, v in rows] == [
            (0.3, 3.0), (0.5, 2.0), (1.0, 1.0),
        ]

    def test_single_row(self, tmp_path):
        code, dst = self.run(tmp_path, [("value", "weight"), (4.5, 1.0)])
        assert code == 0
        _, rows = read_rows(dst)
        assert rows == [["1", "4.5"]]

    def test_zero_weight_exits_three(self, tmp_path):
        code, _ = self.run(tmp_path, [(1, 0.5), (2, 0.0)])
        assert code == 3

    def test_malformed_row_exits_three(self, tmp_path):
        for rows in ([(1,)], [("nan", 0.5), (2, 0.5)], [(1, "inf"), (2, 0.5)], [(1, "nan"), (2, 0.5)]):
            code, _ = self.run(tmp_path, rows)
            assert code == 3

    def test_missing_file_exits_three(self, tmp_path):
        code = main(["rearrange", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")])
        assert code == 3

