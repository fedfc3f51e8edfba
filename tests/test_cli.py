"""Tests for the command-line front end: config parsing, artifacts, suites."""

import configparser
import contextlib
import csv
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import inadmissible_lgmres

import mal.cli
import mal.geodesics
from mal.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    VerifyRun,
    _concavity_control,
    _write_field_csv,
    build_fixture,
    main,
    parse_config,
    parse_lagrangian,
)
from mal.action import verify_noether
from mal.errors import GenerationFailed
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


# JSON admits Infinity and NaN; a member carrying one is not a Lagrangian
NON_FINITE_MEMBERS = (
    [{"offset": 0.0, "bounds": [0.0, 0.5, 1.0], "levels": [np.inf, 0.0]}],
    [{"offset": 0.0, "bounds": [0.0, 1.0], "levels": [np.nan]}],
    [{"offset": 0.0, "bounds": [0.0, 0.5, np.inf], "levels": [2.0, 1.0]}],
    [{"offset": np.nan, "bounds": [0.0, 1.0], "levels": [1.0]}],
)


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
        for text in ("power:pnan", "power:pinf", "lorentz:anan",
                     "power:ppp2", "power:2", "orlicz:2", "lorentz:aaa0.5"):
            with pytest.raises(ConfigError):
                parse_lagrangian(text, tmp_path)
        member = {"offset": 0.0, "bounds": [0.0, 1.0], "levels": [1.0]}
        for members in ([1], [{**member, "offset": None}], [{**member, "offset": 10**400}],
                        *NON_FINITE_MEMBERS):
            (tmp_path / "bad.json").write_text(json.dumps(members))
            with pytest.raises(ConfigError):
                parse_lagrangian("supfam:bad.json", tmp_path)


README = Path(__file__).resolve().parents[1] / "README.md"


class TestParseConfig:
    def test_readme_example_parses(self, tmp_path):
        example = re.search(r"```ini\n(.*?)```", README.read_text(), re.DOTALL).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(example)
        cfg = parse_config(str(path))
        assert cfg.grid == Grid(32) and cfg.fixture_kind == "band-limited" and cfg.mode == "weak"

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


BAND_LIMITED = "kind = band-limited\nseed = 5\namplitude = 0.02\nmax_mode = 2"

# drawn config values: free text, and numbers in the forms a reader meets
VALUES = st.one_of(st.text(), st.integers().map(str), st.floats().map(repr))

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError inside the block once it has run for the given wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


FUZZ = settings(
    derandomize=True, max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestConfigFuzz:
    @pytest.mark.parametrize("section,key", sorted(CONFIG_SCHEMA))
    @FUZZ
    @given(value=VALUES)
    def test_any_value_parses_or_is_a_config_error(self, tmp_path, section, key, value):
        text = BASE_CONFIG.format(out=tmp_path / "out")
        if section == "fixture" and key in ("seed", "amplitude", "max_mode"):
            text = text.replace("kind = constants\nstart = 0.0\nend = 1.0", BAND_LIMITED)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        body = {s: dict(parser[s]) for s in parser.sections()}
        body[section][key] = value
        path = tmp_path / "fuzz.ini"
        path.write_text("".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for s, kv in body.items()
        ))
        try:
            cfg = parse_config(str(path))
        except ConfigError:
            return
        if section == "fixture":
            with time_limit(2.0):  # an accepted max_mode must not make the draw run for ages
                build_fixture(cfg)

    @settings(FUZZ, max_examples=200)
    @given(members=st.one_of(
        st.recursive(
            JSON_SCALARS,
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=8,
        ),
        st.lists(st.fixed_dictionaries({
            "offset": JSON_SCALARS, "bounds": st.lists(JSON_SCALARS), "levels": st.lists(JSON_SCALARS),
        }), max_size=3),
    ))
    def test_any_supfam_file_parses_or_is_a_config_error(self, tmp_path, members):
        (tmp_path / "members.json").write_text(json.dumps(members))
        try:
            spec = parse_lagrangian("supfam:members.json", tmp_path)
        except ConfigError:
            return
        assert isinstance(spec, SupFamily)


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
            ({"mode = epsilon": "mode = epsilon\nmax_iter = 60"}, "[geodesic] max_iter"),
            ({"solver_tol = 1e-8": "solver_tl = 1e-8"}, "[geodesic] solver_tl"),
            ({"[output]": "[outputs]"}, "[outputs]"),
            ({"start = 0.0": "start = %(x)s"}, "[fixture] start"),
            ({"start = 0.0": "start = 1e308"}, "[fixture] start"),
            ({constants: band_limited + "1e308"}, "[fixture] amplitude"),
            ({constants: band_limited + "0.02\nseed = -1"}, "[fixture] seed"),
            ({constants: band_limited + "0.02\nmax_mode = -1"}, "[fixture] max_mode"),
            ({constants: band_limited + "0.02\nmax_mode = 4"}, "[fixture] max_mode"),
            ({"seed = 3": "seed = -2"}, "[verification] seed"),
            ({"n = 8": "n = 1000000"}, "[grid] n"),
            ({"n = 8": "n = 66"}, "[grid] n"),
            ({"time_steps = 8": "time_steps = 1000000000"}, "[geodesic] time_steps"),
            # a key the fixture kind does not read is still validated
            ({"end = 1.0": "end = 1.0\nseed = -1"}, "[fixture] seed"),
        ]
        for replacements, section in cases:
            path = write_config(tmp_path, **replacements)
            assert main(["solve", "--config", str(path)]) == 3
            assert section in capsys.readouterr().err

    def test_undecodable_config_exits_three(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"n = 8", b"n = 8\xff"))
        assert main(["solve", "--config", str(path)]) == 3
        assert "config file" in capsys.readouterr().err

    def test_percent_in_value_is_literal(self, tmp_path):
        path = write_config(tmp_path, **{str(tmp_path / "out"): str(tmp_path / "o%ut")})
        assert main(["solve", "--config", str(path)]) == 0
        assert (tmp_path / "o%ut" / "path.csv").exists()

    def test_solver_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, **{"solver_tol = 1e-8": "solver_tol = 1e-30"})
        assert main(["solve", "--config", str(path)]) == 2
        assert "solver failure" in capsys.readouterr().err
        monkeypatch.setattr(mal.geodesics, "lgmres", inadmissible_lgmres(8))
        assert main(["solve", "--config", str(band_limited_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err and "density became non-positive" in err

    def test_missing_config_exits_three(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "absent.ini")]) == 3
        assert "config file" in capsys.readouterr().err

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

    def test_field_csv_golden_bytes(self, tmp_path):
        # the bytes csv.writer wrote row by row: CRLF line ends, 17 significant digits
        path = write_config(tmp_path, **{"n = 8": "n = 4", "time_steps = 8": "time_steps = 2"})
        assert main(["solve", "--config", str(path)]) == 0

        def constant_slices(column, slices):
            rows = "".join(
                f"{t},{i},{j},{value}\r\n" for t, value in slices for i in range(4) for j in range(4)
            )
            return f"t,i,j,{column}\r\n{rows}".encode()

        out = tmp_path / "out"
        assert (out / "path.csv").read_bytes() == constant_slices(
            "u", [("0", "0"), ("0.5", "0.48749999999999999"), ("1", "1")]
        )
        assert (out / "hcma.csv").read_bytes() == constant_slices(
            "c", [("0.5", "0.10000000000000009")]
        )
        # cells that differ pin the row order and the digits of each value
        stack = np.arange(8.0).reshape(2, 2, 2) / 3 - 1
        _write_field_csv(tmp_path / "w.csv", np.array([0.0, 0.1]), stack, "u")
        assert (tmp_path / "w.csv").read_bytes() == (
            b"t,i,j,u\r\n0,0,0,-1\r\n0,0,1,-0.66666666666666674\r\n"
            b"0,1,0,-0.33333333333333337\r\n0,1,1,0\r\n"
            b"0.10000000000000001,0,0,0.33333333333333326\r\n"
            b"0.10000000000000001,0,1,0.66666666666666674\r\n"
            b"0.10000000000000001,1,0,1\r\n0.10000000000000001,1,1,1.3333333333333335\r\n"
        )
        # signed zero, the smallest subnormal and the largest finite values keep 17 digits
        times = np.array([1.0 / 3.0, -0.0])
        big = 1.7976931348623157e308
        extremes = np.array([-0.0, 5e-324, big, -big, 1.0 / 3.0, 0.0, 1.0, -1.0]).reshape(2, 2, 2)
        _write_field_csv(tmp_path / "x.csv", times, extremes, "c")
        rows = "".join(
            f"{t:.17g},{i},{j},{v:.17g}\r\n"
            for t, field in zip(times, extremes)
            for (i, j), v in np.ndenumerate(field)
        )
        assert (tmp_path / "x.csv").read_bytes() == f"t,i,j,c\r\n{rows}".encode()
        assert (tmp_path / "x.csv").read_bytes().startswith(
            b"t,i,j,c\r\n0.33333333333333331,0,0,-0\r\n"
            b"0.33333333333333331,0,1,4.9406564584124654e-324\r\n"
        )


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

    @pytest.mark.parametrize("scheme", ["spectral", "central"])
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_noether_control_fails_at_every_resolution(self, tmp_path, n, scheme):
        path = band_limited_config(
            tmp_path,
            **{"n = 8": f"n = {n}", "scheme = spectral": f"scheme = {scheme}",
               "max_mode = 2": f"max_mode = {min(2, n // 2 - 1)}"},
        )
        cfg = parse_config(str(path))
        detour = VerifyRun(cfg, *build_fixture(cfg)).detour
        for form in ("power:p1", "power:p2", "orlicz:p2", "lorentz:a0.5"):
            report = verify_noether(parse_lagrangian(form, tmp_path), detour, tol=1e-6)
            assert not report.passed, form

    def test_least_action_suite_details(self, tmp_path):
        path = band_limited_config(tmp_path)
        assert main(["verify", "--config", str(path), "--suite", "least-action"]) == 0
        details = json.loads((tmp_path / "out" / "details.json").read_text())
        margins = details["least-action"]["primary"]["margins"]
        assert len(margins) == 3
        assert min(margins) > -5e-3

    @pytest.mark.parametrize("spec", ["power:p1", "power:p2", "orlicz:p2", "lorentz:a0.5"])
    def test_least_action_control_on_constants(self, tmp_path, spec):
        # Power(1) charges every pointwise-monotone path between constants alike,
        # so the detour must rise and fall at every cell to cost more
        path = write_config(tmp_path, **{"spec = power:p1": f"spec = {spec}"})
        assert main(["verify", "--config", str(path), "--suite", "least-action"]) == 0

    @pytest.mark.parametrize("spec", ["power:p1", "power:p2", "orlicz:p2", "lorentz:a0.5"])
    def test_least_action_on_constants_at_n4(self, tmp_path, spec):
        path = write_config(tmp_path, **{"n = 8": "n = 4", "spec = power:p1": f"spec = {spec}"})
        code = main(["verify", "--config", str(path), "--suite", "least-action"])
        primary, _ = read_records(tmp_path)
        assert primary["pass"], f"worst competitor margin {primary['value']:.3e}"
        assert code == 0

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
        assert main(["verify", "--config", str(path), "--suite", ","]) == 3
        assert "at least one suite" in capsys.readouterr().err

    def test_comparison_needs_homogeneous_spec(self, tmp_path, capsys):
        path = band_limited_config(tmp_path, **{"spec = power:p1": "spec = orlicz:p2"})
        assert main(["verify", "--config", str(path), "--suite", "comparison"]) == 3
        assert "homogeneous" in capsys.readouterr().err

    @pytest.mark.parametrize("members", NON_FINITE_MEMBERS)
    def test_non_finite_supfam_member_exits_three(self, tmp_path, capsys, members):
        (tmp_path / "members.json").write_text(json.dumps(members))
        path = band_limited_config(tmp_path, **{"spec = power:p1": "spec = supfam:members.json"})
        code = main(["verify", "--config", str(path), "--suite", "noether,least-action"])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error: [lagrangian] spec")
        assert not (tmp_path / "out").exists()

    def test_domain_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def failing(run):
            raise GenerationFailed("no admissible knot")

        monkeypatch.setitem(mal.cli.SUITES, "noether", failing)
        path = band_limited_config(tmp_path)
        assert main(["verify", "--config", str(path), "--suite", "noether"]) == 2
        assert capsys.readouterr().err == "error: no admissible knot\n"

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

    def test_opposite_extremes(self, tmp_path):
        code, dst = self.run(tmp_path, [(1e308, 0.5), (-1e308, 0.5)])
        assert code == 0
        _, rows = read_rows(dst)
        assert [(float(b), float(v)) for b, v in rows] == [(0.5, 1e308), (1.0, -1e308)]

    def test_zero_weight_exits_three(self, tmp_path):
        code, _ = self.run(tmp_path, [(1, 0.5), (2, 0.0)])
        assert code == 3

    def test_malformed_row_exits_three(self, tmp_path):
        for rows in (
            [(1,)], [("nan", 0.5), (2, 0.5)], [(1, "inf"), (2, 0.5)], [(1, "nan"), (2, 0.5)],
            [("value", "weight")],
        ):
            code, _ = self.run(tmp_path, rows)
            assert code == 3

    def test_overflowing_total_weight_exits_three(self, tmp_path, capsys):
        code, dst = self.run(tmp_path, [(1, 1e308), (2, 1e308)])
        assert code == 3
        assert "config error:" in capsys.readouterr().err
        assert not dst.exists()

    def test_missing_file_exits_three(self, tmp_path):
        code = main(["rearrange", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")])
        assert code == 3


def test_import_leaves_scipy_fft_unloaded():
    """The command line's import chain loads no scipy.fft: numpy.fft does the transforms."""
    env = dict(os.environ, PYTHONPATH=str(Path(mal.cli.__file__).parents[1]))
    child = "import sys, mal.cli; print('scipy.fft' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"
