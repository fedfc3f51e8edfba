"""Acceptance gate: one numbered check per contract item, one verdict line each.

Every check pins its own tolerances inline.  A failing check is reported FAIL
and stays red until the underlying behavior is fixed; tolerances are not to be
loosened to make a red check pass.  Run with -v to get one pytest verdict line
per check, or with -s to also see the printed [PASS]/[FAIL] summary lines.
"""

import itertools
import time

import numpy as np
import pytest

from helpers import dyadic_weighted, sorted_merge_oracle

from mal.errors import HomogeneityRequired
from mal.fixtures import random_band_limited, random_potential
from mal.grid import Grid, WeightedValues, make_potential
from mal.lagrangians import (
    LorentzWeak,
    Orlicz,
    Power,
    SupFamily,
)
from mal.rearrangement import (
    decreasing_rearrangement,
    equidistributed,
    hardy_littlewood_sup,
    rearrange_values,
    step_l1_distance,
    theta_map,
)
from mal.transport import (
    composition_scheme,
    inverse,
    linear_path,
    map_distance,
    pullback,
    symplectic_flow,
    transport_flow,
)
from mal.geodesics import (
    EpsGeodesicProblem,
    hcma_residual,
    jacobi_field,
    solve_epsilon_geodesic,
    weak_geodesic,
)
from mal.action import (
    LeastActionQuery,
    competitor_paths,
    least_action,
    midpoint_convexity_margin,
    monotone_limit_check,
    path_action,
    verify_action_convexity,
    verify_comparison_inequality,
    verify_jacobi_convexity,
    verify_least_action,
    verify_noether,
)


def verdict(label, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"{label}{tail}"


def constant(grid, value):
    return make_potential(np.full((grid.n, grid.n), float(value)), grid)


def sample_supfam():
    return SupFamily(
        (
            (0.0, rearrange_values([2.0, 1.0], [0.5, 0.5])),
            (0.1, rearrange_values([1.5, 0.5], [0.25, 0.75])),
        )
    )


def test_01_epsilon_geodesic_matches_constant_endpoint_closed_form():
    g = Grid(32)
    steps = 32
    lo, hi = constant(g, 0.0), constant(g, 1.0)
    started = time.perf_counter()
    errs = {}
    for eps in (1.0, 0.1, 0.01):
        p = EpsGeodesicProblem(lo, hi, (0.0, 1.0), eps, steps, solver_tol=1e-8)
        sol = solve_epsilon_geodesic(p)
        t = sol.path.times[:, None, None]
        closed = t + 0.5 * eps * (t * t - t)
        errs[eps] = float(np.abs(sol.path.fields - closed).max())
    elapsed = time.perf_counter() - started
    dt = 1.0 / steps
    ok = elapsed < 5.0 and all(e <= max(1e-8, dt * dt * eps) for eps, e in errs.items())
    verdict(
        "01 epsilon-geodesic closed form",
        ok,
        f"sup errs {errs}, {elapsed:.2f}s",
    )


def test_02_monge_ampere_residual_calibration():
    g = Grid(32)
    rng = np.random.default_rng(2)
    a, b = random_potential(g, rng, 0.02), random_potential(g, rng, 0.02)
    solver_tol = 1e-8
    worst_rel = -np.inf
    for eps in (0.5, 0.1, 0.02):
        p = EpsGeodesicProblem(a, b, (0.0, 1.0), eps, 16, solver_tol=solver_tol)
        sol = solve_epsilon_geodesic(p)
        rho_max = max(float(k.density.max()) for k in sol.path.knots)
        bound = 1e-6 * (1.0 + rho_max) + 10.0 * solver_tol
        gap = float(np.abs(hcma_residual(sol.path) - eps).max())
        worst_rel = max(worst_rel, gap / bound)
    path = weak_geodesic(a, b, (0.0, 1.0), tol=1e-4, time_steps=32)
    weak_sup = float(np.abs(hcma_residual(path)).max())
    ok = worst_rel <= 1.0 and weak_sup <= 5e-3
    verdict(
        "02 Monge-Ampere residual calibration",
        ok,
        f"eps-solve worst {worst_rel:.2e} of bound, weak sup {weak_sup:.2e}",
    )


def test_03_rearrangement_engine_matches_brute_force_oracles():
    rng = np.random.default_rng(2024)
    instances = failures = 0

    # decreasing rearrangement against the sort-and-merge oracle, bitwise
    for _ in range(5000):
        k = int(rng.integers(1, 9))
        vals, w = dyadic_weighted(rng, k, denom_pow=6)
        r = rearrange_values(vals, w)
        ob, ol = sorted_merge_oracle(vals, w)
        instances += 1
        failures += not (np.array_equal(r.bounds, ob) and np.array_equal(r.levels, ol))

    # equidistribution against the quantum-expansion multiset oracle
    for i in range(3000):
        k = int(rng.integers(1, 9))
        vals, w = dyadic_weighted(rng, k, denom_pow=5)
        denom = 32
        expanded = np.repeat(vals, (w * denom).astype(int))
        other = expanded[rng.permutation(denom)].copy()
        if i % 2:
            other[0] += 1.0
        oracle = np.array_equal(np.sort(expanded), np.sort(other))
        got = equidistributed(
            WeightedValues.from_arrays(vals, w),
            WeightedValues.from_arrays(other, np.full(denom, 1.0 / denom)),
        )
        instances += 1
        failures += got != oracle

    # Hardy-Littlewood pairing against the quantum-expansion oracle, exact
    for _ in range(2000):
        kf, ke = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        f_vals, f_w = dyadic_weighted(rng, kf, denom_pow=6)
        e_vals, e_w = dyadic_weighted(rng, ke, denom_pow=6)
        denom = 64
        f_exp = np.sort(np.repeat(f_vals, (f_w * denom).astype(int)))[::-1]
        e_exp = np.sort(np.repeat(e_vals, (e_w * denom).astype(int)))[::-1]
        oracle = np.dot(f_exp, e_exp) / denom
        got = hardy_littlewood_sup(
            rearrange_values(f_vals, f_w), WeightedValues.from_arrays(e_vals, e_w)
        )
        instances += 1
        failures += got != oracle

    # Hardy-Littlewood pairing against the all-permutations oracle, exact
    for _ in range(300):
        k = int(rng.choice([2, 4]))
        f_vals = rng.integers(-16, 17, size=k).astype(float)
        e_vals = rng.integers(-16, 17, size=k).astype(float)
        w = np.full(k, 1.0 / k)
        oracle = max(
            np.dot(f_vals[list(p)], e_vals) / k
            for p in itertools.permutations(range(k))
        )
        got = hardy_littlewood_sup(
            rearrange_values(f_vals, w), WeightedValues.from_arrays(e_vals, w)
        )
        instances += 1
        failures += got != oracle

    ok = instances >= 10**4 and failures == 0
    verdict(
        "03 rearrangement oracle equivalence",
        ok,
        f"{instances} instances, {failures} failures",
    )


def test_04_lagrangian_invariance_under_permutation_and_transfer():
    specs = [Power(1.0), Power(2.0), Orlicz(lambda t: t * t), LorentzWeak(0.5), sample_supfam()]
    rng = np.random.default_rng(4)
    worst_perm = 0.0
    count_perm = 0
    for spec in specs:
        for _ in range(1000):
            k = int(rng.integers(2, 40))
            _, w = dyadic_weighted(rng, k)
            vals = rng.standard_normal(k) * 2.0
            perm = rng.permutation(k)
            va = spec.of_weighted(WeightedValues.from_arrays(vals, w))
            vb = spec.of_weighted(WeightedValues.from_arrays(vals[perm], w[perm]))
            worst_perm = max(worst_perm, abs(va - vb) / max(1.0, abs(va)))
            count_perm += 1

    g = Grid(8)
    worst_transfer = 0.0
    count_transfer = 0
    for _ in range(1000):
        u = random_potential(g, rng, 0.02)
        v = random_potential(g, rng, 0.02)
        xi = random_band_limited(g, rng, 1.0, max_mode=3)
        wa = WeightedValues.from_field(xi, u)
        star = decreasing_rearrangement(wa)
        tm = theta_map(WeightedValues.from_field(rng.standard_normal((8, 8)), v))
        transferred = tm.pullback(star)
        for spec in specs:
            va = spec.of_weighted(wa)
            vb = spec.of_weighted(transferred)
            worst_transfer = max(worst_transfer, abs(va - vb) / max(1.0, abs(va)))
            count_transfer += 1

    ok = (
        count_perm >= 5000
        and count_transfer >= 5000
        and worst_perm <= 1e-12
        and worst_transfer <= 1e-9
    )
    verdict(
        "04 Lagrangian invariance",
        ok,
        f"perm worst {worst_perm:.2e} ({count_perm}), transfer worst {worst_transfer:.2e} ({count_transfer})",
    )


def test_05_transport_flow_is_a_symplectomorphism_under_refinement():
    def residuals(n, intervals, substeps):
        g = Grid(n, "central")
        rng = np.random.default_rng(17)
        u_a = random_potential(g, rng, amplitude=0.01, max_mode=1)
        x, y = g.coords()
        bump = 0.01 * np.cos(2.0 * np.pi * x) + 0.0075 * np.sin(2.0 * np.pi * y)
        u_b = make_potential(u_a.field + bump, g)
        path = linear_path(u_a, u_b, 0.0, 1.0, intervals)
        phi = transport_flow(path, substeps=substeps)[-1]
        dens = float(
            np.abs(pullback(path.knots[-1].density, phi) * phi.jacobian - u_a.density).max()
        )
        eta = np.cos(2.0 * np.pi * y) + 0.3 * np.sin(2.0 * np.pi * x)
        advected = pullback(eta, inverse(phi))
        match = step_l1_distance(
            decreasing_rearrangement(WeightedValues.from_field(eta, u_a)),
            decreasing_rearrangement(WeightedValues.from_field(advected, path.knots[-1])),
        )
        return dens, match

    out = [residuals(*t) for t in ((16, 4, 4), (32, 8, 8), (64, 16, 16))]
    dens = [o[0] for o in out]
    match = [o[1] for o in out]
    nominal = 2.0
    dens_order = 0.5 * np.log2(dens[0] / dens[2])
    match_order = 0.5 * np.log2(match[0] / match[2])
    ok = (
        dens[0] > dens[1] > dens[2]
        and match[0] > match[1] > match[2]
        and dens_order >= 0.9 * nominal
        and match_order >= 0.9
    )
    verdict(
        "05 transport symplectomorphy",
        ok,
        f"density order {dens_order:.2f} (nominal {nominal}), rearrangement-match order {match_order:.2f}",
    )


def test_06_convexity_along_jacobi_fields():
    g = Grid(32)
    rng = np.random.default_rng(6)
    specs = [Power(1.0), Power(2.0), LorentzWeak(0.5), sample_supfam()]
    eps_cycle = (1.0, 0.3, 0.1, 0.05, 0.02)
    worst = 0.0
    for i in range(20):
        a, b = random_potential(g, rng, 0.02), random_potential(g, rng, 0.02)
        p = EpsGeodesicProblem(a, b, (0.0, 1.0), eps_cycle[i % 5], 16, solver_tol=1e-8)
        sol = solve_epsilon_geodesic(p)
        da = random_band_limited(g, rng, 0.5, max_mode=2)
        db = random_band_limited(g, rng, 0.5, max_mode=2)
        field = jacobi_field(p, da, db, delta=1e-3)
        for spec in specs:
            rep = verify_jacobi_convexity(spec, p, da, db, solution=sol, field=field)
            worst = max(worst, rep.worst)

    # negative control: a family concave in time must show a gross violation
    base = constant(g, 0.0)
    control_path = linear_path(base, base, 0.0, 1.0, 8)
    xi = random_band_limited(g, np.random.default_rng(66), 1.0, max_mode=2)
    profile = np.sin(np.pi * control_path.times)
    control_fields = profile[:, None, None] * xi
    control = midpoint_convexity_margin(Power(1.0), control_path, control_fields)

    ok = worst <= 1e-4 and control > 1e-2
    verdict(
        "06 Jacobi-field convexity",
        ok,
        f"worst violation {worst:.2e} over 20 fixtures x 4 forms, control {control:.2e}",
    )


def test_07_conserved_lagrangian_along_weak_geodesics():
    spec = Power(1.0)
    reports = {}
    for n, steps in ((16, 16), (32, 32)):
        g = Grid(n)
        rng = np.random.default_rng(7)
        a, b = random_potential(g, rng, 0.02), random_potential(g, rng, 0.02)
        path = weak_geodesic(a, b, (0.0, 1.0), tol=1e-6, time_steps=steps)
        reports[n] = verify_noether(spec, path, tol=5e-3)
    coarse, fine = reports[16], reports[32]
    ok = (
        fine.worst <= 5e-3
        and fine.worst < coarse.worst
        and fine.provenance["pairwise_l1"] < coarse.provenance["pairwise_l1"]
    )
    verdict(
        "07 conservation along weak geodesics",
        ok,
        f"worst {coarse.worst:.2e} -> {fine.worst:.2e}, "
        f"pairwise {coarse.provenance['pairwise_l1']:.2e} -> {fine.provenance['pairwise_l1']:.2e}",
    )


def test_08_least_action_beats_randomized_competitors():
    g = Grid(32)
    specs = [Power(1.0), Power(2.0), LorentzWeak(0.5)]
    started = time.perf_counter()
    violations = mismatched = 0
    min_margin = np.inf
    for fixture_seed in range(5):
        rng = np.random.default_rng(80 + fixture_seed)
        start = random_potential(g, rng, 0.02)
        end = random_potential(g, rng, 0.02)
        geod = weak_geodesic(start, end, (0.0, 1.0), tol=1e-4, time_steps=16)
        # each competitor as a path of validated Potentials, priced one by one
        paths = competitor_paths(start, end, 1.0, 100, fixture_seed)
        for spec in specs:
            q = LeastActionQuery(start, end, 1.0, spec, tol=1e-4, time_steps=16)
            rep = verify_least_action(q, count=100, seed=fixture_seed, tol=5e-3, geodesic=geod)
            margins = rep.provenance["margins"]
            violations += sum(m < -5e-3 for m in margins)
            min_margin = min(min_margin, min(margins))
            g_action = rep.provenance["geodesic_action"]
            mismatched += sum(m != path_action(spec, p) - g_action for m, p in zip(margins, paths))
    elapsed = time.perf_counter() - started
    ok = violations == 0 and mismatched == 0 and elapsed < 600.0
    verdict(
        "08 principle of least action",
        ok,
        f"1500 competitor checks, {violations} violations, {mismatched} margins off their "
        f"path actions, min margin {min_margin:.2e}, {elapsed:.0f}s",
    )


def test_09_least_action_is_convex_between_geodesics():
    # analytic constant-endpoint case: value is a convex quadratic in t
    g = Grid(16)
    chi = Orlicz(lambda t: t * t)
    span = 2.0
    closed_worst = 0.0
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        u_t, v_t = 0.5 * t, 0.3 - 0.5 * t
        q = LeastActionQuery(
            constant(g, u_t), constant(g, v_t), span, chi, tol=1e-6, time_steps=16
        )
        gap = u_t - v_t
        closed_worst = max(closed_worst, abs(least_action(q) - gap * gap / span))

    # randomized geodesic pairs, sampled midpoint convexity
    worst = 0.0
    specs = [Power(1.0), LorentzWeak(0.5)]
    for pair_seed in (90, 91, 92):
        rng = np.random.default_rng(pair_seed)
        u_path = weak_geodesic(
            random_potential(g, rng, 0.02), random_potential(g, rng, 0.02),
            (0.0, 1.0), tol=1e-4, time_steps=16,
        )
        v_path = weak_geodesic(
            random_potential(g, rng, 0.02), random_potential(g, rng, 0.02),
            (0.0, 1.0), tol=1e-4, time_steps=16,
        )
        for spec in specs:
            q = LeastActionQuery(
                u_path.knots[0], v_path.knots[0], 1.0, spec, tol=1e-4, time_steps=16
            )
            rep = verify_action_convexity(q, u_path, v_path, 2, tol=5e-3)
            worst = max(worst, rep.worst)

    ok = closed_worst <= 1e-6 and worst <= 5e-3
    verdict(
        "09 convexity of least action",
        ok,
        f"closed form {closed_worst:.2e}, sampled worst {worst:.2e}",
    )


def test_10_triangle_comparison_for_homogeneous_forms():
    g = Grid(16)
    rng = np.random.default_rng(10)
    worst = np.inf
    for spec in (Power(1.0), Power(2.0), LorentzWeak(0.5)):
        for _ in range(2):
            a = random_potential(g, rng, 0.02)
            b = random_potential(g, rng, 0.02)
            apex = random_potential(g, rng, 0.02)
            path = linear_path(a, b, 0.0, 1.0, 8)
            rep = verify_comparison_inequality(
                spec, path, apex, tol=5e-3, epsilon=1e-2, time_steps=16
            )
            worst = min(worst, rep.provenance["margin"])

    with pytest.raises(HomogeneityRequired):
        verify_comparison_inequality(
            Orlicz(lambda t: t * t),
            linear_path(constant(g, 0.0), constant(g, 0.5), 0.0, 1.0, 4),
            constant(g, 0.1),
        )
    ok = worst >= -5e-3
    verdict("10 triangle comparison", ok, f"min margin {worst:.2e} over 6 triangles")


def test_11_composed_hamiltonian_flows_converge_monotonically():
    g = Grid(16)
    all_monotone = True
    tails = []
    for seed in (41, 43, 47):
        rng = np.random.default_rng(seed)
        u = random_potential(g, rng, 0.02)
        za = random_band_limited(g, rng, 0.02, max_mode=1)
        zb = random_band_limited(g, rng, 0.02, max_mode=1)
        s = np.linspace(0.0, 1.0, 5)[:, None, None]
        frames = (1.0 - s) * za + s * zb
        ref = symplectic_flow(frames, u, substeps=64)
        errs = [
            map_distance(composition_scheme(frames, k, u), ref)
            for k in (4, 8, 16, 32)
        ]
        all_monotone &= all(x > y for x, y in zip(errs, errs[1:]))
        tails.append(errs[-1])
    verdict(
        "11 composition scheme convergence",
        all_monotone,
        f"monotone on 3 fixtures, final errors {[f'{t:.1e}' for t in tails]}",
    )


def test_12_monotone_endpoint_limits():
    g = Grid(16)
    rng = np.random.default_rng(12)
    base_a = random_potential(g, rng, 0.02)
    base_b = make_potential(
        0.5 * base_a.field + 0.7 + random_band_limited(g, rng, 0.01, max_mode=2), g
    )
    shifts = (0.16, 0.04, 0.01, 0.0025)
    a_seq = [make_potential(base_a.field + c, g) for c in shifts]
    b_seq = [base_b] * len(shifts)

    rep = monotone_limit_check(a_seq, b_seq, base_a, base_b, tol=1e-6, time_steps=16)
    knot_gap = rep.provenance["final_sup_distance"]

    values = []
    for a in [*a_seq, base_a]:
        q = LeastActionQuery(a, base_b, 1.0, Power(1.0), tol=1e-5, time_steps=16)
        values.append(least_action(q))
    value_monotone = all(x < y for x, y in zip(values, values[1:]))
    value_gap = abs(values[-2] - values[-1])

    ok = rep.passed and knot_gap <= 5e-3 and value_monotone and value_gap <= 5e-3
    verdict(
        "12 monotone endpoint limits",
        ok,
        f"knot margin {rep.worst:.1e}, knot tail gap {knot_gap:.2e}, "
        f"action tail gap {value_gap:.2e}",
    )
