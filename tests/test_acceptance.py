"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

import numpy as np
import pytest

from picardnet import (
    FrozenSample,
    MlpConfig,
    ROOT_PATH,
    architecture,
    build_mlp_network,
    compose,
    compose_architecture,
    desk_growth_recipe,
    extend_depth,
    fullerror_check,
    growth_fit,
    identity_network,
    lyapunov_check,
    max_width,
    mlp_depth_identity,
    mlp_estimate,
    param_count,
    realize,
    suggest_lyapunov_constants,
    sum_architecture,
    sum_networks,
    uniform_grid,
)
from picardnet.analysis import perturbation_check
from picardnet.problems import catalog_entry, drift_shifted_heat, network_encodings
from conftest import random_network

from test_analysis import make_pwl_heat_pair

SAMPLE = FrozenSample(20_240_601)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for name in ("relu-exact", "ode-exp"):
        entry = catalog_entry(name)
        problem = entry.problem
        nets = network_encodings(problem)
        grid = uniform_grid(problem.horizon, 2)
        for n in (0, 1, 2):
            for M in (1, 2):
                cfg = MlpConfig(n, M, grid, SAMPLE)
                for _ in range(20):
                    theta = tuple(int(v) for v in rng.integers(-9, 9, size=2))
                    t = float(rng.uniform(0, problem.horizon))
                    x = rng.uniform(-1.5, 1.5, problem.d)
                    built = build_mlp_network(nets, cfg, theta, t)
                    u = mlp_estimate(problem, cfg, theta, t, x)
                    r = float(realize(built.network, x)[0])
                    worst = max(worst, abs(r - u) / (1.0 + abs(u)))
    ok = worst <= 1e-8
    report(1, "oracle equivalence of built networks", ok, f"max rel dev {worst:.3e}")
    assert ok


def test_criterion_2_architecture_identities():
    ok = True
    detail = ""
    for d in (1, 2, 3):
        entry = catalog_entry("relu-exact", d=d)
        nets = network_encodings(entry.problem)
        mu_a = architecture(nets.mu)
        sig_a = nets.sigma.reference_architecture
        f_a, g_a = architecture(nets.f), architecture(nets.g)
        for steps in (1, 2, 4):
            grid = uniform_grid(entry.problem.horizon, steps)
            for n in (0, 1, 2):
                for M in (1, 2):
                    cfg = MlpConfig(n, M, grid, SAMPLE)
                    built = build_mlp_network(nets, cfg, ROOT_PATH, 0.5)
                    arch = architecture(built.network)
                    depth_ok = len(arch) == mlp_depth_identity(
                        n, steps, len(mu_a), len(sig_a), len(f_a), len(g_a)
                    )
                    width_ok = max_width(arch) <= built.prediction.width_bound
                    params_ok = param_count(built.network) == sum(
                        arch[i] * (arch[i - 1] + 1) for i in range(1, len(arch))
                    )
                    shape_ok = arch == built.prediction.architecture
                    if not (depth_ok and width_ok and params_ok and shape_ok):
                        ok = False
                        detail = f"violation at d={d} K={steps} n={n} M={M}"
    report(2, "architecture identities over the build grid", ok, detail)
    assert ok


def test_criterion_3_calculus_homomorphisms():
    rng = np.random.default_rng(33)
    worst = 0.0
    arch_ok = True
    for _ in range(10):
        f = random_network(rng, 3, 2, int(rng.integers(3, 6)))
        g = random_network(rng, 2, 3, int(rng.integers(3, 6)))
        net = compose(f, g)
        arch_ok &= architecture(net) == compose_architecture(architecture(f), architecture(g))
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            want = realize(f, realize(g, x))
            got = realize(net, x)
            worst = max(worst, float(np.max(np.abs(got - want) / (1.0 + np.abs(want)))))
    for _ in range(10):
        depth = int(rng.integers(3, 6))
        nets = [random_network(rng, 2, 1, depth, width=int(rng.integers(1, 5)))
                for _ in range(3)]
        h = rng.uniform(-2, 2, 3)
        s = sum_networks(h, nets)
        arch_ok &= architecture(s) == sum_architecture([architecture(n) for n in nets])
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            want = sum(hi * realize(n, x) for hi, n in zip(h, nets))
            got = realize(s, x)
            worst = max(worst, float(np.max(np.abs(got - want) / (1.0 + np.abs(want)))))
    ident = identity_network(3, 6)
    for _ in range(1000):
        x = rng.uniform(-50, 50, 3)
        if not np.array_equal(realize(ident, x), x):
            arch_ok = False
    base = random_network(rng, 2, 2, 3)
    for target in (3, 4, 6):
        ext = extend_depth(base, target)
        for _ in range(334):
            x = rng.uniform(-3, 3, 2)
            want = realize(base, x)
            got = realize(ext, x)
            worst = max(worst, float(np.max(np.abs(got - want) / (1.0 + np.abs(want)))))
    ok = worst <= 1e-10 and arch_ok
    report(3, "calculus homomorphisms", ok, f"max rel dev {worst:.3e}")
    assert ok


def test_criterion_4_convergence():
    # exact solution e at t = 0: seed-ensemble RMSE decreases in n = M and
    # stays below the full-error bound
    entry = catalog_entry("ode-exp")
    problem, ref = entry.problem, entry.reference
    pairs = [(1, 1), (2, 2), (3, 3)]
    rep = fullerror_check(problem, ref, entry.constants, pairs, 0.0, np.zeros(1),
                          seeds=100, base_seed=777_000)
    rmses = [row["rmse"] for row in rep.rows]
    monotone = all(a > b for a, b in zip(rmses, rmses[1:]))
    ratios_ok = all(row["ratio"] <= 1.0 for row in rep.rows)

    heat = catalog_entry("heat", d=5)
    grid = uniform_grid(heat.problem.horizon, 27)
    vals = [
        mlp_estimate(heat.problem, MlpConfig(3, 3, grid, FrozenSample(555_000 + i)),
                     ROOT_PATH, 0.0, np.zeros(5))
        for i in range(100)
    ]
    exact = heat.reference(0.0, np.zeros((1, 5)))[0]
    rel = abs(float(np.mean(vals)) - exact) / exact
    heat_ok = rel <= 0.05

    ok = monotone and ratios_ok and heat_ok
    report(4, "convergence (monotone RMSE, bound ratios, heat 5-d)", ok,
           f"rmse={['%.3f' % r for r in rmses]}, heat rel err {rel:.3%}")
    assert ok


def test_criterion_5_lyapunov_bound():
    ok = True
    worst_margin = math.inf
    for d in (1, 3):
        entry = catalog_entry("heat", d=d)
        c, c_phi = suggest_lyapunov_constants(entry.problem)
        for kappa in (1.0, 2.0):
            rep = lyapunov_check(entry.problem, kappa, c,
                                 [(0.0, 1.0, np.zeros(d))], n_paths=100_000,
                                 c_phi=c_phi, seed=int(40 + 10 * d + kappa))
            ok &= rep.passed
            worst_margin = min(worst_margin, rep.margin)
    report(5, "Lyapunov moment bound (heat, kappa in {1,2}, d in {1,3})", ok,
           f"min margin {worst_margin:.3g}")
    assert ok


def test_criterion_6_perturbation_bound():
    d = 2
    base = catalog_entry("heat", d=d)
    shifted = drift_shifted_heat(base)
    rep_shift = perturbation_check(base.problem, shifted.problem, base.reference,
                                   shifted.reference, shifted.constants,
                                   [(0.0, np.array([0.25, -0.5]))], n_paths=20_000, seed=61)

    pbase, pert, u_pert, pconstants = make_pwl_heat_pair(d)
    rep_interp = perturbation_check(pbase.problem, pert, pbase.reference, u_pert,
                                    pconstants, [(0.0, np.zeros(d))],
                                    n_paths=20_000, seed=62)
    ok = rep_shift.passed and rep_interp.passed
    report(6, "perturbation bound (drift shift and interpolated terminal)", ok,
           f"margins {rep_shift.margin:.3g} / {rep_interp.margin:.3g}")
    assert ok


def test_criterion_7_growth_conformance():
    recipe = desk_growth_recipe()
    rep = growth_fit(lambda d: catalog_entry("heat", d=d), [1, 2, 4],
                     [0.4, 0.2, 0.1], recipe)
    pointwise = all(r["params"] <= r["param_bound"] for r in rep.rows)
    have_fits = any(k.startswith("d-exponent") for k in rep.fitted) and any(
        k.startswith("eps-exponent") for k in rep.fitted
    )
    ok = pointwise and have_fits and len(rep.rows) >= 6
    exps = {k: round(v["exponent"], 2) for k, v in rep.fitted.items()}
    report(7, "parameter growth conformance", ok,
           f"{len(rep.rows)} built, {len(rep.skipped)} skipped, exponents {exps}")
    assert ok
