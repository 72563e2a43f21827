import dataclasses
import math

import numpy as np
import pytest

from picardnet import (
    desk_growth_recipe,
    fullerror_bound,
    fullerror_bracket,
    fullerror_check,
    growth_fit,
    lyapunov_bound,
    lyapunov_check,
    lyapunov_phi,
    paper_growth_recipe,
    perturbation_bound,
    perturbation_check,
    suggest_lyapunov_constants,
)
from picardnet.analysis import (
    GrowthRecipe,
    coupled_paths,
    gauss_hermite_expectation,
    simulate_terminal_batch,
)
from picardnet.problems import catalog_entry, network_encodings, squared_norms
from picardnet import realize, uniform_grid
from picardnet.sde import NumericFailure


# ---------------------------------------------------------------------------
# Lyapunov moment bound
# ---------------------------------------------------------------------------

def test_lyapunov_frozen_dynamics_trivial():
    entry = catalog_entry("ode-exp", d=2)
    c, c_phi = suggest_lyapunov_constants(entry.problem)
    report = lyapunov_check(entry.problem, 2.0, c, [(0.0, 1.0, [0.4, -0.2])],
                            n_paths=2000, c_phi=c_phi)
    assert report.passed
    row = report.rows[0]
    phi = lyapunov_phi(2, c_phi, [[0.4, -0.2]])[0]
    assert row["estimate"] == pytest.approx(phi**2)


def test_lyapunov_heat_exact_first_moment():
    d = 2
    entry = catalog_entry("heat", d=d)
    c, c_phi = suggest_lyapunov_constants(entry.problem)
    x = np.array([0.5, -1.0])
    # E[phi(X_{0,T})] = phi(x) + 2 d T exactly for additive noise
    phi_x = lyapunov_phi(d, c_phi, x[None])[0]
    exact = phi_x + 2 * d * 1.0
    assert exact <= lyapunov_bound(1.0, c, 1.0, phi_x)
    report = lyapunov_check(entry.problem, 1.0, c, [(0.0, 1.0, x)], n_paths=20_000,
                            c_phi=c_phi)
    assert report.passed
    assert report.rows[0]["estimate"] == pytest.approx(exact, rel=0.05)


def test_lyapunov_second_moment_monte_carlo():
    entry = catalog_entry("heat", d=3)
    c, c_phi = suggest_lyapunov_constants(entry.problem)
    report = lyapunov_check(entry.problem, 2.0, c, [(0.0, 1.0, np.zeros(3))],
                            n_paths=20_000, c_phi=c_phi)
    assert report.passed and report.margin > 0


# ---------------------------------------------------------------------------
# perturbation bound
# ---------------------------------------------------------------------------

def test_coupled_identical_problems_zero_gap(heat_entry):
    problem = heat_entry.problem
    snaps = coupled_paths(problem, problem, uniform_grid(1.0, 4), 0.0,
                          np.zeros(2), [0.5, 1.0], n_paths=500)
    for xa, xb in snaps.values():
        assert np.array_equal(xa, xb)


def test_batch_paths_raise_on_nonfinite_state(heat_entry):
    blowup = dataclasses.replace(heat_entry.problem, mu=lambda x: np.full(2, np.inf))
    grid = uniform_grid(1.0, 4)
    with pytest.raises(NumericFailure):
        simulate_terminal_batch(blowup, grid, 0.0, np.zeros(2), 1.0, 10, seed=1)
    with pytest.raises(NumericFailure):
        coupled_paths(heat_entry.problem, blowup, grid, 0.0, np.zeros(2), [0.5, 1.0], 10)


def test_perturbation_delta_zero_measures_zero(heat_entry):
    problem = heat_entry.problem
    constants = dataclasses.replace(heat_entry.constants, delta=0.0)
    ref = heat_entry.reference
    report = perturbation_check(problem, problem, ref, ref, constants,
                                [(0.0, np.zeros(2))], n_paths=400)
    assert report.rows[0]["sup_estimate"] == 0.0
    # bound is zero when delta is zero, and the measurement matches exactly
    assert report.rows[0]["bound"] == 0.0
    assert report.passed


def test_perturbation_constant_drift_shift():
    d = 2
    shift = 0.05
    base = catalog_entry("heat", d=d)
    horizon = base.problem.horizon
    pert = dataclasses.replace(
        base.problem, name="heat-shift", mu=lambda x: shift * np.ones(d)
    )

    def u_pert(s, Y):
        drift = shift * (horizon - s) * np.ones(d)
        return squared_norms(Y + drift) + 2 * d * (horizon - s)

    constants = dataclasses.replace(base.constants, delta=shift * math.sqrt(d))
    report = perturbation_check(base.problem, pert, base.reference, u_pert,
                                constants, [(0.0, np.array([0.3, -0.3]))],
                                n_paths=2000)
    assert report.passed
    # coupled paths diverge by exactly shift * (s - t) * sqrt(d)
    gap = report.rows[0]["mean_path_gap"]
    assert gap == pytest.approx(shift * 1.0 * math.sqrt(d), rel=1e-9)
    assert gap <= shift * horizon * math.exp(base.problem.lipschitz_c * horizon)


def make_pwl_heat_pair(d):
    """The heat problem next to its interpolated-terminal twin, plus the
    twin's exact solution (f = 0 and additive noise make u2 a sum of 1-d
    Gaussian expectations of the scalar interpolant)."""
    base = catalog_entry("heat", d=d)
    problem = base.problem
    nets = network_encodings(problem)
    horizon = problem.horizon
    g2 = nets.g
    # the terminal net is separable with scalar branch p, and p(0) = 0
    assert realize(g2, np.zeros(d))[0] == pytest.approx(0.0, abs=1e-14)

    pert = dataclasses.replace(problem, name="heat-pwl", g=lambda X: realize(g2, X)[:, 0])

    def shifted(offsets, Y):
        return np.array([realize(g2, Y + v)[:, 0] for v in offsets])

    def u_pert(s, Y):
        std = math.sqrt(2.0 * max(horizon - s, 0.0))
        if std == 0.0:
            return realize(g2, Y)[:, 0]
        # g2(y) = sum_j p(y_j): shifting every coordinate of a row by one
        # abscissa gives that abscissa's term of all d expectations at once
        return gauss_hermite_expectation(lambda v: shifted(v, Y), 0.0, std)

    constants = dataclasses.replace(base.constants, delta=max(nets.delta, 1e-12))
    return base, pert, u_pert, constants


def test_perturbation_interpolated_terminal():
    d = 2
    base, pert, u_pert, constants = make_pwl_heat_pair(d)
    report = perturbation_check(base.problem, pert, base.reference, u_pert,
                                constants, [(0.0, np.zeros(d))],
                                n_paths=800)
    assert report.passed


def test_gauss_hermite_expectation_matches_moments():
    assert gauss_hermite_expectation(lambda v: v * v, 0.0, 2.0) == pytest.approx(4.0)
    assert gauss_hermite_expectation(lambda v: v, 1.5, 0.7) == pytest.approx(1.5)
    rows = gauss_hermite_expectation(lambda v: np.stack([v, v * v], axis=1), 1.5, 0.7)
    np.testing.assert_allclose(rows, [1.5, 1.5**2 + 0.7**2], rtol=1e-12)


# ---------------------------------------------------------------------------
# full error bound
# ---------------------------------------------------------------------------

def test_fullerror_bracket_arithmetic():
    # n = M = 3, c = 1, T = 1, delta = 0
    val = fullerror_bracket(3, 3, 0.0, 1.0, 1.0)
    want = math.exp(6.0 + 1.5) / 3**1.5 + 3**-1.5
    assert val == pytest.approx(want)
    assert val == pytest.approx(348.13, rel=1e-3)


def test_fullerror_zero_level(ode_entry):
    problem, ref = ode_entry.problem, ode_entry.reference
    report = fullerror_check(problem, ref, ode_entry.constants, [(0, 1)],
                             0.0, np.zeros(1), seeds=3)
    row = report.rows[0]
    assert row["rmse"] == pytest.approx(abs(ref(0.0, np.zeros((1, 1)))[0]))
    assert row["pass"]


def test_fullerror_ode_ratios(ode_entry):
    problem, ref = ode_entry.problem, ode_entry.reference
    report = fullerror_check(problem, ref, ode_entry.constants,
                             [(2, 2), (3, 3)], 0.0, np.zeros(1), seeds=20,
                             grid_fn=lambda M: uniform_grid(1.0, 1))
    assert report.passed
    for row in report.rows:
        assert row["ratio"] <= 1.0


def test_fullerror_bound_monotone_in_delta(ode_entry):
    b0 = fullerror_bound(2, 2, 0.0, ode_entry.constants, 1.0, 4.0)
    b1 = fullerror_bound(2, 2, 0.1, ode_entry.constants, 1.0, 4.0)
    assert b1 > b0


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def test_recipe_level_is_minimal():
    recipe = GrowthRecipe(c=1.0, horizon=0.25,
                          rate_constant=lambda d: 0.01,
                          delta_of=lambda d, eps: eps / 10.0)

    def rate(n):
        return 0.01 * (math.exp(4 * n * 1.0 * 0.25 + n / 2) + 1.0) / n ** (n / 2)

    for eps in (0.5, 0.3, 0.25):
        level = recipe.level(1, eps)
        assert level is not None
        assert rate(level) <= eps / 2
        assert all(rate(n) > eps / 2 for n in range(2, level))


def test_paper_recipe_unbuildable_at_honest_constants():
    recipe = paper_growth_recipe()
    assert recipe.level(1, 0.5) is None
    report = growth_fit(lambda d: catalog_entry("heat", d=d), [1], [0.5], recipe)
    assert len(report.rows) == 0
    assert report.skipped and report.skipped[0]["reason"] == "no level within range"


def test_growth_single_point_degenerates_to_raw_count():
    recipe = desk_growth_recipe()
    report = growth_fit(lambda d: catalog_entry("heat", d=d), [2], [0.4], recipe)
    assert len(report.rows) == 1
    assert report.fitted == {}
    assert report.rows[0]["pass"]


def test_growth_pointwise_bound_and_fits():
    recipe = desk_growth_recipe()
    report = growth_fit(lambda d: catalog_entry("heat", d=d), [1, 2], [0.4, 0.1], recipe)
    assert report.passed and len(report.rows) == 4
    for r in report.rows:
        assert r["params"] <= r["param_bound"]
    assert any(k.startswith("d-exponent") for k in report.fitted)
    assert any(k.startswith("eps-exponent") for k in report.fitted)
    for fit in report.fitted.values():
        assert "residual" in fit and fit["points"] >= 2


def test_growth_eps_monotone_params_for_heat():
    # finer accuracy -> finer terminal interpolation -> more parameters
    recipe = desk_growth_recipe()
    report = growth_fit(lambda d: catalog_entry("heat", d=d), [2], [0.4, 0.05], recipe)
    by_eps = {r["eps"]: r["params"] for r in report.rows}
    assert by_eps[0.05] > by_eps[0.4]


def test_growth_halving_eps_within_bound_ratio():
    # halving the accuracy target grows the count by far less than the
    # bound's accuracy exponent 6 + 2*alpha_width + beta_depth + gamma allows
    recipe = desk_growth_recipe()
    report = growth_fit(lambda d: catalog_entry("heat", d=d), [2], [0.2, 0.1], recipe)
    by_eps = {r["eps"]: r["params"] for r in report.rows}
    alpha_width, beta_depth, gamma = 2.0, 1.0, 0.5
    assert by_eps[0.1] / by_eps[0.2] <= 2.0 ** (6 + 2 * alpha_width + beta_depth + gamma)
