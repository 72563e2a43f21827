import math
import tracemalloc

import numpy as np
import pytest

from picardnet import (
    FrozenSample,
    MlpConfig,
    ROOT_PATH,
    affine_network,
    architecture,
    max_network,
    mlp_estimate,
    network_encodings,
    pwl_network,
    realize,
    uniform_grid,
)
from picardnet.problems import (
    FACTORIES,
    EncodingError,
    catalog_entry,
    coordinatewise_sum_network,
    measure_sup_deviation,
    squared_norms,
)

SAMPLE = FrozenSample(55)


def test_catalog_contains_required_entries():
    assert {"ode-exp", "heat", "relu-exact", "bs-like"} <= set(FACTORIES)


def test_ode_reference_value(ode_entry):
    assert ode_entry.reference(0.0, np.zeros((1, 1)))[0] == pytest.approx(math.e)
    assert ode_entry.reference(1.0, np.zeros((1, 1)))[0] == pytest.approx(1.0)


def test_heat_reference_values():
    entry = catalog_entry("heat", d=2)
    assert entry.reference(0.0, np.zeros((1, 2)))[0] == pytest.approx(4.0)
    x = np.array([1.0, -2.0])
    assert entry.reference(1.0, x[None])[0] == pytest.approx(entry.problem.g(x[None])[0])


def test_unknown_problem_rejected():
    with pytest.raises(KeyError):
        catalog_entry("not-a-problem")


def test_lipschitz_declared_constants(rng):
    entries = [factory() for factory in FACTORIES.values()]
    pairs_per_problem = 100_000 // len(entries)
    for entry in entries:
        f, c = entry.problem.f, entry.problem.lipschitz_c
        v, w = rng.uniform(-20, 20, (pairs_per_problem, 2)).T
        assert np.all(np.abs(f(v) - f(w)) <= c * np.abs(v - w) * (1 + 1e-12))


def test_exact_encodings_match_closures(rng):
    for name in ("ode-exp", "relu-exact", "bs-like"):
        entry = catalog_entry(name)
        problem = entry.problem
        nets = network_encodings(problem)
        assert nets.delta == 0.0
        d = problem.d
        for _ in range(1000):
            x = rng.uniform(-3, 3, d)
            v = float(rng.uniform(-4, 4))
            assert abs(realize(nets.f, [v])[0] - problem.f(np.array([v]))[0]) <= 1e-12
            assert abs(realize(nets.g, x)[0] - problem.g(x[None])[0]) <= 1e-12
            np.testing.assert_allclose(
                realize(nets.mu, x), np.broadcast_to(problem.mu(x[None]), (1, d))[0],
                rtol=0, atol=1e-12,
            )
        for _ in range(50):
            x = rng.uniform(-3, 3, d)
            v = rng.standard_normal(d)
            np.testing.assert_allclose(
                realize(nets.sigma(v), x),
                np.broadcast_to(problem.sigma(x[None]), (1, d, d))[0] @ v,
                rtol=0, atol=1e-12,
            )


def test_sigma_family_architecture_invariance(rng):
    for name in ("heat", "relu-exact", "bs-like"):
        nets = network_encodings(catalog_entry(name).problem)
        ref = nets.sigma.reference_architecture
        for _ in range(20):
            v = rng.standard_normal(nets.sigma.input_dim) * 10
            assert architecture(nets.sigma(v)) == ref


def test_max_network_matches_builtin(rng):
    for d in (1, 2, 3, 5):
        net = max_network(d)
        for _ in range(200):
            x = rng.uniform(-5, 5, d)
            assert realize(net, x)[0] == pytest.approx(float(np.max(x)), abs=1e-12)


def test_two_input_max_identity(rng):
    net = max_network(2)
    for _ in range(1000):
        a, b = rng.uniform(-10, 10, 2)
        assert realize(net, [a, b])[0] == pytest.approx(max(a, b), abs=1e-12)


def test_pwl_interpolation_error_of_square():
    knots = np.linspace(-3.0, 3.0, 65)  # 64 pieces
    net = pwl_network(knots, knots**2)
    xs = np.linspace(-3.0, 3.0, 20_001)
    errs = [abs(realize(net, [x])[0] - x * x) for x in xs]
    h = 6.0 / 64
    # curvature of v^2 is 2, so the midpoint error per piece is h^2/4
    assert max(errs) <= h * h / 4 + 1e-12
    assert max(errs) >= h * h / 4 * 0.9  # the bound is sharp for a parabola


def test_coordinatewise_sum_network(rng):
    knots = np.linspace(-3.0, 3.0, 17)
    net = coordinatewise_sum_network(3, pwl_network(knots, knots**2))
    for _ in range(50):
        x = rng.uniform(-3, 3, 3)
        want = sum(np.interp(v, knots, knots**2) for v in x)
        assert realize(net, x)[0] == pytest.approx(want, abs=1e-10)


def test_heat_encoding_reports_measured_deviation():
    entry = catalog_entry("heat", d=2)
    nets = network_encodings(entry.problem)
    d, pieces, radius = 2, 64, 3.0
    analytic = d * (2 * radius / pieces) ** 2 / 4
    assert 0 < nets.delta <= analytic + 1e-12


def test_measure_sup_deviation_calls_fn_once_with_the_batch():
    knots = np.linspace(-3.0, 3.0, 65)
    net = coordinatewise_sum_network(2, pwl_network(knots, knots**2))
    calls = []

    def fn(X):
        calls.append(X.shape)
        return squared_norms(X)

    delta = measure_sup_deviation(net, fn, 3.0)
    assert calls == [(4096, 2)]
    pts = np.random.default_rng(7).uniform(-3.0, 3.0, size=(4096, 2))
    per_point = max(abs(realize(net, x)[0] - float(x @ x)) for x in pts)
    assert delta == pytest.approx(per_point, abs=1e-12)
    # several outputs: each point's row is compared with the network's row
    shift = np.array([0.0, 0.25])
    assert measure_sup_deviation(affine_network(np.eye(2), np.zeros(2)),
                                 lambda X: X + shift, 1.0) == 0.25


def test_heat_encoding_delta_target_controls_pieces():
    entry = catalog_entry("heat", d=2)
    crude = entry.problem.encodings(0.05)
    fine = entry.problem.encodings(0.001)
    assert crude.delta <= 0.05
    assert fine.delta <= 0.001
    assert architecture(fine.g)[1] > architecture(crude.g)[1]
    with pytest.raises(EncodingError):
        entry.problem.encodings(0.0)  # exact encoding unreachable


def test_fine_heat_encoding_measures_its_deviation_in_bounded_memory():
    # 4,243 pieces per coordinate: the 4,096 probes through the whole
    # width-8,486 hidden layer would take 278 MB at once
    problem = catalog_entry("heat", d=2).problem
    tracemalloc.start()
    try:
        fine = network_encodings(problem, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert architecture(fine.g)[1] == 2 * 4243
    assert 0 < fine.delta <= 1e-6
    assert peak < 64 * 2**20


def test_feynman_kac_fixed_point_closed_forms(rng):
    # u(t,x) = MC[g(X_T)] + integral of MC[f(u(s, X_s))] ds within the
    # combined statistical and quadrature tolerance
    for name, d in (("ode-exp", 1), ("heat", 3)):
        entry = catalog_entry(name, d=d)
        problem, ref = entry.problem, entry.reference
        grid = uniform_grid(problem.horizon, 1)
        for probe in range(5):
            t = float(rng.uniform(0, problem.horizon))
            x = rng.uniform(-1, 1, problem.d)
            n_paths = 4000
            from picardnet.analysis import simulate_terminal_batch

            term = simulate_terminal_batch(problem, grid, t, x, problem.horizon,
                                           n_paths, seed=900 + probe)
            gbar = float(np.mean(problem.g(term)))
            nodes, weights = np.polynomial.legendre.leggauss(8)
            integral = 0.0
            half = (problem.horizon - t) / 2.0
            for node, weight in zip(nodes, weights):
                s = t + half * (node + 1.0)
                if s <= t + 1e-12:
                    mid = np.tile(x, (n_paths // 4, 1))
                else:
                    mid = simulate_terminal_batch(problem, grid, t, x, s,
                                                  n_paths // 4, seed=1700 + probe)
                fbar = float(np.mean(problem.f(ref(s, mid))))
                integral += weight * half * fbar
            fk = gbar + integral
            want = ref(t, x[None])[0]
            assert fk == pytest.approx(want, rel=0.02, abs=0.02 * (1 + abs(want)))


def test_oracle_reference_close_to_estimator_limit(relu_entry):
    # the derived-oracle reference agrees with an independent moderate run
    problem = relu_entry.problem
    ref = relu_entry.reference(0.0, np.zeros((1, problem.d)))[0]
    cfg = MlpConfig(3, 3, uniform_grid(problem.horizon, 27), FrozenSample(31_000))
    vals = [
        mlp_estimate(problem, MlpConfig(3, 3, cfg.grid, FrozenSample(31_000 + i)),
                     ROOT_PATH, 0.0, np.zeros(problem.d))
        for i in range(8)
    ]
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - ref) <= 5 * se + 0.05
