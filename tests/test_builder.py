import itertools

import numpy as np
import pytest

from picardnet import (
    FrozenSample,
    MlpConfig,
    ROOT_PATH,
    architecture,
    build_euler_network,
    build_mlp_network,
    euler_architecture,
    euler_evaluate,
    max_width,
    mlp_depth_identity,
    mlp_estimate,
    param_count,
    predict_architecture,
    realize,
    sigma_family_constant,
    uniform_grid,
)
from picardnet.builder import BuildSizeError, PARAM_GUARD
from picardnet.nets import (
    compose_architecture,
    extend_architecture,
    identity_architecture,
    sum_architecture,
)
from picardnet.problems import catalog_entry, network_encodings

SAMPLE = FrozenSample(777)


# ---------------------------------------------------------------------------
# Euler networks
# ---------------------------------------------------------------------------

def test_euler_zero_coefficients_identity(rng):
    from picardnet import affine_network

    d = 2
    mu_net = affine_network(np.zeros((d, d)), np.zeros(d))
    net = build_euler_network(mu_net, sigma_family_constant(d, np.zeros((d, d))),
                              uniform_grid(1.0, 3), SAMPLE, (1,), 0.2, 0.9)
    x = rng.uniform(-3, 3, d)
    np.testing.assert_allclose(realize(net, x), x, atol=1e-14)


def test_euler_single_deterministic_step():
    from picardnet import affine_network

    mu_net = affine_network(np.eye(1), np.zeros(1))  # drift x
    net = build_euler_network(mu_net, sigma_family_constant(1, np.zeros((1, 1))),
                              uniform_grid(1.0, 1), SAMPLE, (1,), 0.0, 1.0)
    for x in (-2.0, 0.5, 3.0):
        assert realize(net, [x])[0] == pytest.approx(2.0 * x)  # x + T*x


def test_euler_network_matches_simulator(rng, bs_entry):
    problem = bs_entry.problem
    nets = network_encodings(problem)
    grid = uniform_grid(1.0, 2)
    for trial in range(20):
        theta = tuple(int(v) for v in rng.integers(-5, 5, size=3))
        t = float(rng.uniform(0, 1))
        s = float(rng.uniform(t, 1))
        net = build_euler_network(nets.mu, nets.sigma, grid, SAMPLE, theta, t, s)
        for _ in range(5):
            x = rng.uniform(0.5, 1.5, problem.d)
            want = euler_evaluate(problem, grid, SAMPLE, theta, t, x, s)
            got = realize(net, x)
            assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))


def test_euler_architecture_invariance_and_depth(rng, bs_entry):
    nets = network_encodings(bs_entry.problem)
    grid = uniform_grid(1.0, 3)
    archs = set()
    for theta, t, s in [((0,), 0.0, 1.0), ((5, 5), 0.3, 0.4), ((-2,), 0.9, 1.0)]:
        net = build_euler_network(nets.mu, nets.sigma, grid, SAMPLE, theta, t, s)
        archs.add(architecture(net))
    assert len(archs) == 1
    arch = archs.pop()
    d_mu = len(architecture(nets.mu))
    d_sig = len(nets.sigma.reference_architecture)
    assert len(arch) == grid.steps * (max(d_mu, d_sig) - 1) + 1
    assert arch == euler_architecture(architecture(nets.mu),
                                      nets.sigma.reference_architecture,
                                      bs_entry.problem.d, grid.steps)


# ---------------------------------------------------------------------------
# multilevel networks
# ---------------------------------------------------------------------------

def test_mlp_level_zero_is_zero_network(relu_entry):
    nets = network_encodings(relu_entry.problem)
    cfg = MlpConfig(0, 2, uniform_grid(1.0, 2), SAMPLE)
    built = build_mlp_network(nets, cfg, ROOT_PATH, 0.5)
    d = relu_entry.problem.d
    for x in np.random.default_rng(0).uniform(-1, 1, (5, d)):
        assert realize(built.network, x)[0] == 0.0
    assert built.prediction.depth == mlp_depth_identity(
        0, 2, 3, len(nets.sigma.reference_architecture), 3, len(architecture(nets.g))
    )


def test_oracle_equivalence_over_level_grid(rng, relu_entry, ode_entry):
    for entry in (relu_entry, ode_entry):
        problem = entry.problem
        nets = network_encodings(problem)
        grid = uniform_grid(problem.horizon, 2)
        for n in (0, 1, 2):
            for M in (1, 2):
                cfg = MlpConfig(n, M, grid, SAMPLE)
                for _ in range(4):
                    theta = (int(rng.integers(-3, 3)),)
                    t = float(rng.uniform(0, problem.horizon))
                    built = build_mlp_network(nets, cfg, theta, t)
                    x = rng.uniform(-1, 1, problem.d)
                    u = mlp_estimate(problem, cfg, theta, t, x)
                    r = float(realize(built.network, x)[0])
                    assert abs(r - u) <= 1e-8 * (1.0 + abs(u))


def test_architecture_invariant_in_time_and_index(relu_entry):
    nets = network_encodings(relu_entry.problem)
    cfg = MlpConfig(2, 2, uniform_grid(1.0, 2), SAMPLE)
    archs = {
        architecture(build_mlp_network(nets, cfg, theta, t).network)
        for theta, t in [((0,), 0.0), ((3, -1), 0.7), ((9,), 0.25)]
    }
    assert len(archs) == 1


def test_depth_width_params_over_build_grid(relu_entry, ode_entry, bs_entry):
    # exact integer identities on every built network; bs-like's f has width 3,
    # not the identity tower's 2, so a build padding above f instead of below it
    # diverges from the prediction
    for entry in (relu_entry, ode_entry, bs_entry):
        problem = entry.problem
        nets = network_encodings(problem)
        mu_a = architecture(nets.mu)
        sig_a = nets.sigma.reference_architecture
        f_a, g_a = architecture(nets.f), architecture(nets.g)
        for steps in (1, 2):
            grid = uniform_grid(problem.horizon, steps)
            for n in (0, 1, 2):
                for M in (1, 2):
                    cfg = MlpConfig(n, M, grid, SAMPLE)
                    built = build_mlp_network(nets, cfg, ROOT_PATH, 0.25)
                    layers = built.network.layers
                    arch = (layers[0][0].shape[1], *(w.shape[0] for w, _ in layers))
                    pred = built.prediction
                    assert arch == pred.architecture
                    assert len(arch) == mlp_depth_identity(
                        n, steps, len(mu_a), len(sig_a), len(f_a), len(g_a)
                    )
                    assert max_width(arch) <= pred.width_bound
                    assert param_count(built.network) == sum(
                        arch[i] * (arch[i - 1] + 1) for i in range(1, len(arch))
                    )
                    assert param_count(built.network) <= pred.param_bound


def test_predict_architecture_symbolic_full_grid():
    # architecture identities across a wider grid, no weights allocated
    for d in (1, 2, 3):
        mu_a = (d, 2 * d, d)
        sig_a = (d, 2 * d, d)
        f_a = (1, 2, 1)
        g_a = (d, d + 1, 1)
        for steps in (1, 2, 4):
            for n in (0, 1, 2):
                for M in (1, 2):
                    pred = predict_architecture(mu_a, sig_a, f_a, g_a, n, M, steps, d)
                    assert pred.depth == mlp_depth_identity(n, steps, 3, 3, 3, 3)
                    assert pred.width <= pred.width_bound
                    assert pred.param_count <= pred.param_bound
                    assert pred.architecture[0] == d and pred.architecture[-1] == 1


def test_width_bound_formula():
    pred = predict_architecture((1, 2, 1), (1, 2, 1), (1, 2, 1), (1, 2, 1), 2, 2, 1, 1)
    # constant covers the stacked step bracket: 2d + w_mu + w_sigma = 6
    assert pred.width_constant == 6
    assert pred.width_bound == 6 * 6**2


def test_width_bound_example_constant_four():
    # with width-1 coefficient stacks the constant drops to 2d + 1 + 1 = 4
    pred = predict_architecture((1, 1, 1), (1, 1, 1), (1, 2, 1), (1, 2, 1), 2, 2, 1, 1)
    assert pred.width_constant == 4
    assert pred.width_bound == 4 * (3 * 2) ** 2  # c (3M)^n = 144


def test_zero_level_width_bound_is_constant():
    pred = predict_architecture((1, 2, 1), (1, 2, 1), (1, 2, 1), (1, 2, 1), 0, 2, 1, 1)
    assert pred.width_bound == pred.width_constant


def test_memory_guard_rejects_oversize():
    with pytest.raises(BuildSizeError) as err:
        nets = network_encodings(catalog_entry("relu-exact").problem)
        cfg = MlpConfig(5, 5, uniform_grid(1.0, 3125), SAMPLE)
        build_mlp_network(nets, cfg, ROOT_PATH, 0.0)
    assert err.value.report["predicted_params"] > PARAM_GUARD


def test_provenance_payload(relu_entry):
    nets = network_encodings(relu_entry.problem)
    cfg = MlpConfig(1, 1, uniform_grid(1.0, 2), SAMPLE)
    built = build_mlp_network(nets, cfg, (4, -2), 0.5)
    prov = built.provenance
    assert prov["theta"] == [4, -2]
    assert prov["n"] == 1 and prov["M"] == 1
    assert prov["seed"] == SAMPLE.master_seed
    assert prov["grid"] == [0.0, 0.5, 1.0]


def test_compose_architecture_chain_matches_euler():
    shapes = [((1, 2, 1), (1, 3, 1)), ((1, 1), (1, 1)),
              ((1, 4, 2, 1), (1, 3, 1)), ((1, 2, 1), (1, 5, 3, 2, 1))]
    for (mu_arch, sigma_arch), d in itertools.product(shapes, (1, 2, 3)):
        mu = (d,) + mu_arch[1:-1] + (d,)
        sigma = (d,) + sigma_arch[1:-1] + (d,)
        depth = max(len(mu), len(sigma))
        bracket = sum_architecture([identity_architecture(d, depth),
                                    extend_architecture(mu, depth),
                                    extend_architecture(sigma, depth)])
        manual = bracket
        for steps in range(1, 28):
            assert euler_architecture(mu, sigma, d, steps) == manual
            manual = compose_architecture(bracket, manual)


@pytest.mark.parametrize("name", ["relu-exact", "bs-like"])
@pytest.mark.parametrize("n, M", [(n, M) for n in (1, 2, 3) for M in (1, 2, 3)])
def test_builder_and_estimator_draw_the_same_substreams(monkeypatch, name, n, M):
    from collections import Counter

    from picardnet import indexrng

    real_generator = indexrng.generator
    drawn: list = []

    def recorded(sample, path, purpose):
        drawn.append((purpose, tuple(path)))
        return real_generator(sample, path, purpose)

    monkeypatch.setattr(indexrng, "generator", recorded)
    entry = catalog_entry(name, d=2)
    cfg = MlpConfig(n, M, uniform_grid(1.0, 2), SAMPLE)
    path, t = (3, 1), 0.25
    mlp_estimate(entry.problem, cfg, path, t, [0.2, -0.1])
    estimated = Counter(drawn)
    drawn.clear()
    build_mlp_network(network_encodings(entry.problem), cfg, path, t)
    assert Counter(drawn) == estimated
    assert sum(estimated.values()) > 0
