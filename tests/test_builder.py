import itertools

import numpy as np
import pytest

from picardnet import (
    FrozenSample,
    MlpConfig,
    ROOT_PATH,
    TimeGrid,
    architecture,
    bracket_template,
    brownian_path,
    build_euler_network,
    build_mlp_network,
    build_mlp_root,
    compose_chain,
    effective_breakpoints,
    euler_architecture,
    euler_evaluate,
    extend_depth,
    identity_network,
    max_width,
    mlp_depth_identity,
    mlp_estimate,
    param_count,
    predict_architecture,
    realize,
    realize_sum,
    sigma_family_constant,
    sum_networks,
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
from conftest import random_network

SAMPLE = FrozenSample(777)


# ---------------------------------------------------------------------------
# Euler networks
# ---------------------------------------------------------------------------

def test_euler_zero_coefficients_identity(rng):
    from picardnet import affine_network

    d = 2
    mu_net = affine_network(np.zeros((d, d)), np.zeros(d))
    template = bracket_template(mu_net, sigma_family_constant(d, np.zeros((d, d))))
    net = build_euler_network(template, uniform_grid(1.0, 3), SAMPLE, (1,), 0.2, 0.9)
    x = rng.uniform(-3, 3, d)
    np.testing.assert_allclose(realize(net, x), x, atol=1e-14)


def test_euler_single_deterministic_step():
    from picardnet import affine_network

    mu_net = affine_network(np.eye(1), np.zeros(1))  # drift x
    template = bracket_template(mu_net, sigma_family_constant(1, np.zeros((1, 1))))
    net = build_euler_network(template, uniform_grid(1.0, 1), SAMPLE, (1,), 0.0, 1.0)
    for x in (-2.0, 0.5, 3.0):
        assert realize(net, [x])[0] == pytest.approx(2.0 * x)  # x + T*x


def test_euler_network_matches_simulator(rng, bs_entry):
    problem = bs_entry.problem
    nets = network_encodings(problem)
    template = bracket_template(nets.mu, nets.sigma)
    grid = uniform_grid(1.0, 2)
    for trial in range(20):
        theta = tuple(int(v) for v in rng.integers(-5, 5, size=3))
        t = float(rng.uniform(0, 1))
        s = float(rng.uniform(t, 1))
        net = build_euler_network(template, grid, SAMPLE, theta, t, s)
        for _ in range(5):
            x = rng.uniform(0.5, 1.5, problem.d)
            want = euler_evaluate(problem, grid, SAMPLE, theta, t, x, s)
            got = realize(net, x)
            assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))


def test_euler_architecture_invariance_and_depth(rng, bs_entry):
    nets = network_encodings(bs_entry.problem)
    template = bracket_template(nets.mu, nets.sigma)
    grid = uniform_grid(1.0, 3)
    archs = set()
    for theta, t, s in [((0,), 0.0, 1.0), ((5, 5), 0.3, 0.4), ((-2,), 0.9, 1.0)]:
        net = build_euler_network(template, grid, SAMPLE, theta, t, s)
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
    assert max(estimated.values()) == 1


@pytest.mark.parametrize("name", ["relu-exact", "ode-exp"])
@pytest.mark.parametrize("n, M", [(n, M) for n in (1, 2, 3) for M in (1, 2, 3)])
def test_one_node_description_moves_every_reader(monkeypatch, name, n, M):
    """Dropping group 0 from ``picard_node`` alone moves the estimate's work,
    the builder's draws, the predicted architecture and ``predict_work``
    together, so no walker restates the tree's shape."""
    import sys
    from collections import Counter

    from picardnet import indexrng, mlp

    real_node = mlp.picard_node
    unpatched_work = mlp.predict_work(n, M)

    def without_group_zero(level, M):
        terminal, groups = real_node(level, M)
        return terminal, [group for group in groups if group[0] != 0]

    for module in list(sys.modules.values()):
        if getattr(module, "picard_node", None) is real_node:
            monkeypatch.setattr(module, "picard_node", without_group_zero)
    assert mlp.predict_work(n, M)[0] < unpatched_work[0]

    real_generator, real_evaluate = indexrng.generator, mlp.euler_evaluate
    drawn: list = []
    paths = [0]

    def recorded(sample, path, purpose):
        drawn.append((purpose, tuple(path)))
        return real_generator(sample, path, purpose)

    def counted(*args, **kwargs):
        paths[0] += 1
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(indexrng, "generator", recorded)
    monkeypatch.setattr(mlp, "euler_evaluate", counted)
    entry = catalog_entry(name, d=2)
    cfg = MlpConfig(n, M, uniform_grid(1.0, 2), SAMPLE)
    path, t, x = (3, 1), 0.25, np.array([0.2, -0.1])
    u = mlp_estimate(entry.problem, cfg, path, t, x)
    estimated = Counter(drawn)
    assert mlp.predict_work(n, M) == (paths[0], len(drawn))
    drawn.clear()
    built = build_mlp_network(network_encodings(entry.problem), cfg, path, t)
    assert Counter(drawn) == estimated
    r = float(realize(built.network, x)[0])
    assert abs(r - u) <= 1e-8 * (1.0 + abs(u))


# ---------------------------------------------------------------------------
# the streamed root and the bracket template, against the stored calculus
# ---------------------------------------------------------------------------

def _hex_rows(values):
    return [[float(v).hex() for v in row] for row in values]


def _assert_realize_sum_is_pointwise(root, xs):
    stored = sum_networks(root.coefficients, root.summands)
    values, widths = realize_sum(root.coefficients, root.summands, xs)
    assert widths == stored.widths == root.prediction.architecture
    assert _hex_rows(values) == _hex_rows([realize(stored, x) for x in xs])
    return values


def test_realize_sum_has_the_bits_of_the_stored_root():
    # relu-exact n=M=3: 32 probes in one pass, each with the bits of its own
    # point-wise realize of the stored 278 MB sum, and of a pass on its own
    problem = catalog_entry("relu-exact", d=2).problem
    config = MlpConfig(3, 3, uniform_grid(problem.horizon, 8), FrozenSample(0))
    root = build_mlp_root(network_encodings(problem), config, ROOT_PATH, 0.0)
    xs = np.random.default_rng(32).uniform(-1.0, 1.0, (32, 2))
    values = _assert_realize_sum_is_pointwise(root, xs)
    for i in (0, 17):
        alone, _ = realize_sum(root.coefficients, root.summands, xs[i:i + 1])
        assert _hex_rows(alone) == _hex_rows(values[i:i + 1])


@pytest.mark.parametrize("name", ["ode-exp", "heat", "relu-exact", "bs-like"])
@pytest.mark.parametrize("n, M", [(0, 1), (1, 1), (1, 2), (2, 2)])
def test_realize_sum_has_the_bits_of_every_small_root(name, n, M):
    problem = catalog_entry(name).problem
    config = MlpConfig(n, M, uniform_grid(problem.horizon, 2), FrozenSample(40 + n))
    root = build_mlp_root(network_encodings(problem), config, (2,), 0.3)
    xs = np.random.default_rng(n).uniform(0.5, 1.5, (5, problem.d))
    _assert_realize_sum_is_pointwise(root, xs)


def _euler_fold(mu_net, sigma_family, grid, sample, path, t, s):
    """The calculus fold an Euler network must equal: one ``sum_networks``
    bracket (1, dt, 1) of identity, drift and diffusion per grid interval,
    dead intervals with dt = 0 and dW = 0, chained by one ``compose_chain``."""
    d = sigma_family.input_dim
    depth = max(mu_net.depth, len(sigma_family.reference_architecture))
    identity, mu_ext = identity_network(d, depth), extend_depth(mu_net, depth)
    breakpoints = effective_breakpoints(grid, t, s)
    noise = brownian_path(sample, path, d, breakpoints)
    w_at = {breakpoints[0]: np.zeros(d)}
    acc = np.zeros(d)
    for i in range(len(breakpoints) - 1):
        acc = acc + noise[i]
        w_at[breakpoints[i + 1]] = acc
    brackets = []
    for k in range(1, len(grid.points)):
        lo = max(grid.points[k - 1], t)
        hi = min(max(s, lo), max(grid.points[k], t))
        dt = hi - lo
        dw = w_at[hi] - w_at[lo] if dt > 0.0 else np.zeros(d)
        brackets.append(sum_networks([1.0, dt, 1.0], [identity, mu_ext,
                                                      extend_depth(sigma_family(dw), depth)]))
    return compose_chain(brackets)


@pytest.mark.parametrize("name", ["ode-exp", "heat", "relu-exact", "bs-like"])
# a drift of depth 4 or 5 pads the depth-3 diffusion with extend_depth: a pad
# layer at gap 1, a composition with an identity network at gap 2; the catalog
# drifts end in a zero bias, a random one does not
@pytest.mark.parametrize("drift", ["catalog", 4, 5, "random"])
@pytest.mark.parametrize("grid, t, s", [
    (uniform_grid(1.0, 8), 0.3, 0.6),     # dead steps on both sides of [t, s]
    (uniform_grid(1.0, 8), 0.0, 1.0),     # every step live
    (uniform_grid(1.0, 8), 0.4, 0.4),     # t == s: every step dead
    (uniform_grid(1.0, 1), 0.2, 0.7),     # one bracket, no seam
    (TimeGrid((0.0, 0.25, 0.5, 0.5, 1.0)), 0.1, 0.9),  # a repeated grid point
    (TimeGrid((0.0, 0.25, 0.5, 0.5, 1.0)), 0.5, 0.5),
])
def test_euler_network_equals_the_calculus_fold(name, drift, grid, t, s):
    problem = catalog_entry(name).problem
    enc = network_encodings(problem)
    if drift == "catalog":
        mu = enc.mu
    elif drift == "random":
        mu = random_network(np.random.default_rng(5), problem.d, problem.d, 3)
    else:
        mu = extend_depth(enc.mu, drift)
    path = (3, -1)
    net = build_euler_network(bracket_template(mu, enc.sigma), grid, SAMPLE, path, t, s)
    want = _euler_fold(mu, enc.sigma, grid, SAMPLE, path, t, s)
    assert net.widths == want.widths
    assert len(net.layers) == len(want.layers)
    for (w, b), (w_want, b_want) in zip(net.layers, want.layers):
        assert np.array_equal(w, w_want) and np.array_equal(b, b_want)
        assert w.tobytes() == w_want.tobytes() and b.tobytes() == b_want.tobytes()
        assert not w.flags.writeable and not b.flags.writeable
