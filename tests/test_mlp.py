import math

import numpy as np
import pytest

from picardnet import (
    FrozenSample,
    MlpConfig,
    ROOT_PATH,
    mlp_estimate,
    mlp_rmse,
    uniform_grid,
)
from picardnet.mlp import MlpError, SemilinearProblem
from picardnet.problems import ode_exp_problem


def constant_terminal_problem(gamma):
    return SemilinearProblem(
        name="const", d=1, horizon=1.0,
        mu=lambda x: np.zeros(1), sigma=lambda x: np.zeros((1, 1)),
        f=lambda v: np.zeros(len(v)), g=lambda X: np.full(len(X), gamma),
    )


def test_level_zero_is_zero():
    prob = constant_terminal_problem(4.2)
    cfg = MlpConfig(0, 3, uniform_grid(1.0, 2), FrozenSample(5))
    for t in (0.0, 0.5, 1.0):
        assert mlp_estimate(prob, cfg, ROOT_PATH, t, [1.0]) == 0.0


def test_single_deterministic_terminal_sample():
    prob = constant_terminal_problem(2.5)
    cfg = MlpConfig(1, 1, uniform_grid(1.0, 1), FrozenSample(5))
    assert mlp_estimate(prob, cfg, ROOT_PATH, 0.0, [0.0]) == pytest.approx(2.5)


def test_ode_low_levels_are_exact_partial_sums():
    prob = ode_exp_problem().problem
    grid = uniform_grid(1.0, 1)
    for n, M, want in [(1, 1, 1.0), (1, 3, 1.0), (2, 2, 2.0), (2, 3, 2.0)]:
        cfg = MlpConfig(n, M, grid, FrozenSample(11))
        assert mlp_estimate(prob, cfg, ROOT_PATH, 0.0, [0.0]) == pytest.approx(want)


def test_ode_converges_to_exponential():
    prob = ode_exp_problem().problem
    grid = uniform_grid(1.0, 1)
    errs = []
    for level in (1, 2, 3, 4):
        cfg = MlpConfig(level, level, grid, FrozenSample(17))
        errs.append(abs(mlp_estimate(prob, cfg, ROOT_PATH, 0.0, [0.0]) - math.e))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 0.2


def test_frozen_reproducibility_bitwise():
    prob = ode_exp_problem().problem
    cfg = MlpConfig(3, 2, uniform_grid(1.0, 2), FrozenSample(42))
    a = mlp_estimate(prob, cfg, ROOT_PATH, 0.1, [0.3])
    b = mlp_estimate(prob, cfg, ROOT_PATH, 0.1, [0.3])
    assert a == b


def test_telescoping_for_zero_nonlinearity_bitwise():
    # with f identically zero the level-n estimate is exactly the plain
    # Monte Carlo average of g over the M^n terminal paths
    prob = SemilinearProblem(
        name="mc", d=2, horizon=1.0,
        mu=lambda x: np.zeros(2), sigma=lambda x: np.eye(2),
        f=lambda v: np.zeros(len(v)), g=lambda X: X[:, 0] + X[:, 1] ** 2,
    )
    grid = uniform_grid(1.0, 2)
    cfg = MlpConfig(2, 3, grid, FrozenSample(7))
    x0 = np.array([0.2, -0.4])
    est = mlp_estimate(prob, cfg, ROOT_PATH, 0.0, x0)
    from picardnet import euler_evaluate
    from picardnet.indexrng import child

    total = 0.0
    for i in range(1, 3**2 + 1):
        y = euler_evaluate(prob, grid, cfg.sample, child(ROOT_PATH, 0, -i), 0.0, x0[None], 1.0)
        total += prob.g(y)[0]
    assert est == total / 9


def test_sibling_estimates_uncorrelated():
    prob = SemilinearProblem(
        name="noise", d=1, horizon=1.0,
        mu=lambda x: np.zeros(1), sigma=lambda x: np.eye(1),
        f=lambda v: np.zeros(len(v)), g=lambda X: X[:, 0],
    )
    grid = uniform_grid(1.0, 1)
    cfg = MlpConfig(1, 1, grid, FrozenSample(100))
    n = 10_000
    a = np.empty(n)
    b = np.empty(n)
    for i in range(n):
        a[i] = mlp_estimate(prob, cfg, (0, 5, i, 1), 0.0, [0.0])
        b[i] = mlp_estimate(prob, cfg, (0, 5, i, 2), 0.0, [0.0])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n)


def test_rmse_trivials():
    prob = constant_terminal_problem(3.0)
    grid = uniform_grid(1.0, 1)
    cfg = MlpConfig(1, 1, grid, FrozenSample(8))
    # deterministic estimator equal to the reference -> zero error
    assert mlp_rmse(prob, cfg, 0.0, [0.0], 3.0, seeds=5) == 0.0
    cfg0 = MlpConfig(0, 1, grid, FrozenSample(8))
    assert mlp_rmse(prob, cfg0, 0.0, [0.0], -1.7, seeds=3) == pytest.approx(1.7)
    with pytest.raises(MlpError):
        mlp_rmse(prob, cfg, 0.0, [0.0], math.inf, seeds=2)


def test_error_bound_conformance_full_level_grid():
    # ensemble RMSE stays below the full-error bound on the whole grid
    from picardnet import fullerror_check
    from picardnet.problems import ode_exp_problem

    entry = ode_exp_problem()
    pairs = [(n, M) for n in (1, 2, 3) for M in (1, 2, 3)]
    report = fullerror_check(entry.problem, entry.reference, entry.constants,
                             pairs, 0.0, np.zeros(1), seeds=10,
                             grid_fn=lambda M: uniform_grid(1.0, 1))
    assert report.passed


def test_invalid_config_rejected():
    with pytest.raises(MlpError):
        MlpConfig(-1, 1, uniform_grid(1.0, 1), FrozenSample(0))
    with pytest.raises(MlpError):
        MlpConfig(0, 0, uniform_grid(1.0, 1), FrozenSample(0))
    prob = constant_terminal_problem(1.0)
    cfg = MlpConfig(1, 1, uniform_grid(1.0, 1), FrozenSample(0))
    with pytest.raises(MlpError):
        mlp_estimate(prob, cfg, ROOT_PATH, 2.0, [0.0])
    for bad in ([0.0, 1.0], [[0.0, 1.0]], 0.5):
        with pytest.raises(MlpError):
            mlp_estimate(prob, cfg, ROOT_PATH, 0.0, bad)


@pytest.mark.parametrize("n, M", [(n, M) for n in range(4) for M in (1, 2, 3)] + [(4, 4)])
def test_predict_work_counts_paths_and_substreams(monkeypatch, n, M):
    from picardnet import indexrng, mlp
    from picardnet.mlp import predict_work

    calls = {"paths": 0, "substreams": 0}
    real_evaluate, real_generator = mlp.euler_evaluate, indexrng.generator

    def counted_evaluate(*args, **kwargs):
        calls["paths"] += 1
        return real_evaluate(*args, **kwargs)

    def counted_generator(*args, **kwargs):
        calls["substreams"] += 1
        return real_generator(*args, **kwargs)

    monkeypatch.setattr(mlp, "euler_evaluate", counted_evaluate)
    monkeypatch.setattr(indexrng, "generator", counted_generator)
    prob = SemilinearProblem(
        name="noise", d=2, horizon=1.0,
        mu=lambda x: np.zeros(2), sigma=lambda x: np.eye(2),
        f=lambda v: 0.5 * v, g=lambda X: X[:, 0],
    )
    cfg = MlpConfig(n, M, uniform_grid(1.0, 2), FrozenSample(3))
    mlp_estimate(prob, cfg, ROOT_PATH, 0.2, [0.1, -0.3])
    assert predict_work(n, M) == (calls["paths"], calls["substreams"])
    if n == 0:
        assert predict_work(n, M) == (0, 0)


@pytest.mark.parametrize("name", ["ode-exp", "heat", "relu-exact", "bs-like"])
def test_batch_rows_have_the_bits_of_point_estimates(name):
    from picardnet.problems import catalog_entry

    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        problem = catalog_entry(name, d=d).problem
        grid = uniform_grid(problem.horizon, 4)
        # repeated rows walk the tree exactly like their first copy
        X = rng.uniform(0.5, 1.5, (3, d))[[0, 1, 0, 2, 2]]
        for n, M in [(0, 2), (1, 3), (2, 2), (3, 1), (2, 3), (3, 2)]:
            cfg = MlpConfig(n, M, grid, FrozenSample(1000 * n + M))
            for t in (0.0, 0.3):
                batch = mlp_estimate(problem, cfg, ROOT_PATH, t, X)
                assert batch.shape == (len(X),)
                points = [mlp_estimate(problem, cfg, ROOT_PATH, t, x) for x in X]
                assert [v.hex() for v in batch.tolist()] == [p.hex() for p in points]
                empty = mlp_estimate(problem, cfg, ROOT_PATH, t, np.zeros((0, d)))
                assert empty.shape == (0,)


def test_batch_with_one_diverging_row_names_the_node():
    from picardnet.indexrng import child
    from picardnet.sde import NumericFailure

    # frozen dynamics and a terminal value that is infinite above 100
    prob = SemilinearProblem(
        name="blowup", d=1, horizon=1.0,
        mu=lambda x: np.zeros(1), sigma=lambda x: np.zeros((1, 1)),
        f=lambda v: 0.5 * v, g=lambda X: np.where(X[:, 0] > 100.0, np.inf, X[:, 0]),
    )
    cfg = MlpConfig(2, 2, uniform_grid(1.0, 2), FrozenSample(9))
    assert math.isfinite(mlp_estimate(prob, cfg, ROOT_PATH, 0.0, [1.0]))
    failures = []
    for x in ([[1.0], [500.0], [2.0]], [500.0]):
        with pytest.raises(NumericFailure) as err:
            mlp_estimate(prob, cfg, ROOT_PATH, 0.0, x)
        failures.append(err.value.path)
    # the first node to finish is the root's first level-1 branch
    assert failures == [child(ROOT_PATH, 1, 1)] * 2
