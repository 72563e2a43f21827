import math

import numpy as np
import pytest

from picardnet import (
    FrozenSample,
    TimeGrid,
    effective_breakpoints,
    euler_evaluate,
    uniform_grid,
)
from picardnet.sde import NumericFailure, SimulationError, euler_run
from picardnet.mlp import SemilinearProblem
from picardnet.problems import catalog_entry

SAMPLE = FrozenSample(2024)


def make_problem(d, mu, sigma):
    return SemilinearProblem(
        name="test", d=d, horizon=1.0, mu=mu, sigma=sigma,
        f=lambda v: 0.0, g=lambda x: 0.0,
    )


FROZEN = make_problem(1, lambda x: np.zeros(1), lambda x: np.zeros((1, 1)))
DRIFT = make_problem(1, lambda x: np.ones(1), lambda x: np.zeros((1, 1)))
NOISE = make_problem(1, lambda x: np.zeros(1), lambda x: np.ones((1, 1)))


def test_grid_validation():
    with pytest.raises(SimulationError):
        TimeGrid((0.5, 1.0))
    with pytest.raises(SimulationError):
        TimeGrid((0.0, 0.7, 0.3))
    grid = TimeGrid((0.0, 0.5, 0.5, 1.0))
    assert grid.steps == 3 and grid.horizon == 1.0


def test_effective_breakpoints():
    grid = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))
    assert effective_breakpoints(grid, 0.2, 0.8) == (0.2, 0.25, 0.5, 0.75, 0.8)
    assert effective_breakpoints(grid, 0.25, 0.25) == (0.25,)
    assert effective_breakpoints(grid, 0.0, 1.0) == grid.points
    with pytest.raises(SimulationError):
        effective_breakpoints(grid, 0.5, 0.2)


def test_effective_breakpoints_match_the_set_form():
    # the bisected walk against the definition, {t, s} plus the grid points
    # in (t, s], sorted and deduplicated: grids with repeated points, t == s,
    # and t or s on a grid point
    rng = np.random.default_rng(41)
    for _ in range(100):
        inner = rng.choice(np.round(rng.uniform(0.0, 1.0, 4), 2), size=int(rng.integers(0, 9)))
        grid = TimeGrid((0.0, *sorted(inner.tolist()), 1.0))
        times = sorted({*grid.points, *rng.uniform(0.0, 1.0, 3).tolist()})
        for i, t in enumerate(times):
            for s in times[i:]:
                want = tuple(sorted({t, s} | {p for p in grid.points if t < p <= s}))
                assert effective_breakpoints(grid, t, s) == want


def test_frozen_dynamics_returns_start():
    grid = uniform_grid(1.0, 4)
    X = np.array([[2.5], [-1.0]])
    for s in [0.0, 0.3, 1.0]:
        out = euler_evaluate(FROZEN, grid, SAMPLE, (0,), 0.0, X, s)
        assert np.array_equal(out, X)


def test_deterministic_drift():
    grid = TimeGrid((0.0, 1.0))
    out = euler_evaluate(DRIFT, grid, SAMPLE, (0,), 0.0, np.array([0.25]), 1.0)
    assert out[0] == pytest.approx(1.25)


def test_pure_noise_variance():
    grid = TimeGrid((0.0, 1.0))
    n = 100_000
    vals = np.array(
        [euler_evaluate(NOISE, grid, SAMPLE, (0, i), 0.0, np.zeros(1), 1.0)[0] for i in range(n)]
    )
    assert abs(vals.var(ddof=1) - 1.0) < 0.02
    assert abs(vals.mean()) < 3.0 / math.sqrt(n)


def test_refinement_keeps_variance_for_constant_coefficients():
    n = 20_000
    for steps in (1, 4):
        grid = uniform_grid(1.0, steps)
        vals = np.array(
            [euler_evaluate(NOISE, grid, SAMPLE, (steps, i), 0.0, np.zeros(1), 1.0)[0]
             for i in range(n)]
        )
        assert abs(vals.var(ddof=1) - 1.0) < 3 * math.sqrt(2.0 / n) + 0.01


def test_determinism_bitwise():
    grid = uniform_grid(1.0, 3)
    a = euler_evaluate(NOISE, grid, SAMPLE, (1, 2, 3), 0.1, np.array([0.5]), 0.9)
    b = euler_evaluate(NOISE, grid, SAMPLE, (1, 2, 3), 0.1, np.array([0.5]), 0.9)
    assert np.array_equal(a, b)


def test_flow_property_at_grid_points():
    # restarting from a grid-point state reproduces the path (same draws
    # consumed in the same order only when the restart consumes a fresh
    # suffix; here both coefficients are state-independent so the
    # composition law holds exactly)
    grid = uniform_grid(1.0, 4)
    mid = euler_evaluate(DRIFT, grid, SAMPLE, (9,), 0.0, np.zeros(1), 0.5)
    end_direct = euler_evaluate(DRIFT, grid, SAMPLE, (9,), 0.0, np.zeros(1), 1.0)
    end_restart = euler_evaluate(DRIFT, grid, SAMPLE, (9, 1), 0.5, mid, 1.0)
    assert end_direct[0] == pytest.approx(end_restart[0])


def test_query_before_start_rejected():
    grid = uniform_grid(1.0, 2)
    with pytest.raises(SimulationError):
        euler_evaluate(FROZEN, grid, SAMPLE, (0,), 0.5, np.zeros(1), 0.25)


def test_nonfinite_coefficient_reports_path():
    bad = make_problem(1, lambda x: np.array([np.inf]), lambda x: np.zeros((1, 1)))
    grid = TimeGrid((0.0, 1.0))
    with pytest.raises(NumericFailure) as err:
        euler_evaluate(bad, grid, SAMPLE, (3, 7), 0.0, np.zeros(1), 1.0)
    assert err.value.path == (3, 7)


def spike_once(step, row=slice(None)):
    """A problem whose drift is inf in ``row`` at step ``step`` only, else zero."""
    calls = []

    def mu(Y):
        calls.append(None)
        out = np.zeros(Y.shape)
        if len(calls) == step:
            out[row] = np.inf
        return out

    return make_problem(1, mu, lambda Y: np.zeros((1, 1)))


@pytest.mark.parametrize("step", [2, 4])
def test_one_nonfinite_step_fails_one_row_path(step):
    # the state stays inf after the spike although every later drift is finite
    grid = uniform_grid(1.0, 4)
    with pytest.raises(NumericFailure) as err:
        euler_evaluate(spike_once(step), grid, SAMPLE, (3, 7), 0.0, np.zeros(1), 1.0)
    assert err.value.path == (3, 7)
    assert "non-finite by time 1.0" in str(err.value)


@pytest.mark.parametrize("step", [2, 4])
def test_one_nonfinite_step_fails_batch_with_keep(step):
    breakpoints = (0.0, 0.25, 0.5, 0.75, 1.0)
    states = np.zeros((3, 1))
    with pytest.raises(NumericFailure) as err:
        euler_run(spike_once(step, row=1), breakpoints, states, np.zeros((3, 4, 1)),
                  (5, -2), keep={0.5, 1.0})
    assert err.value.path == (5, -2)
    assert np.isinf(states[1, 0]) and np.array_equal(states[[0, 2]], np.zeros((2, 1)))


def test_euler_run_rows_are_independent_and_keep_copies():
    problem = make_problem(2, lambda Y: 0.5 * Y, lambda Y: 0.1 * (Y[:, :, None] * np.eye(2)))
    breakpoints = (0.0, 0.25, 0.5, 1.0)
    rng = np.random.default_rng(5)
    start = rng.uniform(-1, 1, (4, 2))
    increments = rng.standard_normal((4, 3, 2))
    states = start.copy()
    kept = euler_run(problem, breakpoints, states, increments, (0,), keep={0.0, 0.5})
    assert sorted(kept) == [0.0, 0.5]
    assert np.array_equal(kept[0.0], start)
    for row in range(4):
        single = start[row:row + 1].copy()
        mid = euler_run(problem, breakpoints[:3], single, increments[row:row + 1], (0,),
                        keep={0.5})
        assert np.array_equal(mid[0.5][0], kept[0.5][row])
        euler_run(problem, breakpoints[2:], single, increments[row:row + 1, 2:], (0,))
        assert np.array_equal(single[0], states[row])


def point_coefficients(name, d):
    """The catalog's drift and diffusion written for one point at a time."""
    if name == "relu-exact":
        a = -0.25 * np.eye(d) + 0.05 * np.triu(np.ones((d, d)), 1)
        b = 0.1 * np.ones(d)
        s = 0.3 * np.eye(d) + 0.05 * np.tril(np.ones((d, d)), -1)
        return (lambda y: a @ y + b), (lambda y: s)
    if name == "bs-like":
        return (lambda y: 0.05 * y), (lambda y: 0.2 * np.diag(y))
    return (lambda y: np.zeros(d)), (lambda y: math.sqrt(2.0) * np.eye(d))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("name", ["relu-exact", "bs-like", "heat"])
def test_batched_step_equals_row_loop_bitwise(name, d):
    problem = catalog_entry(name, d=d).problem
    mu, sigma = point_coefficients(name, d)
    breakpoints = (0.0, 0.05, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0)
    rng = np.random.default_rng(100 + d)
    start = rng.uniform(-2.0, 2.0, (4000, d))
    increments = rng.standard_normal((4000, 9, d)) * np.sqrt(np.diff(breakpoints))[:, None]
    states = start.copy()
    euler_run(problem, breakpoints, states, increments, (0,))
    want = start.copy()
    for row in range(len(want)):
        y = want[row]
        for k in range(9):
            dt = breakpoints[k + 1] - breakpoints[k]
            y = y + mu(y) * dt + sigma(y) @ increments[row, k]
        want[row] = y
    assert np.array_equal(states.view(np.uint64), want.view(np.uint64))
