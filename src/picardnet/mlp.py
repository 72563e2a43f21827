"""Full-history multilevel Picard estimator with frozen randomness.

The estimator at level n draws M^n terminal paths and, for each level
l < n, M^(n-l) sampled time points at which the level-l and level-(l-1)
estimates are re-evaluated recursively.  All randomness is keyed by
integer index paths, so a second evaluation with the same frozen sample
reproduces the estimate bit for bit, and an independently constructed
network consuming the same draws can match it pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .indexrng import FrozenSample, IndexPath, child, uniform_time
from .sde import NumericFailure, TimeGrid, euler_evaluate

ROOT_PATH: IndexPath = (0,)


class MlpError(ValueError):
    pass


@dataclass(frozen=True)
class SemilinearProblem:
    """Terminal-value problem data (d, T, mu, sigma, f, g).

    mu maps R^d -> R^d, sigma maps R^d -> R^(d x d), the nonlinearity f
    maps R -> R with Lipschitz constant at most lipschitz_c, and g maps
    R^d -> R.  Optional exact or delta-controlled network encodings are
    attached by the problem catalog.
    """

    name: str
    d: int
    horizon: float
    mu: Callable
    sigma: Callable
    f: Callable[[float], float]
    g: Callable
    lipschitz_c: float = 1.0
    encodings: Optional[Callable] = None

    @property
    def T(self) -> float:
        return self.horizon


@dataclass(frozen=True)
class MlpConfig:
    """Level n, base M, the Euler grid and the frozen sample."""

    n: int
    M: int
    grid: TimeGrid
    sample: FrozenSample

    def __post_init__(self) -> None:
        if self.n < 0:
            raise MlpError("level n must be >= 0")
        if self.M < 1:
            raise MlpError("base M must be >= 1")


def mlp_estimate(problem: SemilinearProblem, config: MlpConfig, path: IndexPath,
                 t: float, x) -> float:
    """Recursive multilevel Picard estimate at (t, x) under index path.

    Level 0 (and below) is the constant-zero estimator.  The terminal
    term averages g over M^n Euler paths keyed (path, 0, -i); each
    correction summand evaluates f at the level-l and level-(l-1)
    estimates at the shared sampled point (T_t, Y_{t,T_t}) keyed
    (path, l, i) / (path, -l, i).
    """
    n, M = config.n, config.M
    T = problem.horizon
    if not 0.0 <= t <= T:
        raise MlpError(f"time {t} outside [0, {T}]")
    x = np.asarray(x, dtype=np.float64).reshape(problem.d)
    return _estimate(problem, config, tuple(path), float(t), x, n)


def _estimate(problem, config, path, t, x, level) -> float:
    if level <= 0:
        return 0.0
    M = config.M
    T = problem.horizon
    count_terminal = M**level
    total = 0.0
    for i in range(1, count_terminal + 1):
        y = euler_evaluate(problem, config.grid, config.sample, child(path, 0, -i), t, x, T)
        total += float(problem.g(y))
    acc = total / count_terminal
    for l in range(level):
        count = M ** (level - l)
        block = 0.0
        for i in range(1, count + 1):
            branch = child(path, l, i)
            ts = uniform_time(config.sample, branch, t, T)
            y = euler_evaluate(problem, config.grid, config.sample, branch, t, x, ts)
            value = float(problem.f(_estimate(problem, config, branch, ts, y, l)))
            if l >= 1:
                other = _estimate(problem, config, child(path, -l, i), ts, y, l - 1)
                value -= float(problem.f(other))
            block += value
        acc += (T - t) / count * block
    if not math.isfinite(acc):
        raise NumericFailure("estimate non-finite", path)
    return acc


def mlp_rmse(problem: SemilinearProblem, config: MlpConfig, t: float, x,
             reference: float, seeds: int) -> float:
    """Sample RMSE of the root estimator against a reference value.

    Independent replications come from consecutive master seeds; the
    keyed derivation makes distinct master seeds independent streams.
    """
    if not math.isfinite(reference):
        raise MlpError("reference must be finite")
    if seeds < 1:
        raise MlpError("need at least one seed")
    base = config.sample.master_seed
    sq = 0.0
    for i in range(seeds):
        cfg = MlpConfig(config.n, config.M, config.grid,
                        FrozenSample((base + i) % 2**64))
        est = mlp_estimate(problem, cfg, ROOT_PATH, t, x)
        sq += (est - reference) ** 2
    return math.sqrt(sq / seeds)
