"""Full-history multilevel Picard estimator with frozen randomness.

The estimator at level n draws M^n terminal paths and, for each level
l < n, M^(n-l) sampled time points at which the level-l and level-(l-1)
estimates are re-evaluated recursively.  All randomness is keyed by
integer index paths, so a second evaluation with the same frozen sample
reproduces the estimate bit for bit, and an independently constructed
network consuming the same draws can match it pointwise.

This module owns that index tree: ``picard_node`` states a node's shape
once, and ``picard_branches`` adds its keys.  The estimator here and the
network builder walk the tree through the keys; ``predict_work`` and the
builder's ``predict_architecture`` fold the shape level by level.
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

    Every callable takes a batch: mu and sigma map an (N, d) batch of states
    to arrays that broadcast to (N, d) and (N, d, d), so a constant one may
    return its (d,) or (d, d) array unchanged; g maps the (N, d) batch to
    (N,); f maps an (N,) array elementwise, Lipschitz with constant at most
    lipschitz_c.  Optional exact or delta-controlled network encodings are
    attached by the problem catalog.
    """

    name: str
    d: int
    horizon: float
    mu: Callable
    sigma: Callable
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable
    lipschitz_c: float = 1.0
    encodings: Optional[Callable] = None


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
                 t: float, x):
    """Recursive multilevel Picard estimate at (t, x) under index path.

    Level 0 (and below) is the constant-zero estimator.  The terminal
    term averages g over the terminal Euler paths of ``picard_branches``;
    each correction summand evaluates f at a branch's signed sub-estimates
    at its sampled point (T_t, Y_{t,T_t}).  Keys are paths, not points, so one walk
    carries a whole batch, each row with the bits of its own walk: a point
    of shape (d,) gives a float, and a batch of shape (N, d) gives (N,).
    """
    T = problem.horizon
    if not 0.0 <= t <= T:
        raise MlpError(f"time {t} outside [0, {T}]")
    X = np.asarray(x, dtype=np.float64)
    if X.shape != (problem.d,) and (X.ndim != 2 or X.shape[1] != problem.d):
        raise MlpError(f"x has shape {X.shape}, want ({problem.d},) or (N, {problem.d})")
    # every level-0 estimate is 0, so f(0) stands for f of each of them
    values = _estimate(problem, config, tuple(path), float(t), X.reshape(-1, problem.d),
                       config.n, problem.f(np.zeros(1)))
    return float(values[0]) if X.shape == (problem.d,) else values


def picard_node(level: int, M: int) -> tuple[int, list[tuple[int, int, list[tuple[int, int]]]]]:
    """Shape of a level-``level`` node of the Picard tree, for level >= 1.

    Returns (terminal, groups): the node averages g over ``terminal`` =
    M^level Euler paths, and for each l < level, group (l, size, subs)
    holds size = M^(level - l) branches, each of which re-runs the signed
    sub-estimates ``subs``: (+1, l), and (-1, l - 1) when l >= 1.  A level-0
    node is the zero estimator and has no samples.
    """
    return M ** level, [(l, M ** (level - l), [(1, l), (-1, l - 1)] if l >= 1 else [(1, l)])
                        for l in range(level)]


def picard_branches(path: IndexPath, level: int, M: int):
    """Keys of the node at ``path``: its terminal paths and branch groups.

    Terminal path i is keyed (path, 0, -i).  Group (l, size, subs) of
    ``picard_node`` becomes ``size`` branches (key, subs): branch i is keyed
    (path, l, i), which also names its sampled time and Euler path, and each
    signed sub-estimate comes as (sign, sub-level, key), re-run under the key
    (path, sign * l, i).  Pure: derives no draws.
    """
    count, groups = picard_node(level, M)
    terminal = [child(path, 0, -i) for i in range(1, count + 1)]
    return terminal, [[(child(path, l, i), [(sign, sub, child(path, sign * l, i))
                                           for sign, sub in subs])
                       for i in range(1, size + 1)]
                      for l, size, subs in groups]


def predict_work(n: int, M: int) -> tuple[int, int]:
    """(Euler paths, keyed substreams) one level-n estimate at t < T consumes.

    A node draws one Brownian substream per terminal path, and one uniform
    time plus one Brownian substream per branch, then recurses into the
    branch's sub-estimates.
    """
    paths, streams = [0], [0]
    for level in range(1, n + 1):
        terminal, groups = picard_node(level, M)
        p = s = terminal
        for _, size, subs in groups:
            p += size * (1 + sum(paths[sub] for _, sub in subs))
            s += size * (2 + sum(streams[sub] for _, sub in subs))
        paths.append(p)
        streams.append(s)
    return paths[n], streams[n]


def _estimate(problem, config, path, t, X, level, f0) -> np.ndarray:
    """The (N,) level-``level`` estimates at the rows of X (0 at level <= 0)."""
    if level <= 0:
        return np.zeros(len(X))
    T = problem.horizon
    terminal, groups = picard_branches(path, level, config.M)
    acc = np.zeros(len(X))
    for key in terminal:
        acc += problem.g(euler_evaluate(problem, config.grid, config.sample, key, t, X, T))
    acc /= len(terminal)
    for group in groups:
        block = np.zeros(len(X))
        for key, subs in group:
            ts = uniform_time(config.sample, key, t, T)
            Y = euler_evaluate(problem, config.grid, config.sample, key, t, X, ts)
            value = -0.0  # the additive identity: -0.0 + v is v, bit for bit
            for sign, sub, sub_key in subs:
                term = (problem.f(_estimate(problem, config, sub_key, ts, Y, sub, f0))
                        if sub > 0 else f0)
                # no sign * term: a scalar times an array is one more NumPy call
                value = value + term if sign > 0 else value - term
            block += value
        acc += (T - t) / len(group) * block
    if not np.isfinite(acc).all():
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
