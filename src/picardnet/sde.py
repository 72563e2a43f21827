"""Euler-Maruyama simulation of the forward dynamics on a fixed time grid."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .indexrng import FrozenSample, IndexPath, brownian_path


class SimulationError(ValueError):
    pass


class NumericFailure(RuntimeError):
    """A coefficient or state became non-finite; carries the index path."""

    def __init__(self, message: str, path: IndexPath):
        super().__init__(f"{message} (index path {path})")
        self.path = tuple(path)


@dataclass(frozen=True)
class TimeGrid:
    """Sorted grid 0 = tau_0 <= ... <= tau_K = T; repeated points allowed."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2:
            raise SimulationError("grid needs at least two points")
        if pts[0] != 0.0:
            raise SimulationError("grid must start at 0")
        if any(b < a for a, b in zip(pts, pts[1:])):
            raise SimulationError("grid points must be nondecreasing")
        object.__setattr__(self, "points", pts)

    @property
    def horizon(self) -> float:
        return self.points[-1]

    @property
    def steps(self) -> int:
        return len(self.points) - 1


def uniform_grid(horizon: float, steps: int) -> TimeGrid:
    """steps + 1 equally spaced points from 0 to exactly ``horizon``."""
    if steps < 1:
        raise SimulationError("need at least one step")
    return TimeGrid(tuple(horizon * k / steps for k in range(steps)) + (horizon,))


def effective_breakpoints(grid: TimeGrid, t: float, s: float) -> tuple[float, ...]:
    """{t} plus the grid points in (t, s] plus {s}, sorted and deduplicated.

    This is the exact sequence of states an Euler path from t to s visits;
    coincident grid points collapse so no zero-length step ever consumes
    randomness.
    """
    if s < t:
        raise SimulationError(f"query time {s} precedes start time {t}")
    points = grid.points
    out = [t]
    # the sorted grid's points in (t, s), bisected: only these are touched
    for p in points[bisect_right(points, t):bisect_left(points, s)]:
        if p != out[-1]:
            out.append(p)
    if s != t:
        out.append(s)
    return tuple(out)


def euler_run(problem, breakpoints: Sequence[float], states: np.ndarray,
              increments: np.ndarray, path: IndexPath,
              keep: Collection[float] = ()) -> dict[float, np.ndarray]:
    """Advance every row of the (N, d) ``states`` in place along the breakpoints.

    Step k maps the batch Y to Y + mu(Y) dt_k + sigma(Y) @ increments[:, k]
    in one NumPy step, with the coefficients taken at the left endpoint:
    ``mu`` and ``sigma`` take the (N, d) batch and return arrays that
    broadcast to (N, d) and (N, d, d).  Each row gets the arithmetic of a
    row-by-row step, bit for bit.  ``increments`` has shape (N or 1,
    len(breakpoints) - 1, d).  Returns a copy of the states at each
    breakpoint listed in ``keep``.  A state non-finite after any step
    raises ``NumericFailure`` naming ``path``, from one check after the last
    step: steps only add to states, inf + x is inf or nan and nan + x is nan.
    """
    mu, sigma = problem.mu, problem.sigma
    noise = increments[..., None]
    kept = {}
    if keep and breakpoints[0] in keep:
        kept[breakpoints[0]] = states.copy()
    for k in range(len(breakpoints) - 1):
        dt = breakpoints[k + 1] - breakpoints[k]
        diffusion = np.matmul(sigma(states), noise[:, k])[..., 0]
        states += mu(states) * dt
        states += diffusion
        if keep and breakpoints[k + 1] in keep:
            kept[breakpoints[k + 1]] = states.copy()
    if not np.isfinite(states).all():
        raise NumericFailure(f"state non-finite by time {breakpoints[-1]}", path)
    return kept


def euler_evaluate(problem, grid: TimeGrid, sample: FrozenSample, path: IndexPath,
                   t: float, X, s: float) -> np.ndarray:
    """States at time s of the Euler scheme started at (t, x), for each row x of X.

    X is an (N, d) batch, and so is the result; one Brownian path drives every row.
    Drift and diffusion are evaluated at the left endpoint of each step;
    the off-grid query time s is handled by inserting s as the final
    breakpoint, with the Brownian draw for (floor(s), s] coming from the
    same substream in time order.
    """
    if not 0.0 <= t <= grid.horizon:
        raise SimulationError(f"start time {t} outside [0, {grid.horizon}]")
    if not t <= s <= grid.horizon:
        raise SimulationError(f"query time {s} outside [{t}, {grid.horizon}]")
    states = np.array(X, dtype=np.float64).reshape(-1, problem.d)
    breakpoints = effective_breakpoints(grid, t, s)
    if len(breakpoints) > 1:
        noise = brownian_path(sample, path, problem.d, breakpoints)
        euler_run(problem, breakpoints, states, noise[None], path)
    return states
