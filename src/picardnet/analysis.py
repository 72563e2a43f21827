"""Quantitative verification: moment/perturbation/full error bound
conformance, and parameter-growth fitting.

Every bound check inflates the Monte Carlo estimate by three standard
errors before comparing against the analytic bound: the bounds are
non-asymptotic and must dominate the truth, not the noise.  Reports carry
one row per probe or grid point plus a pass flag and the worst margin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .builder import BuildSizeError, build_mlp_network
from .indexrng import FrozenSample, standard_normals
from .mlp import ROOT_PATH, MlpConfig, SemilinearProblem, mlp_rmse
from .nets import param_count
from .problems import HORIZON, PerturbationSpec, network_encodings, squared_norms
from .sde import TimeGrid, effective_breakpoints, euler_run, uniform_grid

_ANALYSIS_PURPOSE = b"analysis-batch"


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one conformance check: rows, verdict, worst margin.

    margin is the smallest value of (bound - inflated estimate) across
    rows; the check passes only when it is nonnegative.
    """

    check: str
    passed: bool
    margin: float
    rows: tuple[dict, ...]

    def summary(self) -> dict:
        return {"check": self.check, "pass": bool(self.passed), "margin": float(self.margin)}


def _report(check: str, rows: list[dict], measured_key: str) -> CheckReport:
    """The report of the rows: it passes when every row does, and its margin
    is the smallest row bound minus the row's ``measured_key`` value."""
    margin = min([math.inf] + [r["bound"] - r[measured_key] for r in rows])
    return CheckReport(check, all(r["pass"] for r in rows), margin, tuple(rows))


# ---------------------------------------------------------------------------
# batched Euler sampling (analysis-local Monte Carlo)
# ---------------------------------------------------------------------------

def _batch_increments(seed: int, tag: int, breakpoints: Sequence[float], n_paths: int,
                      d: int) -> np.ndarray:
    """Brownian increments for n_paths rows over the breakpoints, from one substream.

    The normals are drawn as one (n_paths, max(m, 1), d) block for m steps,
    so the stream is consumed the same way whatever the step count, and
    step k is scaled by the square root of its gap.
    """
    m = len(breakpoints) - 1
    z = standard_normals(FrozenSample(seed), (tag,), _ANALYSIS_PURPOSE, (n_paths, max(m, 1), d))
    return z[:, :m] * np.sqrt(np.diff(breakpoints))[:, None]


def simulate_terminal_batch(problem: SemilinearProblem, grid: TimeGrid, t: float,
                            x, s: float, n_paths: int, seed: int) -> np.ndarray:
    """The (n_paths, d) Euler states at time s, batched.

    One derived substream drives the whole batch; rows are paths.  The
    steps run through ``sde.euler_run``, so a non-finite state raises
    ``NumericFailure``.
    """
    breakpoints = effective_breakpoints(grid, t, s)
    states = np.tile(np.asarray(x, dtype=np.float64).reshape(problem.d), (n_paths, 1))
    increments = _batch_increments(seed, 0, breakpoints, n_paths, problem.d)
    euler_run(problem, breakpoints, states, increments, (0,))
    return states


# ---------------------------------------------------------------------------
# Lyapunov moment bound
# ---------------------------------------------------------------------------

def lyapunov_phi(d: int, c_phi: float, X) -> np.ndarray:
    """phi(x) = d^(2 c_phi) + |x|^2 of every row of an (N, d) batch, as (N,)."""
    return d ** (2.0 * c_phi) + squared_norms(np.asarray(X, dtype=np.float64))


def _exp_saturating(log_value: float) -> float:
    """exp with saturation to inf; the analytic bounds routinely exceed
    the float range and then dominate any finite estimate trivially."""
    return math.exp(log_value) if log_value < 700.0 else math.inf


def lyapunov_bound(kappa: float, c: float, dt: float, phi_x: float) -> float:
    """exp(kappa/2 ((kappa-1)c^4 + 3c^3) dt) * phi(x)^kappa."""
    return _exp_saturating(
        0.5 * kappa * ((kappa - 1.0) * c**4 + 3.0 * c**3) * dt + kappa * math.log(phi_x))


def suggest_lyapunov_constants(problem: SemilinearProblem) -> tuple[float, float]:
    """(c, c_phi) such that the quadratic phi premises hold for this problem.

    c_phi majorizes 2 and the coefficient scales; the usable growth
    constant is 2 * c_phi because the stacked premise ratio reaches
    sqrt(2) * c_phi in the worst direction.
    """
    zero = np.zeros((1, problem.d))
    m0 = max(
        float(np.linalg.norm(np.asarray(problem.mu(zero), dtype=np.float64))),
        float(np.linalg.norm(np.asarray(problem.sigma(zero), dtype=np.float64))),
    )
    c_phi = max(2.0, problem.lipschitz_c, m0)
    return 2.0 * c_phi, c_phi


def lyapunov_check(problem: SemilinearProblem, kappa: float, c: float,
                   probes: Sequence[tuple[float, float, Sequence[float]]],
                   n_paths: int = 100_000, c_phi: Optional[float] = None,
                   seed: int = 101) -> CheckReport:
    """Monte Carlo moment of phi(Y)^kappa against the exponential bound.

    One row per probe (t, s, x), each simulated on a one-step grid; passes
    when estimate + 3 SE <= bound at every probe.
    """
    c_phi = c if c_phi is None else c_phi
    grid = uniform_grid(problem.horizon, 1)
    rows = []
    for idx, (t, s, x) in enumerate(probes):
        states = simulate_terminal_batch(problem, grid, t, x, s, n_paths, seed + idx)
        vals = lyapunov_phi(problem.d, c_phi, states)**kappa
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(n_paths))
        phi_x = lyapunov_phi(problem.d, c_phi, [x])[0]
        bound = lyapunov_bound(kappa, c, s - t, phi_x)
        inflated = est + 3.0 * se
        rows.append(
            {
                "t": t, "s": s, "kappa": kappa, "c": c,
                "estimate": est, "stderr": se, "inflated": inflated,
                "bound": bound, "pass": inflated <= bound,
            }
        )
    return _report("lyapunov", rows, "inflated")


# ---------------------------------------------------------------------------
# coupled-path perturbation bound
# ---------------------------------------------------------------------------

def perturbation_bound(delta: float, q: float, b: float, c: float, horizon: float,
                       t: float, phi_x: float) -> float:
    """delta 2^(q+2) b^q (T+1) e^(q(2qc^4+3c^3)(T-t) + 2^q c^q T^q + (c+1)^2) phi^(q+1/2)."""
    if delta == 0.0:
        return 0.0
    log_value = (
        math.log(delta) + (q + 2.0) * math.log(2.0) + q * math.log(b)
        + math.log(horizon + 1.0)
        + q * (2.0 * q * c**4 + 3.0 * c**3) * (horizon - t)
        + 2.0**q * c**q * horizon**q
        + (c + 1.0) ** 2
        + (q + 0.5) * math.log(phi_x)
    )
    return _exp_saturating(log_value)


def coupled_paths(problem_a: SemilinearProblem, problem_b: SemilinearProblem,
                  grid: TimeGrid, t: float, x, s_values: Sequence[float],
                  n_paths: int, seed: int = 77) -> dict:
    """Simulate both dynamics with identical Brownian increments.

    Returns snapshots {s: (states_a, states_b)} for each requested time.
    """
    if problem_a.d != problem_b.d:
        raise AnalysisError("coupled problems must share the state dimension")
    d = problem_a.d
    s_values = sorted(set(float(v) for v in s_values))
    breakpoints = effective_breakpoints(grid, t, max(s_values + [t]))
    pts = sorted(set(breakpoints) | set(s_values))
    increments = _batch_increments(seed, 1, pts, n_paths, d)
    start = np.tile(np.asarray(x, dtype=np.float64).reshape(d), (n_paths, 1))
    kept_a = euler_run(problem_a, pts, start.copy(), increments, (1,), keep=s_values)
    kept_b = euler_run(problem_b, pts, start, increments, (1,), keep=s_values)
    return {s: (kept_a[s], kept_b[s]) for s in kept_a}


def perturbation_check(problem_a: SemilinearProblem, problem_b: SemilinearProblem,
                       u_a: Callable, u_b: Callable, constants: PerturbationSpec,
                       probes: Sequence[tuple[float, Sequence[float]]],
                       n_paths: int = 20_000, seed: int = 33) -> CheckReport:
    """sup_s E|u_b(s, X^b) - u_a(s, X^a)| under coupling vs. the bound.

    The sup runs over five equally spaced s in [t, T], on an 8-step grid.
    ``u_a(s, X)`` and ``u_b(s, X)`` take the (n_paths, d) batch of coupled
    states at time s and return their (n_paths,) values.  Both are taken as
    exact: no error budget for them is added to the measured side, so the
    row's ``oracle_budget`` is 0.
    """
    rows = []
    horizon = problem_a.horizon
    grid = uniform_grid(horizon, 8)
    for t, x in probes:
        s_values = list(np.linspace(t, horizon, 5))
        snaps = coupled_paths(problem_a, problem_b, grid, t, x, s_values, n_paths, seed)
        worst_est = 0.0
        worst_se = 0.0
        path_gap = 0.0
        for s, (xa, xb) in snaps.items():
            diffs = np.abs(u_b(s, xb) - u_a(s, xa))
            est = float(diffs.mean())
            se = float(diffs.std(ddof=1) / math.sqrt(n_paths))
            if est + 3 * se > worst_est + 3 * worst_se:
                worst_est, worst_se = est, se
            path_gap = max(path_gap, float(np.linalg.norm(xa - xb, axis=1).mean()))
        phi_x = lyapunov_phi(problem_a.d, constants.c, [x])[0]
        bound = perturbation_bound(constants.delta, constants.q, constants.b,
                                   constants.c, horizon, t, phi_x)
        inflated = worst_est + 3.0 * worst_se
        rows.append(
            {
                "t": t, "delta": constants.delta, "sup_estimate": worst_est,
                "stderr": worst_se, "oracle_budget": 0.0,
                "inflated": inflated, "bound": bound,
                "mean_path_gap": path_gap, "pass": inflated <= bound,
            }
        )
    return _report("perturbation", rows, "inflated")


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' 64-node Gauss-Hermite nodes and weights, computed once.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.hermite_e.hermegauss(64)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_hermite_expectation(fn: Callable[[np.ndarray], np.ndarray], mean: float,
                              std: float):
    """E[fn(mean + std Z)] for standard normal Z, by 64-node Gauss-Hermite quadrature.

    ``fn`` is called once, on the array of all 64 abscissae, and returns
    one value per abscissa, a (64,) array, or one row of values per
    abscissa, a (64, N) array.  The expectation is then a float, or the
    (N,) array of the columns' expectations.
    """
    x, w = _hermite_rule()
    values = np.asarray(fn(mean + std * x), dtype=np.float64)
    return w @ values / math.sqrt(2 * math.pi)


# ---------------------------------------------------------------------------
# full error bound
# ---------------------------------------------------------------------------

def fullerror_bracket(n: int, M: int, delta: float, c: float, horizon: float) -> float:
    """delta + exp(2ncT + M/2)/M^(n/2) + M^(-M/2)."""
    return (
        delta
        + math.exp(2.0 * n * c * horizon + M / 2.0) / M ** (n / 2.0)
        + M ** (-M / 2.0)
    )


def fullerror_bound(n: int, M: int, delta: float, constants: PerturbationSpec,
                    horizon: float, phi_x: float) -> float:
    """4^q b^q c^2 (T+1) e^(q(2qc^4+3c^3)T + 2^q c^q T^q + (c+1)^2) phi^(q+1/2) * bracket."""
    q, b, c = constants.q, constants.b, constants.c
    log_pref = (
        q * math.log(4.0) + q * math.log(b) + 2.0 * math.log(c)
        + math.log(horizon + 1.0)
        + q * (2.0 * q * c**4 + 3.0 * c**3) * horizon
        + 2.0**q * c**q * horizon**q
        + (c + 1.0) ** 2
        + (q + 0.5) * math.log(phi_x)
    )
    pref = _exp_saturating(log_pref)
    return pref * fullerror_bracket(n, M, delta, c, horizon)


def fullerror_check(problem: SemilinearProblem, reference: Callable,
                    constants: PerturbationSpec, pairs: Sequence[tuple[int, int]],
                    t: float, x, seeds: int = 50, base_seed: int = 9000,
                    grid_fn: Optional[Callable[[int], TimeGrid]] = None) -> CheckReport:
    """Measured RMSE against the full-error bound at deviation 0, one row per (n, M)."""
    rows = []
    ref = float(reference(t, np.asarray(x, dtype=np.float64)[None])[0])
    for n, M in pairs:
        grid = grid_fn(M) if grid_fn else uniform_grid(problem.horizon, M**M)
        cfg = MlpConfig(n, M, grid, FrozenSample(base_seed))
        measured = mlp_rmse(problem, cfg, t, x, ref, seeds)
        phi_x = lyapunov_phi(problem.d, constants.c, [x])[0]
        bound = fullerror_bound(n, M, 0.0, constants, problem.horizon, phi_x)
        ratio = measured / bound if bound > 0 else math.inf
        rows.append(
            {
                "n": n, "M": M, "delta": 0.0, "reference": ref,
                "rmse": measured, "bound": bound, "ratio": ratio,
                "pass": ratio <= 1.0,
            }
        )
    return _report("fullerror", rows, "rmse")


# ---------------------------------------------------------------------------
# parameter growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthRecipe:
    """Maps accuracy eps to (level, grid steps, coefficient deviation).

    The exact rate constant is astronomically large (it forces levels in
    the dozens and grids of size level^level), so the constant is a
    parameter: `paper_growth_recipe` wires the exact formula, while
    `desk_growth_recipe` keeps the same functional shape at constants
    small enough to build.
    """

    c: float
    horizon: float
    rate_constant: Callable[[int], float]
    delta_of: Callable[[int, float], float]

    def level(self, d: int, eps: float) -> Optional[int]:
        """The least level n in 2..60 whose rate reaches eps / 2, or None."""
        cd = self.rate_constant(d)
        for n in range(2, 61):
            rate = cd * (math.exp(4.0 * n * self.c * self.horizon + n / 2.0) + 1.0) / n ** (n / 2.0)
            if rate <= eps / 2.0:
                return n
        return None


def paper_growth_recipe() -> GrowthRecipe:
    """The exact recipe at q = 2, b = c = 1, B = 16, p = frak_p = 1 and T = HORIZON.

    rate constant = 8^q b^q c^2 d^((c+frak_p)(q+1)) B^q (T+1)
    e^(q(32qc^4+24c^3)T + (4cT)^q + (2c+1)^2); deviation = eps / (4 B d^p rate constant).
    """
    q, b, c, B, p_size, frak_p, horizon = 2.0, 1.0, 1.0, 16.0, 1.0, 1.0, HORIZON

    def rate_constant(d: int) -> float:
        expo = (
            q * (32.0 * q * c**4 + 24.0 * c**3) * horizon
            + (4.0 * c * horizon) ** q
            + (2.0 * c + 1.0) ** 2
        )
        return (
            8.0**q * b**q * c**2 * d ** ((c + frak_p) * (q + 1.0))
            * B**q * (horizon + 1.0) * math.exp(expo)
        )

    def delta_of(d: int, eps: float) -> float:
        return eps / (4.0 * B * d**p_size * rate_constant(d))

    return GrowthRecipe(c, horizon, rate_constant, delta_of)


def desk_growth_recipe() -> GrowthRecipe:
    """Same rate/deviation shapes with buildable constants, at c = 1 and T = HORIZON.

    rate constant = 1e-6 * d^0.5; deviation = eps / 10 (the exact delta
    formula divides by the rate constant, which at desk scale would make
    the deviation target meaninglessly large or small).
    """
    return GrowthRecipe(1.0, HORIZON, lambda d: 1e-6 * d**0.5, lambda d, eps: eps / 10.0)


@dataclass(frozen=True)
class GrowthReport:
    """Measured counts, predictions, exponent fits and skipped points."""

    rows: tuple[dict, ...]
    fitted: dict
    skipped: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.rows)


def _loglog_fit(xs: Sequence[float], ys: Sequence[float]) -> Optional[dict]:
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    lx, ly = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    coef, residuals, *_ = np.linalg.lstsq(np.column_stack([lx, np.ones_like(lx)]), ly, rcond=None)
    pred = coef[0] * lx + coef[1]
    rss = float(np.sum((ly - pred) ** 2))
    return {"exponent": float(coef[0]), "intercept": float(coef[1]),
            "residual": rss, "points": len(xs)}


def growth_fit(problem_factory: Callable[[int], object], d_list: Sequence[int],
               eps_list: Sequence[float], recipe: GrowthRecipe,
               seed: int = 31_337) -> GrowthReport:
    """Build the recipe-selected network from t = 0 at each (d, eps); fit exponents.

    The hard assertion is pointwise: measured parameter count <= predicted
    bound.  The log-log exponents are reported with residuals and never
    extrapolated; grid points beyond the memory guard (or with no
    resolvable level) are recorded as skipped, not failed.
    """
    rows: list[dict] = []
    skipped: list[dict] = []
    for d in d_list:
        for eps in eps_list:
            level = recipe.level(d, eps)
            if level is None:
                skipped.append({"d": d, "eps": eps, "reason": "no level within range"})
                continue
            delta = recipe.delta_of(d, eps)
            entry = problem_factory(d)
            problem = entry.problem
            try:
                networks = network_encodings(problem, delta)
            except Exception as exc:  # unreachable deviation target
                skipped.append({"d": d, "eps": eps, "reason": str(exc)})
                continue
            steps = level**level
            grid = uniform_grid(problem.horizon, steps)
            cfg = MlpConfig(level, level, grid, FrozenSample(seed))
            try:
                built = build_mlp_network(networks, cfg, ROOT_PATH, 0.0)
            except BuildSizeError as exc:
                skipped.append({"d": d, "eps": eps, "reason": "memory guard",
                                **exc.report})
                continue
            measured = param_count(built.network)
            prediction = built.prediction
            rows.append(
                {
                    "d": d, "eps": eps, "n": level, "M": level, "steps": steps,
                    "delta": delta, "params": measured,
                    "param_bound": prediction.param_bound,
                    "width": prediction.width, "width_bound": prediction.width_bound,
                    "depth": prediction.depth,
                    "pass": measured <= prediction.param_bound,
                }
            )
    fits = {}
    for eps in {r["eps"] for r in rows}:
        pts = [(r["d"], r["params"]) for r in rows if r["eps"] == eps]
        fit = _loglog_fit([p[0] for p in pts], [p[1] for p in pts])
        if fit:
            fits[f"d-exponent @ eps={eps:g}"] = fit
    for d in {r["d"] for r in rows}:
        pts = [(1.0 / r["eps"], r["params"]) for r in rows if r["d"] == d]
        fit = _loglog_fit([p[0] for p in pts], [p[1] for p in pts])
        if fit:
            fits[f"eps-exponent @ d={d}"] = fit
    return GrowthReport(tuple(rows), fits, tuple(skipped))
