"""Curated semilinear problems with references and network encodings.

Each catalog entry carries evaluable coefficients, a reference solution
(closed form where available, a high-level Picard oracle otherwise) and a
factory producing coefficient networks.  Problems in the exact class
(affine drift, affine-in-x diffusion directions, piecewise-linear f and
g) admit encodings with zero deviation; smooth terminal conditions get
piecewise-linear interpolations whose sup-deviation is measured at random
points of a fixed box.  Every entry has the horizon T = HORIZON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .builder import (
    ProblemNetworks,
    SigmaNetworkFamily,
    sigma_family_constant,
    sigma_family_linear,
)
from .indexrng import FrozenSample
from .mlp import ROOT_PATH, MlpConfig, SemilinearProblem, mlp_estimate
from .nets import (
    ReluNetwork,
    affine_network,
    architecture,
    compose,
    realize,
    sum_networks,
)
from .sde import uniform_grid

HORIZON = 1.0


class EncodingError(ValueError):
    pass


def squared_norms(X: np.ndarray) -> np.ndarray:
    """|x|^2 of every row of an (N, d) batch, as an (N,) array.

    Written as a stack of 1 x d by d x 1 products, so each value keeps the
    bits of ``np.dot(x, x)`` on the row; ``(X * X).sum(1)`` and ``einsum``
    round differently in the last bit at d >= 2.
    """
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class PerturbationSpec:
    """Moment/growth constants (delta, q, b, c) of the perturbation and
    full-error bounds; the Lyapunov quadratic they refer to is
    analysis.lyapunov_phi(d, c, X)."""

    delta: float
    q: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.delta < 0 or self.q < 2 or min(self.b, self.c) < 1:
            raise EncodingError("constants outside the admissible ranges")


# ---------------------------------------------------------------------------
# exact piecewise-linear building blocks
# ---------------------------------------------------------------------------

def max_network(d: int) -> ReluNetwork:
    """Exact network for x -> max_i x_i.

    Uses max(a, b) = a + max(b - a, 0); coordinates fold pairwise, each
    stage carrying the remaining coordinates through sign-split pairs.
    """
    if d < 1:
        raise EncodingError("need at least one coordinate")
    if d == 1:
        return affine_network(np.ones((1, 1)), np.zeros(1))

    def reduce_stage(m: int) -> ReluNetwork:
        # (x1, ..., xm) -> (max(x1, x2), x3, ..., xm)
        hidden = 3 + 2 * (m - 2)
        w1 = np.zeros((hidden, m))
        w1[0, 0], w1[0, 1] = -1.0, 1.0  # (x2 - x1)+
        w1[1, 0], w1[2, 0] = 1.0, -1.0  # x1+, (-x1)+
        for j in range(m - 2):
            w1[3 + 2 * j, 2 + j] = 1.0
            w1[4 + 2 * j, 2 + j] = -1.0
        w2 = np.zeros((m - 1, hidden))
        w2[0, 0], w2[0, 1], w2[0, 2] = 1.0, 1.0, -1.0
        for j in range(m - 2):
            w2[1 + j, 3 + 2 * j] = 1.0
            w2[1 + j, 4 + 2 * j] = -1.0
        return ReluNetwork(((w1, np.zeros(hidden)), (w2, np.zeros(m - 1))))

    net = reduce_stage(d)
    for m in range(d - 1, 1, -1):
        net = compose(reduce_stage(m), net)
    return net


def pwl_network(knots, values) -> ReluNetwork:
    """Exact network for the piecewise-linear interpolant through
    (knots[j], values[j]), extended with constant value left of the first
    knot and with the last segment's slope to the right."""
    k = np.asarray(knots, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if k.ndim != 1 or k.shape != y.shape or len(k) < 2:
        raise EncodingError("need matching 1-d knots and values, at least two")
    if np.any(np.diff(k) <= 0):
        raise EncodingError("knots must be strictly increasing")
    slopes = np.diff(y) / np.diff(k)
    coefs = np.concatenate([[slopes[0]], np.diff(slopes)])
    w1 = np.ones((len(coefs), 1))
    b1 = -k[:-1]
    w2 = coefs.reshape(1, -1)
    return ReluNetwork(((w1, b1), (w2, np.asarray([y[0]]))))


def coordinatewise_sum_network(d: int, scalar_net: ReluNetwork) -> ReluNetwork:
    """Exact network for x -> sum_j h(x_j) built from a scalar net for h."""
    if scalar_net.input_dim != 1 or scalar_net.output_dim != 1:
        raise EncodingError("scalar network must map R -> R")
    parts = []
    for j in range(d):
        proj = np.zeros((1, d))
        proj[0, j] = 1.0
        w1, b1 = scalar_net.layers[0]
        embedded = ReluNetwork(((w1 @ proj, b1),) + scalar_net.layers[1:])
        parts.append(embedded)
    return sum_networks([1.0] * d, parts)


def measure_sup_deviation(net: ReluNetwork, fn: Callable[[np.ndarray], np.ndarray],
                          box_radius: float) -> float:
    """Measured sup |realize(net, x) - fn(x)| over 4096 random points in the box.

    ``fn`` maps the (4096, d) batch to one value, or one row of outputs,
    per point; the network realizes the whole batch in one call.
    """
    rng = np.random.default_rng(7)
    pts = rng.uniform(-box_radius, box_radius, size=(4096, net.input_dim))
    want = np.asarray(fn(pts), dtype=np.float64).reshape(len(pts), -1)
    return float(np.max(np.abs(realize(net, pts) - want)))


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A problem, its reference u(t, X) -> (N,) values of the (N, d) batch X,
    by closed form or by a pinned high-level estimator, and its constants."""

    problem: SemilinearProblem
    reference: Callable[[float, np.ndarray], np.ndarray]
    constants: PerturbationSpec


def _zero_vec(d: int):
    z = np.zeros(d)
    return lambda X: z


def _zero_mat(d: int):
    z = np.zeros((d, d))
    return lambda X: z


def ode_exp_problem(d: int = 1) -> CatalogEntry:
    """Frozen dynamics, f(v) = v, g = 1: the solution is u(t,x) = e^(T-t)."""

    def encodings(delta_target: Optional[float] = None) -> ProblemNetworks:
        mu_net = affine_network(np.zeros((d, d)), np.zeros(d))
        f_net = affine_network(np.ones((1, 1)), np.zeros(1))
        g_net = affine_network(np.zeros((1, d)), np.ones(1))
        return ProblemNetworks(mu_net, sigma_family_constant(d, np.zeros((d, d))),
                               f_net, g_net)

    problem = SemilinearProblem(
        name="ode-exp",
        d=d,
        horizon=HORIZON,
        mu=_zero_vec(d),
        sigma=_zero_mat(d),
        f=lambda v: np.array(v, dtype=np.float64),
        g=lambda X: np.ones(len(X)),
        lipschitz_c=1.0,
        encodings=encodings,
    )
    return CatalogEntry(problem, lambda t, X: np.full(len(X), math.exp(HORIZON - t)),
                        PerturbationSpec(0.0, 2.0, 1.0, 2.0))


def heat_problem(d: int = 2) -> CatalogEntry:
    """mu = 0, sigma = sqrt(2) I, f = 0, g(x) = |x|^2: u = |x|^2 + 2d(T-t)."""
    pieces, box_radius = 64, 3.0
    sqrt2 = math.sqrt(2.0)
    sigma_const = sqrt2 * np.eye(d)

    def encodings(delta_target: Optional[float] = None) -> ProblemNetworks:
        mu_net = affine_network(np.zeros((d, d)), np.zeros(d))
        f_net = affine_network(np.zeros((1, 1)), np.zeros(1))
        m = pieces
        if delta_target is not None:
            if delta_target <= 0:
                raise EncodingError(
                    "squared-norm terminal admits no exact encoding; "
                    f"achievable deviation at {pieces} pieces is "
                    f"{d * (2 * box_radius / pieces) ** 2 / 4:.3g}"
                )
            # interpolation error of v^2 at knot spacing h is h^2/4 per coordinate
            h = 2.0 * math.sqrt(delta_target / d)
            m = max(2, int(math.ceil(2.0 * box_radius / h)))
        knots = np.linspace(-box_radius, box_radius, m + 1)
        g_net = coordinatewise_sum_network(d, pwl_network(knots, knots**2))
        measured = measure_sup_deviation(g_net, squared_norms, box_radius)
        return ProblemNetworks(mu_net, sigma_family_constant(d, sigma_const),
                               f_net, g_net, delta=measured)

    problem = SemilinearProblem(
        name="heat",
        d=d,
        horizon=HORIZON,
        mu=_zero_vec(d),
        sigma=lambda X, s=sigma_const: s,
        f=lambda v: np.zeros(np.shape(v)),
        g=squared_norms,
        lipschitz_c=1.0,
        encodings=encodings,
    )
    return CatalogEntry(problem, lambda t, X: squared_norms(X) + 2.0 * d * (HORIZON - t),
                        PerturbationSpec(0.0, 2.0, 2.0, 2.0))


def relu_exact_problem(d: int = 2) -> CatalogEntry:
    """Affine drift, constant diffusion, piecewise-linear f and max terminal.

    Every coefficient is exactly ReLU-representable, so the estimator and
    the built network consume identical maps (deviation 0); the reference
    is a pinned high-level estimator.
    """
    a = -0.25 * np.eye(d) + 0.05 * np.triu(np.ones((d, d)), 1)
    b = 0.1 * np.ones(d)
    s = 0.3 * np.eye(d) + 0.05 * np.tril(np.ones((d, d)), -1)

    def f(v):
        return np.maximum(v, 0.0) - 0.5 * np.maximum(-v - 0.5, 0.0)

    def g(X):
        return np.max(X, axis=1)

    def encodings(delta_target: Optional[float] = None) -> ProblemNetworks:
        mu_net = affine_network(a, b)
        f_net = ReluNetwork(
            (
                (np.array([[1.0], [-1.0]]), np.array([0.0, -0.5])),
                (np.array([[1.0, -0.5]]), np.zeros(1)),
            )
        )
        g_net = max_network(d)
        return ProblemNetworks(mu_net, sigma_family_constant(d, s), f_net, g_net)

    problem = SemilinearProblem(
        name="relu-exact",
        d=d,
        horizon=HORIZON,
        mu=lambda X: np.matmul(a, X[:, :, None])[..., 0] + b,
        sigma=lambda X: s,
        f=f,
        g=g,
        lipschitz_c=1.0,
        encodings=encodings,
    )
    reference = _oracle_reference(problem)
    return CatalogEntry(problem, reference, PerturbationSpec(0.0, 2.0, 2.0, 2.0))


def bs_like_problem(d: int = 2) -> CatalogEntry:
    """Linear drift, coordinate-proportional diffusion, rectified-max payoff.

    sigma(x) v = vol * diag(v) x is affine in x for each direction, so even
    this diffusion admits exact direction networks with a shared shape.
    """
    rate, vol, strike = 0.05, 0.2, 1.0

    def f(v):
        # soft cap: rate * min(v, 2), Lipschitz constant `rate`
        return rate * (v - np.maximum(v - 2.0, 0.0))

    def g(X):
        return np.maximum(np.max(X, axis=1) - strike, 0.0)

    def encodings(delta_target: Optional[float] = None) -> ProblemNetworks:
        mu_net = affine_network(rate * np.eye(d), np.zeros(d))
        coeffs = [vol * np.outer(np.eye(d)[k], np.eye(d)[k]) for k in range(d)]
        sigma_family = sigma_family_linear(d, coeffs)
        f_net = ReluNetwork(
            (
                (np.array([[1.0], [-1.0], [1.0]]), np.array([0.0, 0.0, -2.0])),
                (np.array([[rate, -rate, -rate]]), np.zeros(1)),
            )
        )
        shift = affine_network(np.ones((1, 1)), np.array([-strike]))
        relu = ReluNetwork(
            ((np.ones((1, 1)), np.zeros(1)), (np.ones((1, 1)), np.zeros(1)))
        )
        g_net = compose(relu, compose(shift, max_network(d)))
        return ProblemNetworks(mu_net, sigma_family, f_net, g_net)

    problem = SemilinearProblem(
        name="bs-like",
        d=d,
        horizon=HORIZON,
        mu=lambda X: rate * X,
        sigma=lambda X: vol * (X[:, :, None] * np.eye(d)),
        f=f,
        g=g,
        lipschitz_c=max(1.0, rate, vol),
        encodings=encodings,
    )
    reference = _oracle_reference(problem)
    return CatalogEntry(problem, reference, PerturbationSpec(0.0, 2.0, 2.0, 2.0))


def _oracle_reference(problem: SemilinearProblem) -> Callable[[float, np.ndarray], np.ndarray]:
    """Reference by the mean of 16 estimates at n = M = 3 on 27 steps; memoized per (t, x).

    The estimator's own convergence justifies using a higher level than
    the system under test.
    """
    cache: dict[tuple, float] = {}

    def evaluate(t: float, X: np.ndarray) -> np.ndarray:
        keys = [(round(t, 12), tuple(np.round(x, 12))) for x in X]
        # reversed, so that the first of several equal keys gives the point
        pending = {key: x for key, x in zip(keys[::-1], X[::-1]) if key not in cache}
        if pending:
            grid = uniform_grid(problem.horizon, 27)
            points = np.array(list(pending.values()))
            # one walk per seed; each point's mean is over its own row of values
            rows = np.transpose([
                mlp_estimate(problem, MlpConfig(3, 3, grid, FrozenSample(424242 + i)),
                             ROOT_PATH, t, points)
                for i in range(16)])
            for key, row in zip(pending, rows):
                cache[key] = float(np.mean(row))
        return np.array([cache[key] for key in keys])

    return evaluate


_FACTORIES = {
    "ode-exp": ode_exp_problem,
    "heat": heat_problem,
    "relu-exact": relu_exact_problem,
    "bs-like": bs_like_problem,
}


def problem_catalog() -> dict[str, CatalogEntry]:
    """Name-addressable catalog used by the library, tests and the CLI."""
    return {name: factory() for name, factory in _FACTORIES.items()}


def catalog_entry(name: str, **overrides) -> CatalogEntry:
    if name not in _FACTORIES:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(_FACTORIES)}")
    return _FACTORIES[name](**overrides)


def network_encodings(problem: SemilinearProblem,
                      delta_target: Optional[float] = None) -> ProblemNetworks:
    """Coefficient networks achieving the requested deviation, or a
    rejection stating the achievable one.  ``None`` asks for the problem's
    default construction."""
    if problem.encodings is None:
        raise EncodingError(f"problem {problem.name!r} has no network encodings")
    return problem.encodings(delta_target)
