"""Mechanical construction of ReLU networks that replay frozen estimates.

Two builders live here: Euler-path networks, and the full multilevel
Picard network whose realization equals the recursive estimator pointwise
under the same frozen sample.  The builders never store raw noise; they
re-derive every draw from the keyed substreams, which is what guarantees
agreement with the simulator.  The Picard network walks the index tree
that ``mlp`` owns (``picard_branches`` for the keys, ``sample_sizes`` for
the counts), so it consumes exactly the estimator's substreams.

Architecture accounting is exact: ``predict_architecture`` computes the
resulting width vector symbolically with the same composition/sum/padding
algebra the builders use, so built shape equals predicted shape as an
integer identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .indexrng import FrozenSample, IndexPath, uniform_time
from .mlp import picard_branches, sample_sizes
from .nets import (
    Architecture,
    NetworkError,
    ReluNetwork,
    affine_network,
    architecture,
    compose,
    compose_architecture,
    compose_chain,
    extend_architecture,
    extend_depth,
    identity_architecture,
    identity_network,
    max_width,
    param_count_of,
    sum_architecture,
    sum_networks,
    zero_network,
)
from .sde import TimeGrid, effective_breakpoints
from .indexrng import brownian_path

PARAM_GUARD = 100_000_000


class BuildSizeError(RuntimeError):
    """A requested build would exceed the dense-parameter guard."""

    def __init__(self, predicted_params: int, depth: int, width: int):
        self.report = {
            "predicted_params": int(predicted_params),
            "guard": PARAM_GUARD,
            "depth": int(depth),
            "max_width": int(width),
        }
        super().__init__(
            f"build rejected: {predicted_params} dense parameters exceed guard {PARAM_GUARD} "
            f"(depth {depth}, max width {width})"
        )


@dataclass(frozen=True)
class SigmaNetworkFamily:
    """Direction-indexed diffusion networks x -> sigma(x) v.

    Every produced network must share one reference architecture, so the
    shapes of everything built on top are direction-independent.
    """

    input_dim: int
    reference_architecture: Architecture
    factory: Callable[[np.ndarray], ReluNetwork]

    def __call__(self, v) -> ReluNetwork:
        net = self.factory(np.asarray(v, dtype=np.float64))
        if architecture(net) != self.reference_architecture:
            raise NetworkError(
                f"sigma family produced architecture {architecture(net)}, "
                f"expected {self.reference_architecture}"
            )
        return net


def sigma_family_constant(d: int, matrix) -> SigmaNetworkFamily:
    """Family for constant diffusion sigma(x) = S: realizes x -> S v."""
    s = np.asarray(matrix, dtype=np.float64).reshape(d, d)
    ref = affine_network(np.zeros((d, d)), s @ np.zeros(d))
    return SigmaNetworkFamily(
        d, architecture(ref), lambda v: affine_network(np.zeros((d, d)), s @ v)
    )


def sigma_family_linear(d: int, coefficient_maps) -> SigmaNetworkFamily:
    """Family for sigma(x) linear in x: sigma(x) = sum_k x_k C_k.

    Then sigma(x) v = W(v) x with column k of W(v) equal to C_k v, an
    affine map of x for every direction, so the architecture is shared.
    """
    mats = [np.asarray(c, dtype=np.float64).reshape(d, d) for c in coefficient_maps]
    if len(mats) != d:
        raise NetworkError("need one coefficient matrix per coordinate")

    def factory(v: np.ndarray) -> ReluNetwork:
        w = np.column_stack([c @ v for c in mats])
        return affine_network(w, np.zeros(d))

    ref = factory(np.zeros(d))
    return SigmaNetworkFamily(d, architecture(ref), factory)


@dataclass(frozen=True)
class ProblemNetworks:
    """Coefficient encodings (mu, sigma family, f, g) plus their measured
    sup-deviation delta (0 for exact encodings)."""

    mu: ReluNetwork
    sigma: SigmaNetworkFamily
    f: ReluNetwork
    g: ReluNetwork
    delta: float = 0.0


# ---------------------------------------------------------------------------
# Euler networks
# ---------------------------------------------------------------------------

def euler_architecture(mu_arch: Architecture, sigma_arch: Architecture,
                       d: int, steps: int) -> Architecture:
    """Architecture of ``steps`` composed step brackets: an identity tower
    plus the drift and diffusion branches, padded to one depth."""
    depth = max(len(mu_arch), len(sigma_arch))
    b = sum_architecture([identity_architecture(d, depth),
                          extend_architecture(mu_arch, depth),
                          extend_architecture(sigma_arch, depth)])
    # closed form of folding compose_architecture(b, ...) over the steps:
    # every seam merges b's output and input layers into one glue layer
    return b[:-1] + ((b[-1] + b[0],) + b[1:-1]) * (steps - 1) + (b[-1],)


def build_euler_network(
    mu_net: ReluNetwork,
    sigma_family: SigmaNetworkFamily,
    grid: TimeGrid,
    sample: FrozenSample,
    path: IndexPath,
    t: float,
    s: float,
) -> ReluNetwork:
    """Network realizing x -> Euler state at s started from (t, x).

    The Brownian draws are re-derived from the same substream and
    breakpoints the simulator uses, then baked into step weights as
    x -> x + dt * mu(x) + sigma(x) dW.  Each of the K grid intervals
    contributes one step regardless of (t, s): intervals outside [t, s]
    get a zero increment, so the architecture is (t, s, theta)-invariant
    with depth K * (max coefficient depth - 1) + 1.  Those dead intervals
    (dt = 0, dW = 0) all share one step bracket, built at most once per
    call, and the K brackets are composed in one ``compose_chain``.
    """
    if not t <= s <= grid.horizon:
        raise NetworkError(f"need t <= s <= horizon, got t={t}, s={s}")
    d = sigma_family.input_dim
    if mu_net.input_dim != d or mu_net.output_dim != d:
        raise NetworkError("drift network must map R^d -> R^d")
    depth = max(mu_net.depth, len(sigma_family.reference_architecture))
    mu_ext = extend_depth(mu_net, depth)

    breakpoints = effective_breakpoints(grid, t, s)
    noise = brownian_path(sample, path, d, breakpoints)
    w_at = {breakpoints[0]: np.zeros(d)}
    acc = np.zeros(d)
    for i in range(len(breakpoints) - 1):
        acc = acc + noise[i]
        w_at[breakpoints[i + 1]] = acc

    identity = identity_network(d, depth)

    def bracket(dt: float, dw: np.ndarray) -> ReluNetwork:
        return sum_networks([1.0, dt, 1.0],
                            [identity, mu_ext, extend_depth(sigma_family(dw), depth)])

    dead = None
    steps = []
    for k in range(1, len(grid.points)):
        lo = max(grid.points[k - 1], t)
        hi = min(max(s, lo), max(grid.points[k], t))
        dt = hi - lo
        if dt > 0.0:
            steps.append(bracket(dt, w_at[hi] - w_at[lo]))
        else:
            if dead is None:
                dead = bracket(dt, np.zeros(d))
            steps.append(dead)
    return compose_chain(steps)


# ---------------------------------------------------------------------------
# architecture prediction
# ---------------------------------------------------------------------------

def mlp_depth_identity(n: int, steps: int, mu_depth: int, sigma_depth: int,
                       f_depth: int, g_depth: int) -> int:
    """Exact depth of the built level-n network.

    With Y = steps * (max coefficient depth - 1) + 1 the identity reads
    n*(f_depth - 2) + (n + 1)*Y + g_depth - 1; the padding towers are
    chosen so every summand lands on this common value.
    """
    y = steps * (max(mu_depth, sigma_depth) - 1) + 1
    return n * (f_depth - 2) + (n + 1) * y + g_depth - 1


@dataclass(frozen=True)
class ArchitecturePrediction:
    """Exact predicted shape plus the closed-form growth bounds."""

    architecture: Architecture
    depth: int
    width: int
    param_count: int
    width_constant: int
    width_bound: int
    param_bound: int


def _scale_hidden(arch: Architecture, count: int) -> Architecture:
    """Architecture of the parallel sum of ``count`` copies of ``arch``."""
    return (arch[0], *[count * w for w in arch[1:-1]], arch[-1])


def predict_architecture(
    mu_arch: Architecture,
    sigma_arch: Architecture,
    f_arch: Architecture,
    g_arch: Architecture,
    n: int,
    M: int,
    steps: int,
    d: int,
) -> ArchitecturePrediction:
    """Symbolic replay of the level-n build: exact architecture and bounds.

    The width bound is c_eff * (3M)^n where c_eff majorizes every block
    the construction stacks: the scalar glue (2), f and g widths, the 2d
    glue at state-dimension junctions, and the Euler chain, whose widest
    layers are its step brackets with hidden widths the SUM
    2d + w_mu + w_sigma of their three branches.
    """
    y_arch = euler_architecture(mu_arch, sigma_arch, d, steps)
    y_depth = len(y_arch)
    f_depth, g_depth = len(f_arch), len(g_arch)
    memo: dict[int, Architecture] = {}

    def level_arch(level: int) -> Architecture:
        if level in memo:
            return memo[level]
        if level == 0:
            arch = (d,) + (1,) * (y_depth + g_depth - 3) + (1,)
        else:
            # the unpadded l = level - 1 correction fixes the common depth
            depth = len(level_arch(level - 1)) + y_depth - 1 + f_depth - 1

            def correction(sub: Architecture) -> Architecture:
                core = compose_architecture(sub, y_arch)
                return compose_architecture(f_arch, extend_architecture(core, depth - f_depth + 1))

            g_pad = extend_architecture(g_arch, depth - y_depth + 1)
            sizes = sample_sizes(level, M)
            groups = [(compose_architecture(g_pad, y_arch), sizes[0])]
            for l, size in enumerate(sizes):
                groups.append((correction(level_arch(l)), size))
                if l >= 1:
                    groups.append((correction(level_arch(l - 1)), size))
            arch = sum_architecture([_scale_hidden(a, count) for a, count in groups])
        memo[level] = arch
        return arch

    arch = level_arch(n)
    c_eff = max(2, 2 * d, max_width(f_arch), max_width(g_arch), max_width(y_arch))
    width_bound = c_eff * (3 * M) ** n
    expected_depth = mlp_depth_identity(n, steps, len(mu_arch), len(sigma_arch),
                                        f_depth, g_depth)
    if len(arch) != expected_depth:
        raise NetworkError(f"predicted depth {len(arch)} breaks the depth identity {expected_depth}")
    return ArchitecturePrediction(
        architecture=arch,
        depth=len(arch),
        width=max_width(arch),
        param_count=param_count_of(arch),
        width_constant=c_eff,
        width_bound=width_bound,
        param_bound=len(arch) * width_bound * (width_bound + 1),
    )


# ---------------------------------------------------------------------------
# multilevel Picard networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuiltMlpNetwork:
    """A built network, its randomness provenance and its predicted shape."""

    network: ReluNetwork
    provenance: dict
    prediction: ArchitecturePrediction


def build_mlp_network(networks: ProblemNetworks, config, path: IndexPath,
                      t: float) -> BuiltMlpNetwork:
    """Construct the level-n network whose realization equals the frozen
    multilevel Picard estimate at every x.

    Follows the inductive assembly: terminal g-parts and correction
    f-parts are each composed with an Euler network re-deriving the same
    draws the estimator consumed, padded by identity towers (below f, above
    g) onto the depth identity of their level, and merged by one parallel
    sum with coefficients 1/M^n and +/-(T-t)/M^(n-l).  Each correction
    summand is assembled as one ``compose_chain``, and the zero network,
    the padded g and the identity pads are built once per build and shared.  Builds whose
    predicted dense parameter count exceeds the guard are rejected up front
    with a size report.
    """
    n, M = config.n, config.M
    grid: TimeGrid = config.grid
    sample: FrozenSample = config.sample
    d = networks.sigma.input_dim
    T = grid.horizon
    if not 0.0 <= t <= T:
        raise NetworkError(f"start time {t} outside [0, {T}]")
    if networks.g.input_dim != d or networks.g.output_dim != 1:
        raise NetworkError("terminal network must map R^d -> R")
    if networks.f.input_dim != 1 or networks.f.output_dim != 1:
        raise NetworkError("nonlinearity network must map R -> R")

    mu_arch = architecture(networks.mu)
    sigma_arch = networks.sigma.reference_architecture
    f_arch = architecture(networks.f)
    g_arch = architecture(networks.g)
    prediction = predict_architecture(mu_arch, sigma_arch, f_arch, g_arch,
                                      n, M, grid.steps, d)
    if prediction.param_count > PARAM_GUARD:
        raise BuildSizeError(prediction.param_count, prediction.depth, prediction.width)

    y_depth = len(euler_architecture(mu_arch, sigma_arch, d, grid.steps))
    f_depth, g_depth = len(f_arch), len(g_arch)

    def euler_net(branch: IndexPath, start: float, stop: float) -> ReluNetwork:
        return build_euler_network(networks.mu, networks.sigma, grid, sample,
                                   branch, start, stop)

    # networks that depend only on a depth are immutable: one of each per build
    @functools.cache
    def level_parts(level: int) -> tuple[int, ReluNetwork]:
        """The depth of a level-``level`` network, and its shared part: the
        zero network at level 0, g padded onto the terminal summands' depth
        above."""
        depth = mlp_depth_identity(level, grid.steps, len(mu_arch), len(sigma_arch),
                                   f_depth, g_depth)
        if level == 0:
            return depth, zero_network(d, 1, depth)
        return depth, extend_depth(networks.g, depth - y_depth + 1)

    @functools.cache
    def pad(depth: int) -> ReluNetwork:
        return identity_network(1, depth)

    def correction(depth: int, ynet: ReluNetwork, sub: ReluNetwork) -> ReluNetwork:
        """f(sub(ynet(x))), the inner chain padded to f's input depth, as one chain.

        The same layers as compose(f, extend_depth(compose(sub, ynet), ...)):
        composition is layer-associative and a padding gap of two or more is
        a composition with an identity network.  By the depth identity a
        level-n correction over a level-l sub has gap
        (n - l - 1)(f_depth + y_depth - 2), and every depth is at least 2,
        so the gap is never 1.  A gap of 1 would leave this summand one
        layer short, and the level's sum_networks would raise NetworkError.
        """
        gap = depth - f_depth + 1 - (ynet.depth + sub.depth - 1)
        if gap >= 2:
            return compose_chain([ynet, sub, pad(gap + 1), networks.f])
        return compose_chain([ynet, sub, networks.f])

    def build_level(level: int, branch: IndexPath, start: float) -> ReluNetwork:
        depth, shared = level_parts(level)
        if level == 0:
            return shared
        terminal, groups = picard_branches(branch, level, M)
        parts = [compose(shared, euler_net(key, start, T)) for key in terminal]
        coefs = [1.0 / len(terminal)] * len(terminal)
        for l, group in enumerate(groups):
            weight = (T - start) / len(group)
            for key, partner in group:
                ts = uniform_time(sample, key, start, T)
                ynet = euler_net(key, start, ts)
                parts.append(correction(depth, ynet, build_level(l, key, ts)))
                coefs.append(weight)
                if partner is not None:
                    parts.append(correction(depth, ynet, build_level(l - 1, partner, ts)))
                    coefs.append(-weight)
        return sum_networks(coefs, parts)

    net = build_level(n, tuple(path), float(t))
    built_arch = architecture(net)
    if built_arch != prediction.architecture:
        raise NetworkError(
            f"built architecture {built_arch} diverged from prediction {prediction.architecture}")
    provenance = {
        "theta": [int(v) for v in path],
        "t": float(t),
        "n": int(n),
        "M": int(M),
        "seed": int(sample.master_seed),
        "grid": [float(p) for p in grid.points],
    }
    return BuiltMlpNetwork(net, provenance, prediction)
