"""Mechanical construction of ReLU networks that replay frozen estimates.

Two builders live here: Euler-path networks, and the full multilevel
Picard network whose realization equals the recursive estimator pointwise
under the same frozen sample.  The builders never store raw noise; they
re-derive every draw from the keyed substreams, which is what guarantees
agreement with the simulator.  The Picard network walks the index tree
that ``mlp`` owns (``picard_branches`` for the keys, ``picard_node`` for
the shape), so it consumes exactly the estimator's substreams.

Every Euler network of a build copies one step bracket, made once by
``bracket_template``.  ``build_mlp_root`` stops short of the root's sum:
it returns the summands and coefficients, which ``nets.realize_sum``
realizes without storing and ``build_mlp_network`` sums into the stored
network.

Architecture accounting is exact: ``predict_architecture`` computes the
resulting width vector symbolically with the same composition/sum/padding
algebra the builders use, so built shape equals predicted shape as an
integer identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .indexrng import FrozenSample, IndexPath, uniform_time
from .mlp import picard_branches, picard_node
from .nets import (
    Architecture,
    NetworkError,
    ReluNetwork,
    affine_network,
    architecture,
    compose,
    compose_architecture,
    compose_chain,
    compose_copies,
    copies_architecture,
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

    ``affine(v)`` gives the pair (W(v), b(v)) with sigma(x) v = W(v) x + b(v);
    the direction's network is its ``affine_network``, so every direction
    shares one reference architecture, read off the zero direction, and
    only the network's first layer depends on v.
    """

    input_dim: int
    affine: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    reference_architecture: Architecture = field(init=False)

    def __post_init__(self) -> None:
        ref = affine_network(*self.affine(np.zeros(self.input_dim)))
        object.__setattr__(self, "reference_architecture", architecture(ref))

    def __call__(self, v) -> ReluNetwork:
        net = affine_network(*self.affine(np.asarray(v, dtype=np.float64)))
        if architecture(net) != self.reference_architecture:
            raise NetworkError(
                f"sigma family produced architecture {architecture(net)}, "
                f"expected {self.reference_architecture}"
            )
        return net


def sigma_family_constant(d: int, matrix) -> SigmaNetworkFamily:
    """Family for constant diffusion sigma(x) = S: realizes x -> S v."""
    s = np.asarray(matrix, dtype=np.float64).reshape(d, d)
    return SigmaNetworkFamily(d, lambda v: (np.zeros((d, d)), s @ v))


def sigma_family_linear(d: int, coefficient_maps) -> SigmaNetworkFamily:
    """Family for sigma(x) linear in x: sigma(x) = sum_k x_k C_k.

    Then sigma(x) v = W(v) x with column k of W(v) equal to C_k v, an
    affine map of x for every direction, so the architecture is shared.
    """
    mats = [np.asarray(c, dtype=np.float64).reshape(d, d) for c in coefficient_maps]
    if len(mats) != d:
        raise NetworkError("need one coefficient matrix per coordinate")
    return SigmaNetworkFamily(d, lambda v: (np.column_stack([c @ v for c in mats]), np.zeros(d)))


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
    return copies_architecture(sum_architecture([identity_architecture(d, depth),
                                                 extend_architecture(mu_arch, depth),
                                                 extend_architecture(sigma_arch, depth)]),
                               steps)


@dataclass(frozen=True)
class BracketTemplate:
    """The Euler step bracket x -> x + dt * mu(x) + sigma(x) dW, and where a
    step's (dt, dW) enter its layers.

    ``bracket`` is the dead step's (dt = 0, dW = 0): the ``sum_networks``
    of an identity tower, the drift and the zero direction's diffusion,
    each padded to one depth, with coefficients (1, dt, 1).  A live step
    differs from it only in the diffusion rows ``sigma_rows`` of its first
    layer, the drift columns ``drift_cols`` of its last weight, which hold
    dt * ``drift_weight``, and its last bias, (``base_bias`` + dt *
    ``drift_bias``) + ``sigma_bias`` in the order ``sum_networks`` adds it
    up, ``base_bias`` being 0 + the identity's bias.
    """

    sigma: SigmaNetworkFamily
    bracket: ReluNetwork
    sigma_rows: slice
    drift_cols: slice
    drift_weight: np.ndarray
    drift_bias: np.ndarray
    base_bias: np.ndarray
    sigma_bias: np.ndarray

    def step(self, dt: float, dw: np.ndarray, first_w, first_b, last_w, last_b) -> None:
        """Write the layers that the live step (dt, dw) changes into copies
        of the bracket's first and last layer."""
        w, b = self.sigma.affine(dw)
        first_w[self.sigma_rows] = np.concatenate([w, -w])
        first_b[self.sigma_rows] = np.concatenate([b, -b])
        last_w[:, self.drift_cols] = dt * self.drift_weight
        last_b[...] = self.base_bias + dt * self.drift_bias + self.sigma_bias


def bracket_template(mu_net: ReluNetwork, sigma_family: SigmaNetworkFamily) -> BracketTemplate:
    """The step bracket of the Euler networks of one drift and diffusion."""
    d = sigma_family.input_dim
    if mu_net.input_dim != d or mu_net.output_dim != d:
        raise NetworkError("drift network must map R^d -> R^d")
    depth = max(mu_net.depth, len(sigma_family.reference_architecture))
    parts = [identity_network(d, depth), extend_depth(mu_net, depth),
             extend_depth(sigma_family(np.zeros(d)), depth)]
    identity, mu_ext, sigma_ext = parts
    rows = identity.widths[1] + mu_ext.widths[1]
    cols = identity.widths[-2]
    return BracketTemplate(
        sigma=sigma_family,
        bracket=sum_networks([1.0, 0.0, 1.0], parts),
        sigma_rows=slice(rows, rows + sigma_ext.widths[1]),
        drift_cols=slice(cols, cols + mu_ext.widths[-2]),
        drift_weight=mu_ext.layers[-1][0],
        drift_bias=mu_ext.layers[-1][1],
        base_bias=np.zeros(d) + 1.0 * identity.layers[-1][1],
        sigma_bias=sigma_ext.layers[-1][1],
    )


def build_euler_network(
    template: BracketTemplate,
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
    with depth K * (max coefficient depth - 1) + 1.  Every step is a copy
    of the template's bracket, a dead interval (dt = 0, dW = 0) the bracket
    itself and a live one with its own first and last layer, and the K
    copies are chained by one ``compose_copies``.
    """
    if not t <= s <= grid.horizon:
        raise NetworkError(f"need t <= s <= horizon, got t={t}, s={s}")
    d = template.sigma.input_dim
    breakpoints = effective_breakpoints(grid, t, s)
    noise = brownian_path(sample, path, d, breakpoints)
    w_at = {breakpoints[0]: np.zeros(d)}
    acc = np.zeros(d)
    for i in range(len(breakpoints) - 1):
        acc = acc + noise[i]
        w_at[breakpoints[i + 1]] = acc

    steps = len(grid.points) - 1
    ends = template.bracket.layers[0] + template.bracket.layers[-1]
    first_w, first_b, last_w, last_b = (np.repeat(a[None], steps, axis=0) for a in ends)
    for k in range(1, len(grid.points)):
        lo = max(grid.points[k - 1], t)
        hi = min(max(s, lo), max(grid.points[k], t))
        dt = hi - lo
        if dt > 0.0:
            template.step(dt, w_at[hi] - w_at[lo], first_w[k - 1], first_b[k - 1],
                          last_w[k - 1], last_b[k - 1])
    return compose_copies(template.bracket, (first_w, first_b), (last_w, last_b))


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

    @functools.cache
    def level_arch(level: int) -> Architecture:
        if level == 0:
            return (d,) + (1,) * (y_depth + g_depth - 3) + (1,)
        # the unpadded l = level - 1 correction fixes the common depth
        depth = len(level_arch(level - 1)) + y_depth - 1 + f_depth - 1

        def correction(sub: Architecture) -> Architecture:
            core = compose_architecture(sub, y_arch)
            return compose_architecture(f_arch, extend_architecture(core, depth - f_depth + 1))

        g_pad = extend_architecture(g_arch, depth - y_depth + 1)
        terminal, groups = picard_node(level, M)
        summands = [(compose_architecture(g_pad, y_arch), terminal)]
        summands += [(correction(level_arch(sub)), size)
                     for _, size, subs in groups for _, sub in subs]
        return sum_architecture([_scale_hidden(a, count) for a, count in summands])

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
class MlpRoot:
    """The root node of a built network: its summands and their coefficients,
    the randomness provenance and the predicted shape of their sum."""

    coefficients: list[float]
    summands: list[ReluNetwork]
    provenance: dict
    prediction: ArchitecturePrediction


@dataclass(frozen=True)
class BuiltMlpNetwork:
    """A built network, its randomness provenance and its predicted shape."""

    network: ReluNetwork
    provenance: dict
    prediction: ArchitecturePrediction


def build_mlp_root(networks: ProblemNetworks, config, path: IndexPath, t: float) -> MlpRoot:
    """Construct the root node of the level-n network whose realization
    equals the frozen multilevel Picard estimate at every x: the network is
    ``sum_networks(root.coefficients, root.summands)``, and
    ``nets.realize_sum`` realizes it without storing it.

    Follows the inductive assembly: terminal g-parts and correction
    f-parts are each composed with an Euler network re-deriving the same
    draws the estimator consumed, padded by identity towers (below f, above
    g) onto the depth identity of their level, and merged by one parallel
    sum with coefficients 1/M^n and +/-(T-t)/M^(n-l); at level 0 the one
    summand is the zero network.  Each correction summand is assembled as
    one ``compose_chain``; the Euler step bracket, the zero network, the
    padded g and the identity pads are built once per build and shared.
    Builds whose predicted dense parameter count exceeds the guard are
    rejected up front with a size report, and the summands' summed
    architecture must equal the prediction.
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
    template = bracket_template(networks.mu, networks.sigma)

    def euler_net(branch: IndexPath, start: float, stop: float) -> ReluNetwork:
        return build_euler_network(template, grid, sample, branch, start, stop)

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
        layer short, and its level's sum would raise NetworkError.
        """
        gap = depth - f_depth + 1 - (ynet.depth + sub.depth - 1)
        if gap >= 2:
            return compose_chain([ynet, sub, pad(gap + 1), networks.f])
        return compose_chain([ynet, sub, networks.f])

    def level_terms(level: int, branch: IndexPath,
                    start: float) -> tuple[list[float], list[ReluNetwork]]:
        """The coefficients and summands of the level-``level`` node at ``branch``."""
        depth, shared = level_parts(level)
        if level == 0:
            return [1.0], [shared]
        terminal, groups = picard_branches(branch, level, M)
        parts = [compose(shared, euler_net(key, start, T)) for key in terminal]
        coefs = [1.0 / len(terminal)] * len(terminal)
        for group in groups:
            weight = (T - start) / len(group)
            for key, subs in group:
                ts = uniform_time(sample, key, start, T)
                ynet = euler_net(key, start, ts)
                for sign, sub, sub_key in subs:
                    parts.append(correction(depth, ynet, build_level(sub, sub_key, ts)))
                    coefs.append(sign * weight)
        return coefs, parts

    def build_level(level: int, branch: IndexPath, start: float) -> ReluNetwork:
        if level == 0:
            return level_parts(0)[1]
        return sum_networks(*level_terms(level, branch, start))

    coefs, parts = level_terms(n, tuple(path), float(t))
    summed = sum_architecture([part.widths for part in parts])
    if summed != prediction.architecture:
        raise NetworkError(
            f"built architecture {summed} diverged from prediction {prediction.architecture}")
    provenance = {
        "theta": [int(v) for v in path],
        "t": float(t),
        "n": int(n),
        "M": int(M),
        "seed": int(sample.master_seed),
        "grid": [float(p) for p in grid.points],
    }
    return MlpRoot(coefs, parts, provenance, prediction)


def build_mlp_network(networks: ProblemNetworks, config, path: IndexPath,
                      t: float) -> BuiltMlpNetwork:
    """The stored level-n network of ``build_mlp_root``: the sum of its root
    node, whose architecture ``sum_networks`` holds to the prediction."""
    root = build_mlp_root(networks, config, path, t)
    return BuiltMlpNetwork(sum_networks(root.coefficients, root.summands),
                           root.provenance, root.prediction)
