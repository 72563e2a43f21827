"""Exact ReLU network calculus.

Networks are finite lists of affine layers (W, b) with componentwise
max(x, 0) applied between layers (never after the last one).  Every
operation here is a pure function on immutable values, and every
construction is exact: composing, summing, padding and embedding
networks never changes the realized function beyond floating-point
reassociation.

Layer arrays are read-only, so networks share them: a composition, sum
or padding stores the layers it inherits as they are and allocates only
the layers it changes.  The public ``ReluNetwork`` constructor copies the
arrays it is given once and checks every layer, so nothing a caller holds
aliases a network.

Every network carries its width vector (``widths``), read off the layer
shapes when it is made.  A construction trusts the layers it inherits,
which are read-only and were checked when their network was made, and
takes their widths from the operands' stored ``widths``.  It checks and
seals only the layers it creates: the glue pair at every composition
seam, every layer of a parallel sum, and an inserted padding layer; each
fresh run must link to the trusted layers on both sides.  A chain of
compositions is assembled once by ``compose_chain``, not one binary
``compose`` at a time, and a chain of copies of one network that differ
only in their first and last layers by ``compose_copies``, with every glue
pair of the chain in one stacked array.

A parallel sum need not be stored to be realized: ``realize_sum`` streams
the layers ``sum_networks`` would store through one reused buffer and
gives each point the bits ``realize`` gives it on the stored sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Architecture = tuple[int, ...]


class NetworkError(ValueError):
    """Raised when layer shapes or operation preconditions do not line up."""


def _freeze(a) -> np.ndarray:
    """A read-only float64 copy of a layer array handed in from outside."""
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _check_run(layers, inputs: int, at: int = 0) -> list[int]:
    """Check a run of consecutive layers whose first takes ``inputs`` values;
    return the width each layer emits.  ``at`` numbers the first in errors."""
    emitted = []
    for idx, (w, b) in enumerate(layers, at):
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise NetworkError(f"layer {idx}: weight {w.shape} / bias {b.shape} mismatch")
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise NetworkError(f"layer {idx}: zero-sized layer")
        if w.shape[1] != inputs:
            raise NetworkError(
                f"layer {idx}: expects {w.shape[1]} inputs, previous layer emits {inputs}"
            )
        inputs = w.shape[0]
        emitted.append(inputs)
    return emitted


def _check_layers(layers) -> Architecture:
    """Check that the layers link up; return their width vector."""
    if len(layers) < 2:
        raise NetworkError("a network needs at least one hidden layer")
    w0 = layers[0][0]
    inputs = w0.shape[1] if w0.ndim == 2 else 0  # a malformed w0 fails in _check_run
    return (inputs, *_check_run(layers, inputs))


def _seal(layers) -> None:
    for w, b in layers:
        w.setflags(write=False)
        b.setflags(write=False)


@dataclass(frozen=True)
class ReluNetwork:
    """A feed-forward ReLU network: ordered affine pairs (weight, bias).

    Weight n has shape (k_n, k_{n-1}) and bias n has shape (k_n,); the
    hidden-layer count is len(layers) - 1 and must be at least one.  The
    constructor stores read-only copies of the arrays it is given, and
    ``widths`` holds the width vector (k_0, ..., k_{H+1}) of those layers.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    widths: Architecture = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        layers = tuple((_freeze(w), _freeze(b)) for w, b in self.layers)
        object.__setattr__(self, "widths", _check_layers(layers))
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def depth(self) -> int:
        """Number of entries of the width vector (input + hidden + output)."""
        return len(self.widths)


def _assemble(layers, widths: Architecture) -> ReluNetwork:
    """The network over ``layers`` with width vector ``widths``, as they are.

    Only the constructions in this module call it, and it re-checks
    nothing.  Layers inherited from an operand are trusted: they are
    read-only and were checked when that operand was made, and the caller
    takes their widths from the operand's ``widths``.  The caller has
    checked and sealed every layer it created (``_fresh``, ``_new_network``)
    against its trusted neighbours.
    """
    net = object.__new__(ReluNetwork)
    object.__setattr__(net, "widths", widths)
    object.__setattr__(net, "layers", tuple(layers))
    return net


def _fresh(layers, inputs: int, outputs: int, at: int) -> list[int]:
    """Check and seal a run of layers a construction has just made, between
    trusted ones: the run must take ``inputs`` values and emit ``outputs``.
    Returns the width each fresh layer emits; ``at`` is the index of the
    first of them in the new network, for errors."""
    emitted = _check_run(layers, inputs, at)
    if emitted[-1] != outputs:
        raise NetworkError(
            f"layer {at + len(layers) - 1}: emits {emitted[-1]}, next layer expects {outputs}"
        )
    _seal(layers)
    return emitted


def _new_network(layers) -> ReluNetwork:
    """The network over layers that are all fresh: checked whole, then sealed."""
    layers = tuple(layers)
    widths = _check_layers(layers)
    _seal(layers)
    return _assemble(layers, widths)


def architecture(net: ReluNetwork) -> Architecture:
    """Width vector (k_0, ..., k_{H+1}), stored when the network was made."""
    return net.widths


def param_count(net: ReluNetwork) -> int:
    """Dense parameter count: sum over layers of rows * (cols + 1)."""
    return param_count_of(architecture(net))


def param_count_of(arch: Sequence[int]) -> int:
    return int(sum(arch[n] * (arch[n - 1] + 1) for n in range(1, len(arch))))


def max_width(arch: Sequence[int]) -> int:
    """Max-norm of an architecture, endpoints included."""
    return int(max(arch))


def _hidden_step(v: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(W v + b, 0): one hidden layer, in the operations every realization uses."""
    v = v @ w.T
    v += b
    return np.maximum(v, 0.0, out=v)


def realize(net: ReluNetwork, x: Sequence[float]) -> np.ndarray:
    """Evaluate the network: affine, ReLU, ..., affine (no final ReLU).

    A point of shape (d,) gives shape (out,).  A batch of shape (N, d)
    gives (N, out), one row per point, with one matrix product per layer;
    its rows agree with point-wise calls up to floating-point reassociation.
    """
    v = np.asarray(x, dtype=np.float64)
    d = net.input_dim
    if v.shape != (d,) and (v.ndim != 2 or v.shape[1] != d):
        raise NetworkError(f"input has shape {v.shape}, network expects ({d},) or (N, {d})")
    for w, b in net.layers[:-1]:
        v = _hidden_step(v, w, b)
    w, b = net.layers[-1]
    return v @ w.T + b


# ---------------------------------------------------------------------------
# architecture-level algebra (integer vectors only)
# ---------------------------------------------------------------------------

def compose_architecture(outer: Sequence[int], inner: Sequence[int]) -> Architecture:
    """Architecture of compose(outer, inner): the glue layer merges the
    inner output layer and the outer input layer into one hidden layer of
    width inner[-1] + outer[0]."""
    return tuple(inner[:-1]) + (inner[-1] + outer[0],) + tuple(outer[1:])


def sum_architecture(archs: Sequence[Sequence[int]]) -> Architecture:
    """Architecture of sum_networks: shared endpoints, hidden widths added."""
    first = tuple(archs[0])
    for a in archs[1:]:
        if len(a) != len(first) or a[0] != first[0] or a[-1] != first[-1]:
            raise NetworkError("summands must share depth and endpoint dimensions")
    hidden = [sum(a[i] for a in archs) for i in range(1, len(first) - 1)]
    return (first[0], *hidden, first[-1])


def identity_architecture(d: int, depth: int) -> Architecture:
    return (d,) + (2 * d,) * (depth - 2) + (d,)


def extend_architecture(arch: Sequence[int], target_depth: int) -> Architecture:
    arch = tuple(arch)
    gap = target_depth - len(arch)
    if gap < 0:
        raise NetworkError("cannot shrink an architecture")
    if gap == 0:
        return arch
    if gap == 1:
        return arch[:-1] + (arch[-2],) + (arch[-1],)
    return compose_architecture(identity_architecture(arch[-1], gap + 1), arch)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def identity_network(d: int, depth: int = 3) -> ReluNetwork:
    """Network of architecture (d, 2d, ..., 2d, d) realizing the identity.

    The first layer splits every coordinate into (x+, (-x)+); the final
    layer recombines them as x+ - (-x)+ = x, which is exact for every
    finite float.
    """
    if depth < 3:
        raise NetworkError("identity network needs depth >= 3")
    split = np.zeros((2 * d, d))
    for i in range(d):
        split[2 * i, i] = 1.0
        split[2 * i + 1, i] = -1.0
    layers = [(split, np.zeros(2 * d))]
    for _ in range(depth - 3):
        layers.append((np.eye(2 * d), np.zeros(2 * d)))
    layers.append((split.T.copy(), np.zeros(d)))
    return _new_network(layers)


def zero_network(in_dim: int, out_dim: int, depth: int = 3) -> ReluNetwork:
    """All-zero network of the requested shape; realizes the zero map."""
    if depth < 3:
        raise NetworkError("zero network needs depth >= 3")
    widths = [in_dim] + [1] * (depth - 2) + [out_dim]
    layers = [
        (np.zeros((widths[i + 1], widths[i])), np.zeros(widths[i + 1]))
        for i in range(len(widths) - 1)
    ]
    return _new_network(layers)


def affine_network(w: Sequence[Sequence[float]], b: Sequence[float]) -> ReluNetwork:
    """Depth-3 network realizing x -> Wx + b exactly, via the sign-split sandwich."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    eye = np.eye(w.shape[0])
    first = (np.concatenate([w, -w]), np.concatenate([b, -b]))
    merge = (np.concatenate([eye, -eye], axis=1), np.zeros(w.shape[0]))
    return _new_network([first, merge])


def _glue(w_last, b_last, a_first, a_bias):
    """The glue pair at a composition seam, from the inner network's last
    layer and the outer network's first: the inner affine map duplicated
    with both signs, so the glue hidden layer carries (y+, (-y)+), and the
    outer weight pre-multiplied by [I, -I] to rebuild y before acting.
    Leading axes stack seams, so one call makes the pairs of many."""
    return ((np.concatenate([w_last, -w_last], axis=-2),
             np.concatenate([b_last, -b_last], axis=-1)),
            (np.concatenate([a_first, -a_first], axis=-1), a_bias))


def compose(outer: ReluNetwork, inner: ReluNetwork) -> ReluNetwork:
    """Exact composition: realize(result, x) == realize(outer, realize(inner, x)).

    The two-network case of ``compose_chain``, with the same glue layers.
    Longer chains, such as an Euler network whose dead intervals all share
    one step bracket, go to ``compose_chain`` whole.
    """
    return compose_chain([inner, outer])


def compose_chain(nets: Sequence[ReluNetwork]) -> ReluNetwork:
    """Exact composition of a chain: the result realizes
    x -> nets[-1](...nets[1](nets[0](x))).

    Every seam gets the glue pair of ``_glue``.  The whole chain is
    assembled once; its layers equal those of the binary compositions
    folded along it, because composition is layer-associative.  A network may appear more than once (an Euler
    chain repeats one bracket for all its dead intervals): its layers are
    read-only and shared.

    The links' own layers are trusted and their widths read from their
    ``widths``; only the glue pair at each seam is checked, against the
    layers it joins.  The width vector so assembled must equal the fold of
    ``compose_architecture`` over the chain.
    """
    if not nets:
        raise NetworkError("need at least one network to compose")
    if len(nets) == 1:
        return nets[0]
    layers = list(nets[0].layers[:-1])
    widths = list(nets[0].widths[:-1])
    arch = nets[0].widths
    for inner, outer in zip(nets, nets[1:]):
        if inner.output_dim != outer.input_dim:
            raise NetworkError(
                f"composition mismatch: inner emits {inner.output_dim}, "
                f"outer expects {outer.input_dim}"
            )
        glue = _glue(*inner.layers[-1], *outer.layers[0])
        widths += _fresh(glue, inner.widths[-2], outer.widths[1], len(layers))
        layers += glue
        layers += outer.layers[1:-1]
        widths += outer.widths[2:-1]
        arch = compose_architecture(outer.widths, arch)
    layers.append(nets[-1].layers[-1])
    widths.append(nets[-1].widths[-1])
    widths = tuple(widths)
    if widths != arch:
        raise NetworkError("composed architecture breaks the composition identity")
    return _assemble(layers, widths)


def copies_architecture(arch: Sequence[int], copies: int) -> Architecture:
    """Architecture of a chain of ``copies`` networks of architecture ``arch``:
    the closed form of folding ``compose_architecture`` along it, since every
    seam merges the output and input layers into one glue layer."""
    arch = tuple(arch)
    return arch[:-1] + ((arch[-1] + arch[0],) + arch[1:-1]) * (copies - 1) + (arch[-1],)


def compose_copies(net: ReluNetwork, firsts, lasts) -> ReluNetwork:
    """The chain of K copies of ``net`` that differ only in their first and
    last layers: copy k has first layer (firsts[0][k], firsts[1][k]) and last
    layer (lasts[0][k], lasts[1][k]), and shares ``net``'s hidden layers.

    Each of the four stacks has shape (K, ...) of the layer it replaces and
    is copied once, read-only.  The result has the layers of
    ``compose_chain`` over the K copies; its K - 1 glue pairs come from one
    ``_glue`` call on the stacks, and link by the shapes checked here.
    ``net`` must map R^q to R^q.
    """
    stacks = [_freeze(a) for a in (*firsts, *lasts)]
    first_w, first_b, last_w, last_b = stacks
    copies = len(first_w)
    if copies < 1 or net.input_dim != net.output_dim:
        raise NetworkError(f"need at least one copy of a map R^q -> R^q, got {copies} "
                           f"of R^{net.input_dim} -> R^{net.output_dim}")
    for stack, layer in zip(stacks, (*net.layers[0], *net.layers[-1])):
        if stack.shape != (copies, *layer.shape):
            raise NetworkError(f"a stack of shape {stack.shape} cannot replace a layer of "
                               f"shape {layer.shape} in {copies} copies")
    seams = _glue(last_w[:-1], last_b[:-1], first_w[1:], first_b[1:])
    _seal(seams)
    (glue_w, glue_b), (merge_w, merge_b) = seams
    hidden = net.layers[1:-1]
    layers = [(first_w[0], first_b[0]), *hidden]
    for k in range(copies - 1):
        layers += [(glue_w[k], glue_b[k]), (merge_w[k], merge_b[k]), *hidden]
    layers.append((last_w[-1], last_b[-1]))
    return _assemble(layers, copies_architecture(net.widths, copies))


def _sum_layers(coefficients, nets, scratch=None):
    """The layers of the parallel sum of ``nets``, one at a time.

    First-layer weights stack vertically, hidden layers go block-diagonal,
    and the coefficients fold into the final affine layer.  A hidden layer
    is a fresh zero array with the blocks written in; given ``scratch``, a
    zero float64 buffer of at least its size, it is instead a view of the
    buffer, whose blocks are zeroed again when the next layer is asked for.
    """
    q = nets[0].output_dim
    yield (np.concatenate([net.layers[0][0] for net in nets]),
           np.concatenate([net.layers[0][1] for net in nets]))
    for j in range(1, len(nets[0].layers) - 1):
        blocks = [net.layers[j][0] for net in nets]
        rows = sum(bk.shape[0] for bk in blocks)
        cols = sum(bk.shape[1] for bk in blocks)
        if scratch is None:
            w = np.zeros((rows, cols))
        else:
            w = scratch[: rows * cols].reshape(rows, cols)
        spans = []
        r = c = 0
        for bk in blocks:
            spans.append(w[r : r + bk.shape[0], c : c + bk.shape[1]])
            spans[-1][...] = bk
            r += bk.shape[0]
            c += bk.shape[1]
        yield w, np.concatenate([net.layers[j][1] for net in nets])
        if scratch is not None:
            for span in spans:
                span[...] = 0.0
    w_fin = np.concatenate([float(h) * net.layers[-1][0] for h, net in zip(coefficients, nets)],
                           axis=1)
    b_fin = np.zeros(q)
    for h, net in zip(coefficients, nets):
        b_fin = b_fin + float(h) * net.layers[-1][1]
    yield w_fin, b_fin


def _sum_operands(coefficients, nets) -> Architecture:
    """Check the operands of a parallel sum; return its architecture."""
    if len(coefficients) != len(nets) or not nets:
        raise NetworkError("need one coefficient per network, and at least one network")
    return sum_architecture([net.widths for net in nets])  # checks depth and endpoints


def sum_networks(coefficients: Sequence[float], nets: Sequence[ReluNetwork]) -> ReluNetwork:
    """Network realizing sum_i h_i * realize(net_i, x).

    All summands must share input dimension, output dimension and depth.
    Its layers are those of ``_sum_layers``, every one fresh and checked, a
    single summand's too, and its width vector must equal
    ``sum_architecture`` of the summands'.
    """
    arch = _sum_operands(coefficients, nets)
    net = _new_network(_sum_layers(coefficients, nets))
    if net.widths != arch:
        raise NetworkError("summed architecture breaks the sum identity")
    return net


def realize_sum(coefficients: Sequence[float], nets: Sequence[ReluNetwork],
                points) -> tuple[np.ndarray, Architecture]:
    """Realize sum_networks(coefficients, nets) at each row of ``points``
    without storing the sum; returns the (N, out) values and the width
    vector read off the layers as they streamed past.

    One pass over the layers of ``_sum_layers``, which writes every hidden
    layer into one reused buffer, applies each layer to each point as its
    own 1-D product, as ``realize`` applies one point, so row i has the bits
    of realize(sum_networks(coefficients, nets), points[i]).
    """
    arch = _sum_operands(coefficients, nets)
    xs = np.asarray(points, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != arch[0]:
        raise NetworkError(f"points have shape {xs.shape}, the sum expects (N, {arch[0]})")
    # hidden layer j has shape (arch[j + 1], arch[j])
    scratch = np.zeros(max((arch[j + 1] * arch[j] for j in range(1, len(arch) - 2)),
                           default=0))
    vs = list(xs)
    widths = [arch[0]]
    out = np.empty((len(vs), arch[-1]))
    for idx, (w, b) in enumerate(_sum_layers(coefficients, nets, scratch)):
        widths += _check_run(((w, b),), widths[-1], idx)
        if idx < len(arch) - 2:
            vs = [_hidden_step(v, w, b) for v in vs]
        else:
            for i, v in enumerate(vs):
                out[i] = v @ w.T + b
    widths = tuple(widths)
    if widths != arch:
        raise NetworkError("summed architecture breaks the sum identity")
    return out, widths


def extend_depth(net: ReluNetwork, target_depth: int) -> ReluNetwork:
    """Same realization, architecture padded to the requested depth.

    A gap of one inserts a plain (Id, 0) hidden layer, which is exact
    because max(0, x) = max(0, max(0, x)), and checks only that layer;
    larger gaps compose with an identity network on the output side.
    """
    gap = target_depth - net.depth
    if gap < 0:
        raise NetworkError(f"target depth {target_depth} below current {net.depth}")
    if gap == 0:
        return net
    if gap == 1:
        k = net.layers[-1][0].shape[1]
        pad = (np.eye(k), np.zeros(k))
        _fresh((pad,), net.widths[-2], k, net.depth - 2)
        return _assemble(net.layers[:-1] + (pad, net.layers[-1]),
                         net.widths[:-1] + (k, net.widths[-1]))
    return compose(identity_network(net.output_dim, gap + 1), net)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def network_to_dict(net: ReluNetwork) -> dict:
    """JSON-ready dict; float lists round-trip bit-exactly for finite doubles."""
    return {
        "layers": [
            {
                "rows": int(w.shape[0]),
                "cols": int(w.shape[1]),
                "weights": [float(v) for v in w.reshape(-1)],
                "bias": [float(v) for v in b],
            }
            for w, b in net.layers
        ]
    }


def network_from_dict(data: dict) -> ReluNetwork:
    layers = []
    for entry in data["layers"]:
        rows, cols = int(entry["rows"]), int(entry["cols"])
        w = np.asarray(entry["weights"], dtype=np.float64).reshape(rows, cols)
        b = np.asarray(entry["bias"], dtype=np.float64)
        layers.append((w, b))
    return ReluNetwork(tuple(layers))
