import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picardnet import (
    ROOT_PATH,
    FrozenSample,
    MlpConfig,
    NetworkError,
    ReluNetwork,
    affine_network,
    architecture,
    build_mlp_network,
    compose,
    compose_architecture,
    compose_chain,
    compose_copies,
    copies_architecture,
    extend_depth,
    identity_architecture,
    identity_network,
    max_width,
    network_from_dict,
    network_to_dict,
    param_count,
    realize,
    realize_sum,
    sum_architecture,
    sum_networks,
    uniform_grid,
    zero_network,
)
from picardnet.problems import network_encodings
from conftest import random_network

SIGN_SPLIT = ReluNetwork(
    ((np.array([[1.0], [-1.0]]), np.zeros(2)), (np.array([[1.0, -1.0]]), np.zeros(1)))
)


def test_realize_sign_split_positive_and_negative():
    assert realize(SIGN_SPLIT, [5.0]) == pytest.approx([5.0])
    assert realize(SIGN_SPLIT, [-3.0]) == pytest.approx([-3.0])


def test_realize_zero_network_any_input(rng):
    net = zero_network(3, 2, 4)
    for _ in range(5):
        assert np.array_equal(realize(net, rng.uniform(-9, 9, 3)), np.zeros(2))


def test_realize_rejects_dimension_mismatch():
    with pytest.raises(NetworkError):
        realize(SIGN_SPLIT, [1.0, 2.0])


def test_realize_batch_rows_match_points(rng):
    net = compose(random_network(rng, 3, 2, 4), random_network(rng, 2, 3, 3))
    xs = rng.uniform(-3, 3, (50, 2))
    out = realize(net, xs)
    assert out.shape == (50, 2)
    for x, row in zip(xs, out):
        np.testing.assert_allclose(row, realize(net, x), rtol=1e-12, atol=1e-12)
    assert realize(net, np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2), ()])
def test_realize_rejects_bad_batch_shapes(rng, shape):
    net = random_network(rng, 2, 1, 3)
    with pytest.raises(NetworkError):
        realize(net, np.zeros(shape))


def _stored_arrays(net):
    return [a for layer in net.layers for a in layer]


def _shape_widths(net):
    return (net.layers[0][0].shape[1], *(w.shape[0] for w, _ in net.layers))


def test_compose_shares_inherited_layers(rng):
    outer, inner = random_network(rng, 3, 2, 4), random_network(rng, 2, 3, 4)
    net = compose(outer, inner)
    for mine, theirs in zip(net.layers[:len(inner.layers) - 1], inner.layers[:-1]):
        assert mine[0] is theirs[0] and mine[1] is theirs[1]
    for mine, theirs in zip(net.layers[len(inner.layers) + 1:], outer.layers[1:]):
        assert mine[0] is theirs[0] and mine[1] is theirs[1]
    assert net.layers[len(inner.layers)][1] is outer.layers[0][1]


def test_every_stored_array_is_read_only(rng, relu_entry):
    a, b = random_network(rng, 2, 1, 4), random_network(rng, 2, 1, 4)
    f = random_network(rng, 1, 1, 3)
    encodings = network_encodings(relu_entry.problem)
    grid = uniform_grid(relu_entry.problem.horizon, 2)
    built = [build_mlp_network(encodings, MlpConfig(n, 2, grid, FrozenSample(3)), ROOT_PATH, 0.0)
             for n in (0, 2)]
    nets = [
        a, compose(a, identity_network(2, 3)), sum_networks([0.5], [a]),
        sum_networks([1.0, -2.0], [a, b]), extend_depth(a, 5), extend_depth(a, 7),
        identity_network(2, 4), zero_network(2, 3, 4),
        extend_depth(affine_network([[1.0, 2.0]], [0.5]), 4),
        network_from_dict(json.loads(json.dumps(network_to_dict(a)))),
        compose_chain([identity_network(2, 3), identity_network(2, 4), a]),
        # a correction summand as the builder chains it (Euler part, sub-level
        # network, identity pad, f), and built networks, which share the
        # builder's zero network (level 0) and identity pads (level 2)
        compose_chain([identity_network(2, 3), a, identity_network(1, 4), f]),
        built[0].network, built[1].network,
    ]
    for net in nets:
        assert net.widths == _shape_widths(net)
        for arr in _stored_arrays(net):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_compose_chain_equals_folded_compose_and_shares_layers(rng, count):
    dims = (2, 3, 3, 3, 1)[: count + 1]
    depths = (4, 3, 5, 3)
    nets = [random_network(rng, dims[i], dims[i + 1], depths[i]) for i in range(count)]
    if count == 4:
        nets[2] = nets[1]  # a repeated link, as an Euler chain repeats its dead bracket
    chain = compose_chain(nets)
    folded = nets[0]
    for net in nets[1:]:
        folded = compose(net, folded)
    assert len(chain.layers) == len(folded.layers)
    for (w1, b1), (w2, b2) in zip(chain.layers, folded.layers):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    assert chain.widths == folded.widths == _shape_widths(chain)
    # inherited arrays are shared: every link's inner layers and glue-out bias
    pos = len(nets[0].layers) - 1
    for mine, theirs in zip(chain.layers[:pos], nets[0].layers[:-1]):
        assert mine[0] is theirs[0] and mine[1] is theirs[1]
    for outer in nets[1:]:
        assert chain.layers[pos + 1][1] is outer.layers[0][1]
        pos += 2
        for theirs in outer.layers[1:-1]:
            assert chain.layers[pos][0] is theirs[0] and chain.layers[pos][1] is theirs[1]
            pos += 1
    assert chain.layers[pos] is nets[-1].layers[-1] and pos == len(chain.layers) - 1


@pytest.mark.parametrize("seam", [0, 1, 2])
def test_compose_chain_rejects_a_mismatch_at_any_seam(rng, seam):
    dims = [2, 3, 1, 2, 2]
    nets = [random_network(rng, dims[i], dims[i + 1], 3) for i in range(4)]
    nets[seam + 1] = random_network(rng, dims[seam + 1] + 1, dims[seam + 2], 3)
    with pytest.raises(NetworkError):
        compose_chain(nets)
    with pytest.raises(NetworkError):
        compose_chain([])


def test_constructor_copies_its_inputs(rng):
    # A read-only array can still change through a writable view taken
    # before it was sealed, or by being made writable again.
    w0, b0 = rng.standard_normal((3, 2)), rng.standard_normal(3)
    owner = rng.standard_normal((3, 3))
    view = owner[:]
    view.setflags(write=False)
    w2 = rng.standard_normal((1, 3))
    alias = w2.view()
    w2.setflags(write=False)
    b2 = rng.standard_normal(1)
    b2.setflags(write=False)
    net = ReluNetwork(((w0, b0), (view, np.zeros(3)), (w2, b2)))
    x = np.array([0.7, -0.2])
    before = realize(net, x)
    for arr in (w0, b0, owner, alias):
        arr[...] = 9.0
    b2.setflags(write=True)
    b2[...] = 9.0
    assert np.array_equal(realize(net, x), before)
    inputs = (w0, b0, view, w2, b2)
    assert not any(s is a for s in _stored_arrays(net) for a in inputs)


@pytest.mark.parametrize(
    "arch, expected",
    [((1, 2, 1), 7), ((2, 4, 4, 2), 42), ((3, 6, 3), 45)],
)
def test_param_count_formula(rng, arch, expected):
    net = random_network(rng, arch[0], arch[-1], len(arch), width=arch[1])
    # rebuild with the exact widths
    widths = list(arch)
    layers = tuple(
        (rng.standard_normal((b, a)), rng.standard_normal(b))
        for a, b in zip(widths, widths[1:])
    )
    net = ReluNetwork(layers)
    assert param_count(net) == expected


def test_architecture_reads_layer_shapes(rng):
    net = random_network(rng, 2, 1, 3, width=4)
    assert architecture(net) == (2, 4, 1)
    assert architecture(identity_network(3, 5)) == (3, 6, 6, 6, 3)


def test_compose_architecture_formula():
    # outer (3,7,1) applied after inner (2,4,3)
    assert compose_architecture((3, 7, 1), (2, 4, 3)) == (2, 4, 6, 7, 1)


def test_compose_identity_outer_is_noop(rng):
    g = random_network(rng, 2, 3, 4)
    net = compose(identity_network(3, 3), g)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        np.testing.assert_allclose(realize(net, x), realize(g, x), rtol=1e-12, atol=1e-12)


def test_compose_matches_direct_composition(rng):
    f = random_network(rng, 3, 1, 4)
    g = random_network(rng, 2, 3, 3)
    net = compose(f, g)
    assert architecture(net) == compose_architecture(architecture(f), architecture(g))
    for _ in range(100):
        x = rng.uniform(-3, 3, 2)
        want = realize(f, realize(g, x))
        got = realize(net, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_compose_rejects_mismatched_interface(rng):
    f = random_network(rng, 3, 1, 3)
    g = random_network(rng, 2, 2, 3)
    with pytest.raises(NetworkError):
        compose(f, g)


def test_compose_identity_check_raises_network_error(rng, monkeypatch):
    import picardnet.nets as nets

    f = random_network(rng, 2, 1, 3)
    g = random_network(rng, 3, 2, 4)
    monkeypatch.setattr(nets, "compose_architecture", lambda outer, inner: (0,))
    with pytest.raises(NetworkError):
        compose(f, g)


def test_sum_identity_check_raises_network_error(rng, monkeypatch):
    import picardnet.nets as nets

    a, b = random_network(rng, 2, 1, 4), random_network(rng, 2, 1, 4, width=3)
    monkeypatch.setattr(nets, "sum_architecture", lambda archs: (0,))
    with pytest.raises(NetworkError):
        sum_networks([1.0, -1.0], [a, b])


def test_malformed_glue_layer_at_a_seam_raises_network_error(rng):
    # inherited layers are trusted, so a network whose last bias disagrees
    # with its weight is caught only by the fresh glue layer built from it
    import picardnet.nets as nets

    good = random_network(rng, 2, 3, 3)
    w_last, b_last = good.layers[-1]
    bad = nets._assemble(good.layers[:-1] + ((w_last, b_last[:2]),), good.widths)
    for chain in ([bad, random_network(rng, 3, 1, 3)],
                  [random_network(rng, 1, 2, 4), bad, random_network(rng, 3, 2, 3)]):
        with pytest.raises(NetworkError, match="mismatch"):
            compose_chain(chain)
    # a first layer that emits fewer values than the next layer takes
    w0, b0 = good.layers[0]
    short = nets._assemble(((w0[:3], b0[:3]),) + good.layers[1:], good.widths)
    with pytest.raises(NetworkError, match="next layer expects"):
        compose(short, random_network(rng, 1, 2, 3))


def test_built_layers_check_out_to_the_predicted_architecture(relu_entry, bs_entry):
    # assembly trusts inherited layers; a full walk of the built layers must
    # still give the stored widths and the prediction
    from picardnet.nets import _check_layers

    cases = [(entry, n, M, 2, 5) for entry in (relu_entry, bs_entry)
             for n in (0, 1, 2, 3) for M in (1, 2, 3)]
    cases.append((bs_entry, 3, 2, 2, 19))  # the level-3 golden row
    for entry, n, M, steps, seed in cases:
        grid = uniform_grid(entry.problem.horizon, steps)
        built = build_mlp_network(network_encodings(entry.problem),
                                  MlpConfig(n, M, grid, FrozenSample(seed)), ROOT_PATH, 0.1)
        net = built.network
        assert _check_layers(net.layers) == net.widths == built.prediction.architecture


def test_sum_architecture_formula_and_cancellation(rng):
    a = random_network(rng, 2, 1, 3, width=3)
    b = random_network(rng, 2, 1, 3, width=5)
    s = sum_networks([1.0, -1.0], [a, b])
    assert architecture(s) == (2, 8, 1)
    both = sum_networks([1.0, -1.0], [a, a])
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        assert realize(both, x) == pytest.approx([0.0], abs=1e-12)


def test_sum_realizes_weighted_sum(rng):
    nets = [random_network(rng, 2, 2, 4) for _ in range(3)]
    h = [0.5, -1.25, 2.0]
    s = sum_networks(h, nets)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        want = sum(hi * realize(n, x) for hi, n in zip(h, nets))
        np.testing.assert_allclose(realize(s, x), want, rtol=1e-10, atol=1e-12)


def test_sum_rejects_depth_mismatch(rng):
    a = random_network(rng, 2, 1, 3)
    b = random_network(rng, 2, 1, 4)
    with pytest.raises(NetworkError):
        sum_networks([1.0, 1.0], [a, b])


def test_sum_max_width_triangle(rng):
    # max-norm of the parallel sum never exceeds the sum of max-norms
    for _ in range(20):
        depth = int(rng.integers(3, 6))
        archs = []
        nets = []
        for _ in range(int(rng.integers(2, 4))):
            w = int(rng.integers(1, 7))
            net = random_network(rng, 2, 1, depth, width=w)
            nets.append(net)
            archs.append(architecture(net))
        total = sum_architecture(archs)
        assert max_width(total) <= sum(max_width(a) for a in archs)


def test_identity_network_exact_on_floats(rng):
    net = identity_network(2, 5)
    assert architecture(net) == (2, 4, 4, 4, 2)
    vals = realize(net, [1.5, -2.0])
    assert np.array_equal(vals, np.array([1.5, -2.0]))
    # bitwise equality on assorted finite magnitudes (signed zero collapses to +0)
    xs = np.array([1e-300, -1e-300, 3.714, -0.1, 1e300, -1e308])
    out = realize(identity_network(6, 4), xs)
    assert all(a == b and math.copysign(1, a) == math.copysign(1, b) for a, b in zip(out, xs))


def test_identity_param_count():
    assert param_count(identity_network(1, 3)) == 7


def test_identity_rejects_small_depth():
    with pytest.raises(NetworkError):
        identity_network(2, 2)


def test_extend_depth_gap_zero_returns_same(rng):
    net = random_network(rng, 2, 2, 3)
    assert extend_depth(net, 3) is net


def test_extend_depth_gap_one_bitwise():
    ext = extend_depth(SIGN_SPLIT, 4)
    assert architecture(ext) == (1, 2, 2, 1)
    for x in [-3.0, 0.0, 2.5, -1e12]:
        assert realize(ext, [x])[0] == realize(SIGN_SPLIT, [x])[0]


def test_extend_depth_gap_three(rng):
    net = random_network(rng, 2, 3, 3)
    ext = extend_depth(net, 6)
    assert ext.depth == 6
    for _ in range(100):
        x = rng.uniform(-3, 3, 2)
        np.testing.assert_allclose(realize(ext, x), realize(net, x), rtol=1e-12, atol=1e-12)


def test_extend_depth_rejects_shrink(rng):
    with pytest.raises(NetworkError):
        extend_depth(random_network(rng, 1, 1, 5), 4)


def test_affine_network_identity_and_values(rng):
    net = affine_network(np.eye(2), np.zeros(2))
    x = rng.uniform(-4, 4, 2)
    np.testing.assert_allclose(realize(net, x), x, rtol=0, atol=0)
    assert realize(affine_network([[2.0]], [1.0]), [3.0]) == pytest.approx([7.0])
    w, b = rng.standard_normal((3, 2)), rng.standard_normal(3)
    net = extend_depth(affine_network(w, b), 5)
    for _ in range(100):
        x = rng.uniform(-5, 5, 2)
        np.testing.assert_allclose(realize(net, x), w @ x + b, rtol=1e-12, atol=1e-12)


def test_max_width_values():
    assert max_width((2, 4, 1)) == 4
    assert max_width(identity_architecture(5, 4)) == 10
    assert max_width((2, 8, 1)) == 8


def test_serialization_round_trip_bit_exact(rng):
    net = random_network(rng, 3, 2, 5, width=6, scale=1e3)
    text = json.dumps(network_to_dict(net))
    back = network_from_dict(json.loads(text))
    for (w1, b1), (w2, b2) in zip(net.layers, back.layers):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    # serialized floats use the shortest round-trip decimal form
    payload = json.loads(text)
    assert set(payload["layers"][0]) == {"rows", "cols", "weights", "bias"}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.integers(3, 5), st.integers(3, 5), st.integers(0, 10_000),
)
def test_composition_homomorphism_property(d1, d2, d3, depth_f, depth_g, seed):
    rng = np.random.default_rng(seed)
    f = random_network(rng, d2, d3, depth_f)
    g = random_network(rng, d1, d2, depth_g)
    net = compose(f, g)
    assert architecture(net) == compose_architecture(architecture(f), architecture(g))
    for _ in range(10):
        x = rng.uniform(-3, 3, d1)
        want = realize(f, realize(g, x))
        got = realize(net, x)
        assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(3, 5), st.integers(0, 10_000))
def test_sum_homomorphism_property(count, depth, seed):
    rng = np.random.default_rng(seed)
    nets = [random_network(rng, 2, 1, depth, width=int(rng.integers(1, 5))) for _ in range(count)]
    h = rng.uniform(-2, 2, count)
    s = sum_networks(h, nets)
    assert architecture(s) == sum_architecture([architecture(n) for n in nets])
    for _ in range(10):
        x = rng.uniform(-3, 3, 2)
        want = sum(hi * realize(n, x) for hi, n in zip(h, nets))
        got = realize(s, x)
        assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))


def test_realize_sum_streams_the_bits_of_the_stored_sum(rng):
    # hidden layers of changing shapes share one buffer, zero again before each
    nets = [compose(random_network(rng, 3, 1, 4, width=w),
                    random_network(rng, 2, 3, 3, width=w + 2)) for w in (2, 5, 3)]
    coefficients = [0.5, -1.25, 3.0]
    stored = sum_networks(coefficients, nets)
    xs = rng.uniform(-2, 2, (7, 2))
    values, widths = realize_sum(coefficients, nets, xs)
    assert widths == stored.widths
    assert values.tobytes() == np.array([realize(stored, x) for x in xs]).tobytes()
    assert realize_sum(coefficients, nets, np.empty((0, 2)))[0].shape == (0, 1)
    for bad in (xs[0], xs[:, :1]):
        with pytest.raises(NetworkError):
            realize_sum(coefficients, nets, bad)
    with pytest.raises(NetworkError):
        realize_sum(coefficients[:2], nets, xs)


def test_compose_copies_is_the_chain_of_its_copies(rng):
    net = random_network(rng, 2, 2, 4, width=3)
    (w0, b0), (wl, bl) = net.layers[0], net.layers[-1]
    firsts = (rng.standard_normal((3, *w0.shape)), rng.standard_normal((3, *b0.shape)))
    lasts = (rng.standard_normal((3, *wl.shape)), rng.standard_normal((3, *bl.shape)))
    copies = [ReluNetwork(((firsts[0][k], firsts[1][k]), *net.layers[1:-1],
                           (lasts[0][k], lasts[1][k]))) for k in range(3)]
    chained = compose_copies(net, firsts, lasts)
    want = compose_chain(copies)
    assert chained.widths == want.widths == copies_architecture(net.widths, 3)
    assert all(w.tobytes() == v.tobytes() and b.tobytes() == c.tobytes()
               for (w, b), (v, c) in zip(chained.layers, want.layers, strict=True))
    firsts[0][0, 0, 0] += 1.0  # the copies hold their own read-only layers
    assert chained.layers[0][0][0, 0] != firsts[0][0, 0, 0]
    with pytest.raises(NetworkError):
        compose_copies(net, (firsts[0][:, :, :1], firsts[1]), lasts)
    with pytest.raises(NetworkError):
        compose_copies(random_network(rng, 2, 1, 3), firsts, lasts)
