import hashlib
import math
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri

from picardnet import FrozenSample, brownian_path, child, standard_normals, uniform01, uniform_time
from picardnet.indexrng import (
    PURPOSE_BROWNIAN,
    PURPOSE_TIME,
    RngError,
    _uniform_open01,
    derive_key,
    generator,
)

SAMPLE = FrozenSample(123456789)


def test_determinism_bitwise():
    a = brownian_path(SAMPLE, (3, -1, 2), 4, [0.0, 0.25, 1.0])
    b = brownian_path(SAMPLE, (3, -1, 2), 4, [0.0, 0.25, 1.0])
    assert np.array_equal(a, b)
    assert uniform01(SAMPLE, (9,)) == uniform01(SAMPLE, (9,))


def _fresh_words(sample, path, purpose, shape):
    key = np.frombuffer(derive_key(sample, path, purpose), dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.integers(0, 2**64, size=shape, dtype=np.uint64)


@pytest.mark.parametrize("shape", [(), (9, 2), (4000, 9, 2)])
def test_rekeyed_words_equal_a_freshly_constructed_generator(shape):
    for i in range(500):
        path = (i % 7, -i, 3 * i)
        purpose = PURPOSE_TIME if i % 2 else PURPOSE_BROWNIAN
        words = generator(SAMPLE, path, purpose).random_raw(size=shape)
        assert words.dtype == np.uint64
        assert np.array_equal(words, _fresh_words(SAMPLE, path, purpose, shape))


def test_substreams_share_no_counter_or_buffer():
    a, b = (1, 2), (1, 3)

    def draw(path, halves):
        # 7 words leave 3 of Philox's 4-word block buffered, and an odd number
        # of 32-bit draws leaves half a word buffered
        words = generator(SAMPLE, path, PURPOSE_BROWNIAN).random_raw(size=7)
        gen = np.random.Generator(generator(SAMPLE, path, PURPOSE_BROWNIAN))
        return words, gen.integers(0, 2**32, size=halves, dtype=np.uint32)

    first = draw(a, 2)
    draw(b, 3)
    again = draw(a, 2)
    key = np.frombuffer(derive_key(SAMPLE, a, PURPOSE_BROWNIAN), dtype=np.uint64)
    fresh = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2**32, size=2, dtype=np.uint32)
    assert np.array_equal(again[0], first[0])
    assert np.array_equal(again[1], first[1]) and np.array_equal(again[1], fresh)


def _draw_paths(worker: int, sample: FrozenSample = SAMPLE) -> list[np.ndarray]:
    breakpoints = [0.0, 0.1, 0.35, 0.5, 1.0]
    return [brownian_path(sample, (worker, i), 2, breakpoints) for i in range(200)]


def test_threads_draw_the_same_paths_as_one_thread():
    sequential = [_draw_paths(w) for w in range(4)]
    shared = FrozenSample(SAMPLE.master_seed)  # its keyed states are made under the threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so their draws interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_draw_paths, range(4), [shared] * 4, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(threaded) == len(sequential)
    for seq, thr in zip(sequential, threaded):
        assert all(np.array_equal(a, b) for a, b in zip(seq, thr))


class _ConstantWords:
    """Stands in for a bit generator whose every raw 64-bit word is ``word``."""

    def __init__(self, word):
        self.word = word

    def random_raw(self, size=None):
        # like a bit generator: a Python int without a size, else a uint64 array
        return self.word if size is None else np.full(size, self.word, dtype=np.uint64)


def test_uniform_stays_inside_open_unit_interval_at_extreme_words():
    top = _uniform_open01(_ConstantWords(2**64 - 1), (3,))
    assert np.all(top < 1.0) and np.all(np.isfinite(ndtri(top)))
    bottom = _uniform_open01(_ConstantWords(0), (3,))
    assert np.all(bottom > 0.0) and np.all(np.isfinite(ndtri(bottom)))
    for word in (0, 1, 2**64 - 2**11, 2**64 - 1):
        single = float(_uniform_open01(_ConstantWords(word)))
        assert 0.0 < single < 1.0
        assert single == _uniform_open01(_ConstantWords(word), (3,))[0]


def test_uniform01_equals_the_array_formula():
    for i in range(10_000):
        path = (i % 3, i, -7 * i)
        want = float(_uniform_open01(generator(SAMPLE, path, PURPOSE_TIME), ()))
        assert uniform01(SAMPLE, path) == want


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_derive_key_equals_one_shot_keyed_blake2b(seed):
    sample = FrozenSample(seed)
    for purpose in (PURPOSE_TIME, PURPOSE_BROWNIAN, b"another purpose"):
        for length in range(13):
            path = (-(2**63), 2**63 - 1, *range(-5, 6))[:length]
            msg = (b"picardnet.rng.v1" + bytes([len(purpose)]) + purpose
                   + struct.pack(f"<I{length}q", length, *path))
            want = hashlib.blake2b(msg, key=seed.to_bytes(8, "little"), digest_size=16)
            assert derive_key(sample, path, purpose) == want.digest()
    # the cached keyed states are no part of the sample's value
    assert sample == FrozenSample(seed) and hash(sample) == hash(FrozenSample(seed))


def test_uniform_time_endpoint_and_affine_map():
    for theta in [(0,), (1, 2), (-5, 0, 7)]:
        assert uniform_time(SAMPLE, theta, 1.0, 1.0) == 1.0
    u = uniform01(SAMPLE, (4, 4))
    assert uniform_time(SAMPLE, (4, 4), 0.0, 1.0) == pytest.approx(u)
    assert uniform_time(SAMPLE, (4, 4), 0.5, 1.0) == pytest.approx(0.5 + 0.5 * u)


def test_uniform_time_rejects_bad_start():
    with pytest.raises(RngError):
        uniform_time(SAMPLE, (0,), 1.5, 1.0)


def test_uniform_mean_over_many_paths():
    n = 100_000
    vals = np.fromiter(
        (uniform01(SAMPLE, (0, i)) for i in range(n)), dtype=np.float64, count=n
    )
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 0.5) <= 3 * se


def test_brownian_variance_matches_gap():
    n = 100_000
    t_total = 0.7
    incs = np.array(
        [brownian_path(SAMPLE, (1, i), 1, [0.0, t_total])[0, 0] for i in range(n)]
    )
    assert abs(incs.var(ddof=1) - t_total) / t_total < 0.02
    assert abs(incs.mean()) <= 3 * math.sqrt(t_total / n)


def test_brownian_empty_and_single_breakpoint():
    p = brownian_path(SAMPLE, (0,), 3, [])
    assert p.shape == (0, 3)
    p = brownian_path(SAMPLE, (0,), 3, [0.5])
    assert p.shape == (0, 3)


def test_brownian_rejects_unsorted():
    with pytest.raises(RngError):
        brownian_path(SAMPLE, (0,), 1, [0.0, 0.5, 0.5])


def test_sibling_paths_uncorrelated():
    n = 100_000
    a = np.empty(n)
    b = np.empty(n)
    for i in range(n // 100):
        base = (7, i)
        za = standard_normals(SAMPLE, child(base, 1), PURPOSE_BROWNIAN, (100,))
        zb = standard_normals(SAMPLE, child(base, 2), PURPOSE_BROWNIAN, (100,))
        a[i * 100 : (i + 1) * 100] = za
        b[i * 100 : (i + 1) * 100] = zb
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n)


def test_prefix_consistency_when_appending_breakpoints():
    short = brownian_path(SAMPLE, (2, 2), 2, [0.0, 0.3, 0.6])
    long = brownian_path(SAMPLE, (2, 2), 2, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert np.array_equal(short, long[:2])


def test_key_injectivity_million_paths():
    seen = set()
    for i in range(500_000):
        seen.add(derive_key(SAMPLE, (0, i), PURPOSE_BROWNIAN))
        seen.add(derive_key(SAMPLE, (1, i), PURPOSE_BROWNIAN))
    assert len(seen) == 1_000_000


def test_purpose_tags_give_disjoint_streams():
    theta = (5, 5)
    u = uniform01(SAMPLE, theta)
    z = standard_normals(SAMPLE, theta, PURPOSE_BROWNIAN, ())
    assert u != pytest.approx(scipy.stats.norm.cdf(float(z)))


def test_gaussianity_jarque_bera():
    z = standard_normals(SAMPLE, (8,), PURPOSE_BROWNIAN, (100_000,))
    res = scipy.stats.jarque_bera(z)
    assert res.pvalue > 1e-3


def test_master_seed_range_checked():
    with pytest.raises(RngError):
        FrozenSample(-1)
    with pytest.raises(RngError):
        FrozenSample(2**64)
