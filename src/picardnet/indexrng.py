"""Deterministic randomness keyed by integer index paths.

Every draw is a pure function of (master seed, index path, purpose,
ordinal): the path entries are length-prefixed, tagged with a purpose
byte string and fed through keyed BLAKE2b to derive a Philox counter key.
Distinct paths therefore own statistically independent substreams, and the
same arguments always reproduce the same bits on any platform.

BLAKE2b streams: each ``FrozenSample`` caches one keyed state per purpose,
fed the domain and the purpose, and each key hashes a copy of it fed the
path, never the cached state itself.

Philox is counter-based: a substream is fully set by its key, at counter 0
with an empty buffer.  So instead of constructing a bit generator per
substream, each thread keeps one scratch Philox and re-keys it; besides the
caches above, the only mutable state is that per-thread scratch, which a
draw resets before use.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

IndexPath = tuple[int, ...]

_DOMAIN = b"picardnet.rng.v1"
PURPOSE_TIME = b"uniform-time"
PURPOSE_BROWNIAN = b"brownian"


class RngError(ValueError):
    pass


@dataclass(frozen=True)
class FrozenSample:
    """A fixed sample point: one 64-bit master seed keys the whole tree."""

    master_seed: int
    # purpose -> keyed BLAKE2b state fed the domain and the purpose; copied per key
    _prefixes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise RngError("master_seed must fit in an unsigned 64-bit integer")


def child(path: IndexPath, *entries: int) -> IndexPath:
    """Extend an index path; extension is injective by construction."""
    return (*path, *map(int, entries))


_PATH_STRUCTS: dict[int, struct.Struct] = {}  # path length -> its packing


def derive_key(sample: FrozenSample, path: IndexPath, purpose: bytes) -> bytes:
    """16-byte substream key for (sample, path, purpose)."""
    prefix = sample._prefixes.get(purpose)
    if prefix is None:
        prefix = sample._prefixes[purpose] = hashlib.blake2b(
            _DOMAIN + struct.pack("<B", len(purpose)) + purpose,
            key=struct.pack("<Q", sample.master_seed), digest_size=16)
    packing = _PATH_STRUCTS.get(len(path))
    if packing is None:
        packing = _PATH_STRUCTS[len(path)] = struct.Struct(f"<I{len(path)}q")
    digest = prefix.copy()
    digest.update(packing.pack(len(path), *path))
    return digest.digest()


_scratch = threading.local()  # per thread: one Philox and the state dict that re-keys it
_ZERO_WORDS = (0, 0, 0, 0)  # counter 0 and an empty buffer


def generator(sample: FrozenSample, path: IndexPath, purpose: bytes) -> np.random.Philox:
    """Philox bit generator for one substream, at its first word.

    The result is the calling thread's scratch bit generator, re-keyed: it
    gives the same words as ``np.random.Philox(key=...)`` and stays valid
    until that thread's next call.
    """
    # tuples, not arrays: the state setter reads them one element at a time
    key = struct.unpack("<2Q", derive_key(sample, path, purpose))
    bitgen = getattr(_scratch, "philox", None)
    if bitgen is None:
        bitgen = _scratch.philox = np.random.Philox(key=key)
        _scratch.state = {"bit_generator": "Philox",
                          "state": {"counter": _ZERO_WORDS, "key": key},
                          "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    _scratch.state["state"]["key"] = key
    bitgen.state = _scratch.state
    return bitgen


def _uniform_open01(bitgen: np.random.Philox, shape=None):
    # 53 significant bits, centered in (0, 1) so the inverse CDF never sees 0 or 1.
    # The top value (2**53 - 1) + 0.5 rounds to 2**53, so it is clamped to the
    # largest double below 1.  Without a shape the word is a Python int, and
    # the same formula gives the same bits as on a uint64 array.
    raw = bitgen.random_raw(size=shape)
    return np.minimum(((raw >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def standard_normals(sample: FrozenSample, path: IndexPath, purpose: bytes, shape) -> np.ndarray:
    """Inverse-CDF Gaussians: reproducible, no rejection-loop nondeterminism."""
    return ndtri(_uniform_open01(generator(sample, path, purpose), shape))


def uniform01(sample: FrozenSample, path: IndexPath) -> float:
    """The path's frozen uniform draw on (0, 1)."""
    return float(_uniform_open01(generator(sample, path, PURPOSE_TIME)))


def uniform_time(sample: FrozenSample, path: IndexPath, t: float, horizon: float) -> float:
    """Frozen sample of t + (horizon - t) * U with U the path's uniform.

    The uniform U is a function of (sample, path) only, so the same path
    maps consistently across different start times t.
    """
    if not 0.0 <= t <= horizon:
        raise RngError(f"start time {t} outside [0, {horizon}]")
    return t + (horizon - t) * uniform01(sample, path)


def brownian_path(
    sample: FrozenSample, path: IndexPath, d: int, breakpoints) -> np.ndarray:
    """Increments of a d-dimensional Brownian motion over fixed breakpoints.

    Row i of the (m, d) result is W(breakpoints[i+1]) - W(breakpoints[i]),
    Gaussian with per-coordinate variance equal to the gap.  Draws are
    consumed in time order, so appending later breakpoints never changes
    earlier increments.
    """
    # Python floats: math.sqrt is correctly rounded, like np.sqrt
    gaps = [b - a for a, b in zip(breakpoints, breakpoints[1:])]
    if not all(gap > 0.0 for gap in gaps):
        raise RngError("breakpoints must be strictly increasing")
    if not gaps:
        return np.zeros((0, d))
    z = standard_normals(sample, path, PURPOSE_BROWNIAN, (len(gaps), d))
    return np.array([math.sqrt(gap) for gap in gaps])[:, None] * z
