"""Deterministic randomness keyed by integer index paths.

Every draw is a pure function of (master seed, index path, purpose,
ordinal): the path entries are length-prefixed, tagged with a purpose
byte string and fed through keyed BLAKE2b to derive a Philox counter key.
Distinct paths therefore own statistically independent substreams with no
shared mutable state, and the same arguments always reproduce the same
bits on any platform.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise RngError("master_seed must fit in an unsigned 64-bit integer")


def child(path: IndexPath, *entries: int) -> IndexPath:
    """Extend an index path; extension is injective by construction."""
    return tuple(path) + tuple(int(e) for e in entries)


def derive_key(sample: FrozenSample, path: IndexPath, purpose: bytes) -> bytes:
    """16-byte substream key for (sample, path, purpose)."""
    msg = bytearray(_DOMAIN)
    msg += struct.pack("<B", len(purpose))
    msg += purpose
    msg += struct.pack("<I", len(path))
    for entry in path:
        msg += struct.pack("<q", int(entry))
    return hashlib.blake2b(
        bytes(msg), key=struct.pack("<Q", sample.master_seed), digest_size=16
    ).digest()


def generator(sample: FrozenSample, path: IndexPath, purpose: bytes) -> np.random.Generator:
    """Counter-based generator for one substream."""
    key = derive_key(sample, path, purpose)
    words = np.frombuffer(key, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=words))


def _uniform_open01(gen: np.random.Generator, shape) -> np.ndarray:
    # 53 significant bits, centered in (0, 1) so the inverse CDF never sees 0 or 1.
    # The top value (2**53 - 1) + 0.5 rounds to 2**53, so it is clamped to the
    # largest double below 1.
    raw = gen.integers(0, 2**64, size=shape, dtype=np.uint64)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


def standard_normals(sample: FrozenSample, path: IndexPath, purpose: bytes, shape) -> np.ndarray:
    """Inverse-CDF Gaussians: reproducible, no rejection-loop nondeterminism."""
    return ndtri(_uniform_open01(generator(sample, path, purpose), shape))


def uniform01(sample: FrozenSample, path: IndexPath) -> float:
    """The path's frozen uniform draw on (0, 1)."""
    return float(_uniform_open01(generator(sample, path, PURPOSE_TIME), ()))


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
    pts = tuple(float(b) for b in breakpoints)
    for a, b in zip(pts, pts[1:]):
        if b <= a:
            raise RngError("breakpoints must be strictly increasing")
    m = max(len(pts) - 1, 0)
    if m == 0:
        return np.zeros((0, d))
    z = standard_normals(sample, path, PURPOSE_BROWNIAN, (m, d))
    gaps = np.diff(np.asarray(pts))
    return np.sqrt(gaps)[:, None] * z
