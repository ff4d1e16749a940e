"""Seeded random sampling: RNG splitting, Haar unitaries and state vectors."""

from __future__ import annotations

import numpy as np


def _seed_words(*ints: int) -> list:
    """The uint32 entropy words SeedSequence makes of a list of non-negative
    ints: the 32-bit words of each, least significant first, one for 0."""
    words = []
    for x in map(int, ints):
        if x < 0:
            raise ValueError(f"expected non-negative integer, got {x}")
        words.append(x & 0xFFFFFFFF)
        while x > 0xFFFFFFFF:
            x >>= 32
            words.append(x & 0xFFFFFFFF)
    return words


def split_seed(master_seed: int, *keys: int) -> np.random.Generator:
    """Deterministic per-task generator from (master seed, index keys): the
    stream of default_rng(SeedSequence([master_seed, *keys])), bit for bit.

    Uses SeedSequence so results do not depend on draw order elsewhere.
    """
    words = np.array(_seed_words(master_seed, *keys), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def complex_normal(rng: np.random.Generator, count: int, *shape: int) -> np.ndarray:
    """`count` complex Gaussian arrays of the given shape, as one (count, *shape)
    stack drawn in one call: each member's real part, then its imaginary part."""
    G = rng.standard_normal((count, 2, *shape))
    return G[:, 0] + 1j * G[:, 1]


def split_seeds(master_seed: int, keys, count: int):
    """split_seed(master_seed, *keys, i) for each i < count (below 2^32), bit
    for bit, from one word array whose last word is set per i."""
    words = np.array(_seed_words(master_seed, *keys, 0), dtype=np.uint32)
    for i in range(count):
        words[-1] = i
        yield np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def complex_normal_streams(seed: int, count: int, *shape: int) -> np.ndarray:
    """complex_normal(split_seed(seed, i), 1, *shape)[0] for each i < count
    (below 2^32), bit for bit, as one (count, *shape) stack: each stream
    fills its slot of one Gaussian buffer."""
    G = np.empty((count, 2, *shape))
    for row, rng in zip(G, split_seeds(seed, (), count)):
        rng.standard_normal(out=row)
    return G[:, 0] + 1j * G[:, 1]


def haar_state_vectors(seed: int, count: int, d: int) -> np.ndarray:
    """The unit vector v / |v| of each stream of `complex_normal_streams`, as
    a (count, d) stack. Each row is normalized alone, by the norm of that one
    vector, so that it does not depend on the other rows drawn with it."""
    V = complex_normal_streams(seed, count, d)
    return V / np.array([np.linalg.norm(v) for v in V])[:, None]


def haar_unitaries(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """`count` Haar-distributed unitaries as a (count, d, d) stack, by QR of
    complex Gaussians with phase correction."""
    Q, R = np.linalg.qr(complex_normal(rng, count, d, d))
    ph = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (ph / np.abs(ph))[:, None, :]


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank Wishart state G G+ / tr."""
    return random_densities(rng, d, 1)[0]


def random_densities(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """`count` Wishart states as a (count, d, d) stack, drawn from rng exactly
    as `count` calls of random_density would draw them."""
    G = complex_normal(rng, count, d, d)
    R = G @ G.conj().transpose(0, 2, 1)
    return R / np.trace(R, axis1=1, axis2=2).real[:, None, None]


def flat_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draw from the probability simplex."""
    e = rng.exponential(size=n)
    return e / e.sum()
