"""Seeded random sampling: RNG splitting, Haar unitaries and state vectors."""

from __future__ import annotations

import numpy as np


def split_seed(master_seed: int, *keys: int) -> np.random.Generator:
    """Deterministic per-task generator from (master seed, index keys).

    Uses SeedSequence so results do not depend on draw order elsewhere.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed)] + [int(k) for k in keys]))


def complex_normal(rng: np.random.Generator, count: int, *shape: int) -> np.ndarray:
    """`count` complex Gaussian arrays of the given shape, as one (count, *shape)
    stack drawn in one call: each member's real part, then its imaginary part."""
    G = rng.standard_normal((count, 2, *shape))
    return G[:, 0] + 1j * G[:, 1]


def haar_state_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = complex_normal(rng, 1, d)[0]
    return v / np.linalg.norm(v)


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
