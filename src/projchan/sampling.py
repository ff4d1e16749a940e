"""Seeded random sampling: RNG splitting, Haar unitaries and state vectors."""

from __future__ import annotations

import numpy as np


def split_seed(master_seed: int, *keys: int) -> np.random.Generator:
    """Deterministic per-task generator from (master seed, index keys).

    Uses SeedSequence so results do not depend on draw order elsewhere.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed)] + [int(k) for k in keys]))


def haar_state_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase correction."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    ph = np.diag(R)
    return Q * (ph / np.abs(ph))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank Wishart state G G+ / tr."""
    return random_densities(rng, d, 1)[0]


def random_densities(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """`count` Wishart states as a (count, d, d) stack, drawn from rng exactly
    as `count` calls of random_density would draw them."""
    G = rng.standard_normal((count, 2, d, d))
    G = G[:, 0] + 1j * G[:, 1]
    R = G @ G.conj().transpose(0, 2, 1)
    return R / np.trace(R, axis1=1, axis2=2).real[:, None, None]


def flat_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draw from the probability simplex."""
    e = rng.exponential(size=n)
    return e / e.sum()
