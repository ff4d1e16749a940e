import numpy as np
import pytest

from projchan import channels as ch
from projchan import zoo


@pytest.fixture(scope="session")
def wh3():
    return zoo.build(zoo.WernerHolevo(3))


@pytest.fixture(scope="session")
def casred():
    return zoo.build(zoo.CasimirReducibleExample())


@pytest.fixture(scope="session")
def coarse22():
    return zoo.build(zoo.CoarseGraining(2, 2))


def identity_channel(d):
    return ch.QuantumChannel(d, d, (np.eye(d, dtype=complex),), name=f"id:{d}")


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


def permute_systems(X: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a square matrix: new factor k is old factor perm[k]."""
    dims, perm = list(dims), list(perm)
    n = int(np.prod(dims))
    return np.asarray(X).reshape(dims + dims).transpose(perm + [len(dims) + p for p in perm]).reshape(n, n)
