import numpy as np
import pytest

from projchan import channels as ch
from projchan import zoo
from projchan.sampling import split_seed


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


def random_channel(d_in, d_out, k, seed):
    """The k d_out x d_in blocks of a random (k d_out) x d_in isometry as Kraus
    operators (k is raised to ceil(d_in / d_out) so that the isometry exists),
    the channel they define, and a generator for test inputs."""
    rng = split_seed(seed, d_in, d_out, k)
    k = max(k, -(-d_in // d_out))
    G = rng.normal(size=(k * d_out, d_in)) + 1j * rng.normal(size=(k * d_out, d_in))
    K = np.linalg.qr(G)[0].reshape(k, d_out, d_in)
    return K, ch.QuantumChannel(d_in, d_out, tuple(K)), rng


def offclass_channel(label):
    """A channel outside the projective class by its label in
    tests/data/offclass_seed4242_starts16.json: a zoo spec, or
    "d_in,d_out,k,seed" for random_channel(d_in, d_out, k, seed)."""
    if ":" in label:
        return zoo.build(zoo.parse_spec(label))[0]
    return random_channel(*map(int, label.split(",")))[1]


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


def permute_systems(X: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a square matrix: new factor k is old factor perm[k]."""
    dims, perm = list(dims), list(perm)
    n = int(np.prod(dims))
    return np.asarray(X).reshape(dims + dims).transpose(perm + [len(dims) + p for p in perm]).reshape(n, n)
