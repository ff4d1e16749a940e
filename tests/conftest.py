import numpy as np
import pytest

from projchan import additivity as add
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


def max_entangled(d):
    """The maximally entangled state |Omega><Omega| on C^d x C^d, with
    |Omega> = sum_i |i,i> / sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(v, v.conj())


def trace_square_bound(maps, rho):
    """tr[(x_i M_i)(rho)^2] against prod_i 1/m_i on one state rho: (lhs,
    bound, lhs <= bound + 1e-9). NotProjectiveClass if a map carries no m."""
    bound = add._trace_square_limit(maps)
    lhs = float(add._trace_squares(add.apply_product_map(maps, rho)))
    return lhs, bound, bool(lhs <= bound + 1e-9)


def haar_unitary(rng, d):
    """One Haar unitary drawn by two standard_normal calls, real part then
    imaginary part: the per-draw reference for sampling.haar_unitaries."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    ph = np.diag(R)
    return Q * (ph / np.abs(ph))


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
