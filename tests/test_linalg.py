import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import max_entangled, permute_systems, random_hermitian
from projchan import linalg
from projchan.errors import BadDims, NotPositiveSemidefinite
from projchan.sampling import split_seed


def test_clamp_policy():
    assert np.all(linalg.clamp_state_eigenvalues(np.array([-5e-11, 0.5])) >= 0)
    with pytest.raises(NotPositiveSemidefinite):
        linalg.clamp_state_eigenvalues(np.array([-1e-9, 1.0]))


def test_partial_trace_product():
    a = np.array([[1, 0], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [0, 1]], dtype=complex)
    assert np.allclose(linalg.partial_trace(np.kron(a, b), [2, 2], [0]), a)


def test_partial_trace_max_entangled():
    for d in (2, 3):
        om = max_entangled(d)
        for keep in ([0], [1]):
            red = linalg.partial_trace(om, [d, d], keep)
            assert linalg.herm_norm_inf(red - np.eye(d) / d) < 1e-14


def test_partial_trace_keep_all():
    X = np.arange(16, dtype=complex).reshape(4, 4)
    assert np.allclose(linalg.partial_trace(X, [2, 2], [0, 1]), X)


def test_partial_trace_preserves_trace():
    rng = split_seed(2000)
    X = random_hermitian(rng, 12)
    red = linalg.partial_trace(X, [3, 4], [1])
    assert abs(np.trace(red) - np.trace(X)) < 1e-12


def test_partial_trace_bad_dims():
    with pytest.raises(BadDims):
        linalg.partial_trace(np.eye(6), [2, 2], [0])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
def test_partial_trace_tensor_consistency(da, db, seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, da)
    B = random_hermitian(rng, db)
    lhs = linalg.partial_trace(np.kron(A, B), [da, db], [0])
    assert linalg.herm_norm_inf(lhs - A * np.trace(B)) < 1e-12


def _transpose_second(X, d):
    """Partial transpose of the second factor of C^d x C^d."""
    return X.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def test_partial_transpose_omega_gives_flip():
    # Omega^{T_2} = F / d
    for d in (2, 3):
        om = max_entangled(d)
        assert np.allclose(_transpose_second(om, d), linalg.flip(d) / d, atol=1e-14)


def test_flip_permutation_d2():
    F = linalg.flip(2)
    expect = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(F, expect)


def test_flip_trace_and_square():
    for d in (2, 3, 4):
        F = linalg.flip(d)
        assert abs(np.trace(F) - d) < 1e-14
        assert np.allclose(F @ F, np.eye(d * d))
        w = np.linalg.eigvalsh(F)
        assert np.allclose(np.abs(w), 1)


def test_flip_transpose_identity():
    # partial transpose of the flip is d * Omega
    for d in (2, 3, 4):
        pt = _transpose_second(linalg.flip(d), d)
        assert np.allclose(pt, d * max_entangled(d), atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_flip_swap_trace_identity(d, seed):
    # tr[(A x A) F] = tr[A^2]
    A = random_hermitian(np.random.default_rng(seed), d)
    lhs = np.trace(np.kron(A, A) @ linalg.flip(d))
    assert abs(lhs - np.trace(A @ A)) < 1e-12 * max(1.0, abs(np.trace(A @ A)))


def test_flip_swap_trace_identity_d3():
    A = random_hermitian(split_seed(77), 3)
    lhs = np.trace(np.kron(A, A) @ linalg.flip(3))
    assert abs(lhs - np.trace(A @ A)) < 1e-12


def test_max_entangled_small():
    assert np.allclose(max_entangled(1), [[1.0]])
    om = max_entangled(2)
    assert abs(np.trace(om @ om) - 1.0) < 1e-14  # purity 1
    om4 = max_entangled(4)
    assert linalg.herm_norm_inf(linalg.partial_trace(om4, [4, 4], [0]) - np.eye(4) / 4) < 1e-14
    assert linalg.herm_norm_inf(linalg.partial_trace(om4, [4, 4], [1]) - np.eye(4) / 4) < 1e-14


def test_permute_systems_roundtrip():
    rng = split_seed(4000)
    X = random_hermitian(rng, 12)
    Y = permute_systems(X, [3, 4], [1, 0])
    assert np.allclose(permute_systems(Y, [4, 3], [1, 0]), X)
