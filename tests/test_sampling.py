import numpy as np
import pytest

from conftest import haar_unitary
from projchan.sampling import complex_normal, haar_state_vector, haar_unitaries, random_densities, split_seed


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_complex_normal_follows_the_two_call_stream(shape):
    # the draw of haar_state_vector, random_densities, the chi check's inputs
    # and the EoF starts: per member, a real then an imaginary standard_normal call
    rng = split_seed(7, len(shape))
    want = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(6)]
    got = complex_normal(split_seed(7, len(shape)), 6, *shape)
    assert got.shape == (6,) + shape
    assert np.array_equal(got, np.array(want))


def test_haar_state_vector_follows_the_two_call_stream():
    rng = split_seed(8)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.array_equal(haar_state_vector(split_seed(8), 5), v / np.linalg.norm(v))


def test_random_densities_follow_the_two_call_stream():
    rng = split_seed(9)
    want = []
    for _ in range(4):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        R = G @ G.conj().T
        want.append(R / np.trace(R).real)
    assert np.array_equal(random_densities(split_seed(9), 3, 4), np.array(want))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_haar_unitaries_equal_the_per_draw_calls(d):
    rng = split_seed(10, d)
    want = np.array([haar_unitary(rng, d) for _ in range(64)])
    got = haar_unitaries(split_seed(10, d), d, 64)
    assert np.array_equal(got, want)
    assert np.abs(got @ got.conj().swapaxes(-1, -2) - np.eye(d)).max() <= 1e-14
