import numpy as np
import pytest

from conftest import haar_state_vector, haar_unitary, same_bytes
from projchan import entropy, eof
from projchan.sampling import (complex_normal, complex_normal_streams, haar_state_vectors, haar_unitaries,
                               random_densities, split_seed, split_seeds)


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


SEEDS = [0, 5, 12648430, 2**31 - 1, 2**32 + 7, 2**70]  # 2^32 + 7 and 2^70 take two and three entropy words


def _stream(seed, *keys):
    """The generator of (seed, *keys) built the long way, from the list."""
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


@pytest.mark.parametrize("seed", SEEDS)
def test_split_seed_is_the_seed_sequence_of_its_list(seed):
    for keys in [(), (3,), (17, 5), (3, 9), (11, 2, 3), (2**40,)]:
        assert split_seed(seed, *keys).bit_generator.state == _stream(seed, *keys).bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_split_seeds_are_the_per_index_streams(seed):
    # one word array per call, its last word set per index
    for keys in [(), (17,), (11, 2)]:
        for i, rng in zip([0, 1, 199], split_seeds(seed, keys, [0, 1, 199])):
            assert rng.bit_generator.state == _stream(seed, *keys, i).bit_generator.state
            assert same_bytes(rng.standard_normal(7), split_seed(seed, *keys, i).standard_normal(7))


@pytest.mark.parametrize("d", [2, 3, 4, 9, 16])
@pytest.mark.parametrize("seed", SEEDS)
def test_start_rows_are_the_per_row_streams(seed, d):
    # the one pass draws, bit for bit, what one generator per row drew;
    # the gaps are the indices that a `drawn` map already holds
    for indices in ([0, 1, 2, 3], [1, 2, 5, 6, 11], [7], []):
        want = np.array([haar_state_vector(_stream(seed, i), d) for i in indices], dtype=complex)
        assert same_bytes(haar_state_vectors(seed, indices, d), want.reshape(-1, d))
        want = np.array([complex_normal(_stream(seed, i), 1, d, 2)[0] for i in indices], dtype=complex)
        assert same_bytes(complex_normal_streams(seed, indices, d, 2), want.reshape(-1, d, 2))


@pytest.mark.parametrize("seed", [5, 2**70])
def test_shared_start_stacks_are_the_per_row_streams(seed):
    # characterize's two stacks: the second reuses the rows of the first and
    # draws the rest, from the shifted index on
    d, drawn = 3, {}
    cfg = entropy.OptConfig(starts=6, seed=seed)
    want = np.array([haar_state_vector(_stream(seed, i), d) for i in range(8)])
    assert same_bytes(entropy._stack_starts(d, cfg, drawn), want[:6])
    warm = entropy._stack_starts(d, cfg.with_warm_starts([want[7], want[7]]), drawn)
    assert same_bytes(warm[2:], want[2:])
    assert sorted(drawn) == list(range(8))


@pytest.mark.parametrize("seed", [5, 2**70])
def test_eof_start_stack_is_the_per_start_streams(monkeypatch, seed):
    starts, k, r = 5, 16, 4  # example9: rank 4, k = r^2
    x0 = []
    descent = eof._armijo_descent
    monkeypatch.setattr(eof, "_armijo_descent", lambda fg, retract, W0, *rest: x0.append(W0) or descent(
        fg, retract, W0, *rest))
    eof.eof_upper(eof.example9_state(), eof.EofConfig(starts=starts, seed=seed, max_iters=1))
    want = np.concatenate([complex_normal(_stream(seed, i), 1, k, r) for i in range(starts)])
    assert same_bytes(x0[0], eof._qr_retract(want))
