from dataclasses import replace

import numpy as np
import pytest

from conftest import haar_state_vector, haar_unitary, same_bytes
from projchan import entropy, eof, zoo
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
        for i, rng in enumerate(split_seeds(seed, keys, 200)):
            if i in (0, 1, 199):
                assert rng.bit_generator.state == _stream(seed, *keys, i).bit_generator.state
                assert same_bytes(rng.standard_normal(7), split_seed(seed, *keys, i).standard_normal(7))


@pytest.mark.parametrize("d", [2, 3, 4, 9, 16])
@pytest.mark.parametrize("seed", SEEDS)
def test_start_rows_are_the_per_row_streams(seed, d):
    # the one pass draws, bit for bit, what one generator per row drew
    for count in (4, 5, 1, 0):
        want = np.array([haar_state_vector(_stream(seed, i), d) for i in range(count)], dtype=complex)
        assert same_bytes(haar_state_vectors(seed, count, d), want.reshape(-1, d))
        want = np.array([complex_normal(_stream(seed, i), 1, d, 2)[0] for i in range(count)], dtype=complex)
        assert same_bytes(complex_normal_streams(seed, count, d, 2), want.reshape(-1, d, 2))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("seed", [5, 2**70])
def test_warm_starts_do_not_shift_the_random_rows(monkeypatch, seed, k):
    # random start j takes the stream SeedSequence([seed, j]) whatever warm
    # starts come before it, and characterize's norm stack is the stack of
    # its norm search's config: the witness, then its own start stack
    d = 3
    warm = [np.arange(1.0, d + 1.0) * (1.0 + 1j) ** i for i in range(k)]
    cfg = entropy.OptConfig(starts=6, seed=seed).with_warm_starts(warm)
    stack = entropy._stack_starts(d, cfg)
    assert same_bytes(stack[k:], entropy._stack_starts(d, replace(cfg, warm_starts=())))
    assert same_bytes(stack[k:], np.array([haar_state_vector(_stream(seed, j), d) for j in range(6)]))
    assert np.abs(np.linalg.norm(stack, axis=1) - 1.0).max() <= 1e-15
    seen = []
    search = entropy.max_output_norm
    monkeypatch.setattr(entropy, "max_output_norm",
                        lambda T, norm_cfg, *, start: seen.append((norm_cfg, start.X)) or search(T, norm_cfg, start=start))
    entropy.characterize(zoo.build(zoo.parse_spec("wh:d=3"))[0], [2.0], cfg)
    (norm_cfg, X), = seen
    assert len(norm_cfg.warm_starts) == k + 1
    assert same_bytes(X, entropy._stack_starts(d, norm_cfg))


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
