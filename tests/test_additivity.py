import functools
import itertools
import math

import numpy as np
import pytest

from conftest import (coarse_m_ref, haar_state_vector, max_entangled, pinching_m_ref, trace_square_bound,
                      transpose_m_ref, weyl_m_ref)
from projchan import additivity as add
from projchan import channels as ch
from projchan import cli, entropy, linalg, zoo
from projchan.errors import DimMismatch, NotProjectiveClass, SpecInvalid
from projchan.sampling import random_density, split_seed

CFG = entropy.OptConfig(starts=16)

# frozen by direct evaluation: (T x T)(Omega_3) has spectrum {1/3, 1/12 x8},
# so S_5 = -log2(3^-5 + 8 * 12^-5)/4
S5_OMEGA = -math.log2(3.0 ** -5 + 8.0 * 12.0 ** -5) / 4


def test_single_factor_gap_zero(wh3):
    T, _ = wh3
    rep = add.additivity_gap([T], 1.0, CFG)
    assert rep.gap == 0.0
    assert abs(rep.joint - 1.0) < 1e-6


def test_wh3_pair_alpha2(wh3):
    T, _ = wh3
    rep = add.additivity_gap([T, T], 2.0, CFG)
    assert abs(rep.gap) <= 1e-4
    assert abs(rep.joint - 2.0) <= 1e-4
    for s in rep.singles:
        assert abs(s - 1.0) < 1e-6


def test_wh3_pair_alpha5_violation(wh3):
    T, _ = wh3
    rep = add.additivity_gap([T, T], 5.0, CFG)
    assert rep.gap >= 0.01
    # the maximally entangled warm start (index 1) achieves the minimum
    assert rep.joint_report.per_start_values[1] <= rep.joint + 1e-12
    assert abs(rep.joint - S5_OMEGA) < 1e-9
    # witness state is (numerically) the maximally entangled input
    fid = np.real(np.trace(rep.witness_state.mat @ max_entangled(3)))
    assert fid > 1.0 - 1e-6


def test_gap_never_significantly_negative(wh3):
    T, _ = wh3
    for alpha in (0.0, 0.5, 1.0, 2.0):
        rep = add.additivity_gap([T, T], alpha, CFG)
        assert rep.gap >= -1e-6


def test_transfer_regime_small_beta(wh3):
    # joint estimates at beta <= 1 sit at 2 bits for the pair
    T, _ = wh3
    for beta in (0.0, 0.5, 1.0):
        rep = add.additivity_gap([T, T], beta, CFG)
        assert rep.joint >= 2.0 - 1e-4
        assert rep.joint <= 2.0 + 1e-6


def test_trace_square_bound_single_transpose():
    M = transpose_m_ref(3)
    rho = random_density(split_seed(30), 3)
    lhs, bound, holds = trace_square_bound([M], rho)
    assert holds and bound == 1.0
    assert abs(lhs - np.trace(rho @ rho).real) < 1e-12  # transposition preserves purity


def test_trace_square_bound_coarse():
    M = coarse_m_ref(2, 2)
    rng = split_seed(31)
    for _ in range(20):
        rho = random_density(rng, 4)
        lhs, bound, holds = trace_square_bound([M], rho)
        assert holds and bound == 0.5


def test_trace_square_equality_case(wh3):
    # (theta x theta)(Omega) has purity exactly 1 = bound
    M = transpose_m_ref(3)
    lhs, bound, holds = trace_square_bound([M, M], max_entangled(3))
    assert holds
    assert abs(lhs - 1.0) < 1e-12 and bound == 1.0


def test_trace_square_needs_m():
    M = ch.LinearMap(2, np.eye(4, dtype=complex))
    with pytest.raises(NotProjectiveClass):
        trace_square_bound([M], np.eye(2) / 2)


def test_trace_square_randomized_pairs():
    maps = {
        "transpose": transpose_m_ref(3),
        "weylM": weyl_m_ref(3),
        "pinchM": pinching_m_ref(zoo.block_projectors(3, [2, 1])),
        "coarseM": coarse_m_ref(2, 2),
    }
    pairs = list(itertools.combinations_with_replacement(maps, 2))
    excess = add.trace_square_suite([[maps[a], maps[b]] for a, b in pairs], 300)
    for (a, b), value in zip(pairs, excess):
        assert value <= 1e-9, f"{a}|{b} violated: {value}"


def _trace_square_suite_reference(maps, count, seed=12648430):
    """One random_density and one apply_product_map per state."""
    n = int(np.prod([M.dim for M in maps]))
    rng = split_seed(seed, 3, n)
    bound = float(np.prod([1.0 / M.m for M in maps]))
    worst = -np.inf
    for _ in range(count):
        omega = add.apply_product_map(maps, random_density(rng, n))
        worst = max(worst, float(np.trace(omega @ omega).real) - bound)
    return worst


@pytest.mark.parametrize("count", [1, linalg.BATCH_BLOCK + 1, 300])
def test_trace_square_suite_matches_per_state_reference(count):
    for maps in ([weyl_m_ref(3), coarse_m_ref(2, 2)],
                 [transpose_m_ref(3), pinching_m_ref(zoo.block_projectors(3, [2, 1]))]):
        [excess] = add.trace_square_suite([maps], count)
        assert abs(excess - _trace_square_suite_reference(maps, count)) <= 1e-12


@pytest.mark.parametrize("count", [add.TRACE_SQUARE_BLOCK, add.TRACE_SQUARE_BLOCK + 1])
def test_trace_square_suite_block_boundaries_match_reference(count):
    maps = [weyl_m_ref(3), coarse_m_ref(2, 2)]
    [excess] = add.trace_square_suite([maps], count)
    assert abs(excess - _trace_square_suite_reference(maps, count)) <= 1e-12


def _lemma3_pairs():
    maps = {name: zoo.build(zoo.parse_spec(spec))[1].M for name, spec in cli.LEMMA3_MAPS.items()}
    return [[maps[a], maps[b]] for a, b in itertools.combinations_with_replacement(maps, 2)]


@pytest.mark.parametrize("count", [1, add.TRACE_SQUARE_BLOCK, add.TRACE_SQUARE_BLOCK + 1])
def test_trace_square_suite_groups_pairs_without_changing_them(count):
    # the ten pairs fall in three dimensions (4 x 4 = 16, 3 x 4 = 12, 3 x 3 = 9),
    # so one call draws three state sets where ten one-pair calls draw ten
    pairs = _lemma3_pairs()
    assert sorted({math.prod(M.dim for M in maps) for maps in pairs}) == [9, 12, 16]
    grouped = add.trace_square_suite(pairs, count, seed=7)
    assert len(grouped) == len(pairs)
    for maps, excess in zip(pairs, grouped):
        assert excess == add.trace_square_suite([maps], count, seed=7)[0]
        assert abs(excess - _trace_square_suite_reference(maps, count, seed=7)) <= 1e-12


def test_trace_square_suite_keeps_each_products_bound_and_worst():
    # transposition has m = 1; declared as m = 10 its pair with transposition
    # has the bound 1/10, which random states exceed (m = 2 would still read
    # about -0.236: they sit far below the true bound)
    wrong = ch.LinearMap(3, transpose_m_ref(3).superop, 10)
    good = [[transpose_m_ref(3), transpose_m_ref(3)], [weyl_m_ref(3), transpose_m_ref(3)],
            [weyl_m_ref(3), weyl_m_ref(3)]]
    products = good[:2] + [[wrong, transpose_m_ref(3)]] + good[2:]
    excess = add.trace_square_suite(products, 100)
    assert excess[2] > 0.1
    assert excess[:2] + excess[3:] == [add.trace_square_suite([maps], 100)[0] for maps in good]
    assert max(excess[:2] + excess[3:]) < 0


def test_trace_square_suite_needs_m(monkeypatch):
    draws = []
    draw = add.random_densities
    monkeypatch.setattr(add, "random_densities", lambda *a: draws.append(a) or draw(*a))
    M = ch.LinearMap(3, transpose_m_ref(3).superop, None)
    with pytest.raises(NotProjectiveClass):
        add.trace_square_suite([[M]], 5)
    # refused before the products that come first are drawn for
    with pytest.raises(NotProjectiveClass):
        add.trace_square_suite([[coarse_m_ref(2, 2)], [transpose_m_ref(3), transpose_m_ref(3)],
                                [transpose_m_ref(3), M]], 5)
    assert draws == []


@pytest.mark.parametrize("count", [0, -5])
def test_trace_square_suite_refuses_empty_run(count):
    with pytest.raises(SpecInvalid):
        add.trace_square_suite([[transpose_m_ref(3)]], count)


def test_apply_product_map_over_a_stack():
    maps = [weyl_m_ref(3), coarse_m_ref(2, 2)]
    rhos = np.stack([random_density(split_seed(9, i), 12) for i in range(5)])
    out = add.apply_product_map(maps, rhos)
    for rho, omega in zip(rhos, out):
        assert linalg.herm_norm_inf(omega - add.apply_product_map(maps, rho)) <= 1e-14


def test_purity_expansion_n1(wh3):
    T, form = wh3
    rng = split_seed(32)
    for _ in range(20):
        rho = random_density(rng, 3)
        e, d = add.purity_expansion([(T, form)], rho)
        assert abs(e - d) <= 1e-10


def test_purity_expansion_n2_omega(wh3):
    T, form = wh3
    e, d = add.purity_expansion([(T, form), (T, form)], max_entangled(3))
    assert abs(e - d) <= 1e-12


def test_purity_expansion_mixed_pair(wh3, coarse22):
    T3, f3 = wh3
    Tc, fc = coarse22
    rng = split_seed(33)
    for _ in range(20):
        rho = random_density(rng, 12)
        e, d = add.purity_expansion([(Tc, fc), (T3, f3)], rho)
        assert abs(e - d) <= 1e-10


@pytest.mark.parametrize("names", [("wh3",), ("coarse22", "wh3"), ("wh3", "coarse22", "wh3"), ("casred", "wh3")],
                         ids=["wh3", "coarse_wh3", "wh3_coarse_wh3", "casred_wh3"])
def test_purity_expansion_direct_matches_tensor_channel(names, request):
    # the leg-wise direct purity against the materialized product channel;
    # casimir-reducible has complex Kraus operators
    combo = [request.getfixturevalue(n) for n in names]
    n = math.prod(T.dim_in for T, _ in combo)
    joint = ch.tensor_channels([T for T, _ in combo])
    rng = split_seed(34, n)
    for _ in range(5):
        rho = random_density(rng, n)
        out = joint.apply_raw(rho)
        _, direct = add.purity_expansion(combo, rho)
        assert abs(direct - np.trace(out @ out).real) <= 1e-12


def _purity_expansion_reference(channel_forms, rho):
    """(expansion, direct) with one linalg.partial_trace and one matmul per
    subset, and a matmul for the direct purity."""
    dims = [T.dim_in for T, _ in channel_forms]
    ms = [form.m for _, form in channel_forms]
    N = len(dims)
    omega = add.apply_product_map([form.M for _, form in channel_forms], rho)
    total = 0.0
    for r in range(N + 1):
        for keep in itertools.combinations(range(N), r):
            om_g = linalg.partial_trace(omega, dims, keep)
            term = float(np.trace(om_g @ om_g).real) if keep else 1.0
            term *= math.prod(ms[k] ** 2 for k in keep)
            term *= math.prod(dims[j] - 2 * ms[j] for j in range(N) if j not in keep)
            total += term
    out = add.apply_product_map([T for T, _ in channel_forms], rho)
    return math.prod(1.0 / (d - m) ** 2 for d, m in zip(dims, ms)) * total, float(np.trace(out @ out).real)


@pytest.mark.parametrize("names", [("wh3",), ("coarse22",), ("wh3", "wh3"), ("coarse22", "wh3"), ("wh3", "coarse22"),
                                   ("wh3", "coarse22", "wh3"), ("coarse22", "wh3", "wh3")],
                         ids=["wh3", "coarse", "wh3_wh3", "coarse_wh3", "wh3_coarse", "wh3_coarse_wh3",
                              "coarse_wh3_wh3"])
def test_purity_expansion_matches_the_partial_trace_form(names, request):
    # the one-view traces give every subset term the partial_trace form gives
    combo = [request.getfixturevalue(n) for n in names]
    n = math.prod(T.dim_in for T, _ in combo)
    rng = split_seed(38, n)
    for _ in range(5):
        rho = random_density(rng, n)
        got, want = add.purity_expansion(combo, rho), _purity_expansion_reference(combo, rho)
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12


def test_purity_expansion_needs_form():
    T, _ = zoo.build(zoo.dephasing(2))
    with pytest.raises(NotProjectiveClass):
        add.purity_expansion([(T, None)], np.eye(2) / 2)


def test_pair_purity_bound_consequence(wh3):
    # tr[(T x T)(rho)^2] <= 1/4 for the pair, random pure inputs
    T, _ = wh3
    TT = ch.tensor_channels([T, T])
    rng = split_seed(34)
    for _ in range(300):
        psi = haar_state_vector(rng, 9)
        out = TT.apply_raw(np.outer(psi, psi.conj()))
        assert np.trace(out @ out).real <= 0.25 + 1e-9


def test_apply_product_map_matches_kron_action():
    M1 = transpose_m_ref(2)
    M2 = transpose_m_ref(3)
    rho = random_density(split_seed(35), 6)
    out = add.apply_product_map([M1, M2], rho)
    assert linalg.herm_norm_inf(out - rho.reshape(2, 3, 2, 3).transpose(2, 3, 0, 1).reshape(6, 6)) < 1e-14


def _kron_superop_reference(superops, rho):
    """(S_1 x ... x S_N)(rho) by one Kronecker product of the superoperators,
    which acts on the vec of the input regrouped as (i_1, j_1, ..., i_N, j_N)."""
    N = len(superops)
    d_in = [math.isqrt(S.shape[1]) for S in superops]
    d_out = [math.isqrt(S.shape[0]) for S in superops]
    legs = [a for k in range(N) for a in (k, N + k)]
    K = functools.reduce(np.kron, superops)
    out = []
    for x in rho.reshape(-1, math.prod(d_in), math.prod(d_in)):
        y = K @ x.reshape(d_in + d_in).transpose(legs).reshape(-1)
        out.append(y.reshape([e for e in d_out for _ in (0, 1)]).transpose(np.argsort(legs)))
    m = math.prod(d_out)
    return np.reshape(out, rho.shape[:-2] + (m, m))


@pytest.mark.parametrize("shape", [(), (4,)], ids=["matrix", "stack"])
@pytest.mark.parametrize("dims", [[(3, 3)], [(2, 3)], [(2, 2), (3, 3)], [(2, 3), (3, 2)], [(2, 2), (2, 3), (3, 1)]],
                         ids=["1sq", "1rect", "2sq", "2rect", "3rect"])
def test_apply_product_map_matches_kron_of_superops(dims, shape):
    # factors (d_in, d_out); the superoperators are arbitrary complex matrices
    rng = split_seed(36, len(dims))
    superops = [rng.normal(size=(e * e, d * d)) + 1j * rng.normal(size=(e * e, d * d)) for d, e in dims]
    n = math.prod(d for d, _ in dims)
    rho = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    want = _kron_superop_reference(superops, rho)
    out = add.apply_product_map(superops, rho)
    assert out.shape == want.shape
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_product_map_depends_on_factor_order():
    # negative control: the kernel must put each factor on its own leg
    maps = [weyl_m_ref(3), transpose_m_ref(3)]
    rho = random_density(split_seed(37), 9)
    forward, swapped = add.apply_product_map(maps, rho), add.apply_product_map(maps[::-1], rho)
    assert linalg.herm_norm_inf(forward - _kron_superop_reference([M.superop for M in maps], rho)) <= 1e-14
    assert linalg.herm_norm_inf(forward - swapped) > 0.01


def test_apply_product_map_refuses_bad_shapes():
    with pytest.raises(DimMismatch):
        add.apply_product_map([np.eye(6, dtype=complex)], np.eye(2))  # 6 is not d^2
    with pytest.raises(DimMismatch):
        add.apply_product_map([transpose_m_ref(2), transpose_m_ref(3)], np.eye(5))


@pytest.mark.parametrize("other", ["same", "rebuilt", "different"])
def test_equal_factors_share_one_single_run(wh3, monkeypatch, other):
    T, _ = wh3
    second = {
        "same": T,
        "rebuilt": zoo.build(zoo.WernerHolevo(3))[0],
        "different": zoo.build(zoo.dephasing(3))[0],
    }[other]
    calls = []
    original = add.min_output_entropy

    def counting(T, alpha, cfg=None):
        calls.append(T.name)
        return original(T, alpha, cfg)

    monkeypatch.setattr(add, "min_output_entropy", counting)
    rep = add.additivity_gap([T, second], 2.0, entropy.OptConfig(starts=2))
    joint = f"{T.name} (x) {second.name}"
    if other == "different":
        assert calls == [T.name, second.name, joint]
    else:
        assert calls == [T.name, joint]
        assert rep.singles[0] == rep.singles[1]
