import math
import tracemalloc

import numpy as np
import pytest

from conftest import _closed_by_all_pairs, haar_state_vector, haar_unitary, identity_channel, same_bytes
from projchan import capacity as cap
from projchan import channels as ch
from projchan import entropy, linalg, zoo
from projchan.errors import DimensionOverflow, NotWeaklyCovariant, OptimalStateMismatch, SpecInvalid
from projchan.linalg import dag
from projchan.sampling import complex_normal, flat_simplex, split_seed

CFG = entropy.OptConfig(starts=16)
LOG2_3 = math.log2(3)


def basis_state(d, i):
    return ch.DensityMatrix.from_vector(np.eye(d)[:, i])


def test_ensemble_validation():
    states = (basis_state(2, 0), basis_state(2, 1))
    e = cap.Ensemble([0.5, 0.5], states)
    assert e.dim == 2
    with pytest.raises(SpecInvalid):
        cap.Ensemble([0.7, 0.7], states)


def test_holevo_chi_identity_qubit():
    e = cap.Ensemble([0.5, 0.5], (basis_state(2, 0), basis_state(2, 1)))
    assert abs(cap.holevo_chi(identity_channel(2), e) - 1.0) < 1e-12


def test_holevo_chi_single_state_zero(wh3):
    T, _ = wh3
    e = cap.Ensemble([1.0], (basis_state(3, 0),))
    assert abs(cap.holevo_chi(T, e)) < 1e-12


def test_holevo_chi_wh3_orbit(wh3):
    T, _ = wh3
    e = cap.Ensemble([1 / 3] * 3, tuple(basis_state(3, i) for i in range(3)))
    assert abs(cap.holevo_chi(T, e) - (LOG2_3 - 1.0)) < 1e-12


def test_chi_entropy_bounds(wh3):
    T, _ = wh3
    rng = split_seed(40)
    for _ in range(10):
        size = int(rng.integers(2, 9))
        probs = rng.exponential(size=size)
        probs /= probs.sum()
        states = tuple(ch.DensityMatrix.from_vector(
            rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(size))
        chi = cap.holevo_chi(T, cap.Ensemble(probs, states))
        assert -1e-12 <= chi <= LOG2_3 + 1e-12


@pytest.mark.parametrize("budget", [linalg.ADJOINT_BLOCK_ENTRIES, 1], ids=["one_block", "per_factor"])
def test_finite_group_closure_is_up_to_phase(monkeypatch, budget):
    # {I, X, XZ, Z} is closed only up to phase (X Z = -i Y, Z X = i Y); the
    # phases drop out of the twirl, so it averages to the full Pauli twirl and
    # gives wh:d=2 its capacity of 1 bit, with the capacity search's adjoint
    # Kraus images taken in one block or one per factor
    monkeypatch.setattr(linalg, "ADJOINT_BLOCK_ENTRIES", budget)
    X, Z = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)
    group = cap.FiniteGroup((np.eye(2), X, X @ Z, Z))
    A = split_seed(43).standard_normal((2, 2, 2)) @ [1, 1j]
    assert np.abs(group.average(A) - np.trace(A) / 2 * np.eye(2)).max() <= 1e-15
    spec = zoo.WernerHolevo(2)
    T, form = zoo.build(spec)
    rho0, _, conjugate = zoo.auto_group(spec, form)
    rep = cap.capacity_weakcov(T, rho0, group, conjugate, CFG)
    assert abs(rep.capacity - 1.0) <= 1e-12
    with pytest.raises(SpecInvalid, match="group element 2 is not unitary"):
        cap.FiniteGroup((np.eye(2), X, 1.1 * Z))


def test_capacity_of_a_non_closed_covariance_family_is_the_closed_form(wh3):
    # W^a D_ab with random diagonal unitaries D_ab is no group, yet each
    # member is a covariance of wh:d=3 and the orbit of |0><0| averages to
    # I/3, which is all the capacity formula reads
    T, form = wh3
    rho0, _, conjugate = zoo.auto_group(zoo.WernerHolevo(3), form)
    phases = np.exp(2j * np.pi * split_seed(41).uniform(size=(9, 3)))
    us = zoo.heisenberg_weyl_unitaries(3) * phases[:, None, :]
    assert not _closed_by_all_pairs(us)
    rep = cap.capacity_weakcov(T, rho0, cap.FiniteGroup(us), conjugate, CFG)
    assert abs(rep.capacity - math.log2(3 / 2)) <= 1e-12


def test_heisenberg_weyl_less_one_element_fails_the_orbit_average_gate(wh3):
    T, form = wh3
    rho0, _, conjugate = zoo.auto_group(zoo.WernerHolevo(3), form)
    for i in range(9):
        group = cap.FiniteGroup(np.delete(zoo.heisenberg_weyl_unitaries(3), i, axis=0))
        with pytest.raises(NotWeaklyCovariant, match="orbit average residual"):
            cap.capacity_weakcov(T, rho0, group, conjugate, CFG)


def test_orbit_average_weyl_phases_exact():
    spec = zoo.WeylShift(3)
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    avg, resid = cap.orbit_average(T, rho0, group, conjugate)
    assert resid <= 1e-12


def test_orbit_average_identity_group(wh3):
    T, _ = wh3
    g = cap.FiniteGroup((np.eye(3, dtype=complex),))
    rho0 = basis_state(3, 0)
    avg, resid = cap.orbit_average(T, rho0, g, False)
    out = T.apply_raw(rho0.mat)
    assert linalg.herm_norm_inf(avg.mat - out) < 1e-14
    assert abs(resid - linalg.herm_norm_inf(out - np.eye(3) / 3)) < 1e-14


def test_orbit_average_su2_euler_casimir_reducible(casred):
    T, form = casred
    spec = zoo.CasimirReducibleExample()
    rho0, group, conjugate = zoo.auto_group(spec, form)
    avg, resid = cap.orbit_average(T, rho0, group, conjugate)
    assert resid <= 1e-12


def test_orbit_average_idempotent_finite_group():
    spec = zoo.WeylShift(3)
    T, form = zoo.build(spec)
    rho0, group, _ = zoo.auto_group(spec, form)
    once = group.average(T.apply_raw(rho0.mat))
    twice = group.average(once)
    assert linalg.herm_norm_inf(once - twice) <= 1e-12


def test_weak_covariance_weyl():
    spec = zoo.WeylShift(3)
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    cov, avg = cap.verify_weak_covariance(T, rho0, group, conjugate)
    assert cov <= 1e-12 and avg <= 1e-12


@pytest.mark.parametrize("spec", [zoo.WeylShift(3), zoo.WeylShift(4), zoo.CoarseGraining(2, 2),
                                  zoo.CasimirIrreducible(3)],
                         ids=["weyl3", "weyl4", "coarse22", "casimir3"])
def test_weak_covariance_fails_with_the_conjugation_flipped(spec):
    """The conjugation flag is a real part of the covariance: flipped, the
    on-orbit defect is macroscopic (0.289, 0.167, 0.490 and 0.446 here).
    wh:d=3, casimir-reducible, pinch and diag cannot serve as controls: at
    their rho0 either value of the flag leaves a defect of at most 1.1e-15."""
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    cov, _ = cap.verify_weak_covariance(T, rho0, group, not conjugate)
    assert cov > 0.1


def test_weak_covariance_pinching():
    spec = zoo.Pinching(3, zoo.block_projectors(3, [2, 1]))
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    cov, avg = cap.verify_weak_covariance(T, rho0, group, conjugate)
    assert cov <= 1e-12 and avg <= 1e-12


def test_weak_covariance_stretching_fails():
    spec = zoo.Stretching(3, 0.5)
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    cov, avg = cap.verify_weak_covariance(T, rho0, group, conjugate)
    assert cov > 0.1  # reported, not an error


def test_su2_euler_reuses_eigendecompositions(monkeypatch):
    tw = cap.SU2Euler(tuple(zoo.su2_generators(3)))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A) or eigh(A))
    U = tw.element(0.3, 1.1, 2.0)
    tw.average(np.eye(3, dtype=complex) / 3)
    assert calls == []
    assert linalg.herm_norm_inf(dag(U) @ U - np.eye(3)) < 1e-12


@pytest.mark.parametrize("gens", [zoo.su2_generators(3), zoo.su2_generators(5),
                                  zoo.casimir_reducible_complementary_generators()],
                         ids=["casimir3", "casimir5", "casred"])
def test_su2_euler_accepts_su2_representations(gens):
    cap.SU2Euler(tuple(gens))


def test_su2_euler_rejects_scaled_generators():
    # 0.7 J_k break [J1, J2] = i J3 (by 0.21); their closed-form "average"
    # of diag(1, 0, 0) moves by 0.10 when applied again
    with pytest.raises(SpecInvalid):
        cap.SU2Euler(tuple(0.7 * J for J in zoo.su2_generators(3)))


def test_su2_euler_rejects_non_hermitian_generators():
    J1, J2, J3 = zoo.su2_generators(3)
    with pytest.raises(SpecInvalid):
        cap.SU2Euler((J1 + 1e-6j * np.eye(3), J2, J3))


def test_su2_euler_average_accepts_real_input(casred):
    _, form = casred
    _, group, _ = zoo.auto_group(zoo.CasimirReducibleExample(), form)
    real = np.eye(4) / 4
    avg = group.average(real)
    assert np.array_equal(avg, group.average(real.astype(complex)))
    assert linalg.herm_norm_inf(avg - real) <= 1e-12


def _commutant_projection(Js, X):
    """Hilbert-Schmidt projection of X onto the commutant of the J's, from the
    null space of sum_k ad_{J_k}^+ ad_{J_k} on row-major vec(X): an O(d^6)
    reference for the exact SU(2) twirl."""
    d = X.shape[0]
    eye = np.eye(d)
    ads = [np.kron(J, eye) - np.kron(eye, J.T) for J in Js]
    w, V = np.linalg.eigh(sum(dag(A) @ A for A in ads))
    B = V[:, w < 1e-8]
    return (B @ (dag(B) @ X.reshape(-1))).reshape(d, d)


@pytest.mark.parametrize("gens", [zoo.su2_generators(d) for d in (2, 3, 5, 8, 16)]
                         + [zoo.casimir_reducible_complementary_generators()],
                         ids=["casimir2", "casimir3", "casimir5", "casimir8", "casimir16", "casred"])
def test_su2_euler_average_is_commutant_projection(gens):
    d = gens[0].shape[0]
    rng = split_seed(41, d)
    tw = cap.SU2Euler(tuple(gens))
    for _ in range(3):
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.abs(tw.average(X) - _commutant_projection(gens, X)).max() <= 1e-12


@pytest.mark.parametrize("n,D", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("conjugate", [False, True])
def test_block_unitary_haar_average_matches_weyl_design(n, D, conjugate):
    # the Heisenberg-Weyl group is a unitary 1-design, so its twirl on the
    # first factor equals the Haar twirl
    weyl = cap.FiniteGroup(tuple(np.kron(U.conj() if conjugate else U, np.eye(D))
                                 for U in zoo.heisenberg_weyl_unitaries(n)))
    tw = cap.BlockUnitaryHaar(n, D)
    rng = split_seed(42, n, D)
    X = rng.standard_normal((n * D, n * D)) + 1j * rng.standard_normal((n * D, n * D))
    haar = tw.average(X.conj()).conj() if conjugate else tw.average(X)
    assert np.abs(haar - weyl.average(X)).max() <= 1e-14


@pytest.mark.parametrize("group", [cap.SU2Euler(tuple(zoo.su2_generators(3))), cap.BlockUnitaryHaar(2, 2)],
                         ids=["su2_euler", "block_unitary_haar"])
def test_sampled_elements_follow_the_seed(group):
    first, again, other = (group.elements(cap.COVARIANCE_SAMPLES, seed) for seed in (5, 5, 6))
    assert len(first) == cap.COVARIANCE_SAMPLES
    assert all(np.array_equal(A, B) for A, B in zip(first, again))
    assert all(np.abs(A - C).max() > 1e-3 for A, C in zip(first, other))


@pytest.mark.parametrize("seed", [5, 12648430])
def test_sampled_elements_equal_the_per_draw_lists(seed):
    su2 = cap.SU2Euler(tuple(zoo.su2_generators(3)))
    rng = split_seed(seed, 13)
    want = []
    for _ in range(cap.COVARIANCE_SAMPLES):
        x1 = rng.uniform(0, 4 * np.pi)
        x2 = float(np.arccos(1 - 2 * rng.uniform()))
        want.append(su2.element(x1, x2, rng.uniform(0, 2 * np.pi)))
    assert np.array_equal(su2.elements(cap.COVARIANCE_SAMPLES, seed), np.array(want))
    rng = split_seed(seed, 11, 3, 2)
    want = [np.kron(haar_unitary(rng, 3), np.eye(2)) for _ in range(cap.COVARIANCE_SAMPLES)]
    assert np.array_equal(cap.BlockUnitaryHaar(3, 2).elements(cap.COVARIANCE_SAMPLES, seed), np.array(want))


@pytest.mark.parametrize("spec", ["wh:d=3", "weyl:d=3", "stretch:d=3,lambda=0.5", "coarse:n=2,D=2", "casimir:d=3",
                                  "casimir-reducible"])
def test_weak_covariance_matches_the_per_element_loop(spec):
    s = zoo.parse_spec(spec)
    T, form = zoo.build(s)
    rho0, group, conjugate = zoo.auto_group(s, form)
    out0, resid = T.apply_raw(rho0.mat), 0.0
    for A in group.elements(cap.COVARIANCE_SAMPLES, 12648430):
        B = A.conj() if conjugate else A
        resid = max(resid, linalg.herm_norm_inf(T.apply_raw(A @ rho0.mat @ dag(A)) - B @ out0 @ dag(B)))
    cov, _ = cap.verify_weak_covariance(T, rho0, group, conjugate)
    assert abs(cov - resid) <= 1e-15


def test_weak_covariance_casimir32_average_exact():
    spec = zoo.CasimirIrreducible(32)
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    cov, avg = cap.verify_weak_covariance(T, rho0, group, conjugate)
    assert cov <= 1e-12 and avg <= 1e-12


def test_capacity_refuses_block_haar_pair_for_identity():
    # every V (x) 1 commutes with the identity channel, but the orbit of
    # |0><0| on C^4 averages to I/2 (x) |0><0|, not I/4: the capacity is
    # 2 bits, not the 1 bit the formula would give
    tw = cap.BlockUnitaryHaar(2, 2)
    with pytest.raises(NotWeaklyCovariant, match="orbit average"):
        cap.capacity_weakcov(identity_channel(4), basis_state(4, 0), tw, False, CFG)


CLOSED_FORMS = [
    (zoo.WernerHolevo(3), LOG2_3 - 1.0, 1e-6),
    (zoo.WeylShift(3), LOG2_3 - 1.0, 1e-6),
    (zoo.WeylShift(4), 2.0 - LOG2_3, 1e-6),
    (zoo.Pinching(3, zoo.block_projectors(3, [2, 1])), LOG2_3 - 1.0, 1e-6),
    (zoo.CasimirReducibleExample(), 1.0, 1e-6),
    (zoo.CoarseGraining(2, 2), 1.0, 1e-6),
    (zoo.dephasing(2), 1.0, 1e-6),
    (zoo.dephasing(3), LOG2_3, 1e-6),
]


@pytest.mark.parametrize("spec,want,tol", CLOSED_FORMS, ids=lambda x: str(x)[:24])
def test_capacity_closed_forms(spec, want, tol):
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    rep = cap.capacity_weakcov(T, rho0, group, conjugate, CFG)
    assert abs(rep.capacity - want) <= tol
    assert abs(rep.capacity - (rep.max_term - rep.min_term)) < 1e-15
    assert rep.max_term <= math.log2(T.dim_out) + 1e-12


def test_capacity_consistency_min_term(wh3):
    spec = zoo.WernerHolevo(3)
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    rep = cap.capacity_weakcov(T, rho0, group, conjugate, CFG)
    s0 = entropy.renyi_entropy(ch.apply(T, rho0), 1.0)
    assert abs(rep.min_term - s0) <= 1e-6


def test_capacity_refuses_stretching():
    spec = zoo.Stretching(3, 0.5)
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    with pytest.raises(NotWeaklyCovariant):
        cap.capacity_weakcov(T, rho0, group, conjugate, CFG)


def test_capacity_refuses_suboptimal_rho0(wh3):
    # a mixed rho0 cannot achieve nu_1
    spec = zoo.WernerHolevo(3)
    T, form = zoo.build(spec)
    _, group, conjugate = zoo.auto_group(spec, form)
    bad = ch.DensityMatrix(3, np.eye(3) / 3)
    with pytest.raises(OptimalStateMismatch):
        cap.capacity_weakcov(T, bad, group, conjugate, CFG)


def test_chi_product_bound_identity():
    T = identity_channel(2)
    excess = cap.chi_product_bound_check(T, 1.0, 25, CFG)
    assert excess <= 1e-9


def test_chi_product_bound_wh3(wh3):
    T, _ = wh3
    excess = cap.chi_product_bound_check(T, LOG2_3 - 1.0, 50, CFG)
    assert excess <= 1e-6


def _chi_product_bound_reference(T, capacity, trials, cfg):
    """One DensityMatrix, apply_raw and renyi_entropy per ensemble member."""
    T2 = ch.tensor_channels([T, T])
    d2 = T.dim_in ** 2
    max_chi = -np.inf
    for trial in range(trials):
        rng = split_seed(cfg.seed, 17, trial)
        size = int(rng.integers(2, T.dim_in ** 4 + 1))
        probs = flat_simplex(rng, size)
        outputs = [T2.apply_raw(ch.DensityMatrix.from_vector(haar_state_vector(rng, d2)).mat)
                   for _ in range(size)]
        avg = sum(p * out for p, out in zip(probs, outputs))
        chi = entropy.renyi_entropy(ch.DensityMatrix(T2.dim_out, avg), 1.0) - sum(
            p * entropy.renyi_entropy(ch.DensityMatrix(T2.dim_out, out), 1.0) for p, out in zip(probs, outputs))
        max_chi = max(max_chi, chi)
    return float(max_chi - 2.0 * capacity)


@pytest.mark.parametrize("trials", sorted({1, 2, 3, cap.CHI_GROUP, cap.CHI_GROUP + 1, 17, 300}))
@pytest.mark.parametrize("spec", [zoo.WernerHolevo(3), zoo.WeylShift(3)], ids=["wh3", "weyl3"])
def test_chi_product_bound_matches_per_state_reference(spec, trials):
    T, _ = zoo.build(spec)
    batched = cap.chi_product_bound_check(T, LOG2_3 - 1.0, trials, CFG)
    assert abs(batched - _chi_product_bound_reference(T, LOG2_3 - 1.0, trials, CFG)) <= 1e-12


@pytest.mark.parametrize("trials", [0, -1])
def test_chi_product_bound_refuses_empty_run(wh3, trials):
    with pytest.raises(SpecInvalid):
        cap.chi_product_bound_check(wh3[0], LOG2_3 - 1.0, trials, CFG)


@pytest.mark.parametrize("spec", [zoo.WernerHolevo(3), zoo.WeylShift(3)], ids=["wh3", "weyl3"])
def test_chi_product_bound_does_not_depend_on_the_group_size(monkeypatch, spec):
    # 19 trials leave a partial last group at every size
    T, _ = zoo.build(spec)
    got = []
    for group in (1, 2, 4, 8):
        monkeypatch.setattr(cap, "CHI_GROUP", group)
        got.append(cap.chi_product_bound_check(T, LOG2_3 - 1.0, 19, CFG))
    assert max(got) - min(got) <= 1e-15


def test_chi_trials_draw_their_own_streams(monkeypatch, wh3):
    # trial t draws what split_seed(seed, 17, t) draws, byte for byte
    drawn = []

    def recorded(fn):
        def draw(*args):
            drawn.append(fn(*args))
            return drawn[-1]
        return draw

    monkeypatch.setattr(cap, "flat_simplex", recorded(flat_simplex))
    monkeypatch.setattr(cap, "complex_normal", recorded(complex_normal))
    cap.chi_product_bound_check(wh3[0], LOG2_3 - 1.0, 200, CFG)
    assert len(drawn) == 2 * 200
    for trial in (0, 1, 199):
        rng = split_seed(CFG.seed, 17, trial)
        size = int(rng.integers(2, 3 ** 4 + 1))
        assert same_bytes(drawn[2 * trial], flat_simplex(rng, size))
        assert same_bytes(drawn[2 * trial + 1], complex_normal(rng, size, 9))


def test_chi_product_bound_refuses_an_oversize_group(monkeypatch):
    # wh:d=8: a group of trials may draw 8^4 inputs each, whose outputs on
    # T x T hold 8^4 * 8^4 = DIM_CAP^2 entries (256 MiB) per trial; refused
    # before any trial generator is made
    T, _ = zoo.build(zoo.WernerHolevo(8))
    draws = []
    monkeypatch.setattr(cap, "split_seeds", lambda *args: draws.append(args))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow):
            cap.chi_product_bound_check(T, 1.0, cap.CHI_GROUP, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == []
    assert peak < 1 << 20


def test_chi_product_bound_cap_counts_the_group(monkeypatch, wh3):
    # wh:d=3: a trial draws at most 81 inputs of 81 entries each, so a group
    # of 2 trials can hold 13122 entries: over 114^2, within 115^2
    T, _ = wh3
    monkeypatch.setattr(linalg, "DIM_CAP", 114)
    with pytest.raises(DimensionOverflow):
        cap.chi_product_bound_check(T, LOG2_3 - 1.0, 2, CFG)
    cap.chi_product_bound_check(T, LOG2_3 - 1.0, 1, CFG)
    monkeypatch.setattr(linalg, "DIM_CAP", 115)
    cap.chi_product_bound_check(T, LOG2_3 - 1.0, 2, CFG)


def test_chi_product_bound_can_fail(wh3):
    # the best random chi sits 0.47 bits under 2C for wh:d=3; a capacity
    # lowered by 0.3 bits puts 2C 0.6 bits lower, so the check must report it
    T, _ = wh3
    assert cap.chi_product_bound_check(T, LOG2_3 - 1.0 - 0.3, 200, CFG) > 0.1
