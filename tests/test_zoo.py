import numpy as np
import pytest

from conftest import (_closed_by_all_pairs, flip, haar_state_vector, heisenberg_weyl_unitaries_ref, kraus_ref,
                      m_mismatch, m_ref, permute_systems, phase_unitaries_ref, same_bytes, su2_generators_ref,
                      transpose_m_ref, weyl_m_ref, weyl_unitaries_ref, wh_kraus_ref)
from projchan import additivity as add
from projchan import capacity as cap
from projchan import channels as ch
from projchan import linalg, zoo
from projchan.errors import ParseError, SpecInvalid
from projchan.linalg import dag
from projchan.sampling import random_density, split_seed

ALL_SPECS = [
    zoo.WernerHolevo(3),
    zoo.WernerHolevo(4),
    zoo.Stretching(3, 0.5),
    zoo.WeylShift(3),
    zoo.WeylShift(4),
    zoo.Pinching(3, zoo.block_projectors(3, [2, 1])),
    zoo.CasimirIrreducible(3),
    zoo.CasimirReducibleExample(),
    zoo.ShiftsPinching(4, (1, 2)),
    zoo.CoarseGraining(2, 2),
    zoo.dephasing(2),
    zoo.dephasing(3),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__ + str(getattr(s, "d", "")))
def test_every_variant_validates(spec):
    T, form = zoo.build(spec)
    assert ch.validate(T).valid
    rng = split_seed(10, T.dim_in)
    for _ in range(100):
        out = T.apply_raw(random_density(rng, T.dim_in))
        assert abs(np.trace(out).real - 1.0) < 1e-12
    if form is not None:
        P = form.projector
        assert linalg.herm_norm_inf(P @ P - P) <= 1e-8
        assert abs(np.trace(P).real - form.m) <= 1e-8


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__ + str(getattr(s, "d", "")))
def test_auto_group_witness(spec):
    T, form = zoo.build(spec)
    if isinstance(spec, zoo.ShiftsPinching):
        with pytest.raises(SpecInvalid):
            zoo.auto_group(spec, form)
        return
    rho0, group, conjugate = zoo.auto_group(spec, form)
    want = form.rho0.mat if form is not None else np.diag(np.eye(T.dim_in)[0]).astype(complex)
    assert np.array_equal(rho0.mat, want)
    assert isinstance(group, (cap.FiniteGroup, cap.SU2Euler, cap.BlockUnitaryHaar))
    assert isinstance(conjugate, bool)


@pytest.mark.parametrize("d", range(2, 6))
@pytest.mark.parametrize("family", ["wh:d={d}", "stretch:d={d},lambda=0.5", "weyl:d={d}", "pinch:d={d},blocks=1+{e}",
                                    "diag:d={d}"])
def test_auto_group_finite_groups_are_closed(family, d):
    # FiniteGroup takes any unitary family; the zoo's are groups up to phase.
    # Without its identity no family of two or more members is closed.
    spec = zoo.parse_spec(family.format(d=d, e=d - 1))
    _, group, _ = zoo.auto_group(spec, zoo.build(spec)[1])
    us = group.unitaries
    assert _closed_by_all_pairs(us)
    assert not _closed_by_all_pairs(np.delete(us, np.argmax(np.abs(np.trace(us, axis1=1, axis2=2))), axis=0))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__ + str(getattr(s, "d", "")))
def test_builder_sizes_its_kraus_stack_first(spec, monkeypatch):
    seen = []
    monkeypatch.setattr(ch, "require_stack_fits", lambda *size: seen.append(size))
    T, _ = zoo.build(spec)
    [(count, d_out, d_in)] = seen
    # pinching counts its products before it drops the zero ones
    assert count >= len(T.kraus) and (d_out, d_in) == (T.dim_out, T.dim_in)


@pytest.mark.parametrize("spec", ALL_SPECS + [zoo.Stretching(4, 0.3), zoo.Pinching(4, zoo.block_projectors(4, [1, 0, 3])),
                                  zoo.ShiftsPinching(6, (1, 2, 5)), zoo.CoarseGraining(3, 2), zoo.CasimirIrreducible(5)],
                         ids=lambda s: type(s).__name__ + str(getattr(s, "d", "")))
def test_kraus_stack_matches_the_per_operator_reference(spec):
    assert same_bytes(zoo.build(spec)[0].kraus, kraus_ref(spec))


@pytest.mark.parametrize("d", range(2, 17))
def test_operator_stacks_match_the_per_operator_references(d):
    assert same_bytes(zoo.weyl_unitaries(d), weyl_unitaries_ref(d))
    assert same_bytes(zoo.phase_unitaries(d), phase_unitaries_ref(d))
    assert same_bytes(zoo.heisenberg_weyl_unitaries(d), heisenberg_weyl_unitaries_ref(d))
    assert same_bytes(zoo.su2_generators(d), su2_generators_ref(d))
    assert same_bytes(zoo._wh_kraus(d), wh_kraus_ref(d))


@pytest.mark.parametrize("diag,pair", [((1, 1, 0), (0, 1)), ((1, 0, 0), (1, 1))], ids=["overlap", "not_idempotent"])
def test_pinching_names_the_first_failing_pair(diag, pair):
    # both resolve the identity: diag(1,1,0) + diag(0,1,0) + diag(0,-1,1), whose
    # first product off zero is P0 P1; diag(1,0,0) + diag(0,2,1) + diag(0,-1,0),
    # where P1 P1 != P1 comes first
    P0 = np.diag(diag).astype(complex)
    P1 = np.diag((0, 1, 0) if pair == (0, 1) else (0, 2, 1)).astype(complex)
    projs = (P0, P1, np.eye(3) - P0 - P1)
    with pytest.raises(SpecInvalid, match=f"projections {pair[0]},{pair[1]} are not orthogonal idempotents"):
        zoo.build(zoo.Pinching(3, projs))


def test_block_projectors_refuse_negative_sizes():
    with pytest.raises(SpecInvalid):
        zoo.block_projectors(3, [4, -1])


def test_build_rejects_unknown_spec():
    with pytest.raises(SpecInvalid):
        zoo.build(object())


def test_wh3_choi_spectrum(wh3):
    T, form = wh3
    w = np.sort(np.linalg.eigvalsh(T.choi))
    assert np.allclose(w, [0] * 6 + [1 / 3] * 3, atol=1e-12)
    assert form.m == 1


def test_weyl_witness_fixed_point():
    T, form = zoo.build(zoo.WeylShift(3))
    out = add.apply_product_map([form.M], form.rho0.mat)
    assert linalg.herm_norm_inf(out - form.rho0.mat) < 1e-12


def test_stretching_witness():
    T, form = zoo.build(zoo.Stretching(3, 0.7))
    # rho0 = omega^T maps to omega itself, a rank-1 projection
    out = add.apply_product_map([form.M], form.rho0.mat)
    assert linalg.herm_norm_inf(out @ out - out) < 1e-12


def test_stretching_needs_pure_omega():
    with pytest.raises(SpecInvalid):
        zoo.build(zoo.Stretching(3, 0.5, omega=np.eye(3) / 3))


def test_pinching_invalid_resolution():
    P1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(SpecInvalid):
        zoo.build(zoo.Pinching(3, (P1,)))


def test_diagonal_invalid_normalization():
    with pytest.raises(SpecInvalid):
        zoo.build(zoo.Diagonal(2, ((1.0, 0.0), (0.5, 0.5))))


def test_su2_generators():
    Jx, Jy, Jz = zoo.su2_generators(2)
    # Pauli over two
    assert np.allclose(Jx, np.array([[0, 1], [1, 0]]) / 2)
    assert np.allclose(Jy, np.array([[0, -1j], [1j, 0]]) / 2)
    assert np.allclose(Jz, np.diag([0.5, -0.5]))
    for d in (2, 3, 4, 5):
        J = zoo.su2_generators(d)
        lam = (d - 1) * (d + 1) / 4
        assert linalg.herm_norm_inf(sum(Jk @ Jk for Jk in J) - lam * np.eye(d)) < 1e-10
        assert linalg.herm_norm_inf(J[0] @ J[1] - J[1] @ J[0] - 1j * J[2]) < 1e-12
        assert linalg.herm_norm_inf(J[1] @ J[2] - J[2] @ J[1] - 1j * J[0]) < 1e-12


def test_casimir_d3_min_entropy_matches_wh3(wh3):
    from projchan import entropy

    T3, _ = wh3
    Tc, _ = zoo.build(zoo.CasimirIrreducible(3))
    cfg = entropy.OptConfig(starts=8)
    for alpha in (1.0, 2.0):
        a = entropy.min_output_entropy(Tc, alpha, cfg).value
        b = entropy.min_output_entropy(T3, alpha, cfg).value
        assert abs(a - b) <= 1e-6


def test_casimir_d3_matches_wh3_spectrally(wh3):
    # same output spectra (hence identical nu_alpha); entrywise the two maps
    # differ in the computational basis, which we record here
    T3, _ = wh3
    Tc, _ = zoo.build(zoo.CasimirIrreducible(3))
    rng = split_seed(11)
    max_entry_diff = 0.0
    for _ in range(20):
        rho = random_density(rng, 3)
        a = np.linalg.eigvalsh(Tc.apply_raw(rho))
        b = np.linalg.eigvalsh(T3.apply_raw(rho))
        assert np.allclose(a, b, atol=1e-10)
        max_entry_diff = max(max_entry_diff, linalg.herm_norm_inf(Tc.apply_raw(rho) - T3.apply_raw(rho)))
    print(f"\ncasimir(3) vs wh(3): entrywise max difference {max_entry_diff:.3f} (spectra agree)")
    assert max_entry_diff > 0.1  # genuinely different matrices, equal spectra


def test_casimir_reducible_generators():
    Js = zoo.casimir_reducible_generators()
    for J in Js:
        assert linalg.herm_norm_inf(J - dag(J)) < 1e-14
    assert linalg.herm_norm_inf(sum(J @ J for J in Js) - 0.75 * np.eye(4)) < 1e-14
    # these printed generators close with the opposite orientation
    J1, J2, J3 = Js
    assert linalg.herm_norm_inf(J1 @ J2 - J2 @ J1 + 1j * J3) < 1e-14


def test_casimir_reducible_output(casred):
    T, form = casred
    rho0 = form.rho0
    out = T.apply_raw(rho0.mat)
    # a normalized rank-2 projection with unit entropy; the support mixes the
    # printed basis (it is diag(0,0,1/2,1/2) only after a basis rotation)
    w = np.sort(np.linalg.eigvalsh(out))
    assert np.allclose(w, [0, 0, 0.5, 0.5], atol=1e-12)
    P = 2 * out
    assert linalg.herm_norm_inf(P @ P - P) < 1e-12
    diag_form = np.diag([0.0, 0.0, 0.5, 0.5])
    assert linalg.herm_norm_inf(out - diag_form) > 0.2
    # outputs commute with the printed representation
    for J in zoo.casimir_reducible_generators():
        assert linalg.herm_norm_inf(out @ J - J @ out) < 1e-14
    assert form.m == 2


def test_casimir_reducible_unital(casred):
    T, _ = casred
    assert linalg.herm_norm_inf(T.apply_raw(np.eye(4) / 4) - np.eye(4) / 4) < 1e-14


def test_casimir_reducible_complementary_rep(casred):
    T, _ = casred
    Ks = zoo.casimir_reducible_complementary_generators()
    Js = zoo.casimir_reducible_generators()
    for K in Ks:
        for J in Js:
            assert linalg.herm_norm_inf(K @ J - J @ K) < 1e-12
    assert linalg.herm_norm_inf(sum(K @ K for K in Ks) - 0.75 * np.eye(4)) < 1e-12
    assert linalg.herm_norm_inf(Ks[0] @ Ks[1] - Ks[1] @ Ks[0] - 1j * Ks[2]) < 1e-12
    # the channel is exactly covariant under the complementary rotations
    rng = split_seed(12)
    for _ in range(5):
        x = rng.uniform(0, 2 * np.pi, size=3)
        w, V = np.linalg.eigh(Ks[2])
        U = (V * np.exp(1j * x[0] * w)) @ dag(V)
        w2, V2 = np.linalg.eigh(Ks[1])
        U = U @ (V2 * np.exp(1j * x[1] * w2)) @ dag(V2)
        rho = random_density(rng, 4)
        lhs = T.apply_raw(U @ rho @ dag(U))
        rhs = U @ T.apply_raw(rho) @ dag(U)
        assert linalg.herm_norm_inf(lhs - rhs) < 1e-12


def test_coarse_graining_choi(coarse22):
    T, form = coarse22
    w = np.sort(np.linalg.eigvalsh(T.choi))
    assert np.allclose(w, [0.0] * 12 + [0.25] * 4, atol=1e-12)
    # entrywise: Choi on ordering (n1 D1 n2 D2) matches
    # (I/d - F_n (x) I_{D^2} / d)/(d - D) with the flip on (n1, n2)
    F2 = flip(2)
    formula = (np.eye(16) / 4 - np.kron(F2, np.eye(4)) / 4) / 2
    formula = permute_systems(formula, [2, 2, 2, 2], [0, 2, 1, 3])
    assert linalg.herm_norm_inf(T.choi - formula) < 1e-12
    assert form.m == 2


def test_shiftpinch_entanglement_breaking_form():
    # matches the separable sum over basis states
    d, K = 4, (1, 2)
    T, form = zoo.build(zoo.ShiftsPinching(d, K))
    W = zoo.weyl_unitaries(d)
    rng = split_seed(13)
    rho = random_density(rng, d)
    rest = [k for k in range(1, d + 1) if k not in K]
    expect = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for k in rest:
            proj = dag(W[k - 1]) @ np.diag(np.eye(d)[i]) @ W[k - 1]
            expect += rho[i, i] * proj.astype(complex) / (d - len(K))
    assert linalg.herm_norm_inf(T.apply_raw(rho) - expect) < 1e-12
    assert form.m == 2


def test_dephasing_has_pure_output():
    T, _ = zoo.build(zoo.dephasing(2))
    e0 = np.diag([1.0, 0.0]).astype(complex)
    assert linalg.herm_norm_inf(T.apply_raw(e0) - e0) < 1e-14


def test_heisenberg_weyl_family():
    us = zoo.heisenberg_weyl_unitaries(3)
    assert len(us) == 9
    # twirl of anything is maximally mixed
    rho = random_density(split_seed(14), 3)
    avg = sum(U @ rho @ dag(U) for U in us) / 9
    assert linalg.herm_norm_inf(avg - np.eye(3) / 3) < 1e-12


# --- spec-string grammar ---


@pytest.mark.parametrize(
    "text,expected",
    [
        ("wh:d=3", zoo.WernerHolevo(3)),
        ("weyl:d=4", zoo.WeylShift(4)),
        ("casimir:d=3", zoo.CasimirIrreducible(3)),
        ("casimir-reducible", zoo.CasimirReducibleExample()),
        ("coarse:n=2,D=2", zoo.CoarseGraining(2, 2)),
        ("shiftpinch:d=4,K=1,2", zoo.ShiftsPinching(4, (1, 2))),
    ],
)
def test_parse_spec(text, expected):
    assert zoo.parse_spec(text) == expected


def test_parse_spec_stretch_and_pinch():
    s = zoo.parse_spec("stretch:d=3,lambda=0.5")
    assert isinstance(s, zoo.Stretching) and s.d == 3 and s.lam == 0.5
    p = zoo.parse_spec("pinch:d=3,blocks=2+1")
    assert isinstance(p, zoo.Pinching) and len(p.projections) == 2
    assert np.allclose(p.projections[0], np.diag([1, 1, 0]))


def test_parse_spec_diag_dephasing():
    s = zoo.parse_spec("diag:d=2")
    T, _ = zoo.build(s)
    assert ch.validate(T).valid


def test_parse_spec_errors():
    with pytest.raises(ParseError):
        zoo.parse_spec("nope:d=3")
    with pytest.raises(ParseError):
        zoo.parse_spec("wh:q=3")


def test_diag_file_roundtrip(tmp_path):
    path = tmp_path / "deph.json"
    path.write_text(
        '{"dim": 2, "diagonals": ['
        '{"re": [1.0, 0.0], "im": [0.0, 0.0]},'
        '{"re": [0.0, 1.0], "im": [0.0, 0.0]}]}'
    )
    spec = zoo.parse_spec(f"diag:file={path}")
    T, _ = zoo.build(spec)
    assert ch.validate(T).valid


M_REF_SPECS = ["wh:d=3", "wh:d=4", "weyl:d=3", "weyl:d=4", "pinch:d=3,blocks=2+1", "pinch:d=5,blocks=2+3",
               "coarse:n=2,D=2", "coarse:n=3,D=2", "stretch:d=3,lambda=0.3", "shiftpinch:d=4,K=1,2",
               "shiftpinch:d=5,K=1,3"]


@pytest.mark.parametrize("spec", M_REF_SPECS)
def test_derived_m_matches_the_paper_map(spec):
    # the M that build derives from T and m, against the paper's formula
    parsed = zoo.parse_spec(spec)
    _, form = zoo.build(parsed)
    assert m_mismatch(form.M, m_ref(parsed)) <= 1e-12


@pytest.mark.parametrize("wrong", ["weyl", "perturbed"])
def test_derived_m_comparison_sees_a_wrong_map(wrong):
    # negative control: wh:d=3's M against weyl:d=3's reference, or against
    # its own reference (the transpose) moved by 1e-6 in one entry
    _, form = zoo.build(zoo.WernerHolevo(3))
    ref = weyl_m_ref(3) if wrong == "weyl" else transpose_m_ref(3)
    if wrong == "perturbed":
        ref.superop[0, 4] += 1e-6
    assert m_mismatch(form.M, ref) > 1e-12
