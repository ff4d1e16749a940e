import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import flip, haar_state_vector, identity_channel, max_entangled, permute_systems, random_channel
from projchan import channels as ch
from projchan import linalg, zoo
from projchan.errors import (
    BadDims,
    DimensionOverflow,
    DimMismatch,
    NonPureEnsemble,
    NotPositiveSemidefinite,
    NotProjectiveClass,
    ParseError,
    SpecInvalid,
    ValidationError,
)
from projchan.linalg import dag
from projchan.sampling import random_density, split_seed


def test_validate_identity():
    rep = ch.validate(identity_channel(3))
    assert rep.trace_preserving and rep.completely_positive
    assert rep.tp_residual <= 1e-14
    assert rep.min_choi_eigenvalue >= -1e-14


def test_validate_non_tp():
    T = ch.QuantumChannel(2, 2, (0.9 * np.eye(2, dtype=complex),))
    rep = ch.validate(T)
    assert not rep.trace_preserving


def test_validate_wh3_choi(wh3):
    T, _ = wh3
    rep = ch.validate(T)
    assert rep.valid
    # Choi = (I9 - F)/6, minimal eigenvalue exactly 0
    assert np.allclose(T.choi, (np.eye(9) - flip(3)) / 6, atol=1e-14)
    assert abs(rep.min_choi_eigenvalue) <= 1e-10


def test_apply_identity():
    T = identity_channel(2)
    rho = ch.DensityMatrix.from_vector(haar_state_vector(split_seed(5), 2))
    out = ch.apply(T, rho)
    assert np.allclose(out.mat, rho.mat)


def test_apply_wh3_formula(wh3):
    T, _ = wh3
    e0 = ch.DensityMatrix.from_vector(np.eye(3)[:, 0])
    out = ch.apply(T, e0)
    assert np.allclose(out.mat, (np.eye(3) - e0.mat) / 2, atol=1e-14)
    mixed = ch.DensityMatrix(3, np.eye(3) / 3)
    assert np.allclose(ch.apply(T, mixed).mat, np.eye(3) / 3, atol=1e-14)


def test_apply_dim_mismatch(wh3):
    T, _ = wh3
    with pytest.raises(DimMismatch):
        ch.apply(T, ch.DensityMatrix(2, np.eye(2) / 2))


def test_apply_preserves_trace_random(wh3):
    T, _ = wh3
    rng = split_seed(6)
    for _ in range(100):
        rho = random_density(rng, 3)
        out = T.apply_raw(rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


KRAUS_SHAPES = (st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))


@settings(max_examples=40, deadline=None)
@given(*KRAUS_SHAPES)
@example(2, 3, 5, 0)
def test_kernel_matches_einsum_reference(d_in, d_out, k, seed):
    K, T, rng = random_channel(d_in, d_out, k, seed)
    X, Y = _random_matrix(rng, d_in), _random_matrix(rng, d_out)
    TX, TY = np.einsum("kij,jl,kml->im", K, X, K.conj()), np.einsum("kji,jl,klm->im", K.conj(), Y, K)
    assert linalg.herm_norm_inf(T.apply_raw(X) - TX) <= 1e-12
    assert linalg.herm_norm_inf(T.apply_adjoint_raw(Y) - TY) <= 1e-12
    # the superoperator on row-major vec, and its conjugate from the right for T+
    assert linalg.herm_norm_inf(T.superop @ X.reshape(-1) - TX.reshape(-1)) <= 1e-12
    assert linalg.herm_norm_inf(Y.reshape(-1) @ np.conj(T.superop) - TY.reshape(-1)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(*KRAUS_SHAPES)
@example(2, 3, 5, 0)
def test_kernel_adjoint_duality(d_in, d_out, k, seed):
    _, T, rng = random_channel(d_in, d_out, k, seed)
    X, Y = _random_matrix(rng, d_in), _random_matrix(rng, d_out)
    assert T.apply_raw(X).shape == (d_out, d_out)
    assert T.apply_adjoint_raw(Y).shape == (d_in, d_in)
    assert abs(np.vdot(T.apply_raw(X), Y) - np.vdot(X, T.apply_adjoint_raw(Y))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(*KRAUS_SHAPES)
@example(2, 3, 5, 0)
@example(3, 1, 3, 976)
def test_kernel_preserves_trace(d_in, d_out, k, seed):
    K, T, rng = random_channel(d_in, d_out, k, seed)
    # premise: the Kraus set itself is trace preserving to roundoff
    assert linalg.herm_norm_inf(sum(dag(A) @ A for A in K) - np.eye(d_in)) <= 1e-14
    X = _random_matrix(rng, d_in)
    assert abs(np.trace(T.apply_raw(X)) - np.trace(X)) <= 1e-12
    assert linalg.herm_norm_inf(T.apply_adjoint_raw(np.eye(d_out)) - np.eye(d_in)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(*KRAUS_SHAPES, st.sampled_from([1, 16, 17, 40]))
@example(2, 3, 5, 0, 17)
def test_pure_outputs_match_apply_raw(d_in, d_out, k, seed, rows):
    _, T, rng = random_channel(d_in, d_out, k, seed)
    Psi = rng.normal(size=(rows, d_in)) + 1j * rng.normal(size=(rows, d_in))
    Z, out = T.pure_outputs(Psi)
    assert Z.shape == (rows, len(T.kraus), d_out)
    assert out.shape == (rows, d_out, d_out)
    want = T.apply_raw(Psi[:, :, None] * Psi[:, None].conj())
    for sigma, ref in zip(out, want):
        assert linalg.herm_norm_inf(sigma - ref) <= 1e-12


_BAD_MEMBERS = {
    "not_hermitian": (np.array([[0.5, 0.1], [0.0, 0.5]]), ValidationError),
    "negative_eigenvalue": (np.diag([1.5, -0.5]), NotPositiveSemidefinite),
    "wrong_trace": (np.eye(2) / 4, ValidationError),
}


@pytest.mark.parametrize("kind", sorted(_BAD_MEMBERS))
def test_check_states_raises_as_density_matrix(kind):
    bad, error = _BAD_MEMBERS[kind]
    with pytest.raises(error):
        ch.DensityMatrix(2, bad)
    stack = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0]), bad, np.eye(2) / 2])
    with pytest.raises(error):
        ch.check_states(stack)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_check_states_rejects_non_finite_entries(bad, entry):
    # a NaN trace passes |tr - 1| > tol, and eigvalsh may return finite
    # eigenvalues for a NaN matrix, so finiteness is checked on its own
    mat = np.diag([1.0, 1.0, 1.0]).astype(complex) / 3
    mat[entry] = mat[entry[::-1]] = bad
    with pytest.raises(ValidationError):
        ch.DensityMatrix(3, mat)
    with pytest.raises(ValidationError):
        ch.check_states(np.stack([np.eye(3) / 3, mat]))


@pytest.mark.parametrize("part, hermitian", [(0.6e-10, True), (0.8e-10, False)])
def test_check_states_judges_hermiticity_by_the_entry_modulus(part, hermitian):
    # an off-diagonal defect of part (1 + i) has modulus 1.41 part, above the
    # 1e-10 tolerance at 0.8e-10 though each of its parts is below it
    mat = np.eye(3, dtype=complex) / 3
    mat[0, 1] = part * (1 + 1j)
    stack = np.stack([np.eye(3) / 3, mat])
    if hermitian:
        ch.check_states(stack)
    else:
        with pytest.raises(ValidationError, match="not Hermitian"):
            ch.check_states(stack)


def test_check_states_holds_one_stack_sized_buffer():
    # a two-trial chi group of 9 x 9 outputs; three stack-sized temporaries
    # once took the peak to 3x the stack
    rng = np.random.default_rng(5)
    G = rng.standard_normal((163, 9, 9)) + 1j * rng.standard_normal((163, 9, 9))
    stack = G @ G.conj().transpose(0, 2, 1)
    stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
    want = np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) / 2)
    tracemalloc.start()
    try:
        w = ch.check_states(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stack.nbytes
    assert np.array_equal(w, np.where(want < 0.0, 0.0, want))


def test_check_states_returns_clamped_eigenvalues():
    stack = np.stack([np.diag([0.25, 0.75]), np.diag([1.0 + 1e-12, -1e-12])]).astype(complex)
    w = ch.check_states(stack)
    assert w.shape == (2, 2)
    assert np.allclose(w, [[0.25, 0.75], [0.0, 1.0]], atol=1e-11)
    assert w.min() >= 0.0


def _unit_rows(seed, rows=4, d=9):
    rng = split_seed(seed)
    Psi = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    return Psi / np.linalg.norm(Psi, axis=1, keepdims=True)


def _projectors(Psi):
    with np.errstate(invalid="ignore"):  # inf * 0 in a row with an infinite entry
        return Psi[:, :, None] * Psi[:, None, :].conj()


def _verdict(check, arg):
    """None if `check(arg)` accepts, else the type of the error it raises."""
    try:
        check(arg)
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return type(exc)
    return None


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 0.0)])
def test_check_pure_states_rejects_non_finite_entries(bad):
    Psi = _unit_rows(40)
    Psi[2, 5] = bad
    assert _verdict(ch.check_pure_states, Psi) is ValidationError
    assert _verdict(ch.check_states, _projectors(Psi)) is ValidationError


@pytest.mark.parametrize("offset, verdict", [(2e-10, ValidationError), (-2e-10, ValidationError),
                                             (5e-11, None), (-5e-11, None)])
def test_check_pure_states_norm_tolerance(offset, verdict):
    Psi = _unit_rows(41)
    Psi[1] *= math.sqrt(1.0 + offset)
    assert _verdict(ch.check_pure_states, Psi) is verdict
    assert _verdict(ch.check_states, _projectors(Psi)) is verdict


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.sampled_from([0.0, 3e-11, -8e-11, 1.2e-10, -3e-10, 1e-6, -0.5, 3.0]))
def test_check_pure_states_agrees_with_check_states(d, seed, rows, offset):
    # unit rows, then one row moved off the unit sphere by `offset` in its squared norm
    Psi = _unit_rows(seed, rows, d)
    Psi[-1] *= math.sqrt(1.0 + offset)
    assert _verdict(ch.check_pure_states, Psi) == _verdict(ch.check_states, _projectors(Psi))


@pytest.mark.parametrize("budget", [linalg.ADJOINT_BLOCK_ENTRIES, 3 * 5 * 4 * 3], ids=["one_block", "three_blocks"])
def test_apply_raw_on_a_stack_matches_per_member(monkeypatch, budget):
    # 5 Kraus operators of 4 x 3 hold 60 image entries per member, so the
    # small budget takes the 7 members as blocks of 3, 3 and 1
    _, T, rng = random_channel(3, 4, 5, seed=11)
    X = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    Y = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
    want_X, want_Y = np.array([T.apply_raw(x) for x in X]), np.array([T.apply_adjoint_raw(y) for y in Y])
    monkeypatch.setattr(linalg, "ADJOINT_BLOCK_ENTRIES", budget)
    assert np.array_equal(T.apply_raw(X), want_X)
    assert np.array_equal(T.apply_adjoint_raw(Y), want_Y)


def test_a_built_channel_keeps_one_read_only_kraus_array():
    T, _ = zoo.build(zoo.parse_spec("weyl:d=3"))
    assert isinstance(T.kraus, np.ndarray) and T.kraus.shape == (9, 3, 3)
    assert np.shares_memory(T._kcol, T.kraus)
    assert "_kcol_dag" not in vars(T)  # built on the first adjoint-side product
    with pytest.raises(ValueError, match="read-only"):
        T.kraus[0, 0, 0] = 1.0
    T.apply_adjoint_raw(np.eye(3))
    assert "_kcol_dag" in vars(T)


def test_unequal_kraus_shapes_are_refused():
    with pytest.raises(BadDims):
        ch.QuantumChannel(2, 2, (np.eye(2), np.eye(3)))
    with pytest.raises(BadDims, match=r"Kraus shape \(2, 2\) != \(3, 2\)"):
        ch.QuantumChannel(2, 3, (np.eye(2),))


def test_validate_holds_no_choi_sized_temporary():
    T, _ = zoo.build(zoo.parse_spec("wh:d=20"))  # the build's validate cached T.choi
    tracemalloc.start()
    try:
        report = ch.validate(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 0.5 * T.choi.nbytes


def _kron_list(channels):
    """The Kraus products of a tensor product channel, one np.kron per pair."""
    kraus = [np.array([[1.0 + 0j]])]
    for T in channels:
        kraus = [np.kron(A, B) for A in kraus for B in T.kraus]
    return np.array(kraus)


@pytest.mark.parametrize("specs", [["wh:d=3", "wh:d=3"], ["wh:d=3", "weyl:d=3", "pinch:d=3,blocks=1+2"],
                                   ["coarse:n=2,D=2", "casimir:d=2"]])
def test_tensor_channels_matches_the_kron_list(specs):
    channels = [zoo.build(zoo.parse_spec(s))[0] for s in specs]
    assert np.array_equal(ch.tensor_channels(channels).kraus, _kron_list(channels))


def test_tensor_channels_of_rectangular_channels_matches_the_kron_list():
    channels = [random_channel(2, 3, 2, seed=1)[1], random_channel(3, 1, 3, seed=2)[1]]
    TT = ch.tensor_channels(channels)
    assert (TT.dim_in, TT.dim_out) == (6, 3)
    assert np.array_equal(TT.kraus, _kron_list(channels))


def test_tensor_channels_refuses_oversize_kraus_stack():
    T, _ = zoo.build(zoo.WeylShift(8))  # 224 operators; the product would hold 50176 of 64 x 64
    with pytest.raises(DimensionOverflow, match="50176 Kraus operators of shape 64x64"):
        ch.tensor_channels([T, T])


def test_tensor_channels_refuses_oversize_product():
    T = identity_channel(65)
    with pytest.raises(DimensionOverflow, match="product dimension 4225 exceeds cap 4096"):
        ch.tensor_channels([T, T])


def test_tensor_channels_identity():
    T = ch.tensor_channels([identity_channel(2), identity_channel(2)])
    rho = random_density(split_seed(7), 4)
    assert np.allclose(T.apply_raw(rho), rho)


def test_tensor_channels_product_factorization(wh3):
    T, _ = wh3
    TT = ch.tensor_channels([T, T])
    rng = split_seed(8)
    a, b = random_density(rng, 3), random_density(rng, 3)
    lhs = TT.apply_raw(np.kron(a, b))
    rhs = np.kron(T.apply_raw(a), T.apply_raw(b))
    assert linalg.herm_norm_inf(lhs - rhs) < 1e-12


def test_tensor_channels_choi_permuted(wh3):
    T, _ = wh3
    TT = ch.tensor_channels([T, T])
    # Choi of the pair equals the system-permuted tensor of the Chois:
    # (out1 in1 out2 in2) -> (out1 out2 in1 in2)
    pair = np.kron(T.choi, T.choi)
    permuted = permute_systems(pair, [3, 3, 3, 3], [0, 2, 1, 3])
    assert linalg.herm_norm_inf(TT.choi - permuted) < 1e-12


def test_tensor_channels_omega_spectrum(wh3):
    T, _ = wh3
    TT = ch.tensor_channels([T, T])
    out = TT.apply_raw(max_entangled(3))
    w = np.sort(np.linalg.eigvalsh(out))
    expect = np.sort([1.0 / 3.0] + [1.0 / 12.0] * 8)
    assert np.allclose(w, expect, atol=1e-12)


def test_extract_projective_form_wh3(wh3):
    T, _ = wh3
    rho0 = ch.DensityMatrix.from_vector(np.eye(3)[:, 0])
    form = ch.extract_projective_form(T, rho0, 0.5)
    assert form.m == 1
    # the recovered M is transposition on a matrix-unit basis
    for i in range(3):
        for j in range(3):
            E = np.outer(np.eye(3)[i], np.eye(3)[j])  # the matrix unit E_ij
            assert linalg.herm_norm_inf(form.M.apply(E) - E.T) < 1e-10


def test_extract_projective_form_identity_channel():
    # norm 1 gives m0 = 1 and M(rho) = (I tr rho - rho)/(d-1); for a pure
    # argmax m*M(rho0) = I - rho0 is a genuine rank-(d-1) projection, so the
    # extraction succeeds with m = d - 1 (this channel has a pure output and
    # sits in the class trivially).
    T = identity_channel(2)
    rho0 = ch.DensityMatrix.from_vector(np.array([1.0, 0.0]))
    form = ch.extract_projective_form(T, rho0, 1.0)
    assert form.m == 1  # d - m0 = 2 - 1
    assert linalg.herm_norm_inf(form.M.superop - (linalg.trace_superop(2) - np.eye(4))) <= 1e-15


def test_extract_projective_form_coarse(coarse22):
    T, _ = coarse22
    flat = ch.DensityMatrix(4, np.full((4, 4), 0.25, dtype=complex))
    form = ch.extract_projective_form(T, flat, 0.5)
    assert form.m == 2
    P = form.projector
    assert linalg.herm_norm_inf(P @ P - P) < 1e-10
    assert abs(np.trace(P).real - 2) < 1e-10


def test_extract_rejects_non_integer_norm(wh3):
    T, _ = wh3
    rho0 = ch.DensityMatrix.from_vector(np.eye(3)[:, 0])
    with pytest.raises(NotProjectiveClass):
        ch.extract_projective_form(T, rho0, 0.43)


def test_extract_rejects_depolarizing_limit():
    # constant channel to I/d: norm 1/d means m = 0, outside the form
    d = 3
    kraus = tuple(np.outer(np.eye(d)[:, i], np.eye(d)[:, j]) / np.sqrt(d) for i in range(d) for j in range(d))
    T = ch.QuantumChannel(d, d, kraus)
    assert ch.validate(T).valid
    rho0 = ch.DensityMatrix.from_vector(np.eye(d)[:, 0])
    with pytest.raises(NotProjectiveClass):
        ch.extract_projective_form(T, rho0, 1.0 / d)


def test_witness_defects_are_separate(wh3):
    T, form = wh3
    assert max(ch.witness_defects(form)) <= 1e-12
    # the mixed input keeps M and the trace of m M(rho0) but not its idempotency
    mixed = ch.DensityMatrix(3, np.eye(3) / 3)
    idem, tr_err = ch.witness_defects(ch.ProjectiveForm(form.M, mixed))
    assert abs(idem - 2 / 9) <= 1e-12 and tr_err <= 1e-12
    with pytest.raises(SpecInvalid, match="witness m\\*M\\(rho0\\) is not a rank-m projection"):
        zoo._finish(T, 1, mixed)


def _interleaved_isometry(T):
    """The dilation by the per-operator loop: row a*K + k holds A_k[a, :],
    over the K operators of norm at least 1e-12."""
    kraus = [A for A in T.kraus if np.linalg.norm(A) >= 1e-12]
    K = len(kraus)
    U = np.zeros((T.dim_out * K, T.dim_in), dtype=complex)
    for k, A in enumerate(kraus):
        U[k::K, :] = A
    return U


@pytest.mark.parametrize("make", [lambda: zoo.build(zoo.parse_spec("casimir-reducible"))[0],
                                  lambda: random_channel(2, 3, 4, seed=3)[1],
                                  lambda: ch.QuantumChannel(2, 2, (np.eye(2), np.zeros((2, 2))))],
                         ids=["casred", "rectangular", "zero_operator"])
def test_stinespring_matches_the_interleave_loop(make):
    T = make()
    iso = ch.stinespring(T)
    assert np.array_equal(iso.mat, _interleaved_isometry(T))
    assert iso.env_dim == len(iso.mat) // T.dim_out


def test_stinespring_identity():
    iso = ch.stinespring(identity_channel(3))
    assert iso.env_dim == 1


def test_stinespring_wh3(wh3):
    T, _ = wh3
    iso = ch.stinespring(T)
    assert iso.env_dim == 3  # Choi rank of (I9 - F)/6
    rng = split_seed(9)
    for _ in range(5):
        rho = random_density(rng, 3)
        big = iso.mat @ rho @ iso.mat.conj().T
        red = linalg.partial_trace(big, [3, iso.env_dim], [0])
        assert linalg.herm_norm_inf(red - T.apply_raw(rho)) < 1e-10


def test_stinespring_casimir_reducible(casred):
    T, _ = casred
    iso = ch.stinespring(T)
    assert iso.env_dim == 4  # three generators plus the scaled identity


def test_is_normalized_projection():
    assert ch.is_normalized_projection(ch.DensityMatrix(4, np.eye(4) / 4)) == (True, 4)
    assert ch.is_normalized_projection(ch.DensityMatrix(3, np.diag([0.5, 0.5, 0.0]))) == (True, 2)
    flag, _ = ch.is_normalized_projection(ch.DensityMatrix(2, np.diag([0.6, 0.4])))
    assert not flag


def test_projective_reconstruction_all_zoo():
    specs = [
        zoo.WernerHolevo(3),
        zoo.Stretching(3, 0.5),
        zoo.WeylShift(3),
        zoo.Pinching(3, zoo.block_projectors(3, [2, 1])),
        zoo.CasimirReducibleExample(),
        zoo.ShiftsPinching(4, (1, 2)),
        zoo.CoarseGraining(2, 2),
    ]
    for spec in specs:
        T, form = zoo.build(spec)
        assert form is not None


def test_channel_json_roundtrip(wh3):
    T, _ = wh3
    back = ch.channel_from_json(ch.channel_to_json(T))
    for A, B in zip(T.kraus, back.kraus):
        assert np.allclose(A, B, atol=1e-15)


def test_channel_json_missing_im():
    obj = {"dim": 2, "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]]}]}
    with pytest.raises(ParseError):
        ch.channel_from_json(obj)


def test_channel_json_wrong_dims():
    obj = {"dim": 3, "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]}
    with pytest.raises(ValidationError):
        ch.channel_from_json(obj)


def test_channel_json_non_tp():
    obj = {"dim": 2, "kraus": [{"re": [[0.9, 0.0], [0.0, 0.9]], "im": [[0.0, 0.0], [0.0, 0.0]]}]}
    with pytest.raises(ValidationError):
        ch.channel_from_json(obj)


def test_ensure_pure_members():
    pure = ch.DensityMatrix.from_vector(np.array([1.0, 0.0]))
    mixed = ch.DensityMatrix(2, np.eye(2) / 2)
    ch.ensure_pure_members([pure])
    with pytest.raises(NonPureEnsemble):
        ch.ensure_pure_members([pure, mixed])
