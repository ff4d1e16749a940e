import json
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import haar_state_vector, identity_channel, offclass_channel, random_channel
from projchan import channels as ch
from projchan import cli, entropy, eof, linalg, zoo
from projchan.errors import BadAlpha, DimMismatch, ProjchanError
from projchan.sampling import complex_normal, random_density, split_seed

CFG = entropy.OptConfig(starts=16)
GRID = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]


def test_renyi_maximally_mixed():
    for d in (2, 3, 5):
        rho = ch.DensityMatrix(d, np.eye(d) / d)
        for a in GRID:
            assert abs(entropy.renyi_entropy(rho, a) - math.log2(d)) < 1e-12


def test_renyi_pure_state():
    rho = ch.DensityMatrix.from_vector(np.array([1.0, 1j]) / np.sqrt(2))
    for a in GRID:
        assert abs(entropy.renyi_entropy(rho, a)) < 1e-12


def test_renyi_alpha_two_example():
    rho = ch.DensityMatrix(3, np.diag([0.5, 0.25, 0.25]))
    assert abs(entropy.renyi_entropy(rho, 2.0) - (3 - math.log2(3))) < 1e-12


def test_renyi_bad_alpha():
    rho = ch.DensityMatrix(2, np.eye(2) / 2)
    with pytest.raises(BadAlpha):
        entropy.renyi_entropy(rho, -0.5)


def test_renyi_near_one_window():
    rho = ch.DensityMatrix(2, np.diag([0.7, 0.3]))
    assert entropy.renyi_entropy(rho, 1.0 + 5e-7) == entropy.renyi_entropy(rho, 1.0)


def test_monotone_in_alpha_200_states():
    grid = [0.0, 0.3, 0.5, 1.0, 1.7, 2.0, 5.0, math.inf]
    rng = split_seed(20)
    for _ in range(200):
        rho = ch.DensityMatrix(4, random_density(rng, 4))
        vals = [entropy.renyi_entropy(rho, a) for a in grid]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_monotone_in_alpha_property(d, seed):
    rho = ch.DensityMatrix(d, random_density(np.random.default_rng(seed), d))
    vals = [entropy.renyi_entropy(rho, a) for a in (0.5, 1.0, 2.0, math.inf)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_flat_spectrum_entropy_alpha_independent():
    # normalized projections have S_alpha = log rank for every alpha
    rho = ch.DensityMatrix(4, np.diag([0.5, 0.5, 0.0, 0.0]))
    for a in GRID:
        assert abs(entropy.renyi_entropy(rho, a) - 1.0) < 1e-12
    # strictly decreasing for a non-flat spectrum
    rho = ch.DensityMatrix(2, np.diag([0.6, 0.4]))
    assert entropy.renyi_entropy(rho, 0.5) > entropy.renyi_entropy(rho, 2.0) + 1e-3


def test_min_output_entropy_wh3_grid(wh3):
    T, _ = wh3
    vals = [entropy.min_output_entropy(T, a, CFG).value for a in GRID]
    for v in vals:
        assert abs(v - 1.0) < 1e-6
    assert max(vals) - min(vals) < 2e-6


def test_min_output_entropy_identity():
    rep = entropy.min_output_entropy(identity_channel(3), 1.0, CFG)
    assert abs(rep.value) < 1e-9
    assert rep.converged


def test_min_output_entropy_coarse(coarse22):
    T, _ = coarse22
    rep = entropy.min_output_entropy(T, 1.0, CFG)
    assert abs(rep.value - 1.0) < 1e-6


def test_reevaluation_matches_report(wh3):
    T, _ = wh3
    for alpha in (1.0, 2.0):
        rep = entropy.min_output_entropy(T, alpha, CFG)
        again = entropy.renyi_entropy(ch.apply(T, rep.arg_state), alpha)
        assert abs(again - rep.value) < 1e-9


def test_arg_state_is_built_on_first_access(wh3):
    rep = entropy.min_output_entropy(wh3[0], 1.0, CFG)
    assert "arg_state" not in vars(rep)
    want = ch.DensityMatrix.from_vector(rep.per_start_args[rep.best_start]).mat
    assert np.array_equal(rep.arg_state.mat, want) and rep.arg_state is rep.arg_state


def test_report_value_is_min_of_starts(wh3):
    T, _ = wh3
    rep = entropy.min_output_entropy(T, 2.0, CFG)
    assert rep.value == min(rep.per_start_values)
    assert rep.starts == CFG.starts
    assert rep.seed == CFG.seed


def test_max_output_norm_wh3(wh3):
    T, _ = wh3
    rep = entropy.max_output_norm(T, CFG)
    assert abs(rep.value - 0.5) < 1e-9


def test_max_output_norm_identity():
    rep = entropy.max_output_norm(identity_channel(4), CFG)
    assert abs(rep.value - 1.0) < 1e-9


def test_max_output_norm_casimir_reducible(casred):
    T, form = casred
    rep = entropy.max_output_norm(T, CFG)
    assert abs(rep.value - 0.5) < 1e-7
    # the known witness achieves it with a rank-2 projection output
    out = T.apply_raw(form.rho0.mat)
    assert abs(np.linalg.eigvalsh(out)[-1] - 0.5) < 1e-12


def test_determinism_same_seed(wh3):
    T, _ = wh3
    a = entropy.min_output_entropy(T, 2.0, CFG)
    b = entropy.min_output_entropy(T, 2.0, CFG)
    assert a.per_start_values == b.per_start_values
    assert a.value == b.value


def test_characterize_wh3(wh3):
    T, _ = wh3
    rep = entropy.characterize(T, [0.0, 1.0, 2.0, math.inf], CFG)
    assert rep.all_three
    assert rep.projective_form.m == 1
    assert not rep.boundary_case  # m0 = 2 for d = 3


def test_characterize_identity_boundary():
    # ranks-1 output: in the class trivially (m = d - 1); flagged as boundary
    rep = entropy.characterize(identity_channel(2), [0.0, 1.0, 2.0, math.inf], CFG)
    assert rep.constant_nu and abs(min(rep.nu_values.values())) < 1e-9
    assert rep.norm_at_projection and rep.projection_rank == 1
    assert rep.boundary_case
    assert rep.projective_form is not None and rep.projective_form.m == 1


def test_characterize_depolarizing_limit():
    d = 2
    kraus = tuple(np.outer(np.eye(d)[:, i], np.eye(d)[:, j]) / np.sqrt(d) for i in range(d) for j in range(d))
    T = ch.QuantumChannel(d, d, kraus, name="depolarize")
    rep = entropy.characterize(T, [0.0, 1.0, 2.0], CFG)
    assert rep.constant_nu
    assert abs(min(rep.nu_values.values()) - 1.0) < 1e-9  # log2 d
    assert rep.norm_at_projection and rep.projection_rank == d
    assert rep.projective_form is None  # m would be zero
    assert rep.boundary_case


def test_constant_family_estimate_consistency(wh3):
    # constant-nu family: estimates agree across the grid within 2e-6
    T, _ = wh3
    vals = {a: entropy.min_output_entropy(T, a, CFG).value for a in (0.0, 0.5, 1.0, 2.0)}
    assert max(vals.values()) - min(vals.values()) <= 2e-6


def _measure_prepare(taus):
    """The qubit channel rho -> sum_i <i|rho|i> tau_i for diagonal states tau_i,
    given as rows of their eigenvalues."""
    taus = np.asarray(taus, dtype=float)
    kraus = tuple(np.sqrt(taus[i, j]) * np.outer(np.eye(2)[j], np.eye(2)[i]) for i in range(2) for j in range(2))
    return ch.QuantumChannel(2, 2, kraus)


def test_converged_is_the_best_starts_flag():
    # The output norm of psi = (a, b) is the top eigenvalue of |a|^2 tau_0 +
    # |b|^2 tau_1, so |1> is a local maximum of the norm with a gap of 0.4 at
    # the top. At alpha = inf the search is the minorize-maximize fixed point
    # alone: its step from |1> (the top eigenvector of T+(v v+) =
    # diag(0.05, 0.7)) returns |1>, so warm start 0 stalls on its first step
    # and is converged, while the random starts go lower but hit the
    # one-iteration cap.
    T = _measure_prepare([[0.95, 0.05], [0.3, 0.7]])
    one = np.array([0.0, 1.0], dtype=complex)
    cfg = entropy.OptConfig(starts=2, max_iters=1).with_warm_starts([one])
    rep = entropy.min_output_entropy(T, math.inf, cfg)
    assert abs(rep.per_start_values[0] + math.log2(0.7)) < 1e-12
    assert entropy._descend_starts(T, math.inf, entropy._Outputs(T, one[None]), cfg.max_iters, cfg.tol)[2][0]
    assert rep.best_start != 0
    assert not rep.converged


def test_norm_search_converged_flag_is_truthful():
    # one iteration leaves every start short of both the descent's and the
    # polish's stopping tests; at the default cap every start settles
    T, _ = zoo.build(zoo.WeylShift(3))
    capped = entropy.OptConfig(starts=8, max_iters=1)
    assert not entropy.min_output_entropy(T, 1.0, capped).per_start_converged.any()
    rep = entropy.max_output_norm(T, capped)
    assert not rep.per_start_converged.any() and not rep.converged
    rep = entropy.max_output_norm(T, entropy.OptConfig(starts=8))
    assert rep.per_start_converged.all() and rep.converged


def test_norm_polish_flags_rows_stopped_at_the_cap():
    # the alpha = inf fixed point: on this channel the rows need 11 to 32
    # steps (the plain step alone: 14 to 73)
    T = random_channel(3, 3, 2, 1)[1]
    start = entropy._Outputs(T, entropy._stack_starts(T.dim_in, entropy.OptConfig(starts=8, seed=3)))
    assert not entropy._fixed_point(T, math.inf, start, 1, 1e-12)[2].any()
    assert entropy._fixed_point(T, math.inf, start, 2000, 1e-12)[2].all()


@pytest.mark.parametrize("grid", [[0.0, 1.0, 2.0, math.inf], [0.0, 1.0, 1.0, math.inf]])
def test_characterize_runs_each_alpha_once(wh3, monkeypatch, grid):
    # the grid's distinct finite alphas plus alpha = 2 for the norm witness,
    # each once; alpha = inf is read off the norm search
    T, _ = wh3
    calls = []
    original = entropy.min_output_entropy

    def counting(T, alpha, cfg=None, **kwargs):
        calls.append(alpha)
        return original(T, alpha, cfg, **kwargs)

    monkeypatch.setattr(entropy, "min_output_entropy", counting)
    entropy.characterize(T, grid, entropy.OptConfig(starts=2))
    assert sorted(calls) == sorted(set(grid) - {math.inf} | {2.0})


@pytest.mark.parametrize("spec", ["wh:d=3", "coarse:n=2,D=2"])
def test_characterize_reads_nu_inf_off_the_norm_search(spec):
    T, _ = zoo.build(zoo.parse_spec(spec))
    rep = entropy.characterize(T, [1.0, 2.0, math.inf], entropy.OptConfig(starts=4))
    assert rep.nu_values[math.inf] == -math.log2(rep.norm_value)
    assert abs(rep.nu_values[math.inf] - rep.nu_values[2.0]) <= 1e-9


def _recording_eigh_in_descent(monkeypatch, module):
    """Record, while `module._armijo_descent` runs, its start stack x0, the
    stacks its `fg` is given, the inputs of every np.linalg.eigh call and the
    number of np.linalg.eigvalsh calls."""
    seen = {"fg_rows": [], "eigh_inputs": [], "eigvalsh_calls": 0}
    descent, eigh, eigvalsh = module._armijo_descent, np.linalg.eigh, np.linalg.eigvalsh
    inside = []

    def recording_descent(fg, retract, x0, *rest, **kwargs):
        def recording_fg(X):
            seen["fg_rows"].append(X.copy())
            return fg(X)
        seen["x0"] = np.array(x0)
        inside.append(True)
        try:
            return descent(recording_fg, retract, x0, *rest, **kwargs)
        finally:
            inside.pop()

    def recording_eigh(a, *args, **kwargs):
        if inside:
            seen["eigh_inputs"].append(np.array(a))
        return eigh(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        seen["eigvalsh_calls"] += bool(inside)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(module, "_armijo_descent", recording_descent)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return seen


def _example9_members(W):
    """tau_j = C_j C_j+ / p_j of every member of every isometry in W, as the
    EoF search forms them from the example9 state (a member with p_j < 1e-14
    is left undivided)."""
    w, V = np.linalg.eigh(eof.example9_state().mat.mat)
    E = (V[:, w > 1e-12] * np.sqrt(w[w > 1e-12])).T
    C = (W @ E).reshape(*W.shape[:2], 4, 4)
    tau = C @ C.conj().swapaxes(-1, -2)
    p = np.real(np.trace(tau, axis1=-2, axis2=-1))
    return tau / np.where(p >= 1e-14, p, 1.0)[..., None, None]


@pytest.mark.parametrize("which", ["casimir:d=4", "example9"])
def test_search_decomposes_each_point_once(monkeypatch, which):
    # Inside the descent, eigh sees exactly the outputs at the points `fg` is
    # given, once each, and eigvalsh is never called: the value and the
    # gradient of a point come from one decomposition. The descent takes its
    # first value and gradient from the caller and gives `fg` no row of its
    # start stack. At alpha = 1.5 the fixed point hands every start on
    # casimir:d=4 to the descent. (At an integer alpha >= 2 the descent
    # decomposes no output at all.)
    if which == "example9":
        seen = _recording_eigh_in_descent(monkeypatch, eof)
        eof.eof_upper(eof.example9_state(), eof.EofConfig(starts=64))
        rows = np.concatenate(seen["fg_rows"])
        want = _example9_members(rows)
    else:
        T = offclass_channel(which)
        seen = _recording_eigh_in_descent(monkeypatch, entropy)
        entropy.min_output_entropy(T, 1.5, entropy.OptConfig(starts=8, seed=7))
        rows = np.concatenate(seen["fg_rows"])
        want = T.apply_raw(rows[:, :, None] * rows[:, None].conj())
        assert len(seen["x0"]) == 8
    x0 = seen["x0"].reshape(len(seen["x0"]), -1)
    assert not (rows.reshape(len(rows), -1)[:, None] == x0[None]).all(axis=2).any()
    decomposed = np.concatenate(seen["eigh_inputs"])
    assert seen["eigvalsh_calls"] == 0
    assert len(decomposed) == len(rows)
    assert np.abs(decomposed - want).max() <= 1e-14
    if which == "example9":
        # before, the descent judged 1353 trial rows by eigvalsh and took
        # eigh again at the 1216 rows its gradient was evaluated at
        assert len(rows) < 1353 + 1216


def _entropy_and_gradient(sigma, alpha):
    """S_alpha and dS_alpha/dsigma of each output, as the descent's `fg` forms them."""
    f, parts = entropy._evaluate(sigma, alpha)
    return f, entropy._gradient_matrix(parts, alpha)


def _descend_recomputing(T, alpha, start, max_iters, tol):
    """`entropy._descend_starts` at alpha >= 1 without the hand-off, the reference:
    the gradient test of the settled starts and the descent's first value
    and gradient evaluate `fg` again at the fixed point's best points.
    Returns (values, end points, converged flags, starts handed on)."""
    fg = entropy._sphere_objective(T, alpha)
    lead = min(max_iters, entropy.VON_NEUMANN_FIXED_POINT_ITERS if alpha == 1.0 else
               entropy.CONVEX_FIXED_POINT_ITERS)
    f, Psi, converged, _ = entropy._fixed_point(T, alpha, start, lead, tol)
    settled = np.flatnonzero(converged)
    if len(settled):
        converged[settled] = np.linalg.norm(fg(Psi[settled])[1], axis=1) <= entropy.STATIONARY_GRAD
    rest = np.flatnonzero(~converged)
    if len(rest) and max_iters > lead:
        f[rest], Psi[rest], reasons, *_ = entropy._armijo_descent(fg, entropy._sphere_retract, Psi[rest],
                                                                  fg(Psi[rest]), max_iters - lead, tol,
                                                                  entropy.ENTROPY_STEP_CAP)
        converged[rest] = reasons != "max_iters"
    return f, Psi, converged, len(rest)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("seed", [5, 17])
def test_handed_on_evaluation_matches_recomputing_it(alpha, seed):
    # The fixed point hands its evaluation of each best point to the
    # gradient test and to the descent's first step. On wh:d=3 x wh:d=3 (32
    # starts) each start's value, end point and flag are those of a search
    # that evaluates those points again, to 1e-14; the descent runs in each.
    TT = _wh_pair()
    cfg = entropy.OptConfig(starts=32, seed=seed)
    rep = entropy.min_output_entropy(TT, alpha, cfg)
    start = entropy._Outputs(TT, entropy._stack_starts(TT.dim_in, cfg))
    f, Psi, converged, handed_on = _descend_recomputing(TT, alpha, start, cfg.max_iters, cfg.tol)
    assert handed_on > 0
    assert np.abs(np.array(rep.per_start_values) - f).max() <= 1e-14
    assert np.abs(rep.per_start_args - Psi).max() <= 1e-14
    assert np.array_equal(rep.per_start_converged, converged)


CHARACTERIZATION_SPECS = ["wh:d=3", "weyl:d=3", "pinch:d=3,blocks=2+1", "casimir-reducible", "coarse:n=2,D=2"]


def _recording_decompositions(monkeypatch):
    """Record the bytes of every matrix that np.linalg.eigh or eigvalsh is
    given, each with whether the call is one of those that first evaluate a
    point a fixed-point step produced: the step's own (its eigh of T+(W), or
    its evaluation of the point it lands on), characterize's evaluation of
    the witness row it puts in front of its norm search (an alpha = 2 end
    point),
    and its projection check of the output at the norm search's end point."""
    seen, eigh, eigvalsh = [], np.linalg.eigh, np.linalg.eigvalsh

    def stepped():
        frame = sys._getframe(2)
        while frame is not None:
            name, caller = frame.f_code.co_qualname, frame.f_back and frame.f_back.f_code.co_qualname
            if (name == "_fixed_point.<locals>.step" or name == "_Outputs.prepend" or name == "apply" and caller == "characterize"):
                return True
            frame = frame.f_back
        return False

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            A, step = np.asarray(a), stepped()
            seen.extend((M.tobytes(), step) for M in np.ascontiguousarray(A).reshape(-1, *A.shape[-2:]))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", recording(eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(eigvalsh))
    return seen


@pytest.mark.parametrize("seed", [5, 12648430])
def test_no_matrix_is_decomposed_twice(monkeypatch, tmp_path, seed):
    # Every start stack, visited point, output and state is decomposed once,
    # in characterize on the five characterization channels, in capacity and
    # in the two-copy additivity run. Two repeats stay. A point that a
    # fixed-point step produced can be, bit for bit, one evaluated before:
    # on these channels the steps of different alphas, and a stalled step,
    # land on the same vector, and where a step lands is known only from
    # its eigh of T+(W); so the calls that first evaluate such a point may
    # repeat a matrix. And capacity takes the eigh of its witness rho0 for
    # the top eigenvector, after the state's validation took its eigenvalues.
    # Before, characterize on weyl:d=3 decomposed 104 of 408 matrices a
    # second time.
    rho0 = zoo.build(zoo.parse_spec("weyl:d=3"))[1].rho0.mat.tobytes()
    runs = [["characterize", "--spec", spec, "--alphas", "0,0.5,1,2,inf", "--starts", "16"]
            for spec in CHARACTERIZATION_SPECS]
    runs += [["capacity", "--spec", "weyl:d=3", "--group", "auto", "--starts", "16"],
             ["additivity", "--spec", "wh:d=3", "--spec", "wh:d=3", "--alpha", "1", "--starts", "32"]]
    seen = _recording_decompositions(monkeypatch)
    for argv in runs:
        seen.clear()
        assert cli.main(argv + ["--seed", str(seed), "--out", str(tmp_path / "report.json")]) == 0
        earlier, repeated = set(), []
        for matrix, step in seen:
            if matrix in earlier and not step and matrix != rho0:
                repeated.append(matrix)
            earlier.add(matrix)
        assert not repeated, f"{' '.join(argv[:3])}: {len(repeated)} of {len(seen)} matrices decomposed again"


def _unit_trace_states(d, rank, count, seed):
    """`count` random d x d states of rank `rank` (Wishart, unit trace)."""
    G = complex_normal(np.random.default_rng(seed), count, d, rank)
    S = G @ G.conj().transpose(0, 2, 1)
    return S / np.real(np.trace(S, axis1=1, axis2=2))[:, None, None]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["random", "pure", "rank-deficient"])
def test_integer_alpha_powers_match_the_spectrum(n, kind):
    # At an integer alpha = n >= 2 the value and the gradient matrix come
    # from sigma^(n - 1) alone. They agree with the eigendecomposition's to
    # 1e-12 relative (the value relative to max(|S|, 1), since S is 0 on a
    # pure state), for d = 2 to 9.
    for d in range(2, 10):
        rank = {"random": d, "pure": 1, "rank-deficient": max(1, d // 2)}[kind]
        sigma = _unit_trace_states(d, rank, 8, seed=100 * n + d)
        f, G = _entropy_and_gradient(sigma, float(n))
        w, V = np.linalg.eigh(sigma)
        f_ref = entropy._entropy_from_eigs(w, float(n))
        G_ref = entropy._entropy_gradient_matrices(w, V, float(n))
        assert np.abs(f - f_ref).max() <= 1e-12 * max(np.abs(f_ref).max(), 1.0), d
        assert (np.abs(G - G_ref) <= 1e-12 * np.abs(G_ref).max(axis=(1, 2), keepdims=True)).all(), d


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_factor_spans_the_fixed_point_weight(n):
    # The fixed point's weight factor at alpha = n: U U+ = P, and P is
    # sigma^(n - 1) up to a positive factor per output, for both parities (U
    # = H for odd n, H Z^T for even n). The channel has k = 3 Kraus
    # operators on 4 dims, so Z^T is not square.
    T = offclass_channel("4,4,3,0")
    Z, sigma = T.pure_outputs(entropy._stack_starts(4, entropy.OptConfig(starts=8, seed=3)))
    _, P, _, H = entropy._integer_powers(sigma, n)
    U = entropy._power_factor(Z, H, n)
    assert np.abs(U @ U.conj().transpose(0, 2, 1) - P).max() <= 1e-12 * np.abs(P).max()
    power = np.linalg.matrix_power(sigma, n - 1)
    scale = np.real(np.trace(power, axis1=1, axis2=2) / np.trace(P, axis1=1, axis2=2))
    assert (scale > 0).all()
    assert np.abs(scale[:, None, None] * P - power).max() <= 1e-12 * np.abs(power).max()


@pytest.mark.parametrize("n", [3, 4])
def test_integer_alpha_sphere_gradient_matches_finite_differences(n):
    # The descent's projected gradient on wh:d=3 x wh:d=3, for both parities
    # of P (H H at n = 3, H sigma H at n = 4): along random sphere tangents
    # its directional derivative matches a central difference of S_n. With
    # sigma^n in place of sigma^(n - 1) in the gradient this fails.
    fg = entropy._sphere_objective(_wh_pair(), float(n))
    Psi = entropy._stack_starts(9, entropy.OptConfig(starts=6, seed=29))
    rng = np.random.default_rng(29)
    D = rng.normal(size=Psi.shape) + 1j * rng.normal(size=Psi.shape)
    D -= np.real(np.sum(Psi.conj() * D, axis=1))[:, None] * Psi
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    g = fg(Psi)[1]
    h = 1e-5
    fd = (fg(entropy._sphere_retract(Psi + h * D))[0] - fg(entropy._sphere_retract(Psi - h * D))[0]) / (2 * h)
    slope = np.real(np.sum(g.conj() * D, axis=1))
    assert np.abs(slope).max() > 1e-2
    assert np.abs(fd - slope).max() <= 1e-7 * np.abs(slope).max()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integer_alpha_search_decomposes_no_output(monkeypatch, n):
    # At alpha = n neither the descent's `fg` nor the fixed point's `visit`
    # decomposes an output: every eigh the search makes is of a T+(W) the
    # fixed point formed on the input side, and eigvalsh is never called. On
    # casimir:d=4 the fixed point hands starts on, so the descent runs too.
    T = offclass_channel("casimir:d=4")
    formed, fg_rows = [], []
    factored, objective, eigh = entropy._factored_adjoint, entropy._sphere_objective, np.linalg.eigh

    def recording_adjoint(T):
        adjoint = factored(T)
        return lambda U: formed.append(adjoint(U)) or formed[-1]

    def recording_objective(T, alpha):
        fg = objective(T, alpha)
        return lambda Psi: fg_rows.append(len(Psi)) or fg(Psi)

    def input_side_eigh(a, *args, **kwargs):
        assert any(a is b for b in formed), "eigh of an output"
        return eigh(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh in the search")

    monkeypatch.setattr(entropy, "_factored_adjoint", recording_adjoint)
    monkeypatch.setattr(entropy, "_sphere_objective", recording_objective)
    monkeypatch.setattr(np.linalg, "eigh", input_side_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    entropy.min_output_entropy(T, float(n), entropy.OptConfig(starts=8, seed=7))
    assert formed and sum(fg_rows) > 8


@pytest.mark.parametrize("alpha", [2.0, 5.0])
def test_two_copy_search_values_match_the_output_spectra(alpha):
    # The joint wh:d=3 x wh:d=3 search at the benchmark's two integer alphas,
    # 32 starts: each start's reported value is S_alpha of the output at its
    # end point, recomputed from that output's eigvalsh, to 1e-12.
    TT = _wh_pair()
    rep = entropy.min_output_entropy(TT, alpha, entropy.OptConfig(starts=32, seed=5))
    Psi = rep.per_start_args
    w = np.clip(np.linalg.eigvalsh(TT.apply_raw(Psi[:, :, None] * Psi[:, None].conj())), 0.0, None)
    want = np.log2(np.sum(w ** alpha, axis=1)) / (1.0 - alpha)
    assert np.abs(np.array(rep.per_start_values) - want).max() <= 1e-12


def test_large_alpha_does_not_underflow(wh3):
    # w^alpha underflows to 0 above alpha of about 1075, which made nu
    # infinite. With the top eigenvalue factored out of the spectrum, and
    # each matrix power rescaled to unit trace, nu stays 1 on wh:d=3 at
    # integer (power) and non-integer (spectrum) alpha alike.
    T, _ = wh3
    w = np.array([[0.5, 0.5, 0.0]])
    for alpha in (1100.0, 2000.5):
        assert abs(entropy._entropy_from_eigs(w, alpha)[0] - 1.0) <= 1e-12
        assert np.isfinite(entropy._entropy_gradient_matrices(w, np.eye(3)[None], alpha)).all()
    f, G = _entropy_and_gradient(np.diag([0.5, 0.5, 0.0])[None].astype(complex), 5000.0)
    assert abs(f[0] - 1.0) <= 1e-12 and np.isfinite(G).all()
    # about 1000 squarings: without the Hermitian part of each product, the
    # phase of a roundoff eigenvalue doubles on each and the trace goes NaN
    sigma = _unit_trace_states(9, 9, 4, seed=29)
    f, G = _entropy_and_gradient(sigma, 1e300)
    assert np.abs(f + np.log2(np.linalg.eigvalsh(sigma)[:, -1])).max() <= 1e-12 and np.isfinite(G).all()
    rep = entropy.characterize(T, [1.0, 1100.0, 5000.0, 1100.5], CFG)
    assert all(abs(v - 1.0) <= 1e-9 for v in rep.nu_values.values()), rep.nu_values
    assert rep.constant_nu


def _polish_one_start(T, psi, max_iters, tol):
    """The one-start-at-a-time plain step psi <- top eigenvector of T+(v v+),
    for v the top output eigenvector, and whether it stopped before the cap."""
    def top(p):
        sigma = T.apply_raw(np.outer(p, p.conj()))
        w, V = np.linalg.eigh((sigma + sigma.conj().T) / 2)
        return w[-1], V[:, -1]

    lam, v = top(psi)
    for _ in range(max_iters):
        H = T.apply_adjoint_raw(np.outer(v, v.conj()))
        psi2 = np.linalg.eigh((H + H.conj().T) / 2)[1][:, -1]
        lam2, v2 = top(psi2)
        if lam2 <= lam + tol:
            return ((lam2, psi2) if lam2 > lam else (lam, psi)) + (True,)
        psi, lam, v = psi2, lam2, v2
    return lam, psi, False


@pytest.mark.parametrize("which", ["coarse:n=2,D=2", "random"])
def test_lockstep_polish_matches_one_start_polish(which):
    # The plain lead steps of the alpha = inf fixed point, row by row.
    # coarse:n=2,D=2 has a degenerate top output eigenvalue; its warm start is
    # a norm maximizer and stops at once, the random starts after one step.
    # On the random channel every row is still gaining after the lead. Where
    # the top of T+(v v+) is degenerate (coarse) the end point is any vector
    # of that eigenspace, so only the values are compared there.
    if which == "random":
        T, warm = random_channel(3, 3, 2, 1)[1], []
    else:
        T, form = zoo.build(zoo.parse_spec(which))
        warm = [np.linalg.eigh(form.rho0.mat)[1][:, -1]]
    Psi0 = entropy._stack_starts(T.dim_in, entropy.OptConfig(starts=8, seed=3).with_warm_starts(warm))
    lead = entropy.CONVEX_FIXED_POINT_ITERS
    f, Psi, converged, _ = entropy._fixed_point(T, math.inf, entropy._Outputs(T, Psi0), lead, 1e-12)
    assert list(converged) == [which != "random"] * len(Psi0)
    for i, psi0 in enumerate(Psi0):
        lam1, psi1, stopped = _polish_one_start(T, psi0, lead, 1e-12)
        assert abs(2.0 ** -f[i] - lam1) <= 1e-12
        assert converged[i] == stopped
        if which == "random":
            assert np.abs(np.outer(Psi[i], Psi[i].conj()) - np.outer(psi1, psi1.conj())).max() <= 1e-12
    if warm:
        assert np.array_equal(Psi[0], Psi0[0])


REFERENCE = json.loads((pathlib.Path(__file__).parent / "data" / "multistart_seed7_starts16.json").read_text())
# At alpha = 1/2 the value sums square roots of the output eigenvalues, and an
# eigenvalue that is zero in exact arithmetic comes out of eigh as roundoff of
# about 1e-16, whose square root is 1e-8: the per-start values then move with
# the last bits of the output matrix, which the batch layout changes.
REFERENCE_TOL = {"0": 1e-12, "0.5": 1e-7, "1": 1e-12, "2": 1e-12, "inf": 1e-12}
OFFCLASS = json.loads((pathlib.Path(__file__).parent / "data" / "offclass_seed4242_starts16.json").read_text())


@pytest.mark.parametrize("spec", sorted(REFERENCE["min_output_entropy"]))
def test_per_start_values_match_single_start_reference(spec):
    # per-start values of 16 starts at seed 7 as the one-start-at-a-time
    # descent printed them
    T, _ = zoo.build(zoo.parse_spec(spec))
    cfg = entropy.OptConfig(starts=REFERENCE["starts"], seed=REFERENCE["seed"])
    for alpha, want in REFERENCE["min_output_entropy"][spec].items():
        got = entropy.min_output_entropy(T, float(alpha), cfg).per_start_values
        assert np.abs(np.array(got) - want).max() <= REFERENCE_TOL[alpha], alpha
    got = entropy.max_output_norm(T, cfg).per_start_values
    assert np.abs(np.array(got) - REFERENCE["max_output_norm"][spec]).max() <= 1e-12


def test_lockstep_starts_match_starts_run_alone():
    # At alpha = 2 on casimir:d=4 warm start 0, a minimizer, settles in the
    # fixed point's lead steps; the fixed point hands every random start on,
    # and of those two converge on the descent's seventh and last iteration
    # while the third is still improving when it hits the cap. Each start of
    # the batch gives what it gives alone.
    T = offclass_channel("casimir:d=4")
    found = entropy.min_output_entropy(T, 2.0, entropy.OptConfig(starts=4, seed=1))
    cfg = entropy.OptConfig(starts=3, max_iters=9, seed=4242).with_warm_starts([found.per_start_args[found.best_start]])
    Psi0 = entropy._stack_starts(T.dim_in, cfg)
    start = entropy._Outputs(T, Psi0)
    assert list(entropy._fixed_point(T, 2.0, start, entropy.CONVEX_FIXED_POINT_ITERS, cfg.tol)[2]) == \
        [True, False, False, False]
    f, _, conv, _ = entropy._descend_starts(T, 2.0, start, cfg.max_iters, cfg.tol)
    assert list(conv) == [True, True, True, False]
    for i in range(len(Psi0)):
        f1, _, conv1, _ = entropy._descend_starts(T, 2.0, entropy._Outputs(T, Psi0[i:i + 1]), cfg.max_iters, cfg.tol)
        assert abs(f1[0] - f[i]) <= 1e-12
        assert conv1[0] == conv[i]


def test_norm_search_starts_match_starts_run_alone():
    # On this channel every start of the alpha = inf fixed point goes on to
    # SQUAREM cycles, which take 15 to 51 more steps; each start of the batch
    # gives what it gives alone. Every start settles within 80 steps: without
    # the phase alignment one takes 434, and the plain step alone leaves 6 of
    # the 16 at the cap of 2000.
    T = random_channel(3, 3, 2, 0)[1]
    cfg = entropy.OptConfig(starts=16, seed=4242)
    Psi0 = entropy._stack_starts(T.dim_in, cfg)
    start = entropy._Outputs(T, Psi0)
    assert not entropy._fixed_point(T, math.inf, start, entropy.CONVEX_FIXED_POINT_ITERS, cfg.tol)[2].any()
    assert entropy._fixed_point(T, math.inf, start, 80, cfg.tol)[2].all()
    f, _, conv, _ = entropy._descend_starts(T, math.inf, start, cfg.max_iters, cfg.tol)
    assert conv.all()
    for i in range(len(Psi0)):
        f1, _, conv1, _ = entropy._descend_starts(T, math.inf, entropy._Outputs(T, Psi0[i:i + 1]), cfg.max_iters,
                                                  cfg.tol)
        assert abs(f1[0] - f[i]) <= 1e-12
        assert conv1[0] == conv[i]


def test_per_start_values_do_not_depend_on_batch_size():
    # equal to 1e-12, not bit for bit: the GEMM blocks 4 rows and 16 rows
    # differently
    T, _ = zoo.build(zoo.WeylShift(3))
    for alpha in (0.25, 0.5, 0.75, 1.0, math.inf):
        few = entropy.min_output_entropy(T, alpha, entropy.OptConfig(starts=4, seed=7))
        many = entropy.min_output_entropy(T, alpha, entropy.OptConfig(starts=16, seed=7))
        assert np.abs(np.array(few.per_start_values) - many.per_start_values[:4]).max() <= 1e-12, alpha
    st = eof.example9_state()
    few = eof.eof_upper(st, eof.EofConfig(starts=2))
    many = eof.eof_upper(st, eof.EofConfig(starts=4))
    assert np.abs(np.array(few.per_start_values) - many.per_start_values[:2]).max() <= 1e-12


def test_characterize_reads_alpha_zero_off_the_half_run(wh3, monkeypatch):
    T, _ = wh3
    cfg = entropy.OptConfig(starts=4)
    descended = []
    original = entropy._descend_starts

    def counting(T, alpha, *rest):
        descended.append(alpha)
        return original(T, alpha, *rest)

    monkeypatch.setattr(entropy, "_descend_starts", counting)
    rep = entropy.characterize(T, [0.0, 0.5, 1.0, 2.0, math.inf], cfg)
    assert descended.count(0.5) == 1
    assert rep.nu_values[0.0] == entropy.min_output_entropy(T, 0.0, cfg).value


@pytest.mark.parametrize("lengths", [(2,), (3, 2)])
def test_wrong_length_warm_start_is_a_dim_mismatch(wh3, lengths):
    # a ProjchanError, which the CLI reports with exit code 2
    T, _ = wh3
    cfg = entropy.OptConfig(starts=2).with_warm_starts([np.ones(n) for n in lengths])
    with pytest.raises(DimMismatch):
        entropy.min_output_entropy(T, 1.0, cfg)
    assert issubclass(DimMismatch, ProjchanError)


@pytest.mark.parametrize("spec", ["weyl:d=3", "pinch:d=3,blocks=2+1", "casimir-reducible", "coarse:n=2,D=2"])
def test_barzilai_borwein_steps_cut_the_iterations(spec, monkeypatch):
    # At alpha = 2 the fixed point settles every start on these class channels
    # (test_convex_fixed_point_settles_class_channels_without_the_descent), so
    # the descent is measured on their product with casimir:d=4, off the
    # class, where the fixed point hands all 64 starts on. The doubled step
    # takes 31-95 lockstep iterations there; Barzilai-Borwein
    # steps take 9-21, and the minima stay at nu = 1 + nu_2(casimir:d=4).
    T = ch.tensor_channels([zoo.build(zoo.parse_spec(spec))[0], offclass_channel("casimir:d=4")])
    iterations, descent = [], entropy._armijo_descent

    def counting_descent(*args, **kwargs):
        out = descent(*args, **kwargs)
        iterations.append(out[3])
        return out

    monkeypatch.setattr(entropy, "_armijo_descent", counting_descent)
    cfg = entropy.OptConfig(starts=64, seed=4242)
    rep = entropy.min_output_entropy(T, 2.0, cfg)
    assert max(iterations[-1]) <= 24
    nu = 1.0 + min(OFFCLASS["min_output_entropy"]["casimir:d=4"]["2"])
    assert abs(rep.value - nu) <= 1e-12 and rep.per_start_converged.all()


def _wh_pair():
    T, _ = zoo.build(zoo.parse_spec("wh:d=3"))
    return ch.tensor_channels([T, T])


def test_alpha_half_on_the_product_reaches_nu_from_most_starts():
    # At alpha = 1/2 the minimizers of wh:d=3 x wh:d=3 have rank-deficient
    # outputs, where S_1/2 has a kink. Barzilai-Borwein steps there ended 55
    # of the 64 seed-4242 starts more than 1e-6 above nu = 2. The smoothed
    # fixed point brings 55, 59 and 55 of the starts within 1e-6 at seeds
    # 4242, 1 and 2, each best start to 2 within rounding.
    TT = _wh_pair()
    for seed in (4242, 1, 2):
        values = np.array(entropy.min_output_entropy(TT, 0.5, entropy.OptConfig(starts=64, seed=seed))
                          .per_start_values)
        assert abs(values.min() - 2.0) <= 1e-12, seed
        assert np.sum(values <= 2.0 + 1e-6) >= 48, seed


def _start_values(T, alpha, cfg):
    """S_alpha of the outputs at the start points of a search with `cfg`."""
    Psi0 = entropy._stack_starts(T.dim_in, cfg)
    return entropy._entropy_from_eigs(np.linalg.eigvalsh(T.apply_raw(Psi0[:, :, None] * Psi0[:, None].conj())), alpha)


@pytest.mark.parametrize("alpha, starts, seed", [(0.5, 256, 4242), (0.25, 64, 4242), (0.25, 64, 7)])
def test_fixed_point_on_the_product_settles_at_nu(alpha, starts, seed):
    # Armijo descent alone left 4 of these 256 alpha = 1/2 starts at the
    # iteration cap, and its best alpha = 1/4 values were 2 + 0.047 (seed
    # 4242) and 2 + 0.041 (seed 7). The fixed point alone, with the output's
    # roundoff eigenvalues counted in tr sigma^(1/4), brought 1 of the 64
    # alpha = 1/4 starts within 1e-6 of 2; now every start gets there. No
    # start ends above where it began.
    TT = _wh_pair()
    cfg = entropy.OptConfig(starts=starts, seed=seed)
    rep = entropy.min_output_entropy(TT, alpha, cfg)
    values = np.array(rep.per_start_values)
    assert rep.per_start_converged.all()
    assert abs(rep.value - 2.0) <= 1e-12
    assert np.sum(values <= 2.0 + 1e-6) >= starts - starts // 16
    assert (values <= _start_values(TT, alpha, cfg) + 1e-12).all()


def test_alpha_below_one_runs_no_armijo_descent(monkeypatch):
    # nor at alpha = 1 on this class channel, where every start settles within
    # the fixed point's first steps
    T, _ = zoo.build(zoo.WeylShift(3))

    def refuse(*args, **kwargs):
        raise AssertionError("Armijo descent at alpha <= 1")

    monkeypatch.setattr(entropy, "_armijo_descent", refuse)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0, 1.0 + 5e-7):
        rep = entropy.min_output_entropy(T, alpha, entropy.OptConfig(starts=4))
        assert abs(rep.value - 1.0) <= 1e-9, alpha


@pytest.mark.parametrize("spec", ["wh:d=3", "weyl:d=3", "pinch:d=3,blocks=2+1", "casimir-reducible",
                                  "coarse:n=2,D=2"])
def test_von_neumann_fixed_point_stops_within_three_iterations(spec, monkeypatch):
    # the five class channels of the characterization criterion, at alpha = 1
    # and below: every start is at nu = 1 after its first step (on wh:d=3
    # every pure input is), stalls on its next, which drops its smoothing to
    # the floor, and stops on the one after, with a projected gradient far
    # below STATIONARY_GRAD, so none is left to the descent. Below alpha = 1
    # the smoothing schedule alone took 24 iterations, and at alpha = 1 the
    # Armijo/BB descent 13-14.
    T, _ = zoo.build(zoo.parse_spec(spec))
    counts, factored = [], entropy._factored_adjoint

    def counting(T):
        adjoint = factored(T)
        return lambda U: counts.append(1) or adjoint(U)

    def refuse(*args, **kwargs):
        raise AssertionError("a start left to the Armijo descent")

    monkeypatch.setattr(entropy, "_factored_adjoint", counting)
    monkeypatch.setattr(entropy, "_armijo_descent", refuse)
    for alpha in (0.25, 0.5, 0.75, 0.9, 1.0):
        counts.clear()
        rep = entropy.min_output_entropy(T, alpha, entropy.OptConfig(starts=64, seed=4242))
        assert len(counts) <= 3, alpha
        assert rep.per_start_converged.all(), alpha
        assert np.abs(np.array(rep.per_start_values) - 1.0).max() <= 1e-12, alpha


@pytest.mark.parametrize("spec", ["wh:d=3", "weyl:d=3", "pinch:d=3,blocks=2+1", "casimir-reducible",
                                  "coarse:n=2,D=2"])
def test_convex_fixed_point_settles_class_channels_without_the_descent(spec, monkeypatch):
    # Above alpha = 1 the minorize-maximize step lands every start of the five
    # class channels of the characterization criterion on nu = 1 at once and
    # stalls on its second step, with a projected gradient far below
    # STATIONARY_GRAD, so no start is left to the descent. Taking the bottom
    # eigenvector of T+(W) instead hands every start on. At alpha = inf, and
    # in the norm search, the fixed point is the whole search, and the
    # descent is never entered.
    T, _ = zoo.build(zoo.parse_spec(spec))
    descents, descent = [], entropy._armijo_descent
    monkeypatch.setattr(entropy, "_armijo_descent",
                        lambda *args, **kwargs: descents.append(1) or descent(*args, **kwargs))
    for alpha in (1.5, 2.0, 5.0, math.inf):
        for seed in (4242, 7):
            rep = entropy.min_output_entropy(T, alpha, entropy.OptConfig(starts=64, seed=seed))
            assert not descents, (alpha, seed)
            assert rep.per_start_converged.all(), (alpha, seed)
            assert np.abs(np.array(rep.per_start_values) - 1.0).max() <= 1e-12, (alpha, seed)
    for seed in (4242, 7):
        rep = entropy.max_output_norm(T, entropy.OptConfig(starts=64, seed=seed))
        assert not descents, seed
        assert rep.per_start_converged.all(), seed
        assert np.abs(np.array(rep.per_start_values) - 0.5).max() <= 1e-12, seed


@pytest.mark.parametrize("label", sorted(OFFCLASS["min_output_entropy"]))
def test_minorize_maximize_steps_gain_off_the_class(label):
    # On class channels the bottom eigenvector of T+(W) lands on nu as well,
    # so the test above cannot tell the two apart. Off the class each of the
    # two lead steps lowers S_alpha on every one of 16 starts, by at least
    # 4.7e-4 at alpha 1.5, 2 and 5; the bottom eigenvector's first step
    # gains nothing on 2 to 10 of the starts of each random channel but
    # 3,3,2,0.
    T = offclass_channel(label)
    start = entropy._Outputs(T, entropy._stack_starts(T.dim_in, entropy.OptConfig(starts=16, seed=4242)))
    for alpha in (1.5, 2.0, 5.0):
        f = _start_values(T, alpha, entropy.OptConfig(starts=16, seed=4242))
        for steps in (1, 2):
            f_next, _, settled, _ = entropy._fixed_point(T, alpha, start, steps, 1e-12)
            assert (f - f_next > 1e-12).all() and not settled.any(), (alpha, steps)
            f = f_next


@pytest.mark.parametrize("seed", [4242, 7])
def test_von_neumann_search_on_the_product_reaches_nu_from_every_start(seed):
    # every start is left to the descent after the fixed point's three steps,
    # which takes 11 more lockstep iterations at both seeds
    TT = _wh_pair()
    cfg = entropy.OptConfig(starts=256, seed=seed)
    rep = entropy.min_output_entropy(TT, 1.0, cfg)
    values = np.array(rep.per_start_values)
    assert rep.per_start_converged.all()
    assert np.abs(values - 2.0).max() <= 1e-12
    assert (values <= _start_values(TT, 1.0, cfg) + 1e-12).all()


@pytest.mark.parametrize("which, descent_best", [("casimir:d=4", 0.9709505944632515),
                                                 ("random", 6.532928800591002e-15)])
def test_von_neumann_search_off_the_class_converges_from_every_start(which, descent_best):
    # Outside the class the fixed point converges slowly: alone it left 17%
    # of these random-channel starts at the 2000-iteration cap, up to 9e-4
    # above the minimum, and took 703 lockstep iterations on casimir:d=4. The
    # descent takes over every start it leaves unsettled, and ends no higher
    # than the Armijo/BB descent alone did from these starts (descent_best).
    T = random_channel(3, 3, 2, 0)[1] if which == "random" else zoo.build(zoo.parse_spec(which))[0]
    cfg = entropy.OptConfig(starts=64, seed=4242)
    rep = entropy.min_output_entropy(T, 1.0, cfg)
    assert rep.per_start_converged.all()
    assert rep.value <= descent_best + 1e-12
    assert (np.array(rep.per_start_values) <= _start_values(T, 1.0, cfg) + 1e-12).all()


@pytest.mark.parametrize("label, alpha", [("4,4,3,0", "0.75"), ("4,4,3,1", "0.75"), ("4,4,3,2", "0.75"),
                                          ("4,4,3,3", "0.75"), ("3,3,2,1", "0.75"), ("3,3,2,2", "0.75"),
                                          ("3,3,2,3", "0.75"), ("3,3,2,2", "0.5"), ("casimir:d=4", "0.5")]
                         + [(label, alpha) for alpha in ("1", "2", "5", "inf")
                            for label in sorted(OFFCLASS["min_output_entropy"])])
def test_offclass_search_reaches_the_descent_references(label, alpha):
    # Outside the class a fixed-point start can stall where one step gains
    # little but the projected gradient is 0.2 to 1.8; flagged converged
    # there, the best of 16 starts ended up to 4.6e-2 above the Armijo
    # descent's (the references, written by scripts/offclass_references.py),
    # and at alpha = 3/4 it crawled to the iteration cap. The descent now
    # takes those starts over. Of the reference set this runs every alpha =
    # 3/4 channel but casimir:d=4 (1 s; 5 of its 16 starts reach the
    # descent's iteration cap, 9 in the references' run) and 3,3,2,0 (0.3
    # s), and at alpha = 1/2 casimir:d=4 and 3,3,2,2; about 1.5 s in all. At
    # alpha = 1/2 the random channels 4,4,3,s still end above their
    # references (see ROADMAP). At alpha 1, 2, 5 and inf every channel of the
    # set runs, 4-150 ms each; at 2 and 5 the two minorize-maximize lead
    # steps hand every start on to the descent, and at inf the SQUAREM cycles
    # of the fixed point take them to the end. The best values meet the
    # references to within 1e-13.
    T = offclass_channel(label)
    cfg = entropy.OptConfig(starts=OFFCLASS["starts"], seed=OFFCLASS["seed"])
    rep = entropy.min_output_entropy(T, float(alpha), cfg)
    assert rep.value <= min(OFFCLASS["min_output_entropy"][label][alpha]) + 1e-9
    assert rep.per_start_converged.all()
    assert (np.array(rep.per_start_values) <= _start_values(T, float(alpha), cfg) + 1e-12).all()


@pytest.mark.parametrize("label", sorted(OFFCLASS["min_output_entropy"]))
def test_norm_search_stops_where_a_step_gains_nothing(label):
    # A start of the alpha = inf search is flagged converged once a SQUAREM
    # cycle gains at most tol. From every end point one more plain step gains
    # at most 6.2e-14 on this set. A cycle that kept its extrapolated point
    # where that is worse than x2 can lose, and then stops the start 1.7e-3
    # to 4.9e-3 short of where a plain step goes (4,4,3,0, 4,4,3,1, 3,3,2,1).
    T = offclass_channel(label)
    Psi0 = entropy._stack_starts(T.dim_in, entropy.OptConfig(starts=16, seed=4242))
    f, ends, converged, _ = entropy._descend_starts(T, math.inf, entropy._Outputs(T, Psi0), 2000, 1e-12)
    assert converged.all()
    assert (f - entropy._fixed_point(T, math.inf, entropy._Outputs(T, ends), 1, 1e-12)[0]).max() <= 1e-10


@pytest.mark.parametrize("spec", ["dephasing:2", "weyl:d=3"])
def test_real_start_stack_is_searched_as_complex(spec):
    # a real stack once took complex trial points into a real array, which
    # dropped their imaginary parts with a ComplexWarning
    T = zoo.build(zoo.dephasing(2) if spec == "dephasing:2" else zoo.parse_spec(spec))[0]
    x = np.linspace(1.0, 0.5, T.dim_in)[None] if spec == "weyl:d=3" else np.ones((1, 2))
    x /= np.linalg.norm(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = entropy._descend_starts(T, 2.0, entropy._Outputs(T, x), 2000, 1e-12)[0]
    assert abs(f[0] - entropy._descend_starts(T, 2.0, entropy._Outputs(T, x.astype(complex)), 2000, 1e-12)[0][0]) \
        <= 1e-12


def test_characterize_draws_each_random_start_once(wh3, monkeypatch):
    # one stack serves every alpha and alpha = 0; the norm search puts its
    # warm start in front of the same random rows, so it draws none
    T, _ = wh3
    draws = []
    draw = entropy.haar_state_vectors
    monkeypatch.setattr(entropy, "haar_state_vectors",
                        lambda seed, count, d: draws.extend(range(count)) or draw(seed, count, d))
    entropy.characterize(T, [0.0, 0.5, 1.0, 2.0, math.inf], entropy.OptConfig(starts=6))
    assert draws == list(range(6))


@pytest.mark.parametrize("k, budget, calls", [(2, linalg.ADJOINT_BLOCK_ENTRIES, 0),
                                               (1, linalg.ADJOINT_BLOCK_ENTRIES, 1), (1, 12, 3), (1, 1, 5)])
def test_factored_adjoint_matches_the_kraus_sum(monkeypatch, k, budget, calls):
    # T+(U U+) on 5 members for a complex 2 -> 3 channel. With 2 Kraus
    # operators the Choi product is the cheaper; with 1 the Kraus images, 6
    # entries per member: all in one call, two members per call with a short
    # last block (12 entries) or one member per call (1 entry).
    _, T, rng = random_channel(2, 3, k, seed=5)
    monkeypatch.setattr(linalg, "ADJOINT_BLOCK_ENTRIES", budget)
    seen = []
    kernel = T.pure_outputs
    monkeypatch.setattr(T, "pure_outputs", lambda *args, **kwargs: seen.append(1) or kernel(*args, **kwargs))
    U = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    expected = np.array([T.apply_adjoint_raw(u @ u.conj().T) for u in U])
    assert np.abs(entropy._factored_adjoint(T)(U) - expected).max() <= 1e-12
    assert len(seen) == calls


def test_fixed_point_values_do_not_depend_on_the_adjoint_path(monkeypatch):
    # a Choi-size cap of 1 sends T+(W) through the Kraus images
    T, _ = zoo.build(zoo.parse_spec("wh:d=3"))
    cfg = entropy.OptConfig(starts=8, seed=4242)
    by_choi = entropy.min_output_entropy(T, 0.5, cfg).per_start_values
    monkeypatch.setattr(entropy, "DIM_CAP", 1)
    monkeypatch.setattr(linalg, "ADJOINT_BLOCK_ENTRIES", 60)
    by_kraus = entropy.min_output_entropy(T, 0.5, cfg).per_start_values
    assert np.abs(np.array(by_choi) - by_kraus).max() <= 1e-12


def _depolarized(T, eps):
    """(1 - eps) T + eps (the fully depolarizing channel) for a channel T on
    d x d matrices, by Kraus operators."""
    d = T.dim_in
    flat = [np.sqrt(eps / d) * np.outer(np.eye(d)[:, i], np.eye(d)[:, j]) for i in range(d) for j in range(d)]
    return ch.QuantumChannel(d, d, tuple(np.sqrt(1.0 - eps) * A for A in T.kraus) + tuple(flat))


@pytest.mark.parametrize("spec", ["wh:d=3", "coarse:n=2,D=2"])
@pytest.mark.parametrize("eps, failing", [
    (1e-1, {"constant_nu", "norm_at_projection", "projective_form"}),
    (1e-4, {"constant_nu", "norm_at_projection", "projective_form"}),
    (1e-8, {"constant_nu"}),
    (1e-10, {"constant_nu"}),
])
def test_depolarized_class_channel_is_not_in_the_class(spec, eps, failing):
    # Near the class only the alpha = 1/2 search tells the channel apart: at
    # eps = 1e-10 on wh:d=3, nu_0.5 = 1.0000118 against nu_inf = 1, a spread
    # just above TOL_EQUIV = 1e-5.
    T, _ = zoo.build(zoo.parse_spec(spec))
    rep = entropy.characterize(_depolarized(T, eps), GRID, CFG)
    predicates = {"constant_nu": rep.constant_nu, "norm_at_projection": rep.norm_at_projection,
                  "projective_form": rep.projective_form is not None}
    assert not rep.all_three
    assert {name for name, holds in predicates.items() if not holds} == failing


def _sphere_rayleigh(A):
    """fg of psi+ A psi on the unit sphere, in the protocol of entropy._armijo_descent."""
    def fg(X):
        g = 2.0 * X @ A.T
        f = np.real(np.sum(X.conj() * g, axis=1)) / 2
        return f, g - 2 * f[:, None] * X
    return fg


def test_barzilai_borwein_descent_reaches_the_smallest_eigenvalue():
    rng = split_seed(11)
    G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    A = (G + G.conj().T) / 2
    X0 = np.array([haar_state_vector(split_seed(11, i), 6) for i in range(8)])
    fg = _sphere_rayleigh(A)
    f, _, reasons, _ = entropy._armijo_descent(fg, entropy._sphere_retract, X0, fg(X0),
                                               2000, 1e-12, entropy.ENTROPY_STEP_CAP)
    assert np.abs(f - np.linalg.eigvalsh(A)[0]).max() <= 1e-12
    assert "max_iters" not in reasons


def test_vanishing_curvature_takes_the_doubled_step():
    # a linear objective: the gradient never changes, so Re<s, y> = 0 and
    # every first trial step is the last accepted one doubled, up to the cap
    c = np.array([1.0, -2.0, 0.5])
    x = np.zeros((1, 3))  # the last trial point; every trial is accepted
    trial_steps = []

    def fg(X):
        return X @ c, np.tile(c, (len(X), 1))

    def retract(X):
        trial_steps.append(float((x[0] - X[0]) @ c / (c @ c)))
        x[0] = X[0]
        return X

    entropy._armijo_descent(fg, retract, x.copy(), fg(x), 8, 1e-12, 100.0)
    assert np.allclose(trial_steps, [2, 4, 8, 16, 32, 64, 100, 100], rtol=1e-12)
