import json
import math
import pathlib

import numpy as np
import pytest

from conftest import haar_state_vector, identity_channel, max_entangled
from projchan import capacity as cap
from projchan import channels as ch
from projchan import eof, linalg, zoo
from projchan.errors import NonPureEnsemble
from projchan.sampling import split_seed

CFG = eof.EofConfig(starts=16)


def test_example9_spectrum_and_trace():
    st = eof.example9_state()
    w = np.sort(np.linalg.eigvalsh(st.mat.mat))
    assert np.allclose(w, [0.0] * 12 + [0.25] * 4, atol=1e-13)
    assert abs(np.trace(st.mat.mat).real - 1.0) < 1e-14


def test_example9_member_vectors():
    # the four printed vectors are orthonormal; each carries maximal (2 ebit)
    # entanglement, with both reductions maximally mixed (computed directly;
    # the optimal decompositions found by eof_upper average 1 ebit instead)
    st = eof.example9_state()
    P = st.mat.mat * 4  # projection onto the span
    assert linalg.herm_norm_inf(P @ P - P) < 1e-12
    for red_keep in ([0], [1]):
        red = linalg.partial_trace(st.mat.mat, [4, 4], red_keep)
        assert linalg.herm_norm_inf(red - np.eye(4) / 4) < 1e-13
    w, V = np.linalg.eigh(st.mat.mat)
    for k in range(16):
        if w[k] > 1e-8:
            ent = eof.entanglement_entropy(V[:, k], 4, 4)
            assert abs(ent - 2.0) < 1e-10


def test_example9_span_respects_class_norm_bound():
    # every unit vector in the carrier has reduction norm <= 1/2, matching the
    # maximal output norm of the generating channel
    st = eof.example9_state()
    w, V = np.linalg.eigh(st.mat.mat)
    B = V[:, w > 1e-8]
    rng = split_seed(50)
    for _ in range(200):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c /= np.linalg.norm(c)
        psi = (B @ c).reshape(4, 4)
        top = np.linalg.eigvalsh(psi @ psi.conj().T)[-1]
        assert top <= 0.5 + 1e-10


def test_channel_optimal_state_identity():
    T = identity_channel(2)
    e = cap.Ensemble([0.5, 0.5], (ch.DensityMatrix.from_vector(np.eye(2)[:, 0]),
                                  ch.DensityMatrix.from_vector(np.eye(2)[:, 1])))
    st = eof.channel_optimal_state(T, e)
    assert st.dimB == 1
    rep = eof.eof_upper(st, eof.EofConfig(starts=4))
    assert abs(rep.value) < 1e-9


def test_channel_optimal_state_rejects_mixed():
    T = identity_channel(2)
    e = cap.Ensemble([1.0], (ch.DensityMatrix(2, np.eye(2) / 2),))
    with pytest.raises(NonPureEnsemble):
        eof.channel_optimal_state(T, e)


def test_channel_optimal_state_wh3(wh3):
    # the Heisenberg-Weyl orbit of |0><0| averages to I/3 and every member
    # attains nu_1, so E_F of the induced state is nu_1 = 1
    T, _ = wh3
    us = zoo.heisenberg_weyl_unitaries(3)
    states = tuple(ch.DensityMatrix.from_vector(U[:, 0]) for U in us)
    e = cap.Ensemble([1 / 9] * 9, states)
    st = eof.channel_optimal_state(T, e)
    assert (st.dimA, st.dimB) == (3, 3)
    rep = eof.eof_upper(st, CFG)
    assert abs(rep.value - 1.0) <= 1e-9


def test_channel_optimal_state_casimir_reducible(casred):
    # a capacity-achieving ensemble: the four isotypic product-basis states
    # (each attains nu_1 = 1, and they average to I/4, whose output is I/4)
    T, _ = casred
    Ks = zoo.casimir_reducible_complementary_generators()
    Js = zoo.casimir_reducible_generators()
    w, V = np.linalg.eigh(2 * Ks[2] + Js[2])  # four distinct levels: product basis
    states = tuple(ch.DensityMatrix.from_vector(V[:, k]) for k in range(4))
    for s in states:
        out = ch.DensityMatrix(4, T.apply_raw(s.mat))
        assert abs(np.linalg.eigvalsh(out.mat)[-1] - 0.5) < 1e-12  # attains nu_1
    avg = sum(s.mat for s in states) / 4
    assert linalg.herm_norm_inf(avg - np.eye(4) / 4) < 1e-12
    st = eof.channel_optimal_state(T, cap.Ensemble([0.25] * 4, states))
    assert (st.dimA, st.dimB) == (4, 4)
    # the induced state is a normalized rank-4 projection, like the explicit
    # example state, and carries one ebit of formation
    spec = np.sort(np.linalg.eigvalsh(st.mat.mat))
    assert np.allclose(spec, [0.0] * 12 + [0.25] * 4, atol=1e-12)
    rep = eof.eof_upper(st, CFG)
    assert abs(rep.value - 1.0) <= 1e-9


def test_eof_pure_product_zero():
    st = eof.BipartiteState(2, 2, ch.DensityMatrix.from_vector(np.array([1, 0, 0, 0], dtype=complex)))
    rep = eof.eof_upper(st, eof.EofConfig(starts=4))
    assert abs(rep.value) < 1e-9


def test_eof_bell_one():
    st = eof.BipartiteState(2, 2, ch.DensityMatrix(4, max_entangled(2)))
    rep = eof.eof_upper(st, eof.EofConfig(starts=4))
    assert abs(rep.value - 1.0) < 1e-9


def test_eof_example9():
    rep = eof.eof_upper(eof.example9_state(), CFG)
    assert abs(rep.value - 1.0) <= 1e-9


def test_eof_ensemble_invariants():
    st = eof.example9_state()
    rep = eof.eof_upper(st, CFG)
    mix = sum(p * s.mat for p, s in zip(rep.ensemble.probs, rep.ensemble.states))
    assert linalg.herm_norm_inf(mix - st.mat.mat) <= 1e-8
    for s in rep.ensemble.states:
        assert s.is_pure(1e-10)
    avg_ent = sum(p * eof.entanglement_entropy(_vec(s), 4, 4)
                  for p, s in zip(rep.ensemble.probs, rep.ensemble.states))
    assert abs(avg_ent - rep.value) <= 1e-9


def test_eof_monotone_in_starts():
    # candidate nesting: doubling the start count never raises the value
    st = eof.example9_state()
    lo = eof.eof_upper(st, eof.EofConfig(starts=4)).value
    hi = eof.eof_upper(st, eof.EofConfig(starts=8)).value
    assert hi <= lo + 1e-12


def _vec(state):
    w, V = np.linalg.eigh(state.mat)
    return V[:, -1]


def test_converged_is_the_best_starts_flag():
    # after three iterations the best start still improves by more than tol
    # and hits the cap, while others have stopped: their values stay put when
    # the cap is raised
    st = eof.example9_state()
    rep = eof.eof_upper(st, eof.EofConfig(starts=8, max_iters=3, tol=0.03))
    more = eof.eof_upper(st, eof.EofConfig(starts=8, max_iters=4, tol=0.03))
    best = int(np.argmin(rep.per_start_values))
    assert not rep.converged
    assert more.per_start_values[best] < rep.per_start_values[best]
    assert any(a == b for i, (a, b) in enumerate(zip(rep.per_start_values, more.per_start_values))
               if i != best)


def _kernel(state):
    """eof_upper's (E, fg, k), fg taken on one isometry."""
    w, V = np.linalg.eigh(state.mat.mat)
    E = (V[:, w > 1e-12] * np.sqrt(w[w > 1e-12])).T
    fg = eof._ensemble_objective(E, state.dimA, state.dimB)

    def fg1(W):
        f, G = fg(W[None])
        return f[0], G[0]

    return E, fg1, E.shape[0] ** 2


def _per_member_value_grad(W, E, dA, dB):
    """Reference: one eigh and one log matrix per ensemble member."""
    k, r = W.shape
    C = (W @ E).reshape(k, dA, dB)
    val, G = 0.0, np.zeros((k, r), dtype=complex)
    for j in range(k):
        tau = C[j] @ C[j].conj().T
        p = np.trace(tau).real
        if p < 1e-14:
            continue
        lj, Vj = np.linalg.eigh(tau / p)
        lj = np.clip(lj, 1e-18, None)
        val += p * float(-np.sum(np.where(lj > 1e-17, lj * np.log2(lj), 0.0)))
        G[j] = E.conj() @ (-((Vj * np.log2(lj)) @ Vj.conj().T @ C[j])).reshape(-1)
    return val, G


def _rank3_state():
    rng = split_seed(60)
    vecs = [haar_state_vector(rng, 6) for _ in range(3)]
    rho = sum(q * np.outer(v, v.conj()) for q, v in zip((0.5, 0.3, 0.2), vecs))
    return eof.BipartiteState(2, 3, ch.DensityMatrix(6, rho))


def _isometry(rng, k, r, zero_row=None):
    """A random k x r isometry; row `zero_row`, if given, is zero."""
    rows = k if zero_row is None else k - 1
    W = eof._qr_retract(rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r)))
    return W if zero_row is None else np.insert(W, zero_row, 0.0, axis=0)


@pytest.mark.parametrize("which", ["example9", "rank3_2x3"])
def test_batched_kernel_matches_per_member_loop(which):
    state = eof.example9_state() if which == "example9" else _rank3_state()
    E, fg, k = _kernel(state)
    r = E.shape[0]
    rng = split_seed(61, k)
    for zero_row in (None, None, 2):
        W = _isometry(rng, k, r, zero_row)
        f, G = fg(W)
        f_ref, G_ref = _per_member_value_grad(W, E, state.dimA, state.dimB)
        assert abs(f - f_ref) <= 1e-12
        assert np.abs(G - G_ref).max() <= 1e-12
        if zero_row is not None:
            assert np.all(G[zero_row] == 0)


@pytest.mark.parametrize("which", ["example9", "rank3_2x3"])
def test_batched_gradient_matches_finite_difference(which):
    # df along D is 2 Re <D, G> in the ambient space of k x r matrices
    state = eof.example9_state() if which == "example9" else _rank3_state()
    E, fg, k = _kernel(state)
    rng = split_seed(62, k)
    W = _isometry(rng, k, E.shape[0])
    D = rng.standard_normal(W.shape) + 1j * rng.standard_normal(W.shape)
    D /= np.linalg.norm(D)
    h = 1e-5
    fd = (fg(W + h * D)[0] - fg(W - h * D)[0]) / (2 * h)
    assert abs(fd - 2 * np.real(np.vdot(D, fg(W)[1]))) <= 1e-6


def test_eof_example9_per_start_values_match_reference():
    # per-start values of `projchan eof --state example9 --starts 64` as
    # printed by the per-member Euclidean-gradient implementation: no start
    # may end above its old value, and every start reaches E_F = 1
    want = json.loads((pathlib.Path(__file__).parent / "data" / "eof_example9_starts64.json").read_text())
    got = np.array(eof.eof_upper(eof.example9_state(), eof.EofConfig(starts=64)).per_start_values)
    assert np.all(got <= np.array(want["per_start_values"]) + 1e-12)
    assert np.all(got <= 1.0 + 1e-9)


def _recording_search(monkeypatch, state, cfg):
    """Run eof_upper(state, cfg) and record what its descent was given and did:
    the `fg` it was passed, its exit reasons and its `fg` calls."""
    seen = {"fg_calls": 0}
    descent = eof._armijo_descent

    def recording_descent(fg, *rest, **kwargs):
        def counting_fg(W):
            seen["fg_calls"] += 1
            return fg(W)
        seen["fg"] = fg
        out = descent(counting_fg, *rest, **kwargs)
        seen["reasons"] = list(out[2])
        return out

    monkeypatch.setattr(eof, "_armijo_descent", recording_descent)
    seen["report"] = eof.eof_upper(state, cfg)
    return seen


@pytest.mark.parametrize("which", ["example9", "rank3_2x3"])
def test_search_gradient_is_riemannian(monkeypatch, which):
    # the search descends a tangent vector at W (W+ G + G+ W = 0), and along
    # a tangent direction D the retracted objective changes at 2 Re <D, G>
    state = eof.example9_state() if which == "example9" else _rank3_state()
    seen = _recording_search(monkeypatch, state, eof.EofConfig(starts=1, max_iters=1))
    E, _, k = _kernel(state)
    rng = split_seed(63, k)
    W = _isometry(rng, k, E.shape[0])[None]
    G = seen["fg"](W)[1]
    WG = W[0].conj().T @ G[0]
    assert np.abs(WG + WG.conj().T).max() <= 1e-12
    Z = rng.standard_normal(W.shape) + 1j * rng.standard_normal(W.shape)
    WZ = W[0].conj().T @ Z[0]
    D = Z - W @ ((WZ + WZ.conj().T) / 2)
    D /= np.linalg.norm(D)
    h = 1e-5
    fg = seen["fg"]
    fd = (fg(eof._qr_retract(W + h * D))[0][0] - fg(eof._qr_retract(W - h * D))[0][0]) / (2 * h)
    assert abs(fd - 2 * np.real(np.vdot(D, G))) <= 1e-6


def test_example9_search_counts(monkeypatch):
    # the 64-start example9 search: every start stops on tol, the best at
    # E_F = 1, in few batched evaluations
    seen = _recording_search(monkeypatch, eof.example9_state(), eof.EofConfig(starts=64))
    assert seen["fg_calls"] <= 60
    assert seen["reasons"] == ["tol"] * 64
    assert abs(seen["report"].value - 1.0) <= 1e-12
