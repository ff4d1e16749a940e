"""Bipartite states from channel dilations and entanglement-of-formation
upper bounds.

eof_upper optimizes over pure-state decompositions of a rank-r state: any
size-k ensemble is W applied to the subnormalized eigenvectors for a k x r
isometry W, so the search runs the entropy module's lockstep Armijo descent
on the Stiefel manifold (QR retraction), every start as one (starts, k, r)
stack, with the same seeding and best-start contract. It descends the
Riemannian gradient G - W herm(W+ G) of the embedded metric Re tr(A+ B),
with Barzilai-Borwein trial steps, as the sphere descent does at every
finite alpha.
The average entanglement entropy of the induced ensemble is an upper bound
on E_F for every W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .capacity import Ensemble
from .entropy import _armijo_descent, _best_start, _entropy_from_eigs
from .errors import BadDims, DimensionOverflow, DimMismatch, SpecInvalid
from .linalg import BATCH_BLOCK, DIM_CAP, dag
from .sampling import complex_normal, split_seed

EOF_STEP_CAP = 1e2  # largest Armijo trial step on the Stiefel manifold


@dataclass
class BipartiteState:
    dimA: int
    dimB: int
    mat: ch.DensityMatrix

    def __post_init__(self):
        if self.mat.dim != self.dimA * self.dimB:
            raise BadDims(f"joint dim {self.mat.dim} != {self.dimA} * {self.dimB}")


@dataclass
class EofConfig:
    starts: int = 64
    seed: int = 12648430
    max_iters: int = 2000
    tol: float = 1e-12
    k: int | None = None  # ensemble size; defaults to rank^2


@dataclass
class EofReport:
    value: float
    ensemble: Ensemble
    converged: bool
    seed: int
    per_start_values: list

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "ensemble_size": len(self.ensemble.states),
            "probs": self.ensemble.probs.tolist(),
            "converged": self.converged,
            "seed": self.seed,
            "per_start_values": list(self.per_start_values),
        }


def example9_state() -> BipartiteState:
    """The explicit four-vector mixture on C^4 x C^4 (kets written 1-based)."""

    def ket(i, j):
        v = np.zeros(16, dtype=complex)
        v[(i - 1) * 4 + (j - 1)] = 1.0
        return v

    psi1 = (1j * (ket(1, 4) + ket(2, 3) - ket(3, 2)) + ket(4, 1)) / 2
    psi2 = (1j * (-ket(1, 3) + ket(2, 4) + ket(3, 1)) + ket(4, 2)) / 2
    psi3 = (1j * (ket(1, 2) - ket(2, 1) + ket(3, 4)) + ket(4, 3)) / 2
    psi4 = (1j * (-ket(1, 1) - ket(2, 2) - ket(3, 3)) + ket(4, 4)) / 2
    rho = sum(np.outer(p, p.conj()) for p in (psi1, psi2, psi3, psi4)) / 4
    return BipartiteState(4, 4, ch.DensityMatrix(16, rho))


def channel_optimal_state(T: ch.QuantumChannel, e: Ensemble) -> BipartiteState:
    """Dilate T and push the ensemble through: rho = sum_i p_i U rho_i U+ on
    (output x environment)."""
    if e.dim != T.dim_in:
        raise DimMismatch(f"ensemble dim {e.dim} != channel input dim {T.dim_in}")
    ch.ensure_pure_members(e.states)
    U = ch.stinespring(T)
    out = np.linalg.eigh(np.stack([s.mat for s in e.states]))[1][:, :, -1] @ U.mat.T  # row i: U psi_i
    acc = (e.probs[:, None] * out).T @ out.conj()
    return BipartiteState(T.dim_out, U.env_dim, ch.DensityMatrix(len(acc), acc))


def entanglement_entropy(psi: np.ndarray, dimA: int, dimB: int) -> float:
    C = np.asarray(psi, dtype=complex).reshape(dimA, dimB)
    return float(_entropy_from_eigs(np.linalg.eigvalsh(C @ dag(C)), 1.0))


def _qr_retract(W: np.ndarray) -> np.ndarray:
    """The Q factor, with R's diagonal made nonnegative, of each matrix in a stack."""
    Q, R = np.linalg.qr(W)
    s = np.sign(np.real(np.diagonal(R, axis1=-2, axis2=-1)))
    s[s == 0] = 1.0
    return Q * s[..., None, :]


def _ensemble_objective(E: np.ndarray, dA: int, dB: int):
    """fg of the average entanglement entropy of the ensemble W E, for an
    (s, k, r) stack W of isometries and the r x (dA dB) subnormalized
    eigenvectors E, in the protocol of entropy._armijo_descent: each start's
    value and Euclidean gradient from one eigh of its members. It runs
    BATCH_BLOCK starts at a time, which bounds its temporaries."""

    def fg(W):
        f, G = np.empty(len(W)), np.empty(W.shape, dtype=complex)
        for i in range(0, len(W), BATCH_BLOCK):
            # every member of every start in the block at once: C_j, its
            # weight p_j, and eig of tau_j = C_j C_j+ / p_j where p_j >= 1e-14
            # (a lighter member is skipped)
            C = (W[i:i + BATCH_BLOCK] @ E).reshape(-1, W.shape[1], dA, dB)
            tau = C @ C.conj().swapaxes(-1, -2)
            p = np.real(np.trace(tau, axis1=-2, axis2=-1))
            live = p >= 1e-14
            tau /= np.where(live, p, 1.0)[..., None, None]
            mu, V = np.linalg.eigh(tau)
            f[i:i + BATCH_BLOCK] = np.sum(np.where(live, p * _entropy_from_eigs(mu, 1.0), 0.0), axis=1)
            V[~live] = 0.0
            logs = (V * np.log2(np.clip(mu, 1e-18, None))[..., None, :]) @ V.conj().swapaxes(-1, -2)
            G[i:i + BATCH_BLOCK] = -(logs @ C).reshape(len(C), -1, dA * dB) @ dag(E)
        return f, G

    return fg


def eof_upper(state: BipartiteState, cfg: EofConfig | None = None) -> EofReport:
    """Upper bound on E_F by ensemble-search over k x r isometries."""
    cfg = cfg or EofConfig()
    dA, dB = state.dimA, state.dimB
    w, V = np.linalg.eigh(state.mat.mat)
    keep = w > 1e-12
    lam = w[keep]
    E = (V[:, keep] * np.sqrt(lam)).T  # r x (dA dB), subnormalized eigvecs
    r = E.shape[0]
    k = cfg.k or r * r
    if cfg.starts < 1 or k < r:
        raise SpecInvalid(f"EoF search needs starts >= 1 and ensemble size k >= rank {r} "
                          f"(starts = {cfg.starts}, k = {k})")
    if k * dA * dB > DIM_CAP ** 2:
        raise DimensionOverflow(f"{k} ensemble members of {dA}x{dB} exceed the cap of {DIM_CAP ** 2} entries")

    euclidean_fg = _ensemble_objective(E, dA, dB)

    def fg(W):  # with the Riemannian gradient: G - W herm(W+ G), tangent at W
        f, G = euclidean_fg(W)
        WG = W.conj().swapaxes(-1, -2) @ G
        return f, G - W @ ((WG + WG.conj().swapaxes(-1, -2)) / 2)

    W0 = _qr_retract(np.concatenate([complex_normal(split_seed(cfg.seed, i), 1, k, r) for i in range(cfg.starts)]))
    values, Ws, reasons, _ = _armijo_descent(fg, _qr_retract, W0, cfg.max_iters, cfg.tol, EOF_STEP_CAP)
    best = _best_start(values, pick_min=True)
    Phi = Ws[best] @ E
    probs = np.real(np.einsum("ji,ji->j", Phi.conj(), Phi))
    keep_members = probs > 1e-12
    members = tuple(
        ch.DensityMatrix.from_vector(Phi[j] / np.sqrt(probs[j]))
        for j in range(k) if keep_members[j]
    )
    ensemble = Ensemble(probs[keep_members] / probs[keep_members].sum(), members)
    return EofReport(
        value=float(values[best]),
        ensemble=ensemble,
        converged=bool(reasons[best] != "max_iters"),
        seed=cfg.seed,
        per_start_values=[float(v) for v in values],
    )
