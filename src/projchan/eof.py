"""Bipartite states from channel dilations and entanglement-of-formation
upper bounds.

eof_upper optimizes over pure-state decompositions of a rank-r state: any
size-k ensemble is W applied to the subnormalized eigenvectors for a k x r
isometry W, so the search runs the entropy module's Armijo descent on the
Stiefel manifold (QR retraction), with the same seeding and best-start
contract. The average entanglement entropy of the induced ensemble is an upper
bound on E_F for every W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .capacity import Ensemble
from .entropy import _armijo_descent, _best_start
from .errors import BadDims, DimensionOverflow, DimMismatch, SpecInvalid
from .linalg import DIM_CAP, dag
from .sampling import split_seed

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
    acc = np.zeros((U.mat.shape[0], U.mat.shape[0]), dtype=complex)
    for p, s in zip(e.probs, e.states):
        w, V = np.linalg.eigh(s.mat)
        phi = V[:, -1]
        out = U.mat @ phi
        acc += p * np.outer(out, out.conj())
    return BipartiteState(T.dim_out, U.env_dim, ch.DensityMatrix(acc.shape[0], acc))


def entanglement_entropy(psi: np.ndarray, dimA: int, dimB: int) -> float:
    C = np.asarray(psi, dtype=complex).reshape(dimA, dimB)
    w = np.linalg.eigvalsh(C @ dag(C))
    w = np.clip(w, 0.0, None)
    nz = w[w > 1e-18]
    return float(-np.sum(nz * np.log2(nz)))


def _qr_retract(W: np.ndarray) -> np.ndarray:
    Q, R = np.linalg.qr(W)
    s = np.sign(np.real(np.diag(R)))
    s[s == 0] = 1.0
    return Q * s


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

    def value(W):
        # every member at once: tau_j = C_j C_j+, one eigh over the live stack
        C = (W @ E).reshape(k, dA, dB)
        tau = C @ C.conj().transpose(0, 2, 1)
        p = np.real(np.trace(tau, axis1=1, axis2=2))
        live = p >= 1e-14
        mu, V = np.linalg.eigh(tau[live] / p[live, None, None])
        mu = np.clip(mu, 1e-18, None)
        ent = -np.sum(np.where(mu > 1e-17, mu * np.log2(mu), 0.0), axis=1)
        return float(p[live] @ ent), (C, live, mu, V)

    def grad(W, aux):
        C, live, mu, V = aux
        G = np.zeros((k, r), dtype=complex)
        logs = (V * np.log2(mu)[:, None, :]) @ V.conj().transpose(0, 2, 1)
        G[live] = -(logs @ C[live]).reshape(-1, dA * dB) @ dag(E)
        return G

    values, args, convs = [], [], []
    for i in range(cfg.starts):
        rng = split_seed(cfg.seed, i)
        W0 = _qr_retract(rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r)))
        f, W, _, reason = _armijo_descent(value, grad, _qr_retract, W0, cfg.max_iters, cfg.tol,
                                          EOF_STEP_CAP)
        values.append(f)
        args.append(W)
        convs.append(reason != "max_iters")
    best = _best_start(values, pick_min=True)
    W = args[best]
    Phi = W @ E
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
        converged=convs[best],
        seed=cfg.seed,
        per_start_values=[float(v) for v in values],
    )
