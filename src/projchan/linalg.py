"""Dense complex matrix kernel: the eigenvalue clamp for states, partial
trace, and the superoperators of the transpose (the flip operator) and of
X -> tr X * I.

Storage is row-major; composite systems are ordered left to right, so the
matrix index of a basis vector |i1,...,iN> is i1*prod(d2..dN) + ... + iN.
"""

from __future__ import annotations

import string

import numpy as np

from .errors import BadDims, NotPositiveSemidefinite

# Largest matrix dimension tensor_channels() will produce; DIM_CAP**2 also caps
# the entries of a Kraus stack and of a sampled check's stack of states.
DIM_CAP = 4096

# Eigenvalues of states in [-NEG_EIG_TOL, 0) are treated as roundoff and
# clamped to zero; anything below is a genuine positivity failure.
NEG_EIG_TOL = 1e-10

# Members per call of a kernel batched over a stack of samples (the EoF
# objective): larger blocks raised peak memory without running faster.
BATCH_BLOCK = 16

# Most entries (16 MiB) one stacked product holds: Kraus images in a channel's
# applies and the fixed point's T+ calls, group products in FiniteGroup's closure check.
ADJOINT_BLOCK_ENTRIES = 1 << 20


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of a matrix or of each member of a stack."""
    return A.conj().swapaxes(-1, -2)


def herm_norm_inf(A: np.ndarray) -> float:
    """Entrywise max-modulus norm."""
    return float(np.abs(A).max()) if A.size else 0.0


def clamp_state_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Clamp roundoff-negative eigenvalues to zero; reject genuine negativity."""
    w = np.asarray(w, dtype=float)
    if w.min(initial=0.0) < -NEG_EIG_TOL:
        raise NotPositiveSemidefinite(f"eigenvalue {w.min():.3e} below -{NEG_EIG_TOL:.0e}")
    return np.where(w < 0.0, 0.0, w)


def partial_trace(X: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in `keep` (order preserved)."""
    dims = list(dims)
    if int(np.prod(dims)) != X.shape[0] or X.shape[0] != X.shape[1]:
        raise BadDims(f"dims {tuple(dims)} incompatible with matrix shape {X.shape}")
    keep = sorted(set(keep))
    N = len(dims)
    if keep == list(range(N)):
        return np.asarray(X, dtype=complex).copy()
    t = np.asarray(X, dtype=complex).reshape(dims + dims)
    letters = string.ascii_lowercase
    row = list(letters[:N])
    col = list(letters[N:2 * N])
    for i in range(N):
        if i not in keep:
            col[i] = row[i]
    spec = "".join(row) + "".join(col) + "->" + "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return np.einsum(spec, t).reshape(dk, dk)


def flip(d: int) -> np.ndarray:
    """Flip (swap) operator on C^d x C^d: F|i,j> = |j,i>; also the
    transpose X -> X^T as a superoperator on row-major vec."""
    return np.eye(d * d).reshape(d, d, d, d).swapaxes(2, 3).reshape(d * d, d * d)


def trace_superop(d: int) -> np.ndarray:
    """X -> tr X * I on C^{d x d} as a superoperator on row-major vec: vec(I) vec(I)^T."""
    return np.outer(np.eye(d), np.eye(d))


def projector_from_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())
