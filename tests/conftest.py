import numpy as np
import pytest

from projchan import additivity as add
from projchan import channels as ch
from projchan import linalg
from projchan import zoo
from projchan.sampling import complex_normal, split_seed


@pytest.fixture(scope="session")
def wh3():
    return zoo.build(zoo.WernerHolevo(3))


@pytest.fixture(scope="session")
def casred():
    return zoo.build(zoo.CasimirReducibleExample())


@pytest.fixture(scope="session")
def coarse22():
    return zoo.build(zoo.CoarseGraining(2, 2))


def identity_channel(d):
    return ch.QuantumChannel(d, d, (np.eye(d, dtype=complex),), name=f"id:{d}")


def max_entangled(d):
    """The maximally entangled state |Omega><Omega| on C^d x C^d, with
    |Omega> = sum_i |i,i> / sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(v, v.conj())


def trace_square_bound(maps, rho):
    """tr[(x_i M_i)(rho)^2] against prod_i 1/m_i on one state rho: (lhs,
    bound, lhs <= bound + 1e-9). NotProjectiveClass if a map carries no m."""
    bound = add._trace_square_limit(maps)
    lhs = float(add._trace_squares(add.apply_product_map(maps, rho)))
    return lhs, bound, bool(lhs <= bound + 1e-9)


def haar_state_vector(rng, d):
    """One unit vector v / |v| of a complex Gaussian v drawn from rng, real
    part then imaginary part: a test input, and the per-row reference for
    sampling.haar_state_vectors."""
    v = complex_normal(rng, 1, d)[0]
    return v / np.linalg.norm(v)


def haar_unitary(rng, d):
    """One Haar unitary drawn by two standard_normal calls, real part then
    imaginary part: the per-draw reference for sampling.haar_unitaries."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    ph = np.diag(R)
    return Q * (ph / np.abs(ph))


def _closed_by_all_pairs(us, tol=1e-8):
    """Reference verdict on a (n, d, d) unitary family: every product A B
    against the member U of largest overlap |tr(U+ A B)|, within tol
    entrywise after phase alignment (no alignment where every overlap is 0)."""
    for A in us:
        for B in us:
            P = A @ B
            overlaps = np.array([np.vdot(U, P) for U in us])
            k = np.argmax(np.abs(overlaps))
            if np.abs(P - np.exp(1j * np.angle(overlaps[k])) * us[k]).max() > tol:
                return False
    return True


def random_channel(d_in, d_out, k, seed):
    """The k d_out x d_in blocks of a random (k d_out) x d_in isometry as Kraus
    operators (k is raised to ceil(d_in / d_out) so that the isometry exists),
    the channel they define, and a generator for test inputs."""
    rng = split_seed(seed, d_in, d_out, k)
    k = max(k, -(-d_in // d_out))
    G = rng.normal(size=(k * d_out, d_in)) + 1j * rng.normal(size=(k * d_out, d_in))
    K = np.linalg.qr(G)[0].reshape(k, d_out, d_in)
    return K, ch.QuantumChannel(d_in, d_out, tuple(K)), rng


def offclass_channel(label):
    """A channel outside the projective class by its label in
    tests/data/offclass_seed4242_starts16.json: a zoo spec, or
    "d_in,d_out,k,seed" for random_channel(d_in, d_out, k, seed)."""
    if ":" in label:
        return zoo.build(zoo.parse_spec(label))[0]
    return random_channel(*map(int, label.split(",")))[1]


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


def permute_systems(X: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a square matrix: new factor k is old factor perm[k]."""
    dims, perm = list(dims), list(perm)
    n = int(np.prod(dims))
    return np.asarray(X).reshape(dims + dims).transpose(perm + [len(dims) + p for p in perm]).reshape(n, n)


# Per-operator references for the zoo's stacked builders: each family built one
# matrix at a time, by loops over operators, group elements and projectors.


def weyl_unitaries_ref(d):
    out = []
    for i in range(1, d + 1):
        W = np.zeros((d, d), dtype=complex)
        for j in range(d):
            W[(j + i) % d, j] = 1.0
        out.append(W)
    return np.array(out)


def phase_unitaries_ref(d):
    return np.array([np.diag([np.exp(2j * np.pi * l * j / d) for l in range(d)]) for j in range(1, d + 1)])


def heisenberg_weyl_unitaries_ref(d):
    W = weyl_unitaries_ref(d)[0]
    Z = phase_unitaries_ref(d)[0]
    out = []
    Wa = np.eye(d, dtype=complex)
    for _ in range(d):
        Zb = np.eye(d, dtype=complex)
        for _ in range(d):
            out.append(Wa @ Zb)
            Zb = Zb @ Z
        Wa = Wa @ W
    return np.array(out)


def su2_generators_ref(d):
    j = (d - 1) / 2
    m = np.arange(j, -j - 1, -1)
    Jp = np.zeros((d, d))
    for k in range(d - 1):
        mm = m[k + 1]
        Jp[k, k + 1] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    Jm = Jp.T
    return [(Jp + Jm) / 2 + 0j, (Jp - Jm) / 2j, np.diag(m).astype(complex)]


def wh_kraus_ref(d):
    c = 1.0 / np.sqrt(d - 1)
    ops = []
    for i in range(d):
        for j in range(i + 1, d):
            A = np.zeros((d, d), dtype=complex)
            A[i, j] = c
            A[j, i] = -c
            ops.append(A)
    return ops


def kraus_ref(spec):
    """The Kraus set of a zoo spec, one operator at a time, as one array."""
    if isinstance(spec, zoo.WernerHolevo):
        kraus = wh_kraus_ref(spec.d)
    elif isinstance(spec, zoo.Stretching):
        d, lam = spec.d, float(spec.lam)
        omega = linalg.projector_from_vector(np.eye(d)[:, 0]) if spec.omega is None else spec.omega
        omega = np.asarray(omega, dtype=complex)
        kraus = [np.sqrt(lam) * A for A in wh_kraus_ref(d)]
        w, V = np.linalg.eigh(omega)
        for v in [V[:, k] for k in range(d) if w[k] < 0.5]:
            for b in range(d):
                kraus.append(np.sqrt((1 - lam) / (d - 1)) * np.outer(v, np.eye(d)[:, b]))
    elif isinstance(spec, zoo.WeylShift):
        d = spec.d
        kraus = [Wi @ A / np.sqrt(d) for Wi in weyl_unitaries_ref(d) for A in wh_kraus_ref(d)]
    elif isinstance(spec, zoo.Pinching):
        kraus = [np.asarray(P, dtype=complex) @ A for P in spec.projections for A in wh_kraus_ref(spec.d)]
        kraus = [A for A in kraus if np.linalg.norm(A) > 1e-14]
    elif isinstance(spec, zoo.CasimirIrreducible):
        d = spec.d
        kraus = [J / np.sqrt((d - 1) * (d + 1) / 4) for J in su2_generators_ref(d)]
    elif isinstance(spec, zoo.CasimirReducibleExample):
        J1 = np.zeros((4, 4), dtype=complex)
        J1[1, 2] = 1; J1[3, 0] = 1; J1[0, 3] = -1; J1[2, 1] = -1
        J2 = np.zeros((4, 4), dtype=complex)
        J2[2, 0] = 1; J2[3, 1] = 1; J2[0, 2] = -1; J2[1, 3] = -1
        J3 = np.zeros((4, 4), dtype=complex)
        J3[0, 1] = 1; J3[3, 2] = 1; J3[1, 0] = -1; J3[2, 3] = -1
        kraus = [(1j / 2) * J1, (1j / 2) * J2, (1j / 2) * J3, np.eye(4, dtype=complex) / 2]
    elif isinstance(spec, zoo.ShiftsPinching):
        d, K = spec.d, set(spec.K)
        kraus = []
        for i in range(d):
            for k in [k for k in range(1, d + 1) if k not in K]:
                A = np.zeros((d, d), dtype=complex)
                A[(i - k) % d, i] = 1.0 / np.sqrt(d - len(K))
                kraus.append(A)
    elif isinstance(spec, zoo.CoarseGraining):
        n, D = spec.n, spec.D
        kraus = []
        for A in wh_kraus_ref(n):
            for e in range(D):
                for f in range(D):
                    Kf = np.zeros((D, D), dtype=complex)
                    Kf[f, e] = 1.0 / np.sqrt(D)
                    kraus.append(np.kron(A, Kf))
    elif isinstance(spec, zoo.Diagonal):
        kraus = [np.diag(np.asarray(a, dtype=complex)) for a in spec.diagonals]
    else:
        raise TypeError(f"no reference for {spec!r}")
    return np.array(kraus)


def flip(d):
    """Flip (swap) operator on C^d x C^d: F|i,j> = |j,i>; also the
    transpose X -> X^T as a superoperator on row-major vec."""
    return np.eye(d * d).reshape(d, d, d, d).swapaxes(2, 3).reshape(d * d, d * d)


# The paper's maps M of T = (I tr - m M) / (d - m), each built from its formula
# one matrix unit at a time and never from a channel: the references for the
# maps that the zoo derives from T.


def _map_ref(fn, d, m):
    """The LinearMap of fn, its superoperator filled one matrix unit E_ij at a time."""
    S = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            S[:, i * d + j] = fn(E).reshape(-1)
    return ch.LinearMap(d, S, m=m)


def transpose_m_ref(d):
    """Werner-Holevo: M(X) = X^T, m = 1."""
    return _map_ref(lambda X: X.T, d, 1)


def weyl_m_ref(d):
    """Weyl shifts: M(X) = sum_i W_i X^T W_i+ / d, m = 1."""
    W = weyl_unitaries_ref(d)
    return _map_ref(lambda X: sum(Wi @ X.T @ Wi.conj().T for Wi in W) / d, d, 1)


def pinching_m_ref(projections):
    """Pinching: M(X) = sum_i P_i X^T P_i, m = 1."""
    P = [np.asarray(Pi, dtype=complex) for Pi in projections]
    return _map_ref(lambda X: sum(Pi @ X.T @ Pi for Pi in P), len(P[0]), 1)


def coarse_m_ref(n, D):
    """Coarse graining: M(X) = (tr_D X)^T (x) I_D / D, m = D."""
    def M(X):
        Xn = np.array([[sum(X[a * D + e, b * D + e] for e in range(D)) for b in range(n)] for a in range(n)])
        return np.kron(Xn.T, np.eye(D)) / D

    return _map_ref(M, n * D, D)


def stretch_m_ref(d, lam, omega):
    """Stretching: M(X) = lam X^T + (1 - lam) omega tr X, m = 1."""
    return _map_ref(lambda X: lam * X.T + (1 - lam) * np.trace(X) * omega, d, 1)


def shiftpinch_m_ref(d, K):
    """Shifts and pinching: M(X) = sum_{k in K} diag(W_k+ X W_k) / |K|, m = |K|."""
    W = weyl_unitaries_ref(d)
    return _map_ref(lambda X: sum(np.diag(np.diag(W[k - 1].conj().T @ X @ W[k - 1])) for k in K) / len(K),
                    d, len(K))


def m_ref(spec):
    """The paper's M of a zoo spec, or None for a family printed without one
    (casimir-reducible, and the families outside the class)."""
    if isinstance(spec, zoo.WernerHolevo):
        return transpose_m_ref(spec.d)
    if isinstance(spec, zoo.WeylShift):
        return weyl_m_ref(spec.d)
    if isinstance(spec, zoo.Pinching):
        return pinching_m_ref(spec.projections)
    if isinstance(spec, zoo.CoarseGraining):
        return coarse_m_ref(spec.n, spec.D)
    if isinstance(spec, zoo.Stretching):
        omega = linalg.projector_from_vector(np.eye(spec.d)[:, 0]) if spec.omega is None else spec.omega
        return stretch_m_ref(spec.d, float(spec.lam), np.asarray(omega, dtype=complex))
    if isinstance(spec, zoo.ShiftsPinching):
        return shiftpinch_m_ref(spec.d, sorted(set(spec.K)))
    return None


def m_mismatch(M, ref):
    """max |S_M - S_ref| over the two superoperators; inf where the m differ."""
    return linalg.herm_norm_inf(M.superop - ref.superop) if M.m == ref.m else np.inf


def same_bytes(a, b) -> bool:
    """Equal shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
