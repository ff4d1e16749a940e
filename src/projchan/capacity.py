"""Holevo quantity for explicit ensembles, weak-covariance verification, and
the capacity formula S(T(rho_bar)) - nu_1 for weakly covariant channels.

A covariance is one twirl spec, the input representation pi, plus a flag
`conjugate`: the output representation Pi(g) is pi(g) itself, or its
complex conjugate when the flag is set (a complex group under an M that
contains a transpose). Weak covariance is checked on the orbit of rho0 only,
T(pi(g) rho0 pi(g)+) = Pi(g) T(rho0) Pi(g)+, over the spec's
`elements(count, seed)`: every element of a finite group, or
COVARIANCE_SAMPLES draws from the caller's seed.

Each twirl spec's `average` is the exact group average, the Hilbert-Schmidt
projection onto the commutant of the representation; the average over the
conjugate representation is conj(average(conj X)):
  * FiniteGroup: the uniform average over an explicit unitary family, whose
    closure is not checked: the covariance gate on every member and the
    orbit-average gate check all that the capacity formula reads.
  * SU2Euler: the Haar integral in z-y-z Euler angles on
    [0,4pi] x [0,pi] x [0,2pi] with weight sin(x2)/(16 pi^2), as three
    one-angle passes. In the eigenbasis of the pass's generator each pass
    multiplies entrywise by the Fourier transform of that angle's weight at
    the eigenvalue differences.
  * BlockUnitaryHaar: the Haar twirl over V (x) 1_D, I_n/n (x) tr_n(X).
    Seeded Haar samples of V serve only the on-orbit covariance check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import linalg
from .additivity import apply_product_map
from .entropy import OptConfig, _entropy_from_eigs, min_output_entropy, renyi_entropy
from .errors import DimensionOverflow, DimMismatch, NotWeaklyCovariant, OptimalStateMismatch, SpecInvalid
from .linalg import dag
from .sampling import complex_normal, flat_simplex, haar_unitaries, split_seed

COVARIANCE_GATE = 1e-6
COVARIANCE_SAMPLES = 64
SU2_TOL = 1e-10  # Hermiticity and commutation-relation residual of SU2Euler generators
# Trials per apply_product_map and check_states call in chi_product_bound_check.
# Peak memory, not speed, sets it: on the sampled-checks benchmark (4 runs
# each) peak RSS read 40.6, 41.2, 42.0 and 43.5 MiB at 1, 2, 4 and 8 trials,
# about 0.4-0.55 MiB per further trial, while wall_s fell 7% from 1 to 2
# trials and only 2-4% more at 4 or 8.
CHI_GROUP = 2


@dataclass
class Ensemble:
    probs: np.ndarray
    states: tuple

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.states = tuple(self.states)
        if len(self.probs) != len(self.states):
            raise DimMismatch("probs and states length differ")
        if self.probs.min(initial=0.0) < 0:
            raise SpecInvalid("negative probability")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise SpecInvalid(f"probabilities sum to {self.probs.sum()!r}")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise DimMismatch(f"mixed state dimensions {dims}")
        d = self.states[0].dim
        if len(self.states) > d * d:
            warnings.warn(f"ensemble size {len(self.states)} exceeds d^2 = {d * d}", stacklevel=2)

    @property
    def dim(self) -> int:
        return self.states[0].dim


# ---------------------------------------------------------------------------
# Twirl specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    """Uniform average over an explicit unitary family."""

    unitaries: np.ndarray  # (n, d, d)

    def __post_init__(self):
        us = np.asarray(self.unitaries, dtype=complex)
        object.__setattr__(self, "unitaries", us)
        bad = np.flatnonzero(np.abs(dag(us) @ us - np.eye(us.shape[-1])).max(axis=(1, 2)) > 1e-10)
        if len(bad):
            raise SpecInvalid(f"group element {bad[0]} is not unitary within 1e-10")

    def elements(self, count: int, seed: int) -> np.ndarray:
        """Every element; a finite group needs no sampling."""
        return self.unitaries

    def average(self, X: np.ndarray) -> np.ndarray:
        return np.mean(self.unitaries @ X @ dag(self.unitaries), axis=0)


def _uniform_ft(k: np.ndarray, length: float) -> np.ndarray:
    """E[exp(i k x)] for x uniform on [0, length]."""
    return np.exp(0.5j * k * length) * np.sinc(k * length / (2 * np.pi))


def _sine_ft(k: np.ndarray) -> np.ndarray:
    """E[exp(i k x)] for x on [0, pi] with weight sin(x)/2."""
    def E(q):  # integral of exp(i q x) over [0, pi], divided by pi
        return np.exp(0.5j * np.pi * q) * np.sinc(q / 2)
    return (np.pi / 4j) * (E(k + 1) - E(k - 1))


@dataclass(frozen=True)
class SU2Euler:
    generators: tuple

    def __post_init__(self):
        gs = tuple(np.asarray(J, dtype=complex) for J in self.generators)
        if len(gs) != 3:
            raise SpecInvalid("SU2Euler needs three generators")
        # a representation of su(2): Hermitian, [J1, J2] = i J3 and cyclic
        J1, J2, J3 = gs
        defect = max([linalg.herm_norm_inf(J - dag(J)) for J in gs]
                     + [linalg.herm_norm_inf(A @ B - B @ A - 1j * C)
                        for A, B, C in ((J1, J2, J3), (J2, J3, J1), (J3, J1, J2))])
        if defect > SU2_TOL:
            raise SpecInvalid(f"SU2Euler generators are no su(2) representation: defect {defect:.3e} > {SU2_TOL:.0e}")
        object.__setattr__(self, "generators", gs)
        # (eigenvalues, eigenvectors) of J2 and J3, each from one eigendecomposition
        object.__setattr__(self, "_eig2", np.linalg.eigh(gs[1]))
        object.__setattr__(self, "_eig3", np.linalg.eigh(gs[2]))

    @staticmethod
    def _expm(eig, t) -> np.ndarray:
        w, V = eig
        return (V * np.exp(1j * np.asarray(t)[..., None] * w)[..., None, :]) @ dag(V)

    def element(self, x1, x2, x3) -> np.ndarray:
        """U = exp(i x3 J3) exp(i x2 J2) exp(i x1 J3), z-y-z angles; for
        angle arrays, the stack of the elements they broadcast to."""
        return self._expm(self._eig3, x3) @ self._expm(self._eig2, x2) @ self._expm(self._eig3, x1)

    def elements(self, count: int, seed: int) -> np.ndarray:
        """`count` Haar-random elements: x1, x3 uniform, cos(x2) uniform."""
        u = split_seed(seed, 13).uniform(size=(count, 3))
        return self.element(4 * np.pi * u[:, 0], np.arccos(1 - 2 * u[:, 1]), 2 * np.pi * u[:, 2])

    def average(self, X: np.ndarray) -> np.ndarray:
        Y = X
        for (w, V), ft in ((self._eig3, lambda k: _uniform_ft(k, 4 * np.pi)),
                           (self._eig2, _sine_ft),
                           (self._eig3, lambda k: _uniform_ft(k, 2 * np.pi))):
            # exp(i x J) Y exp(-i x J) scales entry (a, b) by exp(i x (w_a - w_b))
            Y = V @ (ft(w[:, None] - w[None, :]) * (dag(V) @ Y @ V)) @ dag(V)
        return Y


@dataclass(frozen=True)
class BlockUnitaryHaar:
    n: int
    D: int

    def elements(self, count: int, seed: int) -> np.ndarray:
        """`count` Haar-random V (x) 1_D."""
        return np.kron(haar_unitaries(split_seed(seed, 11, self.n, self.D), self.n, count), np.eye(self.D))

    def average(self, X: np.ndarray) -> np.ndarray:
        """Haar twirl: I_n/n (x) tr_n(X), the same for V and its conjugate."""
        n, D = self.n, self.D
        XD = np.trace(X.reshape(n, D, n, D), axis1=0, axis2=2)
        return np.kron(np.eye(n) / n, XD)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def holevo_chi(T: ch.QuantumChannel, e: Ensemble) -> float:
    """chi = S(sum p_i T(rho_i)) - sum p_i S(T(rho_i)), in bits."""
    if e.dim != T.dim_in:
        raise DimMismatch(f"ensemble dim {e.dim} != channel input dim {T.dim_in}")
    return float(_chi(e.probs, T.apply_raw(np.stack([s.mat for s in e.states])), [0])[0])


def _chi(probs: np.ndarray, outputs: np.ndarray, starts) -> np.ndarray:
    """Holevo chi in bits of each ensemble in the output stack, ensemble j
    being the rows from starts[j] up to the next start, with weights probs
    that sum to 1 per ensemble. The entropies come from the eigenvalues that
    one check_states call returns for the outputs and the ensemble averages."""
    avgs = np.add.reduceat(probs[:, None, None] * outputs, starts)
    S = _entropy_from_eigs(ch.check_states(np.concatenate([outputs, avgs])), 1.0)
    return S[len(probs):] - np.add.reduceat(probs * S[:len(probs)], starts)


def orbit_average(T: ch.QuantumChannel, rho0: ch.DensityMatrix, group, conjugate: bool) -> tuple:
    """Average of Pi(g) T(rho0) Pi(g)+ over the twirl spec, with its distance
    from the maximally mixed state."""
    out = T.apply_raw(rho0.mat)
    avg = group.average(out.conj()).conj() if conjugate else group.average(out)
    resid = linalg.herm_norm_inf(avg - np.eye(T.dim_out) / T.dim_out)
    return ch.DensityMatrix(T.dim_out, (avg + dag(avg)) / 2), float(resid)


def verify_weak_covariance(T: ch.QuantumChannel, rho0: ch.DensityMatrix, group, conjugate: bool,
                           seed: int = 12648430) -> tuple:
    """Max on-orbit covariance defect and the output-average defect.

    covariance_residual = max_g || T(pi(g) rho0 pi(g)+) - Pi(g) T(rho0) Pi(g)+ ||_inf
    over the group's elements, with Pi(g) = conj(pi(g)) when `conjugate` is set.
    """
    A = group.elements(COVARIANCE_SAMPLES, seed)
    B = A.conj() if conjugate else A
    lhs = T.apply_raw(A @ rho0.mat @ dag(A))
    rhs = B @ T.apply_raw(rho0.mat) @ dag(B)
    _, avg_resid = orbit_average(T, rho0, group, conjugate)
    return linalg.herm_norm_inf(lhs - rhs), float(avg_resid)


@dataclass
class CapacityReport:
    capacity: float
    max_term: float
    min_term: float
    covariance_residual: float
    average_residual: float

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "max_term": self.max_term,
            "min_term": self.min_term,
            "covariance_residual": self.covariance_residual,
            "average_residual": self.average_residual,
        }


def capacity_weakcov(T: ch.QuantumChannel, rho0: ch.DensityMatrix, group, conjugate: bool,
                     cfg: OptConfig | None = None) -> CapacityReport:
    """Holevo capacity S(T(rho_bar)) - nu_1 for a weakly covariant channel.

    Gates on the on-orbit covariance residual and on the output-average
    residual; every twirl's average is exact.
    """
    cfg = cfg or OptConfig()
    cov_res, avg_res = verify_weak_covariance(T, rho0, group, conjugate, seed=cfg.seed)
    if cov_res > COVARIANCE_GATE:
        raise NotWeaklyCovariant(f"covariance residual {cov_res:.3e} > {COVARIANCE_GATE:.0e}")
    if avg_res > COVARIANCE_GATE:
        raise NotWeaklyCovariant(f"orbit average residual {avg_res:.3e} > {COVARIANCE_GATE:.0e}")

    w, V = np.linalg.eigh(rho0.mat)
    nu1 = min_output_entropy(T, 1.0, cfg.with_warm_starts([V[:, -1]]))
    s_rho0 = renyi_entropy(ch.apply(T, rho0), 1.0)
    if s_rho0 > nu1.value + 1e-6:
        raise OptimalStateMismatch(
            f"S(T(rho0)) = {s_rho0!r} exceeds the nu_1 estimate {nu1.value!r} by more than 1e-6"
        )

    rho_bar = group.average(rho0.mat)
    rho_bar = (rho_bar + dag(rho_bar)) / 2
    max_term = renyi_entropy(ch.DensityMatrix(T.dim_out, T.apply_raw(rho_bar)), 1.0)
    return CapacityReport(
        capacity=float(max_term - nu1.value),
        max_term=float(max_term),
        min_term=float(nu1.value),
        covariance_residual=cov_res,
        average_residual=avg_res,
    )


def chi_product_bound_check(T: ch.QuantumChannel, capacity: float, trials: int,
                            cfg: OptConfig | None = None) -> float:
    """Randomized one-sided additivity check at N = 2.

    Over `trials` seeded random entangled ensembles on the doubled input
    space, returns max chi(T x T, ensemble) - 2 * capacity. Each trial draws
    its ensemble from its own generator; CHI_GROUP trials at a time share one
    apply_product_map call, which applies T.superop to each tensor leg of the
    projectors psi psi+, and one check_states call over the outputs and
    averages. The pure inputs are checked from their vectors by
    check_pure_states. A group whose input or output stack could hold more
    than DIM_CAP**2 entries (trials draw up to d_in^4 members) is refused
    with DimensionOverflow before anything is drawn. Random ensembles sit far
    below the bound: over 200 trials at the default seed the best chi is
    0.47 bits under 2C for wh:d=3 and 1.04 bits under for weyl:d=3, so a
    pass does not show that an optimized ensemble stays under it.
    """
    if trials < 1:
        raise SpecInvalid(f"chi_product_bound_check needs trials >= 1, got {trials}")
    d2 = T.dim_in ** 2
    entries = min(CHI_GROUP, trials) * d2 ** 2 * max(d2, T.dim_out ** 2) ** 2
    if entries > linalg.DIM_CAP ** 2:
        raise DimensionOverflow(
            f"a group of {min(CHI_GROUP, trials)} trials of T x T on {d2}-dim inputs can hold {entries} "
            f"state entries, over the cap of {linalg.DIM_CAP ** 2}"
        )
    cfg = cfg or OptConfig()
    S = T.superop
    max_chi = -np.inf
    for first in range(0, trials, CHI_GROUP):
        probs, Psi = [], []
        for trial in range(first, min(first + CHI_GROUP, trials)):
            rng = split_seed(cfg.seed, 17, trial)
            size = int(rng.integers(2, T.dim_in ** 4 + 1))
            probs.append(flat_simplex(rng, size))
            Psi.append(complex_normal(rng, size, d2))  # as `size` haar_state_vector draws
        Psi = np.concatenate(Psi)
        Psi /= np.linalg.norm(Psi, axis=1, keepdims=True)
        ch.check_pure_states(Psi)
        outputs = apply_product_map([S, S], Psi[:, :, None] * Psi[:, None].conj())
        starts = np.cumsum([0] + [len(p) for p in probs[:-1]])
        max_chi = max(max_chi, float(_chi(np.concatenate(probs), outputs, starts).max()))
    return float(max_chi - 2.0 * capacity)
