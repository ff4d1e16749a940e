"""Renyi entropies and seeded multistart optimization of channel outputs.

The minimal output entropy is estimated by projected gradient descent over
pure input vectors on the unit sphere:

  * each start draws a complex-Gaussian unit vector from a per-start generator
    split off the master seed, so the reduction over starts is order
    independent (min value, ties to the lowest start index);
  * steps follow the Wirtinger gradient of S_alpha(T(psi psi+)) projected onto
    the sphere tangent, with Armijo backtracking, stopping once the
    improvement drops below `tol` or the iteration cap is hit;
  * the alpha = infinity case (and the maximal output norm) is handled by the
    same loop with the largest output eigenvalue as objective; when the top of
    the output spectrum is degenerate (gap < 1e-8) the gradient is replaced by
    a monotone derivative-free polish, iterating psi <- top eigenvector of
    T+(v v+) for v the top output eigenvector, which never decreases the norm.

Estimates are one-sided: upper bounds for entropy minimization, lower bounds
for norm maximization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .errors import BadAlpha, DimMismatch, NotProjectiveClass, SpecInvalid
from .sampling import haar_state_vector, split_seed

LN2 = math.log(2.0)
VON_NEUMANN_WINDOW = 1e-6   # |alpha - 1| below this is treated as alpha = 1
RANK_CUTOFF = 1e-10         # alpha = 0 eigenvalue cutoff
EIG_FLOOR = 1e-18           # floor inside logs / negative powers
DEGENERATE_GAP = 1e-8
ENTROPY_STEP_CAP = 1e3     # largest Armijo trial step on the sphere


@dataclass
class OptConfig:
    starts: int = 64
    seed: int = 12648430
    max_iters: int = 2000
    tol: float = 1e-12
    tol_equiv: float = 1e-5
    warm_starts: tuple = ()

    def with_warm_starts(self, vectors) -> "OptConfig":
        return OptConfig(self.starts, self.seed, self.max_iters, self.tol, self.tol_equiv,
                         tuple(np.asarray(v, dtype=complex).reshape(-1) for v in vectors))


@dataclass
class OptReport:
    value: float
    arg_state: ch.DensityMatrix
    starts: int
    seed: int
    per_start_values: list
    converged: bool
    best_start: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "starts": self.starts,
            "seed": self.seed,
            "per_start_values": list(self.per_start_values),
            "converged": self.converged,
            "best_start": self.best_start,
        }


def renyi_entropy(rho: ch.DensityMatrix, alpha: float) -> float:
    """S_alpha(rho) in bits; alpha = 1 is von Neumann, alpha = inf min-entropy."""
    w = rho.eigenvalues()
    return _entropy_from_eigs(w, _normalize_alpha(alpha))


def _normalize_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or alpha < 0:
        raise BadAlpha(f"alpha must be in [0, inf], got {alpha}")
    if abs(alpha - 1.0) <= VON_NEUMANN_WINDOW:
        return 1.0
    return alpha


def _entropy_from_eigs(w: np.ndarray, alpha: float) -> float:
    w = np.clip(w, 0.0, None)
    if alpha == 1.0:
        nz = w[w > EIG_FLOOR]
        return float(-np.sum(nz * np.log2(nz)))
    if math.isinf(alpha):
        return float(-np.log2(max(w.max(), EIG_FLOOR)))
    if alpha == 0.0:
        return float(np.log2(max(int(np.sum(w > RANK_CUTOFF)), 1)))
    return float(np.log2(np.sum(w ** alpha)) / (1.0 - alpha))


def _entropy_gradient_matrix(w: np.ndarray, V: np.ndarray, alpha: float):
    """dS_alpha/dsigma evaluated on the output eigendecomposition, or None when
    the objective is locally flat/nondifferentiable (alpha = 0, degenerate top
    for alpha = inf)."""
    w = np.clip(w, 0.0, None)
    if alpha == 0.0:
        return None
    if math.isinf(alpha):
        if len(w) > 1 and w[-1] - w[-2] < DEGENERATE_GAP:
            return None
        v = V[:, -1:]
        return -(v @ v.conj().T) / (max(w[-1], EIG_FLOOR) * LN2)
    if alpha == 1.0:
        wf = np.clip(w, EIG_FLOOR, None)
        return (V * (-(np.log2(wf) + 1.0 / LN2))) @ V.conj().T
    t = float(np.sum(w ** alpha))
    if alpha < 1.0:
        pw = np.clip(w, EIG_FLOOR, None) ** (alpha - 1.0)
    else:
        pw = w ** (alpha - 1.0)
    return (alpha / ((1.0 - alpha) * LN2 * t)) * (V * pw) @ V.conj().T


def _armijo_descent(value, grad, retract, x0, max_iters: int, tol: float, t_max: float):
    """Steepest descent on a manifold with Armijo backtracking from a doubled,
    capped step. `value(x)` returns (f, aux); `grad(x, aux)` returns the
    direction, or None where f is flat; `retract` maps x - t g back onto the
    manifold. Returns (f, x, aux, reason), reason being "flat", "stationary",
    "armijo" (no step down to 1e-18 decreases f enough), "tol" (the last step
    improved f by less than `tol`) or "max_iters".
    """
    x = x0
    f, aux = value(x)
    t = 1.0
    for _ in range(max_iters):
        g = grad(x, aux)
        if g is None:
            return f, x, aux, "flat"
        gn2 = float(np.real(np.vdot(g, g)))
        if gn2 < 1e-30:
            return f, x, aux, "stationary"
        t = min(t * 2.0, t_max)
        while t > 1e-18:
            cand = retract(x - t * g)
            fc, aux_c = value(cand)
            if fc <= f - 1e-4 * t * gn2:
                break
            t *= 0.5
        else:
            return f, x, aux, "armijo"
        improvement = f - fc
        x, f, aux = cand, fc, aux_c
        if improvement < tol:
            return f, x, aux, "tol"
    return f, x, aux, "max_iters"


def _best_start(values, pick_min: bool) -> int:
    """Index of the extremal per-start value; ties within 1e-12 go to the lowest index."""
    arr = np.asarray(values, dtype=float)
    near = arr <= arr.min() + 1e-12 if pick_min else arr >= arr.max() - 1e-12
    return int(np.argmax(near))


def _sphere_retract(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _descend(T: ch.QuantumChannel, alpha: float, psi0: np.ndarray, max_iters: int, tol: float):
    """One start of entropy minimization. Returns (value, psi, converged)."""
    psi = _sphere_retract(np.asarray(psi0, dtype=complex).reshape(-1))

    def value(p):
        sigma = T.apply_raw(np.outer(p, p.conj()))
        w, V = np.linalg.eigh((sigma + sigma.conj().T) / 2)
        return _entropy_from_eigs(w, alpha), (w, V)

    if alpha == 0.0:
        # S_0 is piecewise constant, so descend the smooth alpha = 1/2
        # surrogate (same minimizer set when nu is alpha-independent) and
        # evaluate the rank there; both evaluations are upper bounds.
        f, _ = value(psi)
        _, psi2, conv = _descend(T, 0.5, psi, max_iters, tol)
        f2, _ = value(psi2)
        if f2 < f:
            return f2, psi2, conv
        return f, psi, True

    def grad(p, aux):
        G = _entropy_gradient_matrix(*aux, alpha)
        if G is None:
            return None
        g = 2.0 * (T.apply_adjoint_raw(G) @ p)
        return g - np.real(np.vdot(p, g)) * p

    f, psi, _, reason = _armijo_descent(value, grad, _sphere_retract, psi, max_iters, tol,
                                        ENTROPY_STEP_CAP)
    if reason == "flat" or (reason == "armijo" and math.isinf(alpha)):
        # degenerate or stalled top eigenvalue: monotone polish on the norm objective
        lam, psi2 = _norm_polish(T, psi, max_iters=max_iters, tol=tol)
        f2 = float(-np.log2(max(lam, EIG_FLOOR)))
        if f2 < f:
            return f2, psi2, True
    return f, psi, reason != "max_iters"


def _norm_polish(T: ch.QuantumChannel, psi0: np.ndarray, max_iters: int, tol: float):
    """Monotone fixed-point ascent of lambda_max(T(psi psi+)).

    psi <- top eigenvector of T+(v v+) with v the top output eigenvector;
    each step satisfies lambda_max(new) >= lambda_max(old).
    """
    psi = _sphere_retract(np.asarray(psi0, dtype=complex).reshape(-1))

    def top(p):
        sigma = T.apply_raw(np.outer(p, p.conj()))
        w, V = np.linalg.eigh((sigma + sigma.conj().T) / 2)
        return float(w[-1]), V[:, -1]

    lam, v = top(psi)
    for _ in range(max_iters):
        H = T.apply_adjoint_raw(np.outer(v, v.conj()))
        wh, Vh = np.linalg.eigh((H + H.conj().T) / 2)
        psi2 = Vh[:, -1]
        lam2, v2 = top(psi2)
        if lam2 <= lam + tol:
            if lam2 > lam:
                return lam2, psi2
            return lam, psi
        psi, lam, v = psi2, lam2, v2
    return lam, psi


def _norm_ascend(T: ch.QuantumChannel, psi0: np.ndarray, max_iters: int, tol: float):
    """One start of norm maximization: gradient ascent plus fixed-point polish."""
    f, psi, _ = _descend(T, math.inf, psi0, max_iters, tol)
    lam, psi = _norm_polish(T, psi, max_iters, tol)
    return max(lam, float(2.0 ** (-f))), psi


def _run_multistart(T: ch.QuantumChannel, cfg: OptConfig, single_start, pick_min: bool):
    d = T.dim_in
    starts = []
    for wv in cfg.warm_starts:
        if len(wv) != d:
            raise DimMismatch(f"warm start length {len(wv)} != channel input dim {d}")
        starts.append(np.asarray(wv, dtype=complex) / np.linalg.norm(wv))
    for i in range(len(starts), len(starts) + cfg.starts):
        starts.append(haar_state_vector(split_seed(cfg.seed, i), d))
    if not starts:
        raise SpecInvalid(f"no optimizer start to run (starts = {cfg.starts}, no warm starts)")
    values, args, convs = [], [], []
    for psi0 in starts:
        val, psi, conv = single_start(psi0)
        values.append(float(val))
        args.append(psi)
        convs.append(conv)
    best = _best_start(values, pick_min)
    return OptReport(
        value=float(np.min(values) if pick_min else np.max(values)),
        arg_state=ch.DensityMatrix.from_vector(args[best]),
        starts=len(starts),
        seed=cfg.seed,
        per_start_values=values,
        converged=convs[best],
        best_start=best,
    )


def min_output_entropy(T: ch.QuantumChannel, alpha: float, cfg: OptConfig | None = None) -> OptReport:
    """Upper-bound estimate of the minimal output alpha-entropy over pure inputs."""
    cfg = cfg or OptConfig()
    alpha = _normalize_alpha(alpha)

    def run(psi0):
        return _descend(T, alpha, psi0, cfg.max_iters, cfg.tol)

    return _run_multistart(T, cfg, run, pick_min=True)


def max_output_norm(T: ch.QuantumChannel, cfg: OptConfig | None = None) -> OptReport:
    """Lower-bound estimate of sup_rho ||T(rho)||_inf over pure inputs."""
    cfg = cfg or OptConfig()

    def run(psi0):
        lam, psi = _norm_ascend(T, psi0, cfg.max_iters, cfg.tol)
        return lam, psi, True

    return _run_multistart(T, cfg, run, pick_min=False)


@dataclass
class CharacterizationReport:
    nu_values: dict
    constant_nu: bool
    nu_spread: float
    norm_value: float
    norm_at_projection: bool
    projection_rank: int
    projective_form: ch.ProjectiveForm | None
    extraction_error: str | None
    boundary_case: bool

    @property
    def all_three(self) -> bool:
        return self.constant_nu and self.norm_at_projection and self.projective_form is not None

    def to_dict(self) -> dict:
        return {
            "nu_values": {str(k): v for k, v in self.nu_values.items()},
            "constant_nu": self.constant_nu,
            "nu_spread": self.nu_spread,
            "norm_value": self.norm_value,
            "norm_at_projection": self.norm_at_projection,
            "projection_rank": self.projection_rank,
            "m": self.projective_form.m if self.projective_form else None,
            "extraction_error": self.extraction_error,
            "boundary_case": self.boundary_case,
            "all_three": self.all_three,
        }


def characterize(T: ch.QuantumChannel, alpha_grid, cfg: OptConfig | None = None) -> CharacterizationReport:
    """Test the three equivalent class predicates on a grid of alpha values.

    The norm witness is taken at the 2-entropy minimizer: among norm-achieving
    inputs of a class channel, exactly those with projection outputs maximize
    output purity, so the purity-extremal argmax makes the projection predicate
    and the extraction numerically robust. Each distinct alpha of the grid runs
    once, and the grid's alpha = 2 run doubles as that witness search.
    """
    cfg = cfg or OptConfig()
    alpha_grid = [_normalize_alpha(a) for a in alpha_grid]
    if not alpha_grid:
        raise BadAlpha("alpha grid must be nonempty")
    reports = {a: min_output_entropy(T, a, cfg) for a in dict.fromkeys(alpha_grid)}
    nu = {a: rep.value for a, rep in reports.items()}
    spread = max(nu.values()) - min(nu.values())
    constant_nu = bool(spread <= cfg.tol_equiv)

    two_report = reports[2.0] if 2.0 in reports else min_output_entropy(T, 2.0, cfg)
    witness_vec = _principal_vector(two_report.arg_state)
    norm_report = max_output_norm(T, cfg.with_warm_starts([witness_vec]))
    argmax_state = norm_report.arg_state
    norm_value = norm_report.value

    out = ch.apply(T, argmax_state)
    norm_at_projection, rank = ch.is_normalized_projection(out)

    form = None
    err = None
    try:
        form = ch.extract_projective_form(T, argmax_state, norm_value)
    except NotProjectiveClass as exc:
        err = str(exc)
    except Exception as exc:  # noqa: BLE001 - recorded, not fatal
        err = str(exc)
    m0 = int(round(1.0 / norm_value)) if norm_value > 0 else 0
    boundary = m0 in (1, T.dim_in)
    return CharacterizationReport(
        nu_values=nu,
        constant_nu=constant_nu,
        nu_spread=float(spread),
        norm_value=float(norm_value),
        norm_at_projection=bool(norm_at_projection),
        projection_rank=int(rank),
        projective_form=form,
        extraction_error=err,
        boundary_case=bool(boundary),
    )


def _principal_vector(state: ch.DensityMatrix) -> np.ndarray:
    w, V = np.linalg.eigh(state.mat)
    return V[:, -1]
