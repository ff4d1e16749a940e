"""Renyi entropies and seeded multistart optimization of channel outputs.

The minimal output entropy is estimated over pure input vectors on the unit
sphere:

  * each start draws a complex-Gaussian unit vector from a per-start generator
    split off the master seed, so the reduction over starts is order
    independent (min value, ties to the lowest start index);
  * for 0 < alpha < inf each start first takes fixed-point steps. Below
    alpha = 1, tr sigma^alpha (and S_1) is concave, and the majorize-minimize
    step is psi <- bottom eigenvector of T+(W) with W = V diag(p) V+ from its
    output sigma = V diag(w) V+, p = (w + eps)^(alpha - 1) below alpha = 1 and
    log((1 + eps) / (w + eps)) at alpha = 1; the smoothing eps starts at 0.1,
    shrinks 4-fold per iteration and drops to 1e-30 once below 1e-14 or once
    a step stalls. Above alpha = 1, tr sigma^alpha is convex, and the
    minorize-maximize step is psi <- top eigenvector of T+(W) with p =
    w^(alpha - 1), without smoothing. Each start keeps its best point (see
    README). Below alpha = 1, output eigenvalues at or below 1e-14 count as 0,
    in the value and the gradient;
  * the fixed point takes at most 48 steps below alpha = 1, 3 at alpha = 1
    and 2 above; on the class channels of the characterization criterion
    every start settles within 3 (within 2 above alpha = 1). From the best
    point of each start still gaining or whose projected gradient norm
    exceeds 1e-4 the descent continues: steps follow the Wirtinger gradient of
    S_alpha(T(psi psi+)) projected onto the sphere tangent, with Armijo
    backtracking from each start's Barzilai-Borwein step, stopping once the
    improvement drops below `tol` or the iteration cap is hit. Outside the
    class the fixed point can stall short of a minimum, or converge linearly
    and far more slowly than the descent;
  * all starts advance in lockstep as one (starts, d) stack, each with its
    own seed, step size and exit reason as if run alone; one batched output
    evaluation gives the value and the gradient of every start still
    backtracking, and an accepted start keeps the gradient. Per-start
    values agree across batch sizes to 1e-12, not bit for bit (GEMM row
    blocking);
  * an output evaluation, in the descent and in the fixed point alike, is
    one eigendecomposition per output, except at an integer alpha = n >= 2.
    There S_n = log2(tr sigma^n) / (1 - n) is a polynomial in the output,
    and the value, the gradient n sigma^(n-1) / ((1 - n) ln2 tr sigma^n)
    and the fixed point's weight factor come from matrix powers of the
    output, each product rescaled to unit trace; they agree with the
    spectral formulas to 1e-12 relative. The only eigendecomposition left
    there is the fixed point's of T+(W), on the input side;
  * at alpha = infinity, and for the maximal output norm, the objective is
    the largest output eigenvalue, and the search is the minorize-maximize
    fixed point alone, psi <- top eigenvector of T+(v v+) for v the top
    output eigenvector, which never decreases the norm: 2 plain steps, then
    SQUAREM cycles (two steps and one extrapolated step, falling back to the
    second step where the extrapolated one is worse) up to the iteration
    cap; a start stops once a step of the lead, or a cycle, gains at most
    `tol`. `max_output_norm` reports 2^(-S_inf) of this search, and
    `characterize` reads nu_inf off it.

Estimates are one-sided: upper bounds for entropy minimization, lower bounds
for norm maximization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import channels as ch
from . import linalg
from .errors import BadAlpha, DimensionOverflow, DimMismatch, SpecInvalid
from .linalg import DIM_CAP
from .sampling import haar_state_vectors

LN2 = math.log(2.0)
VON_NEUMANN_WINDOW = 1e-6   # |alpha - 1| below this is treated as alpha = 1
RANK_CUTOFF = 1e-10         # alpha = 0 eigenvalue cutoff
ROUNDING_CUTOFF = 1e-14     # below alpha = 1, output eigenvalues at or below this count as 0
EIG_FLOOR = 1e-18           # floor inside logs / negative powers
ENTROPY_STEP_CAP = 1e3     # largest Armijo trial step on the sphere
SMOOTHING_START = 0.1      # first eps of the fixed point's smoothed weight p
SMOOTHING_JUMP = 1e-14     # eps shrinks 4-fold per iteration while above this,
SMOOTHING_FLOOR = 1e-30    # then drops to this
FIXED_POINT_ITERS = 48     # fixed-point steps (twice the smoothing schedule) below alpha = 1
VON_NEUMANN_FIXED_POINT_ITERS = 3  # at alpha = 1, before the descent takes the rest
CONVEX_FIXED_POINT_ITERS = 2       # and above alpha = 1 (finite): one step to land on nu, one to stall
STATIONARY_GRAD = 1e-4     # projected gradient norm above which a settled fixed-point start is descended
TOL_EQUIV = 1e-5           # largest spread of nu_alpha over the grid that `characterize` calls constant


@dataclass
class OptConfig:
    starts: int = 64
    seed: int = 12648430
    max_iters: int = 2000
    tol: float = 1e-12
    warm_starts: tuple = ()

    def with_warm_starts(self, vectors) -> "OptConfig":
        return replace(self, warm_starts=tuple(np.asarray(v, dtype=complex).reshape(-1) for v in vectors))


@dataclass
class OptReport:
    value: float
    starts: int
    seed: int
    per_start_values: list
    converged: bool
    best_start: int
    per_start_args: np.ndarray       # (starts, d_in): the point each start ended at
    per_start_converged: np.ndarray  # (starts,): False where a start hit the iteration cap
    per_start_spectra: np.ndarray | None  # (starts, d_out): end-point output eigenvalues; None at an integer alpha

    @cached_property
    def arg_state(self) -> ch.DensityMatrix:
        """The best start's end point as a validated state, built on first access."""
        return ch.DensityMatrix.from_vector(self.per_start_args[self.best_start])

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
    return float(_entropy_from_eigs(w, _normalize_alpha(alpha)))


def _normalize_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or alpha < 0:
        raise BadAlpha(f"alpha must be in [0, inf], got {alpha}")
    if abs(alpha - 1.0) <= VON_NEUMANN_WINDOW:
        return 1.0
    return alpha


def _clip_spectrum(w: np.ndarray, alpha: float) -> np.ndarray:
    """Output eigenvalues clipped at 0. Below alpha = 1 those at or below
    ROUNDING_CUTOFF count as 0 too: a roundoff eigenvalue near 1e-17 would
    add about (1e-17)^alpha to tr sigma^alpha, 6e-5 at alpha = 1/4."""
    return np.where(w > ROUNDING_CUTOFF, w, 0.0) if alpha < 1.0 else np.clip(w, 0.0, None)


def _entropy_from_eigs(w: np.ndarray, alpha: float) -> np.ndarray:
    """S_alpha in bits of each spectrum along the last axis of w. Above alpha
    = 1 the top eigenvalue is factored out of tr sigma^alpha, so that w^alpha
    cannot underflow at a large alpha."""
    w = _clip_spectrum(w, alpha)
    if alpha == 1.0:
        return -np.sum(np.where(w > EIG_FLOOR, w * np.log2(np.maximum(w, EIG_FLOOR)), 0.0), axis=-1)
    if math.isinf(alpha):
        return -np.log2(np.maximum(w.max(axis=-1), EIG_FLOOR))
    if alpha == 0.0:
        return np.log2(np.maximum(np.sum(w > RANK_CUTOFF, axis=-1), 1))
    if alpha > 1.0:
        top = w.max(axis=-1)
        return (alpha * np.log2(top) + np.log2(np.sum((w / top[..., None]) ** alpha, axis=-1))) / (1.0 - alpha)
    return np.log2(np.sum(w ** alpha, axis=-1)) / (1.0 - alpha)


def _entropy_gradient_matrices(w: np.ndarray, V: np.ndarray, alpha: float) -> np.ndarray:
    """dS_alpha/dsigma on each output eigendecomposition of a (c, d) / (c, d, d)
    stack, 0 < alpha < inf; below alpha = 1 it is the gradient on the output's
    support, where eigenvalues cut to 0 take no part. Above alpha = 1 the top
    eigenvalue is factored out, as in `_entropy_from_eigs`."""
    w = _clip_spectrum(w, alpha)
    if alpha == 1.0:
        dw = -(np.log2(np.clip(w, EIG_FLOOR, None)) + 1.0 / LN2)
    elif alpha < 1.0:
        t = np.sum(w ** alpha, axis=1)
        pw = np.power(w, alpha - 1.0, out=np.zeros_like(w), where=w > 0.0)  # 0 off the support
        dw = (alpha / ((1.0 - alpha) * LN2 * t))[:, None] * pw
    else:
        top = w.max(axis=1, keepdims=True)
        u = w / top
        t = top[:, 0] * np.sum(u ** alpha, axis=1)  # tr sigma^alpha / top^(alpha - 1)
        dw = (alpha / ((1.0 - alpha) * LN2 * t))[:, None] * u ** (alpha - 1.0)
    return (V * dw[:, None, :]) @ V.conj().transpose(0, 2, 1)


def _integer_order(alpha: float) -> int:
    """n where alpha is an integer n >= 2, else 0. There S_alpha =
    log2(tr sigma^n) / (1 - n) is a polynomial in the output."""
    return int(alpha) if 2.0 <= alpha < math.inf and alpha.is_integer() else 0


def _unit_trace(A: np.ndarray, log_scale: np.ndarray):
    """The Hermitian part of each member of a (c, d, d) stack divided by its
    trace, and log_scale plus log2 of that trace."""
    t = np.real(np.trace(A, axis1=1, axis2=2))
    return (A + A.conj().transpose(0, 2, 1)) / (2.0 * t)[:, None, None], log_scale + np.log2(t)


def _power(sigma: np.ndarray, k: int):
    """(sigma^k / s, log2 s) for each member of a (c, d, d) PSD stack, k >= 1,
    by repeated squaring; s = 1 at k = 1. Every product is rescaled to unit
    trace, so no entry underflows however large k is, and made Hermitian, so
    that squaring cannot double the phase of a roundoff eigenvalue."""
    P = log_p = None
    B, log_b = sigma, np.zeros(len(sigma))
    while True:
        if k & 1:
            P, log_p = (B, log_b) if P is None else _unit_trace(P @ B, log_p + log_b)
        k >>= 1
        if not k:
            return P, log_p
        B, log_b = _unit_trace(B @ B, 2.0 * log_b)


def _integer_powers(sigma: np.ndarray, n: int):
    """S_n in bits of each member of a (c, d, d) stack of outputs, for an
    integer n >= 2, from matrix powers alone: no eigendecomposition. Returns
    (S_n, P, t, H). H = sigma^((n - 1) // 2) / s (None at n = 2), P =
    sigma^(n - 1) / s^2, which is H H for odd n and H sigma H for even n, and
    t = tr(P sigma) = tr sigma^n / s^2, for one positive s per member."""
    if n == 2:
        H, P, log_s = None, sigma, 0.0
    else:
        H, log_s = _power(sigma, (n - 1) // 2)
        P = H @ H if n % 2 else H @ sigma @ H
    t = np.real(np.sum(P * sigma.transpose(0, 2, 1), axis=(1, 2)))
    return (2.0 * log_s + np.log2(t)) / (1.0 - n), P, t, H


def _power_factor(Z: np.ndarray, H: np.ndarray | None, n: int) -> np.ndarray:
    """U with U U+ = P = sigma^(n - 1) / s^2 of `_integer_powers`, for the
    outputs sigma = Z^T conj(Z) of the Kraus images Z: H for odd n, H Z^T
    for even n (Z^T at n = 2)."""
    if n % 2:
        return H
    Zt = Z.transpose(0, 2, 1)
    return Zt if H is None else H @ Zt


def _evaluate(sigma: np.ndarray, alpha: float, spectra=None):
    """S_alpha in bits of each member of a (c, d, d) stack of outputs, 0 <
    alpha <= inf, and the parts its gradient and the fixed point's weight are
    built from: at an integer alpha = n >= 2 (P, t, H) of `_integer_powers`,
    with no eigendecomposition; elsewhere (w, V), the eigendecomposition of
    each output, or `spectra` where it is already known."""
    n = _integer_order(alpha)
    if n:
        f, P, t, H = _integer_powers(sigma, n)
        return f, (P, t, H)
    w, V = np.linalg.eigh(sigma) if spectra is None else spectra
    return _entropy_from_eigs(w, alpha), (w, V)


def _gradient_matrix(parts, alpha: float) -> np.ndarray:
    """dS_alpha/dsigma from the parts `_evaluate` returned, 0 < alpha < inf:
    n P / ((1 - n) ln2 tr sigma^n) at an integer alpha = n >= 2, else the
    spectral formula."""
    n = _integer_order(alpha)
    if n:
        P, t = parts[:2]
        return (n / ((1.0 - n) * LN2 * t))[:, None, None] * P
    return _entropy_gradient_matrices(*parts[:2], alpha)


REASONS = np.array(["max_iters", "stationary", "armijo", "tol"], dtype=object)
MAX_ITERS, STATIONARY, ARMIJO, TOL = range(len(REASONS))  # their codes in the loop


def _armijo_descent(fg, retract, x0, first, max_iters: int, tol: float, t_max: float):
    """Steepest descent on a manifold with Armijo backtracking (halving, from
    a first trial step capped at `t_max`), run in lockstep over an (s, ...)
    stack x0 of starts.

    The first trial step is each start's Barzilai-Borwein step
    <s,s> / |Re<s,y>|, for s its last move and y the change in its gradient,
    clipped below at 1e-12. On the first iteration and where
    |Re<s,y>| <= 1e-30, it is the start's last accepted step doubled.

    `fg(X)` returns the objective of each member of a stack X, the stacked
    directions of a smooth objective and any further per-member arrays, from
    one evaluation. `first` is what it returns at x0, which the caller has
    already evaluated, and the descent updates its arrays in place; it calls
    `fg` on every trial point alone, and
    an accepted start keeps its direction and further arrays: with
    Barzilai-Borwein steps most trial points are accepted (1236 of 1389 on
    the `eof` benchmark workload, 623 of 1054 on `two-copy`, seed 5).
    `retract` maps a stack X - t G back onto the manifold. Each start keeps
    its own step t and stops on its own reason: "stationary" (the direction
    vanishes), "armijo" (no step down to 1e-18 decreases f enough), "tol"
    (the last step improved f by less than `tol`) or "max_iters". One `fg`
    call evaluates the trial points of every start still backtracking.
    Returns (f, x, reasons, iterations, *further), each per start, the
    further arrays those of the end points; a start's iterations count the
    lockstep iterations it took part in.
    """
    x = np.array(x0)
    f, g, *kept = first  # its arrays, which accepted rows overwrite
    ends = [f.copy(), x.copy()] + [a.copy() for a in kept]  # f, x and the further arrays of each stopped start
    reasons = np.full(len(x), MAX_ITERS, dtype=np.int8)
    iterations = np.full(len(x), max_iters)
    live = np.arange(len(x))  # start index of each row of the active stack
    t = np.ones(len(x))
    bcast = (-1,) + (1,) * (x.ndim - 1)
    axes = tuple(range(1, x.ndim))
    x_prev = g_prev = None  # each start's last point and gradient

    def dot(a, b):  # Re<a, b> of each member
        return np.sum(a.real * b.real + a.imag * b.imag, axis=axes)

    for it in range(1, max_iters + 1):
        gn2 = dot(g, g)
        improvement = np.full(len(x), np.inf)  # stays inf where no step is taken
        t = np.minimum(t * 2.0, t_max)
        if g_prev is not None:
            s, y = x - x_prev, g - g_prev
            sy = np.abs(dot(s, y))
            t = np.where(sy > 1e-30, np.clip(dot(s, s) / np.maximum(sy, 1e-30), 1e-12, t_max), t)
        x_prev, g_prev = x.copy(), g.copy()  # a copy: accepted rows of g are overwritten below
        pending = np.flatnonzero(gn2 >= 1e-30)
        while len(pending):
            tp = t[pending]
            cand = retract(x[pending] - tp.reshape(bcast) * g[pending])
            fc, *rest = fg(cand)
            ok = fc <= f[pending] - 1e-4 * tp * gn2[pending]
            if ok.all():  # the common round: every pending start accepts
                improvement[pending] = f[pending] - fc
                for a, c in zip((x, f, g, *kept), (cand, fc, *rest)):
                    a[pending] = c
                break
            acc = pending[ok]
            improvement[acc] = f[acc] - fc[ok]
            for a, c in zip((x, f, g, *kept), (cand, fc, *rest)):
                a[acc] = c[ok]
            pending = pending[~ok]
            t[pending] *= 0.5
            pending = pending[t[pending] > 1e-18]  # the others stop on "armijo"
        done = (gn2 < 1e-30) | (t <= 1e-18) | (improvement < tol)
        if done.any():
            code = np.select([gn2 < 1e-30, t <= 1e-18], [STATIONARY, ARMIJO], TOL)
            reasons[live[done]], iterations[live[done]] = code[done], it
            for e, a in zip(ends, (f, x, *kept)):
                e[live[done]] = a[done]
            keep = ~done
            live, x, f, g, t, x_prev, g_prev, *kept = (a[keep] for a in (live, x, f, g, t, x_prev, g_prev, *kept))
            if not len(live):
                break
    for e, a in zip(ends, (f, x, *kept)):
        e[live] = a
    return ends[0], ends[1], REASONS[reasons], iterations, *ends[2:]


def _best_start(values, pick_min: bool) -> int:
    """Index of the extremal per-start value; ties within 1e-12 go to the lowest index."""
    arr = np.asarray(values, dtype=float)
    near = arr <= arr.min() + 1e-12 if pick_min else arr >= arr.max() - 1e-12
    return int(np.argmax(near))


def _sphere_retract(X: np.ndarray) -> np.ndarray:
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def _sphere_gradient(T: ch.QuantumChannel, Psi: np.ndarray, Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The Wirtinger gradient of S_alpha(T(psi psi+)) projected onto the
    sphere tangent at each row of Psi, from the row's Kraus images Z and the
    gradient matrix G = dS_alpha/dsigma at its output."""
    # 2 sum_k A_k+ G A_k psi, with G A_k psi read off the Kraus images
    g = 2.0 * T.kraus_adjoint(Z @ G.conj())
    return g - np.real(np.sum(Psi.conj() * g, axis=1))[:, None] * Psi


def _sphere_objective(T: ch.QuantumChannel, alpha: float):
    """fg(Psi): S_alpha(T(psi psi+)) and its projected gradient at each row
    of Psi, from one evaluation of the outputs (`_evaluate`), 0 < alpha <
    inf, and off the integer orders the output spectra too, which the
    descent carries to each start's end point."""
    spectral = not _integer_order(alpha)

    def fg(Psi):
        Z, sigma = T.pure_outputs(Psi)
        f, parts = _evaluate(sigma, alpha)
        g = _sphere_gradient(T, Psi, Z, _gradient_matrix(parts, alpha))
        return (f, g, parts[0]) if spectral else (f, g)
    return fg


class _Outputs:
    """A stack of unit input rows X with its outputs sigma under T, and each
    output's eigendecomposition `spectra`, taken on first use: the searches
    that start from one stack read one evaluation of it. Rows of X equal to
    the row at the same position of `known` take their outputs from it, and
    their spectra too where `known` has taken them."""

    def __init__(self, T: ch.QuantumChannel, X: np.ndarray, known: _Outputs | None = None):
        self.X = np.asarray(X, dtype=complex)  # a real stack would drop its trial points' imaginary parts
        lent = np.zeros(len(self.X), dtype=bool)
        if known is not None:
            n = min(len(self.X), len(known.X))
            lent[:n] = (self.X[:n] == known.X[:n]).all(axis=1)
        if not lent.any():
            self.sigma = T.pure_outputs(self.X)[1]
            return

        def merged(fresh, old):  # the fresh rows where X is new, old's rows where it is lent
            out = np.empty((len(lent),) + fresh.shape[1:], dtype=fresh.dtype)
            out[~lent], out[lent] = fresh, old[:n][lent[:n]]
            return out
        sigma = T.pure_outputs(self.X[~lent])[1]
        self.sigma = merged(sigma, known.sigma)
        if "spectra" in vars(known):
            self.spectra = tuple(map(merged, np.linalg.eigh(sigma), known.spectra))

    @cached_property
    def spectra(self):
        return np.linalg.eigh(self.sigma)


def _descend_starts(T: ch.QuantumChannel, alpha: float, start: _Outputs, max_iters: int, tol: float):
    """Entropy minimization (alpha > 0) from every row of the evaluated start
    stack at once. For finite alpha the fixed point takes at most
    FIXED_POINT_ITERS steps (VON_NEUMANN_FIXED_POINT_ITERS at alpha = 1,
    CONVEX_FIXED_POINT_ITERS above), and the Armijo/BB descent continues,
    with the iterations left, from the best point of each row it left
    unconverged or with a projected gradient norm above STATIONARY_GRAD. The
    fixed point hands on its evaluation of each best point: the gradient
    test and the descent's first value and gradient are read off it and the
    point's Kraus images, taken again (kept, they would hold k d_out entries
    per start through the search), with no output formed or decomposed
    again. At alpha = inf the fixed point, with its extrapolated cycles,
    runs alone and takes every iteration. Returns per-start (values, end
    points, converged flags, output spectra at the end points); the spectra
    are None at an integer alpha, where the search takes none."""
    if math.isinf(alpha):
        f, Psi, converged, (w, _) = _fixed_point(T, alpha, start, max_iters, tol)
        return f, Psi, converged, w
    lead = min(max_iters, FIXED_POINT_ITERS if alpha < 1.0 else
               VON_NEUMANN_FIXED_POINT_ITERS if alpha == 1.0 else CONVEX_FIXED_POINT_ITERS)
    f, Psi, converged, parts = _fixed_point(T, alpha, start, lead, tol)
    g = _sphere_gradient(T, Psi, T.kraus_images(Psi), _gradient_matrix(parts, alpha))
    # a step that gains little can also be a stall short of a minimum
    converged &= np.linalg.norm(g, axis=1) <= STATIONARY_GRAD
    spectra = None if _integer_order(alpha) else parts[0]
    rest = np.flatnonzero(~converged)
    if len(rest) and max_iters > lead:
        first = (f[rest], g[rest]) + (() if spectra is None else (spectra[rest],))
        f[rest], Psi[rest], reasons, _, *end_spectra = _armijo_descent(
            _sphere_objective(T, alpha), _sphere_retract, Psi[rest], first, max_iters - lead, tol, ENTROPY_STEP_CAP)
        if end_spectra:
            spectra[rest] = end_spectra[0]
        converged[rest] = reasons != "max_iters"
    return f, Psi, converged, spectra


def _factored_adjoint(T: ch.QuantumChannel):
    """The map U -> T+(U U+) on each member of a (c, d_out, r) stack U.

    It is one product with T's superoperator where that takes fewer
    multiplications than the Kraus images (d_out d_in <= k (d_in + 1)) and
    the matrix has at most DIM_CAP**2 entries, the cap on a Kraus stack.
    Otherwise it is T+ on the columns of U as one input of rank r
    (`pure_outputs` with `rank`), a block of members at a time, so that a
    call holds at most linalg.ADJOINT_BLOCK_ENTRIES Kraus-image entries.
    """
    d_out, d_in, k = T.dim_out, T.dim_in, len(T.kraus)
    if d_out * d_in <= min(k * (d_in + 1), DIM_CAP):
        # vec(T+(W)) = vec(W) conj(S) = conj(vec(conj W) S) for T's superoperator S
        S = T.superop

        def reshuffled(U):
            Y = (U.conj() @ U.transpose(0, 2, 1)).reshape(len(U), -1) @ S
            return np.conjugate(Y, out=Y).reshape(-1, d_in, d_in)
        return reshuffled

    def blocked(U):
        c, _, r = U.shape
        block = max(1, linalg.ADJOINT_BLOCK_ENTRIES // (r * k * d_in))
        rows = U.transpose(0, 2, 1).reshape(c * r, d_out)
        return np.concatenate([T.pure_outputs(rows[i:i + block * r], adjoint=True, rank=r)[1]
                               for i in range(0, c * r, block * r)])
    return blocked


def _fixed_point(T: ch.QuantumChannel, alpha: float, start: _Outputs, max_iters: int, tol: float):
    """Majorize-minimize fixed point for S_alpha(T(psi psi+)), alpha > 0, from
    every unit row of the evaluated start stack, in lockstep.

    tr sigma^alpha (alpha < 1) and S_1 are concave in sigma, so their tangent
    at the current output sigma = V diag(w) V+ bounds them from above, and the
    bound's minimizer over pure inputs is the bottom eigenvector of T+(W),
    W = V diag(p) V+ with p = (w + eps)^(alpha - 1) below alpha = 1 and
    p = log((1 + eps) / (w + eps)), clipped at 0, at alpha = 1. T+ is unital,
    so the log(1 + eps) shift moves no eigenvector; it keeps W PSD for the
    factor V diag(sqrt p). Each row's smoothing eps starts at SMOOTHING_START,
    shrinks 4-fold per iteration and, once below SMOOTHING_JUMP, drops to
    SMOOTHING_FLOOR; it also drops to the floor after a step that gains at
    most `tol`. Above alpha = 1, tr sigma^alpha is convex, so the tangent
    bounds it from below and the step to the top eigenvector of T+(W), p =
    w^(alpha - 1), never lowers it (minorize-maximize); no smoothing is
    needed, and eps starts at the floor; at alpha = inf, W = v v+ for v the
    top output eigenvector. A row stops once eps is at the floor and a step
    gains at most `tol`, and keeps the best point it visited. A stall is not
    a first-order test: the caller checks the gradient.

    Each visited point's outputs are evaluated once, for the value and the
    next weight (the start stack's evaluation is read, not made again), and
    each row keeps the evaluation of its best point for the caller. At an
    integer alpha = n >= 2 that takes no
    eigendecomposition: W = sigma^(n - 1) up to a positive factor, with the
    factor U = sigma^((n - 1)/2) for odd n and sigma^((n - 2)/2) Z^T for even
    n, where sigma = Z^T conj(Z) from the Kraus images Z (`_power_factor`).
    Elsewhere one eigh of each output gives w and V; above alpha = 1 the
    weight is divided by the top eigenvalue, which moves no eigenvector of
    T+(W) and keeps a large alpha from underflowing it.

    At alpha = inf the plain steps stop after CONVEX_FIXED_POINT_ITERS; off
    the class their rate nears 1, so the rows still gaining go on in SQUAREM
    cycles (Varadhan & Roland, Scand. J. Stat. 35, 2008): from x0 two steps
    x1, x2, then y = x0 - 2a r + a^2 v with r = x1 - x0, v = x2 - 2 x1 + x0
    and a = min(-|r|/|v|, -1), put back on the sphere and stepped once more,
    or x2 where that is worse. x1 and x2 take the phase of the point each
    starts from, so that differences see no arbitrary eigenvector phase.
    Every step counts against `max_iters`, and a row stops once a cycle
    gains at most `tol`. Returns per-row (S_alpha, best points, converged
    flags, gradient parts), a flag False where the row was still gaining at
    the cap, and the parts of each best point's evaluation that its gradient
    is built from: the output's eigendecomposition (w, V), or at an integer
    alpha its power P and tr(P sigma).
    """
    adjoint = _factored_adjoint(T)
    n = _integer_order(alpha)
    best = []  # S_alpha, point and gradient parts of each row's best point

    def evaluate(X, Z, sigma, spectra=None):  # S_alpha at each live row's point X, and (X, *weight parts)
        f, parts = _evaluate(sigma, alpha, spectra)
        kept = (f, X) + parts[:2]  # (w, V), or (P, t) at an integer alpha
        if not best:
            best.extend(np.array(a) for a in kept)
        else:
            better = f < best[0][live]
            if better.all():  # the common visit: every live row gains
                for b, a in zip(best, kept):
                    b[live] = a
            elif better.any():
                for b, a in zip(best, kept):
                    b[live[better]] = a[better]
        return f, ((X, _power_factor(Z, parts[2], n)) if n else (X,) + parts)

    def visit(X):
        return evaluate(X, *T.pure_outputs(X))

    def weight_factor(ev, eps):  # U with W = U U+
        if n:
            return ev[1]
        w, V = ev[1:]
        if math.isinf(alpha):
            return V[:, :, -1:]
        w = np.clip(w, 0.0, None)
        if alpha == 1.0:
            return V * np.sqrt(np.clip(np.log((1.0 + eps) / (w + eps)), 0.0, None))[:, None, :]
        if alpha > 1.0:  # W's scale moves no eigenvector; the top eigenvalue keeps it from underflowing
            w = w / w[:, -1:]
        return V * ((w + eps) ** (0.5 * (alpha - 1.0)))[:, None, :]

    def step(ev, eps):  # each row's next point, from the evaluation of its current one, and visit(it)
        return visit(np.linalg.eigh(adjoint(weight_factor(ev, eps[:, None])))[1][:, :, pick])

    def aligned(X, Psi):  # each row of X in the phase of that row of Psi
        return X * np.exp(-1j * np.angle(np.sum(Psi.conj() * X, axis=1)))[:, None]

    def rows(ev, idx):
        return tuple(a[idx] for a in ev)

    live = np.arange(len(start.X))
    images = T.kraus_images(start.X) if n and not n % 2 else None  # an even order's weight factor takes them
    f, ev = evaluate(start.X, images, start.sigma, None if n else start.spectra)
    del images  # held from here on by the weight factor alone, while its rows are live
    eps = np.full(len(f), SMOOTHING_START if alpha <= 1.0 else SMOOTHING_FLOOR)
    pick = 0 if alpha <= 1.0 else -1  # bottom eigenvector to minimize the majorizer, top to maximize the minorizer
    lead = min(max_iters, CONVEX_FIXED_POINT_ITERS) if math.isinf(alpha) else max_iters
    for _ in range(lead):
        if not len(live):
            break
        f2, ev = step(ev, eps)
        gained = f2 < f - tol
        keep = gained | (eps > SMOOTHING_FLOOR)
        eps = np.where(eps > SMOOTHING_JUMP, eps / 4.0, SMOOTHING_FLOOR)
        eps[~gained] = SMOOTHING_FLOOR
        live, f, eps, ev = live[keep], f2[keep], eps[keep], rows(ev, keep)
    for _ in range((max_iters - lead) // 3):  # SQUAREM cycles of three steps each
        if not len(live):
            break
        Psi = ev[0]
        _, ev1 = step(ev, eps)
        X1 = aligned(ev1[0], Psi)
        f2, ev2 = step(ev1, eps)
        X2 = aligned(ev2[0], X1)
        r, v = X1 - Psi, X2 - 2.0 * X1 + Psi
        vn = np.linalg.norm(v, axis=1)  # 0 where a row is at a fixed point; a = -1 there, so y = x2
        a = np.minimum(-np.linalg.norm(r, axis=1) / np.where(vn > 0.0, vn, np.inf), -1.0)[:, None]
        f3, ev3 = step(visit(_sphere_retract(Psi - 2.0 * a * r + a * a * v))[1], eps)
        back = f3 > f2
        for b3, b2 in zip((f3,) + ev3, (f2, X2) + ev2[1:]):
            b3[back] = b2[back]
        keep = f3 < f - tol
        live, f, eps, ev = live[keep], f3[keep], eps[keep], rows(ev3, keep)
    f_best, Psi_best, *parts = best
    return f_best, Psi_best, ~np.isin(np.arange(len(f_best)), live), tuple(parts)


def _stack_starts(d: int, cfg: OptConfig, drawn: dict | None = None) -> np.ndarray:
    """The (starts, d) stack of unit start vectors: the warm starts, then the
    seeded random starts. `drawn` maps a start index to its random row, to
    share rows between the stacks of one seed; rows missing from it are drawn
    and added. A stack of more than DIM_CAP**2 entries is refused before any
    row is drawn."""
    for wv in cfg.warm_starts:
        if len(wv) != d:
            raise DimMismatch(f"warm start length {len(wv)} != channel input dim {d}")
    first = len(cfg.warm_starts)
    if (first + cfg.starts) * d > linalg.DIM_CAP ** 2:
        raise DimensionOverflow(f"{first + cfg.starts} starts of length {d} exceed the cap of "
                                f"{linalg.DIM_CAP ** 2} entries")
    drawn = {} if drawn is None else drawn
    missing = [i for i in range(first, first + cfg.starts) if i not in drawn]
    drawn.update(zip(missing, haar_state_vectors(cfg.seed, missing, d)))
    rows = [np.asarray(wv, dtype=complex) / np.linalg.norm(wv) for wv in cfg.warm_starts]
    rows += [drawn[i] for i in range(first, first + cfg.starts)]
    if not rows:
        raise SpecInvalid(f"no optimizer start to run (starts = {cfg.starts}, no warm starts)")
    return np.array(rows)


def _report(cfg: OptConfig, values, args: np.ndarray, converged: np.ndarray, spectra: np.ndarray | None,
            pick_min: bool) -> OptReport:
    values = [float(v) for v in values]
    best = _best_start(values, pick_min)
    return OptReport(
        value=float(min(values) if pick_min else max(values)),
        starts=len(values),
        seed=cfg.seed,
        per_start_values=values,
        converged=bool(converged[best]),
        best_start=best,
        per_start_args=args,
        per_start_converged=converged,
        per_start_spectra=spectra,
    )


def _rank_report(start: _Outputs, cfg: OptConfig, surrogate: OptReport) -> OptReport:
    """alpha = 0 from the alpha = 1/2 run `surrogate` from the start stack.

    S_0 is piecewise constant, so the smooth alpha = 1/2 surrogate is
    descended instead (same minimizer set when nu is alpha-independent), and
    each start takes the lower rank entropy of its start and end points; both
    are upper bounds. The ranks are read off the output spectra that the
    start stack and the surrogate's search already hold.
    """
    w0, w1 = start.spectra[0], surrogate.per_start_spectra
    f0, f1 = _entropy_from_eigs(w0, 0.0), _entropy_from_eigs(w1, 0.0)
    moved = f1 < f0
    return _report(cfg, np.where(moved, f1, f0), np.where(moved[:, None], surrogate.per_start_args, start.X),
                   np.where(moved, surrogate.per_start_converged, True), np.where(moved[:, None], w1, w0),
                   pick_min=True)


def min_output_entropy(T: ch.QuantumChannel, alpha: float, cfg: OptConfig | None = None, *,
                       start: _Outputs | None = None) -> OptReport:
    """Upper-bound estimate of the minimal output alpha-entropy over pure
    inputs. `start`, when given, is the start stack of `cfg`, already drawn
    and evaluated."""
    cfg = cfg or OptConfig()
    alpha = _normalize_alpha(alpha)
    start = _Outputs(T, _stack_starts(T.dim_in, cfg)) if start is None else start
    descended = 0.5 if alpha == 0.0 else alpha  # alpha = 0 reads the rank off the 1/2 run
    report = _report(cfg, *_descend_starts(T, descended, start, cfg.max_iters, cfg.tol), pick_min=True)
    return _rank_report(start, cfg, report) if alpha == 0.0 else report


def max_output_norm(T: ch.QuantumChannel, cfg: OptConfig | None = None, *,
                    start: _Outputs | None = None) -> OptReport:
    """Lower-bound estimate of sup_rho ||T(rho)||_inf over pure inputs: 2^(-f)
    of the alpha = inf search of `min_output_entropy`, the minorize-maximize
    fixed point with its SQUAREM cycles, from every start. `start`, when
    given, is the start stack of `cfg`, already drawn and evaluated."""
    cfg = cfg or OptConfig()
    start = _Outputs(T, _stack_starts(T.dim_in, cfg)) if start is None else start
    f, Psi, converged, spectra = _descend_starts(T, math.inf, start, cfg.max_iters, cfg.tol)
    return _report(cfg, 2.0 ** (-f), Psi, converged, spectra, pick_min=False)


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
    once, and the grid's alpha = 2 run doubles as that witness search. When the
    grid holds alpha = 1/2, alpha = 0 is read off that run instead of
    descending the same surrogate from the same starts again. nu_inf is
    -log2 of the norm search's value, not a descent of its own.
    """
    cfg = cfg or OptConfig()
    alphas = list(dict.fromkeys(_normalize_alpha(a) for a in alpha_grid))
    if not alphas:
        raise BadAlpha("alpha grid must be nonempty")
    reuse = 0.0 in alphas and 0.5 in alphas
    drawn = {}  # random start rows by index, shared by every search below
    start = _Outputs(T, _stack_starts(T.dim_in, cfg, drawn))  # and their outputs
    reports = {a: min_output_entropy(T, a, cfg, start=start) for a in alphas
               if not (reuse and a == 0.0) and not math.isinf(a)}
    if reuse:
        reports[0.0] = _rank_report(start, cfg, reports[0.5])

    two_report = reports[2.0] if 2.0 in reports else min_output_entropy(T, 2.0, cfg, start=start)
    witness_vec = two_report.per_start_args[two_report.best_start]
    norm_cfg = cfg.with_warm_starts([witness_vec])
    norm_start = _Outputs(T, _stack_starts(T.dim_in, norm_cfg, drawn), known=start)
    norm_report = max_output_norm(T, norm_cfg, start=norm_start)
    argmax_state = norm_report.arg_state
    norm_value = norm_report.value
    nu = {a: reports[a].value if a in reports else -math.log2(max(norm_value, EIG_FLOOR)) for a in alphas}
    spread = max(nu.values()) - min(nu.values())
    constant_nu = bool(spread <= TOL_EQUIV)

    out = ch.apply(T, argmax_state)
    norm_at_projection, rank = ch.is_normalized_projection(out)

    form = None
    err = None
    try:
        form = ch.extract_projective_form(T, argmax_state, norm_value)
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
