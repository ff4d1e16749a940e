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
    evaluation, one eigendecomposition per output, gives the value and the
    gradient of every start still backtracking, and an accepted start keeps
    the gradient. Per-start values agree across batch sizes to 1e-12, not
    bit for bit (GEMM row blocking);
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
from .errors import BadAlpha, DimMismatch, SpecInvalid
from .linalg import DIM_CAP
from .sampling import haar_state_vector, split_seed

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
    """S_alpha in bits of each spectrum along the last axis of w."""
    w = _clip_spectrum(w, alpha)
    if alpha == 1.0:
        return -np.sum(np.where(w > EIG_FLOOR, w * np.log2(np.maximum(w, EIG_FLOOR)), 0.0), axis=-1)
    if math.isinf(alpha):
        return -np.log2(np.maximum(w.max(axis=-1), EIG_FLOOR))
    if alpha == 0.0:
        return np.log2(np.maximum(np.sum(w > RANK_CUTOFF, axis=-1), 1))
    return np.log2(np.sum(w ** alpha, axis=-1)) / (1.0 - alpha)


def _entropy_gradient_matrices(w: np.ndarray, V: np.ndarray, alpha: float) -> np.ndarray:
    """dS_alpha/dsigma on each output eigendecomposition of a (c, d) / (c, d, d)
    stack, 0 < alpha < inf; below alpha = 1 it is the gradient on the output's
    support, where eigenvalues cut to 0 take no part."""
    w = _clip_spectrum(w, alpha)
    if alpha == 1.0:
        dw = -(np.log2(np.clip(w, EIG_FLOOR, None)) + 1.0 / LN2)
    else:
        t = np.sum(w ** alpha, axis=1)
        pw = np.power(w, alpha - 1.0, out=np.zeros_like(w), where=w > 0.0)  # 0 off the support
        dw = (alpha / ((1.0 - alpha) * LN2 * t))[:, None] * pw
    return (V * dw[:, None, :]) @ V.conj().transpose(0, 2, 1)


REASONS = np.array(["max_iters", "stationary", "armijo", "tol"], dtype=object)
MAX_ITERS, STATIONARY, ARMIJO, TOL = range(len(REASONS))  # their codes in the loop


def _armijo_descent(fg, retract, x0, max_iters: int, tol: float, t_max: float):
    """Steepest descent on a manifold with Armijo backtracking (halving, from
    a first trial step capped at `t_max`), run in lockstep over an (s, ...)
    stack x0 of starts.

    The first trial step is each start's Barzilai-Borwein step
    <s,s> / |Re<s,y>|, for s its last move and y the change in its gradient,
    clipped below at 1e-12. On the first iteration and where
    |Re<s,y>| <= 1e-30, it is the start's last accepted step doubled.

    `fg(X)` returns the objective of each member of a stack X and the stacked
    directions of a smooth objective, from one evaluation. It is called on x0
    and on every trial point, and an accepted start keeps its direction for
    the next iteration: with Barzilai-Borwein steps most trial points are
    accepted (1236 of 1389 on the `eof` benchmark workload, 623 of 1054 on
    `two-copy`, seed 5). `retract` maps a stack X - t G back onto the
    manifold. Each start keeps its own step t and stops on its own
    reason: "stationary" (the direction vanishes), "armijo" (no step down to
    1e-18 decreases f enough), "tol" (the last step improved f by less than
    `tol`) or "max_iters". One `fg` call evaluates the trial points of every
    start still backtracking. Returns (f, x, reasons, iterations), each per
    start; a start's iterations count the lockstep iterations it took part in.
    """
    x = np.array(x0)
    f, g = fg(x)
    f_end, x_end = f.copy(), x.copy()
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
            fc, gc = fg(cand)
            ok = fc <= f[pending] - 1e-4 * tp * gn2[pending]
            if ok.all():  # the common round: every pending start accepts
                improvement[pending], x[pending], f[pending], g[pending] = f[pending] - fc, cand, fc, gc
                break
            acc = pending[ok]
            improvement[acc], x[acc], f[acc], g[acc] = f[acc] - fc[ok], cand[ok], fc[ok], gc[ok]
            pending = pending[~ok]
            t[pending] *= 0.5
            pending = pending[t[pending] > 1e-18]  # the others stop on "armijo"
        done = (gn2 < 1e-30) | (t <= 1e-18) | (improvement < tol)
        if done.any():
            code = np.select([gn2 < 1e-30, t <= 1e-18], [STATIONARY, ARMIJO], TOL)
            reasons[live[done]], iterations[live[done]] = code[done], it
            f_end[live[done]], x_end[live[done]] = f[done], x[done]
            keep = ~done
            live, x, f, g, t, x_prev, g_prev = (a[keep] for a in (live, x, f, g, t, x_prev, g_prev))
            if not len(live):
                break
    f_end[live], x_end[live] = f, x
    return f_end, x_end, REASONS[reasons], iterations


def _best_start(values, pick_min: bool) -> int:
    """Index of the extremal per-start value; ties within 1e-12 go to the lowest index."""
    arr = np.asarray(values, dtype=float)
    near = arr <= arr.min() + 1e-12 if pick_min else arr >= arr.max() - 1e-12
    return int(np.argmax(near))


def _sphere_retract(X: np.ndarray) -> np.ndarray:
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def _descend_starts(T: ch.QuantumChannel, alpha: float, Psi0: np.ndarray, max_iters: int, tol: float):
    """Entropy minimization (alpha > 0) from every row of Psi0 at once. For
    finite alpha the fixed point takes at most FIXED_POINT_ITERS steps
    (VON_NEUMANN_FIXED_POINT_ITERS at alpha = 1, CONVEX_FIXED_POINT_ITERS
    above), and the Armijo/BB descent continues, with the iterations left,
    from the best point of each row it left unconverged or with a projected
    gradient norm above STATIONARY_GRAD. At alpha = inf the fixed point, with
    its extrapolated cycles, runs alone and takes every iteration. Returns
    per-start (values, end points, converged flags)."""
    Psi0 = np.asarray(Psi0, dtype=complex)  # a real stack would drop its trial points' imaginary parts
    if math.isinf(alpha):
        return _fixed_point(T, alpha, Psi0, max_iters, tol)

    def fg(Psi):  # S_alpha and its projected gradient at each row, from one eigh of the outputs
        Z, sigma = T.pure_outputs(Psi)
        w, V = np.linalg.eigh(sigma)
        # 2 sum_k A_k+ G A_k psi, with G A_k psi read off the Kraus images
        g = 2.0 * T.kraus_adjoint(Z @ _entropy_gradient_matrices(w, V, alpha).conj())
        return _entropy_from_eigs(w, alpha), g - np.real(np.sum(Psi.conj() * g, axis=1))[:, None] * Psi

    lead = min(max_iters, FIXED_POINT_ITERS if alpha < 1.0 else
               VON_NEUMANN_FIXED_POINT_ITERS if alpha == 1.0 else CONVEX_FIXED_POINT_ITERS)
    f, Psi, converged = _fixed_point(T, alpha, Psi0, lead, tol)
    settled = np.flatnonzero(converged)
    if len(settled):
        # a step that gains little can also be a stall short of a minimum
        converged[settled] = np.linalg.norm(fg(Psi[settled])[1], axis=1) <= STATIONARY_GRAD
    rest = np.flatnonzero(~converged)
    if len(rest) and max_iters > lead:
        f[rest], Psi[rest], reasons, _ = _armijo_descent(fg, _sphere_retract, Psi[rest],
                                                         max_iters - lead, tol, ENTROPY_STEP_CAP)
        converged[rest] = reasons != "max_iters"
    return f, Psi, converged


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


def _fixed_point(T: ch.QuantumChannel, alpha: float, Psi0: np.ndarray, max_iters: int, tol: float):
    """Majorize-minimize fixed point for S_alpha(T(psi psi+)), alpha > 0, from
    every unit row of Psi0, in lockstep.

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

    At alpha = inf the plain steps stop after CONVEX_FIXED_POINT_ITERS; off
    the class their rate nears 1, so the rows still gaining go on in SQUAREM
    cycles (Varadhan & Roland, Scand. J. Stat. 35, 2008): from x0 two steps
    x1, x2, then y = x0 - 2a r + a^2 v with r = x1 - x0, v = x2 - 2 x1 + x0
    and a = min(-|r|/|v|, -1), put back on the sphere and stepped once more,
    or x2 where that is worse. x1 and x2 take the phase of the point each
    starts from, so that differences see no arbitrary eigenvector phase.
    Every step counts against `max_iters`, and a row stops once a cycle
    gains at most `tol`. Returns per-row (S_alpha, best points, converged
    flags), a flag False where the row was still gaining at the cap.
    """
    adjoint = _factored_adjoint(T)

    def visit(X):  # S_alpha and the output eigendecomposition at each live row's point X
        w, V = np.linalg.eigh(T.pure_outputs(X)[1])
        f = _entropy_from_eigs(w, alpha)
        better = f < f_best[live]
        f_best[live[better]], Psi_best[live[better]] = f[better], X[better]
        return f, w, V

    def weight_factor(w, V, eps):  # U with W = U U+
        if math.isinf(alpha):
            return V[:, :, -1:]
        w = np.clip(w, 0.0, None)
        if alpha == 1.0:
            return V * np.sqrt(np.clip(np.log((1.0 + eps) / (w + eps)), 0.0, None))[:, None, :]
        return V * ((w + eps) ** (0.5 * (alpha - 1.0)))[:, None, :]

    def step(w, V, eps):  # each row's next point, from its output eigendecomposition, and visit(it)
        X = np.linalg.eigh(adjoint(weight_factor(w, V, eps[:, None])))[1][:, :, pick]
        return (X,) + visit(X)

    def aligned(X, Psi):  # each row of X in the phase of that row of Psi
        return X * np.exp(-1j * np.angle(np.sum(Psi.conj() * X, axis=1)))[:, None]

    live, f_best, Psi_best = np.arange(len(Psi0)), np.full(len(Psi0), np.inf), np.array(Psi0)
    Psi = Psi_best.copy()
    f, w, V = visit(Psi)
    eps = np.full(len(f), SMOOTHING_START if alpha <= 1.0 else SMOOTHING_FLOOR)
    pick = 0 if alpha <= 1.0 else -1  # bottom eigenvector to minimize the majorizer, top to maximize the minorizer
    lead = min(max_iters, CONVEX_FIXED_POINT_ITERS) if math.isinf(alpha) else max_iters
    for _ in range(lead):
        if not len(live):
            break
        Psi, f2, w, V = step(w, V, eps)
        gained = f2 < f - tol
        keep = gained | (eps > SMOOTHING_FLOOR)
        eps = np.where(eps > SMOOTHING_JUMP, eps / 4.0, SMOOTHING_FLOOR)
        eps[~gained] = SMOOTHING_FLOOR
        live, Psi, f, w, V, eps = (a[keep] for a in (live, Psi, f2, w, V, eps))
    for _ in range((max_iters - lead) // 3):  # SQUAREM cycles of three steps each
        if not len(live):
            break
        X1, _, w1, V1 = step(w, V, eps)
        X1 = aligned(X1, Psi)
        X2, f2, w2, V2 = step(w1, V1, eps)
        X2 = aligned(X2, X1)
        r, v = X1 - Psi, X2 - 2.0 * X1 + Psi
        vn = np.linalg.norm(v, axis=1)  # 0 where a row is at a fixed point; a = -1 there, so y = x2
        a = np.minimum(-np.linalg.norm(r, axis=1) / np.where(vn > 0.0, vn, np.inf), -1.0)[:, None]
        Y = _sphere_retract(Psi - 2.0 * a * r + a * a * v)
        X3, f3, w3, V3 = step(*visit(Y)[1:], eps)
        back = f3 > f2
        X3[back], f3[back], w3[back], V3[back] = X2[back], f2[back], w2[back], V2[back]
        keep = f3 < f - tol
        live, Psi, f, w, V, eps = (z[keep] for z in (live, X3, f3, w3, V3, eps))
    return f_best, Psi_best, ~np.isin(np.arange(len(f_best)), live)


def _stack_starts(d: int, cfg: OptConfig, drawn: dict | None = None) -> np.ndarray:
    """The (starts, d) stack of unit start vectors: the warm starts, then the
    seeded random starts. `drawn` maps a start index to its random row, to
    share rows between the stacks of one seed; rows missing from it are drawn
    and added."""
    for wv in cfg.warm_starts:
        if len(wv) != d:
            raise DimMismatch(f"warm start length {len(wv)} != channel input dim {d}")
    first = len(cfg.warm_starts)
    drawn = {} if drawn is None else drawn
    for i in range(first, first + cfg.starts):
        if i not in drawn:
            drawn[i] = haar_state_vector(split_seed(cfg.seed, i), d)
    rows = [np.asarray(wv, dtype=complex) / np.linalg.norm(wv) for wv in cfg.warm_starts]
    rows += [drawn[i] for i in range(first, first + cfg.starts)]
    if not rows:
        raise SpecInvalid(f"no optimizer start to run (starts = {cfg.starts}, no warm starts)")
    return np.array(rows)


def _report(cfg: OptConfig, values, args: np.ndarray, converged: np.ndarray, pick_min: bool) -> OptReport:
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
    )


def _rank_report(T: ch.QuantumChannel, Psi0: np.ndarray, cfg: OptConfig, surrogate: OptReport) -> OptReport:
    """alpha = 0 from the alpha = 1/2 run `surrogate` from the starts Psi0.

    S_0 is piecewise constant, so the smooth alpha = 1/2 surrogate is
    descended instead (same minimizer set when nu is alpha-independent), and
    each start takes the lower rank entropy of its start and end points; both
    are upper bounds.
    """
    ends = surrogate.per_start_args
    f0 = _entropy_from_eigs(np.linalg.eigvalsh(T.pure_outputs(Psi0)[1]), 0.0)
    f1 = _entropy_from_eigs(np.linalg.eigvalsh(T.pure_outputs(ends)[1]), 0.0)
    moved = f1 < f0
    return _report(cfg, np.where(moved, f1, f0), np.where(moved[:, None], ends, Psi0),
                   np.where(moved, surrogate.per_start_converged, True), pick_min=True)


def min_output_entropy(T: ch.QuantumChannel, alpha: float, cfg: OptConfig | None = None, *,
                       Psi0: np.ndarray | None = None) -> OptReport:
    """Upper-bound estimate of the minimal output alpha-entropy over pure
    inputs. `Psi0`, when given, is the start stack of `cfg`, already drawn."""
    cfg = cfg or OptConfig()
    alpha = _normalize_alpha(alpha)
    Psi0 = _stack_starts(T.dim_in, cfg) if Psi0 is None else Psi0
    descended = 0.5 if alpha == 0.0 else alpha  # alpha = 0 reads the rank off the 1/2 run
    report = _report(cfg, *_descend_starts(T, descended, Psi0, cfg.max_iters, cfg.tol), pick_min=True)
    return _rank_report(T, Psi0, cfg, report) if alpha == 0.0 else report


def max_output_norm(T: ch.QuantumChannel, cfg: OptConfig | None = None, *,
                    Psi0: np.ndarray | None = None) -> OptReport:
    """Lower-bound estimate of sup_rho ||T(rho)||_inf over pure inputs: 2^(-f)
    of the alpha = inf search of `min_output_entropy`, the minorize-maximize
    fixed point with its SQUAREM cycles, from every start. `Psi0`, when
    given, is the start stack of `cfg`, already drawn."""
    cfg = cfg or OptConfig()
    Psi0 = _stack_starts(T.dim_in, cfg) if Psi0 is None else Psi0
    f, Psi, converged = _descend_starts(T, math.inf, Psi0, cfg.max_iters, cfg.tol)
    return _report(cfg, 2.0 ** (-f), Psi, converged, pick_min=False)


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
    Psi0 = _stack_starts(T.dim_in, cfg, drawn)
    reports = {a: min_output_entropy(T, a, cfg, Psi0=Psi0) for a in alphas
               if not (reuse and a == 0.0) and not math.isinf(a)}
    if reuse:
        reports[0.0] = _rank_report(T, Psi0, cfg, reports[0.5])

    two_report = reports[2.0] if 2.0 in reports else min_output_entropy(T, 2.0, cfg, Psi0=Psi0)
    witness_vec = two_report.per_start_args[two_report.best_start]
    norm_cfg = cfg.with_warm_starts([witness_vec])
    norm_report = max_output_norm(T, norm_cfg, Psi0=_stack_starts(T.dim_in, norm_cfg, drawn))
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
