"""Finite tensor-power additivity harness.

Covers gap estimation for the minimal output entropy of product channels, the
trace-square bound tr[(M1 x ... x MN)(rho)^2] <= prod 1/m_i, and the
subset-expansion identity for the output purity of product channels in the
projective class, checked against direct evaluation.

Every product map of the sampled checks, and every M map, goes through one
leg-wise kernel, apply_product_map: each factor's superoperator acts on its
own tensor leg by one GEMM, so neither a product channel nor a product
superoperator is built. The trace-square suite, both sides of the purity
expansion, capacity.chi_product_bound_check (T x T on pure inputs) and
ProjectiveForm.projector call it. The purity expansion maps each state once:
every subset's reduction is a chain of np.trace calls over axis pairs of one
(d_1..d_N, d_1..d_N) view of omega, and every tr X^2, like the direct purity,
is the contraction of X with its transpose. The entropy searches over a
product channel still take its Kraus set from channels.tensor_channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .entropy import OptConfig, OptReport, min_output_entropy
from .errors import DimMismatch, NotProjectiveClass, SpecInvalid
from .sampling import random_densities, split_seed

# Wishart states per random_densities draw in trace_square_suite. On the ten
# map pairs of `additivity --check-lemma3` at 1000 states (three state sets,
# one BLAS thread, best of 9) 32 took 41 ms against 49 ms for 16; 64 took
# 40 ms but raised the suite's traced peak from 0.63 to 1.13 MiB.
TRACE_SQUARE_BLOCK = 32


@dataclass
class AdditivityReport:
    alpha: float
    singles: list
    joint: float
    gap: float
    witness_state: ch.DensityMatrix
    joint_report: OptReport

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "singles": list(self.singles),
            "joint": self.joint,
            "gap": self.gap,
            "joint_best_start": self.joint_report.best_start,
            "joint_converged": self.joint_report.converged,
        }


def _ghz_vector(dims) -> np.ndarray:
    """Maximally entangled warm start across the channel factors."""
    dmin = min(dims)
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    for i in range(dmin):
        idx = 0
        for d in dims:
            idx = idx * d + i
        v[idx] = 1.0
    return v / np.linalg.norm(v)


def additivity_gap(channel_list, alpha: float, cfg: OptConfig | None = None) -> AdditivityReport:
    """Estimate sum_i nu_alpha(T_i) - nu_alpha(tensor T_i).

    The joint optimization always includes the product of the single-channel
    argmins and the maximally entangled state as warm starts 0 and 1, followed
    by the seeded random starts. Factors with equal Kraus operators share one
    single-factor run.
    """
    cfg = cfg or OptConfig()
    channel_list = list(channel_list)
    runs, singles = {}, []
    for T in channel_list:
        key = (T.kraus.shape, T.kraus.tobytes())
        if key not in runs:
            runs[key] = min_output_entropy(T, alpha, cfg)
        singles.append(runs[key])
    if len(channel_list) == 1:
        rep = singles[0]
        return AdditivityReport(alpha, [rep.value], rep.value, 0.0, rep.arg_state, rep)
    joint_channel = ch.tensor_channels(channel_list)
    dims = [T.dim_in for T in channel_list]
    tops = {id(rep): np.linalg.eigh(rep.arg_state.mat)[1][:, -1] for rep in runs.values()}  # one per distinct run
    product_vec = np.array([1.0 + 0j])
    for rep in singles:
        product_vec = np.kron(product_vec, tops[id(rep)])
    warm = [product_vec, _ghz_vector(dims)]
    joint = min_output_entropy(joint_channel, alpha, cfg.with_warm_starts(warm))
    total = float(sum(r.value for r in singles))
    return AdditivityReport(
        alpha=float(alpha),
        singles=[r.value for r in singles],
        joint=joint.value,
        gap=total - joint.value,
        witness_state=joint.arg_state,
        joint_report=joint,
    )


def apply_product_map(maps, rho: np.ndarray) -> np.ndarray:
    """(S_1 x ... x S_N)(rho) for maps acting on consecutive tensor factors.

    Each factor is a superoperator on row-major vec, a (d_out^2, d_in^2)
    array, or a map that carries one as `.superop` (a LinearMap, or a
    QuantumChannel, whose superop is built on access); rho is an (n, n)
    matrix or a (c, n, n) stack, n = prod d_in. Leg-wise: one transpose puts
    each factor's row index beside its column index, so that leg k is the
    vec of factor k's input; from the last factor to the first, one GEMM
    applies S_k to the trailing leg and the new leg moves to the front; one
    transpose puts the output back in matrix form. For N = 2 this is
    S_1 X S_2^T with X the input reshaped to (d_in_1^2, d_in_2^2)."""
    S = [getattr(M, "superop", M) for M in maps]
    d_in = [math.isqrt(s.shape[1]) for s in S]
    d_out = [math.isqrt(s.shape[0]) for s in S]
    if any(s.ndim != 2 or s.shape != (e * e, d * d) for s, d, e in zip(S, d_in, d_out)):
        raise DimMismatch(f"superoperator shapes {[s.shape for s in S]} are not (d_out^2, d_in^2)")
    n, N = math.prod(d_in), len(S)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (n, n):
        raise DimMismatch(f"state shape {rho.shape} != ([c,] {n}, {n}) for dims {d_in}")
    c = len(rho) if rho.ndim == 3 else 1
    # (c, i_1..i_N, j_1..j_N) -> (c, i_1, j_1, ..., i_N, j_N)
    legs = [0] + [a for k in range(N) for a in (1 + k, 1 + N + k)]
    t = rho.reshape([c] + d_in + d_in).transpose(legs)
    for s, d in zip(S[::-1], d_in[::-1]):
        t = t.reshape(-1, d * d)  # a copy after the first step; the step before is freed first
        t = (t @ s.T).T
    # t is now (e_1^2, ..., e_N^2, c) -> (c, a_1..a_N, b_1..b_N)
    t = t.reshape([e for e in d_out for _ in range(2)] + [c])
    m = math.prod(d_out)
    out = t.transpose([2 * N] + list(range(0, 2 * N, 2)) + list(range(1, 2 * N, 2))).reshape(c, m, m)
    return out if rho.ndim == 3 else out[0]


def _trace_square_limit(maps) -> float:
    """prod_i 1/m_i; NotProjectiveClass if a map carries no m."""
    if any(M.m is None for M in maps):
        raise NotProjectiveClass("every map needs its integer m")
    return float(np.prod([1.0 / M.m for M in maps]))


def _trace_squares(omega: np.ndarray) -> np.ndarray:
    """tr[omega^2] = sum_ij omega_ij omega_ji for each member of a (c, n, n) stack."""
    return (omega * omega.swapaxes(-1, -2)).real.sum(axis=(-2, -1))


def trace_square_suite(products, count: int, seed: int = 12648430) -> list[float]:
    """Max excess of the trace-square bound for each product in `products`
    (each a list of maps), over `count` seeded random states.

    Products of equal dimension n = prod d_k see the same states: each n
    opens one stream, split_seed(seed, 3, n), drawn TRACE_SQUARE_BLOCK
    states at a time and mapped through every product of that dimension,
    so a product's excess does not depend on which others share the call.
    Each tr[omega^2] is a contraction of omega with its transpose. A count
    below 1 or a map without its m is refused before anything is drawn."""
    if count < 1:
        raise SpecInvalid(f"trace_square_suite needs count >= 1, got {count}")
    bounds = [_trace_square_limit(maps) for maps in products]
    groups = {}
    for i, maps in enumerate(products):
        groups.setdefault(math.prod(M.dim for M in maps), []).append(i)
    worst = [-np.inf] * len(products)
    for n, members in groups.items():
        rng = split_seed(seed, 3, n)
        for start in range(0, count, TRACE_SQUARE_BLOCK):
            rho = random_densities(rng, n, min(TRACE_SQUARE_BLOCK, count - start))
            for i in members:  # no omega outlives its trace square
                worst[i] = max(worst[i], float(_trace_squares(apply_product_map(products[i], rho)).max()) - bounds[i])
    return worst


def purity_expansion(channel_forms, rho: np.ndarray):
    """Subset-sum evaluation of the product-channel output purity.

    With omega = (x_i M_i)(rho) and omega_G its reduction to the subsystems in
    G, the purity of (x_i T_i)(rho) equals

        prod_i (d_i - m_i)^-2  *  sum_{G subset} tr[omega_G^2]
                                  * prod_{k in G} m_k^2
                                  * prod_{j not in G} (d_j - 2 m_j),

    with tr[omega_{}^2] = 1 for the empty subset. Returns (expansion, direct)
    where `direct` applies each channel to its tensor leg and squares. The
    legs outside G are traced out of omega's view last first, so that the
    legs before each keep their axes.
    """
    channel_forms = list(channel_forms)
    for T, form in channel_forms:
        if form is None:
            raise NotProjectiveClass(f"channel {T.name!r} carries no projective form")
    dims = [T.dim_in for T, _ in channel_forms]
    ms = [form.m for _, form in channel_forms]
    N = len(dims)
    omega = apply_product_map([form.M for _, form in channel_forms], rho).reshape(dims + dims)
    total = 0.0
    for mask in range(2 ** N):
        keep = [i for i in range(N) if (mask >> i) & 1]
        om_g = omega
        for j in reversed(range(N)):
            if j not in keep:
                om_g = np.trace(om_g, axis1=j, axis2=j + om_g.ndim // 2)
        dk = math.prod(dims[k] for k in keep)
        term = float(_trace_squares(om_g.reshape(dk, dk))) if keep else 1.0
        total += term * math.prod(ms[k] ** 2 if k in keep else dims[k] - 2 * ms[k] for k in range(N))
    expansion = math.prod(1.0 / (d - m) ** 2 for d, m in zip(dims, ms)) * total
    return expansion, float(_trace_squares(apply_product_map([T for T, _ in channel_forms], rho)))
