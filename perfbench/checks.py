"""Answer checks for the benchmark's tasks.

Every expected value comes from the paper's closed forms or from a plain-numpy
computation made here, never from a stored copy of the program's output. Each
checker returns a list of failure messages; an empty list means the answer is
right. Comparisons are written as `not (error <= tol)` so that NaN fails.
"""

from __future__ import annotations

import math

import numpy as np

CHAR_ALPHAS = ("0.0", "0.5", "1.0", "2.0", "inf")
NU_TOL = 1e-6
JOINT_TOL = 1e-4
S5_TOL = 1e-9
TRACE_SQUARE_TOL = 1e-9
EXPANSION_TOL = 1e-10
CHI_TOL = 1e-6
EOF_EXACT_TOL = 1e-9
EOF_SEARCH_TOL = 1e-3

# S_5 of (T (x) T)(Omega) = (I/3 + Omega)/4 for Werner-Holevo d = 3: one
# eigenvalue 1/3 and eight eigenvalues 1/12.
S5_OMEGA = -0.25 * math.log2(3.0 ** -5 + 8 * 12.0 ** -5)


def closed_form_nu(d: int, m: int) -> float:
    """Minimal output entropy log2(d - m), the same for every alpha."""
    return math.log2(d - m)


def closed_form_capacity(d: int, m: int) -> float:
    """Holevo capacity log2 d - log2(d - m) of a weakly covariant member."""
    return math.log2(d) - math.log2(d - m)


def _far(value, want, tol) -> bool:
    return not (abs(float(value) - want) <= tol)


def check_characterize(report: dict, d: int, m: int) -> list[str]:
    errors = []
    want = closed_form_nu(d, m)
    nu = report.get("nu_values", {})
    if sorted(nu) != sorted(CHAR_ALPHAS):
        errors.append(f"nu_values has alphas {sorted(nu)}, expected {list(CHAR_ALPHAS)}")
    for alpha, value in nu.items():
        if _far(value, want, NU_TOL):
            errors.append(f"nu_{alpha} = {value!r}, expected log2({d}-{m}) = {want!r}")
    if report.get("all_three") is not True:
        errors.append(f"all_three is {report.get('all_three')!r}")
    if report.get("m") != m:
        errors.append(f"extracted m = {report.get('m')!r}, expected {m}")
    return errors


def check_capacity(report: dict, d: int, m: int, tol: float) -> list[str]:
    want = closed_form_capacity(d, m)
    value = report.get("capacity")
    if value is None or _far(value, want, tol):
        return [f"capacity {value!r}, expected {want!r} within {tol:g}"]
    return []


def check_additivity(report: dict, alpha: float) -> list[str]:
    errors = []
    if report.get("alpha") != alpha:
        errors.append(f"report alpha {report.get('alpha')!r} != {alpha!r}")
    joint, gap = float(report["joint"]), float(report["gap"])
    if alpha <= 2:
        if _far(joint, 2.0, JOINT_TOL):
            errors.append(f"joint nu_{alpha} = {joint!r}, expected 2 within {JOINT_TOL:g}")
    else:
        if not joint <= S5_OMEGA + S5_TOL:
            errors.append(f"joint nu_5 = {joint!r} above S_5 at Omega = {S5_OMEGA!r}")
        if not gap >= 2.0 - S5_OMEGA - S5_TOL:
            errors.append(f"gap {gap!r} below 2 - S_5(Omega) = {2.0 - S5_OMEGA!r}")
    return errors


def check_trace_square(report: dict, pairs: int) -> list[str]:
    errors = []
    excess = report.get("trace_square_max_excess", {})
    if len(excess) != pairs:
        errors.append(f"{len(excess)} map pairs checked, expected {pairs}")
    for pair, value in excess.items():
        if not float(value) <= TRACE_SQUARE_TOL:
            errors.append(f"{pair}: trace-square excess {value!r} > {TRACE_SQUARE_TOL:g}")
    if report.get("trace_square_violations") != 0:
        errors.append(f"{report.get('trace_square_violations')!r} violations reported")
    return errors


def product_purity(kraus_factors, rho: np.ndarray) -> float:
    """tr[((x_i T_i)(rho))^2] straight from the Kraus operators."""
    ops = [np.ones((1, 1), dtype=complex)]
    for kraus in kraus_factors:
        ops = [np.kron(A, B) for A in ops for B in kraus]
    out = sum(K @ rho @ K.conj().T for K in ops)
    return float(np.real(np.vdot(out, out)))


def check_expansion(expansions, kraus_factors, states) -> list[str]:
    if len(expansions) != len(states):
        return [f"{len(expansions)} expansions for {len(states)} states"]
    # np.max propagates NaN
    worst = float(np.max([abs(float(value) - product_purity(kraus_factors, rho))
                          for value, rho in zip(expansions, states)]))
    if not worst <= EXPANSION_TOL:
        return [f"|expansion - direct| = {worst!r} > {EXPANSION_TOL:g}"]
    return []


def check_chi(excess: float) -> list[str]:
    if not float(excess) <= CHI_TOL:
        return [f"chi excess over 2C = {excess!r} > {CHI_TOL:g}"]
    return []


def check_eof_example9(report: dict) -> list[str]:
    # An upper bound cannot fall below E_F = 1 by more than roundoff.
    value = float(report.get("value", math.nan))
    if not 1.0 - EOF_EXACT_TOL <= value <= 1.0 + EOF_SEARCH_TOL:
        return [f"example9 E_F upper bound {value!r} outside [1 - 1e-9, 1 + 1e-3]"]
    return []


def check_eof_exact(value: float, want: float) -> list[str]:
    if _far(value, want, EOF_EXACT_TOL):
        return [f"E_F upper bound {value!r}, expected {want!r} within {EOF_EXACT_TOL:g}"]
    return []
