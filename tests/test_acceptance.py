"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All tolerances are fixed here; nothing is calibrated at run time.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import haar_state_vector, m_mismatch, m_ref, max_entangled
from projchan import additivity as add
from projchan import capacity as cap
from projchan import channels as ch
from projchan import cli, entropy, eof, linalg, zoo
from projchan.sampling import random_density, split_seed

LOG2_3 = math.log2(3)
CFG64 = entropy.OptConfig(starts=64)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1 ---------------------------------------------------------------------


def test_criterion_01_minimal_output_entropy():
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]
    worst = 0.0
    slowest = 0.0
    for d in (3, 4):
        T, _ = zoo.build(zoo.WernerHolevo(d))
        want = math.log2(d - 1)
        for alpha in grid:
            t0 = time.monotonic()
            rep = entropy.min_output_entropy(T, alpha, CFG64)
            dt = time.monotonic() - t0
            slowest = max(slowest, dt)
            worst = max(worst, abs(rep.value - want))
            assert dt <= 30.0, f"(d={d}, alpha={alpha}) took {dt:.1f}s"
    _report(1, worst <= 1e-6,
            f"nu_alpha(WH d=3,4) = log2(d-1) within {worst:.2e} (max case {slowest:.1f}s)")


# -- 2 ---------------------------------------------------------------------


def test_criterion_02_characterization():
    cases = [
        (zoo.WernerHolevo(3), 1),
        (zoo.WeylShift(3), 1),
        (zoo.Pinching(3, zoo.block_projectors(3, [2, 1])), 1),
        (zoo.CasimirReducibleExample(), 2),
        (zoo.CoarseGraining(2, 2), 2),
    ]
    grid = [0.0, 0.5, 1.0, 2.0, math.inf]
    ok = True
    details = []
    for spec, want_m in cases:
        T, _ = zoo.build(spec)
        rep = entropy.characterize(T, grid, CFG64)
        form, ref = rep.projective_form, m_ref(spec)
        good = rep.all_three and form is not None and form.m == want_m
        detail = f"{T.name}: three={rep.all_three} m={form.m if form else None}"
        if good and ref is not None:  # casimir-reducible is printed without an M
            mismatch = m_mismatch(form.M, ref)
            good = mismatch <= 1e-12
            detail += f" |M - M_paper|={mismatch:.1e}"
        ok = ok and good
        details.append(detail)
    _report(2, ok, "; ".join(details))


# -- 3 ---------------------------------------------------------------------


def test_criterion_03_strong_additivity_alpha2():
    t0 = time.monotonic()
    T, _ = zoo.build(zoo.WernerHolevo(3))
    rep = add.additivity_gap([T, T], 2.0, CFG64)
    gap_ok = abs(rep.gap) <= 1e-4 and abs(rep.joint - 2.0) <= 1e-4

    TT = ch.tensor_channels([T, T])
    K = np.stack(TT.kraus)
    rng = split_seed(CFG64.seed, 303)
    worst = -np.inf
    for start in range(0, 10_000, 500):
        psis = rng.standard_normal((500, 9)) + 1j * rng.standard_normal((500, 9))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        Y = np.einsum("kij,bj->bki", K, psis)
        G = np.einsum("bki,bli->bkl", Y, Y.conj())
        purity = np.einsum("bkl,bkl->b", G, G.conj()).real
        worst = max(worst, float(purity.max()))
    bound_ok = worst <= 0.25 + 1e-9
    dt = time.monotonic() - t0
    _report(3, gap_ok and bound_ok and dt <= 600.0,
            f"gap={rep.gap:.2e}, joint={rep.joint:.6f}, max purity={worst:.12f} (<=0.25), {dt:.1f}s")


# -- 4 ---------------------------------------------------------------------


def test_criterion_04_additivity_transfer():
    T, _ = zoo.build(zoo.WernerHolevo(3))
    ok = True
    vals = {}
    for beta in (0.0, 0.5, 1.0):
        rep = add.additivity_gap([T, T], beta, CFG64)
        vals[beta] = rep.joint
        ok = ok and (2.0 - 1e-4 <= rep.joint <= 2.0 + 1e-6)
    _report(4, ok, f"joint nu_beta for beta in {{0, 0.5, 1}}: {vals}")


# -- 5 ---------------------------------------------------------------------


def test_criterion_05_alpha5_violation():
    T, _ = zoo.build(zoo.WernerHolevo(3))
    rep = add.additivity_gap([T, T], 5.0, CFG64)
    # direct-evaluation oracle for the margin at the maximally entangled input
    TT = ch.tensor_channels([T, T])
    out = TT.apply_raw(max_entangled(3))
    s5_direct = entropy.renyi_entropy(ch.DensityMatrix(9, out), 5.0)
    margin = 2.0 - s5_direct
    omega_start_is_witness = rep.joint_report.per_start_values[1] <= rep.joint + 1e-12
    ok = rep.gap >= 0.01 and omega_start_is_witness and abs(rep.joint - s5_direct) <= 1e-9
    _report(5, ok,
            f"gap={rep.gap:.10f} (oracle margin {margin:.10f}), Omega warm start selected={omega_start_is_witness}")


# -- 6 ---------------------------------------------------------------------


def test_criterion_06_trace_square_bound():
    maps = {name: zoo.build(zoo.parse_spec(spec))[1].M for name, spec in cli.LEMMA3_MAPS.items()}
    pairs = [[maps[a], maps[b]] for a, b in itertools.combinations_with_replacement(maps, 2)]
    excess = add.trace_square_suite(pairs, 10_000)
    violations = sum(e > 1e-9 for e in excess)
    # pairs of equal dimension see the same states
    sets = len({math.prod(M.dim for M in pair) for pair in pairs})
    _report(6, violations == 0,
            f"{violations} violations over {sets} sets of 10^4 states x {len(pairs)} pairs "
            f"(max excess {max(excess):.3e})")


# -- 7 ---------------------------------------------------------------------


def test_criterion_07_expansion_oracle():
    T3, f3 = zoo.build(zoo.WernerHolevo(3))
    Tc, fc = zoo.build(zoo.CoarseGraining(2, 2))
    combos = [
        ("N=1 wh3", [(T3, f3)]),
        ("N=2 wh3 x wh3", [(T3, f3), (T3, f3)]),
        ("N=2 coarse x wh3", [(Tc, fc), (T3, f3)]),
    ]
    worst = 0.0
    for name, combo in combos:
        n = int(np.prod([T.dim_in for T, _ in combo]))
        rng = split_seed(CFG64.seed, 707, n)
        for _ in range(100):
            e, d = add.purity_expansion(combo, random_density(rng, n))
            worst = max(worst, abs(e - d))
    _report(7, worst <= 1e-10, f"|expansion - direct| <= {worst:.3e} over 100 states x 3 combos")


# -- 8 ---------------------------------------------------------------------


def test_criterion_08_capacities():
    cases = [
        (zoo.WeylShift(3), LOG2_3 - 1.0, 1e-6),
        (zoo.WeylShift(4), 2.0 - LOG2_3, 1e-6),
        (zoo.Pinching(3, zoo.block_projectors(3, [2, 1])), LOG2_3 - 1.0, 1e-6),
        (zoo.CasimirReducibleExample(), 1.0, 1e-6),
        (zoo.CoarseGraining(2, 2), 1.0, 1e-6),
        (zoo.dephasing(2), 1.0, 1e-6),
        (zoo.dephasing(3), LOG2_3, 1e-6),
    ]
    ok = True
    details = []
    for spec, want, tol in cases:
        T, form = zoo.build(spec)
        rho0, group, conjugate = zoo.auto_group(spec, form)
        rep = cap.capacity_weakcov(T, rho0, group, conjugate, CFG64)
        err = abs(rep.capacity - want)
        ok = ok and err <= tol
        details.append(f"{T.name}: err={err:.1e}")
    _report(8, ok, "; ".join(details))


# -- 9 ---------------------------------------------------------------------


def test_criterion_09_chi_product_bound():
    ok = True
    details = []
    for spec, C in [(zoo.WernerHolevo(3), LOG2_3 - 1.0), (zoo.WeylShift(3), LOG2_3 - 1.0)]:
        T, form = zoo.build(spec)
        excess = cap.chi_product_bound_check(T, C, 200, CFG64)
        ok = ok and excess <= 1e-6
        details.append(f"{T.name}: max_excess={excess:.3e}")
    _report(9, ok, "; ".join(details))


# -- 10 --------------------------------------------------------------------


def test_criterion_10_eof():
    t0 = time.monotonic()
    rep = eof.eof_upper(eof.example9_state(), eof.EofConfig(starts=64))
    dt = time.monotonic() - t0
    prod = eof.eof_upper(
        eof.BipartiteState(2, 2, ch.DensityMatrix.from_vector(np.array([1, 0, 0, 0], dtype=complex))),
        eof.EofConfig(starts=8),
    )
    bell = eof.eof_upper(
        eof.BipartiteState(2, 2, ch.DensityMatrix(4, max_entangled(2))),
        eof.EofConfig(starts=8),
    )
    ok = (abs(rep.value - 1.0) <= 1e-9 and dt <= 600.0
          and abs(prod.value) <= 1e-9 and abs(bell.value - 1.0) <= 1e-9)
    _report(10, ok,
            f"example9 E_F upper = {rep.value:.6f} ({dt:.1f}s); product={prod.value:.2e}, bell={bell.value:.10f}")


# -- 11 --------------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    reruns = {
        "c1": ["minent", "--spec", "wh:d=3", "--alpha", "2"],
        "c3": ["additivity", "--spec", "wh:d=3", "--spec", "wh:d=3", "--alpha", "2"],
        "c8": ["capacity", "--spec", "casimir-reducible", "--group", "auto"],
    }
    ok = True
    for tag, argv in reruns.items():
        a, b = tmp_path / f"{tag}_a.json", tmp_path / f"{tag}_b.json"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    _report(11, ok, "repeated runs of criteria 1, 3, 8 are byte-identical")
