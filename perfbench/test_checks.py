"""Tests of the benchmark itself: every checker rejects a perturbed answer, a
failing task is counted and the round goes on, and traced counts repeat.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _characterization(value=1.0, all_three=True, m=1, alphas=checks.CHAR_ALPHAS):
    return {"nu_values": {a: value for a in alphas}, "all_three": all_three, "m": m}


def test_characterize_accepts_closed_form_and_rejects_perturbations():
    assert checks.check_characterize(_characterization(), 3, 1) == []
    assert checks.check_characterize(_characterization(m=2), 4, 2) == []
    assert checks.check_characterize(_characterization(value=1.0 + 2e-6), 3, 1)
    assert checks.check_characterize(_characterization(value=math.nan), 3, 1)
    assert checks.check_characterize(_characterization(all_three=False), 3, 1)
    assert checks.check_characterize(_characterization(m=2), 3, 1)
    assert checks.check_characterize(_characterization(alphas=checks.CHAR_ALPHAS[:-1]), 3, 1)
    one_off = _characterization()
    one_off["nu_values"]["inf"] = 1.0 - 2e-6
    assert checks.check_characterize(one_off, 3, 1)


@pytest.mark.parametrize("spec, d, m, tol", workloads.CAPACITY)
def test_capacity_rejects_twice_the_tolerance(spec, d, m, tol):
    want = checks.closed_form_capacity(d, m)
    assert checks.check_capacity({"capacity": want + 0.5 * tol}, d, m, tol) == []
    assert checks.check_capacity({"capacity": want + 2 * tol}, d, m, tol)
    assert checks.check_capacity({"capacity": want - 2 * tol}, d, m, tol)


def test_capacity_closed_forms():
    assert checks.closed_form_capacity(3, 1) == pytest.approx(math.log2(3) - 1)
    assert checks.closed_form_capacity(4, 1) == pytest.approx(2 - math.log2(3))
    assert checks.closed_form_capacity(3, 2) == pytest.approx(math.log2(3))


def test_additivity_low_alpha():
    assert checks.check_additivity({"alpha": 1.0, "joint": 2.0, "gap": 0.0}, 1.0) == []
    assert checks.check_additivity({"alpha": 1.0, "joint": 2.0 - 2e-4, "gap": 2e-4}, 1.0)
    assert checks.check_additivity({"alpha": 0.5, "joint": 2.0, "gap": 0.0}, 1.0)


def test_additivity_alpha5_violation():
    s5 = checks.S5_OMEGA
    assert 1.97 < s5 < 1.98  # gap 0.0216 bits
    good = {"alpha": 5.0, "joint": s5, "gap": 2.0 - s5}
    assert checks.check_additivity(good, 5.0) == []
    assert checks.check_additivity(dict(good, joint=s5 + 1e-8), 5.0)
    assert checks.check_additivity(dict(good, gap=2.0 - s5 - 1e-8), 5.0)
    assert checks.check_additivity(dict(good, joint=2.0, gap=0.0), 5.0)


def test_s5_omega_is_the_spectrum_of_the_product_output():
    # (T x T)(Omega) = (I/3 + Omega)/4 for T(rho) = (I - rho^T)/2 on C^3
    v = np.eye(3).reshape(-1) / math.sqrt(3)
    out = (np.eye(9) / 3 + np.outer(v, v)) / 4
    w = np.linalg.eigvalsh(out)
    assert -0.25 * math.log2(np.sum(w ** 5)) == pytest.approx(checks.S5_OMEGA, abs=1e-12)


def test_trace_square():
    good = {"trace_square_max_excess": {f"p{i}": -0.3 for i in range(10)},
            "trace_square_violations": 0}
    assert checks.check_trace_square(good, 10) == []
    bad = {"trace_square_max_excess": dict(good["trace_square_max_excess"], p3=1e-8),
           "trace_square_violations": 0}
    assert checks.check_trace_square(bad, 10)
    assert checks.check_trace_square(dict(good, trace_square_violations=1), 10)
    short = {"trace_square_max_excess": {f"p{i}": -0.3 for i in range(9)},
             "trace_square_violations": 0}
    assert checks.check_trace_square(short, 10)


def _wh_kraus(d):
    ops = []
    for i in range(d):
        for j in range(i + 1, d):
            A = np.zeros((d, d), dtype=complex)
            A[i, j], A[j, i] = 1 / math.sqrt(d - 1), -1 / math.sqrt(d - 1)
            ops.append(A)
    return ops


def _superop_purity(kraus_factors, rho):
    ops = [np.ones((1, 1))]
    for kraus in kraus_factors:
        ops = [np.kron(A, B) for A in ops for B in kraus]
    S = sum(np.kron(K, K.conj()) for K in ops)
    n = rho.shape[0]
    out = (S @ rho.reshape(-1)).reshape(n, n)
    return float(np.trace(out @ out).real)


def test_expansion_rejects_a_perturbed_value():
    rng = np.random.default_rng(5)
    factors = [_wh_kraus(3), _wh_kraus(2)]
    states = [workloads._wishart(rng, 6) for _ in range(4)]
    values = [_superop_purity(factors, rho) for rho in states]
    assert checks.check_expansion(values, factors, states) == []
    values[2] += 1e-9
    assert checks.check_expansion(values, factors, states)
    assert checks.check_expansion(values[:3], factors, states)
    values[2] = math.nan
    assert checks.check_expansion(values, factors, states)


def test_expansion_accepts_the_program_answer():
    from projchan import additivity, zoo

    wh3 = zoo.build(zoo.WernerHolevo(3))
    rng = np.random.default_rng(9)
    states = [workloads._wishart(rng, 9) for _ in range(3)]
    values = [additivity.purity_expansion([wh3, wh3], rho)[0] for rho in states]
    assert checks.check_expansion(values, [wh3[0].kraus, wh3[0].kraus], states) == []


def test_chi_and_eof():
    assert checks.check_chi(-0.47) == []
    assert checks.check_chi(2e-6)
    assert checks.check_chi(math.nan)
    assert checks.check_eof_example9({"value": 1.0}) == []
    assert checks.check_eof_example9({"value": 1.0 + 5e-4}) == []
    assert checks.check_eof_example9({"value": 1.0 - 1e-8})
    assert checks.check_eof_example9({"value": 1.0 + 2e-3})
    assert checks.check_eof_exact(1e-12, 0.0) == []
    assert checks.check_eof_exact(1e-8, 0.0)
    assert checks.check_eof_exact(1.0 - 1e-8, 1.0)


def test_round_counts_failures_and_goes_on():
    def boom():
        raise ValueError("program error")

    tasks = [
        workloads.Task("ok", lambda: 1.0, lambda v: []),
        workloads.Task("raises", boom, lambda v: []),
        workloads.Task("wrong", lambda: 2.0, lambda v: ["wrong answer"]),
        workloads.Task("ok again", lambda: 1.0, lambda v: []),
    ]
    r = run.Round(tasks)
    assert (r.attempted, r.failed, r.wrong) == (4, 2, 1)


def test_round_scales_each_task_by_the_reference_around_it():
    class FakeReference:
        times = iter([(0.024, 0.012), (0.012, 0.012), (0.006, 0.024)])

        def measure(self):
            return next(self.times)

    tasks = [workloads.Task("a", lambda: 1.0, lambda v: []), workloads.Task("b", lambda: 1.0, lambda v: [])]
    r = run.Round(tasks, reference=FakeReference())
    want_wall = [run.REF_NOMINAL_S / 0.018, run.REF_NOMINAL_S / 0.009]
    want_cpu = [run.REF_NOMINAL_S / 0.012, run.REF_NOMINAL_S / 0.018]
    for i in range(2):
        assert r.scaled_wall[i] == pytest.approx(r.task_wall[i] * want_wall[i])
        assert r.scaled_cpu[i] == pytest.approx(r.task_cpu[i] * want_cpu[i])


def test_per_task_median_sets_a_slow_round_aside():
    tasks = [workloads.Task("a", lambda: 1.0, lambda v: []), workloads.Task("b", lambda: 1.0, lambda v: [])]
    rounds = [run.Round(tasks) for _ in range(3)]
    for r, (a, b) in zip(rounds, [(1.0, 2.0), (9.0, 2.5), (1.5, 30.0)]):
        r.task_wall = [a, b]
    assert run.per_task_median(rounds, "task_wall") == 1.5 + 2.5


def test_rounds_draw_their_own_seeds(tmp_path):
    argv = {r: [t.argv for t in workloads.build("two-copy", 1, tmp_path, r)] for r in (0, 1)}
    assert argv[0] == [t.argv for t in workloads.build("two-copy", 1, tmp_path, 0)]
    for first, other in zip(argv[0], argv[1]):
        seed = first.index("--seed") + 1
        assert first[:seed] + first[seed + 1:] == other[:seed] + other[seed + 1:]
        assert first[seed] != other[seed]


def test_tracer_wraps_bound_names_and_restores_them():
    from projchan import additivity, capacity, channels, entropy

    original = entropy.min_output_entropy
    t = tracer.Tracer()
    t.install()
    try:
        assert additivity.min_output_entropy is entropy.min_output_entropy
        assert capacity.min_output_entropy is entropy.min_output_entropy
        assert entropy.min_output_entropy is not original
        assert channels.np is not np
    finally:
        t.uninstall()
    assert entropy.min_output_entropy is original
    assert additivity.min_output_entropy is original
    assert channels.np is np


def test_traced_counts_repeat_exactly(tmp_path):
    from projchan import channels, entropy, zoo

    T, _ = zoo.build(zoo.WernerHolevo(3))
    cfg = entropy.OptConfig(starts=4, seed=7)
    t = tracer.Tracer()
    metrics = []
    for _ in range(2):
        t.install()
        lo = t.mark()
        try:
            t.begin_task()
            with t.span("bench.task"):
                entropy.characterize(T, [0.0, 1.0, 2.0], cfg)
                channels.tensor_channels([T, T])
        finally:
            t.uninstall()
        metrics.append(t.round_metrics(lo, t.mark()))
    counts = [{k: v for k, v in m.items() if tracer.unit(k) != "s"} for m in metrics]
    assert counts[0] == counts[1]
    assert counts[0]["entropy.runs"] == 5          # grid of 3, alpha 2 again, norm ascent
    assert counts[0]["entropy.repeated_runs"] == 1  # alpha = 2 twice
    assert counts[0]["entropy.starts"] == 4 * 4 + 5
    assert counts[0]["channels.apply_calls"] > 0
    assert metrics[0]["channels.tensor_s"] > 0
    t.save(tmp_path / "trace.npz")
    saved = np.load(tmp_path / "trace.npz")
    assert len(saved["kind"]) == t.mark()
