"""The benchmark's four workloads, built from the workload seed.

A workload is a list of tasks; one task is one CLI-level operation plus the
check of its answer. CLI tasks go through `projchan.cli.main` in-process with
`--seed` and `--out` set; `purity_expansion`, `chi_product_bound_check` and
the small `eof_upper` cases have no subcommand and call the library.
The program receives only the generated argv and inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ALPHAS = "0,0.5,1,2,inf"
# Starts per single-channel task: a round of 5 characterizations and 7
# capacities then takes about 6 s, so a run holds the 3 or more rounds that
# the per-task median over rounds needs.
SINGLE_STARTS = 16
EOF_STARTS = 64
# (spec, d, m) for the criterion-2 characterization set
CHARACTERIZE = (
    ("wh:d=3", 3, 1),
    ("weyl:d=3", 3, 1),
    ("pinch:d=3,blocks=2+1", 3, 1),
    ("casimir-reducible", 4, 2),
    ("coarse:n=2,D=2", 4, 2),
)
# (spec, d, m, criterion-8 tolerance) for the capacity set
CAPACITY = (
    ("weyl:d=3", 3, 1, 1e-6),
    ("weyl:d=4", 4, 1, 1e-6),
    ("pinch:d=3,blocks=2+1", 3, 1, 1e-6),
    ("casimir-reducible", 4, 2, 1e-4),
    ("coarse:n=2,D=2", 4, 2, 1e-3),
    ("diag:d=2", 2, 1, 1e-6),
    ("diag:d=3", 3, 2, 1e-6),
)
# (alpha, random starts). At alpha <= 0.5 the random starts on the 9-dim
# product channel take a median of 170 applications, but about 1 in 12 takes
# over 2000 and about 1 in 100 runs to max_iters (6016), so a task with 64
# starts swings with its seed by tens of percent. With 2 starts about 85% of
# the rounds draw no slow start, and the per-task median over rounds sets the
# others aside. At alpha >= 1 the applications per start vary little.
ADDITIVITY = ((0.0, 2), (0.5, 2), (1.0, 32), (2.0, 32), (5.0, 32))
LEMMA3_STATES = 1000
LEMMA3_PAIRS = 10          # unordered pairs of the CLI's four M-maps
EXPANSION_STATES = 100     # Wishart states per purity-expansion combination
CHI_TRIALS = 200
EOF_SMALL_STARTS = 8

class TaskError(Exception):
    """The program reported failure for a task."""


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    argv: tuple = ()          # what a CLI task passes to projchan.cli.main


def _cli_task(name: str, argv: list, seed: int, out_dir: Path, check) -> Task:
    from projchan import cli

    path = out_dir / (re.sub(r"[^A-Za-z0-9.=-]+", "_", name) + ".json")
    argv = argv + ["--seed", str(seed), "--out", str(path)]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise TaskError(f"exit code {code}: {err.getvalue().strip()}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    return Task(name, run, check, tuple(argv))


def _wishart(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    R = G @ G.conj().T
    return R / np.trace(R).real


def _haar_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def single_channel(seeds, out_dir: Path) -> list[Task]:
    tasks = []
    for spec, d, m in CHARACTERIZE:
        tasks.append(_cli_task(
            f"characterize {spec}", ["characterize", "--spec", spec, "--alphas", ALPHAS,
                                     "--starts", str(SINGLE_STARTS)],
            next(seeds), out_dir, lambda rep, d=d, m=m: checks.check_characterize(rep, d, m)))
    for spec, d, m, tol in CAPACITY:
        tasks.append(_cli_task(
            f"capacity {spec}", ["capacity", "--spec", spec, "--group", "auto",
                                 "--starts", str(SINGLE_STARTS)],
            next(seeds), out_dir, lambda rep, d=d, m=m, tol=tol: checks.check_capacity(rep, d, m, tol)))
    return tasks


def two_copy(seeds, out_dir: Path) -> list[Task]:
    return [
        _cli_task(f"additivity wh:d=3 x2 alpha={alpha:g}",
                  ["additivity", "--spec", "wh:d=3", "--spec", "wh:d=3", "--alpha", f"{alpha:g}",
                   "--starts", str(starts)],
                  next(seeds), out_dir, lambda rep, a=alpha: checks.check_additivity(rep, a))
        for alpha, starts in ADDITIVITY
    ]


def sampled_checks(seeds, out_dir: Path) -> list[Task]:
    from projchan import additivity, capacity, entropy, zoo

    tasks = [_cli_task("additivity --check-lemma3",
                       ["additivity", "--check-lemma3", str(LEMMA3_STATES)], next(seeds), out_dir,
                       lambda rep: checks.check_trace_square(rep, LEMMA3_PAIRS))]
    wh3 = zoo.build(zoo.WernerHolevo(3))
    coarse = zoo.build(zoo.CoarseGraining(2, 2))
    rng = np.random.default_rng(next(seeds))
    for name, combo in (("wh3", [wh3]), ("wh3 x wh3", [wh3, wh3]), ("coarse x wh3", [coarse, wh3])):
        n = int(np.prod([T.dim_in for T, _ in combo]))
        states = [_wishart(rng, n) for _ in range(EXPANSION_STATES)]
        kraus = [T.kraus for T, _ in combo]

        def run(combo=combo, states=states):
            return [additivity.purity_expansion(combo, rho)[0] for rho in states]

        tasks.append(Task(f"purity_expansion {name}", run,
                          lambda values, kraus=kraus, states=states:
                          checks.check_expansion(values, kraus, states)))
    C = checks.closed_form_capacity(3, 1)  # wh:d=3 and weyl:d=3 both have m = 1
    for spec in (zoo.WernerHolevo(3), zoo.WeylShift(3)):
        T, _ = zoo.build(spec)
        cfg = entropy.OptConfig(seed=next(seeds))

        def run(T=T, cfg=cfg):
            return capacity.chi_product_bound_check(T, C, CHI_TRIALS, cfg)

        tasks.append(Task(f"chi_product_bound_check {T.name}", run, checks.check_chi))
    return tasks


def eof_tasks(seeds, out_dir: Path) -> list[Task]:
    from projchan import channels, eof

    tasks = [_cli_task("eof example9", ["eof", "--state", "example9", "--starts", str(EOF_STARTS)],
                       next(seeds), out_dir, checks.check_eof_example9)]
    rng = np.random.default_rng(next(seeds))
    product = np.kron(_haar_vector(rng, 2), _haar_vector(rng, 2))
    bell = np.kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2)) @ (np.array([1, 0, 0, 1]) / math.sqrt(2))
    for name, vec, want in (("product", product, 0.0), ("bell", bell, 1.0)):
        state = eof.BipartiteState(2, 2, channels.DensityMatrix(4, np.outer(vec, vec.conj())))
        cfg = eof.EofConfig(starts=EOF_SMALL_STARTS, seed=next(seeds))

        def run(state=state, cfg=cfg):
            return eof.eof_upper(state, cfg).value

        tasks.append(Task(f"eof_upper {name}", run, lambda v, want=want: checks.check_eof_exact(v, want)))
    return tasks


BUILDERS = {
    "single-channel": single_channel,
    "two-copy": two_copy,
    "sampled-checks": sampled_checks,
    "eof": eof_tasks,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, out_dir: Path, round_index: int = 0) -> list[Task]:
    """The tasks of one round; the same seed and round give the same argv and
    inputs. Every round runs the same operations, each on its own seeds."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), round_index])
    seeds = (int(s) for s in iter(lambda: rng.integers(2 ** 31), None))
    return BUILDERS[workload](seeds, out_dir)
