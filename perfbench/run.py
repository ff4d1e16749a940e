"""Benchmark projchan on one workload.

    python3 perfbench/run.py --workload single-channel --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's tasks while the next round is expected
to end within `--seconds` (always at least MIN_ROUNDS rounds), checks every
answer and prints each metric with its unit. Every round runs the same
operations; without tracing each round draws its own seeds and inputs from
`--seed` and the round's index. The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: wall_s and cpu_s of a
round, taken as the sum over its tasks of each task's median over the rounds
of its time scaled to full machine speed (see Reference; a few optimizer
starts take far longer than others, and the median sets them aside), setup_s
(script start to the first task: imports plus the median of five builds of
the first round's inputs, scaled the same way) and peak_rss_mib of the
process.
With `--trace 1` every round reuses the first round's inputs, so counts
repeat exactly, and each task runs once untraced and then once traced; the
metrics are the per-layer ones from the traced runs (see tracer.py) and
trace.overhead_s, traced minus untraced wall time of a round.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, fixed before numpy is imported.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / ".out"
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# The reference computation's wall and CPU time when the machine runs at full
# speed; the times reported without tracing are scaled to it (see Reference).
REF_ITERS = 100
REF_NOMINAL_S = 0.012

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_projchan():
    """Import projchan from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "projchan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no projchan sources under {src}")
    sys.path.insert(0, str(src))
    import projchan
    from projchan import (additivity, capacity, channels, cli, entropy, eof,  # noqa: F401
                          linalg, reporting, sampling, zoo)

    if Path(projchan.__file__).resolve().parent != (src / "projchan").resolve():
        sys.exit(f"perfbench: projchan imported from {projchan.__file__}, not {src}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": int(THREADS),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


class Reference:
    """A fixed computation that does not use projchan, timed around every task.

    This machine's cores switch between a fast and a slow speed every few
    seconds, and the share of slow time drifts over minutes, longer than a
    run. A task's time divided by the reference's time next to it, times
    REF_NOMINAL_S, is the task's time on the machine at full speed. The
    reference is a power iteration made of the numpy calls projchan spends
    most of its time in: a Kraus-sum einsum and an eigh at 9 dimensions.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.K = rng.standard_normal((9, 9, 9)) + 1j * rng.standard_normal((9, 9, 9))
        self.Kc = self.K.conj()
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        self.psi0 = v / np.linalg.norm(v)

    def measure(self) -> tuple[float, float]:
        """Wall and CPU time of one pass."""
        np = self.np
        t0, c0 = time.perf_counter(), time.process_time()
        psi = self.psi0
        for _ in range(REF_ITERS):
            sigma = np.einsum("kij,jl,kml->im", self.K, np.outer(psi, psi.conj()), self.Kc, optimize=True)
            _, V = np.linalg.eigh((sigma + sigma.conj().T) / 2)
            psi = V[:, -1]
        return time.perf_counter() - t0, time.process_time() - c0


def scaled(seconds: float, *reference: float) -> float:
    """`seconds` at full machine speed, given the reference times around it."""
    return seconds * REF_NOMINAL_S / statistics.fmean(reference)


class Round:
    """One pass over every task, counting failures and timing wall and CPU.

    With a reference, it is timed before the first task and after each task,
    and each task's times are also kept scaled by the reference times on
    either side of it. With a tracer, each task runs once untraced and then
    once traced, so the two timings of a task see the same load on the
    machine.
    """

    def __init__(self, tasks, tracer=None, reference=None):
        self.attempted = self.failed = self.wrong = 0
        self.task_wall, self.task_cpu = [], []
        self.scaled_wall, self.scaled_cpu = [], []
        self.traced_wall = 0.0
        before = reference.measure() if reference is not None else None
        for task in tasks:
            t0, c0 = time.perf_counter(), time.process_time()
            self._attempt(task)
            self.task_wall.append(time.perf_counter() - t0)
            self.task_cpu.append(time.process_time() - c0)
            if reference is not None:
                after = reference.measure()
                self.scaled_wall.append(scaled(self.task_wall[-1], before[0], after[0]))
                self.scaled_cpu.append(scaled(self.task_cpu[-1], before[1], after[1]))
                before = after
            if tracer is not None:
                tracer.install()
                t0 = time.perf_counter()
                try:
                    tracer.begin_task()
                    with tracer.span("bench.task"):
                        self._attempt(task)
                finally:
                    self.traced_wall += time.perf_counter() - t0
                    tracer.uninstall()

    def _attempt(self, task) -> None:
        self.attempted += 1
        try:
            errors = task.check(task.run())
        except Exception as exc:  # noqa: BLE001 - a task error is counted, the run goes on
            self.failed += 1
            print(f"FAILED {task.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        if errors:
            self.failed += 1
            self.wrong += 1
            print(f"WRONG {task.name}: {'; '.join(errors)}", file=sys.stderr)

    @property
    def wall(self) -> float:
        return sum(self.task_wall)


def per_task_median(rounds, attr: str) -> float:
    """Sum over the tasks of each task's median time over the rounds."""
    return sum(statistics.median(times) for times in zip(*(getattr(r, attr) for r in rounds)))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    import_projchan()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    imported = time.perf_counter() - _T_START
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tasks = workloads.build(args.workload, args.seed, OUT_DIR)
        builds.append(time.perf_counter() - t0)
    setup_s = imported + statistics.median(builds)

    reference = tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    else:
        reference = Reference()
        setup_s = scaled(setup_s, statistics.median(reference.measure()[0] for _ in range(SETUP_REPEATS)))
    rounds, layer_rounds = [], []
    begin = time.perf_counter()
    while True:
        if tracer is None:
            if rounds:  # inputs are built outside the timed tasks
                tasks = workloads.build(args.workload, args.seed, OUT_DIR, len(rounds))
            rounds.append(Round(tasks, reference=reference))
        else:
            lo = tracer.mark()
            rounds.append(Round(tasks, tracer))
            layer_rounds.append(tracer.round_metrics(lo, tracer.mark()))
        elapsed = time.perf_counter() - begin
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > args.seconds:
            break

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if tracer is None:
        values = {
            "wall_s": per_task_median(rounds, "scaled_wall"),
            "cpu_s": per_task_median(rounds, "scaled_cpu"),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        tracer.save(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
        # counts repeat exactly from round to round; median_low keeps them whole
        values = {name: (statistics.median if tracing.unit(name) == "s" else statistics.median_low)(
                      r[name] for r in layer_rounds)
                  for name in layer_rounds[0]}
        values["trace.overhead_s"] = statistics.median(r.traced_wall - r.wall for r in rounds)
        units = {name: tracing.unit(name) for name in tracing.PER_LAYER}
        values = {name: values[name] for name in tracing.PER_LAYER}

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"{' (each task untraced, then traced)' if tracer else ''}"
          f"  attempted {attempted}  failed {failed}")
    print("  round wall_s: " + " ".join(f"{r.wall:.4g}" for r in rounds))
    if reference is not None:
        print(f"  unscaled: wall_s {per_task_median(rounds, 'task_wall'):.6g} s"
              f"  cpu_s {per_task_median(rounds, 'task_cpu'):.6g} s"
              f"  setup_s {imported + statistics.median(builds):.6g} s")
    for name, value in values.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not any(r.wrong for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
