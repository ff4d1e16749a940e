"""Compare two trees of this repository on one perfbench workload by
alternating pairs of runs, and record the result as a BENCH_<n>.json entry.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload sampled-checks --pairs 10 --out BENCH_31.json

PARENT and CHANGE are each a git revision of the repository the script is
run from, or a directory holding a tree of it. Each is copied into one of two
sibling directories whose paths have equal length (`<workdir>/bA` for the
parent, `<workdir>/bB` for the change), because perfbench's `wall_s` moves
with the length of the checkout's path. Pair i runs `perfbench/run.py
--workload W --seed SEED+i --seconds S` once in each checkout, the parent
first on even i and the change first on odd i, with one BLAS thread.

Each run calls the unchanged `run.main` of its checkout's perfbench in a
fresh interpreter, so its end-to-end metrics are those of the command
`python3 perfbench/run.py ...`. The only addition is a record of each
`run.Round`, from which each task's median scaled wall time over the run's
rounds is kept, so that a comparison shows which tasks a saving comes from.

The workload's entry in OUT holds, per side, the medians and the
inclusive quartiles over the runs of each end-to-end metric, every run's
values and per-task medians, and the median over the runs of each task's
median; `after_wins` counts the pairs in which the change reads lower. An
existing OUT keeps its other workloads and its top-level notes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mib")

# Runs in the checkout with nothing imported before perfbench's run module, so
# that its start time and its thread settings come first, as in the command.
ONE_RUN = """
import sys
sys.path.insert(0, "perfbench")
import run
rounds = []
class Recorded(run.Round):
    def __init__(self, tasks, *args, **kwargs):
        super().__init__(tasks, *args, **kwargs)
        self.names = [task.name for task in tasks]
        rounds.append(self)
run.Round = Recorded
code = run.main(sys.argv[2:])
import json, statistics
tasks = {name: statistics.median(times)
         for name, *times in zip(rounds[0].names, *(r.scaled_wall for r in rounds))}
with open(sys.argv[1], "w") as fh:
    json.dump(tasks, fh)
sys.exit(code)
"""


def checkout(tree: str, dest: Path) -> str:
    """Copy a directory or a git revision's files to dest; returns what was
    copied: the revision's commit id or the directory's name."""
    if Path(tree).is_dir():
        shutil.copytree(tree, dest, ignore=shutil.ignore_patterns(
            ".git", ".out", "__pycache__", ".pytest_cache", ".hypothesis"))
        return f"directory {Path(tree).resolve().name}"
    commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{tree}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", commit], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def one_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of the workload in root: its metrics, per-task medians and env."""
    tasks_file = root / "perfbench" / ".out" / "bench_pairs_tasks.json"
    tasks_file.parent.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, "-c", ONE_RUN, str(tasks_file), *argv], cwd=root,
                          capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: run in {root} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"result": result, "env": env, "tasks": json.loads(tasks_file.read_text())}


def quartiles(values) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summary(runs: list) -> dict:
    """Medians and quartiles over one side's runs."""
    side = {
        "correct": all(r.pop("correct") for r in runs),
        "failed": sum(r.pop("failed") for r in runs),
        "attempted": sum(r.pop("attempted") for r in runs),
        "median": {m: statistics.median(r[m] for r in runs) for m in METRICS},
        "quartiles": {m: quartiles([r[m] for r in runs]) for m in METRICS},
        "task_median": {name: statistics.median(r["tasks"][name] for r in runs) for name in runs[0]["tasks"]},
    }
    side["runs"] = runs
    return side


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision or directory of the tree compared against")
    p.add_argument("change", help="git revision or directory of the changed tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=3011, help="seed of pair 0; pair i runs at seed + i")
    p.add_argument("--seconds", type=int, default=8)
    p.add_argument("--out", type=Path, help="BENCH_<n>.json to write or extend; printed when absent")
    p.add_argument("--workdir", type=Path, help="where the two checkouts go (default: a temporary directory)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    work = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        roots = {"before": work / "bA", "after": work / "bB"}
        commits = {side: checkout(tree, roots[side]) for side, tree in (("before", args.parent),
                                                                          ("after", args.change))}
        runs, env = {"before": [], "after": []}, None
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                run = one_run(roots[side], args.workload, seed, args.seconds)
                env = run["env"]
                runs[side].append({"seed": seed, "first": side == order[0],
                                   "correct": run["result"]["correct"], "failed": run["result"]["failed"],
                                   "attempted": run["result"]["attempted"],
                                   **{m: run["result"]["metrics"][m]["value"] for m in METRICS},
                                   "tasks": run["tasks"]})
            print(f"pair {i} seed {seed}: wall_s before {runs['before'][-1]['wall_s']:.4g}"
                  f" after {runs['after'][-1]['wall_s']:.4g}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wins = {m: sum(a[m] < b[m] for a, b in zip(runs["after"], runs["before"])) for m in METRICS}
    entry = {"seeds": [args.seed + i for i in range(args.pairs)], "pairs": args.pairs,
             "before": summary(runs["before"]), "after": summary(runs["after"]), "after_wins": wins}
    bench = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    bench.update({
        "before_commit": commits["before"],
        "after_commit": commits["after"],
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> --seconds {args.seconds}",
        "protocol": (f"{args.pairs} pairs per workload, seed {args.seed} + pair index; each pair runs the before "
                     "tree and the change, each in a sibling directory whose path has the same length (bA and bB), "
                     "alternating which side runs first (the before side on even pair indices); each run is one "
                     "call of the checkout's perfbench run.main in a fresh interpreter with OPENBLAS_NUM_THREADS=1, "
                     "which also records each task's median scaled wall time; medians over the runs of the value "
                     "its last stdout line reports; quartiles are statistics.quantiles(method='inclusive'); "
                     "after_wins counts pairs where the change reads lower"),
        "threads": 1,
        "env": {k: env[k] for k in ("python", "numpy", "threads", "nproc")},
    })
    bench.setdefault("claim", "")
    bench.setdefault("notes", [])
    bench.setdefault("workloads", {})[args.workload] = entry
    text = json.dumps(bench, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)

    for m in METRICS:
        b, a = entry["before"]["median"][m], entry["after"]["median"][m]
        q1, q3 = entry["before"]["quartiles"][m]
        print(f"{args.workload} {m}: {b:.4g} -> {a:.4g} ({100 * (a - b) / b:+.1f}%), lower in {wins[m]} of "
              f"{args.pairs}; before IQR {q3 - q1:.3g}", file=sys.stderr)
    for name, b in entry["before"]["task_median"].items():
        a = entry["after"]["task_median"][name]
        print(f"  {name:44s} {1e3 * b:9.2f} -> {1e3 * a:9.2f} ms", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
