"""Write per-start reference values of the minimal output entropy on channels
outside the projective class to tests/data/offclass_seed4242_starts16.json.

The values come from the tree of commit 814fef4, whose entropy search ran the
Armijo descent at every alpha, before the majorize-minimize fixed point took
over below alpha = 1; at alpha = inf the plain fixed-point step then took
the starts whose top output eigenvalue was degenerate or whose descent
stalled. The script extracts that tree with `git archive` into a
temporary directory and runs itself there as a child process, with that
tree's projchan and this checkout's tests/conftest.py (which builds the
channels) on the path. Run from the repository root:

    python scripts/offclass_references.py
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "data" / "offclass_seed4242_starts16.json"
COMMIT = "814fef4"
LABELS = ("casimir:d=4", "4,4,3,0", "4,4,3,1", "4,4,3,2", "4,4,3,3", "3,3,2,0", "3,3,2,1", "3,3,2,2",
          "3,3,2,3")
ALPHAS = ("0.5", "0.75", "1", "2", "5", "inf")
STARTS, SEED = 16, 4242


def child() -> None:
    """Print the reference table as JSON, from the projchan on sys.path."""
    import numpy as np
    from conftest import offclass_channel
    from projchan import entropy

    cfg = entropy.OptConfig(starts=STARTS, seed=SEED)
    values = {label: {a: entropy.min_output_entropy(offclass_channel(label), float(a), cfg).per_start_values
                      for a in ALPHAS} for label in LABELS}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "source": f"per-start values of the Armijo descent of commit {COMMIT}, written by "
                  f"scripts/offclass_references.py (numpy {np.__version__}, {blas['name']} {blas['version']})",
        "starts": STARTS,
        "seed": SEED,
        "labels": "a zoo spec, or d_in,d_out,k,seed of random_channel in tests/conftest.py",
        "min_output_entropy": values,
    }, indent=2))


def main() -> int:
    archive = subprocess.run(["git", "archive", COMMIT], cwd=ROOT, check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tree, filter="data")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(pathlib.Path(tree) / "src"), str(ROOT / "tests")]))
        command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--child"]
        out = subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout
    OUT.write_text(out)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
