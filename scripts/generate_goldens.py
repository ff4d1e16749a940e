"""Regenerate the CLI golden outputs under tests/golden/.

Run from the repository root only after an intentional report-format
change, or after a program fix shown to be right:
    python scripts/generate_goldens.py                       # every golden
    python scripts/generate_goldens.py capacity_weyl3.json   # only the named ones

Name only the goldens the change is meant to move, so that the others keep
their committed bytes. An unknown name exits 1 before anything is written.

Never run it to absorb last-ulp float drift from another BLAS build.
tests/test_cli.py::test_golden already lets floats differ by a relative
1e-12 with an absolute floor of 1e-12. A larger difference is a change in
the program's answers: it needs a fix or an explanation, not a new golden.
"""

from __future__ import annotations

import pathlib
import sys

from projchan import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

sys.path.insert(0, str(ROOT / "tests"))
from test_cli import GOLDEN_CASES  # noqa: E402  (the one table test_golden checks)


def main(names=None) -> int:
    names = list(sys.argv[1:] if names is None else names)
    unknown = [n for n in names if n not in GOLDEN_CASES]
    if unknown:
        print(f"unknown golden {', '.join(unknown)}; known: {', '.join(GOLDEN_CASES)}", file=sys.stderr)
        return 1
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in names or GOLDEN_CASES:
        out = GOLDEN / name
        code = cli.main(GOLDEN_CASES[name] + ["--out", str(out)])
        if code != 0:
            print(f"FAILED ({code}): {name}", file=sys.stderr)
            return 1
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
