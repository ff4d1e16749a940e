"""Regenerate the CLI golden outputs under tests/golden/.

Run from the repository root only after an intentional report-format
change, or after a program fix shown to be right:
    python scripts/generate_goldens.py

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


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        out = GOLDEN / name
        code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            print(f"FAILED ({code}): {name}", file=sys.stderr)
            return 1
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
