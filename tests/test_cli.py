import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from projchan import channels as ch
from projchan import cli, eof, zoo

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "validate_wh3.json": ["validate", "--spec", "wh:d=3"],
    "zoo_wh3.json": ["zoo", "--spec", "wh:d=3"],
    "minent_wh3_a1.json": ["minent", "--spec", "wh:d=3", "--alpha", "1", "--starts", "4"],
    "norm_wh3.json": ["norm", "--spec", "wh:d=3", "--starts", "4"],
    "characterize_wh3.json": ["characterize", "--spec", "wh:d=3", "--alphas", "0,1,2,inf", "--starts", "4"],
    "additivity_wh3_pair_a2.json": ["additivity", "--spec", "wh:d=3", "--spec", "wh:d=3",
                                    "--alpha", "2", "--starts", "4"],
    "capacity_weyl3.json": ["capacity", "--spec", "weyl:d=3", "--group", "auto", "--starts", "4"],
    "covariance_weyl3.json": ["covariance", "--spec", "weyl:d=3", "--group", "auto"],
    "eof_example9.json": ["eof", "--state", "example9", "--starts", "4"],
    "dilate_wh3.json": ["dilate", "--spec", "wh:d=3"],
    "minent_wh3_a1.csv": ["minent", "--spec", "wh:d=3", "--alpha", "1", "--starts", "4",
                          "--format", "csv"],
}


# Floats in a report may differ from the golden by last-ulp LAPACK/BLAS drift.
# Forcing other OpenBLAS kernels (OPENBLAS_CORETYPE=Haswell, Sandybridge,
# Nehalem) moved them by at most 1.5e-14 absolute; relative differences reach
# 2.4e-12 on small entries and exceed 1 on rounding noise near 1e-16, hence the
# absolute floor.
GOLDEN_REL_TOL = 1e-12
GOLDEN_ABS_TOL = 1e-12

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


class _Number:
    """A number kept as its literal text, so integer and float literals stay apart."""

    def __init__(self, text: str):
        self.text = text

    @property
    def is_int(self) -> bool:
        return not any(c in self.text for c in ".eE")


def _parse_report(text: str, csv: bool):
    if not csv:
        return json.loads(text, parse_int=_Number, parse_float=_Number)
    rows = (line.partition(",") for line in text.splitlines())
    return [[metric, _Number(value) if _NUMBER.fullmatch(value) else value]
            for metric, _, value in rows]


def _diff(got, want, path: str, out: list):
    if isinstance(got, dict) and isinstance(want, dict):
        if list(got) != list(want):
            out.append(f"{path}: keys {list(got)} != {list(want)}")
            return
        for key in want:
            _diff(got[key], want[key], f"{path}.{key}", out)
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{path}[{i}]", out)
    elif isinstance(got, _Number) and isinstance(want, _Number):
        g, w = got.text, want.text
        if not got.is_int and g != format(float(g), ".17g"):
            out.append(f"{path}: {g} is not printed with 17 significant digits")
        if got.is_int and want.is_int:
            if int(g) != int(w):
                out.append(f"{path}: integer {g} != {w}")
        elif not math.isclose(float(g), float(w), rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL):
            out.append(f"{path}: {g} != {w} beyond rel/abs {GOLDEN_REL_TOL:g}")
    elif type(got) is not type(want) or got != want:
        out.append(f"{path}: {got!r} != {want!r}")


def golden_mismatches(got: str, want: str, csv: bool = False) -> list:
    """Ways in which report text `got` differs from golden text `want`.

    Outside number literals the two texts must be byte-identical. Keys and
    their order, list lengths, strings (including "inf"), booleans, nulls,
    CSV metric names and integer literals must be equal. Other numbers must
    agree to GOLDEN_REL_TOL with an absolute floor of GOLDEN_ABS_TOL, and
    every float literal in `got` must be printed with 17 significant digits.
    """
    out = []
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        out.append("layout outside number literals differs")
    _diff(_parse_report(got, csv), _parse_report(want, csv), "$", out)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES), ids=lambda n: n.split(".")[0])
def test_golden(name, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(GOLDEN_CASES[name] + ["--out", str(first)]) == 0
    assert cli.main(GOLDEN_CASES[name] + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    want = (GOLDEN / name).read_text()
    assert golden_mismatches(first.read_text(), want, csv=name.endswith(".csv")) == []


_X = "0.7221554130856469"  # arg_state.re[2][2] in the minent_wh3_a1 goldens
_X_MOVED = format(float(_X) * (1 + 1e-9), ".17g")
_BREAKAGES = {
    "float_rel_1e-9": ("minent_wh3_a1.json", _X, _X_MOVED),
    "best_start": ("minent_wh3_a1.json", '"best_start": 0', '"best_start": 1'),
    "boolean": ("minent_wh3_a1.json", '"converged": true', '"converged": false'),
    "key_renamed": ("minent_wh3_a1.json", '"best_start"', '"best_starts"'),
    "short_float": ("minent_wh3_a1.json", _X, format(float(_X), ".15g")),
    "indentation": ("minent_wh3_a1.json", '\n  "best_start"', '\n   "best_start"'),
    "csv_float_rel_1e-9": ("minent_wh3_a1.csv", _X, _X_MOVED),
    "csv_boolean": ("minent_wh3_a1.csv", "converged,true", "converged,false"),
    "csv_metric_renamed": ("minent_wh3_a1.csv", "best_start,", "best_starts,"),
}


def _edit_golden(name: str, *edits) -> tuple:
    want = (GOLDEN / name).read_text()
    got = want
    for old, new in edits:
        assert got.count(old) == 1, old
        got = got.replace(old, new)
    return got, want


@pytest.mark.parametrize("case", sorted(_BREAKAGES))
def test_golden_comparison_rejects(case):
    name, old, new = _BREAKAGES[case]
    got, want = _edit_golden(name, (old, new))
    assert golden_mismatches(got, want, csv=name.endswith(".csv")) != []


def test_golden_comparison_accepts_cross_blas_drift():
    got, want = _edit_golden("capacity_weyl3.json")
    assert golden_mismatches(got, want) == []
    # The values OpenBLAS's SkylakeX kernels give for this golden's command.
    got, want = _edit_golden("capacity_weyl3.json",
                             ('"min_term": 0.99999999999999978', '"min_term": 1'),
                             ('"capacity": 0.5849625007211563', '"capacity": 0.58496250072115608'))
    assert golden_mismatches(got, want) == []


def test_repeat_run_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["minent", "--spec", "wh:d=4", "--alpha", "2", "--starts", "8"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_minent_value(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["minent", "--spec", "wh:d=3", "--alpha", "1", "--starts", "8",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["value"] - 1.0) < 1e-6
    assert rep["manifest"]["command"] == "minent"
    assert rep["manifest"]["config"]["alpha"] == 1.0
    assert rep["manifest"]["specs"] == ["wh:d=3"]


def test_capacity_casimir_reducible(tmp_path):
    out = tmp_path / "c.json"
    assert cli.main(["capacity", "--spec", "casimir-reducible", "--group", "auto",
                     "--starts", "8", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["capacity"] - 1.0) < 1e-4


def test_zoo_output_is_loadable_channel(tmp_path):
    out = tmp_path / "chan.json"
    assert cli.main(["zoo", "--spec", "wh:d=3", "--out", str(out)]) == 0
    T = cli.load_channel(str(out))
    ref, _ = zoo.build(zoo.WernerHolevo(3))
    for A, B in zip(T.kraus, ref.kraus):
        assert np.allclose(A, B, atol=1e-12)


def test_validate_file_non_tp_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "kraus": [{"re": [[0.9, 0.0], [0.0, 0.9]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
    }))
    assert cli.main(["validate", "--file", str(bad)]) == 2


def test_load_channel_missing_im_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]]}]}))
    assert cli.main(["minent", "--file", str(bad), "--alpha", "1"]) == 2


def test_load_channel_wrong_dims_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 3,
        "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
    }))
    assert cli.main(["validate", "--file", str(bad)]) == 2


_KRAUS_ID2 = [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]
_MALFORMED = {
    "channel_dim_not_a_number": (json.dumps({"dim": "abc", "kraus": _KRAUS_ID2}),
                                 ["validate", "--file", "{path}"]),
    "channel_file_not_utf8": (b"\xff", ["validate", "--file", "{path}"]),
    "spec_d_not_a_number": (None, ["validate", "--spec", "wh:d=abc"]),
    "spec_block_not_a_number": (None, ["validate", "--spec", "pinch:d=3,blocks=2+x"]),
    "spec_K_not_a_number": (None, ["validate", "--spec", "shiftpinch:d=4,K=1,y"]),
    "diag_diagonals_not_a_list": (json.dumps({"dim": 2, "diagonals": 5}),
                                  ["validate", "--spec", "diag:file={path}"]),
    "diag_file_not_an_object": ("5", ["validate", "--spec", "diag:file={path}"]),
    "diag_entries_not_numbers": (json.dumps({"dim": 2, "diagonals": [{"re": ["a", 0], "im": [0, 0]}]}),
                                 ["validate", "--spec", "diag:file={path}"]),
    "state_dim_not_a_number": (json.dumps({"dimA": "two", "dimB": 1, "mat": _KRAUS_ID2[0]}),
                               ["eof", "--state", "{path}", "--starts", "1"]),
    "spec_weyl_d0": (None, ["validate", "--spec", "weyl:d=0"]),
    "spec_weyl_d1": (None, ["validate", "--spec", "weyl:d=1"]),
    "spec_stretch_d1": (None, ["validate", "--spec", "stretch:d=1,lambda=0.5"]),
    "spec_pinch_d1": (None, ["validate", "--spec", "pinch:d=1,blocks=1"]),
    "minent_no_starts": (None, ["minent", "--spec", "wh:d=3", "--starts", "0"]),
    "eof_k_negative": (None, ["eof", "--state", "example9", "--k", "-1", "--starts", "1"]),
    "eof_k_below_rank": (None, ["eof", "--state", "example9", "--k", "2", "--starts", "1"]),
    "eof_k_oversize": (None, ["eof", "--state", "example9", "--k", "1048577", "--starts", "1"]),
    "spec_wh_oversize": (None, ["validate", "--spec", "wh:d=100000"]),
    "spec_weyl_oversize": (None, ["validate", "--spec", "weyl:d=100"]),
    "product_oversize": (None, ["additivity", "--spec", "weyl:d=8", "--spec", "weyl:d=8", "--starts", "1"]),
    "spec_pinch_oversize": (None, ["validate", "--spec", "pinch:d=100000,blocks=50000+50000"]),
    "spec_diag_oversize": (None, ["validate", "--spec", "diag:d=100000"]),
    "lemma3_negative_count": (None, ["additivity", "--check-lemma3", "-5"]),
    "state_nan_entry": (json.dumps({"dimA": 1, "dimB": 2, "mat": {"re": [[math.nan, 0], [0, 0.5]],
                                                                  "im": [[0, 0], [0, 0]]}}),
                        ["eof", "--state", "{path}", "--starts", "1"]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exit2(case, tmp_path):
    content, argv = _MALFORMED[case]
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert cli.main([a.replace("{path}", str(path)) for a in argv]) == 2


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "projchan", "validate", "--spec", "wh:d=3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["flags"] == {"completely_positive": True, "trace_preserving": True}


def test_consecutive_calls_share_no_parsed_state(tmp_path):
    # the parser is built once per process; each call still starts from the
    # defaults, and an appended --spec list does not carry over
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert cli.main(["additivity", "--spec", "wh:d=3", "--spec", "wh:d=3", "--alpha", "1",
                     "--starts", "1", "--seed", "5", "--out", str(first)]) == 0
    assert cli.main(["additivity", "--check-lemma3", "5", "--out", str(second)]) == 0
    assert cli.build_parser() is cli.build_parser()
    one, two = (json.loads(p.read_text())["manifest"] for p in (first, second))
    assert one["specs"] == ["wh:d=3", "wh:d=3"] and one["config"]["seed"] == 5
    assert two["specs"] == []
    assert two["config"] == {"alpha": 2.0, "seed": 12648430, "starts": 64, "tol": 1e-9}


def test_usage_errors_exit64():
    assert cli.main([]) == 64
    assert cli.main(["minent"]) == 64  # no spec/file
    assert cli.main(["capacity", "--spec", "wh:d=3", "--group", "bogus"]) == 64


def test_eof_state_file(tmp_path):
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({
        "dimA": 2, "dimB": 2,
        "mat": {"re": bell.tolist(), "im": np.zeros((4, 4)).tolist()},
    }))
    out = tmp_path / "r.json"
    assert cli.main(["eof", "--state", str(path), "--starts", "4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["value"] - 1.0) < 1e-9


@pytest.mark.parametrize("tol, want", [(None, 1e-12), (1e-14, 1e-14), (1e-6, 1e-12)])
def test_eof_tol_reaches_the_search(tmp_path, monkeypatch, tol, want):
    seen = []
    original = eof.eof_upper

    def recording(state, cfg):
        seen.append(cfg.tol)
        return original(state, cfg)

    monkeypatch.setattr(eof, "eof_upper", recording)
    argv = ["eof", "--state", "example9", "--starts", "1", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv + ([] if tol is None else ["--tol", str(tol)])) == 0
    assert seen == [want]


def test_dilate_isometry(tmp_path):
    out = tmp_path / "u.json"
    assert cli.main(["dilate", "--spec", "wh:d=3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["env_dim"] == 3
    U = ch.matrix_from_json(rep["mat"])
    assert np.allclose(U.conj().T @ U, np.eye(3), atol=1e-12)


def test_additivity_check_lemma3(tmp_path):
    out = tmp_path / "l3.json"
    assert cli.main(["additivity", "--check-lemma3", "50", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["trace_square_violations"] == 0
    assert len(rep["trace_square_max_excess"]) == 10  # all pairs from the four maps


def _golden_snapshot() -> dict:
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in GOLDEN.iterdir()}


def _load_generate_goldens():
    import importlib.util

    path = pathlib.Path(__file__).parents[1] / "scripts" / "generate_goldens.py"
    spec = importlib.util.spec_from_file_location("generate_goldens", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("names", [["no_such_golden.json"], ["validate_wh3.json", "validate_wh3"]])
def test_generate_goldens_refuses_unknown_name(names, capsys):
    script = _load_generate_goldens()
    before = _golden_snapshot()
    assert script.main(names) == 1
    assert _golden_snapshot() == before
    assert f"unknown golden {names[-1]}" in capsys.readouterr().err


def test_generate_goldens_writes_only_the_named_golden(tmp_path, monkeypatch):
    script = _load_generate_goldens()
    monkeypatch.setattr(script, "GOLDEN", tmp_path)
    assert script.main(["validate_wh3.json"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["validate_wh3.json"]
    assert golden_mismatches((tmp_path / "validate_wh3.json").read_text(),
                             (GOLDEN / "validate_wh3.json").read_text()) == []
