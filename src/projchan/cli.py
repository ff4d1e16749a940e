"""Command-line front end.

Exit codes: 0 success, 2 validation failure, 1 internal error, 64 usage.
Reports are deterministic JSON (sorted keys, 17 significant digits) or CSV
via --format csv; wall time goes to stderr so repeated runs with the same
arguments are byte-identical on stdout.
"""

from __future__ import annotations

import os

# Honor the worker cap before numpy spins up its thread pools.
_threads = os.environ.get("PROJCHAN_THREADS")
if _threads:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, _threads)

import argparse
import functools
import itertools
import math
import sys
import time

GRAMMAR = """\
projchan <subcommand> [options]

subcommands:
  validate     --spec SPEC | --file chan.json
  zoo          --spec SPEC [--out FILE]
  minent       --spec SPEC | --file F   --alpha A
  norm         --spec SPEC | --file F
  characterize --spec SPEC [--alphas LIST]
  additivity   --spec SPEC [--spec SPEC ...] --alpha A [--check-lemma3 COUNT]
  capacity     --spec SPEC --group auto
  covariance   --spec SPEC --group auto
  eof          --state example9|FILE.json [--k K]
  dilate       --spec SPEC [--out FILE]

channel specs:
  wh:d=3   stretch:d=3,lambda=0.5   weyl:d=4   pinch:d=3,blocks=2+1
  casimir:d=3   casimir-reducible   shiftpinch:d=4,K=1,2   coarse:n=2,D=2
  diag:file=PATH   diag:d=2

global flags: --seed N (12648430)  --starts N (64)  --tol X (1e-9)
              --format json|csv  --out FILE
alpha accepts any nonnegative float or 'inf'.
"""


# The maps M of `additivity --check-lemma3`, each that of a zoo family.
LEMMA3_MAPS = {"transpose3": "wh:d=3", "weylM3": "weyl:d=3", "pinchM3": "pinch:d=3,blocks=2+1",
               "coarseM22": "coarse:n=2,D=2"}


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_alpha(text: str) -> float:
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"bad alpha {text!r}") from exc


@functools.cache  # built on first use, once per process; parse_args keeps no state in it
def build_parser() -> Parser:
    p = Parser(prog="projchan", add_help=True)
    sub = p.add_subparsers(dest="command")

    def common(sp, spec=True, multi_spec=False, file_opt=False):
        if multi_spec:
            sp.add_argument("--spec", action="append", default=[])
        elif spec:
            sp.add_argument("--spec")
        if file_opt:
            sp.add_argument("--file")
        sp.add_argument("--seed", type=int, default=12648430)
        sp.add_argument("--starts", type=int, default=64)
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out")

    sp = sub.add_parser("validate", add_help=False)
    common(sp, file_opt=True)
    sp = sub.add_parser("zoo", add_help=False)
    common(sp)
    sp = sub.add_parser("minent", add_help=False)
    common(sp, file_opt=True)
    sp.add_argument("--alpha", default="1")
    sp = sub.add_parser("norm", add_help=False)
    common(sp, file_opt=True)
    sp = sub.add_parser("characterize", add_help=False)
    common(sp)
    sp.add_argument("--alphas", default="0,0.5,1,2,inf")
    sp = sub.add_parser("additivity", add_help=False)
    common(sp, multi_spec=True)
    sp.add_argument("--alpha", default="2")
    sp.add_argument("--check-lemma3", type=int, default=0, dest="check_lemma3")
    sp = sub.add_parser("capacity", add_help=False)
    common(sp)
    sp.add_argument("--group", default="auto")
    sp = sub.add_parser("covariance", add_help=False)
    common(sp)
    sp.add_argument("--group", default="auto")
    sp = sub.add_parser("eof", add_help=False)
    common(sp, spec=False)
    sp.add_argument("--state", required=True)
    sp.add_argument("--k", type=int, default=0)
    sp = sub.add_parser("dilate", add_help=False)
    common(sp)
    return p


def _load_channel_arg(args, zoo):
    """(T, spec, form) from --file or --spec; spec and form are None for a file."""
    if getattr(args, "file", None):
        return load_channel(args.file), None, None
    if not args.spec:
        raise UsageError("need --spec or --file" if hasattr(args, "file") else "need --spec")
    spec = zoo.parse_spec(args.spec)
    T, form = zoo.build(spec)
    return T, spec, form


def load_channel(path: str):
    """Parse and validate a channel JSON file."""
    from . import channels as ch

    return ch.channel_from_json(ch.read_json(path))


def _opt_config(args, entropy):
    # --tol bounds the optimizer's improvement threshold from above; the
    # module default 1e-12 applies unless a tighter value is requested. The
    # eof search reads --tol the same way.
    return entropy.OptConfig(starts=args.starts, seed=args.seed,
                             tol=min(args.tol, 1e-12))


def run(argv) -> int:
    from . import channels as ch
    from . import additivity as addmod
    from . import capacity as capmod
    from . import entropy
    from . import eof as eofmod
    from . import reporting
    from . import zoo
    from .errors import SpecInvalid

    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        raise UsageError("missing subcommand")
    if args.seed < 0:
        raise SpecInvalid(f"--seed must be a non-negative integer, got {args.seed}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise SpecInvalid(f"--tol must be finite and non-negative, got {args.tol!r}")

    raw_spec = getattr(args, "spec", None)
    if args.command == "additivity":
        specs = list(raw_spec or [])
    else:
        specs = [raw_spec] if raw_spec else []
    manifest = reporting.RunManifest(
        command=args.command,
        specs=specs,
        config={
            "seed": getattr(args, "seed", None),
            "starts": getattr(args, "starts", None),
            "tol": getattr(args, "tol", None),
        },
    )
    if hasattr(args, "alpha"):
        a = _parse_alpha(args.alpha)
        manifest.config["alpha"] = "inf" if math.isinf(a) else a

    t0 = time.monotonic()
    report: dict = {}
    exit_code = 0

    if args.command == "validate":
        T = _load_channel_arg(args, zoo)[0]
        vr = ch.validate(T)
        report = vr.to_dict()
        if not vr.valid:
            exit_code = 2

    elif args.command == "zoo":
        T, _, form = _load_channel_arg(args, zoo)
        report = ch.channel_to_json(T)
        report["name"] = T.name
        if form is not None:
            report["m"] = form.m

    elif args.command == "minent":
        T = _load_channel_arg(args, zoo)[0]
        alpha = _parse_alpha(args.alpha)
        rep = entropy.min_output_entropy(T, alpha, _opt_config(args, entropy))
        report = rep.to_dict()
        report["arg_state"] = ch.matrix_to_json(rep.arg_state.mat)

    elif args.command == "norm":
        T = _load_channel_arg(args, zoo)[0]
        rep = entropy.max_output_norm(T, _opt_config(args, entropy))
        report = rep.to_dict()
        report["arg_state"] = ch.matrix_to_json(rep.arg_state.mat)

    elif args.command == "characterize":
        T = _load_channel_arg(args, zoo)[0]
        grid = [_parse_alpha(a) for a in args.alphas.split(",") if a.strip()]
        rep = entropy.characterize(T, grid, _opt_config(args, entropy))
        report = rep.to_dict()

    elif args.command == "additivity":
        if not args.spec and not args.check_lemma3:
            raise UsageError("additivity needs --spec (repeatable) or --check-lemma3")
        if args.spec:
            built = {s: zoo.build(zoo.parse_spec(s))[0] for s in dict.fromkeys(args.spec)}
            alpha = _parse_alpha(args.alpha)
            rep = addmod.additivity_gap([built[s] for s in args.spec], alpha, _opt_config(args, entropy))
            report = rep.to_dict()
        if args.check_lemma3:
            maps = {name: zoo.build(zoo.parse_spec(spec))[1].M for name, spec in LEMMA3_MAPS.items()}
            pairs = list(itertools.combinations_with_replacement(maps, 2))
            excess = addmod.trace_square_suite([[maps[a], maps[b]] for a, b in pairs],
                                               args.check_lemma3, seed=args.seed)
            suite = {f"{a}|{b}": e for (a, b), e in zip(pairs, excess)}
            report["trace_square_max_excess"] = suite
            report["trace_square_violations"] = int(sum(v > 1e-9 for v in suite.values()))

    elif args.command in ("capacity", "covariance"):
        if args.group != "auto":
            raise UsageError(f"unsupported --group {args.group!r} (only 'auto')")
        T, spec, form = _load_channel_arg(args, zoo)
        rho0, group, conjugate = zoo.auto_group(spec, form)
        if args.command == "covariance":
            cov, avg = capmod.verify_weak_covariance(T, rho0, group, conjugate, seed=args.seed)
            report = {"covariance_residual": cov, "average_residual": avg}
        else:
            rep = capmod.capacity_weakcov(T, rho0, group, conjugate, _opt_config(args, entropy))
            report = rep.to_dict()

    elif args.command == "eof":
        if args.state == "example9":
            state = eofmod.example9_state()
        else:
            state = _load_state(args.state, ch, eofmod)
        cfg = eofmod.EofConfig(starts=args.starts, seed=args.seed, tol=min(args.tol, 1e-12),
                                k=args.k or None)
        rep = eofmod.eof_upper(state, cfg)
        report = rep.to_dict()

    elif args.command == "dilate":
        T = _load_channel_arg(args, zoo)[0]
        iso = ch.stinespring(T)
        report = {
            "dim_in": iso.dim_in,
            "dim_out": iso.dim_out,
            "env_dim": iso.env_dim,
            "mat": ch.matrix_to_json(iso.mat),
        }

    else:
        raise UsageError(f"unknown subcommand {args.command!r}")

    report["manifest"] = manifest.to_dict()
    text = reporting.to_json(report) if args.format == "json" else reporting.to_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"wall_time_s {time.monotonic() - t0:.3f}", file=sys.stderr)
    return exit_code


def _load_state(path: str, ch, eofmod):
    obj = ch.read_json(path)
    mat = ch.matrix_from_json(obj.get("mat"), field_name="mat")
    return eofmod.BipartiteState(ch.int_field(obj, "dimA", path), ch.int_field(obj, "dimB", path),
                                 ch.DensityMatrix(mat.shape[0], mat))


def main(argv=None) -> int:
    from .errors import ProjchanError

    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(GRAMMAR, file=sys.stderr)
        return 64
    except ProjchanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
