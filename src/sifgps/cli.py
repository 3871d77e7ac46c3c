"""Command line front end: decode, info, eval, check."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy import sparse

from .checker import run_checks
from .errors import ErrorLog, SifError, UnknownAction
from .evaluator import ACTIONS, Evaluator
from .expander import DecodeOptions, decode
from .jsonio import dump_text, dumps_canonical, load_text, matrix_out


def _parse_param(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}")
    name, _, raw = text.partition("=")
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return (name.strip(), value)


def _finite(vector: np.ndarray, label: str) -> np.ndarray:
    if not np.isfinite(vector).all():
        raise SifError(f"{label} has a non-finite entry")
    return vector


def _parse_vector(text: str, label: str) -> np.ndarray:
    try:
        vector = np.array([float(part) for part in text.split(",") if part.strip()])
    except ValueError as exc:
        raise SifError(f"bad vector {text!r}: {exc}") from None
    return _finite(vector, label)


def _parse_indices(text: str) -> np.ndarray:
    try:
        return np.array([int(part) for part in text.split(",") if part.strip()],
                        dtype=np.int64)
    except ValueError as exc:
        raise SifError(f"bad index list {text!r}: {exc}") from None


def _read_vector_file(path: str) -> np.ndarray:
    try:
        vector = np.array([float(part) for part in Path(path).read_text().split()])
    except ValueError as exc:
        raise SifError(f"bad vector file {path!r}: {exc}") from None
    return _finite(vector, "--x-file")


def _options_from_args(args) -> DecodeOptions:
    return DecodeOptions(
        keepcorder=args.keep_corder,
        keepcformat=args.keep_cformat,
        expose_xscale=args.expose_xscale,
        addin_a=not args.no_addin_a,
    )


def _add_decode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--keep-corder", action="store_true",
                        help="keep constraints in file order")
    parser.add_argument("--keep-cformat", action="store_true",
                        help="report constraint types and ranges instead of bounds")
    parser.add_argument("--expose-xscale", action="store_true",
                        help="return variable scalings instead of folding them in")
    parser.add_argument("--no-addin-a", action="store_true",
                        help="overwrite repeated linear coefficients instead of summing")
    parser.add_argument("--param", action="append", type=_parse_param, default=[],
                        metavar="NAME=VALUE",
                        help="value for one $-PARAMETER, in file order (repeatable)")


def _load_input(path: str, args) -> tuple:
    """Accept either a canonical dump or a SIF file.

    SIF input is decoded on the fly, which is the only way --param overrides
    can still take effect.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        if getattr(args, "param", None):
            raise SifError("--param needs SIF input; a dump has its parameters "
                           "baked in")
        return load_text(text)
    options = _options_from_args(args) if hasattr(args, "keep_corder") \
        else DecodeOptions()
    problem, internals = decode(text, getattr(args, "param", []), options)
    provenance = {"source": Path(path).name, "options": options.as_dict(),
                  "user_params": [[n, v] for n, v in getattr(args, "param", [])]}
    return problem, internals, provenance


# -- subcommands ----------------------------------------------------------------


def cmd_decode(args) -> int:
    text = Path(args.input).read_text()
    options = _options_from_args(args)
    log = ErrorLog()
    problem, internals = decode(text, args.param, options, errors=log)
    if len(log):
        for error in log:
            print(error.describe(), file=sys.stderr)
        return len(log)
    provenance = {"source": Path(args.input).name, "options": options.as_dict(),
                  "user_params": [[n, v] for n, v in args.param]}
    out = Path(args.out) if args.out else Path(f"{problem.name}.json")
    out.write_text(dump_text(problem, internals, provenance))
    print(f"wrote {out}")
    return 0


def cmd_info(args) -> int:
    problem, internals, provenance = _load_input(args.input, args)
    lines = [
        f"problem        {problem.name}",
        f"sif name       {problem.sif_name or problem.name}",
        f"classification {problem.pbclass or '-'}",
        f"variables      {problem.n} (types {problem.xtype})",
        f"objective grps {problem.nob}",
        f"constraints    {problem.m} "
        f"(<= {problem.nle}, == {problem.neq}, >= {problem.nge})",
        f"linear constraints {problem.lincons.tolist()}",
        f"elements       {len(internals.elftype)}",
        f"element types  {sorted(internals.element_types)}",
        f"group types    {sorted(internals.group_types)}",
        f"A nonzeros     {internals.A.nnz}",
        f"H nonzeros     {internals.H.nnz}",
        f"x0             {problem.x0.tolist()}",
        f"source         {provenance.get('source', '-')}",
    ]
    if problem.objlower is not None:
        lines.append(f"objective lower {problem.objlower}")
    if problem.objupper is not None:
        lines.append(f"objective upper {problem.objupper}")
    print("\n".join(lines))
    return 0


def _json_value(value, label: str):
    """value as JSON data; a non-finite entry is an error naming the result."""
    if isinstance(value, list):
        return [_json_value(item, label) for item in value]
    data = value.data if sparse.issparse(value) else np.asarray(value)
    if not np.isfinite(data).all():
        raise SifError(f"result {label} is not finite")
    return matrix_out(value) if sparse.issparse(value) else data.tolist()


def cmd_eval(args) -> int:
    problem, internals, _ = _load_input(args.input, args)
    name = args.action
    action = ACTIONS.get(name)
    if action is None:
        raise UnknownAction(f"unknown action {name!r}")

    if args.x is not None:
        x = _parse_vector(args.x, "--x")
    elif args.x_file is not None:
        x = _read_vector_file(args.x_file)
    else:
        raise SifError(f"action {name!r} needs a point: pass --x or --x-file")
    y = _parse_vector(args.y, "--y") if args.y is not None else None
    v = _parse_vector(args.v, "--v") if args.v is not None else None
    subset = _parse_indices(args.i) if args.i is not None else None
    if "y" in action.needs and y is None:
        raise SifError(f"action {name!r} needs multipliers: pass --y")
    if "v" in action.needs and v is None:
        raise SifError(f"action {name!r} needs a vector: pass --v")
    if "I" in action.needs and subset is None:
        raise SifError(f"action {name!r} needs a constraint subset: pass --i")

    outputs = action(Evaluator(problem, internals), x, y, v, subset)
    sys.stdout.write(dumps_canonical({key: _json_value(value, f"{key!r} of {name!r}")
                                      for key, value in outputs.items()}))
    return 0


def cmd_check(args) -> int:
    problem, internals, _ = _load_input(args.input, args)
    report = run_checks(problem, internals, trials=args.trials, seed=args.seed)
    for line in report.lines():
        print(line)
    print("OK" if report.ok else "FAILED")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sifgps",
        description="Decode SIF optimization test problems and evaluate them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode a SIF file to canonical JSON")
    p_decode.add_argument("input")
    p_decode.add_argument("--out", help="output path (default: <problem>.json)")
    _add_decode_flags(p_decode)
    p_decode.set_defaults(func=cmd_decode)

    p_info = sub.add_parser("info", help="summarize a decoded problem")
    p_info.add_argument("input", help="canonical JSON dump or SIF file")
    _add_decode_flags(p_info)
    p_info.set_defaults(func=cmd_info)

    p_eval = sub.add_parser("eval", help="evaluate one action at a point")
    p_eval.add_argument("input", help="canonical JSON dump or SIF file")
    p_eval.add_argument("action")
    p_eval.add_argument("--x", help="comma-separated point")
    p_eval.add_argument("--x-file", help="file with one coordinate per line")
    p_eval.add_argument("--y", help="comma-separated multipliers")
    p_eval.add_argument("--v", help="comma-separated vector for products")
    p_eval.add_argument("--i", help="comma-separated constraint subset")
    _add_decode_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run derivative and identity checks")
    p_check.add_argument("input", help="canonical JSON dump or SIF file")
    p_check.add_argument("--trials", type=int, default=10,
                         help="random points beyond x0 (default 10)")
    p_check.add_argument("--seed", type=int, default=0)
    _add_decode_flags(p_check)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SifError as error:
        print(error.describe(), file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
