"""Command-line front door.

Subcommands: build, analyze, scan, obstruct, enumerate, identity-span.
Text output is the default; ``--format json`` emits exactly one JSON document
on stdout with diagnostics kept on stderr.  Exit codes: 0 for success
(mathematical verdicts such as an excluded target are results, not errors),
1 for usage errors, 2 for input or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .algebra import StructureAlgebra, _dumps
from .analysis import block_profile, enumerate_semisimple_types, identity_ideal, identity_span, radical
from .linalg import parse_scalar

# deformation, obstruction and presentation are imported by the handlers that
# use them, so that ``analyze`` starts without loading them.


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class InputError(Exception):
    """File, format, or mathematical-validation problem in the inputs."""


@functools.lru_cache(maxsize=None)  # built once: each new parser is cyclic garbage
def _build_parser() -> _Parser:
    parser = _Parser(prog="algdeform", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if out:
            p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("build", help="build an algebra from a presentation file")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    common(p, out=True)

    p = sub.add_parser("analyze", help="radical, semisimplicity, and block profile")
    p.add_argument("--input", type=Path, required=True)
    common(p)

    p = sub.add_parser("scan", help="specialize a family along a shrinking schedule")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--base", default="1/2")
    p.add_argument("--count", type=int, default=12)
    common(p)

    p = sub.add_parser("obstruct", help="filter admissible semisimple deformation targets")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument(
        "--generators",
        default="x,y",
        help="two generator names 'x,y', or two coordinate vectors 'c,...;c,...'",
    )
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("enumerate", help="all semisimple block profiles of a dimension")
    p.add_argument("n", type=int)
    common(p)

    p = sub.add_parser("identity-span", help="standard-identity span and ideal dimensions")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)

    return parser


def _emit(args, document: dict, text_lines):
    if args.format == "json":
        sys.stdout.write(_dumps(document) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _build(path: Path, max_degree=None, data=None):
    """Build the algebra of a presentation file, or of its parsed ``data``."""
    from .presentation import Presentation, PresentationError, _read_presentation, build

    try:
        if data is None:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        *fields, degree = _read_presentation(data)
        pres = Presentation(*fields, degree if max_degree is None else max_degree)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise InputError(f"cannot read presentation {path}: {err}") from err
    try:
        return build(pres)
    except PresentationError as err:
        raise InputError(f"build failed: {type(err).__name__}: {err}") from err


def _load_algebra(path: Path, data=None) -> StructureAlgebra:
    """Read and validate an algebra file, or its parsed ``data``."""
    try:
        alg = StructureAlgebra.load(path) if data is None else StructureAlgebra.from_json_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise InputError(f"cannot read algebra {path}: {err}") from err
    report = alg.validate()
    if not report.ok:
        raise InputError(f"algebra file {path} is not a valid algebra: {report.summary()}")
    return alg


def cmd_build(args) -> int:
    result = _build(args.input, args.max_degree)
    out_path = args.out or args.input.with_suffix(".algebra.json")
    result.algebra.save(out_path)
    basis = [lbl for lbl in result.algebra.labels]
    document = {
        "dim": result.algebra.dim,
        "basis": basis,
        "accepted_degree": result.degree,
        "valid": True,
        "written": str(out_path),
    }
    lines = [
        f"dim: {result.algebra.dim}",
        f"basis: {', '.join(basis)}",
        f"accepted degree: {result.degree}",
        "validation: ok",
        f"written: {out_path}",
    ]
    _emit(args, document, lines)
    return 0


def cmd_analyze(args) -> int:
    alg = _load_algebra(args.input)
    rad = radical(alg)
    profile = block_profile(alg, rad)
    semisimple = rad.dim == 0
    document = {
        "dim": alg.dim,
        "radical_dim": rad.dim,
        "semisimple": semisimple,
        "profile": profile.to_json_dict(),
        "filtration_dims": list(profile.filtration_dims),
    }
    scope = "" if semisimple else " (of the semisimplification)"
    lines = [
        f"dim: {alg.dim}",
        f"radical dim: {rad.dim}",
        f"semisimple: {'yes' if semisimple else 'no'}",
        f"profile{scope}: {profile}",
        f"filtration dims: {', '.join(str(d) for d in profile.filtration_dims)}",
    ]
    _emit(args, document, lines)
    return 0


def cmd_scan(args) -> int:
    from .deformation import load_family, scan
    from .presentation import PresentationError

    try:
        family = load_family(args.input)
    except (OSError, ValueError, KeyError, TypeError, PresentationError) as err:
        raise InputError(f"cannot read family {args.input}: {err}") from err
    try:
        base = parse_scalar(args.base)
        result = scan(family, base, args.count)
    except ValueError as err:
        raise InputError(str(err)) from err
    document = result.to_json_dict()
    lines = ["k  s            dim  ss   rad  profile"]
    for row in result.samples:
        if row.error:
            lines.append(f"{row.index:<2} {str(row.s):<12} error: {row.error}")
        else:
            lines.append(
                f"{row.index:<2} {str(row.s):<12} {row.dim:<4} "
                f"{'yes' if row.semisimple else 'no':<4} {row.radical_dim:<4} {row.profile}"
            )
    lines.append(f"verdict: {result.verdict}")
    _emit(args, document, lines)
    return 0


def _resolve_generators(args, selector: str):
    path = args.input
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        raise InputError(f"cannot read {path}: {err}") from err
    if ";" in selector:
        alg = _load_algebra(path, data)
        parts = selector.split(";")
        if len(parts) != 2:
            raise InputError("need exactly two coordinate vectors separated by ';'")
        elements = []
        for part in parts:
            try:
                coords = [parse_scalar(c) for c in part.split(",")]
            except ValueError as err:
                raise InputError(f"bad coordinate vector {part!r}: {err}") from err
            if len(coords) != alg.dim:
                raise InputError("coordinate vector length does not match the algebra")
            elements.append(alg.element(coords))
        return alg, elements[0], elements[1]
    names = [s.strip() for s in selector.split(",")]
    if len(names) != 2:
        raise InputError("need exactly two generator names, e.g. --generators x,y")
    if isinstance(data, dict) and "generators" in data:
        result = _build(path, args.max_degree, data)
        alg, offered, what = result.algebra, result.generators, "generator"
        element = result.generator_element
    else:
        alg = _load_algebra(path, data)
        offered, what = alg.labels, "label"
        element = lambda name: alg.basis_element(offered.index(name))  # noqa: E731
    for name in names:
        if name not in offered:
            raise InputError(
                f"no {what} {name!r} in {path}; its {what}s are {', '.join(map(str, offered))}"
            )
    return alg, element(names[0]), element(names[1])


def cmd_obstruct(args) -> int:
    from .obstruction import admissible_targets

    if args.trials < 0:
        raise InputError("--trials must be nonnegative")
    alg, gx, gy = _resolve_generators(args, args.generators)
    try:
        report = admissible_targets(alg, gx, gy, trials=args.trials, seed=args.seed)
    except ValueError as err:  # NotGeneratingError, or the dimension cap
        raise InputError(str(err)) from err
    document = report.to_json_dict()
    lines = [
        f"dim_in_N: {report.dim_in_algebra}",
        "profile        bound  sampled  status",
    ]
    for row in report.rows:
        lines.append(
            f"{str(row.profile):<14} {row.bound:<6} {row.sampled!s:<8} {row.status}"
        )
    _emit(args, document, lines)
    return 0


def cmd_enumerate(args) -> int:
    try:
        profiles = enumerate_semisimple_types(args.n)
    except ValueError as err:
        raise InputError(str(err)) from err
    document = {
        "n": args.n,
        "profiles": [p.to_json_dict() for p in profiles],
    }
    lines = [str(p) for p in profiles]
    _emit(args, document, lines)
    return 0


def cmd_identity_span(args) -> int:
    alg = _load_algebra(args.input)
    if args.m < 0:
        raise InputError("m must be nonnegative")
    try:
        span = identity_span(alg, args.m)
        ideal = identity_ideal(alg, args.m)
    except ValueError as err:  # the work cap
        raise InputError(str(err)) from err
    document = {
        "dim": alg.dim,
        "m": args.m,
        "span_dim": span.dim,
        "ideal_dim": ideal.dim,
    }
    lines = [
        f"dim: {alg.dim}",
        f"m: {args.m}",
        f"span dim: {span.dim}",
        f"ideal dim: {ideal.dim}",
    ]
    _emit(args, document, lines)
    return 0


_COMMANDS = {
    "build": cmd_build,
    "analyze": cmd_analyze,
    "scan": cmd_scan,
    "obstruct": cmd_obstruct,
    "enumerate": cmd_enumerate,
    "identity-span": cmd_identity_span,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 1
    try:
        return _COMMANDS[args.command](args)
    except InputError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
