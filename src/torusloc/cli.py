"""Command-line front end.

Subcommands:

    pair    exact pairing of a class against a plan or transverse path
    volume  symplectic volume, torus or full-group, as "c * (2pi)^m"
    walls   wall values of a model along a circle direction
    plan    emit a plan file for a path or a built-in recipe
    ring    cohomology ring relation of a weighted sphere quotient
    segre   weighted Segre pieces of a circle representation

Models are "spheres:N", "cp2:N", or a path to a JSON model file.  A
built-in family is evaluated on its orbit model; walls, plan, a --plan
file and a v<i> class on a sphere product name every point and use the
per-point model, after a recipe has been checked on the orbit model.
Exit codes: 0 on success, 2 on usage errors, 3 on domain errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import factorial

from .errors import TorusLocError, UnknownFixedPoint, Unsupported
from .expr import MAX_POWER, evaluate_expr, names_factor_class, parse_class_expr
from .localization import dump_plan, evaluate_plan, load_plan, volume_class
from .model import TorusModel, build_cp_product, build_sphere_product, check_family_size, expand_orbits
from .model import load_model
from .plans import CP2_VARIANTS, cp2_plan, rank1_plan, wall_list
from .poly import MultiPoly, join_terms, poly_str
from .weighted import WeightedSpace, ring_relation, weighted_segre

USAGE_ERROR = 2
DOMAIN_ERROR = 3


# family name -> (vertices of the factor, orbit-model builder)
FAMILIES = {"spheres": (2, build_sphere_product), "cp2": (3, lambda n: build_cp_product(3, n))}


def read_number(text: str, what: str, kind: type = int, signed: bool = True):
    """The int, or with kind=Fraction the rational, that command-line text
    writes; what names the option and part, as "--xi '1,x': each entry".
    int() and Fraction() also take whitespace, '_' and digits other than
    0-9; those, a sign unless signed, and text kind cannot read raise
    ValueError naming what, and a number too long for int() its digit count."""
    if text.isascii() and "_" not in text and text.split() == [text] and (signed or text.isdigit()):
        try:
            return kind(text)
        except ZeroDivisionError:
            raise ValueError(f"{what} has a zero denominator") from None
        except ValueError:
            digits = text[1:] if text[0] in "+-" else text
            if digits.isdigit():  # well formed, so too long for int(); left out of the message
                what = what.replace(text, "...")
                raise ValueError(f"{what} has {len(digits)} digits, too many to read") from None
    raise ValueError(f"{what} must be written in the digits 0-9")


def resolve_model(spec: str, per_point: bool = False) -> TorusModel:
    """The model a --model spec names: a built-in family's orbit model, or a
    loaded model file; with per_point, a family above the per-point limit
    is refused before a point is built."""
    name, colon, size = spec.partition(":")
    if not (colon and name in FAMILIES):
        return load_model(spec)
    k, build = FAMILIES[name]
    n = read_number(size, f"--model {spec!r}: the size", signed=False)
    if per_point:
        check_family_size(name, k, n)
    return build(n)


def parse_path(text: str) -> tuple[Fraction, int]:
    head, _, tail = text.rpartition(":")
    if not head or tail not in ("+", "-", "+1", "-1"):
        raise ValueError(f"path must look like 'p0:+' or 'p0:-', got {text!r}")
    p0 = read_number(head, f"--path {text!r}: the base point", kind=Fraction)
    return p0, 1 if tail.startswith("+") else -1


def parse_weighted_space(text: str) -> WeightedSpace:
    """The --space text "w:r1,r2,...;w:..." as a WeightedSpace; a line with
    no residual components is written as a bare weight.  Every error names
    the option and its text."""
    what = f"--space {text!r}"
    entry = f"{what}: each weight and residual entry"
    lines = []
    for chunk in text.split(";"):
        head, colon, tail = chunk.partition(":")
        residual = tuple(read_number(part, entry) for part in tail.split(",")) if colon else ()
        lines.append((read_number(head, entry), residual))
    try:
        return WeightedSpace(tuple(lines), len(lines[0][1]))
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None


def plan_for(args, model: TorusModel):
    sources = [args.path is not None, args.plan is not None, args.cp2_variant is not None]
    if sum(sources) != 1:
        raise ValueError("choose exactly one of --path, --plan, --cp2-variant")
    if args.path is not None:
        p0, direction = parse_path(args.path)
        return rank1_plan(model, p0, direction)
    if args.plan is not None:
        return load_plan(args.plan)
    if not (model.family and model.family[:2] == ("cp", 3)):
        raise Unsupported("--cp2-variant applies only to cp2:N models")
    return cp2_plan(model, args.cp2_variant)


def format_value(value: Fraction, as_float: bool) -> str:
    text = str(value)
    if as_float:
        text += f" ~= {float(value):.12g}"
    return text


def cmd_pair(args) -> int:
    text = getattr(args, "class")
    expr = parse_class_expr(text)
    # v<i> tells a sphere product's factors apart (the cp2:N orbit model
    # refuses it), so its plan is checked on the orbit model, then expanded
    per_point = args.plan is not None or names_factor_class(text) and args.model.startswith("spheres:")
    model = resolve_model(args.model, per_point)
    if per_point and model.has_orbits:
        if args.plan is None:
            plan_for(args, model)
        model = expand_orbits(model)
    cls = evaluate_expr(expr, model)
    plan = plan_for(args, model)
    value = evaluate_plan(model, plan, cls)
    print(format_value(value, args.float))
    return 0


def cmd_volume(args) -> int:
    model = resolve_model(args.model, args.plan is not None)
    plan = plan_for(args, model)
    if args.plan is not None:
        model = expand_orbits(model)
    base = (parse_path(args.path)[0],) if args.path is not None else ()
    cls, m = volume_class(model, args.group, base)
    coefficient = evaluate_plan(model, plan, cls) / factorial(m)
    text = f"{coefficient} * (2pi)^{m}"
    if args.float:
        import math

        text += f" ~= {float(coefficient) * (2 * math.pi) ** m:.12g}"
    print(text)
    return 0


def cmd_walls(args) -> int:
    xi = tuple(read_number(part, f"--xi {args.xi!r}: each entry") for part in args.xi.split(","))
    model = resolve_model(args.model, per_point=True)
    walls = wall_list(model, xi)  # refuses a bad direction before the expansion
    if model.has_orbits:
        walls = wall_list(expand_orbits(model), xi)
    for value, ids in walls:
        print(f"{value}: {' '.join(ids)}")
    return 0


def cmd_plan(args) -> int:
    model = resolve_model(args.model, args.plan is not None)
    plan = plan_for(args, model)
    if args.plan is not None:  # a file is re-emitted only if its points are the model's
        model = expand_orbits(model)
        for term in plan.terms:
            if not model.has_fixed_point(term.fixed_point_id):
                raise UnknownFixedPoint(f"model has no fixed point {term.fixed_point_id!r}")
    elif model.has_orbits:
        plan = plan_for(args, expand_orbits(model))  # the expansion is freed before the dump
    dump_plan(plan, args.out or sys.stdout)
    return 0


def _relation_str(coeffs: list[MultiPoly]) -> str:
    r = len(coeffs) - 1
    parts = []
    for i, coeff in enumerate(coeffs):
        if coeff.is_zero():
            continue
        power = r - i
        h = "" if power == 0 else ("h" if power == 1 else f"h^{power}")
        text = poly_str(coeff)
        if h:
            if text == "1":
                parts.append(h)
            elif text == "-1":
                parts.append(f"-{h}")
            elif " " in text:
                parts.append(f"({text})*{h}")
            else:
                parts.append(f"{text}*{h}")
        else:
            parts.append(f"({text})" if " " in text else text)
    return join_terms(parts)


def cmd_ring(args) -> int:
    space = parse_weighted_space(args.space)
    print(_relation_str(ring_relation(space)))
    return 0


def cmd_segre(args) -> int:
    order = read_number(args.order, f"--order {args.order!r}: the order")
    # order + 1 pieces are held at once; cap them as class exponents are
    if order > MAX_POWER:
        raise ValueError(f"order must be at most {MAX_POWER}")
    space = parse_weighted_space(args.space)
    for i, piece in enumerate(weighted_segre(space, order)):
        print(f"s_{i} = {poly_str(piece)}")
    return 0


def _add_plan_source(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--path",
        help="transverse path 'p0:+' or 'p0:-' (rank-1 models); a negative base point"
        " takes the form --path=-1/2:+",
    )
    parser.add_argument("--plan", help="plan file emitted by the plan subcommand")
    parser.add_argument(
        "--cp2-variant",
        choices=CP2_VARIANTS,
        help="built-in recipe variant for cp2:N models",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torusloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="exact cohomology pairing")
    pair.add_argument("--model", required=True)
    pair.add_argument("--class", required=True)
    _add_plan_source(pair)
    pair.add_argument("--float", action="store_true")
    pair.set_defaults(func=cmd_pair)

    volume = sub.add_parser("volume", help="symplectic volume", description=(
        "Symplectic volume at the --path base point, or at the origin for --plan and"
        " --cp2-variant.  --group weyl is supported at the origin only."))
    volume.add_argument("--model", required=True)
    volume.add_argument("--group", choices=("torus", "weyl"), required=True)
    _add_plan_source(volume)
    volume.add_argument("--float", action="store_true")
    volume.set_defaults(func=cmd_volume)

    walls = sub.add_parser("walls", help="wall values along a direction")
    walls.add_argument("--model", required=True)
    walls.add_argument("--xi", required=True, help="integer vector, e.g. '1' or '1,0'")
    walls.set_defaults(func=cmd_walls)

    plan = sub.add_parser("plan", help="emit a plan file")
    plan.add_argument("--model", required=True)
    _add_plan_source(plan)
    plan.add_argument("--out", help="output file (default: stdout)")
    plan.set_defaults(func=cmd_plan)

    ring = sub.add_parser("ring", help="weighted sphere-quotient ring relation")
    ring.add_argument("--space", required=True, help="lines 'w:r1,r2,...;w:...'")
    ring.set_defaults(func=cmd_ring)

    segre = sub.add_parser("segre", help="weighted Segre pieces")
    segre.add_argument("--space", required=True, help="lines 'w:r1,r2,...;w:...'")
    segre.add_argument("--order", required=True)
    segre.set_defaults(func=cmd_segre)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TorusLocError as err:
        print(f"error: {err}", file=sys.stderr)
        return DOMAIN_ERROR
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
