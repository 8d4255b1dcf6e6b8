"""Command-line interface: mesh generation, verification, searches.

Exit codes: 0 success / all checks pass, 1 verification failure or refusal,
2 usage or parse errors.  ``main`` returns each of them, argparse's included.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .algebra import BranchConfiguration
from .errors import DomainError, HennebergError
from .geometry import bjorling_solve, equator_curve
from .meshing import SamplingSpec, build_mesh, write_obj, write_ply
from .period import (
    PERIOD_TOL,
    ModuliPoint,
    _radial_bounds,
    brute_search_m1,
    continue_from,
    family_theta2,
    h2_point,
    horizontal_residual_m2,
    period_jacobian_m2,
    period_residuals,
    symmetric_example,
    vertical_residual_m2,
)
from .reports import SCHEMA_VERSION, verification_report
from .surfaces import (
    eval_hm_even,
    surface_associated,
    surface_conjugate,
    surface_h1,
    surface_hm,
    surface_integrated,
    surface_limit_m2,
)
from .weierstrass import WeierstrassData

#: ln 2^52: a patch value of size e^x has float spacing above 1 past x = this
_MANTISSA_LOG = 52 * math.log(2)


class CliError(Exception):
    """Usage-level failure (exit code 2)."""


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise CliError(f"{path}: expected a JSON object")
    return raw


def _is_number(v) -> bool:
    """A JSON number: int or float, not bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_number_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))


def load_data_file(path) -> WeierstrassData:
    """Parse {c: [re, im], m: int, a: [[r, theta], ...]} (angles in radians)
    from the JSON file ``path``."""
    raw = _load_json(path)
    for key in ("c", "m", "a"):
        if key not in raw:
            raise CliError(f"{path}: missing field '{key}'")
    c = raw["c"]
    if not _is_number_pair(c):
        raise CliError(f"{path}: field 'c' must be [re, im] numbers")
    pairs = raw["a"]
    if not isinstance(pairs, list) or not all(map(_is_number_pair, pairs)):
        raise CliError(f"{path}: field 'a' must be a list of [r, theta] number pairs")
    m = raw["m"]
    if type(m) is not int or m < 1:  # a JSON true is an int to isinstance
        raise CliError(f"{path}: field 'm' must be a positive integer")
    if len(pairs) != m + 1:
        raise CliError(f"{path}: field 'a' must hold m+1 = {m + 1} pairs")
    try:
        config = BranchConfiguration.from_polar(pairs)
        return WeierstrassData(complex(c[0], c[1]), config)
    except DomainError as exc:
        raise CliError(f"{path}: {exc}")


def _sampling_from(args) -> SamplingSpec:
    """The command-line sampling flags over SamplingSpec's defaults."""
    flags = {"r_min": args.r_min, "r_max": args.r_max, "n_r": args.n_r,
             "n_theta": args.n_theta, "quotient": args.quotient or None}
    return SamplingSpec(**{key: value for key, value in flags.items() if value is not None})


def _json_float(x) -> str:
    """A float as json spells it: its repr, NaN and the infinities by name."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


#: the writer of each JSON scalar, by exact type
_SCALAR_TEXT = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _scalar_text(x) -> str:
    return _SCALAR_TEXT[type(x)](x)


def _value_text(x, pad: str) -> str:
    write = _SCALAR_TEXT.get(type(x))
    if write is not None:
        return write(x)
    if type(x) is dict:
        return _object_text(x, pad)
    if type(x) is list or type(x) is tuple:
        return _array_text(x, pad)
    # a subclass: the first base in json's order names its layout
    for base in (str, int, float):
        if isinstance(x, base):
            return _SCALAR_TEXT[base](x)
    if isinstance(x, (list, tuple)):
        return _array_text(x, pad)
    if isinstance(x, dict):
        return _object_text(x, pad)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _array_text(items, pad: str) -> str:
    """A list or tuple; one that holds only scalars is one join."""
    if not items:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    kinds = set(map(type, items))
    if kinds == {float}:
        body = sep.join(map(float.__repr__, items))
        if "n" in body:  # only nan and inf repr with an n; json spells them NaN, Infinity
            body = sep.join(map(_json_float, items))
    elif _SCALAR_TEXT.keys() >= kinds:
        body = sep.join(map(_scalar_text, items))
    else:
        body = sep.join([_value_text(x, inner) for x in items])
    return f"[\n{inner}{body}\n{pad}]"


def _object_text(obj, pad: str) -> str:
    if not obj:
        return "{}"
    inner = pad + "  "
    # _json_str raises TypeError on a key that is not a str
    body = (",\n" + inner).join([f"{_json_str(key)}: {_value_text(value, inner)}"
                                 for key, value in sorted(obj.items())])
    return f"{{\n{inner}{body}\n{pad}}}"


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), in one pass.

    With an indent, json falls back to its pure-Python encoder; this writer
    joins each list of scalars in one call instead.  Payloads are str-keyed
    dicts, lists, tuples, str, int, float, bool and None, subclasses
    included; anything else raises TypeError.
    """
    return _value_text(payload, "")


def _emit(payload: dict, out_path=None):
    text = _json_text(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _mesh_format(out, given=None):
    """The mesh format "obj" or "ply" that --out names by its extension.
    An .obj or .ply extension must agree with ``given``, the --format of
    ``generate``; any other extension takes ``given``, and without it (as
    for ``bjorling``) is refused."""
    ext = os.path.splitext(out)[1].lower()
    if ext in (".obj", ".ply"):
        if given is not None and ext != f".{given}":
            raise CliError(f"--out {out!r} names {ext[1:]}, but --format is {given}")
        return ext[1:]
    if given is None:
        raise CliError(f"--out must end in .obj or .ply, got {out!r}")
    return given


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"--{name.replace('_', '-')} is required for this selector")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    out = args.out or f"{args.surface}.{args.format}"
    fmt = _mesh_format(out, args.format)
    spec = _sampling_from(args)
    selector = args.surface
    if selector == "h1":
        smap = surface_h1()
    elif selector == "hm-odd":
        _require(args, ["m"])
        if args.m % 2 != 1:
            raise CliError("hm-odd needs odd --m")
        smap = surface_hm(args.m)
    elif selector == "hm-even":
        _require(args, ["m"])
        if args.m % 2 != 0:
            raise CliError("hm-even needs even --m")
        smap = surface_hm(args.m)
    elif selector == "conjugate":
        _require(args, ["m"])
        smap = surface_conjugate(args.m)
    elif selector == "associated":
        _require(args, ["m", "phi"])
        smap = surface_associated(symmetric_example(args.m), args.phi)
    elif selector == "limit-m2":
        smap = surface_limit_m2()
    elif selector == "family":
        _require(args, ["theta2"])
        data = family_theta2(args.theta2).weierstrass()
        smap = surface_integrated(data)
    elif selector == "custom":
        _require(args, ["data"])
        data = load_data_file(args.data)
        res = period_residuals(data)
        if not res.passes(PERIOD_TOL):
            _emit(
                {
                    "schema": SCHEMA_VERSION,
                    "refused": True,
                    "reason": "period residuals exceed tolerance",
                    "tolerance": PERIOD_TOL,
                    "horizontal": [res.horizontal.real, res.horizontal.imag],
                    "vertical": float(res.vertical),
                    "onesided": float(res.onesided),
                }
            )
            return 1
        smap = surface_integrated(data)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown surface selector {selector!r}")

    mesh = build_mesh(smap, spec)
    (write_obj if fmt == "obj" else write_ply)(mesh, out)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "surface": smap.name,
            "out": out,
            "format": fmt,
            "vertices": int(len(mesh.vertices)),
            "faces": int(len(mesh.faces)),
            "sampling": {**dataclasses.asdict(spec), "wrap": True},  # schema-1 constant
        }
    )
    return 0


def cmd_verify(args) -> int:
    selector = args.surface
    if selector == "h1":
        data, label, iso_m = symmetric_example(1), "h1", 1
    elif selector == "hm":
        _require(args, ["m"])
        data, label, iso_m = symmetric_example(args.m), f"hm m={args.m}", args.m
    elif selector == "family":
        _require(args, ["theta2"])
        data = family_theta2(args.theta2).weierstrass()
        label, iso_m = f"family theta2={args.theta2}", None
    else:  # custom
        _require(args, ["data"])
        data, label, iso_m = load_data_file(args.data), "custom", None
    report = verification_report(data, label, isometries_for=iso_m)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def cmd_search_m1(args) -> int:
    if (args.r_lo is None) != (args.r_hi is None):
        raise CliError("--r-lo and --r-hi must be given together")
    span = args.span if args.r_lo is None else (args.r_lo, args.r_hi)
    r_lo, r_hi = _radial_bounds(span)
    hits = brute_search_m1(span=span)
    payload = {
        "schema": SCHEMA_VERSION,
        "grid": {
            # the grid sizes are echoed for schema-1 readers; the solutions
            # are exact, so they change nothing
            "span": args.span if args.r_lo is None else None,
            "n_radial": args.n_radial,
            "n_angular": args.n_angular,
            "r_lo": r_lo,
            "r_hi": r_hi,
        },
        "minimizers": [
            {
                "r1": h.r1,
                "r2": h.r2,
                "theta2": h.theta2,
                "beta": h.beta,
                "residual": h.residual,
                "henneberg": h.is_henneberg(),
            }
            for h in hits
        ],
        # nothing found certifies nothing: an empty search fails
        "all_henneberg": bool(hits) and all(h.is_henneberg() for h in hits),
    }
    _emit(payload, args.out)
    return 0 if payload["all_henneberg"] else 1


def _moduli_from_file(path) -> ModuliPoint:
    raw = _load_json(path)
    keys = ("r1", "r2", "r3", "theta2", "theta3", "beta")
    values = [raw.get(key) for key in keys]
    if not all(map(_is_number, values)):
        raise CliError(f"{path}: invalid moduli point: {', '.join(keys)} must be numbers")
    return ModuliPoint(*values)


def cmd_continue(args) -> int:
    start = _moduli_from_file(args.start) if args.start else h2_point()
    point = continue_from(start, args.r1, args.r2)
    f_val = horizontal_residual_m2(point)
    payload = {
        "schema": SCHEMA_VERSION,
        "r1": point.r1,
        "r2": point.r2,
        "r3": point.r3,
        "theta2": point.theta2,
        "theta3": point.theta3,
        "beta": point.beta,
        "F": [f_val.real, f_val.imag],
        "G": vertical_residual_m2(point),
        "det_jacobian": float(np.linalg.det(period_jacobian_m2(point))),
    }
    _emit(payload, args.out)
    return 0


def _closed_form_for_cusps(n: int):
    """Map a cusp count to the matching closed-form exponent m."""
    if n < 3:
        raise CliError("cusp counts below 3 are not supported")
    if n % 2 == 1:
        return n - 1
    if n % 4 == 0:
        return (n - 2) // 2
    return Fraction(1, (n - 2) // 2)  # n = 4k+2  ->  m = 1/(2k)


def _largest_strip(top: float) -> float:
    """52 ln 2 / top rounded down to 4 decimals, or to 4 significant digits
    where 4 decimals give 0."""
    bound = _MANTISSA_LOG / top
    largest = math.floor(bound * 1e4) / 1e4
    if largest:
        return largest
    scale = 10 ** (3 - math.floor(math.log10(bound)))
    return math.floor(Fraction(bound) * scale) / scale


def cmd_bjorling(args) -> int:
    cusps = 4 if args.astroid else args.cusps
    if not (math.isfinite(args.strip) and args.strip > 0):
        raise CliError(f"--strip must be a finite number > 0, got {args.strip}")
    if min(args.n_u, args.n_v) < 2:
        raise CliError("--n-u and --n-v must be at least 2")
    fmt = args.out and _mesh_format(args.out)
    m = _closed_form_for_cusps(cusps)
    # the closed form grows like e^{K strip}, K = m + 2 its largest radial
    # exponent; past K strip = 52 ln 2 the float spacing there exceeds 1.
    # K is read off m, so a refused strip builds no curve
    try:
        top = float(m + 2)
    except OverflowError:
        raise CliError(f"--cusps must be below 1.8e308, got {len(str(cusps))} digits") from None
    if top * args.strip > _MANTISSA_LOG:
        raise CliError(f"--strip must be at most {_largest_strip(top)} for {cusps} cusps, "
                       f"got {args.strip}")
    curve = equator_curve(m)
    # the mesh samples the E-plane of surface_map, v = -D ln r
    strip = args.strip / curve.denom
    if args.out and not math.exp(-strip) < math.exp(strip):
        raise CliError(f"--strip {args.strip} is too small to mesh: every radius rounds to 1")
    patch = bjorling_solve(curve)

    us = np.linspace(curve.domain[0], curve.domain[1], args.n_u)
    vs = np.linspace(-args.strip, args.strip, args.n_v)
    # one (n_v, n_u) grid; the radii by math.exp, which np.exp need not
    # match to the last bit
    radii = np.array([math.exp(-v) for v in vs])
    got = patch.at(us, vs[:, None])
    want = eval_hm_even(m, radii[:, None], us)
    sup_err = float(np.max(np.abs(got - want)))  # a NaN point propagates

    payload = {
        "schema": SCHEMA_VERSION,
        "cusps": int(cusps),
        "closed_form_m": float(m),
        "strip": args.strip,
        "sup_error": sup_err,
        # schema-1 field kept for readers; the integral has no quadrature
        "quad_order": 24,
    }
    if args.out:
        spec = SamplingSpec(
            r_min=math.exp(-strip),
            r_max=math.exp(strip),
            n_r=args.n_v,
            n_theta=args.n_u,
        )
        mesh = build_mesh(patch.surface_map(), spec)
        (write_obj if fmt == "obj" else write_ply)(mesh, args.out)
        payload["out"] = args.out
        payload["vertices"] = int(len(mesh.vertices))
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, as the other CLI
    errors are; add_subparsers gives the sub-parsers the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="henneberg",
        description="Branched minimal surfaces from Weierstrass data: "
        "generation, verification, and period-problem tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="tessellate a surface and export a mesh")
    gen.add_argument(
        "surface",
        choices=[
            "h1",
            "hm-odd",
            "hm-even",
            "conjugate",
            "associated",
            "limit-m2",
            "family",
            "custom",
        ],
    )
    gen.add_argument("--m", type=int)
    gen.add_argument("--phi", type=float, help="associated-family angle")
    gen.add_argument("--theta2", type=float, help="family parameter")
    gen.add_argument("--data", help="custom Weierstrass data JSON file")
    gen.add_argument("--out")
    gen.add_argument("--format", choices=["obj", "ply"], default="obj")
    gen.add_argument("--r-min", dest="r_min", type=float)
    gen.add_argument("--r-max", dest="r_max", type=float)
    gen.add_argument("--nr", dest="n_r", type=int)
    gen.add_argument("--ntheta", dest="n_theta", type=int)
    gen.add_argument("--quotient", action="store_true")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run verification checks, emit JSON report")
    ver.add_argument("surface", choices=["h1", "hm", "family", "custom"])
    ver.add_argument("--m", type=int)
    ver.add_argument("--theta2", type=float)
    ver.add_argument("--data")
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)

    sea = sub.add_parser("search-m1", help="list the complexity-1 solutions in a radial box",
                         description="The four exact complexity-1 period solutions "
                         "(r1 = r2 = 1), when the radial box holds radius 1.")
    # --r-hi needs --r-lo (cmd_search_m1), so --span excludes both
    bounds = sea.add_mutually_exclusive_group()
    bounds.add_argument("--span", type=float, default=4.0)
    bounds.add_argument("--r-lo", dest="r_lo", type=float)
    sea.add_argument("--r-hi", dest="r_hi", type=float)
    sea.add_argument("--n-radial", dest="n_radial", type=int, default=33,
                     help="echoed in the report; does not change the result")
    sea.add_argument("--n-angular", dest="n_angular", type=int, default=48,
                     help="echoed in the report; does not change the result")
    sea.add_argument("--out")
    sea.set_defaults(func=cmd_search_m1)

    con = sub.add_parser("continue", help="continue a complexity-2 solution")
    con.add_argument("--r1", type=float, required=True)
    con.add_argument("--r2", type=float, required=True)
    con.add_argument("--from", dest="start", help="starting moduli point JSON")
    con.add_argument("--out")
    con.set_defaults(func=cmd_continue)

    bjo = sub.add_parser("bjorling", help="solve a hypocycloid Björling problem")
    target = bjo.add_mutually_exclusive_group(required=True)
    target.add_argument("--cusps", type=int)
    target.add_argument("--astroid", action="store_true")
    bjo.add_argument("--strip", type=float, default=0.05)
    bjo.add_argument("--n-u", dest="n_u", type=int, default=64)
    bjo.add_argument("--n-v", dest="n_v", type=int, default=9)
    bjo.add_argument("--out")
    bjo.set_defaults(func=cmd_bjorling)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: building the argparse tree
    costs far more than parsing one command line, and parsing leaves the
    parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0), printed
        return exc.code
    try:
        return args.func(args)
    except (CliError, DomainError, OSError) as exc:
        # OSError: an unwritable --out (input files are read by _load_json)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a mesh grid too large for this machine: a bad input, like a bad flag
        print(f"error: out of memory: {str(exc) or 'the grid is too large'}",
              file=sys.stderr)
        return 2
    except HennebergError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
