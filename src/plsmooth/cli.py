"""Command line interface.

Subcommands:
    validate  check that an input document encodes a PL homeomorphism
    smooth    build the smoothed map at one lambda and report certificates
    sweep     run the lambda sweep and tabulate convergence quantities

Exit codes: 0 success, 1 I/O or parse failure, 2 validation failure,
3 certification failure, 4 convergence target not met.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import geometry as geo
from .errors import (CertificationError, ConstructionError, DomainError,
                     InvalidInputError, ParameterError, ParseError)
from .mesh import PLMap, load_complex, validate_pl_homeo
from .norms import parse_norm, rozumny_check
from .pipeline import (SWEEP_DEFAULTS, assemble, choose_params, format_table,
                       lambda_sweep)

_VALIDATION_ERRORS = (InvalidInputError, DomainError)
_CERTIFICATION_ERRORS = (CertificationError, ConstructionError, ParameterError)


def _load_map(path):
    obj = load_complex(path)
    if not isinstance(obj, PLMap):
        raise InvalidInputError(
            "input document has no 'pieces'; a PL map is required")
    return obj


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_validate(args):
    plmap = _load_map(args.input)
    report = validate_pl_homeo(plmap)
    lines = [
        "PASS: piecewise affine homeomorphism",
        f"orientation: {report.orientation:+d}",
        f"continuity residual: {report.continuity_residual:.3e}",
        f"min |det|: {report.min_abs_det:.6g}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_smooth(args):
    plmap = _load_map(args.input)
    params = choose_params(plmap)  # validates the map first
    g = assemble(plmap, params).scaled(args.lam)
    summary = {
        "lambda": args.lam,
        "vertex_radii": {str(k): v for k, v in g.params.R.items()},
        "edge_radii": {str(k): v for k, v in g.params.r.items()},
        "face_widths": {str(k): v for k, v in g.params.w.items()},
        "face_floor": {str(fp.pair.face): fp.floor
                       for fp in g.face_patches},
        "edge_rho": {str(ep.fan.edge): ep.smoother.rho
                     for ep in g.edge_patches},
        "vertex_rho": {str(vp.star.vertex): vp.smoother.rho
                       for vp in g.vertex_patches},
        "volume_difference_set": g.volume_difference_set(),
    }
    rng = np.random.default_rng(args.seed)
    pts = g.sample_patches(n_per_patch=200, rng=rng)
    summary["min_jacobian_det"] = float(np.min(geo.det3(g.derivative(pts))))
    if summary["min_jacobian_det"] <= 0:
        raise CertificationError("nonpositive Jacobian determinant at a "
                                 "sampled point")
    _emit(json.dumps(summary, indent=2, sort_keys=True), args.out)
    return 0


def cmd_sweep(args):
    plmap = _load_map(args.input)
    params = choose_params(plmap)  # validates the map first
    lambdas = tuple(args.lambdas)
    rows = lambda_sweep(plmap, params, lambdas=lambdas, p=args.p, q=args.q)
    lines = [format_table(rows)]
    if args.norm:
        total = float(plmap.complex.cell_volumes().sum())
        M = 2.0 * max(r["sup_Dg"] for r in rows)
        deltas = [r["vol_E"] / total for r in rows]
        for spec in args.norm:
            norm = parse_norm(spec)
            lines.append(f"# rozumny {spec}")
            for row in rozumny_check(norm, M, deltas, total):
                lines.append(",".join(f"{v:.12g}" for v in row))
    _emit("\n".join(lines), args.out)
    final = rows[-1]
    if final["w1p_f"] > args.epsilon or final["w1q_inv"] > args.epsilon:
        sys.stderr.write(
            f"convergence target epsilon={args.epsilon} not met: "
            f"w1p_f={final['w1p_f']:.3e} w1q_inv={final['w1q_inv']:.3e}\n")
        return 4
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing does not change
    it, and a repeated option's list is new at every parse."""
    ap = argparse.ArgumentParser(
        prog="plsmooth",
        description="Smoothing of piecewise affine homeomorphisms of "
                    "3-dimensional simplicial complexes.")
    ap.add_argument("--config", help="JSON file of default option values")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="input JSON document (mesh + pieces)")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--seed", type=int, default=0)

    sub.add_parser("validate", parents=[common],
                   help="validate a PL homeomorphism document")

    sp = sub.add_parser("smooth", parents=[common],
                        help="build and certify the smoothed map")
    sp.add_argument("--lam", type=float, default=1.0,
                    help="smoothing scale lambda in (0, 1]")

    sw = sub.add_parser("sweep", parents=[common],
                        help="lambda sweep of convergence quantities")
    sw.add_argument("--p", type=float, default=SWEEP_DEFAULTS["p"])
    sw.add_argument("--q", type=float, default=SWEEP_DEFAULTS["q"])
    sw.add_argument("--lambdas", type=float, nargs="+",
                    default=SWEEP_DEFAULTS["lambdas"])
    sw.add_argument("--epsilon", type=float, default=1e-2)
    sw.add_argument("--norm", action="append",
                    help="norm spec, e.g. lp:2 or lorentz:2:1 (repeatable)")
    return ap


# the range of each numeric option, by destination: a test that NaN fails,
# and its text for the message
_RANGES = {
    "lam": (lambda v: 0.0 < v <= 1.0, "(0, 1]"),
    "lambdas": (lambda v: 0.0 < v <= 1.0, "(0, 1]"),
    "p": (lambda v: 1.0 <= v < np.inf, "[1, inf)"),
    "q": (lambda v: 1.0 <= v < np.inf, "[1, inf)"),
    "epsilon": (lambda v: v > 0.0, "(0, inf]"),
    "seed": (lambda v: v >= 0, "[0, inf)"),
}


def _check_ranges(args):
    """ParseError for the first numeric option (or item) out of range, or
    --norm spec that does not parse, before any work is done.  The --seed
    common to all commands is checked for ``smooth``, the one that reads
    it."""
    for opt, (ok, text) in _RANGES.items():
        if opt == "seed" and args.command != "smooth":
            continue
        val = getattr(args, opt, None)
        for v in val if isinstance(val, (list, tuple)) else [val]:
            if v is not None and not ok(v):
                raise ParseError(f"--{opt} must lie in {text}, got {v}")
    for spec in getattr(args, "norm", None) or ():
        parse_norm(spec)


def _apply_config(ap, argv):
    """Parse ``argv`` once, then give each option that it does not name the
    value of --config, if any.  A key names an option of the parser or of
    the chosen subcommand."""
    ns = ap.parse_args(argv)
    if ns.config:
        with open(ns.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ParseError("config must be a JSON object")
        options = _options(ap, ns.command)
        given = _explicit_flags(argv)
        for key, val in cfg.items():
            attr = key.replace("-", "_")
            if attr in options and attr not in given:
                setattr(ns, attr, _config_value(options[attr], key, val))
    return ns


def _options(ap, command):
    """The options of ``ap`` and of its subcommand ``command`` that take a
    value, by destination."""
    sub, = (a for a in ap._actions
            if isinstance(a, argparse._SubParsersAction))
    actions = ap._actions + sub.choices[command]._actions
    return {a.dest: a for a in actions if a.option_strings and a.nargs != 0}


def _config_value(action, key, val):
    """Config value ``val`` converted as argparse converts the arguments of
    ``action``: a list for an option that takes several values or repeats,
    each item passed to the option's type as its command-line text."""
    many = action.nargs in ("+", "*") or isinstance(action,
                                                    argparse._AppendAction)
    if many != isinstance(val, list) or (many and not val):
        raise ParseError(f"config key {key!r} needs "
                         f"{'a non-empty list' if many else 'a single value'}"
                         f", got {val!r}")
    convert = action.type or str
    try:
        items = [convert(str(v)) for v in (val if many else [val])]
    except ValueError as exc:
        raise ParseError(f"config key {key!r}: {exc}") from None
    return items if many else items[0]


def _explicit_flags(argv):
    out = set()
    for tok in argv:
        if tok.startswith("--"):
            out.add(tok[2:].split("=")[0].replace("-", "_"))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        args = _apply_config(ap, argv)
        _check_ranges(args)
        handler = {"validate": cmd_validate, "smooth": cmd_smooth,
                   "sweep": cmd_sweep}[args.command]
        return handler(args)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return 2
    except _CERTIFICATION_ERRORS as exc:
        sys.stderr.write(f"certification failure: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
