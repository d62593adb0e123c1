"""Command-line entry point.

Subcommands cover the whole pipeline: Groebner bases and ideal operations
(gb, eliminate, saturate, dim, mincomp), cone analysis (cone, cycle),
obstruction and Behrend evaluation (eu, behrend eval, behrend falsify /
falsify), and the points toolkit (hilb enumerate / tangent / parity-scan).

Exit codes: 0 success, 1 input error, 2 inconclusive or unsupported
verdict.  Every report embeds the effective configuration and seed, and
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .behrend import behrend_value, constancy_falsifier
from .cones import cone_components, signed_support_cycle
from .errors import (
    BoundExceededError,
    ConesignError,
    DegenerateDrawError,
    EuUnsupportedError,
    PrimalityUndecidedError,
)
from .euler import eu_point
from .groebner import DEFAULT_MAX_PAIRS, buchberger
from .hilb import _MAX_N, enumerate_plane_partitions, parity_scan, tangent_dimension_hilb
from .ideals import IdealPresentation, dimension, eliminate, ideal, minimal_primes, saturate
from .poly import parse_polynomial, order_from_name, ring

CONFIG_ENV = "CONESIGN_CONFIG"

# the run configuration's keys and default values
CONFIG_DEFAULTS = {
    "order": "degrevlex",
    "seed": 0,
    "characteristic": 0,
    "jobs": 1,
    "output_format": "json",
    "max_n": _MAX_N,
    "max_variables": 16,
    "max_gb_pairs": DEFAULT_MAX_PAIRS,
}
_FORMATS = ("json", "csv", "text")


def load_config() -> SimpleNamespace:
    """`CONFIG_DEFAULTS`, overridden by the JSON file at CONESIGN_CONFIG if
    set, as a namespace with one attribute per key.

    The file must hold one JSON object whose keys are keys of
    `CONFIG_DEFAULTS` and whose values have the type of the default (a bool
    is not an int); anything else raises ValueError.
    """
    cfg = dict(CONFIG_DEFAULTS)
    path = os.environ.get(CONFIG_ENV)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config {path}: expected a JSON object")
        for key, value in data.items():
            if key not in CONFIG_DEFAULTS:
                raise ValueError(f"config {path}: unknown key {key!r}")
            kind = type(CONFIG_DEFAULTS[key])
            if type(value) is not kind:
                raise ValueError(
                    f"config {path}: {key} must be {kind.__name__}, got {json.dumps(value)}")
            cfg[key] = value
    return SimpleNamespace(**cfg)


def load_ideal_file(path: str, characteristic: int, max_variables: int) -> IdealPresentation:
    """Ideal file: a `ring x, y, z;` header, then generators.

    Generators may be comma-separated or one per line; `#` starts a
    comment.  A ring with more than `max_variables` variables is refused.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header = None
    body = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if header is None:
            if not (stripped.startswith("ring") and stripped.endswith(";")):
                raise ValueError(
                    f"{path}: expected a 'ring x, y, z;' header line first")
            header = stripped[len("ring"):-1].strip()
        else:
            body.append(stripped)
    if header is None:
        raise ValueError(f"{path}: missing ring header")
    rng = ring(header, characteristic=characteristic)
    if rng.arity > max_variables:
        raise ValueError(f"{path}: ring has {rng.arity} variables, "
                         f"more than max_variables = {max_variables}")
    return ideal(rng, "\n".join(body))


# an integer, a/b with b nonzero, or a plain decimal: no exponents, which
# would let a short coordinate ask for an arbitrarily long integer
_COORDINATE = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*|\.[0-9]+)?")


def parse_point(text: str, rng) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rng.arity:
        raise ValueError(
            f"point has {len(parts)} coordinates, ring has {rng.arity}")
    for p in parts:
        if not _COORDINATE.fullmatch(p):
            raise ValueError(f"bad point coordinate {p!r}: expected an "
                             "integer, a/b with b nonzero, or a decimal")
    return tuple(Fraction(p) for p in parts)


def _as_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
        return "\n".join(lines)
    return f"{pad}{value}"


def emit(payload: dict, cfg: SimpleNamespace, csv_rows=None, csv_header=None) -> None:
    """Write the report in `cfg.output_format`, which `main` has checked;
    csv needs `csv_rows` and `csv_header`."""
    if cfg.output_format == "json":
        report = {"config": vars(cfg), "seed": cfg.seed, "result": payload}
        sys.stdout.write(json.dumps(report, sort_keys=True, default=str))
        sys.stdout.write("\n")
    elif cfg.output_format == "csv":
        # imported here, so only a csv report pays for the module
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(_as_text(payload))
        sys.stdout.write(f"\n# seed={cfg.seed} order={cfg.order} "
                         f"char={cfg.characteristic}\n")


def _require_rationals(cfg: SimpleNamespace, what: str) -> None:
    if cfg.characteristic != 0:
        raise ValueError(
            f"{what} requires characteristic 0 (cross-check mode only "
            f"covers gb/eliminate/saturate/dim)")


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, so they exit 1
    like every other bad input; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="conesign",
        description="Normal-cone cycles, Euler obstructions, Behrend "
                    "values, and Hilbert-scheme parity checks for affine "
                    "schemes over Q.")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--order", choices=["degrevlex", "lex"], default=None)
    parser.add_argument("--char", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--format", choices=_FORMATS, default=None)
    # the subcommands that emit csv rows set this
    parser.set_defaults(has_csv=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def ideal_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--ideal", required=True)
        return p

    ideal_cmd("gb", "reduced Groebner basis")
    p = ideal_cmd("eliminate", "eliminate variables")
    p.add_argument("--drop", required=True,
                   help="comma-separated variables to eliminate")
    p = ideal_cmd("saturate", "saturate by a polynomial")
    p.add_argument("--by", required=True, help="polynomial text")
    ideal_cmd("dim", "Krull dimension of the quotient")
    ideal_cmd("mincomp", "minimal primes with multiplicities").set_defaults(has_csv=True)
    ideal_cmd("cone", "normal cone components")
    ideal_cmd("cycle", "signed support cycle of the normal cone")

    p = sub.add_parser("eu", help="local Euler obstruction at a point")
    p.add_argument("--variety", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--assume-prime", action="store_true",
                   help="skip primality certification, record the assumption")

    p = sub.add_parser("behrend", help="Behrend function tools")
    bsub = p.add_subparsers(dest="behrend_command", required=True)
    pe = bsub.add_parser("eval", help="Behrend value at a point")
    pe.add_argument("--ideal", required=True)
    pe.add_argument("--point", required=True)
    pf = bsub.add_parser("falsify", help="constancy falsifier")
    pf.add_argument("--ideal", required=True)
    pf.add_argument("--sign", choices=["+1", "-1", "1"], default=None)

    p = sub.add_parser("falsify", help="constancy falsifier (alias)")
    p.add_argument("--ideal", required=True)
    p.add_argument("--sign", choices=["+1", "-1", "1"], default=None)

    p = sub.add_parser("hilb", help="Hilbert scheme of points tools")
    hsub = p.add_subparsers(dest="hilb_command", required=True)
    pe = hsub.add_parser("enumerate", help="plane partitions of size n")
    pe.add_argument("--n", type=int, required=True)
    pe.set_defaults(has_csv=True)
    pt = hsub.add_parser("tangent", help="tangent dimension at an ideal")
    pt.add_argument("--ideal", required=True)
    ps = hsub.add_parser("parity-scan", help="parity over all monomial ideals")
    ps.add_argument("--n", type=int, required=True)
    # suppressed when absent, so it cannot overwrite a top-level --jobs
    ps.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    ps.set_defaults(has_csv=True)
    return parser


# the parser of `main`, built on first use and kept for the process
_parser = functools.cache(build_parser)


def _dispatch(args, cfg: SimpleNamespace) -> int:
    cmd = args.command

    def load_ideal(path, characteristic=0):
        return load_ideal_file(path, characteristic, cfg.max_variables)

    if cmd == "gb":
        I = load_ideal(args.ideal, cfg.characteristic)
        order = order_from_name(cfg.order, I.ring)
        basis = buchberger(I.generators, order, cfg.max_gb_pairs)
        emit({"basis": [g.to_text(order) for g in basis],
              "order": cfg.order}, cfg)
        return 0
    if cmd == "eliminate":
        I = load_ideal(args.ideal, cfg.characteristic)
        drop = tuple(v.strip() for v in args.drop.split(",") if v.strip())
        out = eliminate(I, drop)
        emit({"variables": list(out.ring.variables),
              "generators": list(out.signature())}, cfg)
        return 0
    if cmd == "saturate":
        I = load_ideal(args.ideal, cfg.characteristic)
        f = parse_polynomial(args.by, I.ring)
        out = saturate(I, f)
        emit({"generators": list(out.signature())}, cfg)
        return 0
    if cmd == "dim":
        I = load_ideal(args.ideal, cfg.characteristic)
        emit({"dimension": dimension(I)}, cfg)
        return 0
    if cmd == "mincomp":
        _require_rationals(cfg, "minimal-prime decomposition")
        I = load_ideal(args.ideal)
        comps = minimal_primes(I)
        payload = {"components": [c.to_json_dict() for c in comps]}
        rows = [[i, ";".join(c.prime.signature()), c.multiplicity,
                 c.dimension, c.degree, c.primality]
                for i, c in enumerate(comps)]
        emit(payload, cfg, csv_rows=rows,
             csv_header=["component_id", "generators", "multiplicity",
                         "dimension", "degree", "primality_status"])
        return 0
    if cmd == "cone":
        _require_rationals(cfg, "cone analysis")
        I = load_ideal(args.ideal)
        comps = cone_components(I)
        emit({"components": [c.to_json_dict() for c in comps]}, cfg)
        return 0
    if cmd == "cycle":
        _require_rationals(cfg, "cycle computation")
        I = load_ideal(args.ideal)
        emit(signed_support_cycle(I).to_json_dict(), cfg)
        return 0
    if cmd == "eu":
        _require_rationals(cfg, "Euler obstruction")
        V = load_ideal(args.variety)
        point = parse_point(args.point, V.ring)
        mode = "assumed" if args.assume_prime else "check"
        verdict = eu_point(V, point, primality=mode, seed=cfg.seed)
        emit(verdict.to_json_dict(), cfg)
        return 0
    if cmd == "behrend" and args.behrend_command == "eval":
        _require_rationals(cfg, "Behrend evaluation")
        I = load_ideal(args.ideal)
        point = parse_point(args.point, I.ring)
        ev = behrend_value(I, point, seed=cfg.seed)
        emit(ev.to_json_dict(), cfg)
        return 0
    if cmd == "falsify" or (cmd == "behrend"
                            and args.behrend_command == "falsify"):
        _require_rationals(cfg, "the constancy falsifier")
        I = load_ideal(args.ideal)
        sign = None if args.sign is None else int(args.sign)
        cert = constancy_falsifier(I, sign)
        emit(cert.to_json_dict(), cfg)
        return 2 if cert.overall == "inconclusive" else 0
    if cmd == "hilb":
        _require_rationals(cfg, "the points toolkit")
        if args.hilb_command == "enumerate":
            parts = enumerate_plane_partitions(args.n, bound=cfg.max_n)
            payload = {"n": args.n, "count": len(parts),
                       "partitions": [p.to_json_dict() for p in parts]}
            rows = [[i, json.dumps(p.to_json_dict()["boxes"])]
                    for i, p in enumerate(parts)]
            emit(payload, cfg, csv_rows=rows,
                 csv_header=["partition_id", "boxes"])
            return 0
        if args.hilb_command == "tangent":
            I = load_ideal(args.ideal)
            report = tangent_dimension_hilb(I)
            emit(report.to_json_dict(), cfg)
            return 0
        if args.hilb_command == "parity-scan":
            summary = parity_scan(args.n, jobs=cfg.jobs, bound=cfg.max_n)
            rows = [[r.partition_id, r.n, r.tangent_dim,
                     "true" if r.parity else "false"] for r in summary.rows]
            emit(summary.to_json_dict(), cfg, csv_rows=rows,
                 csv_header=["partition_id", "n", "tangent_dim", "parity"])
            return 0
    raise ValueError(f"unhandled command {cmd!r}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.order is not None:
            cfg.order = args.order
        if args.char is not None:
            cfg.characteristic = args.char
        if args.jobs is not None:
            cfg.jobs = args.jobs
        if args.format is not None:
            cfg.output_format = args.format
        # refused before any work, which a bad format would only waste
        if cfg.output_format not in _FORMATS:
            raise ValueError(f"unknown output format {cfg.output_format!r}")
        if cfg.output_format == "csv" and not args.has_csv:
            raise ValueError("csv output is not available for this subcommand")
        return _dispatch(args, cfg)
    except (EuUnsupportedError, PrimalityUndecidedError, BoundExceededError,
            DegenerateDrawError) as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 2
    except (ConesignError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
