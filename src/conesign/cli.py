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


# The command line, one row per command path: its required options, its
# other options, whether it emits csv rows, and a line of help.  An
# option's kind is `str` or `int` for a value, a tuple of choices, or
# `bool` for a flag.
_GLOBAL_OPTIONS = {"--seed": int, "--order": ("degrevlex", "lex"), "--char": int,
                   "--jobs": int, "--format": _FORMATS}
_SIGNS = ("+1", "-1", "1")
_IDEAL = {"--ideal": str}
_COMMANDS = {
    ("gb",): (_IDEAL, {}, False, "reduced Groebner basis"),
    ("eliminate",): ({**_IDEAL, "--drop": str}, {}, False,
                     "eliminate the comma-separated variables of --drop"),
    ("saturate",): ({**_IDEAL, "--by": str}, {}, False, "saturate by the polynomial --by"),
    ("dim",): (_IDEAL, {}, False, "Krull dimension of the quotient"),
    ("mincomp",): (_IDEAL, {}, True, "minimal primes with multiplicities"),
    ("cone",): (_IDEAL, {}, False, "normal cone components"),
    ("cycle",): (_IDEAL, {}, False, "signed support cycle of the normal cone"),
    ("eu",): ({"--variety": str, "--point": str}, {"--assume-prime": bool}, False,
              "local Euler obstruction at a point (--assume-prime skips "
              "primality certification and records the assumption)"),
    ("behrend", "eval"): ({**_IDEAL, "--point": str}, {}, False, "Behrend value at a point"),
    ("behrend", "falsify"): (_IDEAL, {"--sign": _SIGNS}, False, "constancy falsifier"),
    ("falsify",): (_IDEAL, {"--sign": _SIGNS}, False, "constancy falsifier (alias)"),
    ("hilb", "enumerate"): ({"--n": int}, {}, True, "plane partitions of size n"),
    ("hilb", "tangent"): (_IDEAL, {}, False, "tangent dimension at an ideal"),
    ("hilb", "parity-scan"): ({"--n": int}, {"--jobs": int}, True,
                              "parity over all monomial ideals"),
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _metavar(name: str, kind) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return _dest(name).upper()


def _where(path: tuple) -> str:
    return " ".join(("conesign",) + path)


def _usage(path: tuple) -> str:
    """The usage of `conesign` followed by the command words `path`."""
    head = f"usage: {_where(path)}"
    if path in _COMMANDS:
        required, optional, _, text = _COMMANDS[path]
        words = [f"{o} {_metavar(o, k)}" for o, k in required.items()]
        words += [f"[{o}]" if k is bool else f"[{o} {_metavar(o, k)}]"
                  for o, k in optional.items()]
        return f"{head} {' '.join(words)}\n\n{text}\n"
    if not path:
        head += "".join(f" [{o} {_metavar(o, k)}]" for o, k in _GLOBAL_OPTIONS.items())
    below = [(" ".join(p), row[-1]) for p, row in _COMMANDS.items() if p[:len(path)] == path]
    width = max(len(p) for p, _ in below)
    return (f"{head} COMMAND ...\n\n"
            "Normal-cone cycles, Euler obstructions, Behrend values, and "
            "Hilbert-scheme parity checks for affine schemes over Q.\n\n"
            "commands:\n" + "".join(f"  {p:<{width}}  {text}\n" for p, text in below))


def _dest(name: str) -> str:
    """The attribute an option is read into: --assume-prime -> assume_prime."""
    return name[2:].replace("-", "_")


def _is_option(token: str, options: dict) -> bool:
    """Whether `token` is an option, known or not, rather than a value.  As
    argparse has it, a token that begins with "-" is a value only when it
    is "-", reads as a negative number or holds a space, and is not a
    known option's `--opt=value`."""
    return token.partition("=")[0] in options or (
        token.startswith("-") and token != "-" and " " not in token
        and not _NEGATIVE.match(token))


def _convert(name: str, kind, value: str):
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"{name} expects an integer, got {value!r}") from None
    if kind is not str and value not in kind:
        raise ValueError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
    return value


def _read_options(argv: list, i: int, options: dict, out: dict, path: tuple) -> int:
    """Read `options`, as `--opt value` or `--opt=value` in any order, from
    `argv[i:]` into `out` by attribute name, up to the first token that is
    not an option; return its index.  A repeated option keeps its last
    value.  `-h` or `--help` prints the usage of `path` and exits 0."""
    while i < len(argv) and _is_option(argv[i], options):
        token = argv[i]
        i += 1
        name, eq, value = token.partition("=")
        if name not in options:
            if token in _HELP:
                sys.stdout.write(_usage(path))
                raise SystemExit(0)
            raise ValueError(f"unrecognized option {token!r} for {_where(path)}")
        kind = options[name]
        if kind is bool:
            if eq:
                raise ValueError(f"{name} takes no value")
            out[_dest(name)] = True
            continue
        if not eq:
            if i == len(argv):
                raise ValueError(f"{name} expects a value")
            if _is_option(argv[i], options):
                raise ValueError(f"{name} expects a value, not {argv[i]!r} (write "
                                 f"{name}=VALUE for a value that begins with '-')")
            value = argv[i]
            i += 1
        out[_dest(name)] = _convert(name, kind, value)
    return i


def parse_args(argv) -> SimpleNamespace:
    """Read a command line: the global options, the command words, then
    the command's options, into one namespace with an attribute per option
    (None, or False for a flag, when not given), `command`, the second
    command word as `behrend_command` or `hilb_command`, and `has_csv`.
    Every usage error raises ValueError; help exits 0."""
    argv = list(argv)
    given, path, i = {}, (), 0
    while path not in _COMMANDS:
        # the global options come before the command words, which take only help
        i = _read_options(argv, i, {} if path else _GLOBAL_OPTIONS, given, path)
        words = list(dict.fromkeys(p[len(path)] for p in _COMMANDS if p[:len(path)] == path))
        if i == len(argv) or argv[i] not in words:
            found = "needs a command" if i == len(argv) else f"has no command {argv[i]!r}"
            raise ValueError(f"{_where(path)} {found}: expected one of {', '.join(words)}")
        path += (argv[i],)
        i += 1
    required, optional, has_csv, _ = _COMMANDS[path]
    own = {}
    i = _read_options(argv, i, {**required, **optional}, own, path)
    if i < len(argv):
        raise ValueError(f"unrecognized argument {argv[i]!r} for {_where(path)}")
    missing = [o for o in required if _dest(o) not in own]
    if missing:
        raise ValueError(f"{_where(path)} requires {', '.join(missing)}")
    args = dict.fromkeys(map(_dest, _GLOBAL_OPTIONS))
    args.update((_dest(o), False if k is bool else None) for o, k in optional.items())
    # a command's own option wins over the global one of the same name
    args.update(given, **own, has_csv=has_csv, command=path[0])
    if len(path) == 2:
        args[f"{path[0]}_command"] = path[1]
    return SimpleNamespace(**args)


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
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
        if cfg.jobs < 1:
            source = "jobs in the config" if args.jobs is None else "--jobs"
            raise ValueError(f"{source} must be at least 1, got {cfg.jobs}")
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
