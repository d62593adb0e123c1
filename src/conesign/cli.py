"""Command-line entry point.

Subcommands cover the whole pipeline: Groebner bases and ideal operations
(gb, eliminate, saturate, dim, mincomp), cone analysis (cone, cycle),
obstruction and Behrend evaluation (eu, behrend eval, behrend falsify /
falsify), and the points toolkit (hilb enumerate / tangent / parity-scan).

The command line is two tables: `_COMMANDS`, one row per command path
with its handler, options, csv header and whether it needs Q, and
`_SETTINGS`, one row per configuration key with its flag, default, kind
and least value.

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
from .poly import _PRIME_TEST_BOUND, _is_prime, parse_polynomial, order_from_name, ring

CONFIG_ENV = "CONESIGN_CONFIG"

# The run configuration, one row per key: its global flag or None, its
# default, its kind (int, or a tuple of choices) and its least value or None
_SETTINGS = {
    "seed": ("--seed", 0, int, None),
    "order": ("--order", "degrevlex", ("degrevlex", "lex"), None),
    "characteristic": ("--char", 0, int, None),
    "jobs": ("--jobs", 1, int, 1),
    "output_format": ("--format", "json", ("json", "csv", "text"), None),
    "max_n": (None, _MAX_N, int, 1),
    "max_variables": (None, 16, int, 1),
    "max_gb_pairs": (None, DEFAULT_MAX_PAIRS, int, 0),
}
# the global options, which come before the command words
_FLAGS = {flag: kind for flag, _, kind, _ in _SETTINGS.values() if flag}


def load_config(args) -> SimpleNamespace:
    """Each key's default, overridden by the JSON object in the file at
    CONESIGN_CONFIG if set, then by its flag in the parsed command line
    `args` if given, as a namespace with one attribute per key.

    Each value is checked against its key's row where it comes from: it
    must have the key's kind (a bool is not an int) and be at least its
    least value, and a nonzero characteristic must be a prime.  A bad
    value, an unknown key or a file that is not one JSON object raises
    ValueError, which names the key or the flag.
    """
    cfg = {key: row[1] for key, row in _SETTINGS.items()}
    path = os.environ.get(CONFIG_ENV)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config {path}: expected a JSON object")
        for key, value in data.items():
            if key not in _SETTINGS:
                raise ValueError(f"config {path}: unknown key {key!r}")
            cfg[key] = value
    for key, (flag, _, kind, least) in _SETTINGS.items():
        source = f"{key} in the config"
        if flag and getattr(args, _dest(flag)) is not None:
            cfg[key], source = getattr(args, _dest(flag)), flag
        value = cfg[key]
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{source} must be one of {', '.join(kind)}, got {json.dumps(value)}")
        if kind is int and type(value) is not int:
            raise ValueError(f"{source} must be an integer, got {json.dumps(value)}")
        if least is not None and value < least:
            raise ValueError(f"{source} must be at least {least}, got {value}")
        if key == "characteristic" and value and (
                value >= _PRIME_TEST_BOUND or not _is_prime(value)):
            bound = f" below {_PRIME_TEST_BOUND}" if value >= _PRIME_TEST_BOUND else ""
            raise ValueError(f"{source} must be 0 or a prime{bound}, got {value}")
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
    if not isinstance(value, (dict, list)):
        return f"{pad}{value}"
    labelled = ([(f"{k}:", v) for k, v in value.items()] if isinstance(value, dict)
                else [("-", v) for v in value])
    lines = []
    for label, v in labelled:
        if isinstance(v, (dict, list)):
            lines += [f"{pad}{label}", _as_text(v, indent + 1)]
        else:
            lines.append(f"{pad}{label} {v}")
    return "\n".join(lines)


def emit(payload: dict, cfg: SimpleNamespace, csv_rows=None, csv_header=None) -> None:
    """Write the report in `cfg.output_format`, which `load_config` has checked;
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


def _load(path: str, cfg: SimpleNamespace) -> IdealPresentation:
    return load_ideal_file(path, cfg.characteristic, cfg.max_variables)


# The handlers of the command paths: each takes the parsed command line and
# the run configuration and returns the payload and the csv rows, or None
# for a path without csv.


def _gb(args, cfg):
    I = _load(args.ideal, cfg)
    order = order_from_name(cfg.order, I.ring)
    basis = buchberger(I.generators, order, cfg.max_gb_pairs)
    return {"basis": [g.to_text(order) for g in basis], "order": cfg.order}, None


def _eliminate(args, cfg):
    I = _load(args.ideal, cfg)
    drop = tuple(v.strip() for v in args.drop.split(",") if v.strip())
    out = eliminate(I, drop)
    return {"variables": list(out.ring.variables), "generators": list(out.signature())}, None


def _saturate(args, cfg):
    I = _load(args.ideal, cfg)
    out = saturate(I, parse_polynomial(args.by, I.ring))
    return {"generators": list(out.signature())}, None


def _dim(args, cfg):
    return {"dimension": dimension(_load(args.ideal, cfg))}, None


def _mincomp(args, cfg):
    comps = minimal_primes(_load(args.ideal, cfg))
    rows = [[i, ";".join(c.prime.signature()), c.multiplicity, c.dimension, c.degree,
             c.primality] for i, c in enumerate(comps)]
    return {"components": [c.to_json_dict() for c in comps]}, rows


def _cone(args, cfg):
    comps = cone_components(_load(args.ideal, cfg))
    return {"components": [c.to_json_dict() for c in comps]}, None


def _cycle(args, cfg):
    return signed_support_cycle(_load(args.ideal, cfg)).to_json_dict(), None


def _eu(args, cfg):
    V = _load(args.variety, cfg)
    point = parse_point(args.point, V.ring)
    mode = "assumed" if args.assume_prime else "check"
    return eu_point(V, point, primality=mode, seed=cfg.seed).to_json_dict(), None


def _behrend_eval(args, cfg):
    I = _load(args.ideal, cfg)
    point = parse_point(args.point, I.ring)
    return behrend_value(I, point, seed=cfg.seed).to_json_dict(), None


def _falsify(args, cfg):
    sign = None if args.sign is None else int(args.sign)
    return constancy_falsifier(_load(args.ideal, cfg), sign).to_json_dict(), None


def _enumerate(args, cfg):
    parts = enumerate_plane_partitions(args.n, bound=cfg.max_n)
    rows = [[i, json.dumps(p.to_json_dict()["boxes"])] for i, p in enumerate(parts)]
    return {"n": args.n, "count": len(parts),
            "partitions": [p.to_json_dict() for p in parts]}, rows


def _tangent(args, cfg):
    return tangent_dimension_hilb(_load(args.ideal, cfg)).to_json_dict(), None


def _parity_scan(args, cfg):
    summary = parity_scan(args.n, jobs=cfg.jobs, bound=cfg.max_n)
    rows = [[r.partition_id, r.n, r.tangent_dim, "true" if r.parity else "false"]
            for r in summary.rows]
    return summary.to_json_dict(), rows


# The command line, one row per command path: its handler; its required
# options and its other options; its csv header, or None where it has no
# csv report; the computation it names when it refuses a nonzero
# characteristic, or None where it runs over every prime field; and a line
# of help.  An option's kind is `str` or `int` for a value, a tuple of
# choices, or `bool` for a flag.
_SIGNS = ("+1", "-1", "1")
_IDEAL = {"--ideal": str}
_POINTS = "the points toolkit"
_COMMANDS = {
    ("gb",): (_gb, _IDEAL, {}, None, None, "reduced Groebner basis"),
    ("eliminate",): (_eliminate, {**_IDEAL, "--drop": str}, {}, None, None,
                     "eliminate the comma-separated variables of --drop"),
    ("saturate",): (_saturate, {**_IDEAL, "--by": str}, {}, None, None,
                    "saturate by the polynomial --by"),
    ("dim",): (_dim, _IDEAL, {}, None, None, "Krull dimension of the quotient"),
    ("mincomp",): (_mincomp, _IDEAL, {}, ("component_id", "generators", "multiplicity",
                                          "dimension", "degree", "primality_status"),
                   "minimal-prime decomposition", "minimal primes with multiplicities"),
    ("cone",): (_cone, _IDEAL, {}, None, "cone analysis", "normal cone components"),
    ("cycle",): (_cycle, _IDEAL, {}, None, "cycle computation",
                 "signed support cycle of the normal cone"),
    ("eu",): (_eu, {"--variety": str, "--point": str}, {"--assume-prime": bool}, None,
              "Euler obstruction", "local Euler obstruction at a point (--assume-prime skips "
              "primality certification and records the assumption)"),
    ("behrend", "eval"): (_behrend_eval, {**_IDEAL, "--point": str}, {}, None,
                          "Behrend evaluation", "Behrend value at a point"),
    ("behrend", "falsify"): (_falsify, _IDEAL, {"--sign": _SIGNS}, None,
                             "the constancy falsifier", "constancy falsifier"),
    ("falsify",): (_falsify, _IDEAL, {"--sign": _SIGNS}, None, "the constancy falsifier",
                   "constancy falsifier (alias)"),
    ("hilb", "enumerate"): (_enumerate, {"--n": int}, {}, ("partition_id", "boxes"), _POINTS,
                            "plane partitions of size n"),
    ("hilb", "tangent"): (_tangent, _IDEAL, {}, None, _POINTS, "tangent dimension at an ideal"),
    ("hilb", "parity-scan"): (_parity_scan, {"--n": int}, {"--jobs": int},
                              ("partition_id", "n", "tangent_dim", "parity"), _POINTS,
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
        _, required, optional, _, _, text = _COMMANDS[path]
        words = [f"{o} {_metavar(o, k)}" for o, k in required.items()]
        words += [f"[{o}]" if k is bool else f"[{o} {_metavar(o, k)}]"
                  for o, k in optional.items()]
        return f"{head} {' '.join(words)}\n\n{text}\n"
    if not path:
        head += "".join(f" [{o} {_metavar(o, k)}]" for o, k in _FLAGS.items())
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
    (None, or False for a flag, when not given) and the command words as
    the tuple `path`, a key of `_COMMANDS`.  Every usage error raises
    ValueError; help exits 0."""
    argv = list(argv)
    given, path, i = {}, (), 0
    while path not in _COMMANDS:
        # the global options come before the command words, which take only help
        i = _read_options(argv, i, {} if path else _FLAGS, given, path)
        words = list(dict.fromkeys(p[len(path)] for p in _COMMANDS if p[:len(path)] == path))
        if i == len(argv) or argv[i] not in words:
            found = "needs a command" if i == len(argv) else f"has no command {argv[i]!r}"
            raise ValueError(f"{_where(path)} {found}: expected one of {', '.join(words)}")
        path += (argv[i],)
        i += 1
    _, required, optional, _, _, _ = _COMMANDS[path]
    own = {}
    i = _read_options(argv, i, {**required, **optional}, own, path)
    if i < len(argv):
        raise ValueError(f"unrecognized argument {argv[i]!r} for {_where(path)}")
    missing = [o for o in required if _dest(o) not in own]
    if missing:
        raise ValueError(f"{_where(path)} requires {', '.join(missing)}")
    args = dict.fromkeys(map(_dest, _FLAGS))
    args.update((_dest(o), False if k is bool else None) for o, k in optional.items())
    # a command's own option wins over the global one of the same name
    args.update(given, **own, path=path)
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        cfg = load_config(args)
        handler, _, _, csv_header, q_only, _ = _COMMANDS[args.path]
        # refused before any work, which would only be wasted
        if cfg.output_format == "csv" and csv_header is None:
            raise ValueError("csv output is not available for this subcommand")
        if cfg.characteristic != 0 and q_only:
            raise ValueError(f"{q_only} requires characteristic 0 (cross-check "
                             "mode only covers gb/eliminate/saturate/dim)")
        payload, rows = handler(args, cfg)
        emit(payload, cfg, rows, csv_header)
        # a report whose verdict abstains exits 2, as an exhausted budget does
        return 2 if payload.get("overall") == "inconclusive" else 0
    except (EuUnsupportedError, PrimalityUndecidedError, BoundExceededError,
            DegenerateDrawError) as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 2
    except (ConesignError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
