"""The command line reads as argparse read it: a seeded corpus of command
lines over all 14 command paths, well formed or corrupted, goes through
`cli.parse_args` and through the argparse declaration it replaced
(`oracles.argparse_cli_parser`).  On every line both refuse, or both give
the same command path, csv or not, and option values.  Abbreviated options
and help are left out: argparse accepts `--ide` for `--ideal`, `parse_args`
refuses it, and the help text differs."""

import random

import pytest

from conesign.cli import _COMMANDS, parse_args
from oracles import argparse_cli_parser

SEED = 0
LINES = 60  # per command path, half of them corrupted

FILES = ("axes.ideal", "a b.ideal", "-", "", "-x y", "x=1")
POINTS = ("0,0,0", "1/2,-3,0", "-1", "-0.5", "-.5", "-1 ,0")
POLYS = ("x", "x^2 - y", "-x + 1", "-2")
NAMES = ("z", "x,y", "-3")
INTS = ("0", "3", "-2", "+4", "-0", "17")
SIGNS = ("+1", "-1", "1")
GLOBAL = {"--seed": INTS, "--order": ("degrevlex", "lex"), "--char": INTS,
          "--jobs": INTS, "--format": ("json", "csv", "text")}
# each command path: its options, as name -> the values drawn for it (None
# for a flag), and the options it may leave out
COMMANDS = {
    ("gb",): ({"--ideal": FILES}, ()),
    ("eliminate",): ({"--ideal": FILES, "--drop": NAMES}, ()),
    ("saturate",): ({"--ideal": FILES, "--by": POLYS}, ()),
    ("dim",): ({"--ideal": FILES}, ()),
    ("mincomp",): ({"--ideal": FILES}, ()),
    ("cone",): ({"--ideal": FILES}, ()),
    ("cycle",): ({"--ideal": FILES}, ()),
    ("eu",): ({"--variety": FILES, "--point": POINTS, "--assume-prime": None},
              ("--assume-prime",)),
    ("behrend", "eval"): ({"--ideal": FILES, "--point": POINTS}, ()),
    ("behrend", "falsify"): ({"--ideal": FILES, "--sign": SIGNS}, ("--sign",)),
    ("falsify",): ({"--ideal": FILES, "--sign": SIGNS}, ("--sign",)),
    ("hilb", "enumerate"): ({"--n": INTS}, ()),
    ("hilb", "tangent"): ({"--ideal": FILES}, ()),
    ("hilb", "parity-scan"): ({"--n": INTS, "--jobs": INTS}, ("--jobs",)),
}
CHECKED = {"--seed", "--order", "--char", "--jobs", "--format", "--n", "--sign"}
# none of them is a prefix of a real option, which argparse would expand
UNKNOWN = ("--bogus", "--ideals", "--seeds", "--points=1", "-x", "-1,0")
BAD = ("x", "3.5", "", "grevlex", "tsv", "2", "+-1", "1e3")
DASHED = ("-1,0,0", "-x", "-1/2", "-1e3")
WORDS = ("frob", "GB", "enumerate", "eval", "hilb", "behrend")
CORRUPTIONS = ("unknown option", "missing value", "missing required", "bad value",
               "dashed value", "global after the command", "unknown word", "missing word")


def _option(rnd, name, values):
    """One occurrence of an option: (name, value or None, joined by =)."""
    return (name, None if values is None else rnd.choice(values), rnd.random() < 0.5)


def _render(occurrences):
    out = []
    for name, value, joined in occurrences:
        if value is None:
            out.append(name)
        elif joined:
            out.append(f"{name}={value}")
        else:
            out += [name, value]
    return out


def _corrupt(rnd, head, words, tail, path):
    options, optional = COMMANDS[path]
    kind = rnd.choice(CORRUPTIONS)
    if kind == "unknown option":
        rnd.choice((head, tail)).insert(0, (rnd.choice(UNKNOWN), None, False))
    elif kind == "missing value":
        # a bare option, last or before another option
        name = rnd.choice([o for o, v in options.items() if v is not None])
        tail.insert(rnd.choice((0, len(tail))), (name, None, False))
    elif kind == "missing required":
        required = [o for o in options if o not in optional]
        gone = rnd.choice(required)
        tail[:] = [t for t in tail if t[0] != gone]
    elif kind == "bad value":
        checked = [k for k, t in enumerate(head + tail) if t[0] in CHECKED]
        if not checked:
            head.append(("--order", "grevlex", False))
        else:
            k = rnd.choice(checked)
            line = head if k < len(head) else tail
            k -= 0 if line is head else len(head)
            line[k] = (line[k][0], rnd.choice(BAD), line[k][2])
    elif kind == "dashed value":
        name = rnd.choice([o for o, v in options.items() if v is not None])
        tail.append((name, rnd.choice(DASHED), False))
    elif kind == "global after the command":
        name = rnd.choice(list(GLOBAL))
        tail.append(_option(rnd, name, GLOBAL[name]))
    elif kind == "unknown word":
        words[rnd.randrange(len(words))] = rnd.choice(WORDS)
    else:
        del words[rnd.randrange(len(words))]


def command_lines(seed, count):
    """`count` command lines per command path: global options and the
    command's options each drawn in either form, in random order, some of
    them twice; every other line corrupted once."""
    rnd = random.Random(seed)
    lines = []
    for path, (options, optional) in COMMANDS.items():
        for k in range(count):
            head = [_option(rnd, o, v) for o, v in GLOBAL.items()
                    for _ in range(rnd.choice((0, 0, 1, 2)))]
            tail = [_option(rnd, o, v) for o, v in options.items()
                    if o not in optional or rnd.random() < 0.5
                    for _ in range(1 + (rnd.random() < 0.15))]
            rnd.shuffle(head)
            rnd.shuffle(tail)
            words = list(path)
            if k % 2:
                _corrupt(rnd, head, words, tail, path)
            lines.append(_render(head) + words + _render(tail))
    return lines


def _outcome(argv):
    """(command path, whether it has csv, option values), or "refused"."""
    try:
        options = vars(parse_args(argv))
    except ValueError:
        return "refused"
    path = options.pop("path")
    return path, _COMMANDS[path][3] is not None, options


def _oracle_outcome(oracle, argv):
    try:
        options = vars(oracle.parse_args(argv))
    except ValueError:
        return "refused"
    path = (options.pop("command"),) + tuple(
        options.pop(f"{w}_command") for w in ("behrend", "hilb") if f"{w}_command" in options)
    return path, options.pop("has_csv"), options


def test_the_command_line_reads_as_argparse_read_it():
    oracle = argparse_cli_parser()
    accepted = refused = 0
    for argv in command_lines(SEED, LINES):
        expected = _oracle_outcome(oracle, argv)
        assert _outcome(argv) == expected, argv
        accepted += expected != "refused"
        refused += expected == "refused"
    # the corpus reaches both sides of the grammar
    assert accepted > 200 and refused > 200


@pytest.mark.parametrize("argv", [
    ["gb", "--ide", "F"],
    ["--se", "3", "gb", "--ideal", "F"],
    ["hilb", "parity-scan", "--n", "3", "--job", "2"],
])
def test_abbreviated_options_are_refused(argv):
    # argparse expanded a unique prefix; the command line takes names whole
    assert vars(argparse_cli_parser().parse_args(argv))
    with pytest.raises(ValueError, match="unrecognized option"):
        parse_args(argv)
