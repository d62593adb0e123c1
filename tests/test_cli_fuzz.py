"""Seeded fuzz of the command line: small ideal files, well formed or with
their text cut short or corrupted, run in process through `dim`,
`mincomp`, `cone`, `cycle` and `falsify`, and through `eliminate` with a
seeded `--drop` list.  Every run must end in exit 0 (a report), 1 (an input
error) or 2 (an inconclusive verdict), and none may end in a traceback."""

import itertools
import random
from fractions import Fraction

import pytest

from conesign.cli import CONFIG_ENV, main
from oracles import render_polynomial

SEED = 0
COUNT = 60
# no digits: one inserted into an exponent could ask for a huge degree
STRAY = "*^()+-,;#/ \nxyzw"


def _corrupt(text, rnd):
    """text cut at a random place, or with one to three characters
    inserted, replaced or deleted."""
    if rnd.random() < 0.4:
        return text[:rnd.randrange(len(text))]
    chars = list(text)
    for _ in range(rnd.randint(1, 3)):
        at = rnd.randrange(len(chars))
        edit = rnd.choice(("insert", "replace", "delete"))
        if edit == "insert":
            chars.insert(at, rnd.choice(STRAY))
        elif edit == "replace":
            chars[at] = rnd.choice(STRAY)
        else:
            del chars[at]
    return "".join(chars)


def ideal_files(seed, count):
    """`count` ideal-file texts: a ring of two or three variables and one to
    three generators of degree at most 2, the text corrupted half the time."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        names = "xyz"[:rnd.randint(2, 3)]
        monomials = [m for m in itertools.product(range(3), repeat=len(names)) if sum(m) <= 2]
        gens = []
        for _ in range(rnd.randint(1, 3)):
            terms = {rnd.choice(monomials): Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)),
                                                     rnd.randint(1, 2))
                     for _ in range(rnd.randint(1, 3))}
            gens.append(render_polynomial(terms, names, rnd))
        text = f"ring {', '.join(names)};\n" + rnd.choice((", ", ",\n", "\n")).join(gens) + "\n"
        out.append(_corrupt(text, rnd) if rnd.random() < 0.5 else text)
    return out


def drop_lists(seed, count):
    """`count` values of `eliminate --drop`: one to three names drawn with
    repeats from x, y, z and w.  No ring of `ideal_files` has a w, and the
    two-variable ones have no z."""
    rnd = random.Random(seed)
    return [",".join(rnd.choices("xyzw", k=rnd.randint(1, 3))) for _ in range(count)]


@pytest.mark.parametrize("command", ["dim", "mincomp", "eliminate", "cone", "cycle", "falsify"])
def test_fuzzed_ideal_files_end_in_an_exit_code(command, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    codes = set()
    drops = drop_lists(SEED, COUNT)
    for i, text in enumerate(ideal_files(SEED, COUNT)):
        path = tmp_path / f"fuzz{i}.ideal"
        path.write_text(text, encoding="utf-8")
        options = ["--drop", drops[i]] if command == "eliminate" else []
        code = main([command, "--ideal", str(path), *options])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), text
        assert "Traceback" not in err, text
        codes.add(code)
    # the corpus reaches both reports and input errors
    assert {0, 1} <= codes
