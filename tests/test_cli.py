"""End-to-end tests for the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import conesign.cli
import conesign.euler
from conesign import ring
from conesign.cli import CONFIG_ENV, main, parse_args, parse_point
from conesign.hilb import parity_scan
from conesign.poly import _PRIME_TEST_BOUND

AXES = "ring x, y, z;\nxy, xz, yz\n"
PAIR = (
    "# embedded double point on a line\n"
    "ring x, y;\n"
    "y^2  # comma-free: one generator per line works too\n"
    "x*y\n"
)
FATLINE = "ring x;\nx^2\n"
PARABOLA = "ring x, y;\ny - x^2\n"
SPACE_CURVE_CONE = "ring x, y, z, w;\nx*z - y^2, y*w - z^2, x*w - y*z\n"
UMBRELLA = "ring x, y, z;\nx^2 - y^2*z\n"
THIN_LINE = "ring x, y, z;\nx\n"


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("axes", AXES), ("pair", PAIR), ("fatline", FATLINE),
        ("parabola", PARABOLA), ("scone", SPACE_CURVE_CONE),
        ("umbrella", UMBRELLA), ("thin", THIN_LINE),
    ]:
        path = tmp_path / f"{name}.ideal"
        path.write_text(text, encoding="utf-8")
        out[name] = str(path)
    return out


# one command line per command path, on the files above
SAMPLES = {
    ("gb",): ["--ideal", "pair"],
    ("eliminate",): ["--ideal", "axes", "--drop", "z"],
    ("saturate",): ["--ideal", "pair", "--by", "x"],
    ("dim",): ["--ideal", "axes"],
    ("mincomp",): ["--ideal", "axes"],
    ("cone",): ["--ideal", "pair"],
    ("cycle",): ["--ideal", "pair"],
    ("eu",): ["--variety", "parabola", "--point", "1,1"],
    ("behrend", "eval"): ["--ideal", "axes", "--point", "0,0,0"],
    ("behrend", "falsify"): ["--ideal", "axes"],
    ("falsify",): ["--ideal", "fatline"],
    ("hilb", "enumerate"): ["--n", "2"],
    ("hilb", "tangent"): ["--ideal", "pair"],
    ("hilb", "parity-scan"): ["--n", "2"],
}
GROEBNER_LEVEL = {("gb",), ("eliminate",), ("saturate",), ("dim",)}  # any characteristic
WITH_CSV = {("mincomp",), ("hilb", "enumerate"), ("hilb", "parity-scan")}
# the file loader and every computation a command path runs
WORK = ("load_ideal_file", "buchberger", "eliminate", "saturate", "dimension", "minimal_primes",
        "cone_components", "signed_support_cycle", "eu_point", "behrend_value",
        "constancy_falsifier", "enumerate_plane_partitions", "tangent_dimension_hilb",
        "parity_scan")


@pytest.fixture
def no_work(monkeypatch):
    """Replace the file loader and every computation in `conesign.cli` by a
    stub that only records its name; the list of names recorded."""
    calls = []
    for name in WORK:
        monkeypatch.setattr(conesign.cli, name, lambda *a, name=name, **k: calls.append(name))
    return calls


def test_the_samples_reach_every_command_path():
    assert set(SAMPLES) == set(conesign.cli._COMMANDS)


def cli_env():
    """The environment for a CLI subprocess: no config file, this checkout's
    sources first on the path."""
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys, expect=0):
    code, out, err = run_cli(argv, capsys)
    assert code == expect, err
    return json.loads(out)


# ------------------------------------------------------------ happy paths


def test_gb_reports_basis_and_config(files, capsys):
    doc = run_json(["gb", "--ideal", files["pair"]], capsys)
    assert set(doc) == {"config", "result", "seed"}
    assert set(doc["result"]["basis"]) == {"x*y", "y^2"}
    assert doc["result"]["order"] == "degrevlex"
    assert doc["config"]["order"] == "degrevlex"
    assert doc["config"]["characteristic"] == 0
    assert doc["seed"] == 0


def test_eliminate_command(files, capsys):
    doc = run_json(
        ["eliminate", "--ideal", files["axes"], "--drop", "z"], capsys
    )
    assert doc["result"]["variables"] == ["x", "y"]
    assert doc["result"]["generators"] == ["x*y"]


def test_saturate_command(files, capsys):
    doc = run_json(["saturate", "--ideal", files["pair"], "--by", "x"], capsys)
    assert doc["result"]["generators"] == ["y"]


def test_dim_command(files, capsys):
    doc = run_json(["dim", "--ideal", files["axes"]], capsys)
    assert doc["result"]["dimension"] == 1


def test_mincomp_command(files, capsys):
    doc = run_json(["mincomp", "--ideal", files["axes"]], capsys)
    comps = doc["result"]["components"]
    assert len(comps) == 3
    assert all(c["multiplicity"] == 1 for c in comps)
    assert all(c["primality_status"] == "certified" for c in comps)


def test_cone_command(files, capsys):
    doc = run_json(["cone", "--ideal", files["pair"]], capsys)
    comps = doc["result"]["components"]
    assert sorted(c["multiplicity"] for c in comps) == [1, 2]
    assert sorted(c["dominates"] for c in comps) == [False, True]


def test_cycle_command(files, capsys):
    doc = run_json(["cycle", "--ideal", files["pair"]], capsys)
    terms = doc["result"]["terms"]
    assert terms[0]["coeff"] == -1
    assert terms[0]["prime"] == ["y"]
    assert terms[1]["coeff"] == 2
    assert sorted(terms[1]["prime"]) == ["x", "y"]


def test_behrend_eval_on_the_axes(files, capsys):
    doc = run_json(
        ["behrend", "eval", "--ideal", files["axes"], "--point", "0,0,0"],
        capsys,
    )
    assert doc["result"]["value"] == -1
    doc = run_json(
        ["behrend", "eval", "--ideal", files["axes"], "--point", "1,0,0"],
        capsys,
    )
    assert doc["result"]["value"] == -1


def test_point_parsing_accepts_rationals(files, capsys):
    doc = run_json(
        ["behrend", "eval", "--ideal", files["parabola"],
         "--point", "1/2,1/4"],
        capsys,
    )
    assert doc["result"]["value"] == -1


def test_falsify_definite_refutation(files, capsys):
    doc = run_json(["falsify", "--ideal", files["fatline"]], capsys)
    assert doc["result"]["overall"] == "Behrend function is NOT constant"
    assert "generically reduced" in doc["result"]["witnesses"][0]["reason"]


def test_falsify_alias_matches_subcommand(files, capsys):
    code, direct, _ = run_cli(
        ["falsify", "--ideal", files["axes"], "--sign", "-1"], capsys
    )
    assert code == 0
    code, nested, _ = run_cli(
        ["behrend", "falsify", "--ideal", files["axes"], "--sign", "-1"],
        capsys,
    )
    assert code == 0
    assert direct == nested
    assert json.loads(direct)["result"]["overall"] == "necessary conditions hold"


def test_eu_command(files, capsys):
    doc = run_json(
        ["eu", "--variety", files["parabola"], "--point", "1,1"], capsys
    )
    assert doc["result"] == {
        "value": 1, "rule": "nonsingular", "primality": "certified",
    }


def test_eu_assume_prime_flag(files, capsys):
    code, _, err = run_cli(
        ["eu", "--variety", files["scone"], "--point", "0,0,0,0"], capsys
    )
    assert code == 2
    assert err.startswith("inconclusive:")
    doc = run_json(
        ["eu", "--variety", files["scone"], "--point", "0,0,0,0",
         "--assume-prime"],
        capsys,
    )
    assert doc["result"] == {
        "value": -1, "rule": "aluffi-cone", "primality": "assumed",
    }


def test_hilb_enumerate(files, capsys):
    doc = run_json(["hilb", "enumerate", "--n", "2"], capsys)
    assert doc["result"]["count"] == 3
    boxes = [p["boxes"] for p in doc["result"]["partitions"]]
    assert [[0, 0, 0], [0, 0, 1]] in boxes


def test_hilb_tangent(files, tmp_path, capsys):
    path = tmp_path / "square.ideal"
    path.write_text("ring x, y, z;\nx^2, y^2, z^2, xy, xz, yz\n")
    doc = run_json(["hilb", "tangent", "--ideal", str(path)], capsys)
    assert doc["result"] == {
        "colength": 4, "tangent_dim": 18, "parity_holds": True, "rank": 1,
    }


def test_hilb_parity_scan_json(files, capsys):
    doc = run_json(["hilb", "parity-scan", "--n", "4"], capsys)
    assert doc["result"]["count"] == 13
    assert doc["result"]["violations"] == []
    assert doc["result"]["max_tangent"] == 18


def test_hilb_parity_scan_jobs_output_matches_serial(capsys):
    code1, serial, _ = run_cli(["hilb", "parity-scan", "--n", "5", "--jobs", "1"], capsys)
    code2, parallel, _ = run_cli(["hilb", "parity-scan", "--n", "5", "--jobs", "2"], capsys)
    assert code1 == code2 == 0
    # the result object is printed byte for byte the same
    start = serial.index('"result": ')
    assert parallel[parallel.index('"result": '):] == serial[start:]
    doc1, doc2 = json.loads(serial), json.loads(parallel)
    assert (doc1["config"].pop("jobs"), doc2["config"].pop("jobs")) == (1, 2)
    assert doc1 == doc2


@pytest.mark.parametrize("argv, jobs", [
    (["--jobs", "2", "hilb", "parity-scan", "--n", "3"], 2),
    (["hilb", "parity-scan", "--n", "3", "--jobs", "2"], 2),
    # the subcommand's own value wins
    (["--jobs", "3", "hilb", "parity-scan", "--n", "3", "--jobs", "2"], 2),
    (["hilb", "parity-scan", "--n", "3"], 1),
])
def test_jobs_reaches_parity_scan_from_either_side_of_the_subcommand(
        argv, jobs, monkeypatch, capsys):
    assert parse_args(argv).jobs == (None if jobs == 1 else jobs)
    asked = []

    def serial_scan(n, jobs, bound):
        asked.append(jobs)
        return parity_scan(n, jobs=1, bound=bound)  # no pool in a test

    monkeypatch.setattr(conesign.cli, "parity_scan", serial_scan)
    doc = run_json(argv, capsys)
    assert asked == [jobs] and doc["config"]["jobs"] == jobs


def test_one_parse_leaks_nothing_into_the_next(monkeypatch, capsys):
    # a --jobs given to one call is gone in the next
    def serial_scan(n, jobs, bound):
        return parity_scan(n, jobs=1, bound=bound)  # no pool in a test

    monkeypatch.setattr(conesign.cli, "parity_scan", serial_scan)
    first = run_json(["--jobs", "2", "hilb", "parity-scan", "--n", "3"], capsys)
    second = run_json(["hilb", "parity-scan", "--n", "3"], capsys)
    assert (first["config"]["jobs"], second["config"]["jobs"]) == (2, 1)


# ------------------------------------------------------------- exit codes


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(["gb", "--ideal", "no-such-file.ideal"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_syntax_error_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.ideal"
    path.write_text("ring x, y;\ny^2 +\n")
    code, _, err = run_cli(["gb", "--ideal", str(path)], capsys)
    assert code == 1
    assert "error:" in err


def test_missing_ring_header_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "raw.ideal"
    path.write_text("y^2, x*y\n")
    code, _, _ = run_cli(["gb", "--ideal", str(path)], capsys)
    assert code == 1
    # a file of comments alone has no header line at all
    path.write_text("# only a comment\n\n# and another\n")
    code, _, err = run_cli(["gb", "--ideal", str(path)], capsys)
    assert code == 1 and err == f"error: {path}: missing ring header\n"


def test_a_ring_that_takes_every_cone_prefix_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "taken.ideal"
    path.write_text("ring x, e1, c1, w1, q1;\nx\n")
    code, out, err = run_cli(["cone", "--ideal", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: could not pick collision-free cone variable names\n"


def test_point_arity_mismatch_is_an_input_error(files, capsys):
    code, _, _ = run_cli(
        ["behrend", "eval", "--ideal", files["axes"], "--point", "0,0"],
        capsys,
    )
    assert code == 1


BAD_POINTS = ["1/0,0,0", "0,-3/00,0", "1e3,0,0", "1.,0,0", ".5,0,0",
              "inf,0,0", "nan,0,0", "1_0,0,0", "0x1,0,0", "x,0,0"]


@pytest.mark.parametrize("command", [["behrend", "eval", "--ideal"], ["eu", "--variety"]])
@pytest.mark.parametrize("point", BAD_POINTS)
def test_malformed_point_coordinates_are_input_errors(files, capsys, command, point):
    code, out, err = run_cli([*command, files["axes"], "--point", point], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_point_coordinates_are_integers_fractions_or_decimals():
    rng = ring("x, y, z, w")
    assert parse_point("1/2, -0.25,+3,-07/014", rng) == (
        Fraction(1, 2), Fraction(-1, 4), Fraction(3), Fraction(-1, 2))


def test_a_huge_exponent_in_a_point_is_rejected_at_once(files):
    # parsed as a number, the exponent would build 10^300000000 and hang
    for command in (["behrend", "eval", "--ideal"], ["eu", "--variety"]):
        run = subprocess.run(
            [sys.executable, "-m", "conesign.cli", *command, files["axes"],
             "--point", "1e300000000,0,0"],
            capture_output=True, text=True, env=cli_env(), timeout=10)
        assert run.returncode == 1
        assert run.stderr.startswith("error:") and "Traceback" not in run.stderr


def test_reports_are_byte_identical_across_hash_seeds(files, tmp_path):
    # ideals and polynomials hash through strings (variable names), so a
    # merge or a cache keyed on them must not let the hash seed reach stdout
    embedded = tmp_path / "embedded.ideal"
    embedded.write_text("ring x, y, z;\nx^2, xy, xz, yz\n", encoding="utf-8")
    commands = [["cycle", "--ideal", files["axes"]],
                ["behrend", "eval", "--ideal", files["axes"], "--point", "0,0,0"],
                ["falsify", "--ideal", str(embedded)],
                ["mincomp", "--ideal", str(embedded)]]

    def outputs(seed):
        env = {**cli_env(), "PYTHONHASHSEED": seed}
        runs = [subprocess.run([sys.executable, "-m", "conesign.cli", *command],
                               capture_output=True, env=env, timeout=60)
                for command in commands]
        assert [run.returncode for run in runs] == [0] * len(commands)
        return [run.stdout for run in runs]

    assert outputs("0") == outputs("1")


def test_infinite_colength_is_an_input_error(files, capsys):
    code, _, _ = run_cli(["hilb", "tangent", "--ideal", files["thin"]], capsys)
    assert code == 1


def test_nonpositive_jobs_is_an_input_error(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(["hilb", "parity-scan", "--n", "2", "--jobs", jobs], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("config, argv, named", [
    (None, ["--jobs", "-2", "gb", "--ideal", "pair"], "--jobs must be at least 1, got -2"),
    (None, ["--jobs=0", "hilb", "enumerate", "--n", "2"], "--jobs must be at least 1, got 0"),
    ({"jobs": 0}, ["hilb", "tangent", "--ideal", "pair"], "jobs in the config must be at least 1"),
    ({"jobs": -1}, ["hilb", "parity-scan", "--n", "2"], "jobs in the config must be at least 1"),
])
def test_nonpositive_jobs_is_refused_for_every_subcommand(files, tmp_path, monkeypatch, capsys,
                                                           config, argv, named):
    # refused before any work, and named by where it came from; a command
    # that runs no pool used to embed the bad value in its report
    if config is not None:
        cfg = tmp_path / "conesign.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out, err = run_cli([files.get(a, a) for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {named}")


@pytest.mark.parametrize("drop, named", [("w", "w"), ("x,x", "x"), ("y,w,z", "w")])
def test_eliminating_an_unknown_or_repeated_name_is_an_input_error(files, capsys, drop, named):
    code, out, err = run_cli(["eliminate", "--ideal", files["axes"], "--drop", drop], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot eliminate {named}:")


def test_saturation_by_zero_is_an_input_error(files, capsys):
    code, out, err = run_cli(["saturate", "--ideal", files["pair"], "--by", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: colon by the zero polynomial\n"


def test_unsupported_obstruction_is_inconclusive(files, capsys):
    code, _, err = run_cli(
        ["eu", "--variety", files["umbrella"], "--point", "0,0,0"], capsys
    )
    assert code == 2
    assert err.startswith("inconclusive:")


def test_undecided_falsifier_is_inconclusive(files, capsys):
    code, out, _ = run_cli(["falsify", "--ideal", files["scone"]], capsys)
    assert code == 2
    assert json.loads(out)["result"]["overall"] == "inconclusive"


UNDECIDED = "ring x, y;\nx^2 - 2, (y - x)*(y^2 - 2)\n"


@pytest.mark.parametrize("command", ["mincomp", "falsify"])
def test_an_undecided_component_without_a_multiplicity_is_inconclusive(tmp_path, command):
    # the kept component (x^2 - 2, y^2 - 2) is undecided and not prime, so
    # the multiplicities of the decomposition do not exist
    path = tmp_path / "undecided.ideal"
    path.write_text(UNDECIDED, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "conesign.cli", command, "--ideal", str(path)],
        capture_output=True, text=True, env=cli_env(), timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith("inconclusive:") and "Traceback" not in run.stderr


def test_the_cone_of_an_ideal_with_an_undecided_component_has_its_multiplicities(
        tmp_path, capsys):
    # the cone of J lies in R[e1, e2, e3] and has dimension 2, like A^2, so
    # its decomposition splits no candidate of dimension 1, and no undecided
    # one is kept beside its components.  By hand: J has length 2 at the
    # points y = x = a, a = +-sqrt 2, where it is (x - a, (y - a)^2) locally,
    # and length 1 at y = -x, where y - x is a unit
    path = tmp_path / "undecided.ideal"
    path.write_text(UNDECIDED, encoding="utf-8")
    cycle = run_json(["cycle", "--ideal", str(path)], capsys)["result"]
    assert cycle == {"terms": [{"coeff": 1, "prime": ["x + y", "y^2 - 2"]},
                               {"coeff": 2, "prime": ["x - y", "y^2 - 2"]}]}
    cone = run_json(["cone", "--ideal", str(path)], capsys)["result"]["components"]
    assert [(c["image"], c["image_dim"], c["multiplicity"], c["dominates"],
             c["primality_status"]) for c in cone] == [
        (["x + y", "y^2 - 2"], 0, 1, False, "undecided"),
        (["x - y", "y^2 - 2"], 0, 2, False, "undecided")]


def test_enumeration_bound_is_inconclusive(capsys):
    code, _, err = run_cli(["hilb", "enumerate", "--n", "9"], capsys)
    assert code == 2
    assert err.startswith("inconclusive:")


def test_exponent_bound_of_the_groebner_engine_is_inconclusive(tmp_path, capsys):
    # each power is within the parser's bound, their product is not within
    # the engine's: 33 * 1000 >= 2^15
    path = tmp_path / "tall.ideal"
    path.write_text("ring x, y;\n" + "*".join(["x^1000"] * 33) + " - y\n")
    code, out, err = run_cli(["gb", "--ideal", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("inconclusive:")


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, out, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, code, named", [
    (["gb", "--ideal", "pair", "--bogus"], 1, ["--bogus"]),
    # -1,0,0 is no negative number, so it reads as an option
    (["behrend", "eval", "--ideal", "axes", "--point", "-1,0,0"], 1, ["--point"]),
    ([], 1, ["gb", "hilb"]),
    (["behrend"], 1, ["eval", "falsify"]),
    (["hilb", "frob"], 1, ["frob"]),
    # option names are taken whole, never abbreviated
    (["gb", "--ide", "pair"], 1, ["--ide"]),
    (["gb"], 1, ["--ideal"]),
    (["hilb", "enumerate", "--n", "two"], 1, ["--n", "two"]),
    (["--order", "grevlex", "gb", "--ideal", "pair"], 1, ["--order", "grevlex"]),
    (["gb", "--ideal", "pair", "--seed", "3"], 1, ["--seed"]),
    (["gb", "--ideal", "pair", "extra"], 1, ["unrecognized argument 'extra' for conesign gb"]),
    (["eu", "--variety", "parabola", "--point", "1,1", "--assume-prime=yes"], 1,
     ["--assume-prime takes no value"]),
    (["gb", "--help"], 0, ["--ideal"]),
    (["--help"], 0, ["--seed", "--format", "gb", "behrend eval", "hilb parity-scan"]),
    (["--seed", "3", "-h"], 0, ["--jobs", "falsify"]),
    (["hilb", "--help"], 0, ["enumerate", "tangent", "parity-scan"]),
    (["behrend", "eval", "-h"], 0, ["--ideal", "--point"]),
    (["eu", "--variety", "pair", "-h"], 0, ["--variety", "--point", "--assume-prime"]),
])
def test_usage_errors_exit_1_and_help_exits_0(files, capsys, argv, code, named):
    # a usage error names the offending option or word on stderr; help
    # writes the usage to stdout.  Exit 2 is kept for exhausted budgets and
    # abstentions
    argv = [files.get(a, a) for a in argv]
    if code:
        assert main(argv) == code
        out, text = capsys.readouterr()
        assert out == "" and text.startswith("error:")
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        text, err = capsys.readouterr()
        assert err == "" and text.startswith("usage: conesign")
    assert all(word in text for word in named)


def test_a_huge_exponent_in_an_ideal_file_is_rejected_at_once(tmp_path):
    # computed, 3^99999999 would keep the parser busy for minutes
    path = tmp_path / "huge.ideal"
    path.write_text("ring x;\nx - 3^99999999\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "conesign.cli", "gb", "--ideal", str(path)],
        capture_output=True, text=True, env=cli_env(), timeout=10)
    assert run.returncode == 1
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr


@pytest.mark.parametrize("text", ["x - ((3^1000)^1000)^1000", "(x + y + z)^1000"])
def test_a_power_too_large_to_build_is_rejected_at_once(tmp_path, capsys, text):
    # every exponent is allowed, but computing the power would run on
    path = tmp_path / "large.ideal"
    path.write_text(f"ring x, y, z;\n{text}\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["gb", "--ideal", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: power too large")


def test_eu_on_a_reducible_variety_is_an_input_error(tmp_path, capsys):
    # the reduced basis (z, x*y) has the reducible element x*y: the variety
    # is the union of two lines, and the certifier splits it
    path = tmp_path / "two_lines.ideal"
    path.write_text("ring x, y, z;\nx*y, z\n", encoding="utf-8")
    code, out, err = run_cli(["eu", "--variety", str(path), "--point", "0,0,0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: variety is not integral (reducible or not reduced)")


def test_eu_on_a_non_reduced_variety_names_the_failing_condition(files, capsys):
    # (y^2, x*y) is irreducible, a line with an embedded point, but not
    # reduced: the certifier splits it along the factor y of y^2
    code, out, err = run_cli(["eu", "--variety", files["pair"], "--point", "0,0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: variety is not integral (reducible or not reduced)")
    assert "is reducible" not in err


def test_eu_on_the_unit_ideal_is_an_input_error(tmp_path, capsys):
    # the unit ideal cuts out the empty variety, which is not integral
    path = tmp_path / "unit.ideal"
    path.write_text("ring x, y;\n1\n", encoding="utf-8")
    code, out, err = run_cli(["eu", "--variety", str(path), "--point", "0,0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: variety is empty (the unit ideal)")


@pytest.mark.parametrize("give_up, reason", [
    ("draws", "hyperplane sections kept disagreeing"),
    ("cap", "Hilbert-Samuel differences did not stabilize"),
])
def test_eu_where_curve_multiplicity_gives_up_is_inconclusive(tmp_path, capsys, monkeypatch,
                                                              give_up, reason):
    # the cusp y^2 - x^3 has multiplicity 2 at the origin, and each patch
    # makes one of curve_multiplicity's two computations give up
    if give_up == "draws":
        # every drawn hyperplane disagrees with the tangent-cone degree
        monkeypatch.setattr(conesign.euler, "_hyperplane_section_length", lambda J0, line: 3)
    else:
        # three equal Hilbert-Samuel differences take the powers of the
        # maximal ideal up to the fourth, and a cap of 4 stops at the third
        monkeypatch.setattr(conesign.euler, "_CAP", 4)
    path = tmp_path / "cusp.ideal"
    path.write_text("ring x, y;\ny^2 - x^3\n", encoding="utf-8")
    code, out, err = run_cli(["eu", "--variety", str(path), "--point", "0,0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("inconclusive:") and reason in err


# ------------------------------------------------- characteristic gating


def test_char_allowed_for_groebner_level_commands(files, capsys):
    doc = run_json(["--char", "32003", "gb", "--ideal", files["pair"]], capsys)
    assert doc["config"]["characteristic"] == 32003
    assert set(doc["result"]["basis"]) == {"x*y", "y^2"}
    for argv in [
        ["--char", "7", "dim", "--ideal", files["axes"]],
        ["--char", "7", "eliminate", "--ideal", files["axes"], "--drop", "z"],
        ["--char", "7", "saturate", "--ideal", files["pair"], "--by", "x"],
    ]:
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err


def test_a_large_prime_characteristic_is_tested_at_once(files):
    # trial division of 2^61 - 1 ran for minutes; 2^61 + 1 is divisible by 3
    for char, code in ((2**61 - 1, 0), (2**61 + 1, 1)):
        run = subprocess.run(
            [sys.executable, "-m", "conesign.cli", "--char", str(char), "gb",
             "--ideal", files["pair"]],
            capture_output=True, text=True, env=cli_env(), timeout=10)
        assert run.returncode == code, run.stderr
        assert "Traceback" not in run.stderr


@pytest.mark.parametrize("path", [p for p in SAMPLES if p not in GROEBNER_LEVEL], ids=" ".join)
def test_char_rejected_elsewhere(files, capsys, no_work, path):
    code, out, err = run_cli(["--char", "7", *path, *[files.get(a, a) for a in SAMPLES[path]]],
                             capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "requires characteristic 0" in err
    assert no_work == []


@pytest.mark.parametrize("flags, config, named", [
    (["--char", "4"], None, "--char must be 0 or a prime, got 4"),
    (["--char", "1"], None, "--char must be 0 or a prime, got 1"),
    (["--char", "-7"], None, "--char must be 0 or a prime, got -7"),
    ([], {"characteristic": 4}, "characteristic in the config must be 0 or a prime, got 4"),
    (["--char", str(_PRIME_TEST_BOUND)], None, "--char must be 0 or a prime below"),
])
@pytest.mark.parametrize("path", [("dim",), ("cycle",)], ids=" ".join)
def test_a_characteristic_that_is_not_a_prime_exits_1_before_any_work(
        tmp_path, monkeypatch, capsys, flags, config, named, path):
    # the ideal file is missing, so only a check made before it is read
    # names the characteristic; the error used to be the missing file, or
    # for cycle that it requires characteristic 0
    if config is not None:
        cfg = tmp_path / "conesign.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out, err = run_cli([*flags, *path, "--ideal", str(tmp_path / "missing.ideal")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {named}")


# -------------------------------------------------------- output formats


def test_csv_parity_scan_schema(files, capsys):
    code, out, _ = run_cli(
        ["--format", "csv", "hilb", "parity-scan", "--n", "2"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition_id", "n", "tangent_dim", "parity"]
    assert len(rows) == 4
    assert all(r[1] == "2" and r[2] == "6" and r[3] == "true"
               for r in rows[1:])


@pytest.mark.parametrize("path", [p for p in SAMPLES if p not in WITH_CSV], ids=" ".join)
def test_csv_rejected_where_unavailable(files, capsys, no_work, path):
    code, out, err = run_cli(["--format", "csv", *path, *[files.get(a, a) for a in SAMPLES[path]]],
                             capsys)
    assert (code, out, err) == (1, "", "error: csv output is not available for this subcommand\n")
    assert no_work == []


@pytest.mark.parametrize("config,argv,computation,message", [
    (None, ["--format", "csv", "cone", "--ideal", "AXES"], "cone_components",
     "csv output is not available for this subcommand"),
    (None, ["--format", "csv", "hilb", "tangent", "--ideal", "AXES"], "tangent_dimension_hilb",
     "csv output is not available for this subcommand"),
    ({"output_format": "xml"}, ["cone", "--ideal", "AXES"], "cone_components",
     'output_format in the config must be one of json, csv, text, got "xml"'),
    ({"output_format": "xml"}, ["hilb", "parity-scan", "--n", "2"], "parity_scan",
     'output_format in the config must be one of json, csv, text, got "xml"'),
])
def test_a_bad_output_format_is_refused_before_any_work(files, tmp_path, monkeypatch, capsys,
                                                        config, argv, computation, message):
    calls = []
    monkeypatch.setattr(conesign.cli, computation, lambda *a, **k: calls.append(a))
    if config is not None:
        cfg = tmp_path / "conesign.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out, err = run_cli([files["axes"] if a == "AXES" else a for a in argv], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert calls == []


def test_text_format_carries_the_seed_line(files, capsys):
    code, out, _ = run_cli(
        ["--format", "text", "--seed", "11", "behrend", "eval",
         "--ideal", files["pair"], "--point", "0,0"],
        capsys,
    )
    assert code == 0
    assert "value: 1" in out
    assert out.endswith("# seed=11 order=degrevlex char=0\n")


# ---------------------------------------------------------- configuration


def test_config_file_via_environment(files, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "conesign.json"
    cfg.write_text(json.dumps({"order": "lex", "seed": 7}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    doc = run_json(["gb", "--ideal", files["parabola"]], capsys)
    assert doc["config"]["order"] == "lex"
    assert doc["seed"] == 7
    assert doc["result"]["order"] == "lex"


def test_flags_override_the_config_file(files, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "conesign.json"
    cfg.write_text(json.dumps({"seed": 7, "output_format": "text"}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    doc = run_json(
        ["--seed", "3", "--format", "json", "gb", "--ideal", files["pair"]],
        capsys,
    )
    assert doc["seed"] == 3
    assert doc["config"]["output_format"] == "json"


def test_unreadable_config_is_an_input_error(files, monkeypatch, capsys):
    monkeypatch.setenv(CONFIG_ENV, "no-such-config.json")
    code, _, err = run_cli(["gb", "--ideal", files["pair"]], capsys)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("config,argv", [
    ({"jobs": "2"}, ["hilb", "parity-scan", "--n", "2"]),
    ({"max_n": "9"}, ["hilb", "enumerate", "--n", "2"]),
    ([1], ["hilb", "parity-scan", "--n", "2"]),
    ({"jobz": 2}, ["hilb", "parity-scan", "--n", "2"]),
    ({"seed": True}, ["hilb", "enumerate", "--n", "2"]),
])
def test_malformed_config_is_an_input_error(tmp_path, monkeypatch, capsys, config, argv):
    # a mistyped value, a non-object document and an unknown key each exit 1
    # before any work, where they used to end in a traceback or be ignored
    cfg = tmp_path / "conesign.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("config, argv, named", [
    ({"max_n": -5}, ["hilb", "enumerate", "--n", "2"], "max_n in the config must be at least 1"),
    ({"max_n": 0}, ["hilb", "parity-scan", "--n", "2"], "max_n in the config must be at least 1"),
    ({"max_gb_pairs": -1}, ["gb", "--ideal", "pair"],
     "max_gb_pairs in the config must be at least 0"),
    ({"max_variables": 0}, ["dim", "--ideal", "axes"],
     "max_variables in the config must be at least 1"),
    ({"order": "grevlex"}, ["dim", "--ideal", "axes"],
     'order in the config must be one of degrevlex, lex, got "grevlex"'),
    ({"order": "grevlex"}, ["hilb", "enumerate", "--n", "2"],
     'order in the config must be one of degrevlex, lex, got "grevlex"'),
    ({"order": "grevlex"}, ["gb", "--ideal", "pair"],
     'order in the config must be one of degrevlex, lex, got "grevlex"'),
    ({"seed": 1.5}, ["gb", "--ideal", "pair"], "seed in the config must be an integer, got 1.5"),
])
def test_a_bad_config_value_exits_1_before_any_work(files, tmp_path, monkeypatch, capsys, no_work,
                                                     config, argv, named):
    # each used to run: a negative bound ended in exit 2, and an unknown
    # order was written into the reports of the commands that do not use it
    cfg = tmp_path / "conesign.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out, err = run_cli([files.get(a, a) for a in argv], capsys)
    assert (code, out, no_work) == (1, "", [])
    assert err.startswith(f"error: {named}")


def test_the_least_config_values_are_accepted(files, tmp_path, monkeypatch, capsys):
    # a one-generator ideal is its own basis, so it needs no S-pair
    cfg = tmp_path / "conesign.json"
    cfg.write_text(json.dumps({"max_n": 1, "max_variables": 2, "max_gb_pairs": 0, "jobs": 1}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    assert run_json(["gb", "--ideal", files["parabola"]], capsys)["result"]["basis"] == ["x^2 - y"]
    assert run_json(["hilb", "enumerate", "--n", "1"], capsys)["result"]["count"] == 1


def test_max_variables_refuses_a_larger_ring(files, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "conesign.json"
    cfg.write_text(json.dumps({"max_variables": 2}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    for argv in (["gb", "--ideal", files["axes"]],
                 ["eu", "--variety", files["umbrella"], "--point", "0,0,0"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "more than max_variables = 2" in err
    # a ring at the limit still runs
    doc = run_json(["gb", "--ideal", files["pair"]], capsys)
    assert doc["config"]["max_variables"] == 2


def test_max_gb_pairs_binds_on_gb(files, tmp_path, monkeypatch, capsys):
    argv = ["gb", "--ideal", files["scone"]]
    default = run_cli(argv, capsys)
    assert default[0] == 0
    cfg = tmp_path / "conesign.json"
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    # the twisted cubic's basis needs more than one S-pair
    cfg.write_text(json.dumps({"max_gb_pairs": 1}))
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("inconclusive:")
    # the default budget, set explicitly, gives the same bytes
    cfg.write_text(json.dumps({"max_gb_pairs": 500_000}))
    assert run_cli(argv, capsys) == default


# ------------------------------------------------------------ lazy sympy

# runs CLI jobs in one fresh interpreter and reports whether sympy got loaded
SYMPY_PROBE = """
import contextlib, io, json, sys
import conesign.cli
loaded_by_import = "sympy" in sys.modules
codes, outputs = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        codes.append(conesign.cli.main(argv))
    outputs.append(out.getvalue())
print(json.dumps({"loaded_by_import": loaded_by_import, "codes": codes,
                  "outputs": outputs, "loaded": "sympy" in sys.modules}))
"""


def probe_sympy(jobs):
    run = subprocess.run([sys.executable, "-c", SYMPY_PROBE, json.dumps(jobs)],
                         capture_output=True, text=True, env=cli_env(), check=True)
    return json.loads(run.stdout)


def test_sympy_stays_unloaded_on_the_cone_and_points_paths(tmp_path):
    paths = {}
    for name, text in [("axes", AXES),
                       ("fat", "ring x, y, z;\nx^2, x*y, x*z, y*z\n"),
                       ("cubic", "ring x, y, z;\nx^3 + y^3 + z^3\n"),
                       ("cusp", "ring x, y;\ny^2 - x^3\n"),
                       ("scone", SPACE_CURVE_CONE),
                       ("points", "ring x, y, z;\nx^2, x*y, y^2, z\n")]:
        paths[name] = str(tmp_path / f"{name}.ideal")
        (tmp_path / f"{name}.ideal").write_text(text, encoding="utf-8")
    jobs = []
    for name in ("axes", "fat"):
        jobs += [["cycle", "--ideal", paths[name]],
                 ["falsify", "--ideal", paths[name]],
                 ["behrend", "eval", "--ideal", paths[name], "--point", "0,0,0"]]
    jobs += [["eu", "--variety", paths["cubic"], "--point", "0,0,0"],
             ["eu", "--variety", paths["cusp"], "--point", "0,0"],
             ["gb", "--ideal", paths["scone"]],
             ["hilb", "tangent", "--ideal", paths["points"]],
             ["hilb", "parity-scan", "--n", "4"]]
    doc = probe_sympy(jobs)
    assert not doc["loaded_by_import"]
    # the fat point abstains on its Behrend value (exit 2); the rest succeed
    assert doc["codes"] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert not doc["loaded"]


def test_importing_the_cli_loads_no_process_pool():
    # a pool starts only for a parity scan with more than one worker, so
    # start-up leaves its machinery unimported
    probe = "import sys, conesign.cli; print('concurrent.futures.process' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=cli_env(), check=True)
    assert run.stdout.strip() == "False"


def test_a_cli_call_loads_no_argparse_gettext_locale_csv_or_dataclasses():
    # the command line is read from one table, the records are named tuples
    # and csv is imported by the one branch of `emit` that writes it, so a
    # CLI call pays for none of these modules
    probe = ("import contextlib, io, sys; bare = set(sys.modules); import conesign.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = conesign.cli.main(['hilb', 'enumerate', '--n', '1'])\n"
             "loaded = {'argparse', 'gettext', 'locale', 'csv', 'dataclasses'}\n"
             "print(code, sorted(loaded & (set(sys.modules) - bare)))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=cli_env(), check=True)
    assert run.stdout.strip() == "0 []"


def test_a_quartic_split_loads_sympy_and_finds_the_components(tmp_path):
    path = tmp_path / "quartic.ideal"
    path.write_text("ring x, y;\nx^4 - y^4\n", encoding="utf-8")
    doc = probe_sympy([["mincomp", "--ideal", str(path)]])
    assert doc["codes"] == [0] and doc["loaded"]
    comps = json.loads(doc["outputs"][0])["result"]["components"]
    assert sorted(c["generators"][0] for c in comps) == ["x + y", "x - y", "x^2 + y^2"]
    assert all(c["multiplicity"] == 1 for c in comps)


# ------------------------------------------------------------ determinism


def test_reports_are_byte_identical_across_runs(files):
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV}
    for argv in [
        ["behrend", "eval", "--ideal", files["axes"], "--point", "0,0,0"],
        ["falsify", "--ideal", files["axes"], "--sign", "-1"],
        ["--format", "csv", "hilb", "parity-scan", "--n", "3"],
    ]:
        cmd = [sys.executable, "-m", "conesign.cli", *argv]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
