"""The bytes of every report stay fixed: each command path, in each output
format, on the fixtures of `test_cli.py`, gives a recorded sha256 of its
stdout, exit code and first word of stderr.  A format a path does not
offer is recorded as its refusal.  Regenerate a hash only for a change
that means to change a report."""

import hashlib

import pytest

import conesign.cli
from conesign.cli import CONFIG_ENV, main
from test_cli import AXES, FATLINE, PAIR, PARABOLA, SPACE_CURVE_CONE

SQUARE = "ring x, y, z;\nx^2, y^2, z^2, xy, xz, yz\n"
FILES = {"AXES": AXES, "PAIR": PAIR, "FATLINE": FATLINE, "PARABOLA": PARABOLA,
         "SCONE": SPACE_CURVE_CONE, "SQUARE": SQUARE}

# command line (file names in capitals) -> {format: (sha256 of stdout, its
# first 16 hex digits; exit code; first word of stderr)}
GOLDEN = {
    "gb --ideal PAIR": {
        "json": ("be0cbf68d20bf70e", 0, ""),
        "text": ("e458207db1040395", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "--order lex gb --ideal PARABOLA": {
        "json": ("8199b8fc36c60687", 0, ""),
        "text": ("682d7d051e3924b8", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "--char 7 gb --ideal PAIR": {
        "json": ("737daeb35fe727cf", 0, ""),
        "text": ("cba360b85a1894de", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "--seed 5 --char 32003 gb --ideal SCONE": {
        "json": ("1d174747cdce8a07", 0, ""),
        "text": ("51ca3504af6708af", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "eliminate --ideal AXES --drop z": {
        "json": ("27b5136016eb98d4", 0, ""),
        "text": ("03aef86dad58afed", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "--char 7 eliminate --ideal AXES --drop z": {
        "json": ("3e8580f5a6f440f1", 0, ""),
        "text": ("46a7747eaa37164e", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "saturate --ideal PAIR --by x": {
        "json": ("c33a55ee6c12363f", 0, ""),
        "text": ("6663976601105e94", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "--char 7 saturate --ideal PAIR --by x": {
        "json": ("d96a876057e0f68a", 0, ""),
        "text": ("dcef26e2ffefe918", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "dim --ideal AXES": {
        "json": ("3413af5461a93e1a", 0, ""),
        "text": ("bd6c7fa55dec257a", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "--char 7 dim --ideal AXES": {
        "json": ("d6b05d0d049eb47a", 0, ""),
        "text": ("fe947585f2cde9e8", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "mincomp --ideal AXES": {
        "json": ("0ae7fed2c256e4bc", 0, ""),
        "text": ("38f2f5a853330df8", 0, ""),
        "csv": ("351ce39e0aed6319", 0, ""),
    },
    "cone --ideal PAIR": {
        "json": ("7f5ca0aa3d5ad9f3", 0, ""),
        "text": ("56eba081a80315ad", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "cycle --ideal PAIR": {
        "json": ("9969cbe57996078e", 0, ""),
        "text": ("3f7d71849134615a", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "eu --variety PARABOLA --point 1,1": {
        "json": ("b346dfd0a17eb0c7", 0, ""),
        "text": ("395b6068fe0d33bb", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "eu --variety SCONE --point 0,0,0,0": {
        "json": ("e3b0c44298fc1c14", 2, "inconclusive:"),
        "text": ("e3b0c44298fc1c14", 2, "inconclusive:"),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "eu --variety SCONE --point 0,0,0,0 --assume-prime": {
        "json": ("3a090dfa5aa9f84f", 0, ""),
        "text": ("66e012bd5bf6c16a", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "behrend eval --ideal AXES --point 0,0,0": {
        "json": ("75b4662e78488fc8", 0, ""),
        "text": ("3ed9ed4593ce96ae", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "behrend eval --ideal PARABOLA --point 1/2,1/4": {
        "json": ("99b2f4ce8a564b6a", 0, ""),
        "text": ("f248e1b02d4837a8", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "behrend falsify --ideal AXES --sign -1": {
        "json": ("a4a0f3a96f30de7b", 0, ""),
        "text": ("49801e4404b7042b", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "falsify --ideal FATLINE": {
        "json": ("afa707509877a52e", 0, ""),
        "text": ("c4193860248eb2f5", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "falsify --ideal SCONE": {
        "json": ("2d091e1c7383f04c", 2, ""),
        "text": ("45e90cee3833afca", 2, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "hilb enumerate --n 2": {
        "json": ("85bc1ba8ed00bda9", 0, ""),
        "text": ("0b88eac2839a6941", 0, ""),
        "csv": ("77cf137429ffe661", 0, ""),
    },
    "hilb tangent --ideal SQUARE": {
        "json": ("2b2eb9e99be17326", 0, ""),
        "text": ("16dc083079cb0d70", 0, ""),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "hilb parity-scan --n 3": {
        "json": ("47ef57e33bb81925", 0, ""),
        "text": ("074cc301767b4d59", 0, ""),
        "csv": ("76092ea9b6d43e8e", 0, ""),
    },
    "--char 7 cone --ideal PAIR": {
        "json": ("e3b0c44298fc1c14", 1, "error:"),
        "text": ("e3b0c44298fc1c14", 1, "error:"),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "--char 7 hilb parity-scan --n 2": {
        "json": ("e3b0c44298fc1c14", 1, "error:"),
        "text": ("e3b0c44298fc1c14", 1, "error:"),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "--char 7 behrend falsify --ideal AXES": {
        "json": ("e3b0c44298fc1c14", 1, "error:"),
        "text": ("e3b0c44298fc1c14", 1, "error:"),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
    "frobnicate": {
        "json": ("e3b0c44298fc1c14", 1, "error:"),
        "text": ("e3b0c44298fc1c14", 1, "error:"),
        "csv": ("e3b0c44298fc1c14", 1, "error:"),
    },
}


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in FILES.items():
        path = tmp_path / f"{name.lower()}.ideal"
        path.write_text(text, encoding="utf-8")
        out[name] = str(path)
    return out


def outcome(line, fmt, files, capsys):
    argv = ["--format", fmt] + [files.get(w, w) for w in line.split()]
    code = main(argv)
    out, err = capsys.readouterr()
    return hashlib.sha256(out.encode()).hexdigest()[:16], code, err.split(" ", 1)[0]


def test_every_command_path_is_pinned():
    paths = set()
    for line in GOLDEN:
        words = line.split()
        while words[0].startswith("--"):  # the global options
            words = words[2:]
        paths.add(tuple(words[:2]) if tuple(words[:2]) in conesign.cli._COMMANDS
                  else tuple(words[:1]))
    assert paths >= set(conesign.cli._COMMANDS)


@pytest.mark.parametrize("line, fmt", [(line, fmt) for line, runs in GOLDEN.items()
                                       for fmt in runs])
def test_report_bytes_are_pinned(files, capsys, line, fmt):
    assert outcome(line, fmt, files, capsys) == GOLDEN[line][fmt]
