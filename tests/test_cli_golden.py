"""Byte-for-byte CLI output against a recorded table.

Every invocation in CASES runs in text and in JSON format, and its exit
code, stdout and stderr must equal the entry recorded in
`cli_golden.json`.  The invocations cover each subcommand's positive and
negative paths, the usage errors, the cap exits and corpus mode.  Input
files live in a temporary directory, written as <TMP> in the argument
lists and in the recorded output.

After an intended change of output, record the table again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from matchcover import bridge_pair, k4, petersen, prism, serialize
from matchcover.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
TMP = "<TMP>"

CASES = [
    "gen --gen k4",
    "gen --gen random_regular:8,3 --seed 101",
    "gen --gen mystery",
    "check -r 3 --gen petersen",
    "check -r 3 --gen bridge_pair",
    "check -r 4 --gen petersen",
    "check -r 3 --gen random_regular:10,3 --seed 5",
    "check -r 3 --input <TMP>/petersen.txt",
    "check -r 3 --input <TMP>/empty.txt",
    "check -r 3",
    "check -r 3 --gen k4 --input <TMP>/k4.txt",
    "check -r 3 --input <TMP>/missing.txt",
    "check -r 3 --input <TMP>/bad.txt",
    "cover -r 3 -k 2 --gen petersen",
    "cover -r 3 -k 6 --mode exact-lemma --gen petersen",
    "cover -r 3 -k 2 --gen bridge_pair",
    "cover -r 3 -k 2 --mode exact-lemma --gen prism:11",
    "exact -k 2 --excessive --gen k4",
    "exact --gen k4",
    "exact --excessive --gen bridge_pair",
    "exact -k 2 --gen petersen --pm-cap 3",
    "bounds -r 3 -k 2",
    "bounds -r 4 -k 9",
    "bounds --table",
    "bounds -r 3",
    "bounds -r 2 -k 2",
    "decompose -r 3 --gen k4",
    "decompose -r 3 --gen bridge_pair",
    "decompose -r 3 --gen random_regular:50,3 --seed 0",
    "multicolor -r 3 --gen petersen",
    "multicolor -r 3 --gen bridge_pair",
    "bf-search -r 3 --gen petersen",
    "bf-search -r 3 --gen bridge_pair",
    "audit -r 3 -k 2 --gen petersen",
    "audit -r 3 -k 2 --gen bridge_pair",
    "audit -r 3 -k 1 --gen prism:11",
    "cover -r 3 -k 2 --corpus <TMP>/clean",
    "check -r 3 --corpus <TMP>/mixed",
    "cover -r 3 -k 2 --corpus <TMP>/mixed",
    "check -r 3 --corpus <TMP>/broken",
    "check -r 3 --corpus <TMP>/nope",
    "check -r 3 --corpus <TMP>/hollow",
    "cover -r 3 -k 2 --gen random_regular:8,3,3",
    "audit -r 3 -k 2 --gen random_regular:8,3,3",
    "check -r 3 --input <TMP>/petersen.txt --seed 5",
    "check -r 3 --corpus <TMP>/clean --gen k4",
    "check -r 0 --input <TMP>/single.txt",
]

INVOCATIONS = [fmt + case for case in CASES for fmt in ("", "--format json ")]


def make_inputs(root: Path) -> None:
    """The files and corpus directories the cases read."""
    (root / "petersen.txt").write_text(serialize(petersen()))
    (root / "k4.txt").write_text(serialize(k4()))
    (root / "empty.txt").write_text("0 0\n")
    (root / "single.txt").write_text("1 0\n")
    (root / "bad.txt").write_text("not a graph\n")
    corpora = {
        "clean": [("k4.txt", k4()), ("petersen.txt", petersen()), ("prism5.txt", prism(5))],
        "mixed": [("k4.txt", k4()), ("petersen.txt", petersen()),
                  ("zbridge.txt", bridge_pair())],
        "broken": [("k4.txt", k4()), (".hidden", petersen())],
        "hollow": [],
    }
    for name, files in corpora.items():
        d = root / name
        d.mkdir()
        for fname, g in files:
            (d / fname).write_text(serialize(g))
    (root / "broken" / "mangled.txt").write_text("3 1\n0 0\n")


def invoke(invocation: str, root: Path) -> dict:
    """Run one invocation in-process; paths under root read back as <TMP>."""
    argv = invocation.replace(TMP, str(root)).split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(root), TMP),
        "stderr": err.getvalue().replace(str(root), TMP),
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    make_inputs(root)
    return root


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_table_matches_cases(golden):
    assert list(golden) == INVOCATIONS


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_cli_output_is_byte_identical(invocation, inputs, golden):
    assert invoke(invocation, inputs) == golden[invocation]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        make_inputs(root)
        table = {inv: invoke(inv, root) for inv in INVOCATIONS}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
