"""The README agrees with the code: the library quick tour runs as written
and says what it returns, the CLI transcripts print what they show, the
layout names every module, the exit codes name every reason, and the
golden table's size is the one stated."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

from matchcover.cli import _EXITS, main

import test_cli_golden

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_runs_and_matches_its_comments():
    ns = {}
    exec(compile(quick_tour(), str(README), "exec"), ns)
    assert ns["ok"] is True
    assert (ns["cut"].value, ns["cut"].witness) == (3, {1})
    report = ns["report"]
    assert report.fraction == 1 and len(report.state.covered) == 15
    assert report.bound == Fraction(413, 429)
    assert len(report.matchings) == 6
    # the first matching is picked again at step 6, so the edges are used
    # 1 to 3 times: not a double cover
    assert report.matchings[5] == report.matchings[0] and len(set(report.matchings)) == 5
    uses = [sum(e in m.edge_ids for m in report.matchings) for e in range(15)]
    assert (min(uses), max(uses)) == (1, 3)
    assert "# 6, the first picked twice: no double cover" in quick_tour()
    assert set(ns["w"].values) == {Fraction(1, 3)}
    assert len(ns["dec"].terms) == 6
    mc = ns["mc"]
    assert (mc.p, len(mc.matchings)) == (2, 6)
    g = ns["g"]
    assert ns["m_exact"](g, 3).fraction == Fraction(4, 5)
    assert ns["excessive_index"](g).value == 5


def test_cli_transcripts_print_what_they_show(capsys):
    """Every `$ matchcover ...` line of a fenced block runs through the CLI,
    exits 0 and prints the lines below it, up to a blank line; a
    transcript that shows no output (`bounds --table`) only has to exit 0."""
    text = README.read_text()
    blocks = re.split(r"^```.*\n", text, flags=re.MULTILINE)[1::2]
    transcripts = [t for block in blocks
                   for t in re.findall(r"^\$ matchcover (.*)\n((?:[^$\n].*\n)*)",
                                       block, re.MULTILINE)]
    assert len(transcripts) == text.count("$ matchcover ")
    for command, shown in transcripts:
        code = main(shlex.split(command))
        out = capsys.readouterr().out
        assert code == 0, command
        if shown:
            assert out == shown, command


def test_layout_names_every_module():
    text = README.read_text()
    section = text[text.index("## Layout"):]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    named = set(re.findall(r"^  (\w+\.py) ", block, re.MULTILINE))
    src = README.parent / "src" / "matchcover"
    assert named == {p.name for p in src.glob("*.py")} - {"__init__.py"}


def test_exit_codes_name_every_reason():
    """Each exit code's bullet names the prefix of every reason that takes
    that code: the classified exceptions in `cli._EXITS`, and every reason
    a recorded JSON report shows, which includes each handler's negative
    answer."""
    text = README.read_text()
    section = text[text.index("Exit codes, each with"):]
    section = section[:section.index("\n\n", section.index("\n- 0:"))]
    named = {
        int(code): set(re.findall(r"`([a-z-]+)", item))
        for code, item in re.findall(r"^- (\d): (.*?)(?=^- |\Z)", section,
                                     re.MULTILINE | re.DOTALL)
    }
    expected = {(code, prefix) for _, code, prefix in _EXITS}
    golden = json.loads((README.parent / "tests" / "cli_golden.json").read_text())
    for invocation, run in golden.items():
        if invocation.startswith("--format json") and run["stdout"]:
            report = json.loads(run["stdout"])
            if "reports" not in report:  # a corpus batch exits with its worst file's code
                expected.add((run["code"], report["exit_reason"].split(":")[0]))
    negatives = ("not-r-graph", "bound-unmet", "no-double-cover", "audit-violation")
    assert {(1, reason) for reason in negatives} <= expected
    assert {(c, p) for c, prefixes in named.items() for p in prefixes} >= expected


def test_golden_invocation_count():
    text = README.read_text()
    stated = re.search(r"`tests/test_cli_golden.py` pins .*?(\d+) invocations", text, re.DOTALL)
    assert int(stated.group(1)) == len(test_cli_golden.CASES)
