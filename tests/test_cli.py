"""CLI behavior: exit codes, text output, and the JSON report schema."""

import contextlib
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcover import (
    Multigraph, bridge_pair, k4, parse_edge_list, petersen, prism, product_bound,
    random_regular, serialize,
)
from matchcover import GeneratorError, cli, cover, fractional, from_spec, generator_names
from matchcover.cli import main

from helpers import BOUND_TABLE


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code = main(["--format", "json"] + argv)
    out, _ = capsys.readouterr()
    return code, json.loads(out)


def test_check_positive(capsys):
    code, out, err = run(capsys, ["check", "-r", "3", "--gen", "petersen"])
    assert code == 0
    assert out == "r-graph: yes (min odd cut 3)\n"
    assert err == ""


def test_check_negative(capsys):
    code, out, err = run(capsys, ["check", "-r", "3", "--gen", "bridge_pair"])
    assert code == 1
    assert out == "r-graph: no (odd cut of value 1 < 3; witness {5, 6, 7, 8, 9})\n"
    assert err == "error: not-r-graph: min odd cut 1 < 3\n"


def test_check_beyond_the_scan_limit(capsys):
    code, out, _ = run(capsys, ["check", "-r", "3", "--gen", "random_regular:1000,3", "--seed", "0"])
    assert code == 0
    assert out == "r-graph: yes (min odd cut 3)\n"


def test_check_of_an_edgeless_header_builds_nothing(capsys, tmp_path):
    # an edgeless graph of even n has its minimum odd cut 0 at {1}, found
    # before any per-vertex list; at odd n the witness is the whole vertex set
    path = tmp_path / "edgeless.txt"
    path.write_text("2000000 0\n")
    tracemalloc.start()
    try:
        code, doc = run_json(capsys, ["check", "-r", "0", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert code == 0 and doc["result"] == {"r_graph": True, "min_odd_cut": "0", "witness": [1]}
    path.write_text("3 0\n")
    code, doc = run_json(capsys, ["check", "-r", "0", "--input", str(path)])
    assert code == 0 and doc["result"]["witness"] == [0, 1, 2]


def test_check_json_schema(capsys):
    code, rep = run_json(capsys, ["check", "-r", "3", "--gen", "bridge_pair"])
    assert code == 1
    assert sorted(rep) == [
        "certificates", "command", "exit_reason", "graph", "params", "result",
    ]
    assert rep["graph"] == {"n": 10, "m": 15, "source": "gen:bridge_pair"}
    assert rep["result"] == {
        "r_graph": False, "min_odd_cut": "1", "witness": [5, 6, 7, 8, 9],
    }
    assert rep["exit_reason"].startswith("not-r-graph:")


def test_gen_round_trip(capsys):
    code, out, _ = run(capsys, ["gen", "--gen", "k4"])
    assert code == 0
    assert parse_edge_list(out) == k4()
    assert out == serialize(k4())


def test_gen_seed_flag(capsys):
    code, out, _ = run(capsys, ["gen", "--gen", "random_regular:8,3", "--seed", "101"])
    assert code == 0
    assert parse_edge_list(out) == random_regular(8, 3, 101)


def test_gen_unknown_generator(capsys):
    code, _, _ = run(capsys, ["gen", "--gen", "mystery"])
    assert code == 2


def test_seed_given_inline_and_as_flag_is_a_generator_error(capsys):
    code, rep = run_json(capsys, ["check", "-r", "3", "--gen", "random_regular:10,3,1",
                                  "--seed", "2"])
    assert code == 2
    assert rep["exit_reason"] == "generator: seed given twice: inline 1 and seed=2"


def test_seed_for_a_seedless_generator_is_a_generator_error(capsys):
    with pytest.raises(GeneratorError, match="takes no seed"):
        from_spec("petersen", seed=5)
    code, rep = run_json(capsys, ["gen", "--gen", "petersen", "--seed", "5"])
    assert code == 2
    assert rep["exit_reason"].startswith("generator:")


def test_seed_without_a_generator_is_a_usage_error(capsys, tmp_path, clean_corpus_dir):
    graph = tmp_path / "k4.txt"
    graph.write_text(serialize(k4()))
    for source in (["--input", str(graph)], ["--corpus", str(clean_corpus_dir)]):
        code, rep = run_json(capsys, ["check", "-r", "3", *source, "--seed", "5"])
        assert code == 2, source
        assert rep["exit_reason"] == "usage: --seed feeds a generator and needs --gen"


def test_bounds_single(capsys):
    code, out, _ = run(capsys, ["bounds", "-r", "3", "-k", "2"])
    assert code == 0
    assert out.splitlines() == [
        "product bound: 3/5 (=0.6)",
        "geometric bound: 5/9 (~0.5556)",
        "small-k bound, if the generalized Berge-Fulkerson conjecture holds: 3/5 (=0.6)",
    ]
    code, rep = run_json(capsys, ["bounds", "-r", "3", "-k", "2"])
    assert code == 0
    assert (rep["result"]["small_k"], rep["result"]["small_k_hypothesis"]) == (
        "3/5", "generalized Berge-Fulkerson conjecture")
    code, rep = run_json(capsys, ["bounds", "-r", "3", "-k", "6"])
    assert code == 0 and "small_k" not in rep["result"]
    assert "small_k_hypothesis" not in rep["result"]


def _unlimited_str(f: Fraction) -> str:
    """'p/q' by Python's own int-to-str, its digit limit lifted meanwhile."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{f.numerator}/{f.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv,text,key", [
    (["bounds", "-r", "3", "-k", "7151"], "product bound: {} (~", "product"),
    (["cover", "-r", "3", "-k", "7151", "--gen", "dipole:3"], "(bound {}: yes)", "bound"),
], ids=["bounds", "cover"])
def test_rationals_past_the_int_to_str_digit_limit_print_in_full(capsys, argv, text, key):
    # k = 7151 is the least k whose product bound for r = 3 has a term of
    # more than 4300 digits, the default limit of str(int)
    full = _unlimited_str(product_bound(3, 7151))
    assert max(map(len, full.split("/"))) > 4300
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert text.format(full) in out
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["result"][key] == full


def test_bounds_table_json(capsys):
    code, rep = run_json(capsys, ["bounds", "--table"])
    assert code == 0
    rows = rep["result"]["table"]
    assert len(rows) == 24
    for row in rows:
        rational, decimal, exact = BOUND_TABLE[(row["r"], row["k"])]
        assert row["bound"] == rational
        assert row["decimal"] == decimal
        assert row["exact"] is exact


def test_bounds_table_text(capsys):
    code, out, _ = run(capsys, ["bounds", "--table"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("r=3:")
    assert "k=6: 413/429 (~0.9627)" in lines[0]
    assert "k=2: 9/20 (=0.45)" in lines[1]
    assert "k=5: 4621/6601 (~0.7)" in lines[2]


def test_bounds_usage_error(capsys):
    code, _, err = run(capsys, ["bounds", "-r", "3"])
    assert code == 2
    assert "usage" in err


def test_exact_text(capsys):
    code, out, _ = run(capsys, ["exact", "--gen", "k4", "-k", "2", "--excessive"])
    assert code == 0
    assert out.splitlines() == [
        "best 2-cover fraction: 2/3 (~0.6667) over 3 matchings; "
        "witness indices [0, 1]",
        "excessive index: 3 (witness indices [0, 1, 2])",
    ]


def test_exact_past_the_recursion_limit(capsys):
    code, out, _ = run(capsys, ["exact", "-k", "1100", "--gen", "random_regular:16,6",
                                "--seed", "7"])
    assert code == 0
    assert out.startswith("best 1100-cover fraction: 1 (=1.0) over 3576 matchings; ")


def test_exact_needs_a_task(capsys):
    code, _, err = run(capsys, ["exact", "--gen", "k4"])
    assert code == 2
    assert "exact needs -k and/or --excessive" in err


def test_cover_text(capsys):
    code, out, _ = run(capsys, ["cover", "-r", "3", "-k", "2", "--gen", "petersen"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode fast, r=3, k=2"
    assert lines[1] == "step 1: level L0 predicted 5 actual 5 covered 5"
    assert lines[3] == "step 2: level L1 predicted 4 actual 4 covered 9"
    assert lines[-1] == "covered 9/15 = 3/5 (bound 3/5: yes)"


def test_cover_json_schema(capsys):
    code, rep = run_json(
        capsys,
        ["cover", "-r", "3", "-k", "6", "--mode", "exact-lemma", "--gen", "petersen"],
    )
    assert code == 0
    assert rep["graph"] == {"n": 10, "m": 15, "source": "gen:petersen"}
    assert rep["params"] == {"r": 3, "k": 6, "mode": "exact-lemma"}
    result = rep["result"]
    assert result["covered"] == 15
    assert result["fraction"] == "1"
    assert result["bound"] == "413/429"
    assert result["bound_met"] is True
    assert result["all_l1"] is True
    assert len(result["matchings"]) == 6
    certs = rep["certificates"]
    assert [c["actual_gain"] for c in certs] == [5, 4, 3, 2, 1, 0]
    first = certs[0]
    assert first["level"] == "L1"
    assert first["membership_verified"] is True
    assert first["tight_honored"] is True
    assert first["predicted_gain"] == "5"
    assert first["stalled"] is False
    audit = first["audit"][0]
    assert audit == {
        "cardinality": 3, "clause": "= 1", "num_cuts": 10,
        "worst": 1, "status": "satisfied", "witness": None,
    }


def test_cover_cap_exhaustion(capsys):
    # cover runs at every n; only the audit's exhaustive scan has a cap
    code, _, err = run(
        capsys,
        ["audit", "-r", "3", "-k", "2", "--mode", "exact-lemma", "--gen", "prism:11"],
    )
    assert code == 3
    assert err == (
        "error: cap: audit needs an exhaustive scan; n = 22 exceeds the scan limit 20\n"
    )


@pytest.mark.parametrize("mode", ["fast", "exact-lemma"])
def test_audit_refuses_before_covering(capsys, monkeypatch, tmp_path, mode):
    def no_blossom(*_):
        raise AssertionError("audit covered a graph above the scan limit")

    monkeypatch.setattr(cover, "max_weight_perfect_matching", no_blossom)
    monkeypatch.setattr(fractional, "max_weight_perfect_matching", no_blossom)  # exact-lemma picks
    code, _, err = run(capsys, ["audit", "-r", "3", "-k", "8", "--mode", mode,
                                "--gen", "random_regular:400,3", "--seed", "0"])
    assert code == 3
    assert "exceeds the scan limit 20" in err
    # the graph is checked first: a non-r-graph above the limit still exits 1
    big = bridge_pair().edges + tuple((u + 10, v + 10) for u, v in prism(6).edges)
    (tmp_path / "bridged.txt").write_text(serialize(Multigraph(22, big)))
    code, _, err = run(capsys, ["audit", "-r", "3", "-k", "1", "--mode", mode,
                                "--input", str(tmp_path / "bridged.txt")])
    assert code == 1 and "not-r-graph" in err


@pytest.mark.parametrize("n", [20, 22])  # at and above the scan limit
@pytest.mark.parametrize("command", ["cover", "audit"])
def test_r_below_3_is_a_usage_error_before_any_work(capsys, monkeypatch, tmp_path, n, command):
    def no_blossom(*_):
        raise AssertionError("a cover with r < 3 ran")

    monkeypatch.setattr(cover, "max_weight_perfect_matching", no_blossom)
    cycle = tmp_path / "cycle.txt"
    cycle.write_text(serialize(Multigraph(n, tuple((v, (v + 1) % n) for v in range(n)))))
    for r in ("1", "2"):  # the cycle is 2-regular, not 1-regular
        code, _, err = run(capsys, [command, "-r", r, "-k", "1", "--input", str(cycle)])
        assert code == 2
        assert err == f"error: usage: r must be at least 3, got {r}\n"


def test_multicolor_text(capsys):
    code, out, _ = run(capsys, ["multicolor", "-r", "3", "--gen", "petersen"])
    assert code == 0
    assert out == "p = 2: 6 matchings (= 3*2) cover every edge exactly 2 times\n"


def test_decompose_json(capsys):
    code, rep = run_json(capsys, ["decompose", "-r", "3", "--gen", "petersen"])
    assert code == 0
    result = rep["result"]
    assert result["num_terms"] == 6
    assert result["coefficients_sum"] == "1"
    assert all(t["coefficient"] == "1/6" for t in result["terms"])


def test_bf_search_positive(capsys):
    code, out, _ = run(capsys, ["bf-search", "-r", "3", "--gen", "petersen"])
    assert code == 0
    assert "double cover found: 6 matchings (2*3)" in out


def test_bf_search_refutation(capsys):
    code, rep = run_json(capsys, ["bf-search", "-r", "3", "--gen", "bridge_pair"])
    assert code == 1
    assert rep["result"]["found"] is False
    assert rep["result"]["exhausted"] is True
    assert rep["result"]["pm_count"] == 4
    assert rep["exit_reason"].startswith("no-double-cover:")


def test_audit_command(capsys):
    code, out, _ = run(capsys, ["audit", "-r", "3", "-k", "2", "--gen", "petersen"])
    assert code == 0
    assert out == (
        "audit: 3-cuts: = 2 ok (10 cuts); 4-cuts: 0 seen, no clause; "
        "5-cuts: <= 3*k+2 = 8 ok (36 cuts)\n"
    )


def test_audit_checks_the_graph_once(capsys, monkeypatch):
    real, calls = cover.is_r_graph, []

    def counted(g, r):
        calls.append(r)
        return real(g, r)

    monkeypatch.setattr(cover, "is_r_graph", counted)
    for mode in cover.MODES:
        calls.clear()
        code, _, _ = run(capsys, ["audit", "-r", "3", "-k", "2", "--mode", mode,
                                  "--gen", "petersen"])
        assert code == 0 and calls == [3]


def test_empty_graph_decomposes_and_multicolors(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("0 0\n")
    code, out, _ = run(capsys, ["decompose", "-r", "3", "--input", str(f)])
    assert (code, out) == (0, "decomposed the uniform vector into 1 matchings "
                              "(reconstruction verified exactly)\n  1 * edges []\n")
    code, rep = run_json(capsys, ["multicolor", "-r", "3", "--input", str(f)])
    assert code == 0
    assert rep["result"] == {"p": 1, "num_matchings": 3, "matchings": [[], [], []]}


def test_audit_beyond_cap(capsys):
    code, _, err = run(capsys, ["audit", "-r", "3", "-k", "1", "--gen", "prism:11"])
    assert code == 3
    assert "cap:" in err


def test_graph_source_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["check", "-r", "3"])
    assert code == 2 and "exactly one of --gen or --input" in err

    f = tmp_path / "g.txt"
    f.write_text(serialize(k4()))
    code, _, err = run(capsys, ["check", "-r", "3", "--gen", "k4", "--input", str(f)])
    assert code == 2

    code, _, err = run(capsys, ["check", "-r", "3", "--input", str(tmp_path / "no.txt")])
    assert code == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, ["check", "-r", "3", "--input", str(bad)])
    assert code == 2 and "edge-list" in err


def test_input_file_source(capsys, tmp_path):
    f = tmp_path / "p.txt"
    f.write_text(serialize(petersen()))
    code, rep = run_json(capsys, ["check", "-r", "3", "--input", str(f)])
    assert code == 0
    assert rep["graph"]["source"] == f"file:{f}"
    assert rep["result"]["r_graph"] is True


def test_corpus_all_clean(capsys, clean_corpus_dir):
    code, out, _ = run(
        capsys, ["cover", "-r", "3", "-k", "2", "--corpus", str(clean_corpus_dir)]
    )
    assert code == 0
    assert "== k4.txt ==" in out
    assert out.splitlines()[-1] == "corpus: 3 files, 3 ok, 0 negative, 0 errors, 0 capped"


def test_corpus_with_negative(capsys, mixed_corpus_dir):
    code, rep = run_json(capsys, ["check", "-r", "3", "--corpus", str(mixed_corpus_dir)])
    assert code == 1
    assert sorted(rep) == [
        "command", "corpus", "exit_reason", "params", "reports", "summary",
    ]
    assert rep["summary"] == {"files": 3, "ok": 2, "negative": 1, "error": 0, "capped": 0}
    assert rep["exit_reason"] == "corpus-worst-exit: 1"
    # reports come back in sorted filename order
    assert [r["graph"]["source"].rsplit("/", 1)[-1] for r in rep["reports"]] == [
        "k4.txt", "petersen.txt", "zbridge.txt",
    ]


def test_corpus_with_parse_error(capsys, broken_corpus_dir):
    code, rep = run_json(capsys, ["check", "-r", "3", "--corpus", str(broken_corpus_dir)])
    assert code == 2
    assert rep["summary"] == {"files": 2, "ok": 1, "negative": 0, "error": 1, "capped": 0}


def test_corpus_missing_directory(capsys, tmp_path):
    code, _, _ = run(capsys, ["check", "-r", "3", "--corpus", str(tmp_path / "nope")])
    assert code == 2


def test_text_and_json_agree_numerically(capsys):
    _, rep = run_json(capsys, ["cover", "-r", "3", "-k", "3", "--gen", "petersen"])
    code, out, _ = run(capsys, ["cover", "-r", "3", "-k", "3", "--gen", "petersen"])
    assert code == 0
    assert f"= {rep['result']['fraction']} " in out.splitlines()[-1]
    assert f"(bound {rep['result']['bound']}:" in out.splitlines()[-1]


def test_console_script_installed(capsys):
    """The console script declared in pyproject.toml runs `check` as its own
    process.  When an installed distribution exposes it, the entry must
    match the declaration and the executable on PATH is run; otherwise the
    declared target is run the way the generated wrapper runs it, with the
    repository's `src` first on PYTHONPATH."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["scripts"]["matchcover"]
    try:
        entries = importlib.metadata.distribution("matchcover").entry_points
    except importlib.metadata.PackageNotFoundError:
        entries = ()
    installed = next((ep for ep in entries if ep.group == "console_scripts"
                      and ep.name == "matchcover"), None)
    env = None
    if installed is not None:
        assert installed.value == declared
        exe = shutil.which("matchcover")
        assert exe, "console script should be on PATH after installation"
        cmd = [exe]
    else:
        module, _, attr = declared.partition(":")
        cmd = [sys.executable, "-c",
               f"import sys; from {module} import {attr}; sys.exit({attr}())"]
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        cmd + ["check", "-r", "3", "--gen", "petersen"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "r-graph: yes (min odd cut 3)\n"


def _cli_process(argv, stdout):
    """Exit code and stderr of the CLI run as its own process, writing to stdout."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-m", "matchcover.cli"] + argv, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, env=env)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("case", ["single", "corpus-clean", "corpus-mixed"])
def test_closed_pipe_keeps_the_exit_code(clean_corpus_dir, mixed_corpus_dir, case):
    """A reader that is gone before the report is printed gets no traceback,
    and the run exits with the code it has with a readable stdout."""
    argv = {
        "single": ["gen", "--gen", "petersen"],
        "corpus-clean": ["check", "-r", "3", "--corpus", str(clean_corpus_dir)],
        "corpus-mixed": ["--format", "json", "check", "-r", "3",
                         "--corpus", str(mixed_corpus_dir)],
    }[case]
    code, _ = _cli_process(argv, subprocess.DEVNULL)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed_code, err = _cli_process(argv, write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
    assert closed_code == code == (1 if case == "corpus-mixed" else 0)


def _boom(g, args):
    raise AssertionError("boom")


def test_internal_error_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "check", _boom)
    code, out, err = run(capsys, ["check", "-r", "3", "--gen", "petersen"])
    assert code == 4
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("AssertionError: boom\nerror: internal: AssertionError: boom\n")

    code = main(["--format", "json", "check", "-r", "3", "--gen", "petersen"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "Traceback" in err
    rep = json.loads(out)
    assert rep["exit_reason"] == "internal: AssertionError: boom"
    assert rep["graph"] == {"n": 10, "m": 15, "source": "gen:petersen"}
    assert rep["result"] == {} and rep["certificates"] == []


def test_internal_error_in_corpus_counts_and_continues(capsys, monkeypatch,
                                                       mixed_corpus_dir):
    check = cli._COMMANDS["check"]
    monkeypatch.setitem(cli._COMMANDS, "check",
                        lambda g, args: _boom(g, args) if g.m == 6 else check(g, args))
    code, rep = run_json(capsys, ["check", "-r", "3", "--corpus", str(mixed_corpus_dir)])
    assert code == 4
    assert rep["summary"] == {"files": 3, "ok": 1, "negative": 1, "error": 1, "capped": 0}
    assert [r["exit_reason"].split(":")[0] for r in rep["reports"]] == [
        "internal", "ok", "not-r-graph",
    ]
    assert rep["exit_reason"] == "corpus-worst-exit: 4"


def test_corpus_excludes_other_sources(capsys, clean_corpus_dir, tmp_path):
    corpus = ["--corpus", str(clean_corpus_dir)]
    reason = "usage: --corpus cannot be combined with --gen or --input"
    for source in (["--gen", "petersen"], ["--input", str(tmp_path / "none.txt")],
                   ["--gen", "petersen", "--input", str(tmp_path / "none.txt")]):
        code, out, err = run(capsys, ["check", "-r", "3"] + source + corpus)
        assert (code, out, err) == (2, "", f"error: {reason}\n")
        code, rep = run_json(capsys, ["check", "-r", "3"] + corpus + source)
        assert code == 2
        assert rep["exit_reason"] == reason
        assert rep["graph"] is None and rep["result"] == {}


def _bytes_of(capsysbinary, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out, err = capsysbinary.readouterr()
    return code, out, err


def test_cached_parser_gives_the_bytes_of_a_fresh_parser(capsysbinary):
    bad = ["cover", "-r", "3", "--gen", "petersen"]  # no -k: argparse exits 2
    good = ["cover", "-r", "3", "-k", "3", "--gen", "petersen"]
    fresh = []
    for argv in (bad, good):
        cli.build_parser.cache_clear()
        fresh.append(_bytes_of(capsysbinary, argv))
    assert [code for code, _, _ in fresh] == [2, 0]
    cli.build_parser.cache_clear()
    cached = [_bytes_of(capsysbinary, argv) for argv in (bad, good, good)]
    assert cli.build_parser.cache_info().hits == 2
    assert cached == [fresh[0], fresh[1], fresh[1]]


def test_negative_pm_cap_is_a_usage_error(capsysbinary):
    for cap in ("-3", "x"):  # below zero, and not an integer at all
        code, out, err = _bytes_of(capsysbinary, ["exact", "-k", "2", "--gen", "petersen",
                                                  "--pm-cap", cap])
        assert (code, out) == (2, b"")
        assert f"argument --pm-cap: expected a non-negative integer, got '{cap}'".encode() in err
    # zero is a cap, not an error: Petersen's six matchings pass it
    code, _, err = _bytes_of(capsysbinary, ["exact", "-k", "2", "--gen", "petersen",
                                            "--pm-cap", "0"])
    assert code == 3 and b"passed the cap of 0" in err


def test_removed_cap_flags_are_unknown_arguments(capsysbinary):
    # one scan limit, oddcuts.SCAN_LIMIT; --pm-cap only where enumeration honours it
    for argv, flag in [
        (["cover", "-r", "3", "-k", "2"], ["--odd-cap", "20"]),
        (["cover", "-r", "3", "-k", "2"], ["--pm-cap", "9"]),
        (["audit", "-r", "3", "-k", "2"], ["--odd-cap", "20"]),
        (["audit", "-r", "3", "-k", "2"], ["--pm-cap", "9"]),
        (["exact", "-k", "2"], ["--odd-cap", "20"]),
        (["decompose", "-r", "3"], ["--odd-cap", "20"]),
        (["decompose", "-r", "3"], ["--pm-cap", "9"]),
        (["multicolor", "-r", "3"], ["--odd-cap", "20"]),
        (["multicolor", "-r", "3"], ["--pm-cap", "9"]),
        (["bf-search", "-r", "3"], ["--odd-cap", "20"]),
    ]:
        code, out, err = _bytes_of(capsysbinary, argv + ["--gen", "petersen"] + flag)
        assert (code, out) == (2, b"")
        assert f"unrecognized arguments: {' '.join(flag)}".encode() in err


# Every action of the parser, in order: option strings, dest, required,
# default, type name, choices, metavar, help.
_HELP = (("-h", "--help"), "help", False, "==SUPPRESS==", None, None, None,
         "show this help message and exit")
_R = (("-r",), "r", True, None, "int", None, None, None)
_K = (("-k",), "k", True, None, "int", None, None, None)
_MODE = (("--mode",), "mode", False, "fast", None, ("fast", "exact-lemma"), None, None)
_GRAPH = (
    (("--gen",), "gen", False, None, None, None, "NAME[:P1,P2]",
     "generator spec; one of: bridge_pair, dipole, k33, k4, petersen, prism, random_regular"),
    (("--input",), "input", False, None, None, None, "FILE", "edge-list file"),
    (("--corpus",), "corpus", False, None, None, None, "DIR",
     "run over every edge-list file in DIR"),
    (("--seed",), "seed", False, None, "int", None, None, "seed for random generators"),
)
_PM_CAP = (("--pm-cap",), "pm_cap", False, 100000, "_cap", None, None,
           "max perfect matchings to enumerate (default 100000)")
PARSER_SPEC = {
    None: [
        _HELP,
        (("--format",), "format", False, "text", None, ("text", "json"), None, None),
        ((), "command", True, None, None,
         ("gen", "check", "cover", "exact", "bounds", "decompose", "multicolor",
          "bf-search", "audit"), None, None),
    ],
    "gen": [
        _HELP,
        (("--gen",), "gen", True, None, None, None, "NAME[:P1,P2]", None),
        (("--seed",), "seed", False, None, "int", None, None, None),
    ],
    "check": [_HELP, _R, *_GRAPH],
    "cover": [_HELP, _R, _K, _MODE, *_GRAPH],
    "exact": [
        _HELP,
        (("-k",), "k", False, None, "int", None, None, None),
        (("--excessive",), "excessive", False, False, None, None, None,
         "also compute the minimum full-cover size"),
        *_GRAPH,
        _PM_CAP,
    ],
    "bounds": [
        _HELP,
        (("-r",), "r", False, None, "int", None, None, None),
        (("-k",), "k", False, None, "int", None, None, None),
        (("--table",), "table", False, False, None, None, None,
         "print the full bound table (r=3,4,5; k=2..9)"),
    ],
    "decompose": [_HELP, _R, *_GRAPH],
    "multicolor": [_HELP, _R, *_GRAPH],
    "bf-search": [_HELP, _R, *_GRAPH, _PM_CAP],
    "audit": [_HELP, _R, _K, _MODE, *_GRAPH],
}


def _action_spec(parser):
    return [
        (tuple(a.option_strings), a.dest, a.required, a.default,
         getattr(a.type, "__name__", None),
         tuple(a.choices) if a.choices is not None else None, a.metavar, a.help)
        for a in parser._actions
    ]


def test_parser_matches_its_spec():
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    assert list(subparsers) == list(PARSER_SPEC)[1:]
    assert _action_spec(parser) == PARSER_SPEC[None]
    for name, sub in subparsers.items():
        assert _action_spec(sub) == PARSER_SPEC[name], name



@st.composite
def fuzzed_runs(draw):
    """(edge-list text, argv) for any subcommand; argv reads the graph from
    the file FILE, now and then with a --seed it has no use for.  The text
    is a random small multigraph of any degrees and parity, with parallel
    edges; an r-graph, whose r the argv mostly asks for; or, now and then,
    malformed text."""
    r = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["multigraph", "r-graph", "malformed"]))
    if kind == "malformed":
        text = draw(st.text(alphabet="0123456789 -#x\n", max_size=24))
    elif kind == "r-graph":
        n, degree = 2 * draw(st.integers(1, 4)), draw(st.integers(1, 6))
        text = serialize(random_regular(n, degree, draw(st.integers(0, 99))))
        r = degree if draw(st.integers(0, 3)) else r
    else:
        n = draw(st.integers(0, 8))
        ends = st.integers(0, max(n - 1, 0))
        edges = [(u, v) for u, v in draw(st.lists(st.tuples(ends, ends), max_size=12))
                 if u != v or draw(st.integers(0, 9)) == 0]
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    r, k = ["-r", str(r)], ["-k", str(draw(st.integers(0, 5)))]
    graph, pm_cap = ["--input", "FILE"], ["--pm-cap", "200"]
    if command == "gen":
        params = ",".join(map(str, draw(st.lists(st.integers(-1, 8), max_size=3))))
        argv = ["--gen", f"{draw(st.sampled_from(generator_names() + ('nope',)))}:{params}"]
    elif command == "bounds":
        argv = r + k
    elif command == "check":
        argv = r + graph
    elif command in ("cover", "audit"):
        argv = r + k + ["--mode", draw(st.sampled_from(cover.MODES))] + graph
    elif command == "exact":
        argv = k + ["--excessive"] * draw(st.booleans()) + graph + pm_cap
    elif command == "bf-search":
        argv = r + graph + pm_cap
    else:  # decompose, multicolor
        argv = r + graph
    if "FILE" in argv and draw(st.integers(0, 3)) == 0:
        argv += ["--seed", str(draw(st.integers(0, 99)))]
    return text, ["--format", draw(st.sampled_from(["text", "json"])), command] + argv


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.txt"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(run=fuzzed_runs())
def test_fuzzed_invocations_never_end_in_an_internal_error(fuzz_file, run):
    text, argv = run
    fuzz_file.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([str(fuzz_file) if a == "FILE" else a for a in argv])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), err.getvalue()
