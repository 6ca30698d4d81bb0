"""Tests of the benchmark itself (not of matchcover).

    python3 -m pytest perfbench -q

Smoke runs use the tiny ladders, so they check plumbing, metric names
and the gate, not timings.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

run.import_program()

import gate  # noqa: E402
import matchcover  # noqa: E402
import matchcover.cli  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, tmp_path, trace=False):
    result, _ = run.run_workload(workload, 5, 0.05, trace, scale="tiny", out_dir=tmp_path)
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    before = matchcover.greedy_cover
    result = tiny(workload, tmp_path, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert matchcover.greedy_cover is before  # tracing wrappers removed
    if trace:
        assert (tmp_path / f"spans-{workload}-seed5.json").is_file()
    else:
        assert result["attempted"] >= run.MIN_JOBS


def _drop_last_matching(orig):
    def corrupted(*args, **kwargs):
        rep = orig(*args, **kwargs)
        state = dataclasses.replace(rep.state, matchings=rep.state.matchings[:-1])
        return dataclasses.replace(rep, state=state)
    return corrupted


def test_dropped_matching_trips_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(matchcover, "greedy_cover", _drop_last_matching(matchcover.greedy_cover))
    result = tiny("cover-fast", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_dropped_matching_in_cli_output_trips_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(matchcover.cli, "greedy_cover",
                        _drop_last_matching(matchcover.cli.greedy_cover))
    result = tiny("cover-desk", tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0


def test_perturbed_coefficient_trips_the_gate(tmp_path, monkeypatch):
    orig = matchcover.decompose

    def corrupted(*args, **kwargs):
        dec = orig(*args, **kwargs)
        (m, c), *rest = dec.terms
        return dataclasses.replace(dec, terms=((m, c + Fraction(1, 997)), *rest))

    monkeypatch.setattr(matchcover, "decompose", corrupted)
    result = tiny("decompose", tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0


def test_raising_job_counts_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(matchcover, "multicoloring", broken)
    result = tiny("decompose", tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_reference_digest_mismatch_trips_the_gate():
    job = workloads.build_rounds("cover-fast", 5, "tiny")[0][0]
    raw = workloads.run_job(job)
    assert gate.Gate().check(job, raw) == []
    assert gate.Gate({job.index: "0" * 16}).check(job, raw) != []


def test_changed_generator_aborts_on_pinned_and_unpinned_seeds(monkeypatch):
    pins = run.load_pins()
    pinned = workloads.input_digest(workloads.build_rounds("decompose", 0))
    run.check_pins("decompose", 0, pinned, pins)
    orig = matchcover.random_regular
    monkeypatch.setattr(matchcover, "random_regular",
                        lambda n, r, seed: orig(n, r, seed + 1))
    moved = workloads.input_digest(workloads.build_rounds("decompose", 0))
    with pytest.raises(run.BenchError):
        run.check_pins("decompose", 0, moved, pins)
    with pytest.raises(run.BenchError):
        run.check_pins("decompose", 10**6, moved, pins)


def test_exits_nonzero_without_result_when_source_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "decompose",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
