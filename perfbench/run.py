#!/usr/bin/env python3
"""Seeded benchmark for matchcover.

    python3 perfbench/run.py --workload cover-fast --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the repository root; matchcover is imported from ./src.  One
process, one thread, one caller submitting jobs back to back (a closed
loop), as the library and CLI are used in batch.

A run sets up (import, seeded input generation, input files, one
warm-up job; the last three repeated and the median kept), checks the
job list against perfbench/pins.json, then either times whole rounds of
jobs for --seconds (--trace 0: end-to-end metrics) or runs a fixed
prefix of rounds untraced and then traced (--trace 1: per-layer
metrics, tracing overhead, spans written to .perfbench/).  Times in the
end-to-end metrics and the tracing overhead are scaled to a fixed
machine speed with the probe in speed.py; raw times are printed beside
them.  Every output goes through the gate in gate.py as soon as its job
returns.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Exit code 1, with no result, when matchcover's source is missing or
the seeded inputs differ from the pinned ones.
"""

from __future__ import annotations

import os

# One thread: keep numpy's BLAS pools from starting workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINS = HERE / "pins.json"

WORKLOADS = ("cover-fast", "cover-desk", "decompose")
DEFAULT_SECONDS = 30
MIN_JOBS = 20  # at least 10 samples beyond the median
SETUP_REPEATS = 3


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def import_program() -> float:
    """Import matchcover from ./src (and the job code); return the seconds it took."""
    init = SRC / "matchcover" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no matchcover package at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    matchcover = importlib.import_module("matchcover")
    importlib.import_module("workloads")
    elapsed = time.perf_counter() - start
    if Path(matchcover.__file__).resolve() != init.resolve():
        raise BenchError(f"imported matchcover from {matchcover.__file__}, not {init}")
    return elapsed


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def check_pins(workload: str, seed: int, digest: str, pins: dict) -> None:
    """Abort unless the seeded job list is the one pinned for this seed.

    Seeds outside the table are covered by regenerating the canary
    seed's list: a generator change that moves any graph moves it too.
    """
    import workloads

    table = pins["inputs"][workload]
    want = table.get(str(seed))
    if want is None:
        canary = pins["canary_seed"]
        got = workloads.input_digest(workloads.build_rounds(workload, canary))
        if got != table[str(canary)]:
            raise BenchError(f"{workload}: canary seed {canary} inputs changed "
                             f"({got} != {table[str(canary)]})")
    elif digest != want:
        raise BenchError(f"{workload}: seed {seed} inputs changed ({digest} != {want})")


class Runner:
    """Runs jobs one at a time, gates each output as soon as it exists
    (so no output piles up in memory), and samples the speed probe."""

    def __init__(self, checker, probe):
        self.checker = checker
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, job) -> float:
        """Run and gate one job; return its wall time, which excludes the gate."""
        import workloads

        start = time.perf_counter()
        try:
            raw = workloads.run_job(job)
        except Exception:  # noqa: BLE001 - a raising job is a failed job, not a crash
            elapsed = time.perf_counter() - start
            problems = ["raised:\n" + traceback.format_exc()]
        else:
            elapsed = time.perf_counter() - start
            problems = self.checker.check(job, raw)
        self.attempted += 1
        if problems:
            self.failures.append(f"job {job.index} ({job.kind}, r={job.r}, n={job.graph.n}): "
                                 + "; ".join(problems))
        return elapsed

    def run(self, jobs, tracer=None) -> tuple[list[float], float]:
        """Each job's raw wall time, and the speed factor of the stretch.

        Between jobs, outside their times, the probe runs until its time
        catches up with speed.SHARE of the jobs' time (once at least).
        """
        import speed

        times, samples = [], []
        owed = 0.0
        for job in jobs:
            if tracer is not None:
                tracer.job = job.index
            times.append(self.call(job))
            owed += speed.SHARE * times[-1]
            while owed > 0:
                samples.append(self.probe.sample())
                owed -= samples[-1]
        return times, self.probe.scale(samples)


def _timed_pass(rounds, seconds: float, runner: Runner):
    """Whole rounds until `seconds` have passed and MIN_JOBS jobs are done.

    Returns every job's raw and scaled time, and every round's raw and
    scaled jobs per second; each round is scaled by its own probe samples.
    """
    raw, scaled, raw_rates, rates = [], [], [], []
    start = time.perf_counter()
    for i in itertools.count():
        jobs = rounds[i % len(rounds)]
        times, factor = runner.run(jobs)
        raw += times
        scaled += [t * factor for t in times]
        raw_rates.append(len(jobs) / sum(times))
        rates.append(raw_rates[-1] / factor)
        if time.perf_counter() - start >= seconds and len(raw) >= MIN_JOBS:
            return raw, scaled, raw_rates, rates


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", out_dir: Path = OUT) -> tuple[dict, list[str]]:
    """One benchmark run: (result object, human-readable lines)."""
    import_s = import_program()
    import gate
    import speed
    import tracer as tracing
    import workloads

    pins = load_pins()
    reference = {}
    if scale == "full" and seed == pins["reference_seed"]:
        reference = {int(i): d for i, d in pins["matchings"][workload].items()}
    probe = speed.SpeedProbe(workload)
    runner = Runner(gate.Gate(reference), probe)
    workdir = out_dir / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, digests = [], set()
        samples = [probe.sample() for _ in range(3)]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            rounds = workloads.build_rounds(workload, seed, scale, workdir)
            workloads.write_inputs(rounds)
            runner.call(rounds[0][0])
            setup_times.append(time.perf_counter() - start)
            digests.add(workloads.input_digest(rounds))
            samples += [probe.sample() for _ in range(3)]
        raw_setup = import_s + statistics.median(setup_times)
        if len(digests) != 1:
            raise BenchError(f"{workload}: seed {seed} gives different job lists")
        digest = digests.pop()
        if scale == "full":
            check_pins(workload, seed, digest, pins)

        lines = [f"workload {workload}, seed {seed}, inputs {digest}: {len(rounds)} rounds "
                 f"of {len(rounds[0])} jobs; closed loop, 1 caller, 1 thread"]
        if trace:
            traced_rounds = workloads.ROUNDS[workload][scale][2]
            prefix = [job for jobs in rounds[:traced_rounds] for job in jobs]
            times, factor = runner.run(prefix)
            untraced = sum(times) * factor
            tr = tracing.Tracer()
            tr.install()
            try:
                times, factor = runner.run(prefix, tr)
            finally:
                tr.uninstall()
            traced = sum(times) * factor
            overhead = 1 - untraced / traced
            metrics = tr.metrics()
            metrics["trace.overhead_share"] = (overhead, "ratio")
            dominant = tr.dominant_layer()
            predicted = tracing.PREDICTED_DOMINANT[workload]
            metrics["trace.dominant_is_predicted"] = (int(dominant == predicted), "bool")
            spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
            tr.write_spans(spans_path)
            lines.append(f"traced {len(prefix)} jobs: {untraced:.3f} s untraced, "
                         f"{traced:.3f} s traced (scaled), overhead {overhead:.1%}")
            lines.append(f"largest self time: {dominant} (predicted {predicted}); "
                         f"spans in {spans_path}")
        else:
            raw, scaled, raw_rates, rates = _timed_pass(rounds, seconds, runner)
            metrics = {
                "setup_s": (raw_setup * probe.scale(samples), "s"),
                "jobs_per_s": (statistics.median(rates), "jobs/s"),
                "job_p50_s": (statistics.median(scaled), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MiB"),
            }
            lines.append(f"timed {len(rates)} rounds, {len(raw)} jobs in {sum(raw):.3f} s")
            lines.append("raw jobs/s per round: " + ", ".join(f"{r:.4g}" for r in raw_rates))
            lines.append("scaled jobs/s per round: " + ", ".join(f"{r:.4g}" for r in rates))
            lines.append(f"raw: setup_s {raw_setup:.4g} s (import {import_s:.3f} s + median of "
                         + ", ".join(f"{t:.3f}" for t in setup_times) + " s), "
                         f"jobs_per_s {statistics.median(raw_rates):.4g}, "
                         f"job_p50_s {statistics.median(raw):.4g} s over {len(raw)} jobs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, attempted = len(runner.failures), runner.attempted
    if runner.failures:
        print(f"{failed} jobs failed; first: {runner.failures[0]}", file=sys.stderr)
    lines.append(f"failed_share = {failed / attempted:.4g} ratio ({failed}/{attempted} jobs)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        share = result["failed"] / result["attempted"]
        rows.append((workload, "failed_share", share, "ratio"))
        rows += [(workload, name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    for workload, name, value, unit in rows:
        print(f"{workload:<11} {name:<48} {value:>12.6g} {unit}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Seeded benchmark for matchcover.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
