#!/usr/bin/env python3
"""Record perfbench/pins.json from the current code.

    python3 perfbench/make_pins.py

Pins the input digest of every workload for seeds 0..31, and the
matchings digest of every cover job of the reference seed (the
certificates frozen byte for byte).  Re-record only when a change is
meant to alter the generated inputs or the chosen matchings, and say
so in that change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SEEDS = range(32)
REFERENCE_SEED = 1
CANARY_SEED = 1


def main() -> int:
    run.import_program()
    import gate
    import workloads

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    pins = {
        "recorded_at": commit,
        "reference_seed": REFERENCE_SEED,
        "canary_seed": CANARY_SEED,
        "inputs": {},
        "matchings": {},
    }
    for workload in run.WORKLOADS:
        pins["inputs"][workload] = {
            str(s): workloads.input_digest(workloads.build_rounds(workload, s)) for s in SEEDS
        }
        workdir = run.OUT / "pins-inputs"
        workdir.mkdir(parents=True, exist_ok=True)
        rounds = workloads.build_rounds(workload, REFERENCE_SEED, "full", workdir)
        workloads.write_inputs(rounds)
        checker = gate.Gate()
        recorded = {}
        for job in (j for jobs in rounds for j in jobs):
            raw = workloads.run_job(job)
            problems = checker.check(job, raw)
            if problems:
                print(f"{workload} job {job.index}: {problems}", file=sys.stderr)
                return 1
            if job.kind in ("cover", "cli-cover"):
                recorded[str(job.index)] = gate.matchings_digest(
                    gate.normalize(job, raw)["matchings"])
        shutil.rmtree(workdir)
        pins["matchings"][workload] = recorded
        print(f"{workload}: {len(SEEDS)} input digests, {len(recorded)} matchings digests",
              flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
