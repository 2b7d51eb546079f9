#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, reports exactly the metrics
BENCHMARK.json declares, each with its declared unit, and that the output
checks catch a wrong answer: one input T1 of ``extract_signal`` scaled by
1.01 after its true quality factor was recorded must fail the check.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
from workloads import ExtractSignal

TINY = {
    "predict_sweep": {"flux_points": 2},
    "extract_signal": {"points": 4},
    "epsilon_two_level": {"points": 3},
}


def check_metrics(spec: dict) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            _, result = run.run(name, seed=7, seconds=0.0, trace=trace, sizes=TINY[name])
            line = json.loads(json.dumps(result, allow_nan=False))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
            assert line["correct"] is True, (name, trace)
            assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, (name, trace, sorted(set(got) ^ set(want)))
            assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
            print(f"ok: {name} trace={int(trace)} reports {len(got)} metrics with units")


def check_perturbation() -> None:
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        workload = ExtractSignal(run.ROOT, workdir, seed=7, sizes=TINY["extract_signal"])
        workload.prepare()
        clean = workload.check(workload.run())
        assert not clean.problems, clean.problems
        # scale the T1 of a record that came back as a checked singleton
        with open(workload.outputs()[0], encoding="utf-8") as fh:
            entries = json.load(fh)["data"]["entries"]
        freq = next(e["freq_hz"] for e in entries if e["n_binned"] == 1)
        csv_path = workload.csv_path(workload.devices[0])
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for k, line in enumerate(lines[1:], start=1):
            phi, t1, f01 = line.split(",")
            if float(f01) == freq:
                lines[k] = f"{phi},{float(t1) * 1.01!r},{f01}"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        workload.clear_outputs()
        perturbed = workload.check(workload.run())
        assert perturbed.max_err > 1e-3 and perturbed.problems, perturbed
        print(f"ok: a 1% T1 perturbation fails the extract_signal check "
              f"(error {perturbed.max_err:.2e})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    check_perturbation()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
