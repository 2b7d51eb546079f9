#!/usr/bin/env python3
"""fluxt1 benchmark: times the CLI batch jobs users wait on, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload extract_signal --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``. With ``--trace 0`` the run
reports the end-to-end metrics: the median pass wall time and the
throughput at it, the median set-up time of several fresh interpreters, the
process's peak resident memory, the share of a pass's units that succeeded
and the digits of output accuracy. With ``--trace 1`` it times the same untraced
passes, then runs one more pass with every layer function wrapped
(``spans.py``) and reports calls and self time per layer, the deterministic
counts, and the tracing overhead; the spans go to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run metadata, including every pass time. ``attempted`` and
``failed`` are the units of one pass: every pass runs the same inputs and
must report the same counts, or the run is not correct.

The program runs in this process, single-threaded, with BLAS pinned to one
thread (set before numpy loads; the fresh interpreters that time set-up
inherit it). On a shared two-core machine OpenBLAS's default of one thread
per core made ``extract_signal`` about 30% slower and its run-to-run spread
about twice as wide.

Times are reported in reference-host seconds (``hostspeed.py``): the
host's speed drifts by up to 1.8x, so each timed pass and each timed set-up
start is scaled by a pure-Python kernel sampled while it runs. Raw times
are in the metadata line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# smallest value accuracy_digits resolves: double-precision epsilon
ERR_FLOOR = 2.0**-52

# Runs in a fresh interpreter: argv is the perfbench directory, the source
# directory and the device files. Prints [raw seconds, scaled seconds].
SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from hostspeed import Sampler
sampler = Sampler()
with sampler:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    import fluxt1.cli
    from fluxt1.io import parse_device_file
    for path in sys.argv[3:]:
        parse_device_file(path)
    wall = time.perf_counter() - start
print(json.dumps([wall, sampler.scaled(wall)]))
"""


def _git_commit() -> str | None:
    """HEAD of the repository holding ROOT, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "fluxt1")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _blas_info() -> dict:
    """OpenBLAS builds loaded in this process, with their thread counts."""
    info = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            entry = {"threads": threads(), "config": config().decode()}
            break
        info[os.path.basename(path)] = entry
    return info


def run_metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
    }


def measure_setup(devices: list[str]) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds for fresh interpreters to import fluxt1.cli and parse devices.

    One untimed start first compiles the bytecode caches.
    """
    argv = [sys.executable, "-c", SETUP_CODE, HERE, SRC, *devices]
    raw, scaled = [], []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if k > 0:
            wall, wall_scaled = json.loads(done.stdout.strip().splitlines()[-1])
            raw.append(wall)
            scaled.append(wall_scaled)
    return raw, scaled


def run_passes(workload, seconds: float) -> tuple[list[float], list[float], list]:
    """One checked warm-up pass, then timed, checked passes until ``seconds`` have elapsed.

    At least one pass is timed. Returns the raw and the scaled pass times and
    every pass's outcome, the warm-up's first.
    """
    from hostspeed import Sampler

    workload.clear_outputs()
    outcomes = [workload.check(workload.run())]
    walls, scaled = [], []
    sampler = Sampler()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        workload.clear_outputs()
        with sampler:
            start = time.perf_counter()
            codes = workload.run()
            wall = time.perf_counter() - start
        walls.append(wall)
        scaled.append(sampler.scaled(wall))
        outcomes.append(workload.check(codes))
    return walls, scaled, outcomes


def accuracy_digits(err: float) -> float:
    """Correct decimal digits of the worst output error, capped at double precision."""
    return -math.log10(max(err, ERR_FLOOR)) if math.isfinite(err) else 0.0


def end_to_end_metrics(wall_s: float, outcome, setup_s: float, max_err: float) -> dict:
    return {
        "wall_s": {"value": wall_s, "unit": "s"},
        "units_per_s": {"value": outcome.attempted / wall_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "ok_frac": {"value": 1.0 - outcome.failed / outcome.attempted, "unit": "fraction"},
        "accuracy_digits": {"value": accuracy_digits(max_err), "unit": "digits"},
    }


def traced_pass(workload, untraced_wall_s: float, spans_path: str, meta: dict):
    """One pass with every layer wrapped; returns (outcome, per-layer metrics)."""
    from hostspeed import Sampler
    from spans import Tracer

    tracer = Tracer()
    sampler = Sampler()
    tracer.install()
    try:
        workload.clear_outputs()
        with sampler:
            start = time.perf_counter()
            codes = workload.run()
            traced_raw = time.perf_counter() - start
    finally:
        tracer.remove()
    traced_wall = sampler.scaled(traced_raw)
    outcome = workload.check(codes)
    metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
               for name, value in tracer.layer_metrics().items()}
    metrics["pipeline.kept_frac"] = {"value": tracer.n_kept / workload.n_raw, "unit": "count"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall_s, "unit": "s"}
    tracer.write(spans_path, dict(meta, trace_raw_s=traced_raw, trace_scaled_s=traced_wall))
    return outcome, metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (metadata, result line)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload_name}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[workload_name](ROOT, workdir, seed, sizes)
        devices = [workload.device_path(d) for d in workload.devices]
        meta = run_metadata(workload_name, seed)
        if not trace:
            meta["setup_raw_s"], meta["setup_scaled_s"] = measure_setup(devices)
            setup_s = statistics.median(meta["setup_scaled_s"])
        workload.prepare()
        walls, scaled, outcomes = run_passes(workload, seconds)
        wall_s = statistics.median(scaled)
        meta.update(passes=len(walls), pass_walls_s=walls, pass_scaled_s=scaled)
        if trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{workload_name}-{seed}.jsonl")
            outcome, metrics = traced_pass(workload, wall_s, spans_path, meta)
            outcomes.append(outcome)
        else:
            metrics = end_to_end_metrics(wall_s, outcomes[0], setup_s,
                                         max(o.max_err for o in outcomes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for o in outcomes for p in o.problems]
    # every pass runs the same inputs, so its counts must repeat exactly
    counts = {(o.attempted, o.failed) for o in outcomes}
    if len(counts) != 1:
        problems.append(f"passes disagree on (attempted, failed): {sorted(counts)}")
    meta["problems"] = problems[:20]
    result = {
        "correct": not problems,
        "attempted": outcomes[0].attempted,
        "failed": outcomes[0].failed,
        "metrics": metrics,
    }
    return meta, result


def main(argv=None) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fluxt1", "cli.py")) or \
            not os.path.isdir(os.path.join(ROOT, "devices")):
        print(f"error: no fluxt1 sources under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    meta, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
