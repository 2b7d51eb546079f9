#!/usr/bin/env python3
"""End-to-end synthetic study: two processes, full extraction, Welch verdict.

Synthesizes noisy per-qubit relaxation datasets for the three process-A and
three process-B device designs, with process B generated at a chosen relative
quality advantage. Each measured file runs through the production CLI's
extract-qceff; the script then pools each process's quality factors in
process, runs Welch's test on the pooled values, and prints whether the
planted advantage is resolved.

Example:
    python scripts/synthetic_process_compare.py --advantage 1.14 \
        --points-per-qubit 60 --workdir /tmp/compare-demo
"""

import argparse
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from fluxt1.cli import cli
from fluxt1.dynamics import BiasModel, T1Mode
from fluxt1.errors import ModelTraceWarning
from fluxt1.io import parse_device_file, read_distribution, write_t1_csv
from fluxt1.pipeline import CachedSpectrumProvider, T1Dataset, T1Record
from fluxt1.stats import ci_of_mean_difference, welch_t_test

PROCESS_A = ("a1", "a2", "a3")
PROCESS_B = ("b1", "b2", "b3")
BASE_QCEFF = 2.2e5


def synthesize_dataset(device_path: Path, qc_eff: float, n_points: int,
                       rng: np.random.Generator, out_csv: Path) -> None:
    """Model-generated decay times with lognormal scatter, as a T1 CSV."""
    device = parse_device_file(str(device_path))
    env = device.environment(qc_eff=qc_eff, epsilon=0.25)
    provider = CachedSpectrumProvider(device.fluxonium_params(), n_levels=6)
    res = device.resonator_params()
    records = []
    for phi in np.linspace(0.04, 0.5, n_points):
        spec = provider(float(phi))
        # scatter the underlying quality factor, not the readout, mimicking
        # defect-dominated variation between bias points
        q_local = qc_eff * rng.lognormal(0.0, 0.35)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelTraceWarning)
            t1 = BiasModel(spec, res, env).t1(T1Mode.MULTILEVEL_SIGNAL, qc_eff=q_local)
        records.append(T1Record(phi_ext=float(phi), t1=t1,
                                omega01=spec.transition_frequency(0, 1)))
    write_t1_csv(str(out_csv), T1Dataset(records=tuple(records)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--advantage", type=float, default=1.14,
                        help="process-B quality factor multiplier")
    parser.add_argument("--points-per-qubit", type=int, default=60)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--devices-dir", default="devices")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(
        prefix="fluxt1-compare-"))
    workdir.mkdir(parents=True, exist_ok=True)
    devices_dir = Path(args.devices_dir)
    print(f"working directory: {workdir}")

    values = {"A": [], "B": []}
    for process, names, advantage in (("A", PROCESS_A, 1.0),
                                      ("B", PROCESS_B, args.advantage)):
        for name in names:
            device_path = devices_dir / f"{name}.json"
            csv_path = workdir / f"{name}_t1.csv"
            synthesize_dataset(device_path, BASE_QCEFF * advantage,
                               args.points_per_qubit, rng, csv_path)
            dist_path = workdir / f"{name}_dist.json"
            code = cli(["extract-qceff", "--device", str(device_path),
                        "--t1-csv", str(csv_path), "--epsilon", "0.25",
                        "--out", str(dist_path)])
            if code != 0:
                print(f"extraction failed for {name}", file=sys.stderr)
                return code
            qceff = read_distribution(str(dist_path)).values()
            print(f"  {name}: {qceff.size} points, mean qceff {float(np.mean(qceff)):.3e}")
            values[process].append(qceff)

    result = welch_t_test(np.concatenate(values["B"]), np.concatenate(values["A"]),
                          alpha=0.05)
    lo, hi = ci_of_mean_difference(result, result.mean2)
    planted = (args.advantage - 1.0) * 100.0
    print(f"\nplanted advantage: +{planted:.1f}% of the process-A mean")
    print(f"Welch 95% interval for (B - A): [{lo:+.1f}%, {hi:+.1f}%], "
          f"p = {result.p_value:.3g}")
    resolved = lo > 0.0 or hi < 0.0
    print("verdict:", "difference resolved" if resolved else "not resolved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
