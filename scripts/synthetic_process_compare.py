#!/usr/bin/env python3
"""End-to-end synthetic study: two processes, full extraction, Welch verdict.

Synthesizes noisy per-qubit relaxation datasets for the three process-A and
three process-B device designs, with process B generated at a chosen relative
quality advantage. The measured files then run through the production CLI
pipeline (extract-qceff per qubit, compare on the pooled process files) and
the script prints whether the planted advantage is resolved.

Example:
    python scripts/synthetic_process_compare.py --advantage 1.14 \
        --points-per-qubit 60 --workdir /tmp/compare-demo
"""

import argparse
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from fluxt1.cli import cli
from fluxt1.dynamics import T1Mode
from fluxt1.io import parse_device_file, read_distribution, write_result
from fluxt1.pipeline import CachedSpectrumProvider, QceffInverter

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
    lines = ["phi_ext,t1_s,omega01_hz"]
    for phi in np.linspace(0.04, 0.5, n_points):
        spec = provider(float(phi))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inverter = QceffInverter(spec, res, env, mode=T1Mode.MULTILEVEL_SIGNAL)
            # scatter the underlying quality factor, not the readout, mimicking
            # defect-dominated variation between bias points
            q_local = qc_eff * rng.lognormal(0.0, 0.35)
            t1 = inverter.predict_t1(q_local)
        lines.append(f"{float(phi)!r},{t1!r},{spec.transition_frequency(0, 1)!r}")
    out_csv.write_text("\n".join(lines) + "\n")


def pool_distributions(paths, pooled_id: str, out_path: Path) -> None:
    entries = []
    epsilon = 0.25
    for p in paths:
        dist = read_distribution(str(p))
        epsilon = dist.epsilon_used
        entries.extend(
            {"freq_hz": e.freq, "qceff": e.qceff, "n_binned": e.n_binned}
            for e in dist.entries
        )
    write_result(str(out_path), "extract-qceff", {"pooled_from": [str(p) for p in paths]},
                 {"qubit_id": pooled_id, "epsilon_used": epsilon, "entries": entries})


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

    dist_paths = {"A": [], "B": []}
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
            dist = read_distribution(str(dist_path))
            mean = float(np.mean(dist.values()))
            print(f"  {name}: {len(dist)} points, mean qceff {mean:.3e}")
            dist_paths[process].append(dist_path)

    pooled_a = workdir / "processA.json"
    pooled_b = workdir / "processB.json"
    pool_distributions(dist_paths["A"], "processA", pooled_a)
    pool_distributions(dist_paths["B"], "processB", pooled_b)

    compare_path = workdir / "compare.json"
    code = cli(["compare", "--dist", str(pooled_b), "--dist", str(pooled_a),
                "--alpha", "0.05", "--out", str(compare_path)])
    if code != 0:
        return code
    payload = json.loads(compare_path.read_text())
    pair = next(p for p in payload["data"]["pairs"]
                if p["id1"] == "processB" and p["id2"] == "processA")
    lo, hi = pair["ci_low_percent_of_mean2"], pair["ci_high_percent_of_mean2"]
    planted = (args.advantage - 1.0) * 100.0
    print(f"\nplanted advantage: +{planted:.1f}% of the process-A mean")
    print(f"Welch 95% interval for (B - A): [{lo:+.1f}%, {hi:+.1f}%], "
          f"p = {pair['p_value']:.3g}")
    resolved = lo > 0.0 or hi < 0.0
    print("verdict:", "difference resolved" if resolved else "not resolved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
