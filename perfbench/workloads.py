"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with one client: a pass runs its fluxt1 CLI
invocations in process, one after another, and the next pass starts when the
previous one has been checked. Inputs are synthesized from the seed before
timing starts, through fluxt1's public model functions.

Why these three: ``predict_sweep`` is the only job where the spectrum solve
dominates and it never inverts; ``extract_signal`` is the process-comparison
job, dominated by the multilevel dynamics inside each inversion;
``epsilon_two_level`` re-inverts every record on the exponent grid through
the two-level model, so rate tables and the optimizer dominate and the
dynamics layer does no work.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

# Relative error accepted on recovered singleton quality factors
# (acceptance criterion 06's gate).
EXTRACT_GATE = 1e-3
# Relative residual accepted on 1/T1_total = sum_m 1/T1_m (two-level rows).
IDENTITY_GATE = 1e-9
BASE_QCEFF = 2.2e5
Q_SCATTER = 0.35  # lognormal sigma of the per-point (or per-qubit) quality factor

PREDICT_DEVICES = ("a1", "b1", "b3")
PROCESS_DEVICES = ("a1", "a2", "a3", "b1", "b2", "b3")
PREDICT_MECHANISMS = ("capacitive", "flux_noise", "charge_line", "flux_line", "purcell")
PREDICT_MODES = ("two_level", "six_level", "signal")

# Input sizes of one pass. Fixed: later runs are only comparable at equal sizes.
SIZES = {
    "predict_sweep": {"flux_points": 21},
    "extract_signal": {"points": 10},
    "epsilon_two_level": {"points": 6},
}


@dataclass
class Outcome:
    """Checked result of one pass."""

    attempted: int = 0
    failed: int = 0
    max_err: float = 0.0  # the workload's accuracy measure (see each check)
    problems: list[str] = field(default_factory=list)


def _cli(argv: list[str]) -> int:
    # looked up on each call so that the tracer's wrapper is the one used
    import fluxt1.cli

    return fluxt1.cli.cli(argv)


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


class Workload:
    name = ""
    devices: tuple[str, ...] = ()

    def __init__(self, root: str, workdir: str, seed: int, sizes: dict | None = None):
        self.root = root
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.sizes = dict(SIZES[self.name], **(sizes or {}))
        self.n_raw = 0  # input records per pass

    def device_path(self, name: str) -> str:
        return os.path.join(self.root, "devices", f"{name}.json")

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def outputs(self) -> list[str]:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for p in self.outputs():
            if os.path.exists(p):
                os.remove(p)

    def prepare(self) -> None:
        """Synthesize this seed's inputs (not timed)."""

    def run(self) -> list[int]:
        """One timed pass; returns the CLI exit codes."""
        raise NotImplementedError

    def check(self, codes: list[int]) -> Outcome:
        raise NotImplementedError


class PredictSweep(Workload):
    """predict-t1 over a seed-offset flux grid, every mechanism and mode."""

    name = "predict_sweep"
    devices = PREDICT_DEVICES

    def prepare(self) -> None:
        n = self.sizes["flux_points"]
        step = 0.5 / n
        offset = float(self.rng.random())
        self.grid_args = ["--flux-start", repr(offset * step),
                          "--flux-stop", repr((n - 1 + offset) * step),
                          "--flux-points", str(n)]
        self.rows_per_device = n * (len(PREDICT_MECHANISMS) + 1) * len(PREDICT_MODES)
        self.n_raw = n * len(self.devices)

    def outputs(self) -> list[str]:
        return [self.path(f"{d}_curves.csv") for d in self.devices]

    def run(self) -> list[int]:
        return [
            _cli(["predict-t1", "--device", self.device_path(d), *self.grid_args,
                  "--modes", ",".join(PREDICT_MODES), "--out", out])
            for d, out in zip(self.devices, self.outputs())
        ]

    def check(self, codes: list[int]) -> Outcome:
        """Counts non-finite t1 rows as failures; worst two-level identity residual."""
        res = Outcome()
        for d, out, code in zip(self.devices, self.outputs(), codes):
            res.attempted += self.rows_per_device
            if code != 0:
                res.failed += self.rows_per_device
                res.problems.append(f"predict-t1 on {d} exited {code}")
                continue
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.rows_per_device:
                res.problems.append(f"{d}: {len(rows)} rows, expected {self.rows_per_device}")
            t1 = np.array([float(r["t1_s"]) for r in rows])
            res.failed += int(np.count_nonzero(~np.isfinite(t1)))
            rates: dict[float, dict[str, float]] = {}
            for r, t in zip(rows, t1):
                if r["mode"] == "two_level":
                    rates.setdefault(float(r["phi_ext_phi0"]), {})[r["mechanism"]] = 1.0 / t
            for phi, by_mech in rates.items():
                total = by_mech.get("total", math.nan)
                summed = math.fsum(by_mech.get(m, math.nan) for m in PREDICT_MECHANISMS)
                err = abs(total - summed) / total if total > 0.0 else abs(total - summed)
                if not err <= IDENTITY_GATE:
                    res.problems.append(f"{d} at phi={phi!r}: 1/T1 identity residual {err!r}")
                res.max_err = max(res.max_err, err) if math.isfinite(err) else math.inf
        return res


def _write_t1_csv(path: str, rows: list[tuple[float, float, float]]) -> None:
    lines = ["phi_ext,t1_s,omega01_hz"]
    lines += [f"{phi!r},{t1!r},{f01!r}" for phi, t1, f01 in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class ExtractSignal(Workload):
    """extract-qceff (multilevel signal) per qubit of two processes, then compare."""

    name = "extract_signal"
    devices = PROCESS_DEVICES

    def prepare(self) -> None:
        from fluxt1.dynamics import T1Mode
        from fluxt1.io import parse_device_file
        from fluxt1.pipeline import CachedSpectrumProvider, QceffInverter

        self.truth: dict[str, dict[float, float]] = {}
        for d in self.devices:
            device = parse_device_file(self.device_path(d))
            env = device.environment(qc_eff=BASE_QCEFF, epsilon=0.25)
            provider = CachedSpectrumProvider(device.fluxonium_params(), n_levels=6)
            res = device.resonator_params()
            rows, truth = [], {}
            for phi in np.linspace(0.04, 0.5, self.sizes["points"]):
                spec = provider(float(phi))
                inverter = _quiet(QceffInverter, spec, res, env, T1Mode.MULTILEVEL_SIGNAL)
                q = BASE_QCEFF * float(self.rng.lognormal(0.0, Q_SCATTER))
                f01 = spec.transition_frequency(0, 1)
                rows.append((float(phi), _quiet(inverter.predict_t1, q), f01))
                truth[f01] = q
            _write_t1_csv(self.csv_path(d), rows)
            self.truth[d] = truth
        self.n_raw = sum(len(t) for t in self.truth.values())

    def csv_path(self, d: str) -> str:
        return self.path(f"{d}_t1.csv")

    def outputs(self) -> list[str]:
        return [self.path(f"{d}_dist.json") for d in self.devices] + [self.path("compare.json")]

    def run(self) -> list[int]:
        dists = self.outputs()[:-1]
        codes = [
            _cli(["extract-qceff", "--device", self.device_path(d), "--t1-csv",
                  self.csv_path(d), "--epsilon", "0.25", "--out", out])
            for d, out in zip(self.devices, dists)
        ]
        compare = ["compare"]
        for out in dists:
            compare += ["--dist", out]
        codes.append(_cli(compare + ["--out", self.outputs()[-1]]))
        return codes

    def check(self, codes: list[int]) -> Outcome:
        """Worst |q_rec - q_true| / q_true over singleton records, by frequency."""
        res = Outcome()
        for d, out, code in zip(self.devices, self.outputs(), codes):
            if code != 0:
                res.attempted += len(self.truth[d])
                res.failed += len(self.truth[d])
                res.problems.append(f"extract-qceff on {d} exited {code}")
                continue
            with open(out, encoding="utf-8") as fh:
                data = json.load(fh)["data"]
            res.attempted += data["n_kept"]
            singletons = 0
            for e in data["entries"]:
                if not math.isfinite(e["qceff"]):
                    res.failed += 1
                    continue
                if e["n_binned"] != 1:
                    continue
                q_true = self.truth[d].get(e["freq_hz"])
                if q_true is None:
                    res.problems.append(f"{d}: no input record at {e['freq_hz']!r} Hz")
                    continue
                singletons += 1
                err = abs(e["qceff"] - q_true) / q_true
                res.max_err = max(res.max_err, err)
            if singletons == 0:
                res.problems.append(f"{d}: no singleton record to check")
        if res.max_err > EXTRACT_GATE:
            res.problems.append(f"worst recovery error {res.max_err!r} > {EXTRACT_GATE}")
        if codes[-1] != 0:
            res.problems.append(f"compare exited {codes[-1]}")
        else:
            with open(self.outputs()[-1], encoding="utf-8") as fh:
                pairs = json.load(fh)["data"]["pairs"]
            n = len(self.devices)
            if len(pairs) != n * (n - 1) or not all(0.0 <= p["p_value"] <= 1.0 for p in pairs):
                res.problems.append("compare: wrong pair count or p-value outside [0, 1]")
        return res


class EpsilonTwoLevel(Workload):
    """fit-epsilon --mode two_level over noise-free data at a seed-chosen exponent."""

    name = "epsilon_two_level"
    devices = PROCESS_DEVICES

    def prepare(self) -> None:
        from fluxt1.dynamics import T1Mode
        from fluxt1.io import parse_device_file
        from fluxt1.pipeline import (
            CachedSpectrumProvider,
            QceffInverter,
            T1Dataset,
            T1Record,
            bin_average,
            exclusion_filter,
        )

        # the CLI's default grid, built the way the CLI builds it
        grid = np.arange(-1.0, 1.0 + 0.05 / 2, 0.05)
        self.grid_size = grid.size
        self.eps_true = float(grid[self.rng.integers(grid.size)])
        self.n_kept = 0
        for d in self.devices:
            device = parse_device_file(self.device_path(d))
            q = BASE_QCEFF * float(self.rng.lognormal(0.0, Q_SCATTER))
            env = device.environment(qc_eff=q, epsilon=self.eps_true)
            provider = CachedSpectrumProvider(device.fluxonium_params(), n_levels=6)
            res = device.resonator_params()
            records = []
            # short of the half-flux sweet spot, where the exclusion filter's
            # verdict would depend on the seeded q and exponent and so make the
            # work per pass differ between seeds
            for phi in np.linspace(0.05, 0.4, self.sizes["points"]):
                spec = provider(float(phi))
                t1 = QceffInverter(spec, res, env, mode=T1Mode.TWO_LEVEL).predict_t1(q)
                records.append(T1Record(phi_ext=float(phi), t1=t1,
                                        omega01=spec.transition_frequency(0, 1)))
            _write_t1_csv(self.csv_path(d), [(r.phi_ext, r.t1, r.omega01) for r in records])
            # records the CLI will invert at each exponent: the same binning and
            # exclusion it applies, with its default qc_eff and flat exponent
            cli_env = device.environment(qc_eff=3.0e5, epsilon=0.0)
            binned = bin_average(T1Dataset(records=tuple(records), qubit_id=d))
            kept, _ = _quiet(exclusion_filter, binned, provider, cli_env, res)
            self.n_kept += len(kept)
            self.n_raw += len(records)

    def csv_path(self, d: str) -> str:
        return self.path(f"{d}_t1.csv")

    def outputs(self) -> list[str]:
        return [self.path("epsilon.json")]

    def run(self) -> list[int]:
        argv = ["fit-epsilon"]
        for d in self.devices:
            argv += ["--qubit", self.device_path(d), self.csv_path(d)]
        return [_cli(argv + ["--mode", "two_level", "--out", self.outputs()[0]])]

    def check(self, codes: list[int]) -> Outcome:
        """|epsilon_fit - epsilon_true|, which must be exactly 0."""
        units = self.n_kept * self.grid_size
        res = Outcome(attempted=units)
        if codes[0] != 0:
            res.failed = units
            res.max_err = math.inf
            res.problems.append(f"fit-epsilon exited {codes[0]}")
            return res
        with open(self.outputs()[0], encoding="utf-8") as fh:
            data = json.load(fh)["data"]
        curve = [p["pooled_variance"] for p in data["variance_curve"]]
        if len(curve) != self.grid_size or not all(math.isfinite(v) for v in curve):
            res.problems.append("fit-epsilon: variance curve has wrong length or non-finite values")
        res.max_err = abs(data["epsilon"] - self.eps_true)
        if res.max_err != 0.0:
            res.problems.append(f"epsilon {data['epsilon']!r} != generating {self.eps_true!r}")
        return res


WORKLOADS = {w.name: w for w in (PredictSweep, ExtractSignal, EpsilonTwoLevel)}
