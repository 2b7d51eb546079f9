"""Command-line pipeline: spectrum tables, T1 curves, extraction, statistics.

Subcommands emit CSV for flat series and a single versioned JSON envelope for
structured results; plots are always emitted as plottable data series, never
rendered images. Exit codes: 0 success, 1 usage, 2 data error, 3 numerical
failure; failures also print a machine-readable error JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import warnings
from dataclasses import asdict, replace
from itertools import combinations

import numpy as np

from .dynamics import BiasModel, T1Mode, fit_exponential, multilevel_t1
from .errors import DataError, FluxT1Error, ModelTraceWarning, QuasiparticleEnergyWarning
from .hamiltonian import FluxBias, diagonalize
from .io import (
    atomic_write_text,
    csv_text,
    distribution_from_result,
    distribution_to_payload,
    dump_json,
    parse_dephasing_csv,
    parse_device_file,
    parse_t1_csv,
    read_result,
    result_envelope,
)
from .loss import ANALYSIS_MECHANISMS, Environment, Mechanism
from .pipeline import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_EXCLUSION_THRESHOLD,
    EPSILON_GRID,
    CachedSpectrumProvider,
    QubitAnalysisInput,
    bin_average,
    exclusion_filter,
    extract_flux_noise_amplitude,
    extract_qceff_dataset,
    fit_epsilon_global,
    summarize,
)
from .stats import DEFAULT_ALPHA, ci_of_mean_difference, welch_t_test

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _emit(content: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        atomic_write_text(out, content)


def _within(low: float = -np.inf, high: float = np.inf, kind=float):
    """argparse type of an option value that no model type holds: a ``kind`` in
    (low, high), never nan; argparse makes any other value a usage error."""
    def parse(text: str):
        value = kind(text)
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must lie in ({low:g}, {high:g}), got {value!r}")
        return value
    parse.__name__ = kind.__name__  # so unreadable text stays "invalid float value"
    return parse


def _flux_grid(args) -> np.ndarray:
    if args.flux is not None:
        return np.array([args.flux])
    return np.linspace(args.flux_start, args.flux_stop, args.flux_points)


def _add_flux_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--flux", type=_within(), default=None,
                   help="single flux bias in Phi0 units (overrides the grid)")
    p.add_argument("--flux-start", type=_within(), default=0.0)
    p.add_argument("--flux-stop", type=_within(), default=0.5)
    p.add_argument("--flux-points", type=_within(0, np.inf, int), default=51)


# The model and ingest options, each defined once; a command takes only those
# that can change its output.
_OPTIONS = {
    "--levels": dict(type=_within(1, np.inf, int), default=6,
                     help="retained circuit levels (a run in two_level mode alone solves 2)"),
    "--qceff": dict(type=float, default=Environment.qc_eff,
                    help="effective capacitive quality factor at 6 GHz"),
    "--epsilon": dict(type=float, default=Environment.epsilon,
                      help="frequency exponent of the quality factor"),
    "--xqp": dict(type=float, default=Environment.x_qp,
                  help="normalized quasiparticle density"),
    "--qubit-temp-k": dict(type=float, default=None,
                           help="qubit bath temperature (default: the device's t_qubit_k)"),
    "--res-temp-k": dict(type=float, default=None,
                         help="resonator bath temperature (default: the device's t_res_k)"),
    "--mode": dict(default=T1Mode.MULTILEVEL_SIGNAL.value, choices=[m.value for m in T1Mode]),
    "--bin-width-hz": dict(type=_within(0.0), default=DEFAULT_BIN_WIDTH),
    "--exclusion-threshold": dict(type=_within(0.0), default=DEFAULT_EXCLUSION_THRESHOLD),
    "--dist": dict(action="append", required=True, help="an extract-qceff result file"),
    "--alpha": dict(type=_within(0.0, 1.0), default=DEFAULT_ALPHA,
                    help="significance level of the Welch intervals"),
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def _device_env(args, **fields):
    """The --device file and its environment at --epsilon and ``fields``, in
    the file's bath unless a temperature flag replaces it. An option value
    the environment rejects is a usage error."""
    device = parse_device_file(args.device)
    baths = dict(t_qubit=args.qubit_temp_k, t_res=args.res_temp_k)
    try:
        env = device.environment(epsilon=args.epsilon, **fields,
                                 **{k: v for k, v in baths.items() if v is not None})
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return device, env


def _cmd_spectrum(args) -> int:
    device = parse_device_file(args.device)
    params = device.fluxonium_params()
    n = args.levels
    header = ["phi_ext_phi0"]
    header += [f"energy_{k}_hz" for k in range(n)]
    header += [f"omega_0{j}_hz" for j in range(1, n)]
    header += [f"abs_n_0{j}" for j in range(1, n)]
    header += [f"abs_phi_0{j}" for j in range(1, n)]
    header += [f"abs_sin_half_0{j}" for j in range(1, n)]
    rows = []
    for phi in _flux_grid(args):
        spec = diagonalize(params, FluxBias(float(phi)), n_levels=n)
        row = [phi]
        row += list(spec.energies)
        row += [spec.energies[j] - spec.energies[0] for j in range(1, n)]
        row += [abs(spec.n_elem[0, j]) for j in range(1, n)]
        row += [abs(spec.phi_elem[0, j]) for j in range(1, n)]
        row += [abs(spec.sin_half_elem[0, j]) for j in range(1, n)]
        rows.append(row)
    _emit(csv_text(header, rows), args.out)
    return EXIT_OK


_MECHANISM_NAMES = {m.value: m for m in Mechanism}


def _selection(text: str, kind: str, choices: list[str]) -> list[str]:
    """The tokens of a comma list; an empty list or an unknown token is a usage error."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise _UsageError(f"no {kind} selected; choose from {choices}")
    for tok in tokens:
        if tok not in choices:
            raise _UsageError(f"unknown {kind} {tok!r}; choose from {choices}")
    return tokens


def _solved_levels(args, modes) -> int:
    """Levels to solve per bias: the two-level model reads only the 0<->1
    pair, so a run whose every mode is two-level solves 2; any other run
    solves --levels."""
    return 2 if all(mode is T1Mode.TWO_LEVEL for mode in modes) else args.levels


def _cmd_predict_t1(args) -> int:
    device, env = _device_env(args, qc_eff=args.qceff, x_qp=args.xqp)
    params, res = device.fluxonium_params(), device.resonator_params()
    mech_tokens = _selection(args.mechanisms, "mechanism", sorted(_MECHANISM_NAMES) + ["total"])
    mode_map = {"two_level": T1Mode.TWO_LEVEL, "six_level": T1Mode.MULTILEVEL_POPULATION,
                "signal": T1Mode.MULTILEVEL_SIGNAL}
    mode_tokens = _selection(args.modes, "mode", sorted(mode_map))

    selections = [ANALYSIS_MECHANISMS if tok == "total" else (_MECHANISM_NAMES[tok],)
                  for tok in mech_tokens]
    modes = [mode_map[tok] for tok in mode_tokens]
    grid = _flux_grid(args)
    n_levels = _solved_levels(args, modes)
    # one solve and one model per bias; every row reads the model
    models = [BiasModel(diagonalize(params, FluxBias(float(phi)), n_levels=n_levels),
                        res, env) for phi in grid]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelTraceWarning)
        warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
        t1 = _t1_table(models, selections, modes)
    rows = []
    for f, (phi, model) in enumerate(zip(grid, models)):
        omega01 = model.spec.transition_frequency(0, 1)
        for s, tok in enumerate(mech_tokens):
            for m, mode_tok in enumerate(mode_tokens):
                rows.append([tok, mode_tok, float(phi), omega01, t1[f, s, m]])
    _emit(csv_text(["mechanism", "mode", "phi_ext_phi0", "omega01_hz", "t1_s"], rows),
          args.out)
    return EXIT_OK


def _t1_table(models, selections, modes) -> np.ndarray:
    """(bias, selection, mode) array of the model T1s. Each (bias, selection)
    member is read once: its 0<->1 pair rate, whose inverse is the two-level
    T1 (inf where it vanishes), and, for the multilevel modes, its summed
    rates, p0 and readout weights, which one stack evaluates once for all
    modes. An entry the model cannot determine (its member's own error) is
    nan."""
    stacked = [mode for mode in dict.fromkeys(modes) if mode is not T1Mode.TWO_LEVEL]
    members = [(model, mechanisms) for model in models for mechanisms in selections]
    n = models[0].spec.n_levels
    pair = np.full(len(members), np.nan)
    rates, p0, weights = (np.zeros((len(members), n, n)), np.zeros((len(members), n)),
                          np.zeros((len(members), n)))
    failed = np.full((len(members), len(stacked)), None, dtype=object)
    for k, (model, mechanisms) in enumerate(members):
        try:
            pair[k] = model.pair_rate(mechanisms)
            if stacked:
                rates[k], p0[k] = model.rates(mechanisms), model.p0
        except FluxT1Error as exc:
            failed[k] = exc
            continue
        if T1Mode.MULTILEVEL_SIGNAL in stacked:
            try:
                weights[k] = model.weights
            except FluxT1Error as exc:
                failed[k, stacked.index(T1Mode.MULTILEVEL_SIGNAL)] = exc
    with np.errstate(divide="ignore"):
        columns = {T1Mode.TWO_LEVEL: 1.0 / pair}
    if stacked:
        t1 = multilevel_t1(rates, p0, weights, stacked, failed)
        columns.update((mode, t1[:, j]) for j, mode in enumerate(stacked))
    return np.stack([columns[mode] for mode in modes], axis=-1).reshape(
        len(models), len(selections), len(modes))


def _cmd_simulate_decay(args) -> int:
    device, env = _device_env(args, qc_eff=args.qceff)
    spec = diagonalize(device.fluxonium_params(), FluxBias(args.flux), n_levels=args.levels)
    model = BiasModel(spec, device.resonator_params(), env)
    times, populations, signal = model.decay(n_points=args.points)
    # the level-1 population, the readout signal, and the p1 + sum_{i>=2} p_i
    # that misassigning the higher levels to the excited state reads
    lumped = populations[:, 1] + populations[:, 2:].sum(axis=1)
    t1_p1, t1_signal, t1_lumped = fit_exponential(
        times, np.stack([populations[:, 1], signal, lumped])).t1.tolist()

    if args.trace_out is not None:
        header = ["tau_s", "signal"] + [f"p_{k}" for k in range(model.spec.n_levels)]
        rows = [[times[k], signal[k], *populations[k]] for k in range(times.size)]
        _emit(csv_text(header, rows), args.trace_out)

    config = dict(device=args.device, flux=args.flux, levels=args.levels,
                  qceff=env.qc_eff, epsilon=env.epsilon,
                  qubit_temp_k=env.t_qubit, res_temp_k=env.t_res, points=args.points)
    data = dict(
        t1_population_s=t1_p1,
        t1_signal_s=t1_signal,
        signal_relative_error=(t1_p1 - t1_signal) / t1_p1,
        # misassigning to the ground state leaves the level-1 decay untouched
        misassignment_to_ground_relative_error=0.0,
        misassignment_to_excited_relative_error=(t1_p1 - t1_lumped) / t1_p1,
    )
    _emit(dump_json(result_envelope("simulate-decay", config, data)), args.out)
    return EXIT_OK


def _ingest(device, csv_path: str, env, args) -> tuple[QubitAnalysisInput, int, int]:
    """Parse one qubit's T1 CSV, model omega01 where a row left it out, bin
    and exclude; returns the kept records with the provider that served them
    (so no later stage solves a bias again) and the parsed and binned counts."""
    parsed = parse_t1_csv(csv_path, qubit_id=device.qubit_id)
    provider = CachedSpectrumProvider(device.fluxonium_params(),
                                      n_levels=_solved_levels(args, [T1Mode(args.mode)]))
    filled = tuple(
        r if r.omega01 is not None
        else replace(r, omega01=provider(r.phi_ext).transition_frequency(0, 1))
        for r in parsed.records
    )
    binned = bin_average(replace(parsed, records=filled), bin_width=args.bin_width_hz)
    res = device.resonator_params()
    kept, _dropped = exclusion_filter(binned, provider, env, res,
                                      threshold=args.exclusion_threshold)
    qi = QubitAnalysisInput(dataset=kept, spec_provider=provider, res=res, env=env)
    return qi, len(parsed), len(binned)


def _cmd_extract_qceff(args) -> int:
    # qc_eff cancels in every inversion, and no analysis channel reads x_qp
    device, env = _device_env(args)
    qi, n_raw, n_binned = _ingest(device, args.t1_csv, env, args)
    dist = extract_qceff_dataset(qi.dataset, qi.spec_provider, qi.res, env,
                                 mode=T1Mode(args.mode))
    config = dict(device=args.device, t1_csv=args.t1_csv, levels=qi.spec_provider.n_levels,
                  epsilon=env.epsilon, bin_width_hz=args.bin_width_hz,
                  exclusion_threshold=args.exclusion_threshold, mode=args.mode,
                  qubit_temp_k=env.t_qubit, res_temp_k=env.t_res)
    data = distribution_to_payload(dist)
    data.update(n_raw=n_raw, n_binned=n_binned, n_kept=len(qi.dataset))
    _emit(dump_json(result_envelope("extract-qceff", config, data)), args.out)
    return EXIT_OK


def _cmd_fit_epsilon(args) -> int:
    start, stop, step = args.grid_start, args.grid_stop, args.grid_step
    if stop < start:
        raise _UsageError(f"--grid-stop {stop!r} is below --grid-start {start!r}")
    inputs = []
    for device_path, csv_path in args.qubit:
        device = parse_device_file(device_path)
        # qc_eff cancels in every inversion, and no analysis channel reads x_qp
        env = device.environment(epsilon=0.0)
        inputs.append(_ingest(device, csv_path, env, args)[0])
    # arange's half-step margin can overshoot the stop; a point past it by
    # more than rounding is dropped, the rest keep arange's values
    grid = np.arange(start, stop + step / 2, step)
    grid = grid[grid <= stop + 1e-9 * step]
    result = fit_epsilon_global(inputs, mode=T1Mode(args.mode), grid=grid)
    config = dict(qubits=[list(pair) for pair in args.qubit],
                  levels=inputs[0].spec_provider.n_levels,
                  mode=args.mode, bin_width_hz=args.bin_width_hz,
                  exclusion_threshold=args.exclusion_threshold,
                  grid_start=args.grid_start, grid_stop=args.grid_stop,
                  grid_step=args.grid_step)
    data = dict(
        epsilon=result.epsilon,
        variance_curve=[
            {"epsilon": float(e), "pooled_variance": float(v)}
            for e, v in zip(result.grid, result.pooled_variance)
        ],
    )
    _emit(dump_json(result_envelope("fit-epsilon", config, data)), args.out)
    return EXIT_OK


def _cmd_fit_flux_noise(args) -> int:
    device = parse_device_file(args.device)
    ds = parse_dephasing_csv(args.dephasing_csv)
    sqrt_a = extract_flux_noise_amplitude(ds, device.fluxonium_params())
    config = dict(device=args.device, dephasing_csv=args.dephasing_csv)
    data = dict(
        sqrt_a_phi_phi0_per_sqrt_hz=sqrt_a,
        sqrt_a_phi_uphi0=sqrt_a * 1e6,
        n_records_used=len(ds.fit_records()),
    )
    _emit(dump_json(result_envelope("fit-flux-noise", config, data)), args.out)
    return EXIT_OK


def _welch_pairs(dists, alpha: float) -> list[dict]:
    """Welch tests of every ordered pair of distributions, row by row; each
    unordered pair is tested once and read in reverse through ``swapped``."""
    tests = {}
    for i, j in combinations(range(len(dists)), 2):
        tests[i, j] = welch_t_test(dists[i].values(), dists[j].values(), alpha=alpha)
        tests[j, i] = tests[i, j].swapped()
    pairs = []
    for (i, j), result in sorted(tests.items()):
        lo_pct, hi_pct = ci_of_mean_difference(result, result.mean2)
        pairs.append(dict(
            id1=dists[i].qubit_id, id2=dists[j].qubit_id,
            t0=result.t0, nu=result.nu, p_value=result.p_value,
            ci_low=result.ci_low, ci_high=result.ci_high,
            ci_low_percent_of_mean2=lo_pct, ci_high_percent_of_mean2=hi_pct,
        ))
    return pairs


def _cmd_compare(args) -> int:
    # each file is read once, so the recorded hash is of the bytes analysed
    dists, sha256, input_configs = [], {}, {}
    for p in args.dist:
        blob, raw = read_result(p)
        dist = distribution_from_result(p, raw)
        if len(dist) < 2:
            raise DataError(f"{p}: a distribution needs at least 2 entries, got {len(dist)}")
        dists.append(dist)
        sha256[p] = hashlib.sha256(blob).hexdigest()
        # echo each input's own extraction configuration alongside ours
        input_configs[p] = raw.get("config", {})
    summaries = [dict(qubit_id=d.qubit_id, **asdict(summarize(d))) for d in dists]
    config = dict(dists=list(args.dist), alpha=args.alpha,
                  epsilon_used=[d.epsilon_used for d in dists],
                  input_configs=input_configs)
    data = dict(summaries=summaries, pairs=_welch_pairs(dists, args.alpha),
                provenance={"sha256": sha256})
    _emit(dump_json(result_envelope("compare", config, data)), args.out)
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls, and the
    # append options start from a fresh list each time
    parser = _Parser(prog="fluxt1", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenenergies and matrix elements over flux")
    p.add_argument("--device", required=True)
    _add_flux_args(p)
    _add_options(p, "--levels")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("predict-t1", help="model T1 curves per mechanism and mode")
    p.add_argument("--device", required=True)
    _add_flux_args(p)
    _add_options(p, "--levels", "--qceff", "--epsilon", "--xqp", "--qubit-temp-k",
                 "--res-temp-k")
    p.add_argument("--mechanisms",
                   default="capacitive,flux_noise,charge_line,flux_line,purcell,total",
                   help="comma list of channels; 'total' sums the analysis set "
                        "(capacitive + flux noise + radiative)")
    p.add_argument("--modes", default="two_level,six_level",
                   help="comma list from two_level, six_level, signal")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict_t1)

    p = sub.add_parser("simulate-decay", help="decay signal with resonator pulls")
    p.add_argument("--device", required=True)
    p.add_argument("--flux", type=_within(), required=True)
    _add_options(p, "--levels", "--qceff", "--epsilon", "--qubit-temp-k", "--res-temp-k")
    p.add_argument("--points", type=_within(3, np.inf, int), default=51)
    p.add_argument("--trace-out", default=None, help="CSV path for s(tau) and populations")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate_decay)

    p = sub.add_parser("extract-qceff", help="invert measured T1 into quality factors")
    p.add_argument("--device", required=True)
    p.add_argument("--t1-csv", required=True)
    _add_options(p, "--levels", "--epsilon", "--qubit-temp-k", "--res-temp-k",
                 "--bin-width-hz", "--exclusion-threshold", "--mode")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_extract_qceff)

    p = sub.add_parser("fit-epsilon", help="global frequency exponent over qubits")
    p.add_argument("--qubit", nargs=2, action="append", required=True,
                   metavar=("DEVICE_JSON", "T1_CSV"))
    _add_options(p, "--levels", "--mode", "--bin-width-hz", "--exclusion-threshold")
    p.add_argument("--grid-start", type=_within(), default=EPSILON_GRID[0])
    p.add_argument("--grid-stop", type=_within(), default=EPSILON_GRID[1])
    p.add_argument("--grid-step", type=_within(0.0), default=EPSILON_GRID[2])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_epsilon)

    p = sub.add_parser("fit-flux-noise", help="flux-noise amplitude from echo dephasing")
    p.add_argument("--device", required=True)
    p.add_argument("--dephasing-csv", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_flux_noise)

    p = sub.add_parser("compare", help="summary statistics and pairwise Welch tests "
                                       "of one or more distributions")
    _add_options(p, "--dist", "--alpha")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(dump_json({"error": {"type": kind, "message": message}}))


def cli(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        _emit_error("UsageError", str(exc))
        return EXIT_USAGE
    except DataError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_DATA
    except (FluxT1Error, ValueError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
