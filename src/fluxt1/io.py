"""File schemas: device parameter JSON, T1/dephasing CSV, result envelopes.

Every file carries explicit units in its keys or headers; values convert to
SI on parse. JSON results share one versioned envelope (``fluxt1/result/v1``);
the tests validate it against the schema in ``schemas/``, and ``read_result``
checks only its schema id. Writes are atomic (temp file + rename) and
byte-deterministic for fixed inputs: sorted keys, repr floats, no timestamps.
"""

from __future__ import annotations

import csv
import io as _io
import json
import logging
import math
import os
import re
import tempfile
import warnings
from dataclasses import dataclass, replace

from .errors import DataError, check_number
from .hamiltonian import FluxoniumParams
from .loss import Environment
from .pipeline import (
    DephasingDataset,
    DephasingRecord,
    QceffDistribution,
    QceffEntry,
    T1Dataset,
    T1Record,
)
from .resonator import ResonatorParams

logger = logging.getLogger(__name__)

SCHEMA_ID = "fluxt1/result/v1"

_REQUIRED_DEVICE_KEYS = (
    "qubit_id",
    "process_label",
    "ej_ghz",
    "ec_ghz",
    "el_ghz",
    "omega_res_ghz",
    "g_mhz",
    "kappa_mhz",
    "sqrt_a_phi_uphi0",
)
# each optional key and the Environment field it sets; an absent key leaves the
# field's default. n_array and junction_area_um2 are checked, but no model reads them.
_OPTIONAL_DEVICE_KEYS = {
    "c_drive_f": "c_drive",
    "m_drive_wb_per_a": "m_drive",
    "t_qubit_k": "t_qubit",
    "t_res_k": "t_res",
    "n_array": None,
    "junction_area_um2": None,
}


@dataclass(frozen=True)
class DeviceFile:
    """A device file's identity and its validated model objects, in SI."""

    qubit_id: str
    params: FluxoniumParams
    res: ResonatorParams
    env: Environment  # at Environment's default qc_eff, epsilon and x_qp

    def fluxonium_params(self) -> FluxoniumParams:
        return self.params

    def resonator_params(self) -> ResonatorParams:
        return self.res

    def environment(self, **fields) -> Environment:
        """The device's bath, flux noise and drive couplings; ``fields`` sets
        any other Environment field (qc_eff, epsilon, x_qp) or replaces one of
        the device's."""
        return replace(self.env, **fields)


def _key_location(text: str, key: str, occurrence: int = 1) -> str:
    """Best-effort line:column of the nth occurrence of a JSON key."""
    seen = 0
    for match in re.finditer(r'"' + re.escape(key) + r'"\s*:', text):
        seen += 1
        if seen == occurrence:
            line = text.count("\n", 0, match.start()) + 1
            col = match.start() - (text.rfind("\n", 0, match.start()) + 1) + 1
            return f"line {line}, column {col}"
    return "unknown location"


def _number(value, where: str) -> float:
    """A JSON number as a float; anything else, a bool included, is a
    DataError naming ``where``. An integer beyond the float range reads inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def parse_device_file(path: str) -> DeviceFile:
    """Parse and validate a device JSON file.

    Missing required keys, unknown keys, and duplicate keys are hard errors
    with locations, as is any value that is not a finite number or that the
    model objects reject, or a qubit_id or process_label that is not text;
    energies outside the plausible (0.1, 100) GHz window only warn, since
    unusual devices are legitimate.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read device file {path}: {exc}") from exc

    duplicates: list[str] = []

    def reject_duplicates(pairs):
        seen: dict[str, object] = {}
        for key, value in pairs:
            if key in seen:
                duplicates.append(key)
            seen[key] = value
        return seen

    try:
        raw = json.loads(text, object_pairs_hook=reject_duplicates)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                        f"{exc.msg}") from exc
    if duplicates:
        where = ", ".join(f"{k} ({_key_location(text, k, occurrence=2)})" for k in duplicates)
        raise DataError(f"{path}: duplicate keys: {where}")
    if not isinstance(raw, dict):
        raise DataError(f"{path}: device file must be a JSON object")

    missing = [k for k in _REQUIRED_DEVICE_KEYS if k not in raw]
    if missing:
        raise DataError(
            f"{path}: missing required keys {missing}; "
            f"required keys are {list(_REQUIRED_DEVICE_KEYS)}"
        )
    known = set(_REQUIRED_DEVICE_KEYS) | set(_OPTIONAL_DEVICE_KEYS)
    unknown = [k for k in raw if k not in known]
    if unknown:
        where = ", ".join(f"{k} ({_key_location(text, k)})" for k in unknown)
        raise DataError(f"{path}: unknown keys: {where}")

    def number(key):
        return _number(raw[key], f"{path}: key {key} ({_key_location(text, key)})")

    for key in ("qubit_id", "process_label"):  # no model reads process_label
        if not isinstance(raw[key], str):
            raise DataError(f"{path}: key {key} ({_key_location(text, key)}) must be text, "
                            f"got {raw[key]!r}")

    for key in ("ej_ghz", "ec_ghz", "el_ghz"):
        value = number(key)
        if not 0.1 < value < 100.0:
            warnings.warn(
                f"{path}: {key} = {value} GHz is outside the plausible (0.1, 100) GHz window",
                stacklevel=2,
            )

    try:
        for key in ("n_array", "junction_area_um2"):
            if key in raw:
                check_number(key, number(key), "> 0")
        check_number("sqrt_a_phi_uphi0", number("sqrt_a_phi_uphi0"), ">= 0")  # before squaring
        sqrt_a_phi = number("sqrt_a_phi_uphi0") * 1e-6  # Phi0 / sqrt(Hz)
        return DeviceFile(
            qubit_id=raw["qubit_id"],
            params=FluxoniumParams(ej=number("ej_ghz") * 1e9, ec=number("ec_ghz") * 1e9,
                                   el=number("el_ghz") * 1e9),
            res=ResonatorParams(omega_res=number("omega_res_ghz") * 1e9,
                                g=number("g_mhz") * 1e6, kappa=number("kappa_mhz") * 1e6),
            env=Environment(a_phi=sqrt_a_phi**2, **{
                field: number(key) for key, field in _OPTIONAL_DEVICE_KEYS.items()
                if field is not None and key in raw}),
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_csv(path: str, required: tuple, optional: tuple, build) -> list:
    """Records of a numeric CSV file, one per row: ``build`` maps each row's
    cells, as floats keyed by header column, to a record. An empty optional
    cell reads None. Missing required, unknown and duplicate columns,
    malformed rows and rows with more cells than the header (both named by
    line number) and files without rows are data errors."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file; expected header with columns {required}")
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise DataError(f"{path}: header missing required columns {missing}")
            unknown = [c for c in reader.fieldnames if c not in required + optional]
            if unknown:
                raise DataError(f"{path}: unknown columns {unknown}")
            duplicate = [c for c in required + optional if reader.fieldnames.count(c) > 1]
            if duplicate:
                raise DataError(f"{path}: duplicate columns {duplicate}")
            records = []
            for row_num, row in enumerate(reader, start=2):
                if None in row:  # DictReader's key of the cells past the header
                    raise DataError(f"{path}: row {row_num} has more cells than the header")
                try:
                    records.append(build({
                        c: float(row[c]) if c in required or row[c] else None
                        for c in reader.fieldnames
                    }))
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{path}: malformed row {row_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def parse_t1_csv(path: str, qubit_id: str = "") -> T1Dataset:
    """Read measured T1 records (phi_ext,t1_s[,omega01_hz][,t1_err_s]);
    applies the ingest drop rule (err > 2*t1) and logs both counts."""
    records = _read_csv(
        path, ("phi_ext", "t1_s"), ("omega01_hz", "t1_err_s"),
        lambda cells: T1Record(phi_ext=cells["phi_ext"], t1=cells["t1_s"],
                               omega01=cells.get("omega01_hz"),
                               t1_err=cells.get("t1_err_s")),
    )
    ds = T1Dataset.from_records(records, qubit_id=qubit_id)
    logger.info("%s: ingested %d records (%d dropped by the error-bar rule)",
                path, len(ds), ds.n_ingest_dropped)
    return ds


def csv_text(header: list[str], rows) -> str:
    """CSV text with CRLF line ends: a text cell is written as given, None as
    an empty cell, and any other cell as repr(float(cell))."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if x is None else x if isinstance(x, str) else repr(float(x))
                         for x in row])
    return buf.getvalue()


def write_t1_csv(path: str, ds: T1Dataset) -> None:
    atomic_write_text(path, csv_text(
        ["phi_ext", "t1_s", "omega01_hz", "t1_err_s"],
        ([r.phi_ext, r.t1, r.omega01, r.t1_err] for r in ds.records)))


def parse_dephasing_csv(path: str) -> DephasingDataset:
    """Read echo-dephasing records
    (phi_ext,gamma_phi_e_per_s[,slope_rad_per_s_per_phi0])."""
    records = _read_csv(
        path, ("phi_ext", "gamma_phi_e_per_s"), ("slope_rad_per_s_per_phi0",),
        lambda cells: DephasingRecord(phi_ext=cells["phi_ext"],
                                      gamma_phi_e=cells["gamma_phi_e_per_s"],
                                      slope=cells.get("slope_rad_per_s_per_phi0")),
    )
    return DephasingDataset(records=tuple(records))


def atomic_write_text(path: str, content: str) -> None:
    """Single-writer atomic file replacement."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fluxt1-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def result_envelope(command: str, config: dict, data: dict) -> dict:
    return {"schema": SCHEMA_ID, "command": command, "config": config, "data": data}


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_result(path: str, command: str, config: dict, data: dict) -> None:
    """Write one result envelope to ``path`` atomically. No package code
    calls it; it stays only because the benchmark's tracer
    (``perfbench/spans.py``) wraps it by name."""
    atomic_write_text(path, dump_json(result_envelope(command, config, data)))


def distribution_to_payload(dist: QceffDistribution) -> dict:
    return {
        "qubit_id": dist.qubit_id,
        "epsilon_used": dist.epsilon_used,
        "entries": [
            {"freq_hz": e.freq, "qceff": e.qceff, "n_binned": e.n_binned}
            for e in dist.entries
        ],
    }


def read_result(path: str) -> tuple[bytes, dict]:
    """The bytes of a result file, read once, and the envelope they hold."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        text = blob.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read result file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: a result file must hold a JSON object")
    if raw.get("schema") != SCHEMA_ID:
        raise DataError(f"{path}: expected schema {SCHEMA_ID!r}, got {raw.get('schema')!r}")
    return blob, raw


def distribution_from_result(path: str, raw: dict) -> QceffDistribution:
    """The quality-factor distribution in an extract-qceff result envelope:
    it must hold every key the schema requires, each of its JSON type."""
    payload = raw.get("data", {})
    if not isinstance(payload, dict):
        raise DataError(f"{path}: data must be a JSON object, got {type(payload).__name__}")
    missing = [key for key in ("qubit_id", "epsilon_used", "entries") if key not in payload]
    if missing:
        raise DataError(f"{path}: data misses required keys {missing}")
    if not isinstance(payload["qubit_id"], str):
        raise DataError(f"{path}: key qubit_id must be text, got {payload['qubit_id']!r}")

    def entry(k, e):
        missing = [key for key in ("freq_hz", "qceff", "n_binned") if key not in e]
        if missing:
            raise DataError(f"{path}: entry {k} misses required keys {missing}")
        where = f"{path}: entry {k} key"
        freq = _number(e["freq_hz"], f"{where} freq_hz")
        qceff = _number(e["qceff"], f"{where} qceff")
        n_binned = e["n_binned"]
        if isinstance(n_binned, bool) or not isinstance(n_binned, int):
            raise DataError(f"{where} n_binned must be an integer, got {n_binned!r}")
        return QceffEntry(freq=freq, qceff=qceff, n_binned=n_binned)

    try:
        entries = tuple(entry(k, e) for k, e in enumerate(payload["entries"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed distribution entry: {exc}") from exc
    epsilon_used = _number(payload["epsilon_used"], f"{path}: key epsilon_used")
    try:
        return QceffDistribution(entries=entries, epsilon_used=epsilon_used,
                                 qubit_id=payload["qubit_id"])
    except ValueError as exc:
        raise DataError(f"{path}: malformed epsilon_used: {exc}") from exc


def read_distribution(path: str) -> QceffDistribution:
    """Load a quality-factor distribution from an extract-qceff result file."""
    return distribution_from_result(path, read_result(path)[1])
