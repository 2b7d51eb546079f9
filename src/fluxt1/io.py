"""File schemas: device parameter JSON, T1/dephasing CSV, result envelopes.

Every file carries explicit units in its keys or headers; values convert to
SI immediately on parse. JSON results share one versioned envelope
(``fluxt1/result/v1``) validated by the schema shipped in ``schemas/``. All
writes are atomic (temp file + rename) and byte-deterministic for fixed
inputs: keys are sorted, floats use repr, and no timestamps are embedded.
"""

from __future__ import annotations

import csv
import io as _io
import json
import logging
import os
import re
import tempfile
import warnings
from dataclasses import dataclass

from .errors import DataError
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
_OPTIONAL_DEVICE_KEYS = {
    "n_array": 151,
    "junction_area_um2": None,
    "c_drive_f": Environment.c_drive,
    "m_drive_wb_per_a": Environment.m_drive,
    "t_qubit_k": Environment.t_qubit,
    "t_res_k": Environment.t_res,
}


@dataclass(frozen=True)
class DeviceFile:
    """Validated device parameters, converted to SI."""

    qubit_id: str
    process_label: str
    ej: float
    ec: float
    el: float
    omega_res: float
    g: float
    kappa: float
    sqrt_a_phi: float  # Phi0 / sqrt(Hz)
    n_array: int
    junction_area_um2: float | None
    c_drive: float
    m_drive: float
    t_qubit: float
    t_res: float

    def fluxonium_params(self) -> FluxoniumParams:
        return FluxoniumParams(ej=self.ej, ec=self.ec, el=self.el)

    def resonator_params(self) -> ResonatorParams:
        return ResonatorParams(omega_res=self.omega_res, g=self.g, kappa=self.kappa)

    def environment(self, **fields) -> Environment:
        """The device's bath, flux noise and drive couplings; ``fields`` sets
        any other Environment field (qc_eff, epsilon, x_qp) or replaces one of
        the device's."""
        device = dict(t_qubit=self.t_qubit, t_res=self.t_res, a_phi=self.sqrt_a_phi**2,
                      c_drive=self.c_drive, m_drive=self.m_drive)
        return Environment(**(device | fields))


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


def parse_device_file(path: str) -> DeviceFile:
    """Parse and validate a device JSON file.

    Missing required keys, unknown keys, and duplicate keys are hard errors
    with locations; energies outside the plausible (0.1, 100) GHz window only
    warn, since unusual devices are legitimate.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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

    def number(key, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"{path}: key {key} must be a number, got {value!r} "
                            f"({_key_location(text, key)})")
        return float(value)

    for key in ("ej_ghz", "ec_ghz", "el_ghz"):
        value = number(key, raw[key])
        if not 0.1 < value < 100.0:
            warnings.warn(
                f"{path}: {key} = {value} GHz is outside the plausible (0.1, 100) GHz window",
                stacklevel=2,
            )

    merged = dict(_OPTIONAL_DEVICE_KEYS)
    merged.update(raw)
    area = merged["junction_area_um2"]
    return DeviceFile(
        qubit_id=str(raw["qubit_id"]),
        process_label=str(raw["process_label"]),
        ej=number("ej_ghz", raw["ej_ghz"]) * 1e9,
        ec=number("ec_ghz", raw["ec_ghz"]) * 1e9,
        el=number("el_ghz", raw["el_ghz"]) * 1e9,
        omega_res=number("omega_res_ghz", raw["omega_res_ghz"]) * 1e9,
        g=number("g_mhz", raw["g_mhz"]) * 1e6,
        kappa=number("kappa_mhz", raw["kappa_mhz"]) * 1e6,
        sqrt_a_phi=number("sqrt_a_phi_uphi0", raw["sqrt_a_phi_uphi0"]) * 1e-6,
        n_array=int(merged["n_array"]),
        junction_area_um2=None if area is None else number("junction_area_um2", area),
        c_drive=number("c_drive_f", merged["c_drive_f"]),
        m_drive=number("m_drive_wb_per_a", merged["m_drive_wb_per_a"]),
        t_qubit=number("t_qubit_k", merged["t_qubit_k"]),
        t_res=number("t_res_k", merged["t_res_k"]),
    )


def _read_csv(path: str, required: tuple, optional: tuple, build) -> list:
    """Records of a numeric CSV file, one per row: ``build`` maps each row's
    cells, as floats keyed by header column, to a record. An empty optional
    cell reads None. Missing required and unknown columns, malformed rows
    (named by line number) and files without rows are data errors."""
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
            records = []
            for row_num, row in enumerate(reader, start=2):
                try:
                    records.append(build({
                        c: float(row[c]) if c in required or row[c] else None
                        for c in reader.fieldnames
                    }))
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{path}: malformed row {row_num}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def parse_t1_csv(path: str, qubit_id: str = "") -> T1Dataset:
    """Read measured T1 records (phi_ext,t1_s[,omega01_hz][,t1_err_s]);
    applies the ingest drop rule (err > 2*t1)."""
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


def write_t1_csv(path: str, ds: T1Dataset) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["phi_ext", "t1_s", "omega01_hz", "t1_err_s"])
    for r in ds.records:
        writer.writerow([
            repr(r.phi_ext),
            repr(r.t1),
            "" if r.omega01 is None else repr(r.omega01),
            "" if r.t1_err is None else repr(r.t1_err),
        ])
    atomic_write_text(path, buf.getvalue())


def parse_dephasing_csv(path: str, qubit_id: str = "") -> DephasingDataset:
    """Read echo-dephasing records
    (phi_ext,gamma_phi_e_per_s[,slope_rad_per_s_per_phi0])."""
    records = _read_csv(
        path, ("phi_ext", "gamma_phi_e_per_s"), ("slope_rad_per_s_per_phi0",),
        lambda cells: DephasingRecord(phi_ext=cells["phi_ext"],
                                      gamma_phi_e=cells["gamma_phi_e_per_s"],
                                      slope=cells.get("slope_rad_per_s_per_phi0")),
    )
    return DephasingDataset(records=tuple(records), qubit_id=qubit_id)


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
    except OSError as exc:
        raise DataError(f"cannot read result file {path}: {exc}") from exc
    try:
        raw = json.loads(blob.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: a result file must hold a JSON object")
    if raw.get("schema") != SCHEMA_ID:
        raise DataError(f"{path}: expected schema {SCHEMA_ID!r}, got {raw.get('schema')!r}")
    return blob, raw


def distribution_from_result(path: str, raw: dict) -> QceffDistribution:
    """The quality-factor distribution in an extract-qceff result envelope."""
    payload = raw.get("data", {})
    if "entries" not in payload:
        raise DataError(f"{path}: no distribution entries found")
    try:
        entries = tuple(
            QceffEntry(freq=float(e["freq_hz"]), qceff=float(e["qceff"]),
                       n_binned=int(e.get("n_binned", 1)))
            for e in payload["entries"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed distribution entry: {exc}") from exc
    if any(e.qceff <= 0.0 for e in entries):
        raise DataError(f"{path}: quality factors must be positive")
    return QceffDistribution(
        entries=entries,
        epsilon_used=float(payload.get("epsilon_used", 0.0)),
        qubit_id=str(payload.get("qubit_id", "")),
    )


def read_distribution(path: str) -> QceffDistribution:
    """Load a quality-factor distribution from an extract-qceff result file."""
    return distribution_from_result(path, read_result(path)[1])
