"""File parsing, result envelopes, CLI subcommands, exit codes, determinism."""

import csv
import hashlib
import json
import logging
import math
import warnings
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fluxt1.cli import cli
from fluxt1.errors import DataError
from fluxt1.io import (
    _OPTIONAL_DEVICE_KEYS,
    SCHEMA_ID,
    csv_text,
    parse_device_file,
    parse_t1_csv,
    read_distribution,
    write_t1_csv,
)
from fluxt1.hamiltonian import FluxBias, FluxoniumParams, diagonalize
from fluxt1.loss import Environment, Mechanism
from fluxt1.pipeline import DephasingRecord, T1Dataset, T1Record
from fluxt1.resonator import ResonatorParams

A1_ROW = {
    "qubit_id": "A1",
    "process_label": "A",
    "ej_ghz": 3.54,
    "ec_ghz": 1.05,
    "el_ghz": 0.53,
    "omega_res_ghz": 7.090,
    "g_mhz": 124,
    "kappa_mhz": 0.25,
    "sqrt_a_phi_uphi0": 10.4,
}


@pytest.fixture()
def a1_device(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(A1_ROW))
    return str(path)


@pytest.fixture(scope="module")
def result_schema():
    with resources.files("fluxt1.schemas").joinpath("result.schema.json").open() as fh:
        return json.load(fh)


def validate(payload, schema):
    jsonschema.validate(payload, schema)


class TestDeviceFile:
    def test_a1_row_parses_to_si(self, a1_device):
        device = parse_device_file(a1_device)
        params = device.fluxonium_params()
        assert (params.ej, params.ec, params.el) == (3.54e9, 1.05e9, 0.53e9)
        res = device.resonator_params()
        assert res.omega_res == 7.090e9 and res.g == 124e6 and res.kappa == 0.25e6
        env = device.environment()
        assert env.a_phi == pytest.approx((10.4e-6) ** 2, rel=1e-12)
        assert env.c_drive == 20e-18

    def test_empty_file_lists_all_required_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(DataError) as err:
            parse_device_file(str(path))
        for key in A1_ROW:
            assert key in str(err.value)

    def test_duplicate_key_reports_location(self, tmp_path):
        path = tmp_path / "dup.json"
        text = json.dumps(A1_ROW)[:-1] + ', "ej_ghz": 3.6}'
        path.write_text(text)
        with pytest.raises(DataError) as err:
            parse_device_file(str(path))
        assert "duplicate" in str(err.value)
        assert "ej_ghz" in str(err.value)
        assert "line 1" in str(err.value)

    def test_unknown_key_rejected_with_location(self, tmp_path):
        row = dict(A1_ROW)
        row["ej_gz"] = 3.0
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(row, indent=2))
        with pytest.raises(DataError) as err:
            parse_device_file(str(path))
        assert "ej_gz" in str(err.value)
        assert "line" in str(err.value)

    def test_implausible_energy_warns_not_errors(self, tmp_path):
        row = dict(A1_ROW)
        row["ej_ghz"] = 500.0
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(row))
        with pytest.warns(UserWarning, match="plausible"):
            device = parse_device_file(str(path))
        assert device.fluxonium_params().ej == 500.0e9

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"qubit_id": }')
        with pytest.raises(DataError, match="line 1"):
            parse_device_file(str(path))


# one valid instance of each type the number rule checks
CHECKED = [
    FluxoniumParams(ej=3.54e9, ec=1.05e9, el=0.53e9),
    FluxBias(0.3),
    ResonatorParams(omega_res=7.09e9, g=124e6, kappa=0.25e6),
    Environment(),
    T1Record(phi_ext=0.3, t1=1e-4, omega01=5e8, t1_err=1e-6),
    DephasingRecord(phi_ext=0.3, gamma_phi_e=1e4, slope=1e9),
]
CHECKED_FIELDS = [(obj, f.name) for obj in CHECKED for f in fields(obj)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("obj, name", CHECKED_FIELDS,
                         ids=[f"{type(o).__name__}.{n}" for o, n in CHECKED_FIELDS])
def test_every_checked_field_rejects_non_finite_values(obj, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(obj, **{name: bad})


@pytest.mark.parametrize("obj, name, bad", [
    (CHECKED[2], "g", -1.0), (CHECKED[3], "c_drive", -1e-18),
    (CHECKED[3], "m_drive", -1.0), (CHECKED[3], "qc_eff", 0.0), (CHECKED[4], "n_binned", 0),
])
def test_checked_field_rejects_wrong_sign(obj, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite and"):
        replace(obj, **{name: bad})


def test_every_model_field_is_set_by_an_input():
    # a field that no device key or CLI option sets is a constant, not a field
    settable = {name for name in _OPTIONAL_DEVICE_KEYS.values() if name is not None}
    settable |= {"a_phi", "qc_eff", "epsilon", "x_qp"}  # sqrt_a_phi_uphi0; --qceff/--epsilon/--xqp
    assert {f.name for f in fields(Environment)} == settable
    assert [f.name for f in fields(ResonatorParams)] == ["omega_res", "g", "kappa"]


@pytest.mark.filterwarnings("ignore:.*plausible")
@pytest.mark.parametrize("key, value", [
    (key, value) for key in ("g_mhz", "kappa_mhz", "el_ghz", "sqrt_a_phi_uphi0", "t_qubit_k",
                             "c_drive_f")
    for value in (math.nan, math.inf, -math.inf, -1.0)
] + [("el_ghz", 0.0), ("kappa_mhz", 0.0), ("t_qubit_k", 0.0), ("t_res_k", -1.0),
     ("n_array", "abc"), ("n_array", math.nan), ("n_array", None),
     ("junction_area_um2", -1.0), ("junction_area_um2", None),
     ("g_mhz", 10**400)])
def test_bad_device_value_is_a_data_error_naming_the_file(tmp_path, capsys, key, value):
    path = tmp_path / "bad_device.json"
    path.write_text(json.dumps(dict(A1_ROW, **{key: value})))
    code, out, err = run_cli(["predict-t1", "--device", str(path), "--flux", "0.2"], capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "DataError"
    assert str(path) in payload["error"]["message"]


@pytest.mark.parametrize("key, value", [("qubit_id", 7), ("qubit_id", None),
                                        ("process_label", ["A"])],
                         ids=["qubit_id_number", "qubit_id_null", "process_label_list"])
def test_identity_key_that_is_not_text_is_a_data_error_naming_the_key(tmp_path, capsys,
                                                                    key, value):
    path = tmp_path / "bad_device.json"
    path.write_text(json.dumps(dict(A1_ROW, **{key: value})))
    code, out, err = run_cli(["spectrum", "--device", str(path), "--flux", "0.2"], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert str(path) in error["message"] and f"key {key} " in error["message"]


class TestT1Csv:
    def test_error_bar_rule_applied_on_ingest(self, tmp_path):
        path = tmp_path / "t1.csv"
        path.write_text(
            "phi_ext,t1_s,omega01_hz,t1_err_s\n"
            "0.5,1e-4,4.2e8,2e-5\n"
            "0.4,1e-4,5.0e8,3.1e-4\n"  # err = 3.1 t1 -> dropped
        )
        ds = parse_t1_csv(str(path))
        assert len(ds) == 1
        assert ds.n_ingest_dropped == 1

    def test_ingest_logs_one_line_naming_the_file_and_counts(self, tmp_path, caplog):
        path = tmp_path / "t1.csv"
        path.write_text("phi_ext,t1_s,t1_err_s\n0.5,1e-4,2e-5\n0.4,1e-4,3.1e-4\n0.3,2e-4,\n")
        with caplog.at_level(logging.INFO, logger="fluxt1"):
            parse_t1_csv(str(path))
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, f"{path}: ingested 2 records (1 dropped by the error-bar rule)")]

    def test_missing_optional_columns_ok(self, tmp_path):
        path = tmp_path / "t1.csv"
        path.write_text("phi_ext,t1_s\n0.5,1e-4\n")
        ds = parse_t1_csv(str(path))
        assert ds.records[0].omega01 is None

    def test_malformed_row_reports_number(self, tmp_path):
        path = tmp_path / "t1.csv"
        path.write_text("phi_ext,t1_s\n0.5,1e-4\n0.4,not_a_number\n")
        with pytest.raises(DataError, match="row 3"):
            parse_t1_csv(str(path))

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "t1.csv"
        path.write_text("phi_ext,t1_s\n")
        with pytest.raises(DataError):
            parse_t1_csv(str(path))

    def test_three_row_round_trip_bit_exact(self, tmp_path):
        ds = T1Dataset(records=(
            T1Record(phi_ext=0.123456789012345, t1=1.23e-4, omega01=4.271e8,
                     t1_err=2.2e-5),
            T1Record(phi_ext=0.3, t1=9.87e-5, omega01=None, t1_err=None),
            T1Record(phi_ext=0.5, t1=7.5e-5, omega01=3.62e8, t1_err=1e-5),
        ))
        path = tmp_path / "round.csv"
        write_t1_csv(str(path), ds)
        first = path.read_bytes()
        back = parse_t1_csv(str(path))
        assert [(r.phi_ext, r.t1, r.omega01, r.t1_err) for r in back.records] == \
            [(r.phi_ext, r.t1, r.omega01, r.t1_err) for r in ds.records]
        write_t1_csv(str(path), back)
        assert path.read_bytes() == first


@pytest.mark.parametrize("cell, text", [
    ("0.50", "0.50"), ("two_level", "two_level"), (None, ""), (0.1, "0.1"), (1, "1.0"),
    (np.float64(1e-4), "0.0001"), (np.float32(0.1), "0.10000000149011612"),
], ids=["numeric-text", "text", "none", "float", "int", "float64", "float32"])
def test_csv_text_cell(cell, text):
    # text passes as given, None is empty, every other cell is repr(float(cell))
    assert csv_text(["c", "d"], [[cell, 0.5]]) == f"c,d\r\n{text},0.5\r\n"


def test_t1_csv_is_csv_text_of_its_records(tmp_path):
    ds = T1Dataset(records=(T1Record(phi_ext=0.3, t1=9.87e-5, omega01=None, t1_err=None),))
    path = tmp_path / "one.csv"
    write_t1_csv(str(path), ds)
    assert path.read_bytes() == b"phi_ext,t1_s,omega01_hz,t1_err_s\r\n0.3,9.87e-05,,\r\n"


A3_ROW = dict(qubit_id="A3", process_label="A", ej_ghz=4.38, ec_ghz=1.02, el_ghz=0.53,
              omega_res_ghz=7.273, g_mhz=123, kappa_mhz=0.34, sqrt_a_phi_uphi0=4.3)


@pytest.mark.parametrize("command, text", [
    ("extract-qceff", "phi_ext,t1_s,omega01_hz\n0.2,1e-4,4.5e8\n0.3,inf,4.0e8\n"),
    ("extract-qceff", "phi_ext,t1_s,omega01_hz\n0.2,1e-4,4.5e8\n0.3,1e-4,nan\n"),
    ("extract-qceff", "phi_ext,t1_s,omega01_hz\n0.2,1e-4,4.5e8\n0.3,1e-4,-5e9\n"),
    ("extract-qceff", "phi_ext,t1_s,omega01_hz\n0.2,1e-4,4.5e8\nnan,1e-4,4.0e8\n"),
    ("extract-qceff", "phi_ext,t1_s,t1_err_s\n0.2,1e-4,1e-6\n0.3,1e-4,-1e-6\n"),
    ("extract-qceff", "phi_ext,t1_s,t1_err_s\n0.2,1e-4,1e-6\n0.3,1e-4,inf\n"),
    ("fit-flux-noise", "phi_ext,gamma_phi_e_per_s\n0.2,1e4\n0.3,nan\n"),
    ("fit-flux-noise", "phi_ext,gamma_phi_e_per_s\n0.2,1e4\n0.3,-1.0\n"),
    ("fit-flux-noise",
     "phi_ext,gamma_phi_e_per_s,slope_rad_per_s_per_phi0\n0.2,1e4,1e9\n0.3,1e4,inf\n"),
], ids=["t1_inf", "omega01_nan", "omega01_negative", "phi_ext_nan", "t1_err_negative",
        "t1_err_inf", "gamma_nan", "gamma_negative", "slope_inf"])
def test_bad_number_in_csv_is_a_data_error_naming_the_row(
        a1_device, tmp_path, result_schema, capsys, command, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    flag = "--t1-csv" if command == "extract-qceff" else "--dephasing-csv"
    code, out, err = run_cli([command, "--device", a1_device, flag, str(path)], capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    validate(payload, result_schema)
    assert payload["error"]["type"] == "DataError"
    assert "row 3" in payload["error"]["message"]


@pytest.mark.parametrize("command, text, column", [
    ("extract-qceff", "phi_ext,t1_s,t1_eror_s\n0.2,1e-4,1e-6\n0.3,1e-4,1e-6\n", "t1_eror_s"),
    ("fit-flux-noise",
     "phi_ext,gamma_phi_e_per_s,slope_rad_per_s_per_phio\n0.2,1e4,1e9\n0.3,1e4,2e9\n",
     "slope_rad_per_s_per_phio"),
], ids=["t1", "dephasing"])
def test_unknown_csv_column_is_a_data_error_naming_it(
        a1_device, tmp_path, capsys, command, text, column):
    path = tmp_path / "data.csv"
    path.write_text(text)
    flag = "--t1-csv" if command == "extract-qceff" else "--dephasing-csv"
    code, out, err = run_cli([command, "--device", a1_device, flag, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert column in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("text", ["[1, 2]", '{"schema": "other/v0"}', "{not json"],
                         ids=["not_an_object", "wrong_schema", "invalid_json"])
def test_distribution_file_that_is_not_a_result_is_a_data_error(tmp_path, capsys, text):
    path = tmp_path / "dist.json"
    path.write_text(text)
    code, out, err = run_cli(["compare", "--dist", str(path), "--dist", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "DataError"


def dist_envelope(qubit_id, qceff, n_binned=1):
    """The text of an extract-qceff result holding one entry per quality
    factor; json writes a non-finite float as NaN or Infinity."""
    return json.dumps({
        "schema": SCHEMA_ID, "command": "extract-qceff", "config": {},
        "data": {"qubit_id": qubit_id, "epsilon_used": 0.25,
                 "entries": [{"freq_hz": 1e9 + k * 1e7, "qceff": q, "n_binned": n_binned}
                             for k, q in enumerate(qceff)]},
    })


@pytest.mark.parametrize("qceff, n_binned", [
    (math.nan, 1), (math.inf, 1), (0.0, 1), (-1.0, 1), (2e5, 0), (2e5, math.inf),
], ids=["qceff_nan", "qceff_inf", "qceff_zero", "qceff_negative", "n_binned_zero",
        "n_binned_inf"])
def test_bad_number_in_distribution_is_a_data_error_naming_the_file(
        tmp_path, capsys, qceff, n_binned):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(dist_envelope("G", [1e5 * (1 + 0.1 * k) for k in range(8)]))
    bad.write_text(dist_envelope("B", [1.5e5, qceff], n_binned=n_binned))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["compare", "--dist", str(good), "--dist", str(bad)],
                                 capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert str(bad) in error["message"]


@pytest.mark.parametrize("data", [None, 3.5, "entries"], ids=["null", "number", "string"])
def test_data_that_is_not_an_object_is_a_data_error_naming_the_file(tmp_path, capsys, data):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(dist_envelope("G", [1e5 * (1 + 0.1 * k) for k in range(8)]))
    bad.write_text(json.dumps({"schema": SCHEMA_ID, "command": "extract-qceff",
                               "config": {}, "data": data}))
    code, out, err = run_cli(["compare", "--dist", str(good), "--dist", str(bad)], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert str(bad) in error["message"]


@pytest.mark.parametrize("epsilon", ["NaN", '"0.25x"', "null", '"0.25"', None],
                         ids=["nan", "text", "null", "numeric_text", "missing"])
def test_bad_epsilon_used_is_a_data_error_naming_the_file(tmp_path, capsys, epsilon):
    # None drops the key, which result.schema.json requires
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(dist_envelope("G", [1e5 * (1 + 0.1 * k) for k in range(8)]))
    text = dist_envelope("B", [1.5e5, 2.5e5])
    if epsilon is None:
        text = text.replace('"epsilon_used": 0.25, ', "")
        assert '"epsilon_used"' not in text
    else:
        text = text.replace('"epsilon_used": 0.25', f'"epsilon_used": {epsilon}')
        assert f'"epsilon_used": {epsilon}' in text
    bad.write_text(text)
    code, out, err = run_cli(["compare", "--dist", str(good), "--dist", str(bad)], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert str(bad) in error["message"]
    assert "epsilon_used" in error["message"]


@pytest.mark.parametrize("n_entries", [0, 1])
def test_distribution_with_fewer_than_two_entries_is_a_data_error(tmp_path, capsys,
                                                                  n_entries):
    good, short = tmp_path / "good.json", tmp_path / "short.json"
    good.write_text(dist_envelope("G", [1e5 * (1 + 0.1 * k) for k in range(8)]))
    short.write_text(dist_envelope("S", [1.5e5] * n_entries))
    code, out, err = run_cli(["compare", "--dist", str(good), "--dist", str(short)], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert error["message"] == \
        f"{short}: a distribution needs at least 2 entries, got {n_entries}"


MISSING = object()


@pytest.mark.parametrize("key, value", [
    ("qceff", True), ("freq_hz", "6e9"), ("n_binned", 2.9), ("n_binned", MISSING),
    ("qubit_id", [1, 2]), ("qubit_id", 7), ("qubit_id", MISSING),
], ids=["qceff_bool", "freq_hz_text", "n_binned_fraction", "n_binned_missing",
        "qubit_id_list", "qubit_id_number", "qubit_id_missing"])
def test_entry_value_outside_its_json_type_is_a_data_error_naming_the_key(
        tmp_path, capsys, key, value):
    # result.schema.json requires each of these keys and declares each a JSON
    # number (n_binned an integer), but qubit_id, the distribution's own key,
    # a JSON string
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(dist_envelope("G", [1e5 * (1 + 0.1 * k) for k in range(8)]))
    envelope = json.loads(dist_envelope("B", [1.5e5, 2.5e5]))
    holder = envelope["data"] if key == "qubit_id" else envelope["data"]["entries"][1]
    if value is MISSING:
        del holder[key]
    else:
        holder[key] = value
    bad.write_text(json.dumps(envelope))
    code, out, err = run_cli(["compare", "--dist", str(good), "--dist", str(bad)], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert str(bad) in error["message"] and key in error["message"]


@pytest.mark.parametrize("command", ["compare", "extract-qceff", "spectrum"])
def test_file_that_is_not_utf8_is_a_data_error_naming_it(a1_device, tmp_path, capsys,
                                                         command):
    # one reader each: a result file, a T1 CSV and a device file
    bad = tmp_path / "bad"
    good = tmp_path / "good.json"
    good.write_text(dist_envelope("G", [1e5 * (1 + 0.1 * k) for k in range(8)]))
    text, argv = {
        "compare": (dist_envelope("B", [1.5e5, 2.5e5]).replace('"B"', '"B\xff"'),
                    ["--dist", str(good), "--dist", str(bad)]),
        "extract-qceff": ("phi_ext,t1_s\n0.2,1e-4\n0.3,1e-4\xff\n",
                          ["--device", a1_device, "--t1-csv", str(bad)]),
        "spectrum": (json.dumps(dict(A1_ROW, qubit_id="A1\xff"), ensure_ascii=False),
                     ["--device", str(bad)]),
    }[command]
    bad.write_bytes(text.encode("latin-1"))
    assert b"\xff" in bad.read_bytes()
    code, out, err = run_cli([command, *argv], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert str(bad) in error["message"]


@pytest.mark.parametrize("argv, where", [
    (["extract-qceff", "--device", "dev.json", "--t1-csv", "t1.csv"], "record at phi_ext = 0.5: "),
    (["fit-epsilon", "--qubit", "dev.json", "t1.csv", "--grid-start", "0", "--grid-stop",
      "0.5", "--grid-step", "0.25"], "record at phi_ext = 0.5, epsilon = 0.0: "),
], ids=["extract-qceff", "fit-epsilon"])
def test_error_reading_a_records_data_names_the_record(tmp_path, monkeypatch, capsys, argv,
                                                       where):
    # the resonator sits on A1's half-flux 0->3 transition, so reading that
    # record's readout weights (its dispersive shifts) collides
    spec = diagonalize(FluxoniumParams(ej=3.54e9, ec=1.05e9, el=0.53e9), FluxBias(0.5),
                       n_levels=6)
    omega_03 = float(spec.energies[3] - spec.energies[0])
    (tmp_path / "dev.json").write_text(json.dumps(dict(A1_ROW, omega_res_ghz=omega_03 / 1e9)))
    (tmp_path / "t1.csv").write_text("phi_ext,t1_s\n0.3,1e-4\n0.5,1e-6\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([*argv, "--mode", "multilevel_signal"], capsys)
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ResonanceCollisionError"
    assert error["message"].startswith(where + "transition (0, 3) ")


def test_report_is_not_a_command(tmp_path, capsys):
    path = tmp_path / "dist.json"
    path.write_text(dist_envelope("X", [1e5, 2e5, 3e5]))
    code, out, err = run_cli(["report", "--dist", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_consecutive_calls_share_only_the_parser(a1_device, tmp_path, capsys):
    # one parser serves every in-process call: the append options --dist and
    # --qubit start empty in each call, and a usage error in between leaves
    # the next call as correct as the first
    from fluxt1.cli import _build_parser

    dists = []
    for name, q in (("A", 1e5), ("B", 2e5), ("C", 3e5)):
        path = tmp_path / f"{name}.json"
        path.write_text(dist_envelope(name, [q, 1.1 * q, 1.2 * q]))
        dists.append(str(path))
    t1_path = tmp_path / "t1.csv"
    t1_path.write_text("phi_ext,t1_s\n0.2,1.1e-4\n0.35,1.6e-4\n")
    grid = ["--grid-start", "0.0", "--grid-stop", "0.1", "--grid-step", "0.1"]

    def compare(*paths):
        code, out, _ = run_cli(["compare", *(arg for p in paths for arg in ("--dist", p))],
                               capsys)
        assert code == 0
        return json.loads(out)["config"]["dists"]

    def fit_epsilon(n_qubits):
        code, out, _ = run_cli(["fit-epsilon", *["--qubit", a1_device, str(t1_path)] * n_qubits,
                                "--mode", "two_level", *grid], capsys)
        assert code == 0
        return json.loads(out)["config"]["qubits"]

    parser = _build_parser()
    assert compare(dists[0], dists[1]) == dists[:2]
    assert compare(dists[2]) == dists[2:]
    assert fit_epsilon(2) == [[a1_device, str(t1_path)]] * 2
    assert fit_epsilon(1) == [[a1_device, str(t1_path)]]
    for bad in (["compare", "--dist", dists[0], "--alpha", "x"],
                ["fit-epsilon", "--qubit", a1_device, str(t1_path), "--mode", "no_such_mode"]):
        code, out, err = run_cli(bad, capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "UsageError"
    assert compare(dists[1], dists[2]) == dists[1:]
    assert fit_epsilon(1) == [[a1_device, str(t1_path)]]
    assert _build_parser() is parser


def run_cli(args, capsys):
    code = cli(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_spectrum_reports_qubit_frequency(self, a1_device, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--device", a1_device, "--flux", "0.5", "--levels", "6"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        f01 = float(rows[0]["omega_01_hz"])
        assert f01 == pytest.approx(0.362e9, rel=0.02)

    def test_spectrum_deterministic_bytes(self, a1_device, tmp_path, capsys):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        for out in (out1, out2):
            code = cli(["spectrum", "--device", a1_device, "--flux-start", "0.0",
                        "--flux-stop", "0.5", "--flux-points", "7",
                        "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_predict_t1_emits_tagged_series(self, a1_device, capsys):
        code, out, _ = run_cli(
            ["predict-t1", "--device", a1_device, "--flux", "0.5",
             "--mechanisms", "capacitive,total", "--modes", "two_level,six_level"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        tags = {(r["mechanism"], r["mode"]) for r in rows}
        assert tags == {("capacitive", "two_level"), ("capacitive", "six_level"),
                        ("total", "two_level"), ("total", "six_level")}
        for r in rows:
            assert float(r["t1_s"]) > 0

    @pytest.mark.parametrize("mode", ["two_level", "six_level", "signal"])
    def test_predict_t1_switched_off_channel_is_inf(self, a1_device, mode, capsys):
        code, out, _ = run_cli(
            ["predict-t1", "--device", a1_device, "--flux-start", "0.1", "--flux-stop", "0.5",
             "--flux-points", "3", "--mechanisms", "qp_junction", "--xqp", "0",
             "--modes", mode], capsys)
        assert code == 0
        assert [r["t1_s"] for r in csv.DictReader(out.splitlines())] == ["inf"] * 3

    def test_predict_t1_parity_forbidden_channel_is_inf(self, a1_device, capsys):
        # the junction quasiparticle 0<->1 rate vanishes by symmetry at half
        # flux, and parity closes level 1 off from level 0 in every mode
        code, out, _ = run_cli(
            ["predict-t1", "--device", a1_device, "--flux", "0.5", "--mechanisms",
             "qp_junction", "--xqp", "1e-9", "--modes", "two_level,six_level,signal"], capsys)
        assert code == 0
        assert [r["t1_s"] for r in csv.DictReader(out.splitlines())] == ["inf"] * 3

    def test_predict_t1_unresolved_fit_is_nan(self, tmp_path, capsys):
        # flux noise alone leaves A3's readout signal without a resolvable
        # decay at this bias: a failure, not an infinite T1
        device = tmp_path / "a3.json"
        device.write_text(json.dumps(A3_ROW))
        code, out, _ = run_cli(
            ["predict-t1", "--device", str(device), "--flux", "0.24",
             "--mechanisms", "flux_noise,capacitive", "--modes", "signal"], capsys)
        assert code == 0
        t1 = {r["mechanism"]: r["t1_s"] for r in csv.DictReader(out.splitlines())}
        assert t1["flux_noise"] == "nan"
        assert 0.0 < float(t1["capacitive"]) < math.inf

    def test_predict_t1_failing_member_is_nan_alone(self, capsys):
        # b1's purcell generator has two zero modes at this bias: its
        # multilevel rows fail, its stack neighbours and its two-level row do not
        device = Path(__file__).resolve().parents[1] / "devices" / "b1.json"
        code, out, _ = run_cli(
            ["predict-t1", "--device", str(device), "--flux-start", "0.36932908630238703",
             "--flux-stop", "0.4", "--flux-points", "2", "--mechanisms", "purcell,total",
             "--modes", "two_level,six_level,signal"], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        failed = {(r["phi_ext_phi0"], r["mechanism"], r["mode"])
                  for r in rows if not math.isfinite(float(r["t1_s"]))}
        assert failed == {("0.36932908630238703", "purcell", mode)
                          for mode in ("six_level", "signal")}
        assert len(rows) == 12

    @pytest.mark.filterwarnings("ignore:decay fit residual")
    def test_predict_t1_rows_are_the_bias_models(self, a1_device, capsys):
        from fluxt1.dynamics import BiasModel, T1Mode
        from fluxt1.hamiltonian import diagonalize
        from fluxt1.io import parse_device_file
        from fluxt1.loss import ANALYSIS_MECHANISMS, Mechanism

        code, out, _ = run_cli(
            ["predict-t1", "--device", a1_device, "--flux-start", "0.1", "--flux-stop", "0.5",
             "--flux-points", "3", "--mechanisms", "capacitive,purcell,total",
             "--modes", "signal,two_level,six_level"], capsys)
        assert code == 0
        device = parse_device_file(a1_device)
        modes = {"two_level": T1Mode.TWO_LEVEL, "six_level": T1Mode.MULTILEVEL_POPULATION,
                 "signal": T1Mode.MULTILEVEL_SIGNAL}
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 27
        for r in rows:
            spec = diagonalize(device.fluxonium_params(), FluxBias(float(r["phi_ext_phi0"])),
                               n_levels=6)
            model = BiasModel(spec, device.resonator_params(), device.environment())
            mechanisms = (ANALYSIS_MECHANISMS if r["mechanism"] == "total"
                          else (Mechanism(r["mechanism"]),))
            assert float(r["t1_s"]) == model.t1(modes[r["mode"]], mechanisms)

    @pytest.mark.filterwarnings("ignore:decay fit residual")
    def test_predict_t1_other_warnings_of_a_model_evaluation_propagate(
            self, a1_device, monkeypatch, capsys):
        # predict-t1 silences the per-trace warnings and the quasiparticle
        # one, no other
        import fluxt1.cli as cli_module

        model = cli_module.multilevel_t1

        def warning(*args, **kwargs):
            warnings.warn("overflow encountered in a model evaluation", RuntimeWarning)
            return model(*args, **kwargs)

        monkeypatch.setattr(cli_module, "multilevel_t1", warning)
        with pytest.warns(RuntimeWarning, match="overflow encountered in a model evaluation"):
            code, _, _ = run_cli(["predict-t1", "--device", a1_device, "--flux", "0.3",
                                  "--modes", "six_level"], capsys)
        assert code == 0

    def test_simulate_decay_outputs(self, tmp_path, result_schema, capsys):
        device = tmp_path / "b2.json"
        device.write_text(json.dumps(dict(
            qubit_id="B2", process_label="B", ej_ghz=3.52, ec_ghz=1.04, el_ghz=0.51,
            omega_res_ghz=7.126, g_mhz=120, kappa_mhz=0.30, sqrt_a_phi_uphi0=5.7)))
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            ["simulate-decay", "--device", str(device), "--flux", "0.185",
             "--qceff", "2.1e5", "--trace-out", str(trace_path)],
            capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, result_schema)
        assert payload["command"] == "simulate-decay"
        assert payload["data"]["t1_population_s"] > 0
        assert payload["data"]["misassignment_to_ground_relative_error"] == 0.0
        rows = list(csv.DictReader(trace_path.read_text().splitlines()))
        assert len(rows) == 51
        total = sum(float(rows[0][f"p_{k}"]) for k in range(6))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_simulate_decay_evolves_once(self, a1_device, monkeypatch, capsys):
        import fluxt1.cli
        import fluxt1.dynamics

        evolve, calls = fluxt1.dynamics.evolve, []

        def counting(*args, **kwargs):
            calls.append(args[2].size)
            return evolve(*args, **kwargs)

        # wherever the command could look the name up
        for module in (fluxt1.cli, fluxt1.dynamics):
            monkeypatch.setattr(module, "evolve", counting, raising=False)
        code, _, _ = run_cli(["simulate-decay", "--device", a1_device, "--flux", "0.3",
                              "--points", "37"], capsys)
        assert code == 0
        assert calls == [37]

    def test_simulate_decay_fits_each_trace_once(self, a1_device, monkeypatch, capsys):
        import fluxt1.cli
        import fluxt1.dynamics

        fit, calls = fluxt1.dynamics.fit_exponential, []

        def counting(times, signal):
            calls.append(signal)
            return fit(times, signal)

        for module in (fluxt1.cli, fluxt1.dynamics):
            monkeypatch.setattr(module, "fit_exponential", counting)
        code, _, _ = run_cli(["simulate-decay", "--device", a1_device, "--flux", "0.3"],
                             capsys)
        assert code == 0
        # level-1 population, readout signal, lumped excited population
        assert len(calls) == 3

    def test_compare_identical_distributions_p_one(self, tmp_path, result_schema,
                                                   capsys):
        dist = {
            "schema": SCHEMA_ID,
            "command": "extract-qceff",
            "config": {},
            "data": {
                "qubit_id": "X",
                "epsilon_used": 0.25,
                "entries": [
                    {"freq_hz": 1e9 + k * 1e7, "qceff": 1e5 * (1 + 0.1 * k),
                     "n_binned": 1}
                    for k in range(8)
                ],
            },
        }
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(dist))
        b.write_text(json.dumps(dist))
        code, out, _ = run_cli(
            ["compare", "--dist", str(a), "--dist", str(b), "--alpha", "0.05"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, result_schema)
        for pair in payload["data"]["pairs"]:
            assert pair["p_value"] == 1.0
            assert pair["t0"] == 0.0

    def test_compare_includes_provenance_and_summary(self, tmp_path, result_schema,
                                                     capsys, rng):
        paths = []
        for name in ("p1", "p2"):
            dist = {
                "schema": SCHEMA_ID, "command": "extract-qceff", "config": {"k": name},
                "data": {"qubit_id": name, "epsilon_used": 0.25,
                         "entries": [{"freq_hz": float(f), "qceff": float(q),
                                      "n_binned": 1}
                                     for f, q in zip(rng.uniform(4e8, 6e9, 40),
                                                     rng.uniform(8e4, 4e5, 40))]},
            }
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(dist))
            paths.append(str(p))
        code, out, _ = run_cli(
            ["compare", "--dist", paths[0], "--dist", paths[1]], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, result_schema)
        assert [s["qubit_id"] for s in payload["data"]["summaries"]] == ["p1", "p2"]
        assert payload["data"]["provenance"]["sha256"] == {
            p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}
        assert payload["config"]["input_configs"] == {paths[0]: {"k": "p1"},
                                                      paths[1]: {"k": "p2"}}
        assert payload["config"]["epsilon_used"] == [0.25, 0.25]
        assert [(p["id1"], p["id2"]) for p in payload["data"]["pairs"]] == \
            [("p1", "p2"), ("p2", "p1")]

    def test_compare_tests_each_unordered_pair_once(self, tmp_path, monkeypatch, capsys):
        import fluxt1.cli

        welch, calls = fluxt1.cli.welch_t_test, []

        def counting(*args, **kwargs):
            calls.append(args)
            return welch(*args, **kwargs)

        monkeypatch.setattr(fluxt1.cli, "welch_t_test", counting)
        argv = ["compare"]
        for name, n in (("x", 5), ("y", 9), ("z", 7)):
            path = tmp_path / f"{name}.json"
            path.write_text(dist_envelope(name, [1e5 * (1 + 0.1 * k * k) for k in range(n)]))
            argv += ["--dist", str(path)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(calls) == 3
        pairs = json.loads(out)["data"]["pairs"]
        assert [(p["id1"], p["id2"]) for p in pairs] == [
            ("x", "y"), ("x", "z"), ("y", "x"), ("y", "z"), ("z", "x"), ("z", "y")]
        assert pairs[2]["t0"] == -pairs[0]["t0"]
        assert pairs[2]["p_value"] == pairs[0]["p_value"]

    def test_extract_round_trip_through_files(self, tmp_path, result_schema, capsys):
        # synthesize decay times from a known quality factor, write them as a
        # measurement file, and recover the quality factor end to end
        from fluxt1.dynamics import T1Mode
        from fluxt1.pipeline import CachedSpectrumProvider, QceffInverter

        device_path = tmp_path / "b1.json"
        device_path.write_text(json.dumps(dict(
            qubit_id="B1", process_label="B", ej_ghz=3.15, ec_ghz=1.04, el_ghz=0.50,
            omega_res_ghz=7.039, g_mhz=118, kappa_mhz=0.29, sqrt_a_phi_uphi0=5.2)))
        device = parse_device_file(str(device_path))
        env = device.environment(qc_eff=2.5e5, epsilon=0.25)
        provider = CachedSpectrumProvider(device.fluxonium_params(), n_levels=6)
        lines = ["phi_ext,t1_s,omega01_hz"]
        for phi in (0.10, 0.30, 0.50):
            spec = provider(phi)
            inv = QceffInverter(spec, device.resonator_params(), env,
                                mode=T1Mode.MULTILEVEL_SIGNAL)
            lines.append(f"{phi},{inv.predict_t1(2.5e5)!r},"
                         f"{spec.transition_frequency(0, 1)!r}")
        t1_path = tmp_path / "t1.csv"
        t1_path.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "dist.json"
        code = cli(["extract-qceff", "--device", str(device_path),
                    "--t1-csv", str(t1_path), "--epsilon", "0.25", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        validate(payload, result_schema)
        dist = read_distribution(str(out_path))
        assert len(dist) == 3
        for entry in dist.entries:
            assert entry.qceff == pytest.approx(2.5e5, rel=1e-3)

    def test_compare_one_file_byte_reproducible(self, tmp_path, rng, result_schema):
        dist = {
            "schema": SCHEMA_ID, "command": "extract-qceff", "config": {},
            "data": {"qubit_id": "r", "epsilon_used": 0.25,
                     "entries": [{"freq_hz": float(f), "qceff": float(q),
                                  "n_binned": 1}
                                 for f, q in zip(rng.uniform(4e8, 6e9, 30),
                                                 rng.uniform(8e4, 4e5, 30))]},
        }
        src_path = tmp_path / "r.json"
        src_path.write_text(json.dumps(dist))
        out1, out2 = tmp_path / "rep1.json", tmp_path / "rep2.json"
        for out in (out1, out2):
            assert cli(["compare", "--dist", str(src_path), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        validate(payload, result_schema)
        assert payload["data"]["pairs"] == []
        assert payload["data"]["summaries"][0]["n"] == 30

    def test_fit_commands_validate_against_schema(self, tmp_path, result_schema,
                                                   capsys):
        import math

        from fluxt1.hamiltonian import FluxBias, flux_dispersion
        from fluxt1.io import parse_device_file

        device_path = tmp_path / "b1.json"
        device_path.write_text(json.dumps(dict(
            qubit_id="B1", process_label="B", ej_ghz=3.15, ec_ghz=1.04,
            el_ghz=0.50, omega_res_ghz=7.039, g_mhz=118, kappa_mhz=0.29,
            sqrt_a_phi_uphi0=5.2)))
        params = parse_device_file(str(device_path)).fluxonium_params()

        echo_lines = ["phi_ext,gamma_phi_e_per_s"]
        for phi in (0.44, 0.46, 0.48):
            slope = flux_dispersion(params, FluxBias(phi))
            echo_lines.append(
                f"{phi},{abs(slope) * 5.2e-6 * math.sqrt(math.log(2))!r}")
        echo_lines.append("0.5,1e3")  # sweet spot: no slope, so the fit skips it
        echo_path = tmp_path / "echo.csv"
        echo_path.write_text("\n".join(echo_lines) + "\n")
        code, out, _ = run_cli(
            ["fit-flux-noise", "--device", str(device_path),
             "--dephasing-csv", str(echo_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, result_schema)
        assert payload["data"]["sqrt_a_phi_uphi0"] == pytest.approx(5.2, rel=1e-6)
        assert payload["data"]["n_records_used"] == 3

        t1_path = tmp_path / "t1.csv"
        t1_path.write_text("phi_ext,t1_s\n0.2,1.1e-4\n0.35,1.6e-4\n0.5,2.1e-4\n")
        code, out, _ = run_cli(
            ["fit-epsilon", "--qubit", str(device_path), str(t1_path),
             "--mode", "two_level", "--grid-start", "0.0", "--grid-stop", "0.2",
             "--grid-step", "0.1"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, result_schema)
        assert len(payload["data"]["variance_curve"]) == 3

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(["spectrum"], capsys)  # missing --device
        assert code == 1
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_data_error_exit_code(self, tmp_path, result_schema, capsys):
        missing = tmp_path / "nope.json"
        code, _, err = run_cli(
            ["spectrum", "--device", str(missing), "--flux", "0.5"], capsys)
        assert code == 2
        payload = json.loads(err)
        validate(payload, result_schema)
        assert payload["error"]["type"] == "DataError"

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # resonance collision during decay simulation is a numerical failure
        device = tmp_path / "c.json"
        row = dict(A1_ROW)
        row["qubit_id"] = "C"
        device.write_text(json.dumps(row))
        # probe directly at a transition: rig omega_res onto w01 at 0.5
        from fluxt1.hamiltonian import FluxBias, diagonalize
        spec = diagonalize(parse_device_file(str(device)).fluxonium_params(),
                           FluxBias(0.5), n_levels=6)
        w03 = spec.energies[3] - spec.energies[0]
        row["omega_res_ghz"] = w03 / 1e9
        device.write_text(json.dumps(row))
        code, _, err = run_cli(
            ["simulate-decay", "--device", str(device), "--flux", "0.5"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ResonanceCollisionError"


B1_ROW = dict(qubit_id="B1", process_label="B", ej_ghz=3.15, ec_ghz=1.04, el_ghz=0.50,
              omega_res_ghz=7.039, g_mhz=118, kappa_mhz=0.29, sqrt_a_phi_uphi0=5.2)


class TestOneSolvePerBias:
    """Each CLI call diagonalizes every flux bias it needs exactly once."""

    @pytest.fixture()
    def solved(self, monkeypatch):
        """(flux, n_levels) of every spectrum solved from here on."""
        import fluxt1.cli
        import fluxt1.dynamics
        import fluxt1.hamiltonian
        import fluxt1.pipeline

        biases = []

        def counting(params, bias, n_levels=6, **kwargs):
            biases.append((bias.phi_ext, n_levels))
            return fluxt1.hamiltonian.diagonalize(params, bias, n_levels=n_levels, **kwargs)

        for module in (fluxt1.cli, fluxt1.dynamics, fluxt1.pipeline):
            monkeypatch.setattr(module, "diagonalize", counting)
        return biases

    def test_predict_t1_solves_each_flux_point_once(self, a1_device, solved, capsys):
        code, out, _ = run_cli(
            ["predict-t1", "--device", a1_device, "--flux-start", "0.1",
             "--flux-stop", "0.5", "--flux-points", "5",
             "--mechanisms", "capacitive,total", "--modes", "two_level,six_level,signal"],
            capsys)
        assert code == 0
        assert len(list(csv.DictReader(out.splitlines()))) == 5 * 2 * 3
        assert [phi for phi, _ in solved] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5],
                                                            abs=1e-15)

    def test_predict_t1_builds_each_table_once_per_flux_point(self, a1_device, monkeypatch,
                                                               capsys):
        import fluxt1.dynamics
        from fluxt1.loss import ANALYSIS_MECHANISMS, build_mechanism_table

        built = []

        def counting(spec, res, env, mechanism):
            built.append((spec.bias.phi_ext, mechanism))
            return build_mechanism_table(spec, res, env, mechanism)

        monkeypatch.setattr(fluxt1.dynamics, "build_mechanism_table", counting)
        code, _, _ = run_cli(
            ["predict-t1", "--device", a1_device, "--flux-start", "0.1",
             "--flux-stop", "0.5", "--flux-points", "5",
             "--mechanisms", "capacitive,flux_noise,purcell,total",
             "--modes", "two_level,six_level,signal"], capsys)
        assert code == 0
        assert sorted(built) == sorted((phi, m) for phi in np.linspace(0.1, 0.5, 5)
                                       for m in ANALYSIS_MECHANISMS)

    def test_fit_epsilon_solves_each_record_flux_once(self, tmp_path, solved, capsys):
        device_path = tmp_path / "b1.json"
        device_path.write_text(json.dumps(B1_ROW))
        # no omega01 column, so the back-fill solves too; the fluxes lie in
        # distinct 8 MHz bins, so binning keeps every record as it is
        fluxes = (0.2, 0.3, 0.4, 0.5)
        t1_path = tmp_path / "t1.csv"
        t1_path.write_text("phi_ext,t1_s\n" + "".join(f"{phi},1.5e-4\n" for phi in fluxes))
        code, out, _ = run_cli(
            ["fit-epsilon", "--qubit", str(device_path), str(t1_path),
             "--mode", "two_level", "--grid-start", "0.0", "--grid-stop", "0.2",
             "--grid-step", "0.1"], capsys)
        assert code == 0
        assert len(json.loads(out)["data"]["variance_curve"]) == 3
        phis = [phi for phi, _ in solved]
        assert sorted(phis) == sorted(set(phis))
        assert set(phis) == set(fluxes)

    @staticmethod
    def _runs(tmp_path):
        """argv of each command, less its mode options, on a1 data."""
        _, device_path, t1_path = TestOneModelPerBias._qubit_args(tmp_path, names=("a1",))
        return {
            "extract-qceff": ["extract-qceff", "--device", device_path, "--t1-csv", t1_path],
            "fit-epsilon": ["fit-epsilon", "--qubit", device_path, t1_path,
                            "--grid-start", "0.0", "--grid-stop", "0.1", "--grid-step", "0.05"],
            "predict-t1": ["predict-t1", "--device", device_path, "--flux-start", "0.1",
                           "--flux-stop", "0.4", "--flux-points", "4",
                           "--mechanisms", "capacitive,total"],
        }

    @pytest.mark.parametrize("command, mode_args", [
        ("extract-qceff", ["--mode", "two_level"]),
        ("fit-epsilon", ["--mode", "two_level"]),
        ("predict-t1", ["--modes", "two_level"]),
    ])
    @pytest.mark.parametrize("levels", [[], ["--levels", "7"]])
    def test_two_level_runs_solve_two_levels(self, tmp_path, solved, capsys, command,
                                             mode_args, levels):
        argv = self._runs(tmp_path)[command]
        solved.clear()
        code, out, _ = run_cli([*argv, *mode_args, *levels], capsys)
        assert code == 0
        assert solved and {n for _, n in solved} == {2}
        if command != "predict-t1":
            assert json.loads(out)["config"]["levels"] == 2

    @pytest.mark.parametrize("command, mode_args", [
        ("extract-qceff", ["--mode", "multilevel_population"]),
        ("extract-qceff", ["--mode", "multilevel_signal"]),
        ("fit-epsilon", ["--mode", "multilevel_population"]),
        ("predict-t1", ["--modes", "two_level,six_level"]),
        ("predict-t1", ["--modes", "signal"]),
    ])
    @pytest.mark.parametrize("levels", [6, 5])
    def test_other_runs_solve_the_levels_option(self, tmp_path, solved, capsys, command,
                                                mode_args, levels):
        argv = self._runs(tmp_path)[command]
        solved.clear()
        code, out, _ = run_cli([*argv, *mode_args, "--levels", str(levels)], capsys)
        assert code == 0
        assert solved and {n for _, n in solved} == {levels}
        if command != "predict-t1":
            assert json.loads(out)["config"]["levels"] == levels


class TestOneModelPerBias:
    """One model per bias serves the exclusion filter and every inversion,
    at every exponent, so no CLI call builds a rate table twice."""

    @pytest.fixture()
    def built(self, monkeypatch):
        import fluxt1.dynamics
        from fluxt1.loss import build_mechanism_table

        tables = []

        def counting(spec, res, env, mechanism):
            tables.append((spec.params, spec.bias.phi_ext, mechanism))
            return build_mechanism_table(spec, res, env, mechanism)

        monkeypatch.setattr(fluxt1.dynamics, "build_mechanism_table", counting)
        return tables

    @staticmethod
    def _qubit_args(tmp_path, names=("a1", "b1")):
        """--qubit arguments for shipped devices, each with T1s its own
        two-level model predicts at qc_eff = 2.2e5 and epsilon = 0.25."""
        from fluxt1.dynamics import T1Mode, predicted_t1

        args = []
        for name in names:
            device_path = Path(__file__).resolve().parents[1] / "devices" / f"{name}.json"
            device = parse_device_file(str(device_path))
            env = device.environment(qc_eff=2.2e5, epsilon=0.25)
            lines = ["phi_ext,t1_s"]
            for phi in (0.1, 0.2, 0.3, 0.4):
                t1 = predicted_t1(device.fluxonium_params(), device.resonator_params(), env,
                                  FluxBias(phi), mode=T1Mode.TWO_LEVEL)
                lines.append(f"{phi},{t1!r}")
            t1_path = tmp_path / f"{name}_t1.csv"
            t1_path.write_text("\n".join(lines) + "\n")
            args += ["--qubit", str(device_path), str(t1_path)]
        return args

    def test_fit_epsilon_builds_as_many_tables_for_3_exponents_as_for_41(
            self, tmp_path, built, capsys):
        qubits = self._qubit_args(tmp_path)
        counts = []
        for grid in (["--grid-start", "0.0", "--grid-stop", "0.1", "--grid-step", "0.05"], []):
            built.clear()
            code, out, _ = run_cli(["fit-epsilon", *qubits, "--mode", "two_level", *grid],
                                   capsys)
            assert code == 0
            assert len(json.loads(out)["data"]["variance_curve"]) == (41 if not grid else 3)
            assert len(built) == len(set(built))
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    def test_extract_qceff_builds_no_table_twice(self, tmp_path, built, capsys):
        from fluxt1.loss import ANALYSIS_MECHANISMS

        _, device_path, t1_path = self._qubit_args(tmp_path, names=("a1",))
        built.clear()
        code, out, _ = run_cli(["extract-qceff", "--device", device_path, "--t1-csv", t1_path],
                               capsys)
        assert code == 0
        assert json.loads(out)["data"]["n_kept"] > 0
        assert len(built) == len(set(built))
        assert {m for *_, m in built} == set(ANALYSIS_MECHANISMS)

    @pytest.fixture()
    def tables(self, monkeypatch):
        """The ``ChannelPairs`` of every N x N table built from here on."""
        from fluxt1.loss import ChannelPairs

        built = []
        table = ChannelPairs.table

        def counting(pairs, env):
            built.append(pairs)
            return table(pairs, env)

        monkeypatch.setattr(ChannelPairs, "table", counting)
        return built

    @pytest.mark.parametrize("command", ["fit-epsilon", "extract-qceff"])
    def test_two_level_mode_builds_no_capacitive_table(self, tmp_path, built, tables, capsys,
                                                       command):
        # the exclusion filter and the closed form read the background 0<->1
        # rates from 2 x 2 tables, and the capacitive 0<->1 pair alone
        from fluxt1.loss import Mechanism

        qubits = self._qubit_args(tmp_path)
        argv = (["fit-epsilon", *qubits] if command == "fit-epsilon"
                else ["extract-qceff", "--device", qubits[1], "--t1-csv", qubits[2]])
        built.clear()
        tables.clear()
        code, _, _ = run_cli([*argv, "--mode", "two_level"], capsys)
        assert code == 0
        background = [b for b in built if b[-1] is not Mechanism.CAPACITIVE]
        assert len({id(p) for p in tables}) == len(tables) == len(background) > 0
        assert all(p.mechanism is not Mechanism.CAPACITIVE and p.n == 2 for p in tables)

    def test_multilevel_mode_builds_each_table_once_per_bias(self, tmp_path, built, tables,
                                                               capsys):
        from fluxt1.loss import Mechanism

        _, device_path, t1_path = self._qubit_args(tmp_path, names=("a1",))
        tables.clear()
        code, out, _ = run_cli(["extract-qceff", "--device", device_path, "--t1-csv", t1_path,
                                "--mode", "multilevel_population"], capsys)
        assert code == 0
        data = json.loads(out)["data"]
        background = [p for p in tables if p.mechanism is not Mechanism.CAPACITIVE]
        # one background table per binned bias and channel, which the
        # exclusion filter reads, and one capacitive table per kept bias: a
        # trial qc_eff rescales the table of the model's own qc_eff and exponent
        assert len({id(p) for p in background}) == len(background) == 4 * data["n_binned"]
        assert len(tables) - len(background) == data["n_kept"] > 0


SHIPPED_DEVICES = ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3")
GOLDEN = Path(__file__).resolve().parent / "golden"


def fixed_t1_csv(index: int) -> str:
    """Measured-T1 rows for the pinned outputs: 15 biases from 0.06 to 0.46,
    T1 spread over 20-300 us in golden-ratio steps, shifted per device."""
    lines = ["phi_ext,t1_s"]
    for k in range(15):
        t1 = 20e-6 + 280e-6 * ((k + 5 * index) * 0.6180339887498949 % 1.0)
        lines.append(f"{0.06 + 0.4 * k / 14!r},{t1!r}")
    return "\n".join(lines) + "\n"


class TestPinnedOutputs:
    @staticmethod
    def _extract_qceff(index, name, mode, tmp_path, monkeypatch, capsys) -> str:
        """What extract-qceff prints for a shipped device on its fixed T1s."""
        device = Path(__file__).resolve().parents[1] / "devices" / f"{name}.json"
        (tmp_path / device.name).write_bytes(device.read_bytes())
        (tmp_path / "t1.csv").write_text(fixed_t1_csv(index))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["extract-qceff", "--device", device.name, "--t1-csv", "t1.csv",
                                "--mode", mode], capsys)
        assert code == 0
        return out

    @pytest.mark.parametrize("index, name", enumerate(SHIPPED_DEVICES))
    def test_extract_qceff_two_level_is_byte_identical(self, index, name, tmp_path,
                                                       monkeypatch, capsys):
        # tests/golden holds what a two-level run prints, byte for byte: a
        # move of any digit rewrites the files, and CHANGES.md records
        # tests/golden_diff.py's report of what moved. The next test bounds
        # how far the 2-level spectra these runs solve may sit from 6-level ones
        out = self._extract_qceff(index, name, "two_level", tmp_path, monkeypatch, capsys)
        assert out == (GOLDEN / "extract_qceff_two_level" / f"{name}.json").read_text()

    @classmethod
    def _assert_multilevel_golden(cls, index, name, mode, tmp_path, monkeypatch, capsys):
        """Every field exactly but qceff, which the multilevel root finds to
        ROOT_XTOL decades (~2.3e-12 relative): a change of the search may
        move it within that, not beyond 1e-10."""
        payload = json.loads(cls._extract_qceff(index, name, mode, tmp_path, monkeypatch,
                                                capsys))
        golden = json.loads((GOLDEN / f"extract_qceff_{mode}" / f"{name}.json").read_text())
        qceff, golden_qceff = ([entry.pop("qceff") for entry in p["data"]["entries"]]
                               for p in (payload, golden))
        assert payload == golden
        assert qceff == pytest.approx(golden_qceff, rel=1e-10, abs=0)

    @pytest.mark.parametrize("index, name", enumerate(SHIPPED_DEVICES))
    def test_extract_qceff_multilevel_signal_matches_golden(self, index, name, tmp_path,
                                                            monkeypatch, capsys):
        self._assert_multilevel_golden(index, name, "multilevel_signal", tmp_path,
                                       monkeypatch, capsys)

    @pytest.mark.parametrize("index, name", enumerate(SHIPPED_DEVICES))
    def test_extract_qceff_multilevel_population_matches_golden(self, index, name, tmp_path,
                                                                monkeypatch, capsys):
        self._assert_multilevel_golden(index, name, "multilevel_population", tmp_path,
                                       monkeypatch, capsys)

    def test_compare_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        # compare reads the pinned population distributions themselves, so its
        # statistics and input hashes are pinned whatever the root find does
        dists = []
        for name in SHIPPED_DEVICES:
            (tmp_path / f"{name}.json").write_bytes(
                (GOLDEN / "extract_qceff_multilevel_population" / f"{name}.json").read_bytes())
            dists += ["--dist", f"{name}.json"]
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["compare", *dists], capsys)
        assert code == 0
        assert out == (GOLDEN / "compare" / "multilevel_population.json").read_text()

    @staticmethod
    def _fit_epsilon(names, mode, grid, tmp_path, monkeypatch, capsys) -> str:
        """What fit-epsilon prints for shipped devices, each on its fixed T1s."""
        qubits = []
        for name in names:
            device = Path(__file__).resolve().parents[1] / "devices" / f"{name}.json"
            (tmp_path / device.name).write_bytes(device.read_bytes())
            (tmp_path / f"{name}_t1.csv").write_text(fixed_t1_csv(SHIPPED_DEVICES.index(name)))
            qubits += ["--qubit", device.name, f"{name}_t1.csv"]
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["fit-epsilon", *qubits, "--mode", mode, *grid], capsys)
        assert code == 0
        return out

    def test_fit_epsilon_two_level_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        # all 8 devices in one run, on the default 41-point grid
        out = self._fit_epsilon(SHIPPED_DEVICES, "two_level", [], tmp_path, monkeypatch, capsys)
        assert out == (GOLDEN / "fit_epsilon" / "two_level.json").read_text()

    @pytest.mark.parametrize("mode", ["multilevel_population", "multilevel_signal"])
    def test_fit_epsilon_multilevel_matches_golden(self, mode, tmp_path, monkeypatch, capsys):
        # every field exactly but the pooled variances, read from qc_eff the
        # multilevel root finds to ROOT_XTOL decades, as extract-qceff's above
        grid = ["--grid-start", "0", "--grid-stop", "0.5", "--grid-step", "0.25"]
        payload = json.loads(self._fit_epsilon(("a1", "b1"), mode, grid, tmp_path,
                                               monkeypatch, capsys))
        golden = json.loads((GOLDEN / "fit_epsilon" / f"{mode}.json").read_text())
        variance, golden_variance = ([point.pop("pooled_variance")
                                      for point in p["data"]["variance_curve"]]
                                     for p in (payload, golden))
        assert payload == golden
        assert variance == pytest.approx(golden_variance, rel=1e-10, abs=0)

    @staticmethod
    def _device_cwd(name, tmp_path, monkeypatch) -> str:
        """A shipped device file copied into tmp_path, the working directory."""
        device = Path(__file__).resolve().parents[1] / "devices" / f"{name}.json"
        (tmp_path / device.name).write_bytes(device.read_bytes())
        monkeypatch.chdir(tmp_path)
        return device.name

    def test_predict_t1_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        # every channel and the analysis total in every mode over a 21-point
        # sweep: each multilevel row rests on the time grid the dominant mode
        # sets, and the 2 nan rows are signal fits the grid does not resolve
        device = self._device_cwd("b1", tmp_path, monkeypatch)
        code, out, _ = run_cli([
            "predict-t1", "--device", device, "--flux-start", "0.0119", "--flux-stop",
            "0.4881", "--flux-points", "21", "--mechanisms",
            ",".join([m.value for m in Mechanism] + ["total"]),
            "--modes", "two_level,six_level,signal", "--xqp", "1e-9"], capsys)
        assert code == 0
        # csv rows end in \r\n, which read_text would translate
        assert out == (GOLDEN / "predict_t1" / "b1.csv").read_bytes().decode()

    def test_simulate_decay_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        device = self._device_cwd("a3", tmp_path, monkeypatch)
        code, out, _ = run_cli(["simulate-decay", "--device", device, "--flux", "0.244",
                                "--trace-out", "trace.csv"], capsys)
        assert code == 0
        assert out == (GOLDEN / "simulate_decay" / "a3.json").read_text()
        assert (tmp_path / "trace.csv").read_bytes() == (
            GOLDEN / "simulate_decay" / "a3_trace.csv").read_bytes()

    @pytest.mark.parametrize("name", SHIPPED_DEVICES)
    def test_spectrum_is_byte_identical(self, name, tmp_path, monkeypatch, capsys):
        # an 11-point sweep over [0, 0.5] of the default 6 levels
        device = self._device_cwd(name, tmp_path, monkeypatch)
        code, out, _ = run_cli(["spectrum", "--device", device, "--flux-points", "11"], capsys)
        assert code == 0
        assert out == (GOLDEN / "spectrum" / f"{name}.csv").read_bytes().decode()

    def test_fit_flux_noise_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        # b1_echo.csv is synthetic: at phi = k/24 (k = 0..12), gamma_phi =
        # |domega01/dPhi| sqrt(A ln 2) (1 + 0.05 sin 7k) with sqrt(A) = 4.3
        # uPhi0, and 1e3 /s at the two sweet spots, which the fit skips
        device = self._device_cwd("b1", tmp_path, monkeypatch)
        (tmp_path / "b1_echo.csv").write_bytes((GOLDEN / "fit_flux_noise" / "b1_echo.csv")
                                               .read_bytes())
        code, out, _ = run_cli(["fit-flux-noise", "--device", device,
                                "--dephasing-csv", "b1_echo.csv"], capsys)
        assert code == 0
        assert out == (GOLDEN / "fit_flux_noise" / "b1.json").read_text()
        data = json.loads(out)["data"]
        assert data["n_records_used"] == 11
        assert data["sqrt_a_phi_uphi0"] == pytest.approx(4.3, rel=0.01)

    def test_multilevel_dataset_takes_few_lockstep_rounds(self, tmp_path, monkeypatch, capsys):
        # b3's 10 kept records invert in one stack, one multilevel_t1 call per
        # round: the closed form, its Newton step, one widening trial that
        # brackets each root, and the end-game
        import fluxt1.pipeline as pipeline

        model, calls = pipeline.multilevel_t1, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return model(*args, **kwargs)

        monkeypatch.setattr(pipeline, "multilevel_t1", counted)
        out = self._extract_qceff(SHIPPED_DEVICES.index("b3"), "b3", "multilevel_signal",
                                  tmp_path, monkeypatch, capsys)
        assert json.loads(out)["data"]["n_kept"] == 10 == calls[0]
        assert len(calls) <= 7

    @pytest.mark.parametrize("index, name", enumerate(SHIPPED_DEVICES))
    def test_extract_qceff_two_level_agrees_with_six_level_closed_form(
            self, index, name, tmp_path, capsys):
        # the 2-level run against the closed form on 6-level spectra, fed the
        # records that binning and exclusion keep on those spectra
        from fluxt1.pipeline import (
            CachedSpectrumProvider,
            bin_average,
            exclusion_filter,
        )
        from reference import two_level_qceff_closed_form

        device_path = str(Path(__file__).resolve().parents[1] / "devices" / f"{name}.json")
        t1_path = tmp_path / "t1.csv"
        t1_path.write_text(fixed_t1_csv(index))
        code, out, _ = run_cli(["extract-qceff", "--device", device_path,
                                "--t1-csv", str(t1_path), "--mode", "two_level"], capsys)
        assert code == 0
        payload = json.loads(out)
        device = parse_device_file(device_path)
        env = device.environment(epsilon=payload["config"]["epsilon"])
        res = device.resonator_params()
        six_level = CachedSpectrumProvider(device.fluxonium_params(), n_levels=6)
        parsed = parse_t1_csv(str(t1_path), qubit_id=device.qubit_id)
        filled = replace(parsed, records=tuple(
            replace(r, omega01=six_level(r.phi_ext).transition_frequency(0, 1))
            for r in parsed.records))
        kept, _ = exclusion_filter(bin_average(filled), six_level, env, res)
        entries = payload["data"]["entries"]
        assert len(entries) == len(kept) > 0
        for entry, record in zip(entries, kept.records):
            assert entry["n_binned"] == record.n_binned
            assert entry["freq_hz"] == pytest.approx(record.omega01, rel=1e-11, abs=0)
            q = two_level_qceff_closed_form(record.t1, six_level(record.phi_ext), res, env)
            assert entry["qceff"] == pytest.approx(q, rel=1e-10, abs=0)


class TestOptionsChangeOutput:
    """Each command takes only the options that can change what it computes."""

    @pytest.mark.parametrize("command, args", [
        ("predict-t1", ["--flux-points", "3", "--modes", "two_level,six_level,signal"]),
        ("simulate-decay", ["--flux", "0.2"]),
        ("extract-qceff", ["--t1-csv", "t1.csv"]),
    ])
    def test_device_bath_temperatures_equal_the_flags(self, tmp_path, monkeypatch, capsys,
                                                      command, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t1.csv").write_text("phi_ext,t1_s\n0.2,1.1e-4\n0.35,1.6e-4\n0.5,2.1e-4\n")
        outputs = []
        # one device path, so that the echoed configs can match byte for byte
        for row, flags in ((dict(B1_ROW, t_qubit_k=0.06, t_res_k=0.09), []),
                           (B1_ROW, ["--qubit-temp-k", "0.06", "--res-temp-k", "0.09"]),
                           (B1_ROW, [])):
            (tmp_path / "b1.json").write_text(json.dumps(row))
            code, out, _ = run_cli([command, "--device", "b1.json", *args, *flags], capsys)
            assert code == 0
            outputs.append(out)
        from_file, from_flags, default = outputs
        assert from_file == from_flags != default

    @pytest.mark.parametrize("command, args", [
        ("extract-qceff", ["--t1-csv", "t1.csv", "--qceff", "2e5"]),
        ("extract-qceff", ["--t1-csv", "t1.csv", "--xqp", "1e-6"]),
        ("simulate-decay", ["--flux", "0.3", "--xqp", "1e-6"]),
    ])
    def test_option_that_cannot_change_output_is_rejected(self, a1_device, tmp_path,
                                                          monkeypatch, capsys, command, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t1.csv").write_text("phi_ext,t1_s\n0.2,1.1e-4\n0.35,1.6e-4\n")
        code, out, err = run_cli([command, "--device", a1_device, *args], capsys)
        assert code == 1
        assert out == ""
        assert args[-2] in json.loads(err)["error"]["message"]


class TestOptionValues:
    """An option value the model rejects is a usage error (exit 1)."""

    @pytest.mark.parametrize("args", [
        ["predict-t1", "--flux", "0.2", "--epsilon", "nan"],
        ["predict-t1", "--flux", "0.2", "--qceff", "inf"],
        ["predict-t1", "--flux", "0.2", "--qceff", "-1"],
        ["predict-t1", "--flux", "0.2", "--xqp", "-1e-9"],
        ["simulate-decay", "--flux", "0.2", "--qubit-temp-k", "0"],
        ["simulate-decay", "--flux", "0.2", "--res-temp-k", "nan"],
        ["extract-qceff", "--t1-csv", "t1.csv", "--epsilon", "-inf"],
    ], ids=lambda args: f"{args[0]} {' '.join(args[-2:])}")
    def test_rejected_model_option_exits_1(self, a1_device, tmp_path, monkeypatch, capsys,
                                           args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t1.csv").write_text("phi_ext,t1_s\n0.2,1.1e-4\n0.35,1.6e-4\n")
        code, out, err = run_cli([args[0], "--device", a1_device, *args[1:]], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("grid", [["--grid-step", "0"], ["--grid-step", "-0.1"],
                                      ["--grid-step", "nan"], ["--grid-start", "inf"],
                                      ["--grid-start", "1", "--grid-stop", "-1"]],
                             ids=lambda grid: " ".join(grid))
    def test_fit_epsilon_bad_grid_exits_1(self, a1_device, tmp_path, capsys, grid):
        t1 = tmp_path / "t1.csv"
        t1.write_text("phi_ext,t1_s\n0.2,1.1e-4\n0.35,1.6e-4\n")
        code, out, err = run_cli(["fit-epsilon", "--qubit", a1_device, str(t1), *grid],
                                 capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "UsageError"

    # values no model type holds, checked when the options are parsed
    @pytest.mark.parametrize("args", [
        ["compare", "--dist", "{dist}", "--dist", "{dist}", "--alpha", "2"],
        ["compare", "--dist", "{dist}", "--dist", "{dist}", "--alpha", "1"],
        ["compare", "--dist", "{dist}", "--dist", "{dist}", "--alpha", "nan"],
        ["compare", "--dist", "{dist}", "--alpha", "0"],
        ["spectrum", "--device", "{device}", "--levels", "1"],
        ["predict-t1", "--device", "{device}", "--flux", "0.2", "--levels", "1"],
        ["simulate-decay", "--device", "{device}", "--flux", "0.2", "--levels", "1"],
        ["extract-qceff", "--device", "{device}", "--t1-csv", "{t1}", "--levels", "1"],
        ["fit-epsilon", "--qubit", "{device}", "{t1}", "--levels", "1"],
        ["predict-t1", "--device", "{device}", "--flux", "nan"],
        ["predict-t1", "--device", "{device}", "--flux-start", "nan"],
        ["simulate-decay", "--device", "{device}", "--flux", "inf"],
        ["simulate-decay", "--device", "{device}", "--flux", "0.2", "--points", "3"],
        ["spectrum", "--device", "{device}", "--flux-points", "0"],
        ["predict-t1", "--device", "{device}", "--flux-points", "0"],
        ["predict-t1", "--device", "{device}", "--flux-points", "-3"],
        ["extract-qceff", "--device", "{device}", "--t1-csv", "{t1}",
         "--exclusion-threshold", "-1"],
        ["extract-qceff", "--device", "{device}", "--t1-csv", "{t1}",
         "--exclusion-threshold", "inf"],
        ["extract-qceff", "--device", "{device}", "--t1-csv", "{t1}",
         "--exclusion-threshold", "nan"],
        ["extract-qceff", "--device", "{device}", "--t1-csv", "{t1}", "--bin-width-hz", "nan"],
        ["fit-epsilon", "--qubit", "{device}", "{t1}", "--bin-width-hz", "nan"],
        ["predict-t1", "--device", "{device}", "--flux", "0.2", "--mechanisms", ""],
        ["predict-t1", "--device", "{device}", "--flux", "0.2", "--modes", " , "],
        ["predict-t1", "--device", "{device}", "--flux", "0.2", "--modes", "three_level"],
    ], ids=lambda args: f"{args[0]} {' '.join(args[-2:])}")
    def test_rejected_option_value_exits_1(self, a1_device, tmp_path, capsys, args):
        t1 = tmp_path / "t1.csv"
        t1.write_text("phi_ext,t1_s\n0.2,1.1e-4\n0.35,1.6e-4\n")
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({
            "schema": SCHEMA_ID, "command": "extract-qceff", "config": {},
            "data": {"qubit_id": "X", "epsilon_used": 0.25,
                     "entries": [{"freq_hz": 1e9 + k * 1e7, "qceff": 1e5 * (1 + 0.1 * k),
                                  "n_binned": 1} for k in range(8)]},
        }))
        argv = [a.format(device=a1_device, t1=t1, dist=dist) for a in args]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "UsageError"


@pytest.mark.parametrize("kept_b1", [True, False], ids=["b1 kept", "every qubit empty"])
def test_fit_epsilon_qubit_without_records_is_a_data_error(a1_device, tmp_path, capsys,
                                                          kept_b1):
    # T1 = 10 s is far above every background limit, so exclusion drops each a1 row
    a1_t1 = tmp_path / "a1.csv"
    a1_t1.write_text("phi_ext,t1_s\n0.1,10\n0.2,10\n0.3,10\n")
    b1_device, b1_t1 = tmp_path / "b1.json", tmp_path / "b1.csv"
    b1_device.write_text(json.dumps(B1_ROW))
    b1_t1.write_text("phi_ext,t1_s\n0.2,1.1e-4\n0.35,1.6e-4\n0.5,2.1e-4\n")
    b1 = ["--qubit", str(b1_device), str(b1_t1 if kept_b1 else a1_t1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["fit-epsilon", "--qubit", a1_device, str(a1_t1), *b1,
                                  "--mode", "two_level"], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert "A1" in error["message"]
    assert ("B1" in error["message"]) != kept_b1


@pytest.mark.parametrize("grid, expected", [
    (["--grid-start", "0", "--grid-stop", "0.16", "--grid-step", "0.1"], [0.0, 0.1]),
    # the default grid keeps arange's values, up to its last 1.0000000000000018
    ([], np.arange(-1.0, 1.0 + 0.05 / 2, 0.05).tolist()),
], ids=["stop between points", "default"])
def test_fit_epsilon_grid_ends_at_the_stop(tmp_path, capsys, grid, expected):
    qubits = TestOneModelPerBias._qubit_args(tmp_path, names=("a1",))
    code, out, _ = run_cli(["fit-epsilon", *qubits, "--mode", "two_level", *grid], capsys)
    assert code == 0
    assert [p["epsilon"] for p in json.loads(out)["data"]["variance_curve"]] == expected


@pytest.mark.parametrize("target", [-0.5, 0.25, 0.85])
def test_fit_epsilon_two_level_recovers_the_planted_grid_point(tmp_path, capsys, target):
    # noise-free two-level T1s from 6-level spectra, one quality factor per
    # qubit, as the benchmark's epsilon_two_level builds them: the 2-level
    # run must return the planted point of the default grid exactly
    from fluxt1.dynamics import T1Mode
    from fluxt1.pipeline import CachedSpectrumProvider, QceffInverter

    grid = np.arange(-1.0, 1.0 + 0.05 / 2, 0.05)
    epsilon = float(grid[np.argmin(np.abs(grid - target))])
    qubits = []
    for name, scale in zip(("a1", "a2", "a3", "b1", "b2", "b3"),
                           (0.8, 1.3, 1.0, 1.6, 0.7, 1.1)):
        device_path = Path(__file__).resolve().parents[1] / "devices" / f"{name}.json"
        device = parse_device_file(str(device_path))
        q = 2.2e5 * scale
        env = device.environment(qc_eff=q, epsilon=epsilon)
        res = device.resonator_params()
        provider = CachedSpectrumProvider(device.fluxonium_params(), n_levels=6)
        lines = ["phi_ext,t1_s,omega01_hz"]
        for phi in np.linspace(0.05, 0.4, 6).tolist():
            spec = provider(phi)
            t1 = QceffInverter(spec, res, env, mode=T1Mode.TWO_LEVEL).predict_t1(q)
            lines.append(f"{phi!r},{t1!r},{spec.transition_frequency(0, 1)!r}")
        t1_path = tmp_path / f"{name}.csv"
        t1_path.write_text("\n".join(lines) + "\n")
        qubits += ["--qubit", str(device_path), str(t1_path)]
    code, out, _ = run_cli(["fit-epsilon", *qubits, "--mode", "two_level"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["levels"] == 2
    assert payload["data"]["epsilon"] == epsilon


@pytest.mark.parametrize("rows", [
    ["0.0,1e3", "1.0,1e3", "0.5,1e3"],
    ["0.2,1e3,0", "0.3,1e3,0", "0.4,1e3,0"],
], ids=["sweet spots only", "zero slopes"])
def test_fit_flux_noise_without_slope_data_is_a_numerical_error(tmp_path, capsys, rows):
    device_path, echo_path = tmp_path / "b1.json", tmp_path / "echo.csv"
    device_path.write_text(json.dumps(B1_ROW))
    header = "phi_ext,gamma_phi_e_per_s" + (",slope_rad_per_s_per_phi0"
                                           if rows[0].count(",") == 2 else "")
    echo_path.write_text("\n".join([header, *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["fit-flux-noise", "--device", str(device_path),
                                  "--dephasing-csv", str(echo_path)], capsys)
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "sweet spots" in error["message"]


def test_benchmark_workloads_pass_at_selftest_sizes(tmp_path, monkeypatch):
    # one prepare -> run -> check pass of each benchmark workload, so that a
    # CLI change that breaks the benchmark's invocations fails here
    import ast
    import importlib.util
    import sys
    from pathlib import Path

    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    loader = importlib.util.spec_from_file_location("perfbench_workloads",
                                                    perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, workloads)  # dataclasses look it up
    loader.loader.exec_module(workloads)
    # selftest.py's TINY sizes, read without importing the timing harness
    tiny = next(ast.literal_eval(node.value)
                for node in ast.parse((perfbench / "selftest.py").read_text()).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TINY")
    assert set(tiny) == set(workloads.WORKLOADS)
    for name, sizes in tiny.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.WORKLOADS[name](str(perfbench.parent), str(workdir), seed=7,
                                             sizes=sizes)
        workload.prepare()
        codes = workload.run()
        assert codes == [0] * len(codes), (name, codes)
        assert workload.check(codes).problems == [], name


def test_benchmark_span_names_resolve():
    # the benchmark tracer wraps these names; a rename would break only its
    # traced pass, which no other test runs
    import importlib
    import importlib.util

    from fluxt1.pipeline import QceffInverter

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    for module, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for attr in spans.METHODS:
        assert attr in QceffInverter.__dict__, attr


def test_synthetic_process_compare_script_runs(tmp_path):
    # the end-to-end study at a small size: it extracts each qubit through the
    # CLI, leaves only those files behind, and prints its verdict
    import os
    import subprocess
    import sys

    repo = Path(__file__).resolve().parents[1]
    workdir = tmp_path / "work"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "synthetic_process_compare.py"),
         "--points-per-qubit", "8", "--workdir", str(workdir),
         "--devices-dir", str(repo / "devices")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-3] == "planted advantage: +14.0% of the process-A mean"
    assert lines[-2] == "Welch 95% interval for (B - A): [-16.6%, +39.1%], p = 0.418"
    assert lines[-1] == "verdict: not resolved"
    names = ("a1", "a2", "a3", "b1", "b2", "b3")
    assert sorted(p.name for p in workdir.iterdir()) == sorted(
        f"{n}_{kind}" for n in names for kind in ("t1.csv", "dist.json"))
