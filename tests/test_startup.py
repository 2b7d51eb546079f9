"""What a fresh interpreter loads to start a command, and the constants that
replaced scipy.constants."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from fluxt1 import constants
from fluxt1.stats import welch_t_test

REPO = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.constants")
SAMPLES = ([2.1e5, 2.6e5, 1.9e5, 2.4e5, 2.2e5], [3.0e5, 2.7e5, 3.4e5, 2.9e5])

FRESH_START = f"""
import json, sys
import fluxt1, fluxt1.cli
from fluxt1.io import parse_device_file
parse_device_file({str(REPO / "devices" / "b1.json")!r})
loaded = [name for name in {DEFERRED!r} if name in sys.modules]
from fluxt1.stats import welch_t_test
result = welch_t_test(*{SAMPLES!r})
print(json.dumps({{"loaded": loaded, "welch": vars(result)}}))
"""


def test_fresh_start_loads_no_statistics_only_scipy_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FRESH_START], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    # the modules load on first use and give the in-process result, field for field
    assert report["welch"] == vars(welch_t_test(*SAMPLES))


def test_constants_equal_scipy_bit_for_bit():
    assert constants.E_CHARGE == scipy.constants.e
    assert constants.H == scipy.constants.h
    assert constants.HBAR == scipy.constants.hbar
    assert constants.K_B == scipy.constants.k
    assert constants.PHI0 == scipy.constants.h / (2.0 * scipy.constants.e)
    assert constants.HBAR == scipy.constants.h / (2.0 * math.pi)
