"""Golden digests: the shipped spiral's outputs are pinned byte for byte.

Runs the first second of scenarios/spiral.yaml with the MPC shell on, with
the first-order baseline controller, and with the shell off from a start
1-3 m and 0.3 rad of yaw off the reference (saturated allocation and
large-angle poses), and hashes each SimLog the way
perfbench/harness.py::simlog_sha256 does (field name, dtype, shape, then
the raw bytes, in field order), plus the timeseries.csv exported from the
MPC run.  A refactor that claims to keep outputs byte-identical must leave
these digests unchanged; a deliberate behaviour change updates them and says
so.

The digests were taken with numpy 2.4.6 on Python 3.11.7, x86-64 Intel Xeon
(AVX-512F).  Floating-point results may differ in the last bit on another
numpy build or CPU, in which case these tests fail without a code change.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from auvform.engine import SimRuntime, run
from auvform.export import export_results
from auvform.scenario import parse_scenario

SPIRAL = Path(__file__).resolve().parents[1] / "scenarios" / "spiral.yaml"

# per vehicle: (dx, dy, dz) [m] and yaw offset [rad] added to the on-reference start
OFFSETS = [((2.0, -1.5, 1.0), 0.3), ((-3.0, 2.5, -1.5), -0.3), ((1.25, 3.0, -2.0), 0.3)]

SIMLOG_MPC = "7b36ca4c862eecb0cb25c7652c91e8c331d4e1971ae60e80598d318b04c43ee2"
SIMLOG_BASELINE = "52498f452ee89032bbe3ed6a978502646f2fbc538fa14f887dae1d2f1e73ef4a"
SIMLOG_OFFSET = "b401431cde1cc671cc187c2a3205c816592a11425fc6e287bcf841ab434cbd8a"
TIMESERIES_MPC = "9eaf995b27f2b631f2084af4930cdae845efb7d7027a534343bc9a4909b113a5"


def simlog_sha256(log) -> str:
    h = hashlib.sha256()
    for name in log.__dataclass_fields__:
        arr = np.ascontiguousarray(getattr(log, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def spiral_1s():
    return replace(parse_scenario(SPIRAL), duration=1.0)


@pytest.fixture(scope="module")
def mpc_log(spiral_1s):
    assert spiral_1s.mpc.enabled
    return run(spiral_1s)


def test_spiral_simlog_digest(mpc_log):
    assert simlog_sha256(mpc_log) == SIMLOG_MPC


def test_spiral_timeseries_digest(mpc_log, tmp_path):
    bundle = export_results(mpc_log, None, tmp_path)
    assert hashlib.sha256(bundle.timeseries.read_bytes()).hexdigest() == TIMESERIES_MPC


def test_baseline_simlog_digest(spiral_1s):
    sc = replace(spiral_1s, controller=replace(spiral_1s.controller, baseline=True))
    assert simlog_sha256(run(sc)) == SIMLOG_BASELINE


def test_offset_start_mpc_off_simlog_digest(spiral_1s):
    sc = replace(spiral_1s, mpc=replace(spiral_1s.mpc, enabled=False))
    y = SimRuntime(sc).y.copy()
    for row, (dxyz, dyaw) in zip(y, OFFSETS, strict=True):
        row[:3] += dxyz
        row[5] += dyaw
    log = run(replace(sc, initial_states=list(y)))
    assert np.any(np.abs(log.u_t) >= sc.thrusters.u_limit)
    assert simlog_sha256(log) == SIMLOG_OFFSET
