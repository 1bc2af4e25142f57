"""Golden digests: the shipped spiral's outputs are pinned byte for byte.

Runs the first second of scenarios/spiral.yaml with the MPC shell on, with
the first-order baseline controller, and with the shell off from a start
1-3 m and 0.3 rad of yaw off the reference (saturated allocation and
large-angle poses), and hashes each SimLog the way
perfbench/harness.py::simlog_sha256 does (field name, dtype, shape, then
the raw bytes, in field order).  Every exported table is pinned too: the
timeseries.csv, metrics.csv and phase_{x,y,z}.csv of the MPC run, the
timeseries.csv of the offset start (NaN mpc_cost cells, saturated thrusts),
the comparison.csv of compare_runs and a flow grid at three times, one of
them an int.  Together they cover float, -0.0, NaN, int, 0/1 and string
cells.  A refactor that claims to keep outputs byte-identical must leave
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

from auvform.engine import SimRuntime, compute_metrics, detect_convergence, run
from auvform.export import compare_runs, export_flow_grid, export_results
from auvform.scenario import parse_scenario

SPIRAL = Path(__file__).resolve().parents[1] / "scenarios" / "spiral.yaml"

# per vehicle: (dx, dy, dz) [m] and yaw offset [rad] added to the on-reference start
OFFSETS = [((2.0, -1.5, 1.0), 0.3), ((-3.0, 2.5, -1.5), -0.3), ((1.25, 3.0, -2.0), 0.3)]

SIMLOG_MPC = "7b36ca4c862eecb0cb25c7652c91e8c331d4e1971ae60e80598d318b04c43ee2"
SIMLOG_BASELINE = "52498f452ee89032bbe3ed6a978502646f2fbc538fa14f887dae1d2f1e73ef4a"
SIMLOG_OFFSET = "b401431cde1cc671cc187c2a3205c816592a11425fc6e287bcf841ab434cbd8a"
TIMESERIES_MPC = "9eaf995b27f2b631f2084af4930cdae845efb7d7027a534343bc9a4909b113a5"
METRICS_MPC = "c71364ae1bb17ed57f39bf59ac5f1458a0b2633dad1d9acbd5675215b80c06ed"
PHASE_MPC = {
    "x": "806e5d35f78588840580cf6edea4dd4cfe1c87b501bbdc453dbc55a753f5dc5a",
    "y": "f2a3fb4f3b3ad4fd10681f6a036fae46dceb4be859ecfcafabc38a308c1ea125",
    "z": "0e3e6d89c51a53827f92b43fc9c47772a93dc30b39b101c11cf7f08fd81f8f00",
}
TIMESERIES_OFFSET = "d7cf37d388df9adcdf0b7b1820e5f192d1146a8dd0ad4e7b3b4ed3910a69596e"
COMPARISON = "750137e5b4008c1459d44ef8ea320ff8490ed9c639f53ce40567f92c5ae7844e"
FLOW_GRID = "72510b4584f19934a653df820a963d388558cd84fcad76b65e61e1f6a11022a4"


def simlog_sha256(log) -> str:
    h = hashlib.sha256()
    for name in log.__dataclass_fields__:
        arr = np.ascontiguousarray(getattr(log, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def spiral_1s():
    return replace(parse_scenario(SPIRAL), duration=1.0)


@pytest.fixture(scope="module")
def mpc_log(spiral_1s):
    assert spiral_1s.mpc.enabled
    return run(spiral_1s)


@pytest.fixture(scope="module")
def offset_log(spiral_1s):
    sc = replace(spiral_1s, mpc=replace(spiral_1s.mpc, enabled=False))
    y = SimRuntime(sc).y.copy()
    for row, (dxyz, dyaw) in zip(y, OFFSETS, strict=True):
        row[:3] += dxyz
        row[5] += dyaw
    return run(replace(sc, initial_states=list(y)))


def test_spiral_simlog_digest(mpc_log):
    assert simlog_sha256(mpc_log) == SIMLOG_MPC


def test_spiral_timeseries_digest(mpc_log, tmp_path):
    bundle = export_results(mpc_log, None, tmp_path)
    assert hashlib.sha256(bundle.timeseries.read_bytes()).hexdigest() == TIMESERIES_MPC


def test_baseline_simlog_digest(spiral_1s):
    sc = replace(spiral_1s, controller=replace(spiral_1s.controller, baseline=True))
    assert simlog_sha256(run(sc)) == SIMLOG_BASELINE


def test_offset_start_mpc_off_simlog_digest(spiral_1s, offset_log):
    assert np.any(np.abs(offset_log.u_t) >= spiral_1s.thrusters.u_limit)
    assert simlog_sha256(offset_log) == SIMLOG_OFFSET


def test_offset_start_timeseries_digest(offset_log, tmp_path):
    assert np.all(np.isnan(offset_log.mpc_cost))
    bundle = export_results(offset_log, None, tmp_path)
    assert file_sha256(bundle.timeseries) == TIMESERIES_OFFSET


def test_spiral_metrics_and_phase_digests(spiral_1s, mpc_log, tmp_path):
    t_c = detect_convergence(mpc_log, spiral_1s.convergence_threshold)
    bundle = export_results(mpc_log, compute_metrics(mpc_log, t_c), tmp_path)
    assert file_sha256(bundle.metrics) == METRICS_MPC
    assert {ax: file_sha256(p) for ax, p in bundle.phase.items()} == PHASE_MPC


def test_comparison_digest(spiral_1s, tmp_path):
    compare_runs(spiral_1s, tmp_path)
    assert file_sha256(tmp_path / "comparison.csv") == COMPARISON


def test_flow_grid_digest(spiral_1s, tmp_path):
    flow = spiral_1s.flow
    path = export_flow_grid(flow.params, flow.layers, [0, 2.5, 7.25], tmp_path / "grid.csv",
                            spacing=5.0)
    assert file_sha256(path) == FLOW_GRID
