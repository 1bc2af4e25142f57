"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 4, 5 and 7 share a single run of the shipped spiral scenario
(scenarios/spiral.yaml); criterion 10 reuses it as the first of its two
runs, and the proposed run of criterion 6's comparison as the second.
Tolerances are fixed here, not calibrated against runs:

* flow-field oracle: 1e-6 against central differences with h = 1e-6
* skew-symmetry: 1e-6 with M_e_dot from central differences at dt = 1e-5
* Lyapunov decrease: V(t+dt) <= V(t) + C_LYAP * dt^2 on steps whose logged
  assumption flag is true.  C_LYAP = 50 bounds the one-step discretization
  error 0.5 * |V''| dt^2 of the Euler adaptation law at the scenario's
  envelopes (|sigma| <= 0.5, |w| <= 2 * f_est_clamp, Gamma <= 100, K <= 50,
  plant rates O(1)), giving |V''| <= ~100.
* Table 2 envelope: per-axis position RMSE <= 0.25 m, speed RMSE <= 0.25
  m/s after detected convergence; convergence time <= 20 s at the 0.1 m
  threshold.
* z-channel: time-average |u2_z| below 10% of |u2_x|.
* comparison: proposed x/y position RMSE strictly below the first-order
  baseline's, chatter count at most half.
* allocation round trip: 1e-9; integrator order >= 3.8; determinism:
  byte-identical logs.
"""

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from auvform import vehicle as vm
from auvform.controller import SuperTwistGains, validate_gains
from auvform.engine import compute_metrics, detect_convergence, run
from auvform.export import compare_runs, export_results
from auvform.flow import FlowParams, flow_velocity, stream_function
from auvform.plant import advance_plant
from auvform.scenario import parse_scenario
from auvform.thrusters import ThrusterConfig, allocate, build_tcm
from auvform.vehicle import RigidBodyParams
from test_golden import DISPATCH_NOTE, file_sha256, simlog_sha256
from test_oracles import CONSERVATIVE

C_LYAP = 50.0
SCENARIO_PATH = Path(__file__).resolve().parents[1] / "scenarios" / "spiral.yaml"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, detail


@dataclass
class SpiralRun:
    scenario: object
    log: object
    wall: float


@pytest.fixture(scope="module")
def spiral() -> SpiralRun:
    scenario = parse_scenario(SCENARIO_PATH)
    t0 = time.perf_counter()
    log = run(scenario)
    return SpiralRun(scenario, log, time.perf_counter() - t0)


@dataclass
class ComparisonRun:
    result: object
    wall: float


@pytest.fixture(scope="module")
def comparison(spiral) -> ComparisonRun:
    # compare_runs re-runs the spiral's own scenario as its proposed side
    assert not spiral.scenario.controller.baseline
    t0 = time.perf_counter()
    result = compare_runs(spiral.scenario)
    return ComparisonRun(result, time.perf_counter() - t0)


def test_criterion_1_flow_field_oracle():
    t0 = time.perf_counter()
    p = FlowParams()
    rng = np.random.default_rng(2024)
    h = 1e-6
    x = rng.uniform(-10.0, 90.0, 1000)
    y = rng.uniform(-10.0, 90.0, 1000)
    t = rng.uniform(0.0, 200.0, 1000)
    u, v = flow_velocity(x, y, t, p)
    u_fd = -(stream_function(x, y + h, t, p) - stream_function(x, y - h, t, p)) / (2 * h)
    v_fd = (stream_function(x + h, y, t, p) - stream_function(x - h, y, t, p)) / (2 * h)
    err = max(np.max(np.abs(u - u_fd)), np.max(np.abs(v - v_fd)))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (flow-field oracle)",
        err < 1e-6 and elapsed < 1.0,
        f"max |analytic - finite difference| = {err:.2e} in {elapsed:.2f} s",
    )


def test_criterion_2_skew_symmetry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    params = RigidBodyParams()
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        eta2 = np.array(
            [rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5), rng.uniform(-np.pi, np.pi)]
        )
        nu = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)])
        m_e, c_e, _, _ = vm.inertial_matrices(vm.euler_pose(eta2), nu, params)
        eta2_dot = vm.body_rate_to_euler(vm.euler_trig(eta2)) @ nu[3:]
        m_plus = vm.inertial_matrices(vm.euler_pose(eta2 + eta2_dot * h), nu, params)[0]
        m_minus = vm.inertial_matrices(vm.euler_pose(eta2 - eta2_dot * h), nu, params)[0]
        m_dot = (m_plus - m_minus) / (2 * h)
        sigma = rng.uniform(-1.0, 1.0, 6)
        worst = max(worst, abs(sigma @ (m_dot - 2 * c_e) @ sigma))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 (skew-symmetry)",
        worst < 1e-6 and elapsed < 5.0,
        f"max |sigma^T (M_e_dot - 2 C_e) sigma| = {worst:.2e} in {elapsed:.2f} s",
    )


def test_criterion_3_gain_feasibility():
    t0 = time.perf_counter()
    good = SuperTwistGains(
        lam=2.1, rho=0.36, w_gain=0.3, phi=0.2, gamma_big=1.0, gamma_small=1.0
    )
    ok = validate_gains(good) == []
    ok &= any("rho" in v for v in validate_gains(SuperTwistGains(rho=0.6)))
    ok &= any("w_gain" in v for v in validate_gains(SuperTwistGains(w_gain=0.1, phi=0.2)))
    ok &= any("lam" in v for v in validate_gains(SuperTwistGains(lam=1.9)))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (gain feasibility)",
        ok and elapsed < 1.0,
        f"feasible set accepted, each single violation rejected, in {elapsed:.2f} s",
    )


def test_criterion_4_lyapunov_decrease(spiral):
    log = spiral.log
    dt = spiral.scenario.dt
    tol = C_LYAP * dt * dt
    diff = np.diff(log.lyap, axis=0)
    flag = log.assumption[1:]  # same interval as the backward-difference rate
    violations = int(np.sum((diff > tol) & flag))
    allowed = int(np.sum((diff > tol) & ~flag))
    worst = float(np.where(flag, diff, -np.inf).max())
    ok = violations == 0 and spiral.wall < 60.0
    report(
        "criterion 4 (Lyapunov decrease)",
        ok,
        f"0 required: {violations} flag-true increases above {tol:.1e} "
        f"(worst {worst:.2e}); {allowed} increases on flag-false steps logged; "
        f"run {spiral.wall:.0f} s",
    )


def test_criterion_5_table2_envelope(spiral):
    log = spiral.log
    t_c = detect_convergence(log, spiral.scenario.convergence_threshold)
    ok = t_c is not None and t_c <= 20.0
    detail = f"t_c = {t_c} s"
    if ok:
        metrics = compute_metrics(log, t_c)
        ok = bool(
            np.all(metrics.pos_rmse <= 0.25) and np.all(metrics.speed_rmse <= 0.25)
        )
        detail += (
            f", pos RMSE {np.round(metrics.pos_rmse, 4)} m, "
            f"speed RMSE {np.round(metrics.speed_rmse, 4)} m/s"
        )
    ok = ok and spiral.wall < 120.0
    report("criterion 5 (Table 2 envelope)", ok, detail + f", run {spiral.wall:.0f} s")


def test_criterion_6_comparison_claim(comparison):
    result, elapsed = comparison.result, comparison.wall
    rmse_ok = bool(
        result.rmse_proposed[0] < result.rmse_baseline[0]
        and result.rmse_proposed[1] < result.rmse_baseline[1]
    )
    chatter_ok = result.chatter_proposed <= result.chatter_baseline / 2
    report(
        "criterion 6 (comparison claim)",
        rmse_ok and chatter_ok and elapsed < 240.0,
        f"x/y RMSE proposed {np.round(result.rmse_proposed[:2], 4)} vs baseline "
        f"{np.round(result.rmse_baseline[:2], 4)}; chatter {result.chatter_proposed} "
        f"vs {result.chatter_baseline}; {elapsed:.0f} s",
    )


def test_criterion_7_z_channel(spiral):
    log = spiral.log
    mean_z = float(np.mean(np.abs(log.u2[:, :, 2])))
    mean_x = float(np.mean(np.abs(log.u2[:, :, 0])))
    ratio = mean_z / mean_x
    report(
        "criterion 7 (z-channel adaptive effort)",
        ratio < 0.1,
        f"time-average |u2_z| / |u2_x| = {ratio:.4f}",
    )


def test_criterion_8_allocation_round_trip():
    t0 = time.perf_counter()
    cfg = ThrusterConfig()
    b = build_tcm(cfg)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        u_true = rng.uniform(-0.6 * cfg.u_limit, 0.6 * cfg.u_limit, 3)
        tau = b @ u_true
        u, residual = allocate(tau, cfg)
        worst = max(worst, float(np.linalg.norm(b @ u - tau)), float(np.linalg.norm(residual)))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 8 (allocation round trip)",
        worst < 1e-9 and elapsed < 1.0,
        f"max reconstruction error {worst:.2e} over 1000 wrenches in {elapsed:.2f} s",
    )


def test_criterion_9_integrator_order():
    # the engine's plant advance on the 6-DOF plant (the energy oracle's undamped
    # plant with off-diagonal inertia and 2 N of buoyancy), 5 states of at most
    # 0.2 rad, m/s and rad/s, over 1 s against a run at dt = 0.00125
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    y0 = np.concatenate([rng.uniform(-5, 5, (5, 3)), rng.uniform(-0.2, 0.2, (5, 9))], axis=1)
    tau = np.zeros(6)

    def final_state(dt):
        y = y0
        for k in range(round(1.0 / dt)):
            y = advance_plant(y, k * dt, tau, dt, CONSERVATIVE)
        return y

    reference = final_state(0.00125)
    errors = [float(np.abs(final_state(dt) - reference).max()) for dt in (0.04, 0.02, 0.01)]
    order = float(np.log(errors[0] / errors[2]) / np.log(4.0))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 9 (integrator order)",
        order >= 3.8 and elapsed < 1.0,
        f"observed order {order:.2f} of the plant advance across dt = 0.04 -> 0.01 "
        f"in {elapsed:.2f} s",
    )


def test_criterion_10_determinism(spiral, comparison, tmp_path):
    t0 = time.perf_counter()
    log2 = comparison.result.log_proposed
    arrays_equal = all(
        np.array_equal(getattr(spiral.log, name), getattr(log2, name))
        for name in (
            "t", "eta", "nu", "eps", "deps", "sigma", "u1", "u2", "u_cmd",
            "u_t", "f_est", "lyap", "assumption", "flow", "dist",
        )
    )
    b1 = export_results(spiral.log, None, tmp_path / "run1")
    b2 = export_results(log2, None, tmp_path / "run2")
    bytes_equal = b1.timeseries.read_bytes() == b2.timeseries.read_bytes()
    # counts both whole runs: the spiral fixture and the comparison that made log2
    elapsed = time.perf_counter() - t0 + spiral.wall + comparison.wall
    report(
        "criterion 10 (determinism)",
        arrays_equal and bytes_equal and elapsed < 240.0,
        f"two runs byte-identical = {arrays_equal and bytes_equal}; {elapsed:.0f} s",
    )


# the full 45 s spiral's outputs, pinned like tests/test_golden.py's first second
SIMLOG_FULL = "8016106ef670379dc0c91005c4e28ea2423c21c6d0437d44d3e073b9d6ce31cf"
TIMESERIES_FULL = "ae7d711aeeefe04a9bf28f43e3b615855c2242167b3ada9e40b6e9d35aeef51c"


def test_spiral_full_run_digests(spiral, tmp_path):
    assert simlog_sha256(spiral.log) == SIMLOG_FULL, DISPATCH_NOTE
    bundle = export_results(spiral.log, None, tmp_path)
    assert file_sha256(bundle.timeseries) == TIMESERIES_FULL, DISPATCH_NOTE


def test_spiral_stays_inside_workspace(spiral):
    sc, log = spiral.scenario, spiral.log
    eta, box = log.eta, sc.flow.layers
    inside = (
        np.all((eta[:, :, 0] >= box.x_range[0]) & (eta[:, :, 0] <= box.x_range[1]))
        and np.all((eta[:, :, 1] >= box.y_range[0]) & (eta[:, :, 1] <= box.y_range[1]))
        and np.all((eta[:, :, 2] >= box.z_bottom) & (eta[:, :, 2] <= box.z_top))
    )
    assert inside


def test_spiral_states_bounded_and_within_clamps(spiral):
    sc, log = spiral.scenario, spiral.log
    for name in ("eta", "nu", "sigma", "u_cmd", "f_est", "lyap"):
        assert np.all(np.isfinite(getattr(log, name))), name
    assert np.abs(log.f_est).max() <= sc.controller.adaptive.f_est_clamp + 1e-9
    assert np.abs(log.u_t).max() <= sc.thrusters.u_limit + 1e-9
    assert np.abs(log.dist).max() <= sc.flow.disturbance.force_clamp + 1e-9


def test_spiral_phase_trajectories_terminal_envelope(spiral):
    # terminal phase points land inside the error envelope reported for the
    # converged tracking run
    log = spiral.log
    assert np.abs(log.eps[-1, :, :3]).max() <= 0.08
    assert np.abs(log.deps[-1, :, :3]).max() <= 0.15
