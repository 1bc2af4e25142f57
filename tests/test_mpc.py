"""MPC shell tests: clip, predicted cost, rollout oracle, bounds, feasibility.

MpcShell.solve and MpcShell.rollout start from the fleet state.  A run
computes every step's cost after the loop, rolling out many steps' logged
rows at once (engine.run); the engine tests at the bottom check every cost
against a serial rollout of its own from the step's state.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from auvform import engine, mpc
from auvform.engine import FlowConfig, SimRuntime, SimulationAbort, run, step
from auvform.formation import FormationSpec
from auvform.mpc import MpcConfig, MpcShell
from auvform.plant import advance_plant
from auvform.scenario import parse_scenario
from auvform.vehicle import RigidBodyParams, euler_pose, jacobian, wrap_angle

SPIRAL = Path(__file__).resolve().parents[1] / "scenarios" / "spiral.yaml"


def rollout(params, y0, tau, n_e, flow=None, dt=0.01, t0=0.0):
    """Rates of the n_e-step rollout for one vehicle holding tau."""
    shell = MpcShell(MpcConfig(n_e=n_e), params, flow, dt)
    u = np.asarray(tau, dtype=float)[None]
    rates, _ = shell.rollout(np.asarray(y0, dtype=float)[None], t0, u)
    return rates[0]


def test_rollout_zero_controls_from_equilibrium():
    params = RigidBodyParams(restoring_gain=0.0)
    y0 = np.concatenate([[5.0, 5.0, -5.0], np.zeros(9)])
    rates = rollout(params, y0, np.zeros(6), 5)
    np.testing.assert_allclose(rates, np.zeros((5, 6)), atol=1e-14)


def test_rollout_matches_plant_advance():
    # with a perfect model the prediction is the simulator's own integrator
    params = RigidBodyParams(mismatch_factor=1.0)
    flow = FlowConfig()
    rng = np.random.default_rng(0)
    y0 = np.array([30.0, 40.0, -3.0, 0.0, 0.05, 0.4, 0.5, 0.1, 0.0, 0.0, 0.0, 0.05])
    tau = rng.uniform(-20, 20, 6)
    dt = 0.01
    rates = rollout(params, y0, tau, 5, flow, dt=dt, t0=1.0)
    y = y0
    for k in range(5):
        y = advance_plant(y, 1.0 + k * dt, tau, dt, params, flow)
        expected = jacobian(euler_pose(y[3:6])) @ y[6:]
        np.testing.assert_allclose(rates[k], expected, atol=1e-9)


def test_rollout_one_step_horizon():
    params = RigidBodyParams()
    y0 = np.array([1.0, 2.0, -3.0, 0, 0, 0, 0.3, 0, 0, 0, 0, 0])
    tau = np.array([5.0, 0, 0, 0, 0, 0])
    rates = rollout(params, y0, tau, 1)
    est = params.estimated()
    y = advance_plant(y0, 0.0, tau, 0.01, est)
    np.testing.assert_allclose(rates[0], jacobian(euler_pose(y[3:6])) @ y[6:], atol=1e-12)


def _solve_setup(**cfg_kw):
    cfg = MpcConfig(**cfg_kw)
    params = RigidBodyParams(mismatch_factor=0.9)
    shell = MpcShell(cfg, params, None, 0.01)
    eta = np.array([48.0, 40.0, -3.0, 0.0, 0.0, np.pi / 2])
    nu = np.array([0.8, 0.0, -0.04, 0.0, 0.0, 0.0])
    y0 = np.concatenate([eta, nu])[None]
    e_d = eta[None]
    ed_d = (jacobian(euler_pose(eta[3:])) @ nu)[None]
    edd_d = np.zeros((1, 6))
    return cfg, shell, y0, e_d, ed_d, edd_d


def _desired_rates(cfg, ed_d, edd_d):
    steps = 0.01 * np.arange(1, cfg.n_e + 1)[:, None]
    return ed_d[:, None, :] + edd_d[:, None, :] * steps


def _cost_of_predicted_rates(offset):
    """Solve cost of one vehicle whose rollout returns the desired rates plus offset."""
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(n_e=5)
    rates = _desired_rates(cfg, ed_d, edd_d) + offset
    shell.rollout = lambda y0, t, u: (rates, np.broadcast_to(e_d[:, None], rates.shape))
    return shell.solve(y0, 0.0, np.zeros((1, 6)), e_d, ed_d, edd_d)[1][0]


def test_cost_zero_for_perfect_tracking_constant_controls():
    assert _cost_of_predicted_rates(0.0) == 0.0


def test_cost_single_tracking_term():
    offset = np.zeros((5, 6))
    offset[2, 0] = 1.0
    assert _cost_of_predicted_rates(offset) == pytest.approx(1.0)


def test_solve_applies_clipped_nominal_and_scores_holding_it():
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(n_e=4, tau_lo=-30.0, tau_hi=50.0)
    y0, e_d, ed_d, edd_d = (np.vstack([a, a]) for a in (y0, e_d, ed_d, edd_d))
    y0[1, :3] += [0.5, -0.3, 0.2]
    nominal = np.array([[70.0, -45.0, 3.0, 0.0, -2.5, 29.0], [-31.0, 12.0, 0.0, 0.0, 0.0, 51.0]])
    held = np.clip(nominal, cfg.tau_lo, cfg.tau_hi)
    assert np.array_equal(shell.clip(nominal), held)
    seqs, cost, feas = shell.solve(y0, 0.5, nominal, e_d, ed_d, edd_d)
    assert seqs.shape == (2, cfg.n_e, 6)
    assert np.array_equal(seqs, np.repeat(held[:, None], cfg.n_e, axis=1))
    rates, _ = shell.rollout(y0, 0.5, held)
    expected = np.sum((rates - _desired_rates(cfg, ed_d, edd_d)) ** 2, axis=(-1, -2))
    assert np.array_equal(cost, expected)
    assert feas.all()


def test_solve_never_worse_than_clipped_nominal():
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup()
    rng = np.random.default_rng(1)
    for _ in range(5):
        nominal = rng.uniform(-80, 80, 6)
        clipped = np.clip(nominal, cfg.tau_lo, cfg.tau_hi)
        seqs, cost, feas = shell.solve(y0, 0.0, nominal[None], e_d, ed_d, edd_d)
        rates, _ = shell.rollout(y0, 0.0, clipped[None])
        nominal_cost = np.sum((rates[0] - _desired_rates(cfg, ed_d, edd_d)[0]) ** 2)
        assert cost[0] <= nominal_cost + 1e-9


def test_solve_clips_out_of_bound_nominal():
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup()
    nominal = np.full(6, 500.0)
    seqs, _, _ = shell.solve(y0, 0.0, nominal[None], e_d, ed_d, edd_d)
    assert np.all(seqs <= cfg.tau_hi) and np.all(seqs >= cfg.tau_lo)


def test_solve_bounds_always_respected():
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup()
    rng = np.random.default_rng(2)
    for _ in range(10):
        nominal = rng.uniform(-100, 100, 6)
        seqs, _, _ = shell.solve(y0, 0.0, nominal[None], e_d, ed_d, edd_d)
        assert np.all(np.abs(seqs) <= cfg.tau_hi + 1e-12)


def test_solve_infeasible_flag():
    # pose error bounds so tight that the held command violates them
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(state_lo=-1e-6, state_hi=1e-6)
    zero = np.zeros((1, 6))
    seqs, _, feas = shell.solve(y0, 0.0, zero, e_d, ed_d, edd_d)
    assert not feas[0]


def test_mpc_optimize_nominal_already_optimal():
    # zero-cost nominal: perfect tracking, constant command; returned unchanged
    cfg = MpcConfig(n_e=3)
    params = RigidBodyParams(restoring_gain=0.0, mismatch_factor=1.0)
    shell = MpcShell(cfg, params, None, 0.01)
    y0 = np.concatenate([[5.0, 5.0, -5.0], np.zeros(9)])[None]
    zero = np.zeros((1, 6))
    seqs, costs, feasible = shell.solve(y0, 0.0, zero, y0[:, :6], zero, zero)
    assert costs[0] == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(seqs[0], np.zeros((cfg.n_e, 6)))
    assert feasible[0]


def full_rollout_cost(shell, y0, t, nominal, e_d, ed_d, edd_d):
    """mpc_cost as the shell computed it with its own first step (the reference).

    Every one of the n_e steps advances from y0 separately of the fleet, the
    disturbance is sampled inside each k1, and the rates go through the 6x6
    jacobian.
    """
    cfg, dt = shell.cfg, shell.dt
    u = np.clip(nominal, cfg.tau_lo, cfg.tau_hi)
    steps = dt * np.arange(1, cfg.n_e + 1)[:, None]
    ed_seq = ed_d[:, None, :] + edd_d[:, None, :] * steps
    rates = np.empty(u.shape[:-1] + (cfg.n_e, 6))
    y = y0
    for k in range(cfg.n_e):
        y = advance_plant(y, t + k * dt, u, dt, shell.params_est, shell.flow)
        jac = jacobian(euler_pose(y[..., 3:6]))
        rates[..., k, :] = np.einsum("...ij,...j->...i", jac, y[..., 6:])
    return np.sum((rates - ed_seq) ** 2, axis=(-1, -2))


def stepped_costs(sc):
    """full_rollout_cost of every step a stepped run of sc takes, to its end or its abort.

    Also counts the steps whose command the clip changed.
    """
    rt = SimRuntime(sc)
    want, clipped = [], 0
    try:
        for k in range(round(sc.duration / sc.dt)):
            y0, t = rt.y.copy(), rt.t
            rec = step(rt)
            want.append(full_rollout_cost(rt.shell, y0, t, rec["u"], *rt.refs[:, k]))
            clipped += int(np.any(rec["u_cmd"] != rec["u"]))
    except SimulationAbort:
        pass
    return np.array(want), clipped


def assert_costs(log, want):
    assert log.mpc_cost[: len(want)].tobytes() == want.tobytes()
    assert np.all(np.isnan(log.mpc_cost[len(want):]))


def spiral(duration, **mpc):
    sc = parse_scenario(SPIRAL)
    assert sc.flow.enabled and sc.mpc.enabled
    return replace(sc, duration=duration, mpc=replace(sc.mpc, **mpc))


def started_at(sc, y):
    return replace(sc, initial_states=list(y))


@pytest.mark.parametrize("start", ["on-reference", "offset"])
def test_engine_mpc_cost_matches_full_rollout(start):
    # every one of the 20 costs comes from the rollouts after the loop
    sc = spiral(0.2)
    if start == "offset":
        # 1-3 m and 0.3 rad of yaw off: the command clip is active
        y = SimRuntime(sc).y.copy()
        y[:, :3] += [[2.0, -1.5, 1.0], [-3.0, 2.5, -1.5], [1.25, 3.0, -2.0]]
        y[:, 5] = wrap_angle(y[:, 5] + [0.3, -0.3, 0.3])
        sc = started_at(sc, y)
    want, clipped = stepped_costs(sc)
    assert len(want) == 20
    assert_costs(run(sc), want)
    assert (clipped > 0) == (start == "offset")


@pytest.mark.parametrize("n_e, duration", [(1, 0.2), (100, 0.05)])
def test_run_costs_match_full_rollout_at_horizon_edges(n_e, duration):
    # n_e = 1: one plant step per rollout; n_e = 100 over 5 steps: every
    # rollout runs 95 steps past the end of the run
    sc = spiral(duration, n_e=n_e)
    want, _ = stepped_costs(sc)
    assert len(want) == round(duration / sc.dt)
    assert_costs(run(sc), want)


def test_abort_keeps_the_costs_of_the_kept_rows():
    # a leader pitching hard towards the pole: the run stops on step 7, and
    # the costs of the 7 steps it kept are still computed
    sc = spiral(0.3)
    y = SimRuntime(sc).y.copy()
    y[0, 4], y[0, 10] = 1.3, 10.0
    sc = started_at(sc, y)
    want, _ = stepped_costs(sc)
    assert len(want) == 7
    with pytest.raises(SimulationAbort, match="pitch") as info:
        run(sc)
    log = info.value.partial_log
    assert log.n_steps == 7
    assert_costs(log, want)


def recorded_rollout_times(monkeypatch, sc):
    """run(sc), recording the per-row times of each rollout advance_plant call."""
    times = []

    def recording(y, t, *args):
        times.append(np.array(t, copy=True))
        return advance_plant(y, t, *args)

    monkeypatch.setattr(mpc, "advance_plant", recording)
    return run(sc), times


def test_stage_times_are_start_time_plus_stage_offsets(monkeypatch):
    # stage k of the rollout started at step s advances from t_s + k dt, as a
    # serial rollout from t_s does; (s + k) dt differs in the last bit for
    # some (s, k), one of them (10, 2)
    sc = spiral(0.12)
    n_e, dt = sc.mpc.n_e, sc.dt
    log, times = recorded_rollout_times(monkeypatch, sc)
    assert len(times) == n_e
    t_s = np.repeat(log.t[:12], sc.n_vehicles)
    for k, t in enumerate(times):
        assert t.tobytes() == (t_s + k * dt).tobytes()
    serial = np.array([[s * dt + k * dt for k in range(n_e)] for s in range(12)])
    shifted = np.array([[(s + k) * dt for k in range(n_e)] for s in range(12)])
    assert serial[10, 2] != shifted[10, 2]


ONE_VEHICLE = RigidBodyParams(
    inertia=np.array(
        [
            [30.0, 0.0, 0.0, 0.0, 1.5, 0.0],
            [0.0, 30.0, 0.0, -1.5, 0.0, 0.4],
            [0.0, 0.0, 30.0, 0.0, 0.3, 0.0],
            [0.0, -1.5, 0.0, 1.0, 0.0, 0.0],
            [1.5, 0.0, 0.3, 0.0, 5.0, 0.0],
            [0.0, 0.4, 0.0, 0.0, 0.0, 5.0],
        ]
    ),
    mismatch_factor=0.9,
)


@pytest.mark.parametrize("fleet", ["spiral", "one-vehicle"])
def test_costs_do_not_depend_on_the_chunk_size(monkeypatch, fleet):
    # a one-step chunk of a one-vehicle fleet rolls out a single row; with a
    # non-diagonal inertia and an offset start (large accelerations) a
    # one-row M^-1 product of another kernel changes 5 of these 30 costs
    sc = spiral(0.3)
    if fleet == "one-vehicle":
        sc = replace(sc, formation=FormationSpec(offsets=()), vehicle=ONE_VEHICLE)
        y = SimRuntime(sc).y.copy()
        y[:, :3] += [2.0, -1.5, 1.0]
        y[:, 5] = wrap_angle(y[:, 5] + 0.3)
        sc = started_at(sc, y)
    costs = []
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(engine, "_COST_CHUNK_STEPS", chunk)
        costs.append(run(sc).mpc_cost)
    assert np.all(np.isfinite(costs[0][:-1]))
    assert costs[0].tobytes() == costs[1].tobytes() == costs[2].tobytes()


def test_stepping_with_the_shell_on_makes_one_fleet_advance_per_step(monkeypatch):
    sc = spiral(0.1)
    calls = {"engine": [], "mpc": []}

    def counting(side):
        def advance(y, *args):
            calls[side].append(len(y))
            return advance_plant(y, *args)
        return advance

    monkeypatch.setattr(engine, "advance_plant", counting("engine"))
    monkeypatch.setattr(mpc, "advance_plant", counting("mpc"))
    rt = SimRuntime(sc)
    for _ in range(10):
        step(rt)
    assert calls == {"engine": [sc.n_vehicles] * 10, "mpc": []}
