"""MPC shell tests: cost, rollout oracle, anytime improvement, bounds."""

import numpy as np
import pytest

from auvform.flow import DisturbanceModel, FlowParams, LayeredField, layered_velocity
from auvform.mpc import MpcConfig, MpcShell, _cost_batch, _smooth_batch
from auvform.plant import advance_plant
from auvform.vehicle import RigidBodyParams, jacobian


def make_sampler():
    params = FlowParams()
    layers = LayeredField()

    def sample(pos, t):
        pos = np.asarray(pos, dtype=float)
        return layered_velocity(pos[..., 0], pos[..., 1], pos[..., 2], t, layers, params)

    return sample


def seq_cost(predicted, desired, controls, cfg):
    """Tracking-plus-smoothing cost of one sequence, as MpcShell scores it."""
    return _cost_batch(predicted, desired, _smooth_batch(controls, cfg))


def test_cost_zero_for_perfect_tracking_constant_controls():
    cfg = MpcConfig(n_e=5, n_u=2)
    desired = np.tile([0.5, 0, 0, 0, 0, 0.0], (5, 1))
    controls = np.tile([3.0, 0, 0, 0, 0, 0.0], (7, 1))
    assert seq_cost(desired, desired, controls, cfg) == 0.0


def test_cost_single_tracking_term():
    cfg = MpcConfig(n_e=5, n_u=2)
    desired = np.zeros((5, 6))
    predicted = np.zeros((5, 6))
    predicted[2, 0] = 1.0
    controls = np.zeros((7, 6))
    assert seq_cost(predicted, desired, controls, cfg) == pytest.approx(1.0)


def test_cost_single_smoothing_term():
    cfg = MpcConfig(n_e=2, n_u=1)
    desired = np.zeros((2, 6))
    controls = np.zeros((3, 6))
    controls[1, 0] = 1.0
    # pairs (u1-u2) and (u2-u3) each differ by one unit in one axis
    assert seq_cost(desired, desired, controls, cfg) == pytest.approx(2.0)
    controls2 = np.zeros((3, 6))
    controls2[2, 0] = 1.0
    assert seq_cost(desired, desired, controls2, cfg) == pytest.approx(1.0)


def rollout(params, y0, controls, n_e, sampler=None, dist=None, dt=0.01, t0=0.0):
    """Rates predicted by MpcShell._predict for one vehicle and one sequence."""
    cfg = MpcConfig(n_e=n_e, n_u=max(1, len(controls) - n_e))
    shell = MpcShell(cfg, params, dist, sampler, dt, np.random.default_rng(0))
    seq = np.zeros((cfg.horizon, 6))
    seq[: len(controls)] = controls
    rates, _ = shell._predict(np.asarray(y0, dtype=float)[None], t0, seq[None])
    return rates[0]


def test_rollout_zero_controls_from_equilibrium():
    params = RigidBodyParams(restoring_gain=0.0)
    y0 = np.concatenate([[5.0, 5.0, -5.0], np.zeros(9)])
    rates = rollout(params, y0, np.zeros((5, 6)), 5)
    np.testing.assert_allclose(rates, np.zeros((5, 6)), atol=1e-14)


def test_rollout_matches_plant_advance():
    # with a perfect model the prediction is the simulator's own integrator
    params = RigidBodyParams(mismatch_factor=1.0)
    sampler = make_sampler()
    dist = DisturbanceModel()
    rng = np.random.default_rng(0)
    y0 = np.array([30.0, 40.0, -3.0, 0.0, 0.05, 0.4, 0.5, 0.1, 0.0, 0.0, 0.0, 0.05])
    controls = rng.uniform(-20, 20, (5, 6))
    dt = 0.01
    rates = rollout(params, y0, controls, 5, sampler, dist, dt=dt, t0=1.0)
    y = y0
    for k in range(5):
        y = advance_plant(y, 1.0 + k * dt, controls[k], dt, params, sampler, dist)
        expected = jacobian(y[3:6]) @ y[6:]
        np.testing.assert_allclose(rates[k], expected, atol=1e-9)


def test_rollout_one_step_horizon():
    params = RigidBodyParams()
    y0 = np.array([1.0, 2.0, -3.0, 0, 0, 0, 0.3, 0, 0, 0, 0, 0])
    tau = np.array([[5.0, 0, 0, 0, 0, 0]])
    rates = rollout(params, y0, tau, 1)
    est = params.estimated()
    y = advance_plant(y0, 0.0, tau[0], 0.01, est)
    np.testing.assert_allclose(rates[0], jacobian(y[3:6]) @ y[6:], atol=1e-12)


def _solve_setup(seed=0, **cfg_kw):
    cfg = MpcConfig(**cfg_kw)
    params = RigidBodyParams(mismatch_factor=0.9)
    shell = MpcShell(cfg, params, None, None, 0.01, np.random.default_rng(seed))
    eta = np.array([48.0, 40.0, -3.0, 0.0, 0.0, np.pi / 2])
    nu = np.array([0.8, 0.0, -0.04, 0.0, 0.0, 0.0])
    y0 = np.concatenate([eta, nu])[None]
    e_d = eta[None]
    ed_d = (jacobian(eta[3:]) @ nu)[None]
    edd_d = np.zeros((1, 6))
    return cfg, shell, y0, e_d, ed_d, edd_d


def test_solve_never_worse_than_clipped_nominal():
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(candidate_count=16, rounds=3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        nominal = rng.uniform(-80, 80, 6)
        seqs, cost, feas = shell.solve(y0, 0.0, nominal[None], e_d, ed_d, edd_d)
        clipped = np.clip(np.tile(nominal, (cfg.horizon, 1)), cfg.tau_lo, cfg.tau_hi)
        rates, _ = shell._predict(y0, 0.0, clipped[None])
        steps = 0.01 * np.arange(1, cfg.n_e + 1)[:, None]
        des = ed_d[0][None] + edd_d[0][None] * steps
        nominal_cost = seq_cost(rates[0], des, clipped, cfg)
        assert cost[0] <= nominal_cost + 1e-9


def test_solve_smooths_a_spike():
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(candidate_count=32, rounds=3)
    spike = np.tile([5.0, 0, 0, 0, 0, 0.0], (cfg.horizon, 1))
    spike[1, 0] = 40.0  # abrupt jump in the surge command
    seqs, cost, _ = shell.solve(y0, 0.0, spike[None], e_d, ed_d, edd_d)
    rates, _ = shell._predict(y0, 0.0, spike[None])
    steps = 0.01 * np.arange(1, cfg.n_e + 1)[:, None]
    des = ed_d[0][None] + edd_d[0][None] * steps
    spike_cost = seq_cost(rates[0], des, spike, cfg)
    assert cost[0] < spike_cost


def test_solve_clips_out_of_bound_nominal():
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(candidate_count=4, rounds=1)
    nominal = np.full(6, 500.0)
    seqs, _, _ = shell.solve(y0, 0.0, nominal[None], e_d, ed_d, edd_d)
    assert np.all(seqs <= cfg.tau_hi) and np.all(seqs >= cfg.tau_lo)


def test_solve_bounds_always_respected():
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(candidate_count=16, rounds=3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        nominal = rng.uniform(-100, 100, 6)
        seqs, _, _ = shell.solve(y0, 0.0, nominal[None], e_d, ed_d, edd_d)
        assert np.all(np.abs(seqs) <= cfg.tau_hi + 1e-12)


def test_solve_infeasible_flag():
    # pose error bounds so tight that every candidate violates them
    cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(
        candidate_count=8, rounds=2, state_lo=-1e-6, state_hi=1e-6
    )
    seqs, _, feas = shell.solve(y0, 0.0, np.zeros((1, 6)), e_d, ed_d, edd_d)
    assert not feas[0]


def test_solve_deterministic_given_seed():
    out = []
    for _ in range(2):
        cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(seed=7, candidate_count=16, rounds=3)
        seqs, cost, _ = shell.solve(y0, 0.0, np.full((1, 6), 10.0), e_d, ed_d, edd_d)
        out.append((seqs.copy(), cost.copy()))
    np.testing.assert_array_equal(out[0][0], out[1][0])
    np.testing.assert_array_equal(out[0][1], out[1][1])


def test_mpc_optimize_nominal_already_optimal():
    # zero-cost nominal: perfect tracking, constant sequence; returned unchanged
    cfg = MpcConfig(n_e=3, n_u=1, candidate_count=8, rounds=2)
    params = RigidBodyParams(restoring_gain=0.0, mismatch_factor=1.0)
    shell = MpcShell(cfg, params, None, None, 0.01, np.random.default_rng(0))
    y0 = np.concatenate([[5.0, 5.0, -5.0], np.zeros(9)])[None]
    zero = np.zeros((1, 6))
    seqs, costs, feasible = shell.solve(y0, 0.0, zero, y0[:, :6], zero, zero)
    assert costs[0] == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(seqs[0], np.zeros((cfg.horizon, 6)))
    assert feasible[0]


def _unpruned_solve(shell, y0, t, nominal, e_d, ed_d, edd_d):
    """Reference solve: roll out every candidate of every round, incumbent included."""
    cfg = shell.cfg
    n_v, h = y0.shape[0], cfg.horizon
    center = np.clip(nominal, cfg.tau_lo, cfg.tau_hi).copy()
    steps = shell.dt * np.arange(1, cfg.n_e + 1)[:, None]
    ed_seq = ed_d[:, None, :] + edd_d[:, None, :] * steps
    e_seq = e_d[:, None, :] + ed_d[:, None, :] * steps + 0.5 * edd_d[:, None, :] * steps**2
    cost0, feas0 = shell._evaluate(y0, t, center[:, None], ed_seq, e_seq)
    best_cost, best_feasible = cost0[:, 0], feas0[:, 0]
    sel_cost = np.where(best_feasible, best_cost, np.inf)
    scale, rows = cfg.perturb_scale, np.arange(n_v)
    for _ in range(cfg.rounds):
        noise = shell.rng.standard_normal((n_v, cfg.candidate_count, h, 6)) * scale
        noise[:, 0] = 0.0
        cand = np.clip(center[:, None] + noise, cfg.tau_lo, cfg.tau_hi)
        cost, feas = shell._evaluate(y0, t, cand, ed_seq, e_seq)
        masked = np.where(feas, cost, np.inf)
        pick = np.argmin(masked, axis=1)
        improved = masked[rows, pick] < sel_cost
        center = np.where(improved[:, None, None], cand[rows, pick], center)
        sel_cost = np.where(improved, masked[rows, pick], sel_cost)
        best_cost = np.where(improved, cost[rows, pick], best_cost)
        best_feasible = best_feasible | feas[rows, pick]
        scale *= 0.5
    return center, best_cost, best_feasible


@pytest.mark.parametrize("rounds", [1, 3])
@pytest.mark.parametrize("case", ["hold", "spike", "infeasible"])
def test_solve_pruning_matches_unpruned_evaluation(case, rounds):
    bounds = {"state_lo": 0.0, "state_hi": 0.0} if case == "infeasible" else {}
    shells = []
    for _ in range(2):
        cfg, shell, y0, e_d, ed_d, edd_d = _solve_setup(
            seed=11, candidate_count=12, rounds=rounds, **bounds
        )
        shells.append(shell)
    # two vehicles: the second is displaced and holds a constant command
    y0 = np.vstack([y0, y0 + [0.5, -0.3, 0.2, 0, 0, 0.1, 0.05, 0, 0, 0, 0, 0]])
    e_d, ed_d, edd_d = (np.vstack([a, a]) for a in (e_d, ed_d, edd_d))
    nominal = np.tile([5.0, 0, 0, 0, 0, 0.0], (2, cfg.horizon, 1))
    if case == "spike":
        nominal[0, 1, 0] = 40.0
    pruned, reference = shells

    rolled_out = []
    predict = pruned._predict

    def counted_predict(y, t, controls):
        rolled_out.append(len(controls))
        return predict(y, t, controls)

    pruned._predict = counted_predict
    got = pruned.solve(y0, 0.0, nominal, e_d, ed_d, edd_d)
    want = _unpruned_solve(reference, y0, 0.0, nominal, e_d, ed_d, edd_d)

    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert pruned.rng.bit_generator.state == reference.rng.bit_generator.state
    # the incumbent is rolled out once, never again inside a round
    perturbed = 2 * (cfg.candidate_count - 1)
    assert rolled_out[0] == 2
    if case == "hold":
        assert rolled_out == [2]
    elif case == "spike":
        assert 0 < sum(rolled_out[1:]) < rounds * perturbed
    else:
        assert not got[2].any()
        assert rolled_out[1:] == [perturbed] * rounds
