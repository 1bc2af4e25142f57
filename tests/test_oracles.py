"""Physics oracles of the plant that hold on any machine.

The byte-level plant tests compare against digests or an unfused copy of the
same formulas, and the digests hold only under numpy's AVX-512 loops.  The
checks here are properties of the physics instead, with tolerances set from
measured values, so they make no byte claim and pass whichever SIMD loops numpy
dispatches to:

- restoring is the gradient of a potential: nu^T g = dU/dt, with
  U = restoring_gain (1 - cos theta cos phi) - buoyancy_net z;
- with no damping, no flow and no wrench, E = 1/2 nu^T M nu + U is conserved
  (the Coriolis term is skew), so its drift over a fixed time shrinks at the
  integrator's order as dt halves;
- with damping, the flow on and a held wrench, E changes by the work of the
  wrench, the current and the damping: dE/dt = nu^T (tau - tau_c) - nu^T D(nu) nu.
"""

import dataclasses
from pathlib import Path

import numpy as np

from auvform import parse_scenario
from auvform.flow import disturbance_force
from auvform.plant import advance_plant
from auvform.vehicle import euler_pose, inertial_rates
from test_plant import PARAMS
from test_vehicle import ref_jacobian

# the plant's off-diagonal inertia, undamped, with 2 N of net buoyancy
CONSERVATIVE = dataclasses.replace(
    PARAMS, d_linear=np.zeros(6), d_quad=np.zeros(6), buoyancy_net=2.0, mismatch_factor=1.0
)


def potential(eta: np.ndarray, params) -> np.ndarray:
    phi, theta = eta[..., 3], eta[..., 4]
    return params.restoring_gain * (1.0 - np.cos(theta) * np.cos(phi)) - params.buoyancy_net * eta[..., 2]


def energy(y: np.ndarray, params) -> np.ndarray:
    nu = y[..., 6:]
    return 0.5 * np.einsum("...i,ij,...j->...", nu, params.inertia, nu) + potential(y[..., :6], params)


def test_restoring_is_the_gradient_of_its_potential():
    rng = np.random.default_rng(4)
    eta = np.concatenate([rng.uniform(-10, 10, (200, 3)), rng.uniform(-1.2, 1.2, (200, 3))], axis=1)
    nu = rng.uniform(-1.0, 1.0, (200, 6))
    pose = euler_pose(eta[:, 3:])
    (cphi, sphi, cth, sth, _, _), _, _ = pose
    gain, buoyancy = CONSERVATIVE.restoring_gain, CONSERVATIVE.buoyancy_net
    grad = np.zeros((200, 6))
    grad[:, 2] = -buoyancy
    grad[:, 3] = gain * sphi * cth
    grad[:, 4] = gain * cphi * sth
    du_dt = np.einsum("ni,ni->n", grad, inertial_rates(pose, nu))
    power = np.einsum("ni,ni->n", nu, CONSERVATIVE.restoring(pose))
    # measured at most 7e-15 against terms of order 30
    np.testing.assert_allclose(power, du_dt, rtol=0.0, atol=1e-12)


# worst |E(t) - E(0)| over 2 s and 5 states, measured 2.42e-5, 7.47e-7, 2.25e-8 and
# 6.80e-10 (each halving gained 32-33x); the bounds give 3x headroom
DRIFT_BOUND = {0.04: 7.5e-5, 0.02: 2.3e-6, 0.01: 7e-8, 0.005: 2.1e-9}


def test_conservative_plant_conserves_energy_at_the_integrators_order():
    # states of up to 0.2 rad, 0.2 m/s and 0.2 rad/s; with states of up to 0.5,
    # some halvings at dt <= 0.01 gained only 14-15x
    rng = np.random.default_rng(0)
    y0 = np.concatenate([rng.uniform(-5, 5, (5, 3)), rng.uniform(-0.2, 0.2, (5, 9))], axis=1)
    tau = np.zeros(6)
    drift = {}
    for dt, bound in DRIFT_BOUND.items():
        y, e0, worst = y0, energy(y0, CONSERVATIVE), 0.0
        for k in range(round(2.0 / dt)):
            y = advance_plant(y, k * dt, tau, dt, CONSERVATIVE)
            worst = max(worst, np.abs(energy(y, CONSERVATIVE) - e0).max())
        assert worst <= bound, (dt, worst)
        drift[dt] = worst
    # fourth order at least: every halving of dt cuts the drift 16x or more
    gains = [drift[dt] / drift[dt / 2] for dt in (0.04, 0.02, 0.01)]
    assert min(gains) >= 16.0, gains


# the plant's off-diagonal inertia with 2 N of net buoyancy and its damping, less the
# quadratic roll and pitch terms: the restoring pendulum swings p and q through zero,
# where |q| q has a jump in its second derivative that costs RK4 an order (with them
# kept, some halvings gained only 2-9x)
DAMPED = dataclasses.replace(PARAMS, buoyancy_net=2.0, d_quad=PARAMS.d_quad * [1, 1, 1, 0, 0, 1])
FLOW = parse_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "spiral.yaml").flow
TAU = np.array([6.0, -4.0, 3.0, 0.5, 1.0, -0.5])
SMOOTH_AXES = [0, 1, 2, 5]  # the velocities with quadratic damping, which must not cross zero


def power(y: np.ndarray, t: float) -> np.ndarray:
    """dE/dt = nu^T (tau - tau_c) - nu^T D(nu) nu, with tau_c = J^T d_o from the flow at (y, t)."""
    eta, nu = y[:, :6], y[:, 6:]
    pose = euler_pose(eta[:, 3:])
    flow_v = FLOW.velocity(eta[:, :3], t)
    d_o = disturbance_force(flow_v, inertial_rates(pose, nu)[:, :3], pose[1], FLOW.disturbance)
    tau_c = np.einsum("nji,nj->ni", ref_jacobian(eta[:, 3:]), d_o)
    return np.einsum("ni,ni->n", nu, TAU - tau_c - DAMPED.damping_force(nu))


# worst |E(T) - E(0) - Simpson integral of dE/dt| over 0.4 s and 5 states, measured
# 3.40e-6, 2.14e-7, 1.35e-8 and 8.44e-10 (15.8-16.0x per halving) against |E(T) - E(0)|
# of 0.14-0.33 J; the bounds give 3x headroom
POWER_BOUND = {0.02: 1.1e-5, 0.01: 6.5e-7, 0.005: 4.1e-8, 0.0025: 2.6e-9}


def test_damped_plant_in_the_flow_balances_its_power():
    # states inside the workspace, in the second flow layer; each velocity starts
    # 0.05-0.2 with the sign of its wrench component
    rng = np.random.default_rng(0)
    y0 = np.concatenate([
        rng.uniform(10, 70, (5, 2)), rng.uniform(-12, -8, (5, 1)), rng.uniform(-0.2, 0.2, (5, 3)),
        np.sign(TAU) * rng.uniform(0.05, 0.2, (5, 6)),
    ], axis=1)
    residual = {}
    for dt, bound in POWER_BOUND.items():
        n = round(0.4 / dt)
        y, p = y0, [power(y0, 0.0)]
        for k in range(n):
            y = advance_plant(y, k * dt, TAU, dt, DAMPED, FLOW)
            assert (np.sign(y[:, 6:][:, SMOOTH_AXES]) == np.sign(TAU[SMOOTH_AXES])).all()
            p.append(power(y, (k + 1) * dt))
        # Simpson's rule over the n (even) steps; the trapezoid gains only 4x per halving
        weights = np.ones(n + 1)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        work = dt / 3.0 * (weights @ np.array(p))
        worst = np.abs(energy(y, DAMPED) - energy(y0, DAMPED) - work).max()
        assert worst <= bound, (dt, worst)
        residual[dt] = worst
    gains = [residual[dt] / residual[dt / 2] for dt in (0.02, 0.01, 0.005)]
    assert min(gains) >= 12.0, gains
