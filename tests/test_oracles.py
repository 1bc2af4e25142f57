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
  integrator's order as dt halves.
"""

import dataclasses

import numpy as np

from auvform.plant import advance_plant
from auvform.vehicle import euler_pose, inertial_rates
from test_plant import PARAMS

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
