"""Byte-exactness of the fused plant derivative and of the stacked advance.

plant_derivative evaluates the pose trig once and shares R and T^-1 across
the kinematics, the disturbance wrench and tau_c = J^T d_o.  The reference
below is the unfused form: every transform rebuilt from the angles, the flow
sampled through np.stack/np.clip/np.linalg.norm, the Coriolis term through
per-product cross products.  Both must give the same bytes, signed zeros
included, because the SimLog digest is taken over them.  So must the
shortcuts the engine and the MPC rollouts take: one advance over stacked
rows, each with its own time, against one call per block or per row, a lone
row included; and k1 fed the step-start disturbance the diagnostics built,
against k1 sampling the flow itself.
"""

import numpy as np
import pytest

from auvform.engine import FlowConfig
from auvform.flow import (
    RAW_SPEED_MAX,
    DisturbanceModel,
    FlowParams,
    LayeredField,
    disturbance_force,
    layered_velocity,
)
from auvform.plant import advance_plant, plant_derivative
from auvform.vehicle import PITCH_SINGULARITY_TOL, RigidBodyParams, euler_pose
from test_vehicle import assert_same_bytes, ref_body_rate_to_euler, ref_rotation

# --- reference: the unfused arithmetic -------------------------------------


def ref_cross(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def ref_acceleration(eta, nu, tau, tau_c, p: RigidBodyParams):
    nu1, nu2 = nu[..., :3], nu[..., 3:]
    m = p.inertia
    a1 = nu1 @ m[:3, :3].T + nu2 @ m[:3, 3:].T
    a2 = nu1 @ m[3:, :3].T + nu2 @ m[3:, 3:].T
    cor = np.empty_like(nu)
    cor[..., :3] = -ref_cross(a1, nu2)
    cor[..., 3:] = -ref_cross(a1, nu1) - ref_cross(a2, nu2)
    damp = (p.d_linear + p.d_quad * np.abs(nu)) * nu
    phi, theta = eta[..., 3], eta[..., 4]
    up_body = np.stack(
        [-np.sin(theta), np.cos(theta) * np.sin(phi), np.cos(theta) * np.cos(phi)],
        axis=-1,
    )
    g = np.zeros(eta.shape[:-1] + (6,))
    g[..., 3] = p.restoring_gain * np.cos(theta) * np.sin(phi)
    g[..., 4] = p.restoring_gain * np.sin(theta)
    g[..., :3] = -p.buoyancy_net * up_body
    rhs = tau - tau_c - cor - damp - g
    # every row as inside a multi-row product: a one-row product takes BLAS's
    # vector kernel, which rounds differently when M is not diagonal
    rows = np.vstack([rhs.reshape(-1, 6), np.zeros(6)])
    return (rows @ np.linalg.inv(p.inertia).T)[:-1].reshape(rhs.shape)


def ref_flow_velocity(x, y, t, p: FlowParams):
    b = p.b0 + p.e_amp * np.cos(p.omega * np.asarray(t, dtype=float) + p.theta0)
    phase = p.k * (x - p.c * np.asarray(t, dtype=float))
    num = y - b * np.cos(phase)
    den = np.sqrt(1.0 + p.k**2 * b**2 * np.sin(phase) ** 2)
    f = num / den
    sech2 = 1.0 / np.cosh(f) ** 2
    dnum_dx = b * p.k * np.sin(phase)
    dden_dx = p.k**3 * b**2 * np.sin(phase) * np.cos(phase) / den
    df_dx = (dnum_dx * den - num * dden_dx) / den**2
    return sech2 / den, -sech2 * df_dx


def ref_layered_velocity(x, y, z, t, f: LayeredField, p: FlowParams):
    xj = (x - f.jet_origin[0]) / f.jet_scale
    yj = (y - f.jet_origin[1]) / f.jet_scale
    u, v = ref_flow_velocity(xj, yj, t, p)
    depth_frac = (f.z_top - z) / (f.z_top - f.z_bottom)
    idx = np.clip(np.floor(depth_frac * f.n_layers).astype(int), 0, f.n_layers - 1)
    idx = np.where((z >= f.z_bottom) & (z <= f.z_top), idx, -1)
    scales = np.asarray(f.layer_scale + (0.0,), dtype=float)
    scale = scales[idx] * (f.speed_cap / RAW_SPEED_MAX)
    inside_xy = ((x >= f.x_range[0]) & (x <= f.x_range[1])
                 & (y >= f.y_range[0]) & (y <= f.y_range[1]))
    scale = np.where(inside_xy, scale, 0.0)
    u = u * scale
    v = v * scale
    speed = np.hypot(u, v)
    over = speed > f.speed_cap
    if np.any(over):
        shrink = np.where(over, f.speed_cap / np.where(over, speed, 1.0), 1.0)
        u = u * shrink
        v = v * shrink
    return np.stack([u, v, np.zeros_like(u)], axis=-1)


def ref_disturbance(flow_vel, eta, nu, model: DisturbanceModel):
    rot = ref_rotation(eta[..., 3:])
    v_rel = flow_vel - np.einsum("...ij,...j->...i", rot, nu[..., :3])
    v_xy = v_rel.copy()
    v_xy[..., 2] = 0.0
    mag = np.linalg.norm(v_xy, axis=-1, keepdims=True)
    force = np.clip(model.drag_gain * mag * v_xy, -model.force_clamp, model.force_clamp)
    v_body = np.einsum("...ji,...j->...i", rot, v_xy)
    yaw = np.clip(model.drag_gain_yaw * v_body[..., 1], -model.force_clamp, model.force_clamp)
    out = np.zeros(np.broadcast_shapes(eta.shape[:-1], flow_vel.shape[:-1]) + (6,))
    out[..., 0] = force[..., 0]
    out[..., 1] = force[..., 1]
    out[..., 5] = yaw
    return out


def ref_derivative(y, t, tau, params, flow: FlowConfig | None):
    eta, nu = y[..., :6], y[..., 6:]
    out = np.empty_like(y)
    out[..., :3] = np.einsum("...ij,...j->...i", ref_rotation(eta[..., 3:]), nu[..., :3])
    out[..., 3:6] = np.einsum(
        "...ij,...j->...i", ref_body_rate_to_euler(eta[..., 3:]), nu[..., 3:]
    )
    if flow is not None:
        pos = eta[..., :3]
        flow_vel = ref_layered_velocity(
            pos[..., 0], pos[..., 1], pos[..., 2], t, flow.layers, flow.params
        )
        d_o = ref_disturbance(flow_vel, eta, nu, flow.disturbance)
        tau_c = np.empty_like(nu)
        tau_c[..., :3] = np.einsum("...ji,...j->...i", ref_rotation(eta[..., 3:]), d_o[..., :3])
        tau_c[..., 3:] = np.einsum(
            "...ji,...j->...i", ref_body_rate_to_euler(eta[..., 3:]), d_o[..., 3:]
        )
    else:
        tau_c = np.zeros_like(nu)
    out[..., 6:] = ref_acceleration(eta, nu, tau, tau_c, params)
    return out


def ref_advance(y, t, tau, dt, params, flow):
    def f(yy, tt):
        return ref_derivative(yy, tt, tau, params, flow)

    k1 = f(y, t)
    k2 = f(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(y + dt * k3, t + dt)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# --- the flow sample alone: the workspace-box test folded into layer_index ---


@pytest.mark.parametrize("surface", [1.0, 1.6], ids=["default", "shrunk"])
def test_folded_workspace_mask_matches_the_two_pass_reference(surface):
    # points inside, outside the box on each side, outside the depth band and
    # on its edges; a surface layer above 1 also takes the shrink branch.
    # Signed zeros count: a negative raw speed times a 0.0 scale is -0.0
    field = LayeredField(layer_scale=(surface, 1.0 / 2.4, 0.25))
    p = FlowParams()
    rng = np.random.default_rng(11)
    x = rng.uniform(-10.0, 90.0, 500)
    y = rng.uniform(-10.0, 90.0, 500)
    z = rng.uniform(-25.0, 3.0, 500)
    x[:4], y[:4], z[:4] = [0.0, 80.0, 40.0, 40.0], [40.0, 40.0, 0.0, 80.0], [0.0, -20.0, -1.0, -1.0]
    t = rng.uniform(0.0, 60.0, 500)
    got = layered_velocity(x, y, z, t, field, p)
    assert got.tobytes() == ref_layered_velocity(x, y, z, t, field, p).tobytes()
    outside = (x < 0) | (x > 80) | (y < 0) | (y > 80) | (z < -20) | (z > 0)
    assert outside.sum() > 100 and np.all(got[outside] == 0.0)
    assert np.signbit(got[outside]).any()
    shrunk = np.isclose(np.hypot(got[:, 0], got[:, 1]), field.speed_cap, rtol=1e-12, atol=0.0)
    assert shrunk.any() == (surface > 1.0)
    # scalar points, one per region, and a grid as the flow-grid export samples it
    for point in [(30.0, 42.0, -3.0), (-1.0, 42.0, -3.0), (30.0, 81.0, -3.0), (30.0, 42.0, 0.5),
                  (30.0, 42.0, -20.5), (80.0, 80.0, -20.0)]:
        got = layered_velocity(*point, 2.5, field, p)
        assert got.shape == (3,)
        assert got.tobytes() == ref_layered_velocity(*point, 2.5, field, p).tobytes()
    gx, gy = np.meshgrid(np.linspace(-5.0, 85.0, 19), np.linspace(-5.0, 85.0, 13))
    gz = np.full_like(gx, -4.0)
    got = layered_velocity(gx, gy, gz, 7.0, field, p)
    assert got.shape == (13, 19, 3)
    assert got.tobytes() == ref_layered_velocity(gx, gy, gz, 7.0, field, p).tobytes()


# --- cases -------------------------------------------------------------------

PARAMS = RigidBodyParams(
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
    buoyancy_net=2.5,
    mismatch_factor=0.9,
)
FLOWS = {
    "default": FlowConfig(),
    # surface layer scaled past the cap: the over-cap shrink branch runs
    "capped": FlowConfig(
        layers=LayeredField(z_bottom=-16.0, layer_scale=(3.0, 2.0, 1.0, 0.5),
                            speed_cap=0.2)
    ),
    "off": None,
}
POLE = np.pi / 2 - PITCH_SINGULARITY_TOL


def states(n_rows: int, seed: int) -> np.ndarray:
    """Rows inside and outside the flow volume, on its edges, at rest, near the pole."""
    rng = np.random.default_rng(seed)
    y = np.empty((n_rows, 12))
    y[:, 0] = rng.uniform(-10.0, 90.0, n_rows)
    y[:, 1] = rng.uniform(-10.0, 90.0, n_rows)
    y[:, 2] = rng.uniform(-24.0, 4.0, n_rows)
    y[:, 3] = rng.uniform(-0.6, 0.6, n_rows)
    y[:, 4] = rng.uniform(-1.2, 1.2, n_rows)
    y[:, 5] = rng.uniform(-np.pi, np.pi, n_rows)
    y[:, 6:] = rng.normal(0.0, 0.8, (n_rows, 6))
    edges = [
        # (x, y, z): workspace corners and faces, z_top, z_bottom, layer edges
        # (row 2, the first signed-zero row, sits above the water: no flow)
        (0.0, 0.0, 0.0), (80.0, 80.0, -20.0), (40.0, 52.0, 0.5), (40.0, 52.0, -8.0),
        (40.0, 52.0, -12.0), (40.0, 52.0, -16.0), (-1e-9, 40.0, -5.0), (40.0, 80.5, -5.0),
        (40.0, 52.0, -4.0), (40.0, 52.0, -20.0 / 3.0), (40.0, 52.0, -40.0 / 3.0),
        (30.0, 50.0, -25.0),
    ]
    for i, (px, py, pz) in enumerate(edges[: n_rows]):
        y[i, :3] = (px, py, pz)
    for i in range(n_rows):
        kind = i % 6
        if kind == 1:
            y[i, 6:] = 0.0  # at rest
        elif kind == 2:
            y[i, 3:] = -0.0  # signed zeros in the pose and the velocity
        elif kind == 3:
            y[i, 4] = (POLE - rng.uniform(0.0, 1e-3)) * rng.choice([-1.0, 1.0])
    return y


def wrench(n_rows: int, seed: int) -> np.ndarray:
    """Random body wrenches; zero on every third row and on the signed-zero rows."""
    tau = np.random.default_rng(seed + 1).normal(0.0, 20.0, (n_rows, 6))
    tau[::3] = 0.0
    tau[2::6] = -0.0
    return tau


SHAPES = [(12,), (3, 12), (36, 12)]


def cases(shape, seed):
    """(y, tau) pairs of the given shape; a single vehicle takes each row in turn."""
    rows = shape[0] if len(shape) == 2 else 12
    y, tau = states(max(rows, 12), seed)[:rows], wrench(rows, seed)
    if len(shape) == 2:
        return [(y, tau)]
    return list(zip(y, tau))


@pytest.mark.parametrize("flow_name", list(FLOWS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_derivative_bytes_match_unfused_reference(shape, flow_name):
    flow = FLOWS[flow_name]
    for seed in range(3):
        for y, tau in cases(shape, seed):
            for t in (0.0, 7.3, 41.25):
                got = plant_derivative(y, t, tau, PARAMS, flow)
                assert_same_bytes(got, ref_derivative(y, t, tau, PARAMS, flow))


@pytest.mark.parametrize("flow_name", list(FLOWS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_advance_bytes_match_unfused_reference(shape, flow_name):
    flow = FLOWS[flow_name]
    for y, tau in cases(shape, 11):
        for _ in range(3):
            got = advance_plant(y, 2.0, tau, 0.01, PARAMS, flow)
            assert_same_bytes(got, ref_advance(y, 2.0, tau, 0.01, PARAMS, flow))
            y = got


@pytest.mark.parametrize("flow_name", list(FLOWS))
def test_held_wrench_matches_the_tiled_wrench(flow_name):
    flow = FLOWS[flow_name]
    y, tau = states(12, 4), wrench(12, 4)[5]
    tiled = np.tile(tau, (12, 1))
    assert_same_bytes(
        plant_derivative(y, 7.3, tau, PARAMS, flow),
        plant_derivative(y, 7.3, tiled, PARAMS, flow),
    )
    assert_same_bytes(
        advance_plant(y, 7.3, tau, 0.01, PARAMS, flow),
        advance_plant(y, 7.3, tiled, 0.01, PARAMS, flow),
    )


def test_cases_reach_every_branch():
    y = states(36, 0)
    capped = FLOWS["capped"]
    flow_vel = capped.velocity(y[:, :3], 7.3)
    speed = np.hypot(flow_vel[:, 0], flow_vel[:, 1])
    # some rows shrink to the cap, some lie outside the flow volume
    assert np.any(np.isclose(speed, capped.layers.speed_cap, rtol=1e-12, atol=0.0))
    assert np.any(speed == 0.0)
    # near-pole pitch, rows at rest, and drag at its clamp
    assert np.any(np.abs(y[:, 4]) > POLE - 1e-3)
    assert np.any(np.all(y[:, 6:] == 0.0, axis=1))
    model = FLOWS["default"].disturbance
    d_o = ref_disturbance(FlowConfig().velocity(y[:, :3], 7.3), y[:, :6], y[:, 6:], model)
    assert np.any(np.abs(d_o) == model.force_clamp)


# --- stacked rows and the handed-in step-start disturbance -------------------


def step_start_disturbance(y, t, flow):
    """d_o at (y, t) the way the engine's diagnostics build it for the log."""
    rot = euler_pose(y[:, 3:6])[1]
    flow_vel = flow.velocity(y[:, :3], t)
    vel = np.einsum("...ij,...j->...i", rot, y[:, 6:9])
    return disturbance_force(flow_vel, vel, rot, flow.disturbance)


@pytest.mark.parametrize("same_start", [True, False], ids=["same-start", "two-starts"])
@pytest.mark.parametrize("flow_name", ["default", "off"])
@pytest.mark.parametrize("n_v", [1, 3])
def test_stacked_advance_matches_separate_calls(n_v, flow_name, same_start):
    # two fleets of n_v rows in one call; n_v = 1 compares against one-row calls
    flow = FLOWS[flow_name]
    y_a = states(12, 5)[:n_v]
    y_b = y_a if same_start else states(12, 6)[6 : 6 + n_v]
    tau_a, tau_b = wrench(n_v, 5), wrench(n_v, 6) + 1.5
    for t in (0.0, 7.3):
        for _ in range(3):
            stacked = advance_plant(
                np.concatenate([y_a, y_b]), t, np.concatenate([tau_a, tau_b]),
                0.01, PARAMS, flow,
            )
            want_a = advance_plant(y_a, t, tau_a, 0.01, PARAMS, flow)
            want_b = advance_plant(y_b, t, tau_b, 0.01, PARAMS, flow)
            assert_same_bytes(stacked[:n_v], want_a)
            assert_same_bytes(stacked[n_v:], want_b)
            y_a, y_b = want_a, want_b


@pytest.mark.parametrize("flow_name", ["default", "capped"])
@pytest.mark.parametrize("n_v", [1, 3, 36])
def test_handed_in_disturbance_matches_sampled(n_v, flow_name):
    flow = FLOWS[flow_name]
    y, tau = states(max(n_v, 12), 2)[:n_v], wrench(n_v, 2)
    for t in (0.0, 7.3, 41.25):
        d_o = step_start_disturbance(y, t, flow)
        sampled = plant_derivative(y, t, tau, PARAMS, flow)
        got = plant_derivative(y, t, tau, PARAMS, flow, d_o=d_o)
        assert_same_bytes(got, sampled)
        # the handed-in wrench is the one used
        shifted = plant_derivative(y, t, tau, PARAMS, flow, d_o=d_o + 1.0)
        assert not np.any(shifted[:, 6:] == sampled[:, 6:])
        got = advance_plant(y, t, tau, 0.01, PARAMS, flow, d_o=d_o)
        assert_same_bytes(got, advance_plant(y, t, tau, 0.01, PARAMS, flow))


@pytest.mark.parametrize("n_v", [1, 3])
def test_stacked_advance_with_handed_in_disturbance(n_v):
    # a rollout's first stage over two steps' rows: [y; y], two wrenches, the
    # logged d_o at (y, t) twice
    flow = FLOWS["default"]
    est = PARAMS.estimated()
    y = states(12, 9)[:n_v]
    tau_a, tau_b = wrench(n_v, 9), wrench(n_v, 10)
    d_o = step_start_disturbance(y, 7.3, flow)
    stacked = advance_plant(
        np.concatenate([y, y]), 7.3, np.concatenate([tau_a, tau_b]), 0.01,
        est, flow, d_o=np.concatenate([d_o, d_o]),
    )
    assert_same_bytes(stacked[:n_v], advance_plant(y, 7.3, tau_a, 0.01, est, flow))
    assert_same_bytes(stacked[n_v:], advance_plant(y, 7.3, tau_b, 0.01, est, flow))


def stage_times(n_flights: int, n_v: int) -> np.ndarray:
    """Per-row times of n_flights rollout stages of n_v rows each: t_s + k * dt."""
    starts = [0.0, 7.3, 41.25, 2.0, 9.5, 0.5]
    return np.repeat([starts[k] + k * 0.01 for k in range(n_flights)], n_v)


@pytest.mark.parametrize("flow_name", list(FLOWS))
def test_per_row_times_match_scalar_time_calls(flow_name):
    # each row against a one-row call at its own time
    flow = FLOWS[flow_name]
    y, tau = states(12, 12), wrench(12, 12)
    t = stage_times(4, 3)
    for _ in range(3):
        got = advance_plant(y, t, tau, 0.01, PARAMS, flow)
        for i in range(len(y)):
            want = advance_plant(y[i], float(t[i]), tau[i], 0.01, PARAMS, flow)
            assert_same_bytes(got[i], want)
        y = got


@pytest.mark.parametrize("flow_name", ["default", "capped", "off"])
@pytest.mark.parametrize("n_v", [2, 3])
def test_unequal_blocks_match_separate_calls(n_v, flow_name):
    # a rollout chunk: blocks of n_v rows, one per step, each at its own time,
    # against the first block alone, the rest together and each block alone
    flow = FLOWS[flow_name]
    est = PARAMS.estimated()
    n_rows = 5 * n_v
    y, tau = states(n_rows, 14), wrench(n_rows, 14)
    t = stage_times(5, n_v)
    first, rest = slice(0, n_v), slice(n_v, None)
    for _ in range(3):
        got = advance_plant(y, t, tau, 0.01, est, flow)
        assert_same_bytes(got[first], advance_plant(
            y[first], float(t[0]), tau[first], 0.01, est, flow))
        assert_same_bytes(got[rest], advance_plant(
            y[rest], t[rest], tau[rest], 0.01, est, flow))
        for start in range(n_v, n_rows, n_v):
            block = slice(start, start + n_v)
            assert_same_bytes(got[block], advance_plant(
                y[block], float(t[start]), tau[block], 0.01, est, flow))
        y = got
