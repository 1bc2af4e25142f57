"""Vehicle model tests: kinematic transforms, dynamics, model split."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from auvform import vehicle as vm
from auvform.engine import SimulationAbort, Scenario, run
from auvform.vehicle import RigidBodyParams, acceleration_body, inertial_matrices

LEVEL = vm.euler_pose(np.zeros(3))  # the zero attitude, evaluated


def random_state(rng, pitch_range=0.5):
    """(eta, nu) 6-vectors with a pose away from the pitch singularity."""
    eta2 = np.array(
        [
            rng.uniform(-0.6, 0.6),
            rng.uniform(-pitch_range, pitch_range),
            rng.uniform(-np.pi, np.pi),
        ]
    )
    eta = np.concatenate([rng.uniform(-5.0, 5.0, 3), eta2])
    nu = np.concatenate([rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.5, 0.5, 3)])
    return eta, nu


def random_states(rng, n):
    eta, nu = zip(*(random_state(rng) for _ in range(n)))
    return np.array(eta), np.array(nu)


def test_kinematic_transform_identity():
    # J^-1 holds the inertial-to-body rotation and the Euler-rate transform T
    zero = vm.euler_pose(np.zeros(3))
    np.testing.assert_allclose(vm.jacobian_inv(zero), np.eye(6), atol=1e-15)
    np.testing.assert_allclose(vm.euler_rate_to_body(zero[0]), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(vm.jacobian(zero), np.eye(6), atol=1e-15)


def test_kinematic_transform_pure_yaw():
    rot = vm.jacobian_inv(vm.euler_pose(np.array([0.0, 0.0, np.pi / 2])))[:3, :3]
    # hand-composed Rz(pi/2)^T: inertial y maps onto body x
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(rot, expected, atol=1e-12)
    np.testing.assert_allclose(rot @ np.array([0.0, 1.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-12)


def test_kinematic_transform_singularity():
    # the engine refuses a pose at the Euler-rate singularity
    start = np.zeros(12)
    start[:3] = [40.0, 40.0, -8.0]
    start[4] = np.pi / 2
    sc = Scenario(duration=0.02, initial_states=[start] * 3)
    with pytest.raises(SimulationAbort, match="pitch"):
        run(sc)


def test_rotation_orthonormal():
    rng = np.random.default_rng(0)
    eta, _ = random_states(rng, 100)
    rot = vm.rotation_body_to_inertial(vm.euler_trig(eta[:, 3:]))
    eye = np.broadcast_to(np.eye(3), rot.shape)
    np.testing.assert_allclose(rot @ np.swapaxes(rot, -1, -2), eye, atol=1e-10)
    np.testing.assert_allclose(np.linalg.det(rot), 1.0, atol=1e-10)


def test_jacobian_maps_body_rates():
    rng = np.random.default_rng(1)
    eta, nu = random_states(rng, 20)
    pose = vm.euler_pose(eta[:, 3:])
    eta_dot = np.einsum("vij,vj->vi", vm.jacobian(pose), nu)
    # invert through the defining relations of the rotation and T
    back = np.einsum("vij,vj->vi", vm.jacobian_inv(pose), eta_dot)
    np.testing.assert_allclose(back, nu, atol=1e-12)


def test_dynamics_body_equilibrium():
    params = RigidBodyParams(restoring_gain=0.0)
    acc = acceleration_body(np.zeros(6), np.zeros(6), np.zeros(6), params, LEVEL)
    np.testing.assert_allclose(acc, np.zeros(6), atol=1e-15)


def test_dynamics_body_pure_surge():
    m = 30.0
    params = RigidBodyParams(
        inertia=np.diag([m, m, m, 1.0, 5.0, 5.0]),
        d_linear=np.zeros(6),
        d_quad=np.zeros(6),
        restoring_gain=0.0,
    )
    force = 12.0
    tau = np.array([force, 0, 0, 0, 0, 0.0])
    acc = acceleration_body(np.zeros(6), tau, np.zeros(6), params, LEVEL)
    np.testing.assert_allclose(acc, [force / m, 0, 0, 0, 0, 0], atol=1e-14)


def test_dynamics_body_disturbance_cancellation():
    params = RigidBodyParams(restoring_gain=0.0)
    tau = np.array([3.0, -2.0, 1.0, 0.0, 0.5, -0.5])
    acc = acceleration_body(np.zeros(6), tau, tau.copy(), params, LEVEL)
    np.testing.assert_allclose(acc, np.zeros(6), atol=1e-14)


def test_inertial_terms_identity_pose():
    params = RigidBodyParams()
    nu = np.array([0.3, 0.1, -0.2, 0.0, 0.0, 0.0])
    m_e, _, d_e, g_e = inertial_matrices(vm.euler_pose(np.zeros(3)), nu, params)
    np.testing.assert_allclose(m_e, params.inertia, atol=1e-12)
    np.testing.assert_allclose(d_e, params.damping(nu), atol=1e-12)
    np.testing.assert_allclose(g_e, params.restoring(LEVEL), atol=1e-12)


def test_inertial_mass_symmetric_positive_definite():
    rng = np.random.default_rng(2)
    eta, nu = random_states(rng, 100)
    m_e = inertial_matrices(vm.euler_pose(eta[:, 3:]), nu, RigidBodyParams())[0]
    assert np.max(np.abs(m_e - np.swapaxes(m_e, -1, -2))) < 1e-10
    assert np.all(np.linalg.eigvalsh(m_e) > 0)


def test_skew_symmetry_of_inertial_terms():
    # M_e_dot by central finite difference of the pose along its motion
    rng = np.random.default_rng(3)
    params = RigidBodyParams()
    h = 1e-5
    for _ in range(100):
        eta, nu = random_state(rng)
        eta2 = eta[3:]
        m_e, c_e, _, _ = inertial_matrices(vm.euler_pose(eta2), nu, params)
        eta2_dot = vm.body_rate_to_euler(vm.euler_trig(eta2)) @ nu[3:]
        m_plus = inertial_matrices(vm.euler_pose(eta2 + eta2_dot * h), nu, params)[0]
        m_minus = inertial_matrices(vm.euler_pose(eta2 - eta2_dot * h), nu, params)[0]
        m_dot = (m_plus - m_minus) / (2 * h)
        sigma = rng.uniform(-1.0, 1.0, 6)
        assert abs(sigma @ (m_dot - 2 * c_e) @ sigma) < 1e-6


def test_frame_consistency():
    # body-frame dynamics mapped through the transform equals the
    # inertial-frame dynamics solved directly
    rng = np.random.default_rng(4)
    params = RigidBodyParams()
    for _ in range(100):
        eta, nu = random_state(rng)
        pose = vm.euler_pose(eta[3:])
        tau = rng.uniform(-20.0, 20.0, 6)
        tau_c = rng.uniform(-5.0, 5.0, 6)
        qdot = acceleration_body(nu, tau, tau_c, params, pose)
        jac = vm.jacobian(pose)
        jac_dot = vm.jacobian_dot(pose, nu[3:])
        edd_body_route = jac_dot @ nu + jac @ qdot

        m_e, c_e, d_e, g_e = inertial_matrices(pose, nu, params)
        e_dot = jac @ nu
        rhs = vm.jacobian_inv(pose).T @ (tau - tau_c) - c_e @ e_dot - d_e @ e_dot - g_e
        edd_inertial_route = np.linalg.solve(m_e, rhs)
        scale = max(1.0, np.max(np.abs(edd_body_route)))
        assert np.max(np.abs(edd_body_route - edd_inertial_route)) / scale < 1e-6


def f_r(eta, nu, edd_r, ed_r, params, scale):
    """f_r from the inertial terms at `scale`, as the engine forms f_hat_r."""
    pose = vm.euler_pose(eta[..., 3:])
    mats = inertial_matrices(pose, nu, params, scale=scale)
    e_dot = np.einsum("...ij,...j->...i", vm.jacobian(pose), nu)
    return vm.reference_dynamics(mats, edd_r, ed_r, e_dot)


def test_estimated_dynamics_perfect_model():
    rng = np.random.default_rng(5)
    params = RigidBodyParams(mismatch_factor=1.0)
    eta, nu = random_state(rng)
    edd_r = rng.uniform(-1.0, 1.0, 6)
    ed_r = rng.uniform(-1.0, 1.0, 6)
    f_hat = f_r(eta, nu, edd_r, ed_r, params, params.mismatch_factor)
    f_true = f_r(eta, nu, edd_r, ed_r, params, 1.0)
    np.testing.assert_allclose(f_hat, f_true, atol=1e-12)


def test_estimated_dynamics_zero_case():
    params = RigidBodyParams(restoring_gain=0.0, mismatch_factor=0.7)
    zero = np.zeros(6)
    # ed_r = e_dot: zero sliding error at rest
    f_hat = f_r(zero, zero, zero, zero, params, params.mismatch_factor)
    np.testing.assert_allclose(f_hat, np.zeros(6), atol=1e-14)


def test_reference_dynamics_batched_rows():
    # a fleet of poses gives, row by row, the single-vehicle result
    rng = np.random.default_rng(8)
    params = RigidBodyParams()
    eta, nu = random_states(rng, 5)
    edd_r, ed_r = rng.uniform(-1.0, 1.0, (2, 5, 6))
    fleet = f_r(eta, nu, edd_r, ed_r, params, 0.9)
    for v in range(5):
        np.testing.assert_allclose(
            fleet[v], f_r(eta[v], nu[v], edd_r[v], ed_r[v], params, 0.9), rtol=1e-12, atol=1e-12
        )


def test_model_split_is_exact():
    # f_hat + f_tilde = f, with f_tilde = (1 - a) f for the uniform scaling
    rng = np.random.default_rng(6)
    params = RigidBodyParams(mismatch_factor=0.8)
    eta, nu = random_state(rng)
    edd_r = rng.uniform(-1.0, 1.0, 6)
    ed_r = rng.uniform(-1.0, 1.0, 6)
    f_true = f_r(eta, nu, edd_r, ed_r, params, 1.0)
    f_hat = f_r(eta, nu, edd_r, ed_r, params, params.mismatch_factor)
    f_tilde = f_true - f_hat
    np.testing.assert_allclose(f_tilde, 0.2 * f_true, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(f_hat + f_tilde, f_true, atol=1e-12)


def test_estimated_params_scaling():
    params = RigidBodyParams(mismatch_factor=0.8)
    est = params.estimated()
    np.testing.assert_allclose(est.inertia, 0.8 * params.inertia)
    np.testing.assert_allclose(est.d_linear, 0.8 * params.d_linear)
    assert est.mismatch_factor == 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        RigidBodyParams(inertia=np.zeros((6, 6)))
    with pytest.raises(ValueError):
        RigidBodyParams(mismatch_factor=0.0)
    with pytest.raises(ValueError):
        RigidBodyParams(mismatch_factor=1.5)


def test_params_cannot_go_stale_behind_their_cached_inverse():
    params = RigidBodyParams()
    with pytest.raises(FrozenInstanceError):
        params.inertia = 2 * params.inertia
    with pytest.raises(ValueError, match="read-only"):
        params.inertia[0, 0] = 60.0
    rng = np.random.default_rng(12)
    eta, nu = random_states(rng, 3)
    tau = rng.uniform(-20.0, 20.0, (3, 6))
    tau_c = rng.uniform(-5.0, 5.0, (3, 6))
    pose = vm.euler_pose(eta[:, 3:])
    acceleration_body(nu, tau, tau_c, params, pose)  # fills params.inertia_inv
    heavier = replace(params, inertia=2 * params.inertia)
    fresh = RigidBodyParams(inertia=2 * np.diag([30.0, 30.0, 30.0, 1.0, 5.0, 5.0]))
    got = acceleration_body(nu, tau, tau_c, heavier, pose)
    assert got.tobytes() == acceleration_body(nu, tau, tau_c, fresh, pose).tobytes()
    assert not np.allclose(got, acceleration_body(nu, tau, tau_c, params, pose))


def test_acceleration_rows_do_not_depend_on_the_batch_size():
    # with a non-diagonal inertia a lone row must not take a different BLAS
    # kernel (and rounding) from the same row inside a larger call
    params = RigidBodyParams(
        inertia=np.array(
            [
                [30.0, 0.0, 0.0, 0.0, 1.5, 0.0],
                [0.0, 30.0, 0.0, -1.5, 0.0, 0.4],
                [0.0, 0.0, 30.0, 0.0, 0.3, 0.0],
                [0.0, -1.5, 0.0, 1.0, 0.0, 0.0],
                [1.5, 0.0, 0.3, 0.0, 5.0, 0.0],
                [0.0, 0.4, 0.0, 0.0, 0.0, 5.0],
            ]
        )
    )
    rng = np.random.default_rng(3)
    eta, nu = random_states(rng, 200)
    tau = rng.uniform(-20.0, 20.0, (200, 6))
    tau_c = rng.uniform(-5.0, 5.0, (200, 6))
    full = acceleration_body(nu, tau, tau_c, params, vm.euler_pose(eta[:, 3:]))
    for i in range(200):
        one = acceleration_body(nu[i], tau[i], tau_c[i], params, vm.euler_pose(eta[i, 3:]))
        assert one.shape == (6,) and one.tobytes() == full[i].tobytes()
        row = slice(i, i + 1)
        one = acceleration_body(nu[row], tau[row], tau_c[row], params, vm.euler_pose(eta[row, 3:]))
        assert one.shape == (1, 6) and one.tobytes() == full[row].tobytes()
    for n in (2, 7, 128):
        part = acceleration_body(nu[:n], tau[:n], tau_c[:n], params, vm.euler_pose(eta[:n, 3:]))
        assert part.tobytes() == full[:n].tobytes()


def test_held_wrench_broadcasts_over_the_rows():
    # a (6,) wrench held over (B, 6) rows, as a caller with one command for
    # every row passes it: the right-hand side takes the rows' shape
    rng = np.random.default_rng(5)
    eta, nu = random_states(rng, 9)
    tau = rng.uniform(-20.0, 20.0, 6)
    tau_c = rng.uniform(-5.0, 5.0, 6)
    tau_rows, tau_c_rows = np.tile(tau, (9, 1)), np.tile(tau_c, (9, 1))
    params = RigidBodyParams()
    pose = vm.euler_pose(eta[:, 3:])
    tiled = acceleration_body(nu, tau_rows, tau_c_rows, params, pose)
    for held in ((tau, tau_c), (tau, tau_c_rows), (tau_rows, tau_c)):
        got = acceleration_body(nu, *held, params, pose)
        assert got.shape == (9, 6) and got.tobytes() == tiled.tobytes()


def test_coriolis_skew():
    rng = np.random.default_rng(7)
    params = RigidBodyParams()
    for _ in range(20):
        nu = rng.uniform(-1.0, 1.0, 6)
        c = params.coriolis(nu)
        np.testing.assert_allclose(c, -c.T, atol=1e-12)


def test_wrap_angle_range():
    angles = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi, 1.0])
    wrapped = vm.wrap_angle(angles)
    assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
    np.testing.assert_allclose(np.sin(wrapped), np.sin(angles), atol=1e-12)
    np.testing.assert_allclose(np.cos(wrapped), np.cos(angles), atol=1e-12)


# --- shared pose evaluation: the J-family against an unfused reference ----
# Each reference transform evaluates its own cos/sin from the angles; the
# library, built from one shared euler_pose, must give the same bytes.

POLE = np.pi / 2 - vm.PITCH_SINGULARITY_TOL


def ref_trig(eta2):
    return (np.cos(eta2[..., 0]), np.sin(eta2[..., 0]),
            np.cos(eta2[..., 1]), np.sin(eta2[..., 1]),
            np.cos(eta2[..., 2]), np.sin(eta2[..., 2]))


def ref_rotation(eta2):
    cphi, sphi, cth, sth, cpsi, spsi = ref_trig(eta2)
    m = np.empty(eta2.shape[:-1] + (3, 3))
    m[..., 0, 0] = cpsi * cth
    m[..., 0, 1] = cpsi * sth * sphi - spsi * cphi
    m[..., 0, 2] = cpsi * sth * cphi + spsi * sphi
    m[..., 1, 0] = spsi * cth
    m[..., 1, 1] = spsi * sth * sphi + cpsi * cphi
    m[..., 1, 2] = spsi * sth * cphi - cpsi * sphi
    m[..., 2, 0] = -sth
    m[..., 2, 1] = cth * sphi
    m[..., 2, 2] = cth * cphi
    return m


def ref_body_rate_to_euler(eta2):
    cphi, sphi, cth, sth = ref_trig(eta2)[:4]
    m = np.zeros(eta2.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1.0
    m[..., 0, 1] = sphi * (sth / cth)
    m[..., 0, 2] = cphi * (sth / cth)
    m[..., 1, 1] = cphi
    m[..., 1, 2] = -sphi
    m[..., 2, 1] = sphi / cth
    m[..., 2, 2] = cphi / cth
    return m


def ref_euler_rate_to_body(eta2):
    cphi, sphi, cth, sth = ref_trig(eta2)[:4]
    m = np.zeros(eta2.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1.0
    m[..., 0, 2] = -sth
    m[..., 1, 1] = cphi
    m[..., 1, 2] = cth * sphi
    m[..., 2, 1] = -sphi
    m[..., 2, 2] = cth * cphi
    return m


def ref_block(a, b):
    out = np.zeros(a.shape[:-2] + (6, 6))
    out[..., :3, :3] = a
    out[..., 3:, 3:] = b
    return out


def ref_jacobian(eta2):
    return ref_block(ref_rotation(eta2), ref_body_rate_to_euler(eta2))


def ref_jacobian_inv(eta2):
    return ref_block(np.swapaxes(ref_rotation(eta2), -1, -2), ref_euler_rate_to_body(eta2))


def ref_jacobian_dot(eta2, nu2):
    cphi, sphi, cth, sth = ref_trig(eta2)[:4]
    tth, sec2 = sth / cth, 1.0 / cth**2
    eta2_dot = np.einsum("...ij,...j->...i", ref_body_rate_to_euler(eta2), nu2)
    phid, thd = eta2_dot[..., 0], eta2_dot[..., 1]
    ang = np.zeros(eta2.shape[:-1] + (3, 3))
    ang[..., 0, 1] = cphi * tth * phid + sphi * sec2 * thd
    ang[..., 0, 2] = -sphi * tth * phid + cphi * sec2 * thd
    ang[..., 1, 1] = -sphi * phid
    ang[..., 1, 2] = -cphi * phid
    ang[..., 2, 1] = (cphi * phid + sphi * sth * thd / cth) / cth
    ang[..., 2, 2] = (-sphi * phid + cphi * sth * thd / cth) / cth
    return ref_block(ref_rotation(eta2) @ vm.skew(nu2), ang)


def ref_inertial_matrices(eta2, nu, p: RigidBodyParams, scale):
    cphi, sphi, cth, sth = ref_trig(eta2)[:4]
    g = np.zeros(eta2.shape[:-1] + (6,))
    g[..., 0] = -p.buoyancy_net * -sth
    g[..., 1] = -p.buoyancy_net * (cth * sphi)
    g[..., 2] = -p.buoyancy_net * (cth * cphi)
    g[..., 3] = p.restoring_gain * cth * sphi
    g[..., 4] = p.restoring_gain * sth
    jinv = ref_jacobian_inv(eta2)
    jinv_t = np.swapaxes(jinv, -1, -2)
    m = scale * p.inertia
    c_term = scale * p.coriolis(nu) - m @ jinv @ ref_jacobian_dot(eta2, nu[..., 3:])
    return (
        jinv_t @ m @ jinv,
        jinv_t @ c_term @ jinv,
        jinv_t @ (scale * p.damping(nu)) @ jinv,
        np.einsum("...ij,...j->...i", jinv_t, scale * g),
    )


def pose_rows(shape, seed):
    """Pose angles as column slices of [eta, nu] rows; every third pitch is at the pole."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape[:-1]))
    y = rng.normal(0.0, 0.8, (n, 12))
    y[:, 3] = rng.uniform(-0.6, 0.6, n)
    y[:, 4] = rng.uniform(-1.2, 1.2, n)
    y[:, 5] = rng.uniform(-np.pi, np.pi, n)
    y[::3, 4] = (POLE - rng.uniform(0.0, 1e-3, len(y[::3]))) * rng.choice([-1.0, 1.0])
    y = y.reshape(shape[:-1] + (12,))
    return y[..., 3:6], y[..., 6:]


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))


@pytest.mark.parametrize(
    "shape", [(3,), (3, 3), (36, 3), (1, 3), (384, 3), (4, 5, 3)],
    ids=["1", "3", "36", "1-row", "384", "4x5"],  # "1" is one unbatched pose
)
def test_shared_pose_transforms_match_unfused_reference_bytes(shape):
    params = RigidBodyParams(buoyancy_net=0.7)
    for seed in range(4):
        eta2, nu = pose_rows(shape, seed)
        assert np.max(np.abs(eta2[..., 1])) > POLE - 1e-3
        pose = vm.euler_pose(eta2)
        assert_same_bytes(vm.jacobian(pose), ref_jacobian(eta2))
        # J q against the 6x6 contraction the engine formed eta_dot with,
        # alone and written into a column view of a wider array
        rates = np.einsum("...ij,...j->...i", ref_jacobian(eta2), nu)
        assert_same_bytes(vm.inertial_rates(pose, nu), rates)
        wide = np.full(shape[:-1] + (9,), np.nan)
        vm.inertial_rates(pose, nu, out=wide[..., 2:8])
        assert_same_bytes(wide[..., 2:8], rates)
        assert np.isnan(wide[..., [0, 1, 8]]).all()
        assert_same_bytes(vm.jacobian_inv(pose), ref_jacobian_inv(eta2))
        assert_same_bytes(vm.jacobian_dot(pose, nu[..., 3:]), ref_jacobian_dot(eta2, nu[..., 3:]))
        got = vm.inertial_matrices(pose, nu, params, scale=0.9)
        for g, w in zip(got, ref_inertial_matrices(eta2, nu, params, 0.9), strict=True):
            assert_same_bytes(g, w)
        assert_same_bytes(vm.euler_rate_to_body(pose[0]), ref_euler_rate_to_body(eta2))


# --- stacked inertia products against the four blockwise matmuls ----------


def random_spd_inertia(rng):
    a = rng.normal(0.0, 1.0, (6, 6))
    m = a @ a.T + 6.0 * np.eye(6)
    return (m + m.T) / 2.0


def ref_momenta(nu, m):
    """[a1, a2] from the four 3x3 blocks, each a view of the transposed block."""
    nu1, nu2 = nu[..., :3], nu[..., 3:]
    a1 = nu1 @ m[:3, :3].T + nu2 @ m[:3, 3:].T
    a2 = nu1 @ m[3:, :3].T + nu2 @ m[3:, 3:].T
    return a1, a2


def ref_coriolis(nu, m):
    a1, a2 = ref_momenta(nu, m)
    out = np.zeros(nu.shape[:-1] + (6, 6))
    out[..., :3, 3:] = -vm.skew(a1)
    out[..., 3:, :3] = -vm.skew(a1)
    out[..., 3:, 3:] = -vm.skew(a2)
    return out


def ref_coriolis_force(nu, m):
    a1, a2 = ref_momenta(nu, m)
    nu1, nu2 = nu[..., :3], nu[..., 3:]
    out = np.empty_like(nu)
    out[..., :3] = -np.cross(a1, nu2)
    out[..., 3:] = -np.cross(a1, nu1) - np.cross(a2, nu2)
    return out


@pytest.mark.parametrize("rows", [None, 1, 2, 3, 384])
def test_stacked_inertia_products_match_the_blockwise_matmuls(rows):
    # nu1 @ [M11^T | M21^T] + nu2 @ [M12^T | M22^T] must give the bytes of the
    # four 3x3 products, one-row (vector-kernel) products included
    rng = np.random.default_rng(21 if rows is None else rows)
    inertias = [RigidBodyParams().inertia] + [random_spd_inertia(rng) for _ in range(6)]
    for inertia in inertias:
        params = RigidBodyParams(inertia=inertia)
        nu = rng.normal(0.0, 1.0, (6,) if rows is None else (rows, 6))
        a1, a2 = ref_momenta(nu, inertia)
        assert_same_bytes(params._momenta(nu), np.concatenate([a1, a2], axis=-1))
        assert_same_bytes(params.coriolis(nu), ref_coriolis(nu, inertia))
        assert_same_bytes(params.coriolis_force(nu), ref_coriolis_force(nu, inertia))


# --- the structured builders against the forms they replaced --------------


def former_damping(params, nu):
    out = np.zeros(nu.shape[:-1] + (6, 6))
    idx = np.arange(6)
    out[..., idx, idx] = params.d_linear + params.d_quad * np.abs(nu)
    return out


def former_coriolis(params, nu):
    a = params._momenta(nu)
    neg_s = -vm.skew(a.reshape(a.shape[:-1] + (2, 3)))  # -S(a1), -S(a2)
    out = np.zeros(nu.shape[:-1] + (6, 6))
    out[..., :3, 3:] = neg_s[..., 0, :, :]
    out[..., 3:, :3] = neg_s[..., 0, :, :]
    out[..., 3:, 3:] = neg_s[..., 1, :, :]
    return out


def former_coriolis_force(params, nu):
    w = np.empty(nu.shape[:-1] + (12,))
    params._momenta(nu, out=w[..., 0:6])
    w[..., 6:] = nu
    g = w[..., vm._CROSS_OPERANDS]  # the fancy-index gather
    cross = g[..., 0:9] * g[..., 9:18] - g[..., 18:27] * g[..., 27:36]
    out = -cross[..., :6]
    out[..., 3:] -= cross[..., 6:]
    return out


@pytest.mark.parametrize("batch", [(), (1,), (3,), (384,), (4, 5)],
                         ids=["unbatched", "1", "3", "384", "4x5"])
def test_structured_builders_match_their_former_forms(batch):
    rng = np.random.default_rng(sum(batch) + 40)
    inertias = [RigidBodyParams().inertia] + [random_spd_inertia(rng) for _ in range(4)]
    for inertia in inertias:
        params = RigidBodyParams(inertia=inertia, d_linear=rng.uniform(0.0, 30.0, 6),
                                 d_quad=rng.uniform(0.0, 200.0, 6))
        nu = rng.normal(0.0, 1.0, batch + (6,))
        nu.flat[::5] = 0.0  # zero momenta components too
        assert_same_bytes(params.damping(nu), former_damping(params, nu))
        assert_same_bytes(params.coriolis_force(nu), former_coriolis_force(params, nu))
        c = params.coriolis(nu)
        assert_same_bytes(c, former_coriolis(params, nu))
        # the diagonals of the three -S(a) blocks hold -0.0, the top-left block +0.0
        diag = c.reshape(batch + (36,))[..., [3, 10, 17, 18, 25, 32, 21, 28, 35]]
        assert np.all(diag == 0.0) and np.all(np.signbit(diag))
        assert not np.signbit(c[..., :3, :3]).any()

        eta2 = rng.uniform(-1.4, 1.4, batch + (3,))
        pose = vm.euler_pose(eta2)
        assert_same_bytes(vm.jacobian_inv(pose), ref_jacobian_inv(eta2))
        assert_same_bytes(vm.euler_rate_to_body(pose[0]), ref_euler_rate_to_body(eta2))
