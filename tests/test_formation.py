"""Trajectory generation and leader-follower reference tests."""

import numpy as np
import pytest

from auvform.formation import (
    FollowerOffset,
    FormationSpec,
    TrajectorySpec,
    follower_references,
    leader_reference,
    tracking_error,
)
from auvform.vehicle import wrap_angle


def spiral_spec(**kw):
    base = dict(kind="spiral", center=np.array([40.0, 40.0, -3.0]),
                radius=8.0, angular_rate=0.1, vertical_rate=-0.04, phase=0.0)
    base.update(kw)
    return TrajectorySpec(**base)


def test_spiral_start_point():
    spec = spiral_spec()
    e_d, ed_d, edd_d = leader_reference(0.0, spec)
    np.testing.assert_allclose(e_d[:3], [48.0, 40.0, -3.0])
    # speed: radius * angular_rate horizontally plus the vertical rate
    np.testing.assert_allclose(ed_d[:3], [0.0, 0.8, -0.04], atol=1e-12)
    assert np.hypot(ed_d[0], ed_d[1]) == pytest.approx(8.0 * 0.1)
    assert e_d[5] == pytest.approx(np.pi / 2)  # tangent yaw
    np.testing.assert_allclose(edd_d[:2], [-8.0 * 0.01, 0.0], atol=1e-12)


def test_line_zero_speed_is_stationary():
    spec = TrajectorySpec(kind="line",
                          start=np.array([1.0, 2.0, -3.0]),
                          velocity=np.zeros(3))
    for t in (0.0, 5.0, 10.0):
        e_d, ed_d, edd_d = leader_reference(t, spec)
        np.testing.assert_allclose(e_d[:3], [1.0, 2.0, -3.0])
        np.testing.assert_allclose(ed_d, np.zeros(6))
        np.testing.assert_allclose(edd_d, np.zeros(6))


def test_reference_rate_matches_finite_difference():
    spec = spiral_spec()
    h = 1e-6
    for t in np.linspace(0.5, 60.0, 25):
        e_d, ed_d, _ = leader_reference(t, spec)
        e_p = leader_reference(t + h, spec)[0]
        e_m = leader_reference(t - h, spec)[0]
        fd = (e_p[:3] - e_m[:3]) / (2 * h)
        np.testing.assert_allclose(ed_d[:3], fd, atol=1e-6)


def test_reference_accel_matches_finite_difference():
    spec = spiral_spec()
    h = 1e-5
    for t in np.linspace(0.5, 60.0, 10):
        _, _, edd_d = leader_reference(t, spec)
        ed_p = leader_reference(t + h, spec)[1]
        ed_m = leader_reference(t - h, spec)[1]
        fd = (ed_p[:3] - ed_m[:3]) / (2 * h)
        np.testing.assert_allclose(edd_d[:3], fd, atol=1e-5)


def test_reference_out_of_range():
    # the path has no end: any time >= 0 is on it
    spec = spiral_spec()
    for bad in (-1.0, -1e-300, np.nan):
        with pytest.raises(ValueError, match="is not a time >= 0"):
            leader_reference(bad, spec)
    assert np.isfinite(leader_reference(1e6, spec)).all()


def test_reference_smoothness_bounds():
    spec = spiral_spec()
    v_bound = np.hypot(spec.radius * spec.angular_rate, spec.vertical_rate) + 1e-9
    a_bound = spec.radius * spec.angular_rate**2 + 1e-9
    for t in np.linspace(0.0, 100.0, 200):
        _, ed_d, edd_d = leader_reference(t, spec)
        assert np.linalg.norm(ed_d[:3]) <= v_bound
        assert np.linalg.norm(edd_d[:3]) <= a_bound


def one_slot(leader_eta, leader_rate, offset):
    """follower_references of a one-slot formation, as a single (pose, rate) row."""
    e_d, ed_d = follower_references(leader_eta, leader_rate, FormationSpec((offset,)))
    return e_d[0], ed_d[0]


def single_row_reference(leader_eta, leader_etadot, offset):
    """One follower's reference, row by row, as the engine built it before batching."""
    leader_eta = np.asarray(leader_eta, dtype=float)
    leader_etadot = np.asarray(leader_etadot, dtype=float)
    psi = leader_eta[5]
    psid = leader_etadot[5]
    c, s = np.cos(psi), np.sin(psi)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    drz = np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])
    pos = leader_eta[:3] + rz @ offset.xyz
    vel = leader_etadot[:3] + psid * (drz @ offset.xyz)
    e_d = np.concatenate([pos, [0.0, 0.0, wrap_angle(psi + offset.yaw)]])
    ed_d = np.concatenate([vel, [0.0, 0.0, psid]])
    return e_d, ed_d


def leader_cases(rng):
    """Leader poses/rates: random, yaw at and near +-pi (so the slot yaw wraps), and -0.0."""
    cases = [(np.full(6, -0.0), np.full(6, -0.0)), (np.zeros(6), np.full(6, -0.0))]
    for psi in (np.pi, -np.pi, np.pi - 1e-12, -np.pi + 1e-12, np.nextafter(np.pi, 0.0)):
        cases.append((np.array([*rng.uniform(-50, 50, 3), 0.0, 0.0, psi]),
                      np.array([*rng.uniform(-1, 1, 3), -0.0, 0.0, rng.uniform(-0.3, 0.3)])))
    for _ in range(40):
        cases.append((np.array([*rng.uniform(-50, 50, 3), *rng.uniform(-0.2, 0.2, 2),
                                rng.uniform(-np.pi, np.pi)]),
                      rng.uniform(-1, 1, 6)))
    return cases


@pytest.mark.parametrize("n_followers", [0, 1, 2, 7])
def test_follower_references_match_single_rows_bitwise(n_followers):
    rng = np.random.default_rng(n_followers)
    offsets = [FollowerOffset(rng.uniform(-4, 4, 3), float(rng.uniform(-np.pi, np.pi)))
               for _ in range(n_followers)]
    if n_followers:
        offsets[0] = FollowerOffset(np.array([-0.0, 1.5, -0.0]), -0.0)
    if n_followers > 1:
        offsets[1] = FollowerOffset(np.array([-2.0, -1.5, 0.0]), np.pi / 2)
    formation = FormationSpec(tuple(offsets))
    for leader_eta, leader_rate in leader_cases(rng):
        e_d, ed_d = follower_references(leader_eta, leader_rate, formation)
        assert e_d.shape == ed_d.shape == (n_followers, 6)
        for i, off in enumerate(offsets):
            e_row, ed_row = single_row_reference(leader_eta, leader_rate, off)
            assert e_d[i].tobytes() == e_row.tobytes()
            assert ed_d[i].tobytes() == ed_row.tobytes()


def test_follower_zero_offset_equals_leader():
    leader_eta = np.array([5.0, 2.0, -4.0, 0.0, 0.0, 0.3])
    leader_rate = np.array([0.5, 0.1, 0.0, 0.0, 0.0, 0.05])
    e_d, ed_d = one_slot(leader_eta, leader_rate, FollowerOffset(np.zeros(3)))
    np.testing.assert_allclose(e_d[:3], leader_eta[:3])
    assert e_d[5] == pytest.approx(0.3)
    np.testing.assert_allclose(ed_d, leader_rate * [1, 1, 1, 0, 0, 1], atol=1e-12)


def test_follower_identity_rotation():
    leader_eta = np.zeros(6)
    e_d, _ = one_slot(leader_eta, np.zeros(6), FollowerOffset(np.array([-2.0, 1.0, 0.0])))
    np.testing.assert_allclose(e_d[:3], [-2.0, 1.0, 0.0])


def test_follower_rotated_offset():
    leader_eta = np.array([0.0, 0, 0, 0, 0, np.pi / 2])
    e_d, _ = one_slot(leader_eta, np.zeros(6), FollowerOffset(np.array([-2.0, 0.0, 0.0])))
    np.testing.assert_allclose(e_d[:3], [0.0, -2.0, 0.0], atol=1e-12)


def test_follower_rate_chain_rule():
    # finite-difference the follower position as the leader turns
    offset = FollowerOffset(np.array([-2.0, 1.5, 0.0]))
    psi, psid = 0.7, 0.2
    vel = np.array([0.5, -0.1, 0.02])
    h = 1e-6

    def pos_at(dt):
        eta = np.array([vel[0] * dt, vel[1] * dt, vel[2] * dt, 0, 0, psi + psid * dt])
        return one_slot(eta, np.zeros(6), offset)[0][:3]

    eta0 = np.array([0, 0, 0, 0, 0, psi])
    rate = one_slot(eta0, np.concatenate([vel, [0, 0, psid]]), offset)[1]
    fd = (pos_at(h) - pos_at(-h)) / (2 * h)
    np.testing.assert_allclose(rate[:3], fd, atol=1e-6)


def test_rigid_formation_distances():
    offsets = (FollowerOffset(np.array([-2.0, 1.5, 0.0])),
               FollowerOffset(np.array([-2.0, -1.5, 0.0])))
    formation = FormationSpec(offsets)
    implied = np.linalg.norm(offsets[0].xyz - offsets[1].xyz)
    rng = np.random.default_rng(0)
    for _ in range(100):
        eta = np.array([*rng.uniform(-10, 10, 3), 0, 0, rng.uniform(-np.pi, np.pi)])
        p1, p2 = follower_references(eta, np.zeros(6), formation)[0][:, :3]
        assert np.linalg.norm(p1 - p2) == pytest.approx(implied, abs=1e-9)
        assert np.linalg.norm(p1 - eta[:3]) == pytest.approx(
            np.linalg.norm(offsets[0].xyz), abs=1e-9
        )


def test_tracking_error_definition():
    eta = np.array([1.5, 2.0, -3.0, 0.0, 0.0, 0.2])
    e_d = np.array([1.0, 2.0, -3.0, 0.0, 0.0, 0.2])
    eps, deps = tracking_error(eta, np.zeros(6), e_d, np.zeros(6))
    np.testing.assert_allclose(eps, [0.5, 0, 0, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(deps, np.zeros(6))


def test_tracking_error_wraps_angles():
    eta = np.array([0.0, 0, 0, 0, 0, np.pi - 0.05])
    e_d = np.array([0.0, 0, 0, 0, 0, -np.pi + 0.05])
    eps, _ = tracking_error(eta, np.zeros(6), e_d, np.zeros(6))
    assert eps[5] == pytest.approx(-0.1, abs=1e-12)


def test_formation_error_list_api():
    # one row per vehicle, as the engine calls tracking_error
    eta = np.array([np.zeros(6), np.ones(6)])
    e_d = np.array([np.zeros(6), np.ones(6)])
    eps, deps = tracking_error(eta, np.zeros((2, 6)), e_d, np.zeros((2, 6)))
    assert eps.shape == deps.shape == (2, 6)
    np.testing.assert_allclose(eps, np.zeros((2, 6)))
    np.testing.assert_allclose(deps, np.zeros((2, 6)))
    with pytest.raises(ValueError):
        tracking_error(eta, np.zeros((2, 6)), np.zeros((3, 6)), np.zeros((3, 6)))


def test_formation_spec_distinct_offsets():
    with pytest.raises(ValueError):
        FormationSpec(offsets=[FollowerOffset(np.zeros(3)), FollowerOffset(np.zeros(3))])


def test_formation_spec_offsets_need_three_entries():
    with pytest.raises(ValueError, match="3 entries"):
        FormationSpec(offsets=[FollowerOffset(np.array([1.0, 2.0]))])


@pytest.mark.parametrize(
    "fields",
    [
        {"center": [1.0, 2.0]},
        {"start": [1.0, 2.0, 3.0, 4.0]},
        {"velocity": [0.5]},
        {"kind": "waypoints", "waypoints": [[0.0, 0.0], [1.0, 1.0]]},
    ],
    ids=["center", "start", "velocity", "waypoints"],
)
def test_trajectory_spec_points_need_three_entries(fields):
    with pytest.raises(ValueError, match="3 entries"):
        TrajectorySpec(**fields)


def test_trajectory_spec_rejects_repeated_waypoint():
    with pytest.raises(ValueError, match=r"points_m\[1\] and points_m\[2\]"):
        TrajectorySpec(
            kind="waypoints", waypoints=[[10.0, 40, -5], [12.0, 40, -5], [12.0, 40, -5]]
        )


def test_waypoint_trajectory():
    spec = TrajectorySpec(
        kind="waypoints",
        waypoints=np.array([[0.0, 0, -2], [10.0, 0, -2], [10.0, 10, -2]]),
        speed=1.0,
    )
    e_d, ed_d, _ = leader_reference(5.0, spec)
    np.testing.assert_allclose(e_d[:3], [5.0, 0, -2], atol=1e-12)
    np.testing.assert_allclose(ed_d[:3], [1.0, 0, 0], atol=1e-12)
    e_d2, ed_d2, _ = leader_reference(15.0, spec)
    np.testing.assert_allclose(e_d2[:3], [10.0, 5.0, -2], atol=1e-12)
    assert e_d2[5] == pytest.approx(np.pi / 2)
    # after the last waypoint the reference parks
    e_d3, ed_d3, _ = leader_reference(50.0, spec)
    np.testing.assert_allclose(e_d3[:3], [10.0, 10.0, -2], atol=1e-12)
    np.testing.assert_allclose(ed_d3[:3], np.zeros(3), atol=1e-12)


# --- the leader table: one batched call against the per-time scalar form ----


def scalar_leader_reference(t: float, spec: TrajectorySpec) -> np.ndarray:
    """[e_d, ed_d, edd_d] at one time, in the scalar arithmetic the engine used per step."""
    if spec.kind == "spiral":
        w, r = spec.angular_rate, spec.radius
        a = w * t + spec.phase
        pos = spec.center + np.array([r * np.cos(a), r * np.sin(a), spec.vertical_rate * t])
        vel = np.array([-r * w * np.sin(a), r * w * np.cos(a), spec.vertical_rate])
        acc = np.array([-r * w * w * np.cos(a), -r * w * w * np.sin(a), 0.0])
        psi, psid = a + (np.pi / 2 if w >= 0 else -np.pi / 2), w
    elif spec.kind == "line":
        pos, vel, acc, psid = spec.start + spec.velocity * t, spec.velocity, np.zeros(3), 0.0
        vx, vy = vel[0], vel[1]
        psi = np.arctan2(vy, vx) if np.hypot(vx, vy) > 1e-12 else 0.0
    else:
        seg, times = spec.segments
        tt = min(t, times[-1])
        i = min(int(np.searchsorted(times, tt, side="right") - 1), len(seg) - 1)
        frac = (tt - times[i]) / (times[i + 1] - times[i])
        pos = spec.waypoints[i] + frac * seg[i]
        vel = seg[i] / (times[i + 1] - times[i]) if t < times[-1] else np.zeros(3)
        acc, psid = np.zeros(3), 0.0
        psi = np.arctan2(seg[i][1], seg[i][0]) if np.hypot(seg[i][0], seg[i][1]) > 1e-12 else 0.0
    refs = np.zeros((3, 6))
    refs[:, :3] = pos, vel, acc
    refs[:, 5] = wrap_angle(psi), psid, 0.0
    return refs


TABLE_SPECS = {
    "spiral": spiral_spec(phase=2.9, angular_rate=0.17, radius=7.3),
    "spiral-clockwise": spiral_spec(angular_rate=-0.1),
    "line": TrajectorySpec(kind="line", start=np.array([10.0, 40.0, -5.0]),
                           velocity=np.array([-0.4, 0.3, -0.05])),
    "line-vertical": TrajectorySpec(kind="line", velocity=np.array([0.0, 0.0, -0.2])),
    # reaches its last waypoint at about 15.9 s; a vertical leg has no heading
    "waypoints": TrajectorySpec(
        kind="waypoints", speed=0.8,
        waypoints=[[10.0, 40, -5], [14, 43, -5], [14, 43, -7], [10, 47, -6]],
    ),
}


@pytest.mark.parametrize("name", list(TABLE_SPECS))
def test_leader_table_matches_per_time_scalar_reference_bytes(name):
    # the engine's table: every step's time, past the last waypoint by more than 9 s
    spec = TABLE_SPECS[name]
    dt = 0.01
    times = np.arange(2501) * dt
    table = leader_reference(times, spec)
    assert table.shape == (2501, 3, 6)
    if spec.kind == "waypoints":
        assert times[-1] > spec.segments[1][-1] + 9.0
    for k in range(len(times)):
        want = scalar_leader_reference(k * dt, spec)
        assert table[k].tobytes() == want.tobytes(), k
        assert leader_reference(times[k], spec).tobytes() == want.tobytes(), k


def test_leader_reference_keeps_the_shape_of_its_times():
    spec = TABLE_SPECS["waypoints"]
    times = np.linspace(0.0, 20.0, 12).reshape(3, 4)
    table = leader_reference(times, spec)
    assert table.shape == (3, 4, 3, 6)
    assert table[1, 2].tobytes() == leader_reference(times[1, 2], spec).tobytes()
    assert leader_reference(0.0, spec).shape == (3, 6)
    with pytest.raises(ValueError, match=r"t=-0.5 is not a time >= 0"):
        leader_reference(np.array([0.0, -0.5, 3.0]), spec)
