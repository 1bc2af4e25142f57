"""Trajectory generation and leader-follower reference tests."""

import numpy as np
import pytest

from auvform.formation import (
    FollowerOffset,
    FormationSpec,
    TrajectorySpec,
    follower_reference,
    leader_reference,
    tracking_error,
)


def spiral_spec(**kw):
    base = dict(kind="spiral", duration=100.0, center=np.array([40.0, 40.0, -3.0]),
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
    spec = TrajectorySpec(kind="line", duration=10.0,
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
    spec = spiral_spec(duration=10.0)
    with pytest.raises(ValueError):
        leader_reference(-1.0, spec)
    with pytest.raises(ValueError):
        leader_reference(11.0, spec)


def test_reference_smoothness_bounds():
    spec = spiral_spec()
    v_bound = np.hypot(spec.radius * spec.angular_rate, spec.vertical_rate) + 1e-9
    a_bound = spec.radius * spec.angular_rate**2 + 1e-9
    for t in np.linspace(0.0, 100.0, 200):
        _, ed_d, edd_d = leader_reference(t, spec)
        assert np.linalg.norm(ed_d[:3]) <= v_bound
        assert np.linalg.norm(edd_d[:3]) <= a_bound


def test_follower_zero_offset_equals_leader():
    leader_eta = np.array([5.0, 2.0, -4.0, 0.0, 0.0, 0.3])
    leader_rate = np.array([0.5, 0.1, 0.0, 0.0, 0.0, 0.05])
    e_d, ed_d = follower_reference(leader_eta, leader_rate, FollowerOffset(np.zeros(3)))
    np.testing.assert_allclose(e_d[:3], leader_eta[:3])
    assert e_d[5] == pytest.approx(0.3)
    np.testing.assert_allclose(ed_d, leader_rate * [1, 1, 1, 0, 0, 1], atol=1e-12)


def test_follower_identity_rotation():
    leader_eta = np.zeros(6)
    e_d, _ = follower_reference(leader_eta, np.zeros(6), FollowerOffset(np.array([-2.0, 1.0, 0.0])))
    np.testing.assert_allclose(e_d[:3], [-2.0, 1.0, 0.0])


def test_follower_rotated_offset():
    leader_eta = np.array([0.0, 0, 0, 0, 0, np.pi / 2])
    e_d, _ = follower_reference(leader_eta, np.zeros(6), FollowerOffset(np.array([-2.0, 0.0, 0.0])))
    np.testing.assert_allclose(e_d[:3], [0.0, -2.0, 0.0], atol=1e-12)


def test_follower_rate_chain_rule():
    # finite-difference the follower position as the leader turns
    offset = FollowerOffset(np.array([-2.0, 1.5, 0.0]))
    psi, psid = 0.7, 0.2
    vel = np.array([0.5, -0.1, 0.02])
    h = 1e-6

    def pos_at(dt):
        eta = np.array([vel[0] * dt, vel[1] * dt, vel[2] * dt, 0, 0, psi + psid * dt])
        return follower_reference(eta, np.zeros(6), offset)[0][:3]

    eta0 = np.array([0, 0, 0, 0, 0, psi])
    rate = follower_reference(eta0, np.concatenate([vel, [0, 0, psid]]), offset)[1]
    fd = (pos_at(h) - pos_at(-h)) / (2 * h)
    np.testing.assert_allclose(rate[:3], fd, atol=1e-6)


def test_rigid_formation_distances():
    offsets = [FollowerOffset(np.array([-2.0, 1.5, 0.0])),
               FollowerOffset(np.array([-2.0, -1.5, 0.0]))]
    implied = np.linalg.norm(offsets[0].xyz - offsets[1].xyz)
    rng = np.random.default_rng(0)
    for _ in range(100):
        eta = np.array([*rng.uniform(-10, 10, 3), 0, 0, rng.uniform(-np.pi, np.pi)])
        p1 = follower_reference(eta, np.zeros(6), offsets[0])[0][:3]
        p2 = follower_reference(eta, np.zeros(6), offsets[1])[0][:3]
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
    spec = FormationSpec(offsets=[FollowerOffset(np.zeros(3)), FollowerOffset(np.zeros(3))])
    with pytest.raises(ValueError):
        spec.validate()


def test_formation_spec_offsets_need_three_entries():
    spec = FormationSpec(offsets=[FollowerOffset(np.array([1.0, 2.0]))])
    with pytest.raises(ValueError, match="3 entries"):
        spec.validate()


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
        TrajectorySpec(**fields).validate()


def test_trajectory_spec_rejects_repeated_waypoint():
    spec = TrajectorySpec(
        kind="waypoints", waypoints=[[10.0, 40, -5], [12.0, 40, -5], [12.0, 40, -5]]
    )
    with pytest.raises(ValueError, match=r"points_m\[1\] and points_m\[2\]"):
        spec.validate()


def test_waypoint_trajectory():
    spec = TrajectorySpec(
        kind="waypoints", duration=100.0,
        waypoints=np.array([[0.0, 0, -2], [10.0, 0, -2], [10.0, 10, -2]]),
        speed=1.0,
    )
    spec.validate()
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
