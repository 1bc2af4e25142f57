"""Flow model tests: stream function, analytic velocity oracle, layering."""

from types import SimpleNamespace

import numpy as np
import pytest

from auvform.flow import (
    RAW_SPEED_MAX,
    DisturbanceModel,
    FlowParams,
    LayeredField,
    disturbance_force,
    flow_velocity,
    layered_velocity,
    stream_function,
)
from auvform.vehicle import euler_pose

LEVEL = euler_pose(np.zeros(3))[1]  # the rotation of the zero attitude


def test_stream_function_on_centerline():
    p = FlowParams()
    t, x = 0.7, 2.3
    b = p.b0 + p.e_amp * np.cos(p.omega * t + p.theta0)
    y = b * np.cos(p.k * (x - p.c * t))
    assert stream_function(x, y, t, p) == pytest.approx(1.0, abs=1e-12)


def test_stream_function_origin_value():
    # B(0) = 1.2, argument -1.2, C = 1 + tanh(1.2)
    p = FlowParams()
    assert stream_function(0.0, 0.0, 0.0, p) == pytest.approx(1.0 + np.tanh(1.2), abs=1e-12)


def test_stream_function_limits():
    p = FlowParams()
    assert stream_function(3.0, 1e6, 1.0, p) == pytest.approx(0.0, abs=1e-9)
    assert stream_function(3.0, -1e6, 1.0, p) == pytest.approx(2.0, abs=1e-9)


def test_stream_function_range():
    p = FlowParams()
    rng = np.random.default_rng(0)
    # strict interior where tanh is not float-saturated
    x = rng.uniform(-100, 100, 1000)
    y = rng.uniform(-15, 15, 1000)
    t = rng.uniform(0, 1000, 1000)
    c = stream_function(x, y, t, p)
    assert np.all(c > 0.0) and np.all(c < 2.0)
    # far from the jet the float value saturates onto the closed bounds
    y_far = rng.uniform(-1e4, 1e4, 1000)
    c_far = stream_function(x, y_far, t, p)
    assert np.all(c_far >= 0.0) and np.all(c_far <= 2.0)


def test_velocity_at_origin():
    p = FlowParams()
    u, v = flow_velocity(0.0, 0.0, 0.0, p)
    assert u == pytest.approx(1.0 / np.cosh(1.2) ** 2, abs=1e-12)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_velocity_matches_finite_difference():
    p = FlowParams()
    rng = np.random.default_rng(1)
    h = 1e-6
    x = rng.uniform(-10, 90, 1000)
    y = rng.uniform(-10, 90, 1000)
    t = rng.uniform(0, 200, 1000)
    u, v = flow_velocity(x, y, t, p)
    u_fd = -(stream_function(x, y + h, t, p) - stream_function(x, y - h, t, p)) / (2 * h)
    v_fd = (stream_function(x + h, y, t, p) - stream_function(x - h, y, t, p)) / (2 * h)
    assert np.max(np.abs(u - u_fd)) < 1e-6
    assert np.max(np.abs(v - v_fd)) < 1e-6


def test_layer_speed_ratios():
    p = FlowParams()
    field = LayeredField()
    x, y, t = 30.0, 42.0, 3.0
    v1 = layered_velocity(x, y, -2.0, t, field, p)
    v2 = layered_velocity(x, y, -9.0, t, field, p)
    v3 = layered_velocity(x, y, -16.0, t, field, p)
    s1, s2, s3 = (np.linalg.norm(v) for v in (v1, v2, v3))
    assert s1 / s2 == pytest.approx(2.4, rel=1e-9)
    assert s1 / s3 == pytest.approx(4.0, rel=1e-9)


def test_layer_scaling_preserves_direction():
    p = FlowParams()
    field = LayeredField()
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y, t = rng.uniform(1, 79), rng.uniform(1, 79), rng.uniform(0, 50)
        a = layered_velocity(x, y, -1.0, t, field, p)
        b = layered_velocity(x, y, -12.0, t, field, p)
        cross = a[0] * b[1] - a[1] * b[0]
        assert abs(cross) < 1e-12
        assert a[:2] @ b[:2] >= 0.0


def test_layered_velocity_outside_depth_is_zero():
    p = FlowParams()
    field = LayeredField()
    np.testing.assert_allclose(layered_velocity(10.0, 10.0, 1.0, 0.0, field, p), np.zeros(3))
    np.testing.assert_allclose(layered_velocity(10.0, 10.0, -25.0, 0.0, field, p), np.zeros(3))


def test_layered_velocity_outside_workspace_is_zero():
    p = FlowParams()
    field = LayeredField()
    np.testing.assert_allclose(layered_velocity(-5.0, 10.0, -1.0, 0.0, field, p), np.zeros(3))
    np.testing.assert_allclose(layered_velocity(10.0, 90.0, -1.0, 0.0, field, p), np.zeros(3))


@pytest.mark.parametrize(("x_range", "y_range"), [((70.0, 10.0), (0.0, 80.0)),
                                                 ((0.0, 80.0), (40.0, 40.0))])
def test_unordered_workspace_rejected(x_range, y_range):
    with pytest.raises(ValueError, match="workspace bounds must be ordered"):
        LayeredField(x_range=x_range, y_range=y_range)


def test_list_built_field_matches_tuple_built_field():
    p = FlowParams()
    tuple_built = LayeredField(layer_scale=(1.0, 0.5, 0.25), jet_origin=(0.0, 52.0),
                               x_range=(0.0, 80.0), y_range=(0.0, 80.0))
    list_built = LayeredField(layer_scale=[1.0, 0.5, 0.25], jet_origin=[0, 52],
                              x_range=[0, 80], y_range=[0, 80])
    assert list_built == tuple_built
    rng = np.random.default_rng(6)
    x, y = rng.uniform(-5, 85, (2, 50))
    z = rng.uniform(-22, 1, 50)
    got = layered_velocity(x, y, z, 3.0, list_built, p)
    assert got.tobytes() == layered_velocity(x, y, z, 3.0, tuple_built, p).tobytes()


def test_speed_cap_respected():
    p = FlowParams()
    field = LayeredField()
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 80, 2000)
    y = rng.uniform(0, 80, 2000)
    z = rng.uniform(-20, 0, 2000)
    t = rng.uniform(0, 100, 2000)
    vel = layered_velocity(x, y, z, t, field, p)
    speed = np.linalg.norm(vel, axis=-1)
    assert np.all(speed <= field.speed_cap + 1e-12)
    assert np.all(vel[:, 2] == 0.0)


def test_disturbance_zero_relative_velocity():
    model = DisturbanceModel()
    nu = np.array([0.4, 0.0, 0.0, 0.0, 0.0, 0.0])
    # vehicle translating with the flow: no relative motion, no wrench
    w = disturbance_force(np.array([0.4, 0.0, 0.0]), LEVEL @ nu[:3], LEVEL, model)
    np.testing.assert_allclose(w, np.zeros(6), atol=1e-14)


def test_disturbance_quadratic_law():
    model = DisturbanceModel(drag_gain=40.0)
    w = disturbance_force(np.array([0.5, 0.0, 0.0]), np.zeros(3), LEVEL, model)
    assert w[0] == pytest.approx(40.0 * 0.5**2, abs=1e-12)


def test_disturbance_clamped():
    model = DisturbanceModel(drag_gain=40.0, force_clamp=20.0)
    # raw quadratic force 40 * 1.25^2 = 62.5 N, clamped to 20
    w = disturbance_force(np.array([1.25, 0.0, 0.0]), np.zeros(3), LEVEL, model)
    assert w[0] == pytest.approx(20.0)


def test_disturbance_structure_and_bound():
    model = DisturbanceModel()
    rng = np.random.default_rng(4)
    eta, nu, flow = np.zeros((200, 6)), np.zeros((200, 6)), np.zeros((200, 3))
    for k in range(200):
        eta[k, :3] = rng.uniform(-5, 5, 3)
        eta[k, 3:] = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-np.pi, np.pi)
        nu[k] = np.concatenate([rng.uniform(-1.5, 1.5, 3), rng.uniform(-0.5, 0.5, 3)])
        flow[k, :2] = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    # the fleet batch, as the engine and the plant call it
    rot = euler_pose(eta[:, 3:])[1]
    w = disturbance_force(flow, np.einsum("vij,vj->vi", rot, nu[:, :3]), rot, model)
    assert np.max(np.abs(w)) <= model.force_clamp + 1e-12
    np.testing.assert_allclose(w[:, 2:5], np.zeros((200, 3)), atol=1e-14)


def test_normaliser_covers_only_the_default_jet_shape():
    # at b0 = 0.5, k = 2 the raw jet speed peaks near 1.205 (t about 11.76 s),
    # above RAW_SPEED_MAX: the surface layer would be clipped by the cap and
    # the layer ratios would break, so validation rejects the parameters;
    # the oracle takes them as a plain namespace, which nothing validates
    p = SimpleNamespace(b0=0.5, e_amp=0.3, omega=0.4, theta0=np.pi / 2, c=0.12, k=2.0)
    x = np.linspace(0.0, 2 * np.pi / p.k, 400)[:, None]
    y = np.linspace(-1.0, 1.0, 201)[None, :]
    u, v = flow_velocity(x, y, 11.76, p)
    assert np.hypot(u, v).max() > 1.2 > RAW_SPEED_MAX
    with pytest.raises(ValueError, match="RAW_SPEED_MAX"):
        FlowParams(b0=0.5, k=2.0)
    for name in ("b0", "e_amp", "k"):
        with pytest.raises(ValueError, match="RAW_SPEED_MAX"):
            FlowParams(**{name: getattr(FlowParams, name) * 1.01})
    FlowParams(omega=0.2, theta0=0.0, c=0.3)


@pytest.mark.parametrize("batch", [(), (1,), (3,), (384,), (4, 5)],
                         ids=["unbatched", "1", "3", "384", "4x5"])
def test_speed_scale_gather_matches_the_fancy_index(batch):
    # layered_velocity reads speed_scales with take; the index form was its reference
    rng = np.random.default_rng(len(batch) + sum(batch))
    field = LayeredField()
    x, y = rng.uniform(-10.0, 90.0, (2,) + batch)
    z = rng.uniform(-25.0, 3.0, batch)
    for point in [(x, y, z), (float(np.ravel(x)[0]), 40.0, -3.0), (40.0, 40.0, 1.0)]:
        idx = field.layer_index(*point)
        got, want = field.speed_scales.take(idx), field.speed_scales[idx]
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if batch == (384,):
        assert set(np.unique(field.layer_index(x, y, z))) == {-1, 0, 1, 2}
