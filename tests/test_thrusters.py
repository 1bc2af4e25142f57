"""Thruster control matrix and allocation tests."""

from dataclasses import replace

import numpy as np
import pytest

from auvform.thrusters import (
    ThrusterConfig,
    allocate,
    body_to_wrench5,
    build_tcm,
    wrench5_to_body,
)


def naive_matmul(b, u):
    out = np.zeros(b.shape[0])
    for i in range(b.shape[0]):
        for j in range(b.shape[1]):
            out[i] += b[i][j] * u[j]
    return out


def test_tcm_layout():
    cfg = ThrusterConfig(k1=0.7, k2=0.5, k3=0.8, l1=0.9, l2=0.4, t1=0.3, t2=0.6,
                         t3=0.2, t4=-0.1, r1=0.2, r2=0.25, r3=0.5)
    b = build_tcm(cfg)
    np.testing.assert_allclose(b[0], [0.7 * 0.9, 0.5 * 0.4, 0.0])
    np.testing.assert_allclose(b[1], [-0.3 * 0.3 * 0.9, 0.6 * 0.5 * 0.4, 0.0])
    np.testing.assert_allclose(b[2], [0.7 * 0.9 * 0.2, -0.5 * 0.4 * 0.25, 0.0])
    np.testing.assert_allclose(b[3], [0.0, 0.0, 0.8])
    np.testing.assert_allclose(b[4], [0.2 * 0.7 * 0.1 * 0.5, -0.1 * 0.5 * 0.6 * 0.5, 0.0])


def test_tcm_boundary_coefficients_zero_rows():
    cfg = ThrusterConfig(k1=1.0, k2=1.0, l1=1.0, l2=1.0)
    b = build_tcm(cfg)
    np.testing.assert_allclose(b[1], np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(b[4], np.zeros(3), atol=1e-15)


def test_tcm_surge_from_symmetric_thrusters():
    cfg = ThrusterConfig(k1=1.0, k2=1.0, l1=1.0, l2=1.0, r1=0.2, r2=0.2)
    tau = build_tcm(cfg) @ np.array([1.0, 1.0, 0.0])
    np.testing.assert_allclose(tau, [2.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_tcm_pure_heave():
    cfg = ThrusterConfig(k3=1.0)
    tau = build_tcm(cfg) @ np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(tau, [0.0, 0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_tcm_coefficient_range_error():
    with pytest.raises(ValueError):
        build_tcm(ThrusterConfig(k1=0.1))
    with pytest.raises(ValueError):
        build_tcm(ThrusterConfig(t3=0.7))


def test_wrench_from_thrust_zero():
    tau = build_tcm(ThrusterConfig()) @ np.zeros(3)
    np.testing.assert_allclose(tau, np.zeros(5))


def test_wrench_from_thrust_basis_columns():
    cfg = ThrusterConfig()
    b = build_tcm(cfg)
    for j in range(3):
        u = np.zeros(3)
        u[j] = 1.0
        np.testing.assert_allclose(b @ u, b[:, j])


def test_wrench_from_thrust_matches_naive_oracle():
    # the engine maps the fleet's thrusts as (B @ u_t.T).T
    b = build_tcm(ThrusterConfig())
    rng = np.random.default_rng(0)
    u_t = rng.uniform(-60, 60, (50, 3))
    tau = (b @ u_t.T).T
    for k in range(50):
        np.testing.assert_allclose(tau[k], naive_matmul(b, u_t[k]), atol=1e-12)


def test_allocate_zero():
    u, residual = allocate(np.zeros(5), ThrusterConfig())
    np.testing.assert_allclose(u, np.zeros(3))
    np.testing.assert_allclose(residual, np.zeros(5))


def test_allocate_round_trip_in_range():
    cfg = ThrusterConfig()
    b = build_tcm(cfg)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        u_true = rng.uniform(-40, 40, 3)
        tau = b @ u_true
        u, residual = allocate(tau, cfg)
        assert np.linalg.norm(residual) < 1e-9
        np.testing.assert_allclose(b @ u, tau, atol=1e-9)


def test_allocate_linearity_before_saturation():
    cfg = ThrusterConfig()
    b = build_tcm(cfg)
    rng = np.random.default_rng(2)
    tau = b @ rng.uniform(-10, 10, 3)
    u1, _ = allocate(tau, cfg)
    u2, _ = allocate(3.0 * tau, cfg)
    np.testing.assert_allclose(u2, 3.0 * u1, atol=1e-9)


def test_allocate_saturation_never_exceeded():
    cfg = ThrusterConfig(u_limit=60.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        tau = rng.uniform(-500, 500, 5)
        u, _ = allocate(tau, cfg)
        assert np.all(np.abs(u) <= cfg.u_limit + 1e-9)


def test_allocate_underactuated_sway():
    # with t1 = t2 = 0 the sway row vanishes: pure sway demands are unreachable
    cfg = ThrusterConfig(t1=0.0, t2=0.0)
    tau = np.array([0.0, 5.0, 0.0, 0.0, 0.0])
    u, residual = allocate(tau, cfg)
    assert abs(residual[1]) > 1.0


def test_wrench5_body_round_trip():
    rng = np.random.default_rng(4)
    tau5 = rng.uniform(-10, 10, 5)
    tau6 = wrench5_to_body(tau5)
    assert tau6[3] == 0.0  # roll never actuated
    np.testing.assert_allclose(body_to_wrench5(tau6), tau5)


def reference_allocate(tau, cfg):
    """Allocation with the TCM and its pseudo-inverses rebuilt on every call."""
    b = build_tcm(cfg)
    u = np.linalg.pinv(b) @ tau
    sat = np.abs(u) > cfg.u_limit
    if np.any(sat):
        u = np.clip(u, -cfg.u_limit, cfg.u_limit)
        free = ~sat
        if np.any(free):
            u[free] = np.linalg.pinv(b[:, free]) @ (tau - b[:, sat] @ u[sat])
            u = np.clip(u, -cfg.u_limit, cfg.u_limit)
    return u, b @ u - tau


@pytest.mark.parametrize(
    "cfg",
    [ThrusterConfig(), ThrusterConfig(t1=0.0, t2=0.0, r1=0.0), ThrusterConfig(t1=-0.0, t2=-0.0, r1=-0.0)],
    ids=["default", "zero-coefficients", "negative-zero-coefficients"],
)
def test_allocate_bytes_match_fresh_pseudo_inverse(cfg):
    b = build_tcm(cfg)
    unsaturated = b @ np.array([12.0, -7.5, -20.0])
    saturated = np.array([100.0, -1.5, 0.5, 10.0, 0.25])
    # the surge demand saturates some thrusters and leaves others to re-solve
    first_pass = np.abs(np.linalg.pinv(b) @ saturated) > cfg.u_limit
    assert first_pass.any() and not first_pass.all()
    for _ in range(2):  # the second round reads the cached pseudo-inverses
        u, residual = allocate(unsaturated, cfg)
        assert u.tobytes() == (np.linalg.pinv(b) @ unsaturated).tobytes()
        assert residual.tobytes() == (b @ u - unsaturated).tobytes()
        u, residual = allocate(saturated, cfg)
        want_u, want_residual = reference_allocate(saturated, cfg)
        assert u.tobytes() == want_u.tobytes()
        assert residual.tobytes() == want_residual.tobytes()


def test_pseudo_inverse_table_is_complete_and_read_only():
    cfg = ThrusterConfig()
    b = build_tcm(cfg)
    b_pinv, free_pinv = cfg._pseudo_inverses
    # every proper, nonempty free set of the 3 thrusters, built with the config
    assert len(free_pinv) == 6
    with pytest.raises(TypeError):
        free_pinv[b"\x01\x01\x01"] = b_pinv
    for key, pinv in free_pinv.items():
        free = np.frombuffer(key, dtype=bool)
        assert 0 < free.sum() < 3 and not pinv.flags.writeable
        assert pinv.tobytes() == np.linalg.pinv(b[:, free]).tobytes()
    assert not b_pinv.flags.writeable


def test_allocate_follows_config_changes():
    cfg = ThrusterConfig()
    tau = np.array([30.0, 5.0, -2.0, 10.0, 1.0])
    allocate(tau, cfg)
    # a variant is a new config, with its own matrix and pseudo-inverses
    variant = replace(cfg, k1=0.6, u_limit=20.0)
    u, residual = allocate(tau, variant)
    want_u, want_residual = reference_allocate(tau, variant)
    assert u.tobytes() == want_u.tobytes()
    assert residual.tobytes() == want_residual.tobytes()
    with pytest.raises(ValueError):
        replace(cfg, k1=0.1)  # out of range: no config to allocate with
