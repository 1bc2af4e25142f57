"""Controller law tests: surface, gains, control terms, adaptation, Lyapunov."""

import numpy as np
import pytest

from auvform.controller import (
    AdaptiveState,
    SuperTwistGains,
    SurfaceConfig,
    adaptive_control,
    adaptive_update,
    assumption_holds,
    equivalent_control,
    first_order_smc,
    lyapunov_value,
    reference_rate,
    sliding_surface,
    validate_gains,
)

E1 = np.array([1.0, 0, 0, 0, 0, 0])


def test_sliding_surface_on_surface():
    cfg = SurfaceConfig()
    np.testing.assert_allclose(
        sliding_surface(np.zeros(6), np.zeros(6), np.zeros(6), cfg), np.zeros(6)
    )


def test_sliding_surface_proportional_term():
    cfg = SurfaceConfig(lambda_s=np.full(6, 2.0))
    sigma = sliding_surface(E1, np.zeros(6), np.zeros(6), cfg)
    assert sigma[0] == pytest.approx(4.0)  # 2 * 2 * 1


def test_sliding_surface_integral_term():
    cfg = SurfaceConfig(lambda_s=np.full(6, 2.0))
    sigma = sliding_surface(np.zeros(6), np.zeros(6), E1, cfg)
    assert sigma[0] == pytest.approx(4.0)  # 2^2 * 1


def test_reference_rate_trivial():
    cfg = SurfaceConfig()
    ed_d = np.array([0.5, -0.2, 0.1, 0, 0, 0.05])
    np.testing.assert_allclose(reference_rate(ed_d, np.zeros(6), np.zeros(6), cfg), ed_d)


def test_reference_rate_proportional():
    cfg = SurfaceConfig(lambda_s=np.ones(6))
    edr = reference_rate(np.zeros(6), E1, np.zeros(6), cfg)
    assert edr[0] == pytest.approx(-2.0)


def test_surface_equals_rate_mismatch_identity():
    # sigma = e_dot - ed_r componentwise, for random inputs
    rng = np.random.default_rng(0)
    cfg = SurfaceConfig(lambda_s=rng.uniform(0.2, 3.0, 6))
    for _ in range(50):
        eps = rng.uniform(-2, 2, 6)
        integral = rng.uniform(-2, 2, 6)
        e_dot = rng.uniform(-2, 2, 6)
        ed_d = rng.uniform(-2, 2, 6)
        sigma = sliding_surface(eps, e_dot - ed_d, integral, cfg)
        ed_r = reference_rate(ed_d, eps, integral, cfg)
        np.testing.assert_allclose(sigma, e_dot - ed_r, atol=1e-12)


def test_validate_gains_accepts_feasible_set():
    g = SuperTwistGains(lam=2.1, rho=0.36, w_gain=0.3, phi=0.2, gamma_big=1.0, gamma_small=1.0)
    assert validate_gains(g) == []
    # independent re-evaluation: lam^2 = 4.41 >= 4*0.2*1*0.5/0.1 = 4
    assert g.lam**2 >= 4 * g.phi * g.gamma_big * (g.w_gain + g.phi) / (
        g.gamma_small**2 * (g.w_gain - g.phi)
    )


def test_validate_gains_rejects_each_violation():
    assert any("rho" in v for v in validate_gains(SuperTwistGains(rho=0.6)))
    assert any(
        "w_gain" in v for v in validate_gains(SuperTwistGains(w_gain=0.1, phi=0.2))
    )
    assert any("lam" in v for v in validate_gains(SuperTwistGains(lam=1.9)))
    assert any("lam must be positive" in v for v in validate_gains(SuperTwistGains(lam=-2.1)))


def test_equivalent_control_zero_case():
    g = SuperTwistGains()
    u = equivalent_control(np.zeros(6), np.zeros(6), np.eye(6), g)
    np.testing.assert_allclose(u, np.zeros(6))


def test_equivalent_control_pure_feedforward():
    g = SuperTwistGains()
    f_hat = np.array([1.0, 2, 3, 0, -1, 0.5])
    jac = np.eye(6)
    u = equivalent_control(np.zeros(6), f_hat, jac, g)
    np.testing.assert_allclose(u, f_hat)


def test_equivalent_control_reaching_term():
    g = SuperTwistGains(lam=2.1, rho=0.36)
    u = equivalent_control(E1, np.zeros(6), np.eye(6), g)
    assert u[0] == pytest.approx(-2.1)  # |1|^rho = 1


def test_adaptive_control_values():
    adaptive = AdaptiveState(k_gain=np.full(6, 50.0), gamma=np.full(6, 50.0))
    u = adaptive_control(0.1 * E1, adaptive, np.zeros((6, 6)), np.eye(6))
    assert u[0] == pytest.approx(-5.0)
    u0 = adaptive_control(np.zeros(6), AdaptiveState(), np.zeros((6, 6)), np.eye(6))
    np.testing.assert_allclose(u0, np.zeros(6))


def test_adaptive_control_feedforward():
    d = np.array([3.0, -1.0, 0, 0, 0, 2.0])
    adaptive = AdaptiveState(f_est=d.copy())
    u = adaptive_control(np.zeros(6), adaptive, np.zeros((6, 6)), np.eye(6))
    np.testing.assert_allclose(u, d)


def test_adaptive_update_euler_step():
    adaptive = AdaptiveState(gamma=np.full(6, 50.0))
    adaptive_update(adaptive, 0.1 * E1, 0.01)
    assert adaptive.f_est[0] == pytest.approx(-0.05)
    np.testing.assert_allclose(adaptive.f_est[1:], np.zeros(5))


def test_adaptive_update_linear_ramp():
    adaptive = AdaptiveState(gamma=np.full(6, 50.0), f_est_clamp=1e9)
    sigma = 0.1 * E1
    n = 37
    for _ in range(n):
        adaptive_update(adaptive, sigma, 0.01)
    assert adaptive.f_est[0] == pytest.approx(-n * 50.0 * 0.1 * 0.01)


def test_adaptive_update_clamp():
    adaptive = AdaptiveState(gamma=np.full(6, 50.0), f_est_clamp=0.2)
    for _ in range(100):
        adaptive_update(adaptive, E1, 0.01)
    assert adaptive.f_est[0] == pytest.approx(-0.2)


def pinv(gamma):
    return AdaptiveState(gamma=gamma).gamma_pinv()


def test_assumption_trivial_cases():
    k = np.full(6, 50.0)
    ginv = pinv(np.array([50.0, 50, 0, 0, 0, 100]))
    m_tilde = 0.1 * np.diag([30.0, 30, 30, 1, 5, 5])
    assert assumption_holds(np.zeros(6), np.zeros(6), np.zeros(6), m_tilde, k, ginv)
    # w = 0 makes the right side vanish
    sigma = np.array([0.3, -0.2, 0.1, 0, 0, 0.05])
    assert assumption_holds(sigma, np.zeros(6), np.full(6, 5.0), m_tilde, k, ginv)


def test_assumption_numeric_cases():
    rng = np.random.default_rng(1)
    ginv = pinv(np.full(6, 50.0))
    m_tilde = 0.1 * np.diag([30.0, 30, 30, 1, 5, 5])
    sigma = rng.uniform(-0.5, 0.5, 6)
    w = rng.uniform(-2, 2, 6)
    f_dot = rng.uniform(-1, 1, 6)
    big_k = np.full(6, 1e4)
    assert assumption_holds(sigma, w, f_dot, m_tilde, big_k, ginv)
    # zero K and a huge disturbance rate break the inequality
    assert not assumption_holds(
        0.01 * sigma, w, 1e6 * np.ones(6), np.zeros((6, 6)), np.zeros(6), ginv
    )


def test_lyapunov_values():
    ginv = pinv(np.ones(6))
    assert lyapunov_value(np.zeros(6), np.zeros(6), np.eye(6), ginv) == 0.0
    assert lyapunov_value(E1, np.zeros(6), np.eye(6), ginv) == pytest.approx(0.5)
    # nonnegative for random inputs, zero gamma axes excluded via pseudo-inverse
    rng = np.random.default_rng(2)
    ginv_z = pinv(np.array([50.0, 50, 0, 0, 0, 100]))
    np.testing.assert_array_equal(ginv_z, [0.02, 0.02, 0, 0, 0, 0.01])
    m_e = np.diag([30.0, 30, 30, 1, 5, 5])
    for _ in range(100):
        v = lyapunov_value(rng.uniform(-1, 1, 6), rng.uniform(-5, 5, 6), m_e, ginv_z)
        assert v >= 0.0


def test_diagnostics_batched_rows():
    # one row per vehicle gives, row by row, the single-vehicle values
    rng = np.random.default_rng(5)
    ginv = pinv(np.array([50.0, 50, 100, 0, 0, 0]))
    k = np.array([50.0, 50, 50, 0, 0, 0])
    sigma, w, f_dot = rng.uniform(-1, 1, (3, 4, 6))
    a = rng.uniform(-1, 1, (4, 6, 6))
    m_e = a @ np.swapaxes(a, -1, -2) + np.eye(6)
    lyap = lyapunov_value(sigma, w, m_e, ginv)
    flag = assumption_holds(sigma, w, 1e3 * f_dot, 0.1 * m_e, k, ginv)
    assert lyap.shape == flag.shape == (4,)
    for v in range(4):
        assert lyap[v] == lyapunov_value(sigma[v], w[v], m_e[v], ginv)
        assert flag[v] == assumption_holds(sigma[v], w[v], 1e3 * f_dot[v], 0.1 * m_e[v], k, ginv)


def test_first_order_smc_values():
    np.testing.assert_allclose(
        first_order_smc(np.zeros(6), np.zeros(6), np.eye(6), 0.3, 1.0), np.zeros(6)
    )
    u = first_order_smc(E1, np.zeros(6), np.eye(6), 0.3, 1.0)
    assert u[0] == pytest.approx(-1.3)


def test_first_order_smc_chattering_signature():
    w = 0.3
    u_plus = first_order_smc(0.001 * E1, np.zeros(6), np.eye(6), w, 1.0)
    u_minus = first_order_smc(-0.001 * E1, np.zeros(6), np.eye(6), w, 1.0)
    assert u_plus[0] - u_minus[0] == pytest.approx(-2 * w - 2 * 0.001, abs=1e-12)


def test_on_surface_idle_total_command():
    # with eps = deps = integral = 0 and f_est = 0, u1 + u2 = J^T f_hat_r
    rng = np.random.default_rng(3)
    g = SuperTwistGains()
    adaptive = AdaptiveState()
    for _ in range(20):
        jac = np.eye(6) + 0.01 * rng.uniform(-1, 1, (6, 6))
        f_hat = rng.uniform(-10, 10, 6)
        sigma = np.zeros(6)
        u1 = equivalent_control(sigma, f_hat, jac, g)
        u2 = adaptive_control(sigma, adaptive, rng.uniform(-1, 1, (6, 6)), jac)
        np.testing.assert_allclose(u1 + u2, jac.T @ f_hat, atol=1e-12)


def test_control_law_continuity():
    # no jump anywhere, including through sigma = 0
    rng = np.random.default_rng(4)
    g = SuperTwistGains()
    adaptive = AdaptiveState(f_est=rng.uniform(-5, 5, 6))
    c_e = rng.uniform(-1, 1, (6, 6))
    jac = np.eye(6)
    delta = 1e-9
    sigmas = rng.uniform(-0.5, 0.5, (1000, 6))
    sigmas[:100] *= 1e-6  # cluster some samples near the surface
    for sigma in sigmas:
        u_a = equivalent_control(sigma, np.zeros(6), jac, g) + adaptive_control(
            sigma, adaptive, c_e, jac
        )
        u_b = equivalent_control(sigma + delta, np.zeros(6), jac, g) + adaptive_control(
            sigma + delta, adaptive, c_e, jac
        )
        # |sigma|^rho has unbounded slope at 0: allow delta^rho growth there
        assert np.max(np.abs(u_b - u_a)) < 3 * g.lam * delta**g.rho + 200 * delta


def test_adaptive_convergence_constant_disturbance():
    # scalar double-integrator: m xdd = tau - d with constant d; the estimate
    # converges to d (the value that cancels the disturbance) and |sigma|
    # falls below 0.1
    m = 1.0
    d = 4.0
    dt = 0.001
    g = SuperTwistGains()
    cfg = SurfaceConfig(lambda_s=np.ones(6))
    adaptive = AdaptiveState(k_gain=np.full(6, 50.0), gamma=np.full(6, 50.0))
    x = np.zeros(6)
    xd = np.zeros(6)
    integral = np.zeros(6)
    jac = np.eye(6)
    for _ in range(20000):
        eps = x.copy()
        deps = xd.copy()
        integral = integral + eps * dt
        sigma = sliding_surface(eps, deps, integral, cfg)
        edd_r = -2 * cfg.lambda_s * deps - cfg.lambda_s**2 * eps
        f_hat_r = m * edd_r  # perfect model of the double integrator
        u = equivalent_control(sigma, f_hat_r, jac, g) + adaptive_control(
            sigma, adaptive, np.zeros((6, 6)), jac
        )
        xdd = (u - d * np.ones(6)) / m
        x = x + xd * dt
        xd = xd + xdd * dt
        adaptive_update(adaptive, sigma, dt)
    sigma_final = sliding_surface(x, xd, integral, cfg)
    assert np.all(np.abs(sigma_final) < 0.1)
    assert adaptive.f_est[0] == pytest.approx(d, rel=0.05)
