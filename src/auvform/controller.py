"""Adaptive higher-order sliding-mode control laws and diagnostics.

The tracking error eps = e - e_d lives in inertial coordinates.  The sliding
surface is

    sigma = eps_dot + 2 L eps + L^2 integral(eps) dt

with L a positive diagonal gain.  The applied body wrench is u1 + u2:

    u1 = -lam |sigma|^rho sign(sigma) + J^T f_hat_r      (equivalent control)
    u2 = J^T (f_est - (K + C_e_hat) sigma)               (continuous adaptive)
    f_est_dot = -Gamma sigma                             (adaptation law)

sign(0) is taken as 0 so no bias is injected on the surface.  The
continuous adaptive u2 replaces the switching term of a classic
first-order law, which is kept as the comparison baseline.  The stability
diagnostics (Lyapunov value and the monitored assumption) are evaluated
here for the engine's log.

All laws are componentwise or small matrix products and broadcast over
leading axes (one row per vehicle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SurfaceConfig:
    """Diagonal surface gain (entries of the 6x6 positive diagonal matrix).

    The rotational gains are soft: roll is unactuated and the yaw/pitch
    wrench shares actuators with sway/surge, so stiff angle surfaces would
    fight the translational loops through the thrust allocation.  The
    integral clamp is tight for the same reason; a wound-up integral demands
    forces the thrusters cannot deliver.
    """

    lambda_s: np.ndarray = field(
        default_factory=lambda: np.array([0.8, 0.8, 0.8, 0.1, 0.1, 0.05])
    )
    integral_clamp: float = 0.3

    def __post_init__(self):
        self.lambda_s = np.broadcast_to(
            np.asarray(self.lambda_s, dtype=float), (6,)
        ).copy()
        self.validate()

    def validate(self) -> None:
        if np.any(self.lambda_s <= 0):
            raise ValueError("surface gain entries must be positive")
        if self.integral_clamp <= 0:
            raise ValueError("integral clamp must be positive")


@dataclass
class SuperTwistGains:
    """Gains of the reaching term plus the convergence-condition constants."""

    lam: float = 2.1
    rho: float = 0.36
    w_gain: float = 0.3
    phi: float = 0.2
    gamma_big: float = 1.0
    gamma_small: float = 1.0


@dataclass
class AdaptiveState:
    """Disturbance estimate and the diagonal adaptation gains.

    The defaults act on the three translational axes: the flow disturbance
    is resolved into forces along x, y and z, and those are the axes the
    thrusters can actually serve (adapting a starved rotational axis just
    winds the estimate to its clamp).  Zero K/Gamma entries disable
    feedback/adaptation on an axis; diagnostics use a pseudo-inverse of
    Gamma so those axes contribute nothing.
    """

    f_est: np.ndarray = field(default_factory=lambda: np.zeros(6))
    k_gain: np.ndarray = field(
        default_factory=lambda: np.array([50.0, 50.0, 50.0, 0.0, 0.0, 0.0])
    )
    gamma: np.ndarray = field(
        default_factory=lambda: np.array([50.0, 50.0, 100.0, 0.0, 0.0, 0.0])
    )
    f_est_clamp: float = 40.0

    def __post_init__(self):
        self.f_est = np.asarray(self.f_est, dtype=float).copy()
        self.k_gain = np.broadcast_to(np.asarray(self.k_gain, dtype=float), (6,)).copy()
        self.gamma = np.broadcast_to(np.asarray(self.gamma, dtype=float), (6,)).copy()
        if np.any(self.k_gain < 0) or np.any(self.gamma < 0):
            raise ValueError("adaptation gains must be nonnegative")
        if self.f_est_clamp < 0:
            raise ValueError(f"f_est_clamp must be nonnegative: got {self.f_est_clamp}")

    def gamma_pinv(self) -> np.ndarray:
        out = np.zeros(6)
        nz = self.gamma != 0
        out[nz] = 1.0 / self.gamma[nz]
        return out


@dataclass
class ControllerState:
    """Per-vehicle running controller state, reset at scenario start."""

    integral_eps: np.ndarray = field(default_factory=lambda: np.zeros(6))
    adaptive: AdaptiveState = field(default_factory=AdaptiveState)


def sliding_surface(
    eps: np.ndarray, eps_dot: np.ndarray, integral_eps: np.ndarray, cfg: SurfaceConfig
) -> np.ndarray:
    """sigma = eps_dot + 2 L eps + L^2 integral(eps)."""
    lam = cfg.lambda_s
    return (
        np.asarray(eps_dot, dtype=float)
        + 2.0 * lam * np.asarray(eps, dtype=float)
        + lam**2 * np.asarray(integral_eps, dtype=float)
    )


def reference_rate(
    e_dot_d: np.ndarray, eps: np.ndarray, integral_eps: np.ndarray, cfg: SurfaceConfig
) -> np.ndarray:
    """ed_r = ed_d - 2 L eps - L^2 integral(eps); sigma = e_dot - ed_r."""
    lam = cfg.lambda_s
    return (
        np.asarray(e_dot_d, dtype=float)
        - 2.0 * lam * np.asarray(eps, dtype=float)
        - lam**2 * np.asarray(integral_eps, dtype=float)
    )


def reference_accel(
    e_ddot_d: np.ndarray, eps: np.ndarray, eps_dot: np.ndarray, cfg: SurfaceConfig
) -> np.ndarray:
    """Time derivative of reference_rate: edd_r = edd_d - 2 L eps_dot - L^2 eps."""
    lam = cfg.lambda_s
    return (
        np.asarray(e_ddot_d, dtype=float)
        - 2.0 * lam * np.asarray(eps_dot, dtype=float)
        - lam**2 * np.asarray(eps, dtype=float)
    )


def validate_gains(g: SuperTwistGains) -> list[str]:
    """Check the finite-time convergence conditions; empty list means feasible."""
    violations = []
    if not g.lam > 0:
        violations.append(f"lam must be positive: got {g.lam}")
    if not g.w_gain > g.phi / g.gamma_big:
        violations.append(
            f"w_gain must exceed phi/gamma_big: {g.w_gain} <= "
            f"{g.phi / g.gamma_big}"
        )
    if not 0.0 < g.rho <= 0.5:
        violations.append(f"rho must lie in (0, 0.5]: got {g.rho}")
    if g.w_gain > g.phi:
        bound = (
            4.0 * g.phi * g.gamma_big * (g.w_gain + g.phi)
            / (g.gamma_small**2 * (g.w_gain - g.phi))
        )
        if not g.lam**2 >= bound:
            violations.append(
                f"lam^2 must be at least 4 phi gamma_big (w_gain + phi) / "
                f"(gamma_small^2 (w_gain - phi)): {g.lam**2} < {bound}"
            )
    return violations


def equivalent_control(
    sigma: np.ndarray,
    f_hat_r: np.ndarray,
    jac_full: np.ndarray,
    g: SuperTwistGains,
) -> np.ndarray:
    """u1: fractional-power reaching term plus model feedforward J^T f_hat_r."""
    sigma = np.asarray(sigma, dtype=float)
    reach = -g.lam * np.abs(sigma) ** g.rho * np.sign(sigma)
    ff = np.einsum("...ji,...j->...i", jac_full, np.asarray(f_hat_r, dtype=float))
    return reach + ff


def adaptive_control(
    sigma: np.ndarray,
    adaptive: AdaptiveState,
    c_e_hat: np.ndarray,
    jac_full: np.ndarray,
) -> np.ndarray:
    """u2 = J^T (f_est - (K + C_e_hat) sigma), continuous in sigma."""
    sigma = np.asarray(sigma, dtype=float)
    inner = (
        adaptive.f_est
        - adaptive.k_gain * sigma
        - np.einsum("...ij,...j->...i", np.asarray(c_e_hat, dtype=float), sigma)
    )
    return np.einsum("...ji,...j->...i", jac_full, inner)


def adaptive_update(
    adaptive: AdaptiveState, sigma: np.ndarray, dt: float
) -> AdaptiveState:
    """Euler step of f_est_dot = -Gamma sigma, clamped per axis."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    f = adaptive.f_est - adaptive.gamma * np.asarray(sigma, dtype=float) * dt
    adaptive.f_est = np.clip(f, -adaptive.f_est_clamp, adaptive.f_est_clamp)
    return adaptive


def lyapunov_value(
    sigma: np.ndarray, w_vec: np.ndarray, m_e: np.ndarray, gamma_pinv: np.ndarray
) -> np.ndarray:
    """V = (sigma^T M_e sigma + w^T G^+ w) / 2 per row.

    gamma_pinv is AdaptiveState.gamma_pinv(): axes with zero adaptation gain
    drop out of the estimate-error term.
    """
    return 0.5 * (
        np.einsum("...i,...ij,...j->...", sigma, m_e, sigma)
        + np.sum(w_vec**2 * gamma_pinv, axis=-1)
    )


def assumption_holds(
    sigma: np.ndarray,
    w_vec: np.ndarray,
    f_tilde_dot: np.ndarray,
    m_tilde_e: np.ndarray,
    k_gain: np.ndarray,
    gamma_pinv: np.ndarray,
) -> np.ndarray:
    """Monitored sigma^T (M_tilde_e + K) sigma >= |f_tilde_dot^T G^+ w| per row."""
    left = np.einsum("...i,...ij,...j->...", sigma, m_tilde_e, sigma) + np.sum(
        k_gain * sigma**2, axis=-1
    )
    right = np.abs(np.sum(f_tilde_dot * gamma_pinv * w_vec, axis=-1))
    return left >= right


def first_order_smc(
    sigma: np.ndarray,
    f_hat_r: np.ndarray,
    jac_full: np.ndarray,
    w_gain: float,
    lam: float,
) -> np.ndarray:
    """Comparison baseline: u = J^T f_hat_r - lam sigma - w_gain sign(sigma)."""
    sigma = np.asarray(sigma, dtype=float)
    ff = np.einsum("...ji,...j->...i", jac_full, np.asarray(f_hat_r, dtype=float))
    return ff - lam * sigma - w_gain * np.sign(sigma)
