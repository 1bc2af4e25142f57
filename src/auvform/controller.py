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
leading axes (one row per vehicle).  Gains are frozen configs; the per-row
run state is ControllerState, and adaptive_update returns the next f_est.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._frozen import freeze, read_only
from ._numpy_fast import HALF
from ._numpy_fast import clip as _clip
from ._numpy_fast import einsum as _einsum
from .vehicle import body_wrench


@dataclass(frozen=True)
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
        freeze(self, lambda_s=(6,))
        if not (self.lambda_s > 0).all():
            raise ValueError("surface gain entries must be positive")
        if not self.integral_clamp > 0:
            raise ValueError("integral clamp must be positive")

    @cached_property
    def operands(self) -> tuple[np.ndarray, ...]:
        """2 lambda_s and lambda_s**2 (the bytes each law computed), and the 0-d -+integral_clamp."""
        lam, clamp = self.lambda_s, self.integral_clamp
        return read_only(2.0 * lam), read_only(lam**2), read_only(-clamp), read_only(clamp)


@dataclass(frozen=True)
class SuperTwistGains:
    """Gains of the reaching term plus the convergence-condition constants.

    Only finiteness is checked here; validate_gains judges the ranges for ControllerConfig.
    """

    lam: float = 2.1
    rho: float = 0.36
    w_gain: float = 0.3
    phi: float = 0.2
    gamma_big: float = 1.0
    gamma_small: float = 1.0

    def __post_init__(self):
        freeze(self)

    @cached_property
    def neg_lam(self) -> np.ndarray:
        """-lam as a 0-d operand of the reach term."""
        return read_only(-self.lam)


@dataclass(frozen=True)
class AdaptiveGains:
    """Diagonal feedback (K) and adaptation (Gamma) gains and the estimate clamp.

    The defaults act on the three translational axes: the flow disturbance
    is resolved into forces along x, y and z, and those are the axes the
    thrusters can actually serve (adapting a starved rotational axis just
    winds the estimate to its clamp).  Zero K/Gamma entries disable
    feedback/adaptation on an axis; diagnostics use gamma_pinv so those
    axes contribute nothing.  The estimate f_est is run state and lives in
    ControllerState.
    """

    k_gain: np.ndarray = field(
        default_factory=lambda: np.array([50.0, 50.0, 50.0, 0.0, 0.0, 0.0])
    )
    gamma: np.ndarray = field(
        default_factory=lambda: np.array([50.0, 50.0, 100.0, 0.0, 0.0, 0.0])
    )
    f_est_clamp: float = 40.0

    def __post_init__(self):
        freeze(self, k_gain=(6,), gamma=(6,))
        if not ((self.k_gain >= 0).all() and (self.gamma >= 0).all()):
            raise ValueError("adaptation gains must be nonnegative")
        if not self.f_est_clamp >= 0:
            raise ValueError(f"f_est_clamp must be nonnegative: got {self.f_est_clamp}")

    @cached_property
    def f_est_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-d clip bounds -f_est_clamp and f_est_clamp."""
        return read_only(-self.f_est_clamp), read_only(self.f_est_clamp)

    @cached_property
    def gamma_pinv(self) -> np.ndarray:
        """1 / Gamma per axis, 0 where Gamma is 0."""
        return read_only(np.divide(1.0, self.gamma, out=np.zeros(6), where=self.gamma != 0))


@dataclass
class ControllerState:
    """Per-vehicle rows of running state, reset at scenario start, and the scenario's gains."""

    integral_eps: np.ndarray
    f_est: np.ndarray
    adaptive: AdaptiveGains


def sliding_surface(
    eps: np.ndarray, eps_dot: np.ndarray, integral_eps: np.ndarray, cfg: SurfaceConfig
) -> np.ndarray:
    """sigma = eps_dot + 2 L eps + L^2 integral(eps)."""
    two_lam, lam_sq, _, _ = cfg.operands
    return eps_dot + two_lam * eps + lam_sq * integral_eps


def reference_rate(
    e_dot_d: np.ndarray, eps: np.ndarray, integral_eps: np.ndarray, cfg: SurfaceConfig
) -> np.ndarray:
    """ed_r = ed_d - 2 L eps - L^2 integral(eps); sigma = e_dot - ed_r."""
    two_lam, lam_sq, _, _ = cfg.operands
    return e_dot_d - two_lam * eps - lam_sq * integral_eps


def reference_accel(
    e_ddot_d: np.ndarray, eps: np.ndarray, eps_dot: np.ndarray, cfg: SurfaceConfig
) -> np.ndarray:
    """Time derivative of reference_rate: edd_r = edd_d - 2 L eps_dot - L^2 eps."""
    two_lam, lam_sq, _, _ = cfg.operands
    return e_ddot_d - two_lam * eps_dot - lam_sq * eps


def validate_gains(g: SuperTwistGains) -> list[str]:
    """Check the finite-time convergence conditions; empty list means feasible.  No finite
    gain raises: no gamma divides before both are positive, and lam^2 is not formed by `**`."""
    violations = [f"{name} must be positive: got {getattr(g, name)}"
                  for name in ("lam", "gamma_big", "gamma_small") if not getattr(g, name) > 0]
    if not 0.0 < g.rho <= 0.5:
        violations.append(f"rho must lie in (0, 0.5]: got {g.rho}")
    if not (g.gamma_big > 0 and g.gamma_small > 0):
        return violations
    if not g.w_gain > g.phi / g.gamma_big:
        violations.append(f"w_gain must exceed phi/gamma_big: {g.w_gain} <= {g.phi / g.gamma_big}")
    lam_gamma = g.lam * g.gamma_small
    left = lam_gamma * lam_gamma * (g.w_gain - g.phi)
    right = 4.0 * g.phi * g.gamma_big * (g.w_gain + g.phi)
    if g.w_gain > g.phi and not left >= right:
        violations.append(
            f"lam^2 gamma_small^2 (w_gain - phi) must be at least "
            f"4 phi gamma_big (w_gain + phi): {left} < {right}"
        )
    return violations


def equivalent_control(
    sigma: np.ndarray,
    f_hat_r: np.ndarray,
    pose: tuple,
    g: SuperTwistGains,
) -> np.ndarray:
    """u1: fractional-power reaching term plus model feedforward J^T f_hat_r at `pose`."""
    reach = g.neg_lam * np.abs(sigma) ** g.rho * np.sign(sigma)
    return reach + body_wrench(pose, f_hat_r)


def adaptive_control(
    sigma: np.ndarray,
    f_est: np.ndarray,
    gains: AdaptiveGains,
    c_e_hat: np.ndarray,
    pose: tuple,
) -> np.ndarray:
    """u2 = J^T (f_est - (K + C_e_hat) sigma) at `pose`, continuous in sigma."""
    inner = f_est - gains.k_gain * sigma - _einsum("...ij,...j->...i", c_e_hat, sigma)
    return body_wrench(pose, inner)


def adaptive_update(
    f_est: np.ndarray, gains: AdaptiveGains, sigma: np.ndarray, dt: float
) -> np.ndarray:
    """The next estimate: an Euler step of f_est_dot = -Gamma sigma, clamped per axis."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    f = f_est - gains.gamma * sigma * dt
    return _clip(f, *gains.f_est_bounds)


def lyapunov_value(
    sigma: np.ndarray, w_vec: np.ndarray, m_e: np.ndarray, gamma_pinv: np.ndarray
) -> np.ndarray:
    """V = (sigma^T M_e sigma + w^T G^+ w) / 2 per row.

    gamma_pinv is AdaptiveGains.gamma_pinv: axes with zero adaptation gain
    drop out of the estimate-error term.
    """
    return HALF * (
        _einsum("...i,...ij,...j->...", sigma, m_e, sigma)
        + np.add.reduce(w_vec**2 * gamma_pinv, axis=-1)
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
    left = _einsum("...i,...ij,...j->...", sigma, m_tilde_e, sigma) + np.add.reduce(
        k_gain * sigma**2, axis=-1
    )
    right = np.abs(np.add.reduce(f_tilde_dot * gamma_pinv * w_vec, axis=-1))
    return left >= right


def first_order_smc(
    sigma: np.ndarray,
    f_hat_r: np.ndarray,
    pose: tuple,
    w_gain: float,
    lam: float,
) -> np.ndarray:
    """Comparison baseline: u = J^T f_hat_r - lam sigma - w_gain sign(sigma), J at `pose`."""
    return body_wrench(pose, f_hat_r) - lam * sigma - w_gain * np.sign(sigma)
