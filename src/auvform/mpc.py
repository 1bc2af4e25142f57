"""Control bounds and predicted tracking cost around the sliding-mode command.

Each solve clips the raw SMC command to [tau_lo, tau_hi] per axis; the
clipped command is the one applied.  The estimated vehicle model, rolled out
for n_e steps holding that command, gives the logged cost

    J = sum_k ||ed_pred(k) - ed_d(k)||^2        (k = 1..n_e)

and a feasibility flag: every predicted pose error stays inside
[state_lo, state_hi].  The rollout's first step starts from the fleet's own
state and time, so the engine runs it stacked under the fleet's advance
(plant.advance_plant with params (true, estimated)); solve takes that first
state and advances the other n_e - 1 steps itself.  Solves are batched over
vehicles and draw no random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numpy_fast import einsum as _einsum
from .flow import DisturbanceModel
from .plant import FlowSampler, advance_plant
from .vehicle import (
    RigidBodyParams,
    body_rate_to_euler,
    euler_trig,
    rotation_body_to_inertial,
    wrap_angle,
)


@dataclass(frozen=True)
class MpcConfig:
    """Prediction horizon and the control and pose-error bounds, applied every step."""

    enabled: bool = True
    n_e: int = 5
    tau_lo: float = -60.0
    tau_hi: float = 60.0
    state_lo: float = -5.0
    state_hi: float = 5.0

    def __post_init__(self):
        if self.n_e < 1:
            raise ValueError("n_e must be at least 1")
        if self.tau_lo > self.tau_hi or self.state_lo > self.state_hi:
            raise ValueError("bounds must be well ordered (lower <= upper)")


class MpcShell:
    """Stateless solver bound to one scenario's estimated model and flow."""

    def __init__(
        self,
        cfg: MpcConfig,
        params: RigidBodyParams,
        dist_model: DisturbanceModel | None,
        flow_sampler: FlowSampler | None,
        dt: float,
    ):
        self.cfg = cfg
        self.params_est = params.estimated()
        self.dist_model = dist_model
        self.flow_sampler = flow_sampler
        self.dt = dt

    def clip(self, nominal: np.ndarray) -> np.ndarray:
        """The command to apply: nominal clipped to [tau_lo, tau_hi] per axis."""
        return np.clip(nominal, self.cfg.tau_lo, self.cfg.tau_hi)

    def solve(
        self,
        y1: np.ndarray,
        t: float,
        nominal: np.ndarray,
        e_d: np.ndarray,
        ed_d: np.ndarray,
        edd_d: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched solve for every vehicle at once.

        y1 (V, 12) is the rollout's first state: the estimated model advanced
        one step from the fleet state at t holding clip(nominal), with the
        same flow sampler and disturbance model.  nominal (V, 6); references
        (V, 6) at t.  Returns (sequences (V, n_e, 6), costs (V,),
        feasible (V,)); each sequence holds the clipped nominal, and
        sequence[:, 0] is the command to apply.
        """
        cfg = self.cfg
        u = self.clip(nominal)

        steps = self.dt * np.arange(1, cfg.n_e + 1)[:, None]
        # first-order extrapolation of the references over the horizon
        ed_seq = ed_d[:, None, :] + edd_d[:, None, :] * steps
        e_seq = (
            e_d[:, None, :]
            + ed_d[:, None, :] * steps
            + 0.5 * edd_d[:, None, :] * steps**2
        )

        rates, poses = self._predict(y1, t, u)
        cost = np.sum((rates - ed_seq) ** 2, axis=(-1, -2))
        err = poses - e_seq
        err[..., 3:] = wrap_angle(err[..., 3:])
        feasible = np.all((err >= cfg.state_lo) & (err <= cfg.state_hi), axis=(-1, -2))
        return np.repeat(u[:, None], cfg.n_e, axis=1), cost, feasible

    def _predict(self, y1: np.ndarray, t: float, u: np.ndarray):
        """Rollout from its first state y1 (B, 12) holding u (B, 6).

        Returns the inertial rates J q and the poses (B, n_e, 6) at
        t + dt, ..., t + n_e dt.
        """
        n_e = self.cfg.n_e
        y = y1
        rates = np.empty(u.shape[:-1] + (n_e, 6))
        poses = np.empty_like(rates)
        for k in range(n_e):
            if k:
                y = advance_plant(
                    y, t + k * self.dt, u, self.dt,
                    self.params_est, self.flow_sampler, self.dist_model,
                )
            # J q blockwise: R nu1 and T^-1 nu2
            eta2 = y[..., 3:6]
            trig = euler_trig(eta2)
            rates[..., k, :3] = _einsum(
                "...ij,...j->...i", rotation_body_to_inertial(eta2, trig), y[..., 6:9]
            )
            rates[..., k, 3:] = _einsum(
                "...ij,...j->...i", body_rate_to_euler(eta2, trig), y[..., 9:]
            )
            poses[..., k, :] = y[..., :6]
        return rates, poses
