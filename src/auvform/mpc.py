"""Control bounds and predicted tracking cost around the sliding-mode command.

Each step clips the raw SMC command to [tau_lo, tau_hi] per axis; the
clipped command is the one applied.  The estimated vehicle model, rolled out
for n_e steps from the fleet's state holding that command, gives the logged
cost

    J = sum_k ||ed_pred(k) - ed_d(k)||^2        (k = 1..n_e)

and a feasibility flag: every predicted pose error stays inside
[state_lo, state_hi].

No rollout feeds back into the fleet, so a run rolls out none while it
steps: engine.run scores every step's held command after the loop, from the
rows it logged, through MpcShell.rollout over many steps' rows at once, each
row from its own start time.  MpcShell.solve runs the same rollout for one
batch of vehicles.  Each predicted step is one advance_plant under the
scenario's current (the enabled FlowConfig, or None with the flow off), and
its rates J q come from vehicle.inertial_rates, as the plant's kinematics
do.  Nothing here draws random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._frozen import freeze, read_only
from ._numpy_fast import HALF
from ._numpy_fast import clip as _clip
from .plant import Time, advance_plant
from .vehicle import RigidBodyParams, euler_pose, inertial_rates, wrap_angle

if TYPE_CHECKING:
    from .engine import FlowConfig


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
        freeze(self)
        if not self.n_e >= 1:
            raise ValueError("n_e must be at least 1")
        if not (self.tau_lo <= self.tau_hi and self.state_lo <= self.state_hi):
            raise ValueError("bounds must be well ordered (lower <= upper)")

    @cached_property
    def tau_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-d command bounds tau_lo and tau_hi."""
        return read_only(self.tau_lo), read_only(self.tau_hi)


class MpcShell:
    """Stateless solver bound to one scenario's estimated model and flow.

    flow is the enabled FlowConfig, or None with the flow off.
    """

    def __init__(
        self, cfg: MpcConfig, params: RigidBodyParams, flow: FlowConfig | None, dt: float
    ):
        self.cfg = cfg
        self.params_est = params.estimated()
        self.flow = flow
        self.dt = dt
        # offsets of the n_e predicted steps from the rollout's start
        self.steps = dt * np.arange(1, cfg.n_e + 1)[:, None]

    def clip(self, nominal: np.ndarray) -> np.ndarray:
        """The command to apply: nominal clipped to [tau_lo, tau_hi] per axis."""
        return _clip(nominal, *self.cfg.tau_bounds)

    def cost(self, rates: np.ndarray, ed_d: np.ndarray, edd_d: np.ndarray) -> np.ndarray:
        """Tracking cost (B,) of predicted rates (B, n_e, 6) against the references.

        The reference rates are extrapolated to first order over the horizon
        from ed_d and edd_d (B, 6) at the rollout's start.
        """
        ed_seq = ed_d[:, None, :] + edd_d[:, None, :] * self.steps
        return np.add.reduce((rates - ed_seq) ** 2, axis=(-1, -2))

    def rollout(
        self, y0: np.ndarray, t0: Time, u: np.ndarray, d_o: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The estimated model rolled out n_e steps from y0 (B, 12) holding u (B, 6).

        t0 is one start time or a (B,) array of per-row start times; step k
        advances from t0 + k dt.  d_o, when given, is the disturbance at
        (y0, t0), used by the first step's k1.  Returns the inertial rates
        J q and the poses (B, n_e, 6) at t0 + dt, ..., t0 + n_e dt.
        """
        dt = self.dt
        rates = np.empty(u.shape[:-1] + (self.cfg.n_e, 6))
        poses = np.empty_like(rates)
        y = y0
        for k in range(self.cfg.n_e):
            y = advance_plant(
                y, t0 + k * dt, u, dt, self.params_est, self.flow, d_o if k == 0 else None
            )
            inertial_rates(euler_pose(y[..., 3:6]), y[..., 6:], out=rates[..., k, :])
            poses[..., k, :] = y[..., :6]
        return rates, poses

    def solve(
        self,
        y0: np.ndarray,
        t: float,
        nominal: np.ndarray,
        e_d: np.ndarray,
        ed_d: np.ndarray,
        edd_d: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched solve for every vehicle at once.

        y0 (V, 12) is the fleet state at t; nominal (V, 6); references
        (V, 6) at t.  Returns (sequences (V, n_e, 6), costs (V,),
        feasible (V,)); each sequence holds the clipped nominal, and
        sequence[:, 0] is the command to apply.
        """
        cfg = self.cfg
        u = self.clip(nominal)
        steps = self.steps
        e_seq = (
            e_d[:, None, :]
            + ed_d[:, None, :] * steps
            + HALF * edd_d[:, None, :] * steps**2
        )

        rates, poses = self.rollout(y0, t, u)
        cost = self.cost(rates, ed_d, edd_d)
        err = poses - e_seq
        err[..., 3:] = wrap_angle(err[..., 3:])
        feasible = ((err >= cfg.state_lo) & (err <= cfg.state_hi)).all(axis=(-1, -2))
        return np.repeat(u[:, None], cfg.n_e, axis=1), cost, feasible

