"""Receding-horizon smoothing shell around the sliding-mode command.

Each solve perturbs a short future control sequence around the raw SMC
command, forward-simulates the estimated vehicle model, and keeps the
cheapest sequence under the cost

    J = sum_k ||ed_pred(k) - ed_d(k)||^2
      + sum_k sum_i ||u(k) - u(k+i)||^2        (k = 1..n_e, i = 1..n_u)

subject to per-axis control bounds and pose-error bounds.  The incumbent
(clipped nominal) sequence is kept in every sampling round, so the result
never costs more than the clipped nominal.  Sampling is seeded and batched
over vehicles and candidates, making every solve deterministic.

Only candidates that can win are rolled out.  The incumbent is rolled out
once per solve, never again inside a round: its cost and feasibility are
carried over.  The tracking term is non-negative, so a candidate whose
smoothing cost alone is at least the feasible incumbent's cost is not rolled
out.  Both shortcuts are exact: the selected sequence, its cost, the
feasibility flag and the random draws are those of rolling out every
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import DisturbanceModel
from .plant import FlowSampler, advance_plant
from .vehicle import RigidBodyParams, jacobian, wrap_angle


@dataclass
class MpcConfig:
    """Horizons, bounds and sampling budget of the smoothing shell."""

    enabled: bool = True
    n_e: int = 5
    n_u: int = 2
    tau_lo: float = -60.0
    tau_hi: float = 60.0
    state_lo: float = -5.0
    state_hi: float = 5.0
    candidate_count: int = 32
    rounds: int = 3
    perturb_scale: float = 2.0
    stride: int = 1

    def validate(self) -> None:
        if self.n_e < 1 or self.n_u < 1:
            raise ValueError("horizons must be at least 1")
        if self.tau_lo > self.tau_hi or self.state_lo > self.state_hi:
            raise ValueError("bounds must be well ordered (lower <= upper)")
        if self.candidate_count < 1 or self.rounds < 0 or self.stride < 1:
            raise ValueError("candidate_count/rounds/stride out of range")

    @property
    def horizon(self) -> int:
        return self.n_e + self.n_u


def _cost_batch(
    predicted: np.ndarray, desired: np.ndarray, smooth: np.ndarray
) -> np.ndarray:
    """Tracking cost plus a smoothing cost from _smooth_batch."""
    return np.sum((predicted - desired) ** 2, axis=(-1, -2)) + smooth


def _smooth_batch(controls: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """sum_k sum_i ||u(k) - u(k+i)||^2 of control sequences (..., H, 6)."""
    smooth = np.zeros(controls.shape[:-2])
    for i in range(1, cfg.n_u + 1):
        diff = controls[..., : cfg.n_e, :] - controls[..., i : cfg.n_e + i, :]
        smooth = smooth + np.sum(diff**2, axis=(-1, -2))
    return smooth


class MpcShell:
    """Stateful solver bound to one scenario's model, flow and random stream."""

    def __init__(
        self,
        cfg: MpcConfig,
        params: RigidBodyParams,
        dist_model: DisturbanceModel | None,
        flow_sampler: FlowSampler | None,
        dt: float,
        rng: np.random.Generator,
    ):
        cfg.validate()
        self.cfg = cfg
        self.params_est = params.estimated()
        self.dist_model = dist_model
        self.flow_sampler = flow_sampler
        self.dt = dt
        self.rng = rng

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

        y0 (V, 12); nominal (V, 6) for a constant-hold nominal or (V, H, 6)
        for a full sequence; references (V, 6) at the current time.  Returns
        (sequences (V, H, 6), costs (V,), feasible (V,)); sequence[:, 0] is
        the command to apply.
        """
        cfg = self.cfg
        n_v = y0.shape[0]
        h = cfg.horizon
        nominal = np.asarray(nominal, dtype=float)
        if nominal.ndim == 2:
            nominal = np.broadcast_to(nominal[:, None, :], (n_v, h, 6))
        center = np.clip(nominal, cfg.tau_lo, cfg.tau_hi).copy()

        steps = self.dt * np.arange(1, cfg.n_e + 1)[:, None]
        # first-order extrapolation of the references over the horizon
        ed_seq = ed_d[:, None, :] + edd_d[:, None, :] * steps
        e_seq = (
            e_d[:, None, :]
            + ed_d[:, None, :] * steps
            + 0.5 * edd_d[:, None, :] * steps**2
        )

        cost0, feas0 = self._evaluate(y0, t, center[:, None], ed_seq, e_seq)
        best_cost = cost0[:, 0]
        best_feasible = feas0[:, 0]
        center_feasible = best_feasible
        sel_cost = np.where(best_feasible, best_cost, np.inf)

        scale = cfg.perturb_scale
        rows = np.arange(n_v)
        for _ in range(cfg.rounds):
            noise = self.rng.standard_normal((n_v, cfg.candidate_count, h, 6)) * scale
            noise[:, 0] = 0.0  # keep the incumbent in every round
            cand = np.clip(center[:, None] + noise, cfg.tau_lo, cfg.tau_hi)
            smooth = _smooth_batch(cand, cfg)
            # Tracking cost is >= 0, so where the incumbent is feasible a
            # candidate whose smoothing cost alone reaches sel_cost cannot win.
            # Candidate 0 is the incumbent: its cost is already known.
            live = ~(np.isfinite(sel_cost)[:, None] & (smooth >= sel_cost[:, None]))
            live[:, 0] = False
            cost = np.full(smooth.shape, np.inf)
            feas = np.zeros(smooth.shape, dtype=bool)
            cost[:, 0] = best_cost
            feas[:, 0] = center_feasible
            vi, ci = np.nonzero(live)
            if vi.size:
                cost[vi, ci], feas[vi, ci] = self._evaluate_rows(
                    y0[vi], t, cand[vi, ci], ed_seq[vi], e_seq[vi], smooth[vi, ci]
                )
            masked = np.where(feas, cost, np.inf)
            pick = np.argmin(masked, axis=1)
            improved = masked[rows, pick] < sel_cost
            center = np.where(improved[:, None, None], cand[rows, pick], center)
            sel_cost = np.where(improved, masked[rows, pick], sel_cost)
            best_cost = np.where(improved, cost[rows, pick], best_cost)
            center_feasible = np.where(improved, feas[rows, pick], center_feasible)
            best_feasible = best_feasible | feas[rows, pick]
            scale *= 0.5

        return center, best_cost, best_feasible

    def _predict(self, y0: np.ndarray, t: float, controls: np.ndarray):
        """Batched rollout: controls (B, H, 6) -> rates and poses (B, n_e, 6)."""
        n_e = self.cfg.n_e
        y = y0
        rates = np.empty(controls.shape[:-2] + (n_e, 6))
        poses = np.empty_like(rates)
        for k in range(n_e):
            y = advance_plant(
                y, t + k * self.dt, controls[..., k, :], self.dt,
                self.params_est, self.flow_sampler, self.dist_model,
            )
            rates[..., k, :] = np.einsum(
                "...ij,...j->...i", jacobian(y[..., 3:6]), y[..., 6:]
            )
            poses[..., k, :] = y[..., :6]
        return rates, poses

    def _evaluate(self, y0, t, candidates, ed_seq, e_seq):
        """Cost and feasibility for candidates (V, C, H, 6)."""
        n_v, n_c = candidates.shape[:2]
        cost, feasible = self._evaluate_rows(
            np.repeat(y0, n_c, axis=0), t, candidates.reshape(n_v * n_c, -1, 6),
            np.repeat(ed_seq, n_c, axis=0), np.repeat(e_seq, n_c, axis=0),
            _smooth_batch(candidates, self.cfg).reshape(-1),
        )
        return cost.reshape(n_v, n_c), feasible.reshape(n_v, n_c)

    def _evaluate_rows(self, y0, t, controls, ed_seq, e_seq, smooth):
        """Cost and feasibility per row: y0 (B, 12), controls (B, H, 6),
        references (B, n_e, 6) and smoothing costs (B,)."""
        cfg = self.cfg
        rates, poses = self._predict(y0, t, controls)
        cost = _cost_batch(rates, ed_seq, smooth)
        err = poses - e_seq
        err[..., 3:] = wrap_angle(err[..., 3:])
        feasible = np.all((err >= cfg.state_lo) & (err <= cfg.state_hi), axis=(-1, -2))
        return cost, feasible
