"""Control bounds and predicted tracking cost around the sliding-mode command.

Each step clips the raw SMC command to [tau_lo, tau_hi] per axis; the
clipped command is the one applied.  The estimated vehicle model, rolled out
for n_e steps from the fleet's state holding that command, gives the logged
cost

    J = sum_k ||ed_pred(k) - ed_d(k)||^2        (k = 1..n_e)

and a feasibility flag: every predicted pose error stays inside
[state_lo, state_hi].

Rollouts are pipelined across steps.  Stage k of the rollout started at
step s advances from t_s + k dt, the same step as stage k - 1 of the one
started at s + 1, so at most n_e rollouts are in flight and the engine's one
plant advance per step carries the fleet and the next stage of each of them
(plant.advance_plant with a true and an estimated block of rows).  A
rollout's cost lands with its last stage, n_e - 1 steps after it started;
Rollouts.drain finishes the ones still in flight when a run ends.
MpcShell.solve rolls out one batch of vehicles through the same Rollouts
code, one stage per advance.  Nothing here draws random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numpy_fast import einsum as _einsum
from .flow import DisturbanceModel
from .plant import FlowSampler, advance_plant, flow_disturbance
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
        # offsets of the n_e predicted steps from the rollout's start
        self.steps = dt * np.arange(1, cfg.n_e + 1)[:, None]

    def clip(self, nominal: np.ndarray) -> np.ndarray:
        """The command to apply: nominal clipped to [tau_lo, tau_hi] per axis."""
        return np.clip(nominal, self.cfg.tau_lo, self.cfg.tau_hi)

    def cost(self, rates: np.ndarray, ed_d: np.ndarray, edd_d: np.ndarray) -> np.ndarray:
        """Tracking cost (B,) of predicted rates (B, n_e, 6) against the references.

        The reference rates are extrapolated to first order over the horizon
        from ed_d and edd_d (B, 6) at the rollout's start.
        """
        ed_seq = ed_d[:, None, :] + edd_d[:, None, :] * self.steps
        return np.sum((rates - ed_seq) ** 2, axis=(-1, -2))

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
        steps = self.steps
        e_seq = (
            e_d[:, None, :]
            + ed_d[:, None, :] * steps
            + 0.5 * edd_d[:, None, :] * steps**2
        )

        rates, poses = self._predict(y1, t, u)
        cost = self.cost(rates, ed_d, edd_d)
        err = poses - e_seq
        err[..., 3:] = wrap_angle(err[..., 3:])
        feasible = np.all((err >= cfg.state_lo) & (err <= cfg.state_hi), axis=(-1, -2))
        return np.repeat(u[:, None], cfg.n_e, axis=1), cost, feasible

    def _predict(self, y1: np.ndarray, t: float, u: np.ndarray):
        """Rollout from its first state y1 (B, 12) holding u (B, 6).

        Returns the inertial rates J q and the poses (B, n_e, 6) at
        t + dt, ..., t + n_e dt.  The stages run through Rollouts, one
        advance each, as they do in a run.
        """
        rollouts = Rollouts(self)
        flight = Flight(None, t, u)
        rollouts.land(y1, flight)
        rollouts.drain()
        return flight.rates, flight.poses


def _inertial_rates(y: np.ndarray) -> np.ndarray:
    """Inertial rates J q (rows, 6) of states y (rows, 12)."""
    # J q blockwise: R nu1 and T^-1 nu2
    eta2 = y[..., 3:6]
    trig = euler_trig(eta2)
    rates = np.empty(y.shape[:-1] + (6,))
    rates[..., :3] = _einsum(
        "...ij,...j->...i", rotation_body_to_inertial(eta2, trig), y[..., 6:9]
    )
    rates[..., 3:] = _einsum("...ij,...j->...i", body_rate_to_euler(eta2, trig), y[..., 9:])
    return rates


@dataclass
class Flight:
    """One held-command rollout: where it started and the stages landed so far.

    origin is the step whose log row takes the cost (None: no row does, as
    in MpcShell.solve, which scores the rates itself); t0 the start time;
    u (B, 6) the held command; ed_d and edd_d (B, 6) the references at t0.
    rates and poses (B, n_e, 6) fill one stage per landing.
    """

    origin: int | None
    t0: float
    u: np.ndarray
    ed_d: np.ndarray | None = None
    edd_d: np.ndarray | None = None
    stage: int = 0
    rates: np.ndarray | None = field(default=None, repr=False)
    poses: np.ndarray | None = field(default=None, repr=False)


class Rollouts:
    """The rollouts in flight, each one stage further per plant advance.

    Flights are held youngest first, with their current states stacked in
    the same order in y; the oldest is the next to complete.  costs collects
    (origin, cost) as rollouts complete.
    """

    def __init__(self, shell: MpcShell):
        self.shell = shell
        self.flights: list[Flight] = []
        self.y = np.empty((0, 12))
        self.costs: list[tuple[int, np.ndarray]] = []

    def stages(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows (y, t, u, d_o) of the next stage of every rollout in flight.

        Stage k of a rollout advances from t0 + k dt.  d_o is the disturbance
        at (y, t), sampled once over all the rows.
        """
        sh = self.shell
        if not self.flights:
            return self.y, np.empty(0), np.empty((0, 6)), np.empty((0, 6))
        t = np.concatenate([np.full(len(f.u), f.t0 + f.stage * sh.dt) for f in self.flights])
        u = np.concatenate([f.u for f in self.flights])
        if sh.flow_sampler is None:
            d_o = np.zeros((len(self.y), 6))
        else:
            d_o = flow_disturbance(self.y, t, sh.flow_sampler, sh.dist_model)
        return self.y, t, u, d_o

    def land(self, y: np.ndarray, fresh: Flight | None = None) -> None:
        """Take the states (rows, 12) one advance gave every rollout in flight.

        The rows are ordered as stages() gave them, led by the first state
        of fresh when a rollout started with that advance.  The rollout
        whose n_e-th stage this is completes and leaves the flight.
        """
        sh = self.shell
        n_e = sh.cfg.n_e
        if fresh is not None:
            fresh.rates = np.empty(fresh.u.shape[:-1] + (n_e, 6))
            fresh.poses = np.empty_like(fresh.rates)
            self.flights.insert(0, fresh)
        rates = _inertial_rates(y)
        end = 0
        for f in self.flights:
            rows = slice(end, end + len(f.u))
            f.rates[:, f.stage] = rates[rows]
            f.poses[:, f.stage] = y[rows, :6]
            f.stage += 1
            end = rows.stop
        if self.flights[-1].stage == n_e:
            done = self.flights.pop()
            end -= len(done.u)
            if done.origin is not None:
                self.costs.append((done.origin, sh.cost(done.rates, done.ed_d, done.edd_d)))
        self.y = y[:end]

    def drain(self) -> None:
        """Advance the rollouts in flight, stacked, until every one has completed."""
        sh = self.shell
        while self.flights:
            y, t, u, d_o = self.stages()
            self.land(advance_plant(
                y, t, u, sh.dt, sh.params_est, sh.flow_sampler, sh.dist_model, d_o
            ))
