"""Fixed-step closed-loop simulator for the leader-follower formation.

One step per vehicle runs: references -> tracking errors -> sliding surface
-> equivalent + adaptive control -> MPC clip of the command -> thrust
allocation -> plant advance (plant.advance_plant: one RK4 step, disturbance
inside the derivative) -> adaptation update.  The plant advance is fourth
order in dt (acceptance criterion 9); the closed loop, with its held command
and Euler integral and adaptation updates, is first order.  All vehicles are
advanced together as stacked arrays, with or without the MPC shell.  The
shell's predicted cost feeds nothing back into the loop, so run computes it
after the loop from the logged rows, batched over many steps (see run).  The
leader's actual state feeds the follower references within the same step.

Runs are deterministic for a given scenario: nothing in a run draws random
numbers, so Scenario.seed changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ._frozen import freeze, read_only
from ._numpy_fast import clip as _clip
from .controller import (
    AdaptiveGains,
    ControllerState,
    SuperTwistGains,
    SurfaceConfig,
    adaptive_control,
    adaptive_update,
    assumption_holds,
    equivalent_control,
    first_order_smc,
    lyapunov_value,
    reference_accel,
    reference_rate,
    sliding_surface,
    validate_gains,
)
from .flow import DisturbanceModel, FlowParams, LayeredField, disturbance_force, layered_velocity
from .formation import (
    FormationSpec,
    TrajectorySpec,
    follower_references,
    leader_reference,
    tracking_error,
)
from .mpc import MpcConfig, MpcShell
from .plant import advance_plant
from .thrusters import ThrusterConfig, allocate, body_to_wrench5, wrench5_to_body
from .vehicle import (
    PITCH_SINGULARITY_TOL,
    RigidBodyParams,
    euler_pose,
    inertial_matrices,
    inertial_rates,
    jacobian_inv,
    reference_dynamics,
    wrap_angle,
)

AXES = ("x", "y", "z")


class SimulationAbort(RuntimeError):
    """Run stopped on a non-finite or singular state; carries the partial log."""

    def __init__(self, message: str, partial_log: "SimLog | None" = None):
        super().__init__(message)
        self.partial_log = partial_log


@dataclass(frozen=True)
class ControllerConfig:
    """Controller variant and gains applied to every vehicle.

    The proposed law (equivalent control plus the continuous adaptive term)
    runs unless baseline selects the first-order sliding-mode comparison.
    """

    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    gains: SuperTwistGains = field(default_factory=SuperTwistGains)
    adaptive: AdaptiveGains = field(default_factory=AdaptiveGains)
    baseline: bool = False
    baseline_lam: float = 2.1
    baseline_w: float | None = None  # None: disturbance clamp when flow is on

    def __post_init__(self):
        freeze(self)
        problems = validate_gains(self.gains)
        if not self.baseline_lam > 0:
            problems.append(f"baseline_lam must be positive: got {self.baseline_lam}")
        if self.baseline_w is not None and not self.baseline_w >= 0:
            problems.append(f"baseline_w_n must be nonnegative or null: got {self.baseline_w}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class FlowConfig:
    """Current model and its coupling into vehicle forces.

    The plant and the MPC shell take the enabled config as their one `flow`
    argument, or None with the flow off.
    """

    params: FlowParams = field(default_factory=FlowParams)
    layers: LayeredField = field(default_factory=LayeredField)
    disturbance: DisturbanceModel = field(default_factory=DisturbanceModel)
    enabled: bool = True

    def __post_init__(self):
        freeze(self)

    def velocity(self, pos: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """The current (..., 3) at inertial positions pos (..., 3) and time(s) t."""
        return layered_velocity(pos[..., 0], pos[..., 1], pos[..., 2], t, self.layers, self.params)


@dataclass(frozen=True)
class Scenario:
    """Complete description of one run.

    The fleet is homogeneous: all vehicles share rigid-body and thruster
    parameters.  initial_states holds one [eta, nu] 12-vector per vehicle;
    None starts every vehicle exactly on its reference.
    Every config in the tree is validated when built and is immutable;
    derive a variant with dataclasses.replace.
    """

    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    formation: FormationSpec = field(default_factory=FormationSpec)
    vehicle: RigidBodyParams = field(
        default_factory=lambda: RigidBodyParams(mismatch_factor=0.9)
    )
    thrusters: ThrusterConfig = field(default_factory=ThrusterConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    dt: float = 0.01
    duration: float = 50.0
    seed: int = 0
    convergence_threshold: float = 0.1
    initial_states: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        # each state converted first, so a ragged one is named by its index
        if self.initial_states is not None:
            object.__setattr__(
                self, "initial_states",
                tuple(_state_vector(i, s) for i, s in enumerate(self.initial_states)),
            )
        freeze(self)
        self.validate()

    def validate(self) -> None:
        """The run-level checks; each sub-config checked itself when built."""
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.duration >= self.dt:
            raise ValueError("duration must be at least one step")
        if abs(round(self.duration / self.dt) * self.dt - self.duration) > 1e-9 * self.duration:
            raise ValueError(
                f"duration must be a whole number of steps: got {self.duration} at dt {self.dt}"
            )
        if not self.seed >= 0:
            raise ValueError("seed must be nonnegative")
        if not self.convergence_threshold > 0:
            raise ValueError("convergence threshold must be positive")
        if self.initial_states is not None:
            if len(self.initial_states) != self.n_vehicles:
                raise ValueError("initial_states length must match vehicle count")

    @property
    def n_vehicles(self) -> int:
        return self.formation.n_vehicles


def _state_vector(i: int, state) -> np.ndarray:
    """initial_states[i] as a read-only finite 12-vector; a ValueError naming it otherwise."""
    try:
        vec = read_only(state)
    except (TypeError, ValueError):
        vec = np.empty(0)  # fails the shape check below
    if vec.shape != (12,) or not np.isfinite(vec).all():
        raise ValueError(f"initial_states[{i}] must be a finite [eta, nu] 12-vector, got {state}")
    return vec


def _series(*columns: str, dtype=float, fill=0.0):
    """A SimLog field after t: its timeseries.csv columns, one per entry of a
    vehicle's row (one column: a scalar per vehicle), its dtype and its fill."""
    return field(metadata={"columns": columns, "dtype": dtype, "fill": fill})


def _per_axis(name: str):
    """A 6-vector field whose columns are name_x .. name_psi."""
    return _series(*(f"{name}_{axis}" for axis in ("x", "y", "z", "phi", "theta", "psi")))


@dataclass
class SimLog:
    """Per-step time series; axis 0 is the step, axis 1 the vehicle.

    Vehicle 0 is the leader.  u1/u2 are the raw controller terms, u_cmd the
    post-MPC command, u_t the allocated thrusts; flow and dist are sampled at
    the step start, and lyap/assumption are the stability diagnostics.  Each
    field after t declares its timeseries.csv columns, which give its shape.
    """

    t: np.ndarray
    eta: np.ndarray = _per_axis("eta")
    nu: np.ndarray = _series("nu_u", "nu_v", "nu_w", "nu_p", "nu_q", "nu_r")
    eps: np.ndarray = _per_axis("eps")
    deps: np.ndarray = _per_axis("deps")
    sigma: np.ndarray = _per_axis("sigma")
    u1: np.ndarray = _per_axis("u1")
    u2: np.ndarray = _per_axis("u2")
    u_cmd: np.ndarray = _per_axis("u_cmd")
    u_t: np.ndarray = _series("u_t1_n", "u_t2_n", "u_t3_n")
    f_est: np.ndarray = _per_axis("f_est")
    lyap: np.ndarray = _series("lyapunov")
    assumption: np.ndarray = _series("assumption", dtype=bool, fill=False)
    flow: np.ndarray = _series("flow_u_mps", "flow_v_mps", "flow_w_mps")
    dist: np.ndarray = _per_axis("dist")
    mpc_cost: np.ndarray = _series("mpc_cost", fill=np.nan)

    @property
    def n_steps(self) -> int:
        return len(self.t)

    @property
    def n_vehicles(self) -> int:
        return self.eta.shape[1]

    @classmethod
    def allocate(cls, n_records: int, n_vehicles: int) -> "SimLog":
        def filled(meta) -> np.ndarray:
            width = len(meta["columns"])
            shape = (n_records, n_vehicles) + ((width,) if width > 1 else ())
            return np.full(shape, meta["fill"], dtype=meta["dtype"])

        return cls(t=np.zeros(n_records), **{f.name: filled(f.metadata) for f in fields(cls)[1:]})

    def truncated(self, n: int) -> "SimLog":
        return SimLog(
            **{k: getattr(self, k)[:n] for k in self.__dataclass_fields__}
        )


@dataclass
class Metrics:
    """Per-axis error statistics over the post-convergence window."""

    t_c: float
    speed_min: np.ndarray
    speed_max: np.ndarray
    speed_rmse: np.ndarray
    pos_min: np.ndarray
    pos_max: np.ndarray
    pos_rmse: np.ndarray


class SimRuntime:
    """Mutable state of one running scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.params = scenario.vehicle
        # run values that meet the step's arrays, as 0-d operands
        alpha = scenario.vehicle.mismatch_factor
        self.alpha, self.one_minus_alpha = read_only(alpha), read_only(1.0 - alpha)
        self.dt = read_only(scenario.dt)
        self.pitch_limit = read_only(np.pi / 2 - PITCH_SINGULARITY_TOL)
        self.flow = scenario.flow if scenario.flow.enabled else None
        n_v = scenario.n_vehicles
        self.n_steps = round(scenario.duration / scenario.dt)
        self.times = np.arange(self.n_steps + 1) * scenario.dt  # each record's time
        # [e_d, ed_d, edd_d] by step and vehicle: the leader's at each record's time;
        # _references writes the followers' rows
        self.refs = np.zeros((3, self.n_steps + 1, n_v, 6))
        self.refs[:, :, 0] = leader_reference(self.times, scenario.trajectory).swapaxes(0, 1)
        self.y = self._initial_states()
        self.cstate = ControllerState(
            integral_eps=np.zeros((n_v, 6)),
            f_est=np.zeros((n_v, 6)),
            adaptive=scenario.controller.adaptive,
        )
        self.prev_f_tilde: np.ndarray | None = None
        self.step_index = 0
        self.shell = None
        if scenario.mpc.enabled:
            self.shell = MpcShell(scenario.mpc, self.params, self.flow, scenario.dt)
        w = scenario.controller.baseline_w
        if w is None:
            w = scenario.flow.disturbance.force_clamp if scenario.flow.enabled else 1.0
        self.baseline_w = w

    def _initial_states(self) -> np.ndarray:
        sc = self.scenario
        if sc.initial_states is not None:
            return np.array(sc.initial_states)
        e_d, ed_d = self.refs[:2, 0].copy()
        e_d[1:], ed_d[1:] = follower_references(e_d[0], ed_d[0], sc.formation)
        nu = (jacobian_inv(euler_pose(e_d[:, 3:])) @ ed_d[..., None])[..., 0]
        return np.concatenate([e_d, nu], axis=1)


def _references(rt: SimRuntime, eta: np.ndarray, etadot: np.ndarray) -> np.ndarray:
    """Write the step's follower rows of rt.refs (edd_d as ed_d's difference from the row
    before, 0 at step 0); returns the step's (3, V, 6) view."""
    k = rt.step_index
    ref = rt.refs[:, k]
    ref[0, 1:], ref[1, 1:] = follower_references(eta[0], etadot[0], rt.scenario.formation)
    if k:
        ref[2, 1:] = (ref[1, 1:] - rt.refs[1, k - 1, 1:]) / rt.dt
    return ref


def _control_and_diagnostics(rt: SimRuntime):
    """The record at the current state, keyed by SimLog field; mutates integral state.

    Its u_cmd is the command applied: u1 + u2, roll zeroed, through the
    shell's clip when the shell is on.  The pose's trig, rotation and T^-1
    are evaluated once (euler_pose) and shared by the control laws' J^T,
    the rates J q, the inertial-frame matrices and the disturbance wrench
    (R nu1 of the rates).
    """
    sc = rt.scenario
    ctr = sc.controller
    eta = rt.y[:, :6]
    nu = rt.y[:, 6:]
    if (np.abs(eta[:, 4]) >= rt.pitch_limit).any():
        raise SimulationAbort("pitch reached the transform singularity")

    pose = euler_pose(eta[:, 3:])
    etadot = inertial_rates(pose, nu)
    e_d, ed_d, edd_d = _references(rt, eta, etadot)
    eps, deps = tracking_error(eta, etadot, e_d, ed_d)

    _, _, lo, hi = ctr.surface.operands
    rt.cstate.integral_eps = _clip(rt.cstate.integral_eps + eps * rt.dt, lo, hi)
    integral = rt.cstate.integral_eps

    sigma = sliding_surface(eps, deps, integral, ctr.surface)
    ed_r = reference_rate(ed_d, eps, integral, ctr.surface)
    edd_r = reference_accel(edd_d, eps, deps, ctr.surface)

    mats_h = inertial_matrices(pose, nu, rt.params, scale=rt.alpha)
    m_e_h, c_e_h, _, _ = mats_h
    f_hat_r = reference_dynamics(mats_h, edd_r, ed_r, etadot)
    f_est, gains = rt.cstate.f_est, rt.cstate.adaptive

    if ctr.baseline:
        u1 = first_order_smc(sigma, f_hat_r, pose, rt.baseline_w, ctr.baseline_lam)
        u2 = np.zeros_like(u1)
    else:
        u1 = equivalent_control(sigma, f_hat_r, pose, ctr.gains)
        u2 = adaptive_control(sigma, f_est, gains, c_e_h, pose)
    u_cmd = u1 + u2
    u_cmd[:, 3] = 0.0  # roll is not actuated
    if rt.shell is not None:
        u_cmd = rt.shell.clip(u_cmd)

    # stability diagnostics against the computable truth
    f_r_true = f_hat_r / rt.alpha
    if rt.flow is not None:
        flow_v = rt.flow.velocity(eta[:, :3], rt.times[rt.step_index])
        d_o = disturbance_force(flow_v, etadot[:, :3], pose[1], rt.flow.disturbance)
    else:
        flow_v = np.zeros((sc.n_vehicles, 3))
        d_o = np.zeros((sc.n_vehicles, 6))
    f_tilde = rt.one_minus_alpha * f_r_true + d_o
    w_vec = f_est - f_tilde
    if rt.prev_f_tilde is None:
        f_tilde_dot = np.zeros_like(f_tilde)
    else:
        f_tilde_dot = (f_tilde - rt.prev_f_tilde) / rt.dt
    rt.prev_f_tilde = f_tilde

    m_e = m_e_h / rt.alpha
    m_tilde = rt.one_minus_alpha * m_e
    lyap = lyapunov_value(sigma, w_vec, m_e, gains.gamma_pinv)
    assumption = assumption_holds(
        sigma, w_vec, f_tilde_dot, m_tilde, gains.k_gain, gains.gamma_pinv
    )

    return {
        "eta": eta,
        "nu": nu,
        "eps": eps,
        "deps": deps,
        "sigma": sigma,
        "u1": u1,
        "u2": u2,
        "u_cmd": u_cmd,
        "flow": flow_v,
        "dist": d_o,
        "lyap": lyap,
        "assumption": assumption,
        "f_est": f_est,
    }


def step(rt: SimRuntime) -> dict:
    """Advance the runtime one step; returns the record logged at step start.

    Order: control and MPC clip -> allocation -> plant advance -> adaptation.
    The plant advance is one advance_plant call over the fleet's rows with
    the true model; its k1 reuses the disturbance the diagnostics built at
    (y, t) for the log.  The record is _control_and_diagnostics's with u_t
    added; it has no mpc_cost, which run fills in after the loop.
    """
    sc = rt.scenario
    n_v = sc.n_vehicles
    rec = _control_and_diagnostics(rt)
    u5 = body_to_wrench5(rec["u_cmd"])
    u_t = np.empty((n_v, 3))
    for v in range(n_v):
        u_t[v], _ = allocate(u5[v], sc.thrusters)
    tau6 = wrench5_to_body((sc.thrusters.tcm @ u_t.T).T)
    rec["u_t"] = u_t

    t = rt.times[rt.step_index]
    rt.y = advance_plant(rt.y, t, tau6, sc.dt, rt.params, rt.flow, rec["dist"])
    rt.y[:, 3:6] = wrap_angle(rt.y[:, 3:6])
    if not np.isfinite(rt.y).all():
        raise SimulationAbort("state became non-finite")

    rt.cstate.f_est = adaptive_update(rt.cstate.f_est, rt.cstate.adaptive, rec["sigma"], sc.dt)

    rt.step_index += 1
    return rec


_COST_CHUNK_STEPS = 128  # steps rolled out per batch after the loop; bounds their memory


def run(scenario: Scenario) -> SimLog:
    """Simulate the whole scenario; returns duration/dt + 1 records.

    The last row, one step past the last advance, logs the command a further
    step would apply; its u_t keeps the zero fill.

    With the shell on, each step's mpc_cost is computed after the loop, or
    on SimulationAbort for the rows kept in the partial log: the held-command
    rollout from the step's logged state (eta, nu) at its time t, holding
    its u_cmd, with k1 using its logged dist, scored against the step's
    reference rate and acceleration in rt.refs.  _COST_CHUNK_STEPS steps'
    rows go through one rollout at a time.
    """
    rt = SimRuntime(scenario)
    n_steps = rt.n_steps
    log = SimLog.allocate(n_steps + 1, scenario.n_vehicles)
    log.t[:] = rt.times
    try:
        for k in range(n_steps + 1):
            rec = step(rt) if k < n_steps else _control_and_diagnostics(rt)
            for name, value in rec.items():  # mpc_cost keeps its NaN until _predicted_costs
                getattr(log, name)[k] = value
    except SimulationAbort as exc:
        _predicted_costs(rt, log, rt.step_index)
        raise SimulationAbort(str(exc), log.truncated(rt.step_index)) from exc
    _predicted_costs(rt, log, n_steps)
    return log


def _predicted_costs(rt: SimRuntime, log: SimLog, n: int) -> None:
    """Write the shell's predicted cost of steps 0..n-1 to their rows of log.mpc_cost."""
    if rt.shell is None:
        return
    v = log.n_vehicles
    y0 = np.concatenate([log.eta[:n], log.nu[:n]], axis=-1).reshape(-1, 12)
    t0 = np.repeat(log.t[:n], v)
    u, d_o, ed_d, edd_d = (x[:n].reshape(-1, 6) for x in (log.u_cmd, log.dist, *rt.refs[1:]))
    cost = log.mpc_cost[:n].reshape(-1)
    for a in range(0, n * v, _COST_CHUNK_STEPS * v):
        r = slice(a, a + _COST_CHUNK_STEPS * v)
        rates, _ = rt.shell.rollout(y0[r], t0[r], u[r], d_o[r])
        cost[r] = rt.shell.cost(rates, ed_d[r], edd_d[r])


def detect_convergence(log: SimLog, threshold: float) -> float | None:
    """Earliest time after which every position-error stays below threshold.

    Returns None when the errors keep crossing the threshold to the end.
    """
    if log.n_steps == 0:
        raise ValueError("empty log")
    violating = (np.abs(log.eps[:, :, :3]) >= threshold).any(axis=(1, 2))
    if not violating.any():
        return 0.0
    last = int(np.max(np.nonzero(violating)[0]))
    if last == log.n_steps - 1:
        return None
    return float(log.t[last + 1])


def compute_metrics(log: SimLog, t_c: float) -> Metrics:
    """Per-axis min/max/RMSE of position and speed errors over [t_c, end]."""
    if t_c is None or not (log.t[0] <= t_c <= log.t[-1]):
        raise ValueError("t_c outside the logged range")
    window = log.t >= t_c - 1e-12
    eps = np.abs(log.eps[window][:, :, :3])
    deps = np.abs(log.deps[window][:, :, :3])
    if eps.size == 0:
        raise ValueError("empty metrics window")
    return Metrics(
        t_c=float(t_c),
        speed_min=deps.min(axis=(0, 1)),
        speed_max=deps.max(axis=(0, 1)),
        speed_rmse=np.sqrt(np.mean(deps**2, axis=(0, 1))),
        pos_min=eps.min(axis=(0, 1)),
        pos_max=eps.max(axis=(0, 1)),
        pos_rmse=np.sqrt(np.mean(eps**2, axis=(0, 1))),
    )


def phase_trajectory(log: SimLog, axis: str, vehicle: int = 0) -> np.ndarray:
    """Ordered (position error, speed error) pairs for one axis and vehicle."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    i = AXES.index(axis)
    return np.column_stack([log.eps[:, vehicle, i], log.deps[:, vehicle, i]])
