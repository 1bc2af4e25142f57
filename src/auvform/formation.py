"""Leader trajectory generation and rigid leader-follower references.

The leader tracks an analytic path (spiral, straight line, or waypoint
chain) with yaw tangent to the horizontal motion.  Followers track slots
rigidly attached to the leader's actual pose: a fixed displacement in the
leader's yaw frame plus a relative yaw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .vehicle import wrap_angle


@dataclass
class FollowerOffset:
    """Body-frame slot of one follower relative to the leader."""

    xyz: np.ndarray
    yaw: float = 0.0

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=float)


@dataclass
class FormationSpec:
    """Follower slots; the default pair forms a triangle behind the leader."""

    offsets: list[FollowerOffset] = field(
        default_factory=lambda: [
            FollowerOffset(np.array([-2.0, 1.5, 0.0])),
            FollowerOffset(np.array([-2.0, -1.5, 0.0])),
        ]
    )

    def validate(self) -> None:
        if any(o.xyz.shape != (3,) for o in self.offsets):
            raise ValueError("each formation offset xyz needs 3 entries")
        pts = [tuple(o.xyz) + (o.yaw,) for o in self.offsets]
        if len(set(pts)) != len(pts):
            raise ValueError("formation offsets must be distinct")

    @property
    def n_vehicles(self) -> int:
        return len(self.offsets) + 1


@dataclass
class TrajectorySpec:
    """Leader path. kind selects which parameter group applies.

    spiral: circle of `radius` about `center` at `angular_rate`, drifting
    vertically at `vertical_rate`; `phase` sets the start angle.
    line: from `start` at constant `velocity`.
    waypoints: piecewise-linear chain visited at constant `speed`.
    """

    kind: str = "spiral"
    duration: float = 50.0
    center: np.ndarray = field(default_factory=lambda: np.array([40.0, 40.0, -8.0]))
    radius: float = 8.0
    angular_rate: float = 0.1
    vertical_rate: float = -0.04
    phase: float = 0.0
    start: np.ndarray = field(default_factory=lambda: np.array([10.0, 40.0, -5.0]))
    velocity: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.0, 0.0]))
    waypoints: np.ndarray | None = None
    speed: float = 0.5

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.start = np.asarray(self.start, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.waypoints is not None:
            self.waypoints = np.asarray(self.waypoints, dtype=float)

    def validate(self) -> None:
        if self.kind not in ("spiral", "line", "waypoints"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        for name in ("center", "start", "velocity"):
            if getattr(self, name).shape != (3,):
                raise ValueError(f"trajectory {name} needs 3 entries")
        if self.kind == "spiral" and self.radius <= 0:
            raise ValueError("spiral radius must be positive")
        if self.kind == "waypoints":
            pts = self.waypoints
            if pts is None or pts.shape[1:] != (3,) or len(pts) < 2:
                raise ValueError("waypoint trajectory needs at least 2 points of 3 entries")
            if self.speed <= 0:
                raise ValueError("waypoint speed must be positive")
            advances = np.diff(_segments(self)[1]) > 0
            if not advances.all():
                i = int(np.argmin(advances))
                raise ValueError(
                    f"waypoints must not repeat: points_m[{i}] and points_m[{i + 1}] "
                    "make a zero-length segment"
                )


def _spiral(t: float, spec: TrajectorySpec):
    w = spec.angular_rate
    a = w * t + spec.phase
    r = spec.radius
    pos = spec.center + np.array(
        [r * np.cos(a), r * np.sin(a), spec.vertical_rate * t]
    )
    vel = np.array([-r * w * np.sin(a), r * w * np.cos(a), spec.vertical_rate])
    acc = np.array([-r * w * w * np.cos(a), -r * w * w * np.sin(a), 0.0])
    # horizontal tangent: psi = a + pi/2 (for positive angular rate)
    psi = a + (np.pi / 2 if w >= 0 else -np.pi / 2)
    return pos, vel, acc, psi, w, 0.0


def _line(t: float, spec: TrajectorySpec):
    pos = spec.start + spec.velocity * t
    vel = spec.velocity
    psi = (
        np.arctan2(vel[1], vel[0]) if np.hypot(vel[0], vel[1]) > 1e-12 else 0.0
    )
    return pos, vel, np.zeros(3), psi, 0.0, 0.0


def _segments(spec: TrajectorySpec) -> tuple[np.ndarray, np.ndarray]:
    """Waypoint segment vectors and the time each waypoint is reached."""
    seg = np.diff(spec.waypoints, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    return seg, np.concatenate([[0.0], np.cumsum(lengths / spec.speed)])


def _waypoints(t: float, spec: TrajectorySpec):
    pts = spec.waypoints
    seg, times = _segments(spec)
    tt = min(t, times[-1])
    i = int(np.searchsorted(times, tt, side="right") - 1)
    i = min(i, len(seg) - 1)
    frac = (tt - times[i]) / (times[i + 1] - times[i])
    pos = pts[i] + frac * seg[i]
    vel = seg[i] / (times[i + 1] - times[i]) if t < times[-1] else np.zeros(3)
    psi = (
        np.arctan2(seg[i][1], seg[i][0])
        if np.hypot(seg[i][0], seg[i][1]) > 1e-12
        else 0.0
    )
    return pos, vel, np.zeros(3), psi, 0.0, 0.0


def leader_reference(
    t: float, spec: TrajectorySpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Desired pose, rate and acceleration at time t; yaw tangent to the path."""
    if not 0.0 <= t <= spec.duration:
        raise ValueError(f"t={t} outside [0, {spec.duration}]")
    if spec.kind == "spiral":
        pos, vel, acc, psi, psid, psidd = _spiral(t, spec)
    elif spec.kind == "line":
        pos, vel, acc, psi, psid, psidd = _line(t, spec)
    else:
        pos, vel, acc, psi, psid, psidd = _waypoints(t, spec)
    e_d = np.concatenate([pos, [0.0, 0.0, wrap_angle(psi)]])
    ed_d = np.concatenate([vel, [0.0, 0.0, psid]])
    edd_d = np.concatenate([acc, [0.0, 0.0, psidd]])
    return e_d, ed_d, edd_d


def follower_reference(
    leader_eta: np.ndarray, leader_etadot: np.ndarray, offset: FollowerOffset
) -> tuple[np.ndarray, np.ndarray]:
    """Desired pose/rate of a follower slot rigidly attached to the leader.

    Position: leader position + Rz(leader yaw) offset; the rate follows by
    the chain rule through the leader's yaw rate.  Desired roll/pitch are
    zero; desired yaw is the leader's yaw plus the slot's relative yaw.
    """
    leader_eta = np.asarray(leader_eta, dtype=float)
    leader_etadot = np.asarray(leader_etadot, dtype=float)
    psi = leader_eta[5]
    psid = leader_etadot[5]
    c, s = np.cos(psi), np.sin(psi)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    drz = np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])
    pos = leader_eta[:3] + rz @ offset.xyz
    vel = leader_etadot[:3] + psid * (drz @ offset.xyz)
    e_d = np.concatenate([pos, [0.0, 0.0, wrap_angle(psi + offset.yaw)]])
    ed_d = np.concatenate([vel, [0.0, 0.0, psid]])
    return e_d, ed_d


def tracking_error(
    eta: np.ndarray, etadot: np.ndarray, e_d: np.ndarray, ed_d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """eps = e - e_d (angle axes wrapped) and eps_dot = e_dot - ed_d, batched."""
    eps = np.asarray(eta, dtype=float) - np.asarray(e_d, dtype=float)
    eps = np.concatenate(
        [eps[..., :3], wrap_angle(eps[..., 3:])], axis=-1
    )
    deps = np.asarray(etadot, dtype=float) - np.asarray(ed_d, dtype=float)
    return eps, deps
