"""Leader trajectory generation and rigid leader-follower references.

The leader tracks an analytic path (spiral, straight line, or waypoint
chain) with yaw tangent to the horizontal motion.  Followers track slots
rigidly attached to the leader's actual pose: a fixed displacement in the
leader's yaw frame plus a relative yaw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._frozen import freeze, read_only
from .vehicle import wrap_angle


@dataclass(frozen=True)
class FollowerOffset:
    """Body-frame slot of one follower relative to the leader."""

    xyz: np.ndarray
    yaw: float = 0.0

    def __post_init__(self):
        freeze(self, xyz=(3,))


@dataclass(frozen=True)
class FormationSpec:
    """Follower slots; the default pair forms a triangle behind the leader."""

    offsets: tuple[FollowerOffset, ...] = (
        FollowerOffset(np.array([-2.0, 1.5, 0.0])),
        FollowerOffset(np.array([-2.0, -1.5, 0.0])),
    )

    def __post_init__(self):
        freeze(self)
        object.__setattr__(self, "offsets", tuple(self.offsets))
        pts = [tuple(o.xyz) + (o.yaw,) for o in self.offsets]
        if len(set(pts)) != len(pts):
            raise ValueError("formation offsets must be distinct")

    @property
    def n_vehicles(self) -> int:
        return len(self.offsets) + 1

    @cached_property
    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, 3) slot displacements and (F,) relative yaws, one row per follower."""
        xyz = np.reshape([o.xyz for o in self.offsets], (-1, 3))
        return read_only(xyz), read_only([o.yaw for o in self.offsets])


@dataclass(frozen=True)
class TrajectorySpec:
    """Leader path. kind selects which parameter group applies.

    spiral: circle of `radius` about `center` at `angular_rate`, drifting
    vertically at `vertical_rate`; `phase` sets the start angle.
    line: from `start` at constant `velocity`.
    waypoints: piecewise-linear chain visited at constant `speed`.
    """

    kind: str = "spiral"
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
        freeze(self, center=(3,), start=(3,), velocity=(3,), waypoints=None)
        if self.kind not in ("spiral", "line", "waypoints"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.kind == "spiral" and not self.radius > 0:
            raise ValueError("spiral radius must be positive")
        if self.kind == "waypoints":
            pts = self.waypoints
            if pts is None or pts.shape[1:] != (3,) or len(pts) < 2:
                raise ValueError("waypoint trajectory needs at least 2 points of 3 entries")
            if not self.speed > 0:
                raise ValueError("waypoint speed must be positive")
            advances = np.diff(self.segments[1]) > 0
            if not advances.all():
                i = int(np.argmin(advances))
                raise ValueError(
                    f"waypoints must not repeat: points_m[{i}] and points_m[{i + 1}] "
                    "make a zero-length segment"
                )

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Waypoint segment vectors and the time each waypoint is reached."""
        seg = np.diff(self.waypoints, axis=0)
        lengths = np.linalg.norm(seg, axis=1)
        return seg, np.concatenate([[0.0], np.cumsum(lengths / self.speed)])


def _spiral(t: np.ndarray, spec: TrajectorySpec, refs: np.ndarray) -> np.ndarray:
    w = spec.angular_rate
    a = w * t + spec.phase
    r = spec.radius
    cos_a, sin_a = np.cos(a), np.sin(a)
    refs[:, 0, :3] = spec.center + np.stack([r * cos_a, r * sin_a, spec.vertical_rate * t], -1)
    refs[:, 1, 0] = -r * w * sin_a
    refs[:, 1, 1] = r * w * cos_a
    refs[:, 1, 2] = spec.vertical_rate
    refs[:, 2, 0] = -r * w * w * cos_a
    refs[:, 2, 1] = -r * w * w * sin_a
    refs[:, 1, 5] = w
    # horizontal tangent: psi = a + pi/2 (for positive angular rate)
    return a + (np.pi / 2 if w >= 0 else -np.pi / 2)


def _heading(vx, vy):
    """Yaw of a horizontal direction; 0 where it has no horizontal part."""
    return np.where(np.hypot(vx, vy) > 1e-12, np.arctan2(vy, vx), 0.0)


def _line(t: np.ndarray, spec: TrajectorySpec, refs: np.ndarray) -> np.ndarray:
    vel = spec.velocity
    refs[:, 0, :3] = spec.start + vel * t[:, None]
    refs[:, 1, :3] = vel
    return _heading(vel[0], vel[1])


def _waypoints(t: np.ndarray, spec: TrajectorySpec, refs: np.ndarray) -> np.ndarray:
    pts = spec.waypoints
    seg, times = spec.segments
    tt = np.minimum(t, times[-1])
    i = np.minimum(np.searchsorted(times, tt, side="right") - 1, len(seg) - 1)
    span = times[i + 1] - times[i]
    frac = (tt - times[i]) / span
    refs[:, 0, :3] = pts[i] + frac[:, None] * seg[i]
    refs[:, 1, :3] = np.where((t < times[-1])[:, None], seg[i] / span[:, None], 0.0)
    return _heading(seg[i, 0], seg[i, 1])


_PATHS = {"spiral": _spiral, "line": _line, "waypoints": _waypoints}


def leader_reference(t: float | np.ndarray, spec: TrajectorySpec) -> np.ndarray:
    """Desired pose, rate and acceleration rows (..., 3, 6) at the times t; yaw tangent to the path.

    t is one time >= 0 or an array of them; one time gives the (3, 6) rows
    [e_d, ed_d, edd_d] of a one-entry array.  The path has no end: a spiral
    or line goes on, and a waypoint chain parks at its last point.
    """
    t = np.asarray(t, dtype=float)
    times = t.reshape(-1)
    bad = ~(times >= 0.0)
    if bad.any():
        raise ValueError(f"t={times[bad][0]} is not a time >= 0")
    refs = np.zeros(times.shape + (3, 6))
    refs[:, 0, 5] = wrap_angle(_PATHS[spec.kind](times, spec, refs))
    return refs.reshape(t.shape + (3, 6))


def follower_references(
    leader_eta: np.ndarray, leader_etadot: np.ndarray, formation: FormationSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Desired poses/rates, one (F, 6) row per slot rigidly attached to the leader.

    Position: leader position + Rz(leader yaw) offset; the rate follows by
    the chain rule through the leader's yaw rate.  Desired roll/pitch are
    zero; desired yaw is the leader's yaw plus the slot's relative yaw.
    rz @ xyz[..., None] gives each row the bits of a single 3x3 @ 3 product.
    """
    psi = leader_eta[5]
    psid = leader_etadot[5]
    c, s = np.cos(psi), np.sin(psi)
    rz = np.array((c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)).reshape(3, 3)
    drz = np.array((-s, -c, 0.0, c, -s, 0.0, 0.0, 0.0, 0.0)).reshape(3, 3)
    xyz, yaw = formation.slots
    e_d, ed_d = np.zeros((2, len(yaw), 6))
    e_d[:, :3] = leader_eta[:3] + (rz @ xyz[..., None])[..., 0]
    e_d[:, 5] = wrap_angle(psi + yaw)
    ed_d[:, :3] = leader_etadot[:3] + psid * (drz @ xyz[..., None])[..., 0]
    ed_d[:, 5] = psid
    return e_d, ed_d


def tracking_error(
    eta: np.ndarray, etadot: np.ndarray, e_d: np.ndarray, ed_d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """eps = e - e_d (angle axes wrapped) and eps_dot = e_dot - ed_d, batched."""
    eps = np.subtract(eta, e_d)
    eps[..., 3:] = wrap_angle(eps[..., 3:])
    return eps, np.subtract(etadot, ed_d)
