"""Meandering-jet current model: stream function, analytic velocity, layering.

The jet is an eastward stream with a north-south meander.  Its stream
function in jet coordinates (xj, yj) at time t is

    C(xj, yj, t) = 1 - tanh[(yj - B(t) cos(k (xj - c t)))
                            / sqrt(1 + k^2 B(t)^2 sin^2(k (xj - c t)))]
    B(t) = b0 + e_amp cos(omega t + theta0)

and the velocity components are U = -dC/dyj, V = +dC/dxj, implemented
analytically and checked against finite differences in the tests.

The workspace-facing field places the jet inside the simulation volume
(affine map from world xy to jet coordinates), splits the depth range into
horizontal layers with fixed speed ratios, and rescales so the strongest
(surface) layer peaks at `speed_cap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._frozen import freeze, read_only
from ._numpy_fast import ONE
from ._numpy_fast import clip as _clip
from ._numpy_fast import einsum as _einsum

# Supremum of the raw jet speed sqrt(U^2 + V^2) with the default parameters,
# found by dense scan over one joint space/time period (observed 1.013953);
# rounded up so the scaled surface-layer speed never exceeds the cap.  It
# depends only on (b0, e_amp, k), so FlowParams keeps those at
# their defaults (at b0 = 0.5, k = 2 the supremum is about 1.205).
RAW_SPEED_MAX = 1.014

# layer_index's integer operands: the surface layer and the outside-the-box mark
_SURFACE_LAYER = read_only(0, dtype=int)
_NO_LAYER = read_only(-1, dtype=int)


@dataclass(frozen=True)
class FlowParams:
    """Stream-function parameters (defaults from the jet model)."""

    b0: float = 1.2
    e_amp: float = 0.3
    omega: float = 0.4
    theta0: float = np.pi / 2
    c: float = 0.12
    k: float = 0.82

    def __post_init__(self):
        freeze(self)
        normalised = (FlowParams.b0, FlowParams.e_amp, FlowParams.k)
        if (self.b0, self.e_amp, self.k) != normalised:
            raise ValueError(
                f"b0, e_amp and wavenumber must keep their defaults {normalised}: "
                f"RAW_SPEED_MAX = {RAW_SPEED_MAX} normalises the raw jet speed "
                "for those values only"
            )


@dataclass(frozen=True)
class LayeredField:
    """Depth layering and placement of the jet inside the workspace.

    The depth range [z_bottom, z_top] is split into len(layer_scale) equal
    bands; layer_scale[0] is the surface (strongest) band.  Default ratios follow
    |V_c1| = 2.4 |V_c2| = 4 |V_c3|.  jet_origin/jet_scale place and stretch
    the jet coordinates over the workspace so the meander crosses the
    operating area instead of hugging a 1-2 m band.  x_range and y_range are
    the workspace box's [min, max] along x and y; outside it the flow is zero.
    """

    z_top: float = 0.0
    z_bottom: float = -20.0
    layer_scale: tuple[float, ...] = (1.0, 1.0 / 2.4, 0.25)
    speed_cap: float = 0.5
    jet_origin: tuple[float, float] = (0.0, 52.0)
    jet_scale: float = 18.0
    x_range: tuple[float, float] = (0.0, 80.0)
    y_range: tuple[float, float] = (0.0, 80.0)

    def __post_init__(self):
        freeze(self, layer_scale=None, jet_origin=(2,), x_range=(2,), y_range=(2,))
        scale = self.layer_scale
        if not (scale.ndim == 1 and scale.size and scale.min() >= 0.0):
            raise ValueError(f"layer_scale must be nonempty and nonnegative: {scale}")
        for name in ("layer_scale", "jet_origin", "x_range", "y_range"):
            object.__setattr__(self, name, tuple(getattr(self, name).tolist()))
        if not self.z_bottom < self.z_top:
            raise ValueError("z_bottom must be below z_top")
        if not self.speed_cap >= 0:
            raise ValueError("speed_cap must be nonnegative")
        if not self.jet_scale > 0:
            raise ValueError("jet_scale must be positive")
        if not (self.x_range[0] < self.x_range[1] and self.y_range[0] < self.y_range[1]):
            raise ValueError(
                f"workspace bounds must be ordered (min < max on x and y), got "
                f"x_range {self.x_range}, y_range {self.y_range}"
            )

    @property
    def n_layers(self) -> int:
        return len(self.layer_scale)

    @cached_property
    def box_operands(self) -> tuple[np.ndarray, ...]:
        """layer_index's 0-d operands: x_min, x_max, y_min, y_max, z_bottom, z_top,
        the depth z_top - z_bottom, n_layers as a float and the deepest layer index."""
        bounds = (*self.x_range, *self.y_range, self.z_bottom, self.z_top)
        return (*map(read_only, bounds), read_only(self.z_top - self.z_bottom),
                read_only(self.n_layers), read_only(self.n_layers - 1, dtype=int))

    @cached_property
    def jet_operands(self) -> tuple[np.ndarray, ...]:
        """layered_velocity's 0-d operands: the jet origin's x and y, jet_scale and speed_cap."""
        return tuple(map(read_only, (*self.jet_origin, self.jet_scale, self.speed_cap)))

    def layer_index(self, x, y, z):
        """Layer of each point, 0 = surface band; -1 marks a point outside the workspace box."""
        x_min, x_max, y_min, y_max, z_bottom, z_top, depth, n_layers, deepest = self.box_operands
        depth_frac = (z_top - z) / depth
        idx = np.floor(depth_frac * n_layers).astype(int)
        idx = _clip(idx, _SURFACE_LAYER, deepest)
        inside = (
            (z >= z_bottom) & (z <= z_top)
            & (x >= x_min) & (x <= x_max)
            & (y >= y_min) & (y <= y_max)
        )
        return np.where(inside, idx, _NO_LAYER)

    @cached_property
    def speed_scales(self) -> np.ndarray:
        """Raw-to-m/s speed scale per layer_index value (the last entry, 0, is index -1).

        layer_scale * speed_cap / RAW_SPEED_MAX, built on first use.
        """
        return read_only(
            np.asarray(self.layer_scale + (0.0,), dtype=float) * (self.speed_cap / RAW_SPEED_MAX)
        )


@dataclass(frozen=True)
class DisturbanceModel:
    """Quadratic-drag map from relative flow velocity to a bounded wrench.

    Horizontal force: clamp(drag_gain * |v_rel_xy| * v_rel_xy, +-force_clamp).
    Yaw moment: clamp(drag_gain_yaw * lateral body-frame slip, +-force_clamp).
    Roll, pitch and heave-force entries stay zero for this horizontal flow.
    """

    drag_gain: float = 40.0
    drag_gain_yaw: float = 5.0
    force_clamp: float = 20.0

    def __post_init__(self):
        freeze(self)
        if not self.force_clamp >= 0:
            raise ValueError("force_clamp must be nonnegative")
        if not (self.drag_gain >= 0 and self.drag_gain_yaw >= 0):
            raise ValueError("drag gains must be nonnegative")

    @cached_property
    def operands(self) -> tuple[np.ndarray, ...]:
        """disturbance_force's 0-d operands: drag_gain, drag_gain_yaw, -force_clamp, force_clamp."""
        clamp = self.force_clamp
        return tuple(map(read_only, (self.drag_gain, self.drag_gain_yaw, -clamp, clamp)))


def _jet_terms(x, y, t, p: FlowParams):
    """(b, cos phase, sin phase, num, den): each phase trig evaluated once.

    b and the other time-only products are scalars for one time t (arrays
    for per-row times), each converted once before it meets the points.
    """
    b = p.b0 + p.e_amp * np.cos(p.omega * t + p.theta0)
    phase = p.k * (x - np.asarray(p.c * t))
    cos_ph = np.cos(phase)
    sin_ph = np.sin(phase)
    num = y - np.asarray(b) * cos_ph
    den = np.sqrt(ONE + np.asarray(p.k**2 * b**2) * sin_ph**2)
    return b, cos_ph, sin_ph, num, den


def stream_function(x, y, t, p: FlowParams) -> np.ndarray:
    """Jet stream function; range (0, 2), equal to 1 on the meander centerline."""
    *_, num, den = _jet_terms(x, y, t, p)
    return ONE - np.tanh(num / den)


def flow_velocity(x, y, t, p: FlowParams) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (U, V) = (-dC/dy, dC/dx) of the stream function."""
    b, cos_ph, sin_ph, num, den = _jet_terms(x, y, t, p)
    f = num / den
    sech2 = ONE / np.cosh(f) ** 2
    dnum_dx = np.asarray(b * p.k) * sin_ph
    dden_dx = np.asarray(p.k**3 * b**2) * sin_ph * cos_ph / den
    df_dx = (dnum_dx * den - num * dden_dx) / den**2
    u = sech2 / den
    v = -sech2 * df_dx
    return u, v


def layered_velocity(x, y, z, t, fieldp: LayeredField, p: FlowParams) -> np.ndarray:
    """3-D current at world coordinates: layered, rescaled, capped horizontal flow."""
    origin_x, origin_y, jet_scale, cap = fieldp.jet_operands
    xj = (x - origin_x) / jet_scale
    yj = (y - origin_y) / jet_scale
    u, v = flow_velocity(xj, yj, t, p)

    # index -1 (outside the box) reads the scale 0.0
    scale = fieldp.speed_scales.take(fieldp.layer_index(x, y, z))
    out = np.empty(np.shape(u) + (3,))
    np.multiply(u, scale, out=out[..., 0])
    np.multiply(v, scale, out=out[..., 1])
    out[..., 2] = 0.0
    speed = np.hypot(out[..., 0], out[..., 1])
    over = speed > cap
    if over.any():
        shrink = np.where(over, cap / np.where(over, speed, ONE), ONE)
        uv = out[..., :2]
        np.multiply(uv, shrink[..., None], out=uv)
    return out


def disturbance_force(
    flow_vel: np.ndarray, vel_inertial: np.ndarray, rot: np.ndarray, model: DisturbanceModel
) -> np.ndarray:
    """Inertial disturbance wrench d_o = [C_x, C_y, 0, 0, 0, C_z], batched.

    rot is the body-to-inertial rotation of the pose (rotation_body_to_inertial)
    and vel_inertial the vehicle's inertial velocity R nu1, which the caller
    has already formed for the kinematics.
    """
    # a fresh C-ordered array, as the reduction below depends on the layout
    v_xy = np.subtract(flow_vel, vel_inertial, order="C")
    v_xy[..., 2] = 0.0
    # the Euclidean norm as np.linalg.norm computes it, without its wrapper
    mag = np.sqrt(np.add.reduce(v_xy * v_xy, axis=-1, keepdims=True))
    gain, gain_yaw, lo, hi = model.operands
    force = _clip(gain * mag * v_xy, lo, hi)

    # lateral slip in the body frame drives the yaw component
    v_body = _einsum("...ji,...j->...i", rot, v_xy)
    yaw = _clip(gain_yaw * v_body[..., 1], lo, hi)
    out = np.zeros(force.shape[:-1] + (6,))
    out[..., 0] = force[..., 0]
    out[..., 1] = force[..., 1]
    out[..., 5] = yaw
    return out
