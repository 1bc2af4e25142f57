"""Equivalent three-thruster model: control matrix, wrench mapping, allocation.

Two inclined bow/stern units and one vertical unit replace the real
propeller-plus-fins arrangement.  The 5-DOF decoupled wrench is
[tau_u, tau_v, tau_r, tau_w, tau_q] paired with the pose [x, y, psi, z, theta];
roll is not actuated (tau_p = 0) and relies on the restoring moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType

import numpy as np

from ._frozen import freeze, read_only
from ._numpy_fast import clip as _clip

# rows of the 5-DOF wrench inside a 6-DOF body wrench [X Y Z K M N]
WRENCH5_TO_6 = np.array([0, 1, 5, 2, 4])

_COEFF_RANGES = {
    "k1": (0.2, 1.0),
    "k2": (0.2, 1.0),
    "k3": (-1.0, 1.0),
    "l1": (0.3, 1.0),
    "l2": (0.3, 1.0),
    "t1": (0.0, 1.0),
    "t2": (0.0, 1.0),
    "t3": (-0.5, 0.5),
    "t4": (-0.5, 0.5),
}


@dataclass(frozen=True)
class ThrusterConfig:
    """Share coefficients, moment arms [m] and the per-thruster force bound [N].

    The defaults were tuned for closed-loop stability of the inertial-frame
    wrench controller: t1 = t2 = 1 and k1 = k2 = 0.45 give the differential
    pair real sway authority, and the small negative r1/r2 place the yaw
    arms bow-side so a lateral force command turns the nose toward, not away
    from, the demanded direction (minimum-phase pairing).  Interval-midpoint
    shares with stern-side arms make the sway and yaw loops fight through
    the shared differential and diverge at cruise speed.

    Immutable, so B and its pseudo-inverses are built once, on first use;
    derive a variant with dataclasses.replace.
    """

    k1: float = 0.45
    k2: float = 0.45
    k3: float = 1.0
    l1: float = 0.65
    l2: float = 0.65
    t1: float = 1.0
    t2: float = 1.0
    t3: float = 0.25
    t4: float = 0.25
    r1: float = -0.1
    r2: float = -0.1
    r3: float = 0.4
    u_limit: float = 60.0

    def __post_init__(self):
        freeze(self)
        for name, (lo, hi) in _COEFF_RANGES.items():
            val = getattr(self, name)
            if not lo <= val <= hi:
                raise ValueError(f"thruster coefficient {name}={val} outside [{lo}, {hi}]")
        if not self.u_limit > 0:
            raise ValueError("u_limit must be positive")

    @cached_property
    def tcm(self) -> np.ndarray:
        """The thruster control matrix B of build_tcm."""
        return read_only(build_tcm(self))

    @cached_property
    def u_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-d thrust bounds -u_limit and u_limit."""
        return read_only(-self.u_limit), read_only(self.u_limit)

    @cached_property
    def _pseudo_inverses(self) -> tuple[np.ndarray, MappingProxyType]:
        """pinv(B), and a read-only table of pinv(B[:, free]) by each proper free mask's bytes."""
        b = self.tcm
        masks = np.array(list(product((False, True), repeat=b.shape[1])))[1:-1]
        free_pinv = {m.tobytes(): read_only(np.linalg.pinv(b[:, m])) for m in masks}
        return read_only(np.linalg.pinv(b)), MappingProxyType(free_pinv)


def build_tcm(cfg: ThrusterConfig) -> np.ndarray:
    """5x3 thruster control matrix mapping thruster forces to the wrench."""
    return np.array(
        [
            [cfg.k1 * cfg.l1, cfg.k2 * cfg.l2, 0.0],
            [-cfg.t1 * (1.0 - cfg.k1) * cfg.l1, cfg.t2 * (1.0 - cfg.k2) * cfg.l2, 0.0],
            [cfg.k1 * cfg.l1 * cfg.r1, -cfg.k2 * cfg.l2 * cfg.r2, 0.0],
            [0.0, 0.0, cfg.k3],
            [
                cfg.t3 * cfg.k1 * (1.0 - cfg.l1) * cfg.r3,
                cfg.t4 * cfg.k2 * (1.0 - cfg.l2) * cfg.r3,
                0.0,
            ],
        ]
    )


def allocate(tau: np.ndarray, cfg: ThrusterConfig) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares thrust allocation with saturation.

    Returns (u_t, residual) where residual = B_t u_t - tau reports the
    unreachable share of the command (nonzero for out-of-range wrenches or
    saturated thrusters).  Pseudo-inverse solve, clip, then one re-solve of
    the unsaturated thrusters against what the saturated ones left over.
    The pseudo-inverses are built once per cfg, every free set's at once.
    """
    b = cfg.tcm
    b_pinv, free_pinv = cfg._pseudo_inverses
    u = b_pinv @ tau
    lo, hi = cfg.u_bounds
    sat = np.abs(u) > hi
    if sat.any():
        u = _clip(u, lo, hi)
        free = ~sat
        if free.any():
            rem = tau - b[:, sat] @ u[sat]
            u[free] = free_pinv[free.tobytes()] @ rem
            u = _clip(u, lo, hi)
    residual = b @ u - tau
    return u, residual


def wrench5_to_body(tau5: np.ndarray) -> np.ndarray:
    """Expand the decoupled wrench to a 6-DOF body wrench with zero roll."""
    tau5 = np.asarray(tau5, dtype=float)
    out = np.zeros(tau5.shape[:-1] + (6,))
    out[..., WRENCH5_TO_6] = tau5
    return out


def body_to_wrench5(tau6: np.ndarray) -> np.ndarray:
    """Project a 6-DOF body wrench onto the actuated 5-DOF wrench (drops roll)."""
    return np.asarray(tau6, dtype=float)[..., WRENCH5_TO_6]
