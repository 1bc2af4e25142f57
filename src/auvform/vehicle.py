"""6-DOF AUV rigid-body model: kinematics, body/inertial dynamics, model split.

Frames: the inertial frame is earth-fixed with z up (water surface at z = 0,
sea floor at negative z).  The body frame has x forward, y starboard, z up,
aligned with the inertial frame at zero attitude.  Euler angles are ZYX
(roll phi, pitch theta, yaw psi).

Pose e = [x y z phi theta psi] lives in the inertial frame; velocity
q = [u v w p q r] in the body frame.  The two are related by e_dot = J(e) q.
Control wrenches tau are body-frame 6-vectors [X Y Z K M N]; the flow
disturbance d_o is inertial and enters the body dynamics as J^T d_o.

States and wrenches are plain float arrays with the 6-vector on the last
axis.  Every helper broadcasts over leading axes, so the one implementation
serves a single vehicle, the fleet (engine), and a batch of predictive
rollouts (MPC); the pitch singularity is checked by the caller.  The pose
transforms take the evaluated trig, euler_trig(eta2), or the evaluated pose,
euler_pose(eta2) = (trig, R, T^-1), never the angles, so one evaluation of
cos/sin serves every transform built at a pose, and restoring reads R's
bottom row.  Exactness: a speed-up keeps every contraction's operands and
every transcendental ufunc.  Measured with random positive-definite inertias:
a contiguous copy of a transposed 3x3 inertia block changes the one-row
matmul's bits (10 of 21 inertias), while the (3, 6) transposed views
[M11^T | M21^T] and [M12^T | M22^T] give the four 3x3 products' bits at every
batch size tried (1 to 384); and math.cosh and math.hypot differ from
np.cosh and np.hypot on some inputs.  A scalar operand may become a 0-d array
(the rule in _numpy_fast: the same float64 loop on the same values), except a
`**` exponent, which stays a Python scalar for numpy's square and sqrt fast
paths, and an integer operand, which becomes a 0-d integer array.  C(q) is one
gather, keeping the -0.0 that negating skew's zero diagonal leaves, and D(q)
one strided write of its diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._frozen import freeze, read_only
from ._numpy_fast import NEG_PI, ONE, PI, TWO_PI
from ._numpy_fast import einsum as _einsum

PITCH_SINGULARITY_TOL = 1e-6

# Index blocks of the 6-vectors.
POS = slice(0, 3)
ANG = slice(3, 6)

# Operands of the cross products a1 x nu2, a1 x nu1 and a2 x nu2 in
# w = [a1, a2, nu1, nu2], laid out for (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1}
# as four 9-blocks: a at i+1, b at i+2, a at i+2, b at i+1.
_NEXT = np.array([1, 2, 0])
_AFTER = np.array([2, 0, 1])
_A_AT = np.array([[0], [0], [3]])
_B_AT = np.array([[9], [6], [9]])
_CROSS_OPERANDS = np.concatenate(
    [(_A_AT + _NEXT).ravel(), (_B_AT + _AFTER).ravel(),
     (_A_AT + _AFTER).ravel(), (_B_AT + _NEXT).ravel()]
)


def _neg_skew_at(v: int, neg: int) -> np.ndarray:
    """Entries of -S(a) in [a1, a2, -a1, -a2, 0.0, -0.0], a at v and -a at neg."""
    return np.array([[13, v + 2, neg + 1], [neg + 2, 13, v], [v + 1, neg, 13]])


# C(q) = [[0, -S(a1)], [-S(a1), -S(a2)]] as one gather from [a1, a2, -a1, -a2, 0.0, -0.0];
# -S(a) keeps the -0.0 that negating skew's zero diagonal leaves
_SIGNED_ZEROS = np.array([0.0, -0.0])
_CORIOLIS_ENTRIES = np.block([
    [np.full((3, 3), 12), _neg_skew_at(0, 6)],
    [_neg_skew_at(0, 6), _neg_skew_at(3, 9)],
]).ravel()


def wrap_angle(a):
    """Wrap angles to (-pi, pi]."""
    w = (np.asarray(a) + PI) % TWO_PI - PI
    return np.where(w == NEG_PI, PI, w)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix, batched over leading axes: skew(a) @ b = a x b."""
    m = np.zeros(v.shape[:-1] + (3, 3))
    m[..., 0, 1] = -v[..., 2]
    m[..., 0, 2] = v[..., 1]
    m[..., 1, 0] = v[..., 2]
    m[..., 1, 2] = -v[..., 0]
    m[..., 2, 0] = -v[..., 1]
    m[..., 2, 1] = v[..., 0]
    return m


@dataclass(frozen=True)
class RigidBodyParams:
    """Rigid-body coefficients, plus the factor splitting true vs estimated model.

    inertia includes added mass.  Damping is diagonal linear+quadratic:
    D(q) = diag(d_linear_i + d_quad_i * |q_i|); the slender hull makes the
    crossflow (sway/heave) drag several times the surge drag.  Restoring is
    the metacentric roll/pitch moment of a bottom-heavy neutral vehicle with
    stiffness restoring_gain [N*m], plus an optional net buoyancy force [N]
    along inertial z.

    mismatch_factor in (0, 1] uniformly scales the true coefficients into the
    "estimated" model used by the controller; the remaining (1 - factor)
    share is the unknown dynamics the adaptive term has to absorb.
    """

    inertia: np.ndarray = field(
        default_factory=lambda: np.diag([30.0, 30.0, 30.0, 1.0, 5.0, 5.0])
    )
    d_linear: np.ndarray = field(
        default_factory=lambda: np.array([5.0, 25.0, 25.0, 2.0, 8.0, 8.0])
    )
    d_quad: np.ndarray = field(
        default_factory=lambda: np.array([10.0, 150.0, 150.0, 5.0, 20.0, 20.0])
    )
    restoring_gain: float = 30.0
    buoyancy_net: float = 0.0
    mismatch_factor: float = 1.0

    def __post_init__(self):
        freeze(self, inertia=(6, 6), d_linear=(6,), d_quad=(6,))
        if not np.allclose(self.inertia, self.inertia.T, atol=1e-12):
            raise ValueError("inertia must be symmetric")
        if not (np.linalg.eigvalsh(self.inertia) > 0).all():
            raise ValueError("inertia must be positive definite")
        if not ((self.d_linear >= 0).all() and (self.d_quad >= 0).all()):
            raise ValueError("damping coefficients must be nonnegative")
        if not 0.0 < self.mismatch_factor <= 1.0:
            raise ValueError("mismatch_factor must lie in (0, 1]")

    @cached_property
    def inertia_inv(self) -> np.ndarray:
        return read_only(np.linalg.inv(self.inertia))

    @cached_property
    def restoring_operands(self) -> tuple[np.ndarray, np.ndarray]:
        """restoring's 0-d operands: -buoyancy_net and restoring_gain."""
        return read_only(-self.buoyancy_net), read_only(self.restoring_gain)

    def estimated(self) -> "RigidBodyParams":
        """The hatted model: every coefficient scaled by mismatch_factor."""
        a = self.mismatch_factor
        return RigidBodyParams(
            inertia=a * self.inertia,
            d_linear=a * self.d_linear,
            d_quad=a * self.d_quad,
            restoring_gain=a * self.restoring_gain,
            buoyancy_net=a * self.buoyancy_net,
            mismatch_factor=1.0,
        )

    def damping(self, nu: np.ndarray) -> np.ndarray:
        """D(q) as a matrix, batched: diag(d_linear + d_quad * |q|)."""
        out = np.zeros(nu.shape[:-1] + (36,))
        out[..., ::7] = self.d_linear + self.d_quad * np.abs(nu)  # the flat diagonal
        return out.reshape(nu.shape[:-1] + (6, 6))

    def damping_force(self, nu: np.ndarray) -> np.ndarray:
        """D(q) @ q without materializing the matrix."""
        return (self.d_linear + self.d_quad * np.abs(nu)) * nu

    @cached_property
    def _inertia_blocks_t(self) -> tuple[np.ndarray, np.ndarray]:
        """[M11^T | M21^T] and [M12^T | M22^T] as (3, 6) views of the inertia.

        nu1 @ first + nu2 @ second is [a1, a2] = [M11 nu1 + M12 nu2, M21 nu1 + M22 nu2],
        with the bytes of the four blockwise 3x3 products.
        """
        m = self.inertia
        return m[:, :3].T, m[:, 3:].T

    def _momenta(self, nu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """[a1, a2] = M q split at the translational/rotational blocks, batched."""
        first, second = self._inertia_blocks_t
        return np.add(nu[..., POS] @ first, nu[..., ANG] @ second, out=out)

    def coriolis(self, nu: np.ndarray) -> np.ndarray:
        """Rigid-body/added-mass Coriolis matrix C(q), skew-symmetric, batched."""
        w = np.empty(nu.shape[:-1] + (14,))
        self._momenta(nu, out=w[..., 0:6])  # [a1, a2]
        np.negative(w[..., 0:6], out=w[..., 6:12])
        w[..., 12:] = _SIGNED_ZEROS
        return w.take(_CORIOLIS_ENTRIES, axis=-1).reshape(nu.shape[:-1] + (6, 6))

    def coriolis_force(self, nu: np.ndarray) -> np.ndarray:
        """C(q) @ q via cross products, avoiding the matrix build."""
        w = np.empty(nu.shape[:-1] + (12,))
        self._momenta(nu, out=w[..., 0:6])  # [a1, a2]
        w[..., 6:] = nu
        g = w.take(_CROSS_OPERANDS, axis=-1)
        cross = g[..., 0:9] * g[..., 9:18] - g[..., 18:27] * g[..., 27:36]
        # [-S(a1) nu2 ; -S(a1) nu1 - S(a2) nu2], S(a) x = a cross x
        out = -cross[..., :6]
        out[..., ANG] -= cross[..., 6:]
        return out

    def restoring(self, pose: tuple) -> np.ndarray:
        """Gravity/buoyancy vector g(e) in the body frame (left-hand side sign), from euler_pose."""
        (cphi, sphi, cth, sth, _, _), rot, _ = pose
        neg_buoyancy, gain = self.restoring_operands
        # g[POS] = -buoyancy_net * up_body, and up_body = [-sth, cth sphi, cth cphi]
        # is the bottom row of R, built from the same products
        g = np.empty(cphi.shape + (6,))
        np.multiply(neg_buoyancy, rot[..., 2, :], out=g[..., POS])
        np.multiply(gain * cth, sphi, out=g[..., 3])
        np.multiply(gain, sth, out=g[..., 4])
        g[..., 5] = 0.0
        return g


def euler_trig(eta2: np.ndarray) -> tuple[np.ndarray, ...]:
    """(cos phi, sin phi, cos theta, sin theta, cos psi, sin psi), batched.

    The pose functions below take this tuple as `trig` so that one
    evaluation serves every transform built at the same pose.
    """
    phi, theta, psi = eta2[..., 0], eta2[..., 1], eta2[..., 2]
    return (
        np.cos(phi), np.sin(phi), np.cos(theta), np.sin(theta), np.cos(psi), np.sin(psi)
    )


def rotation_body_to_inertial(trig: tuple) -> np.ndarray:
    """ZYX rotation matrix taking body-frame vectors to the inertial frame."""
    cphi, sphi, cth, sth, cpsi, spsi = trig
    cpsi_sth = cpsi * sth
    spsi_sth = spsi * sth
    m = np.empty(cphi.shape + (3, 3))
    # each entry is written by its last ufunc (out=), saving a copy per entry
    np.multiply(cpsi, cth, out=m[..., 0, 0])
    np.subtract(cpsi_sth * sphi, spsi * cphi, out=m[..., 0, 1])
    np.add(cpsi_sth * cphi, spsi * sphi, out=m[..., 0, 2])
    np.multiply(spsi, cth, out=m[..., 1, 0])
    np.add(spsi_sth * sphi, cpsi * cphi, out=m[..., 1, 1])
    np.subtract(spsi_sth * cphi, cpsi * sphi, out=m[..., 1, 2])
    np.negative(sth, out=m[..., 2, 0])
    np.multiply(cth, sphi, out=m[..., 2, 1])
    np.multiply(cth, cphi, out=m[..., 2, 2])
    return m


def euler_rate_to_body(trig: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """T(e): maps Euler-angle rates to body angular velocity, nu2 = T @ eta2_dot.

    out, when given, is a zero-filled (..., 3, 3) array (or view) that T is written into.
    """
    cphi, sphi, cth, sth = trig[:4]
    m = np.zeros(cphi.shape + (3, 3)) if out is None else out
    m[..., 0, 0] = 1.0
    np.negative(sth, out=m[..., 0, 2])
    m[..., 1, 1] = cphi
    np.multiply(cth, sphi, out=m[..., 1, 2])
    np.negative(sphi, out=m[..., 2, 1])
    np.multiply(cth, cphi, out=m[..., 2, 2])
    return m


def body_rate_to_euler(trig: tuple) -> np.ndarray:
    """Inverse of euler_rate_to_body: eta2_dot = T^-1 @ nu2."""
    cphi, sphi, cth, sth = trig[:4]
    tth = sth / cth
    m = np.zeros(cphi.shape + (3, 3))
    m[..., 0, 0] = 1.0
    np.multiply(sphi, tth, out=m[..., 0, 1])
    np.multiply(cphi, tth, out=m[..., 0, 2])
    m[..., 1, 1] = cphi
    np.negative(sphi, out=m[..., 1, 2])
    np.divide(sphi, cth, out=m[..., 2, 1])
    np.divide(cphi, cth, out=m[..., 2, 2])
    return m


def euler_pose(eta2: np.ndarray) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(euler_trig, R, T^-1) of a pose: one evaluation, which the J-family takes as `pose`."""
    trig = euler_trig(eta2)
    return trig, rotation_body_to_inertial(trig), body_rate_to_euler(trig)


def jacobian(pose: tuple) -> np.ndarray:
    """J(e) with eta_dot = J @ q, batched, from euler_pose(e)."""
    _, rot, t_inv = pose
    out = np.zeros(rot.shape[:-2] + (6, 6))
    out[..., :3, :3] = rot
    out[..., 3:, 3:] = t_inv
    return out


def inertial_rates(pose: tuple, nu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """eta_dot = J(e) q blockwise, [R nu1, T^-1 nu2], batched, from euler_pose(e).

    out, when given, is the (..., 6) array (or view) the rates are written into.
    """
    _, rot, t_inv = pose
    if out is None:
        out = np.empty(nu.shape)
    _einsum("...ij,...j->...i", rot, nu[..., POS], out=out[..., POS])
    _einsum("...ij,...j->...i", t_inv, nu[..., ANG], out=out[..., ANG])
    return out


def jacobian_inv(pose: tuple) -> np.ndarray:
    """Analytic inverse of J(e) (rotation transpose, Euler-rate matrix), from euler_pose(e)."""
    trig, rot, _ = pose
    out = np.zeros(rot.shape[:-2] + (6, 6))
    out[..., :3, :3] = rot.swapaxes(-1, -2)
    euler_rate_to_body(trig, out=out[..., 3:, 3:])
    return out


def jacobian_dot(pose: tuple, nu2: np.ndarray) -> np.ndarray:
    """Time derivative of J(e) along the motion, from the Euler-rate chain rule.

    Uses R_dot = R @ skew(nu2) for the rotation block and the phi/theta
    partials of the Euler-rate block, each entry written into the 6x6 result
    by its last ufunc; cos phi tan theta and sin phi tan theta are read from
    T^-1's first row.
    """
    trig, rot, t_inv = pose
    out = np.zeros(rot.shape[:-2] + (6, 6))
    np.matmul(rot, skew(nu2), out=out[..., :3, :3])

    cphi, sphi, cth, sth = trig[:4]
    sphi_tth, cphi_tth = t_inv[..., 0, 1], t_inv[..., 0, 2]
    sec2 = ONE / cth**2

    eta2_dot = _einsum("...ij,...j->...i", t_inv, nu2)
    phid = eta2_dot[..., 0]
    thd = eta2_dot[..., 1]

    ang_dot = out[..., 3:, 3:]
    np.add(cphi_tth * phid, sphi * sec2 * thd, out=ang_dot[..., 0, 1])
    np.add(-sphi_tth * phid, cphi * sec2 * thd, out=ang_dot[..., 0, 2])
    np.multiply(-sphi, phid, out=ang_dot[..., 1, 1])
    np.multiply(-cphi, phid, out=ang_dot[..., 1, 2])
    np.divide(cphi * phid + sphi * sth * thd / cth, cth, out=ang_dot[..., 2, 1])
    np.divide(-sphi * phid + cphi * sth * thd / cth, cth, out=ang_dot[..., 2, 2])
    return out


def acceleration_body(
    nu: np.ndarray,
    tau: np.ndarray,
    tau_c: np.ndarray,
    params: RigidBodyParams,
    pose: tuple,
) -> np.ndarray:
    """Body-frame acceleration q_dot = M^-1 (tau - tau_c - C q - D q - g), batched.

    pose is euler_pose of the pose angles, for the restoring term.
    A row gets the same bytes alone as inside a call of any size: BLAS takes
    its vector kernel for a one-row product, which rounds differently from
    the matrix kernel when M is not diagonal, so a lone row is multiplied as
    the first of two.
    """
    # tau - tau_c - C q - D q - g, left to right, in one array of the full broadcast shape
    rhs = np.subtract(tau, tau_c, out=np.empty(np.broadcast(tau, tau_c, nu).shape))
    rhs -= params.coriolis_force(nu)
    rhs -= params.damping_force(nu)
    rhs -= params.restoring(pose)
    rows = rhs.reshape(-1, 6)
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ params.inertia_inv.T)[0].reshape(rhs.shape)
    return (rows @ params.inertia_inv.T).reshape(rhs.shape)


def inertial_matrices(
    pose: tuple,
    nu: np.ndarray,
    params: RigidBodyParams,
    scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M_e, C_e, D_e, g_e) batched; `scale` yields the hatted (estimated) model.

    pose (euler_pose of the angles) serves J^-1, J_dot and g from one evaluation.

    M_e = J^-T M J^-1
    C_e = J^-T [C - M J^-1 J_dot] J^-1
    D_e = J^-T D J^-1
    g_e = J^-T g
    """
    jinv = jacobian_inv(pose)
    jinv_t = jinv.swapaxes(-1, -2)
    jdot = jacobian_dot(pose, nu[..., ANG])

    m = scale * params.inertia
    c = scale * params.coriolis(nu)
    d = scale * params.damping(nu)
    g = scale * params.restoring(pose)

    m_e = jinv_t @ m @ jinv
    c_e = jinv_t @ (c - m @ jinv @ jdot) @ jinv
    d_e = jinv_t @ d @ jinv
    g_e = _einsum("...ij,...j->...i", jinv_t, g)
    return m_e, c_e, d_e, g_e


def reference_dynamics(
    mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    eddot_r: np.ndarray,
    ed_r: np.ndarray,
    e_dot: np.ndarray,
) -> np.ndarray:
    """f_r = M_e ed2_r + C_e ed_r + D_e e_dot + g_e, batched.

    mats is the (M_e, C_e, D_e, g_e) tuple of inertial_matrices; built with
    scale = mismatch_factor it gives the controller's f_hat_r.
    """
    m_e, c_e, d_e, g_e = mats
    return (
        _einsum("...ij,...j->...i", m_e, eddot_r)
        + _einsum("...ij,...j->...i", c_e, ed_r)
        + _einsum("...ij,...j->...i", d_e, e_dot)
        + g_e
    )
