"""Residual evaluators for the general 1+3 orthonormal-frame system.

Evolution equations are checked as residuals, provided e_0-derivative minus
equation right-hand side, so any candidate solution can be verified without
time integration.  Constraint equations are evaluated directly (they must
vanish).  All evaluators accept a batch of jets through ``JetArrays``, laid
out component-major with the batch axes last: scalar fields have shape S,
vectors (3,) + S, tensors (3, 3) + S, and every derivative array carries one
extra frame axis of length 4 in front of the component axes,
d*[a, ...] = e_a applied to the field.  S may be () for a single jet or
(N,) for a grid of them.

The equation blocks read those arrays directly, and every index contraction
goes through one fixed-index kernel: ``_outer``, ``_vt`` and ``_tv``
(vector-tensor products), ``_dot``, ``_tr``, ``_ddot``, ``_matvec``,
``_div`` (sums over one index), ``_mm`` and ``_mmT`` (3x3 products),
``_iso`` (s delta_ab), and ``_eps_vec`` and ``_eps_sym`` (the
permutation-symbol contractions, one signed difference of two slices per
output component).  Each kernel adds its terms in index order, and each
term is one numpy operation along the batch.  ``residual_report``
evaluates a batch in consecutive blocks of ``BLOCK_POINTS`` points
(views along the last batch axis), serially or on a thread pool; every
residual is pointwise, so neither changes the report.  The report's
arrays are batch-first: S + components.

Structural zeros.  On the conformally flat elastic jets large parts of the
state vanish identically (E = H = q = 0, n = omega = 0 on the ODE cases,
and a jet built on a z-grid has only e_3 derivatives), so many terms of
the general system are products with a factor that is zero everywhere.
``residual_report`` replaces every jet array with no nonzero entry by the
sentinel ``ZERO`` on a shallow copy of the jet, once per sweep, and the
kernels drop every term with a ``ZERO`` factor: ``x + ZERO`` is ``x``, and
a product, quotient, power, index or transpose of ``ZERO`` is ``ZERO``.
Adding or subtracting a zero changes no nonzero float, so skipping can
differ from the dense evaluation in two ways only: the sign of a zero
result (a result that is ``ZERO`` throughout is written as +0.0), and a
0 * inf = nan that is no longer formed.  So that a non-finite input still
fails the report, a jet with a non-finite entry is evaluated dense; what
is left is a product of finite fields that overflows inside a term with a
``ZERO`` factor, which the dense evaluation turns into nan and skipping
drops with the term.  No kernel writes into its operands, since
``x + ZERO`` returns ``x`` itself.

Residual norms are max-abs: a single violated component must not be
averaged away.
"""

from __future__ import annotations

import copy
import functools
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .core import (
    EPS,
    ConnectionState,
    DerivativeProvider,
    StateJet,
    SymThree,
    TracefreeSymThree,
    spatial_commutation_compose,
)

__all__ = [
    "JetArrays",
    "NonFiniteResidual",
    "ResidualReport",
    "b_tensor",
    "curly_S",
    "curly_R",
    "residual_report",
    "ZERO",
    "commutator_structure",
    "commutator_residual",
]

log = logging.getLogger(__name__)

ID3 = np.eye(3)

_SCALARS = ("mu", "p", "Lam", "Theta")
_VECTORS = ("q", "udot", "omega", "Omega", "a")
_TENSORS = ("pi", "sigma", "n", "E", "H")
# Lam is constant; it has no derivative slot.
_DERIV_FIELDS = tuple(f for f in _SCALARS + _VECTORS + _TENSORS if f != "Lam")


class JetArrays:
    """Struct-of-arrays form of one or many state jets, component-major.

    ``shape`` is the batch shape S, and the batch axes come last: scalars
    have shape S, vectors (3,) + S, tensors (3, 3) + S and derivatives
    (4,) + components + S.  For a single jet (S = ()) this is the plain
    component layout.  Built once per evaluation sweep; treat instances as
    frozen after assembly.
    """

    def __init__(self, shape: tuple[int, ...] = ()):
        self.shape = tuple(shape)
        for name in _SCALARS:
            setattr(self, name, np.zeros(self.shape))
        for name in _VECTORS:
            setattr(self, name, np.zeros((3,) + self.shape))
        for name in _TENSORS:
            setattr(self, name, np.zeros((3, 3) + self.shape))
        for name in _DERIV_FIELDS:
            setattr(self, "d" + name, np.zeros((4,) + getattr(self, name).shape))

    @classmethod
    def from_jet(cls, jet: StateJet) -> "JetArrays":
        jet.require_complete()
        ja = cls(())
        states = (jet.value,) + tuple(jet.deriv)
        for slot, st in enumerate(states):
            m, c, w = st.matter, st.connection, st.weyl
            values = {
                "mu": m.mu,
                "p": m.p,
                "Theta": c.Theta,
                "q": m.q.as_array(),
                "udot": c.udot.as_array(),
                "omega": c.omega.as_array(),
                "Omega": c.Omega.as_array(),
                "a": c.a.as_array(),
                "pi": m.pi.as_matrix(),
                "sigma": c.sigma.as_matrix(),
                "n": c.n.as_matrix(),
                "E": w.E.as_matrix(),
                "H": w.H.as_matrix(),
            }
            if slot == 0:
                for name, val in values.items():
                    getattr(ja, name)[...] = val
                ja.Lam[...] = m.Lam
            else:
                for name, val in values.items():
                    getattr(ja, "d" + name)[slot - 1] = val
        return ja

    def take(self, lo: int, hi: int) -> "JetArrays":
        """Points lo:hi along the last batch axis; the arrays are views and
        ``ZERO`` fields stay ``ZERO``."""
        sub = copy.copy(self)
        for name, arr in vars(self).items():
            if isinstance(arr, np.ndarray):
                setattr(sub, name, arr[..., lo:hi])
        # the batch shape of arr[..., lo:hi]; any field, mu too, may be ZERO
        sub.shape = self.shape[:-1] + (len(range(self.shape[-1])[lo:hi]),)
        return sub


def _as_arrays(jet) -> JetArrays:
    if isinstance(jet, JetArrays):
        return jet
    if isinstance(jet, StateJet):
        return JetArrays.from_jet(jet)
    raise TypeError(f"expected StateJet or JetArrays, got {type(jet).__name__}")


class _StructuralZero:
    """A jet array, or a term, that is zero at every point and component.

    ndarray operators defer to it (``__array_ufunc__ = None``), so the
    kernels below drop every term it enters: sums return the other operand
    itself, and products, quotients, powers, indexing and transposes return
    ``ZERO``.  ``x / ZERO`` and ufunc calls on it raise TypeError.
    """

    __array_ufunc__ = None
    __slots__ = ()

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return -other

    def __mul__(self, other):
        return self

    __rmul__ = __truediv__ = __pow__ = __mul__

    def __neg__(self):
        return self

    def __getitem__(self, index):
        return self

    def swapaxes(self, axis1, axis2):
        return self

    def __repr__(self):
        return "ZERO"


ZERO = _StructuralZero()


def _with_structural_zeros(ja: JetArrays) -> JetArrays:
    """A shallow copy of ``ja`` with each array that has no nonzero entry
    replaced by ``ZERO``.  ``ja`` itself if no array is zero, or if one has
    a non-finite entry, whose 0 * inf = nan terms must still be formed."""
    arrays = {name: arr for name, arr in vars(ja).items() if isinstance(arr, np.ndarray)}
    # a field with a nonzero entry nearly always has one among its first
    # points; testing those first spares the full scan of such arrays
    head = ja.take(0, 16) if ja.shape else ja
    zero = [name for name, arr in arrays.items()
            if not (getattr(head, name).any() or arr.any())]
    # an overflowing sum of finite entries also takes the dense path
    if not zero or not all(np.isfinite(arr.sum()) for name, arr in arrays.items()
                           if name not in zero):
        return ja
    sub = copy.copy(ja)
    for name in zero:
        setattr(sub, name, ZERO)
    return sub


# Contraction kernels on component-major arrays (component axes first, batch
# last).  Each writes its sum over a 3-wide index as explicit terms in index
# order, so every term is one numpy operation along the batch.

# (a, b, c) with eps_abc = +1; the partner (a, c, b) carries -1
_EPS_POS = tuple(
    (a, b, c) for a, b, c in zip(*(idx.tolist() for idx in np.nonzero(EPS)))
    if EPS[a, b, c] > 0
)


def _sym(T):
    return 0.5 * (T + T.swapaxes(0, 1))


def _iso(s):
    """s delta_ab."""
    return ZERO if s is ZERO else np.multiply.outer(ID3, s)


def _outer(u, v):
    """u_a v_b."""
    return u[:, None] * v[None, :]


def _vt(u, T):
    """u_g T_bd, as [g, b, d]."""
    return u[:, None, None] * T[None]


def _tv(T, v):
    """T_bg v_d, as [g, b, d]."""
    return T.swapaxes(0, 1)[:, :, None] * v[None, None]


def _dot(u, v):
    """u_a v_a."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _tr(A):
    """A_aa."""
    return A[0, 0] + A[1, 1] + A[2, 2]


def _ddot(A, B):
    """A_ab B_ab, as the sum over a of the row sums over b.

    This order, rather than one running sum over all nine terms, gives the
    einsum form's bits on the exact-metric test jets.
    """
    rows = A[:, 0] * B[:, 0] + A[:, 1] * B[:, 1] + A[:, 2] * B[:, 2]
    return rows[0] + rows[1] + rows[2]


def _matvec(A, v):
    """A_ab v_b."""
    return A[:, 0] * v[0] + A[:, 1] * v[1] + A[:, 2] * v[2]


def _mm(A, B):
    """A_ag B_gb."""
    return (A[:, 0, None] * B[None, 0] + A[:, 1, None] * B[None, 1]
            + A[:, 2, None] * B[None, 2])


def _mmT(A, B):
    """A_ag B_bg."""
    return (A[:, None, 0] * B[None, :, 0] + A[:, None, 1] * B[None, :, 1]
            + A[:, None, 2] * B[None, :, 2])


def _div(D):
    """D[b, a, b]: the divergence e_b(T_ab) of a spatial-gradient array."""
    return D[0, :, 0] + D[1, :, 1] + D[2, :, 2]


def _eps_vec(M):
    """eps_abc M_bc: each component is M_bc - M_cb for its cyclic (a, b, c)."""
    if M is ZERO:
        return ZERO
    out = np.empty(M.shape[1:])
    for a, b, c in _EPS_POS:
        np.subtract(M[b, c], M[c, b], out=out[a, ...])
    return out


def _eps_sym(inner):
    """Sym over (a, b) of eps_gda inner[g, b, d]."""
    if inner is ZERO:
        return ZERO
    T = np.empty(inner.shape[1:])
    for g, d, a in _EPS_POS:
        np.subtract(inner[g, :, d], inner[d, :, g], out=T[a])
    return _sym(T)


# ---------------------------------------------------------------------------
# auxiliary curvature quantities (field5)-(field7)
# ---------------------------------------------------------------------------


def _b_tensor_arr(n):
    return 2.0 * _mm(n, n) - _tr(n) * n


def b_tensor(n: SymThree) -> SymThree:
    """b_ab = 2 n_ag n^g_b - n^g_g n_ab."""
    return SymThree.from_matrix(_b_tensor_arr(n.as_matrix()))


def _curly_S_arr(c: JetArrays):
    grad_a = c.da[1:]  # e_alpha(a_beta)
    grad_n = c.dn[1:]  # e_gamma(n_{beta delta})
    b = _b_tensor_arr(c.n)
    div_a = _tr(grad_a)
    inner = grad_n - 2.0 * _vt(c.a, c.n)
    S = (
        _sym(grad_a)
        + b
        - _iso(div_a + _tr(b)) / 3.0
        - _eps_sym(inner)
    )
    # the assembled trace is an index-convention self-check; project it away
    pre_trace = _tr(S)
    S = S - _iso(pre_trace) / 3.0
    return S, pre_trace


def curly_S(jet) -> TracefreeSymThree:
    """Trace-free 3-curvature source of the shear evolution equation."""
    S, pre_trace = _curly_S_arr(_as_arrays(jet))
    worst = float(np.max(np.abs(pre_trace))) if pre_trace.size else float(pre_trace)
    if worst > 1e-14 * max(1.0, float(np.max(np.abs(S))) if S.size else 0.0):
        log.debug("curly_S pre-projection trace %.3e", worst)
    if S.ndim == 2:
        return TracefreeSymThree.project(SymThree.from_matrix(S))
    raise ValueError("curly_S returns a typed tensor for single jets only")


def _curly_R_arr(c: JetArrays):
    grad_a = c.da[1:]
    b = _b_tensor_arr(c.n)
    return 2.0 * (2.0 * _tr(grad_a) - 3.0 * _dot(c.a, c.a)) - 0.5 * _tr(b)


def curly_R(jet) -> float:
    """Spatial curvature scalar *R = 2(2 e_a - 3 a_a)(a^a) - b^a_a / 2."""
    return float(_curly_R_arr(_as_arrays(jet)))


# ---------------------------------------------------------------------------
# Einstein field equations (field1)-(field4)
# ---------------------------------------------------------------------------


def _efe_arr(c: JetArrays):
    sigma2 = 0.5 * _ddot(c.sigma, c.sigma)
    omega2 = _dot(c.omega, c.omega)
    grad_udot = c.dudot[1:]  # e_alpha(udot_beta)

    # field1: Raychaudhuri
    rhs1 = (
        -c.Theta**2 / 3.0
        + _tr(grad_udot)
        + _dot(c.udot, c.udot)
        - 2.0 * _dot(c.a, c.udot)
        - 2.0 * sigma2
        + 2.0 * omega2
        - 0.5 * (c.mu + 3.0 * c.p)
        + c.Lam
    )
    res_theta = c.dTheta[0] - rhs1

    # field2: shear evolution.  The sign of the n-udot coupling is pinned by
    # exact-solution nullity: the rigidly rotating flat-space congruence
    # (vacuum, E = H = 0, with n_23 and udot_1 nonzero) satisfies the system
    # only with +eps n udot, so that sign is used here.
    S, _ = _curly_S_arr(c)
    scalar_part = (
        _tr(grad_udot)
        + _dot(c.udot, c.udot)
        + _dot(c.a, c.udot)
        + 2.0 * _dot(c.omega, c.Omega)
    )
    # inner[g, b, d] = 2 Omega_g sigma_bd + udot_g n_bd
    eps_term = _eps_sym(2.0 * _vt(c.Omega, c.sigma) + _vt(c.udot, c.n))
    rhs2 = (
        -c.Theta * c.sigma
        + _sym(grad_udot)
        + _outer(c.udot, c.udot)
        + _sym(_outer(c.a, c.udot))
        + 2.0 * _sym(_outer(c.omega, c.Omega))
        + c.pi
        - S
        - _iso(scalar_part) / 3.0
        + eps_term
    )
    res_sigma = c.dsigma[0] - rhs2

    # field3: Gauss (Friedmann) constraint
    gauss = (
        c.mu
        - c.Theta**2 / 3.0
        + sigma2
        - omega2
        - 2.0 * _dot(c.omega, c.Omega)
        - 0.5 * _curly_R_arr(c)
        + c.Lam
    )

    # field4: Codazzi (momentum) constraint
    dsig = c.dsigma[1:]  # e_gamma(sigma_{alpha beta})
    inner4 = (
        c.domega[1:]
        + 2.0 * _outer(c.udot, c.omega)
        - _outer(c.a, c.omega)
        + _mm(c.n, c.sigma)
    )
    codazzi = (
        _div(dsig)
        - 3.0 * _matvec(c.sigma, c.a)
        - (2.0 / 3.0) * c.dTheta[1:]
        + _matvec(c.n, c.omega)
        + c.q
        - _eps_vec(inner4)
    )
    return res_theta, res_sigma, gauss, codazzi


# ---------------------------------------------------------------------------
# Jacobi identities (jacobi1)-(jacobi5)
# ---------------------------------------------------------------------------


def _jacobi_arr(c: JetArrays):
    womO = c.omega - c.Omega
    dwomO = c.domega - c.dOmega

    # jacobi1: e_0(a)
    rhs_a = (
        -(c.dTheta[1:] + (c.udot + c.a) * c.Theta) / 3.0
        + 0.5 * (_div(c.dsigma[1:]) + _matvec(c.sigma, c.udot - 2.0 * c.a))
        - 0.5 * _eps_vec(dwomO[1:] + _outer(c.udot - 2.0 * c.a, womO))
    )
    res_a = c.da[0] - rhs_a

    # jacobi2: e_0(n)
    grad_w = dwomO[1:]  # e_alpha(omega - Omega)_beta
    inner = c.dsigma[1:] + _vt(c.udot, c.sigma) - 2.0 * _tv(c.n, womO)
    rhs_n = (
        -c.Theta * c.n / 3.0
        - (_sym(grad_w) + _sym(_outer(c.udot, womO)))
        + 2.0 * _sym(_mmT(c.sigma, c.n))
        + _iso(_tr(grad_w) + _dot(c.udot, womO))
        - _eps_sym(inner)
    )
    res_n = c.dn[0] - rhs_n

    # jacobi3: e_0(omega)
    inner3 = 0.5 * (c.dudot[1:] - _outer(c.a, c.udot)) + _outer(c.omega, c.Omega)
    rhs_w = (
        -(2.0 / 3.0) * c.Theta * c.omega
        + _matvec(c.sigma, c.omega)
        + 0.5 * _matvec(c.n, c.udot)
        - _eps_vec(inner3)
    )
    res_w = c.domega[0] - rhs_w

    # jacobi4: vector constraint
    j4 = (
        _div(c.dn[1:])
        - 2.0 * _matvec(c.n, c.a)
        - (2.0 / 3.0) * c.Theta * c.omega
        - 2.0 * _matvec(c.sigma, c.omega)
        + _eps_vec(c.da[1:] + 2.0 * _outer(c.omega, c.Omega))
    )

    # jacobi5: scalar constraint
    j5 = _tr(c.domega[1:]) - _dot(c.udot + 2.0 * c.a, c.omega)
    return res_a, res_n, res_w, j4, j5


# ---------------------------------------------------------------------------
# Bianchi identities (bianchi1)-(bianchi5) and the H-divergence identity
# ---------------------------------------------------------------------------


def _bianchi_arr(c: JetArrays):
    mu_p = c.mu + c.p
    trn = _tr(c.n)

    # bianchi1: energy conservation
    rhs_mu = (
        -mu_p * c.Theta
        - (_tr(c.dq[1:]) + 2.0 * _dot(c.udot - c.a, c.q))
        - _ddot(c.sigma, c.pi)
    )
    res_mu = c.dmu[0] - rhs_mu

    # bianchi2: momentum conservation
    inner2 = _outer(c.omega + c.Omega, c.q) + _mm(c.n, c.pi)
    rhs_q = (
        -(4.0 / 3.0) * c.Theta * c.q
        - c.dp[1:]
        - mu_p * c.udot
        - (_div(c.dpi[1:]) + _matvec(c.pi, c.udot - 3.0 * c.a))
        - _matvec(c.sigma, c.q)
        + _eps_vec(inner2)
    )
    res_q = c.dq[0] - rhs_q

    # bianchi3: e_0(E + pi/2)
    X = c.E - c.pi / 6.0
    Y = c.E + 0.5 * c.pi
    grad_q = c.dq[1:]
    inner3 = (
        c.dH[1:]
        + _vt(2.0 * c.udot - c.a, c.H)
        - _vt(c.omega - 2.0 * c.Omega, Y)
        + 0.5 * _tv(c.n, c.q)
    )
    rhs_E = (
        -0.5 * mu_p * c.sigma
        - c.Theta * (c.E + c.pi / 6.0)
        - 0.5 * (_sym(grad_q) + _sym(_outer(2.0 * c.udot + c.a, c.q)))
        + 3.0 * _sym(_mmT(c.sigma, X))
        + 0.5 * trn * c.H
        + _iso(
            0.5 * (_tr(grad_q) + _dot(2.0 * c.udot + c.a, c.q))
            - 3.0 * _ddot(c.sigma, X)
            + 3.0 * _ddot(c.n, c.H)
        )
        / 3.0
        + _eps_sym(inner3)
        - 3.0 * _sym(_mmT(c.n, c.H))
    )
    res_E = c.dE[0] + 0.5 * c.dpi[0] - rhs_E

    # bianchi4: e_0(H)
    Z = c.E - 0.5 * c.pi
    inner4 = (
        c.dE[1:]
        - 0.5 * c.dpi[1:]
        - _vt(c.a, Z)
        + 2.0 * _vt(c.udot, c.E)
        - 0.5 * _tv(c.sigma, c.q)
        + _vt(c.omega - 2.0 * c.Omega, c.H)
    )
    rhs_H = (
        -c.Theta * c.H
        + 3.0 * _sym(_mmT(c.sigma, c.H))
        - 1.5 * _sym(_outer(c.omega, c.q))
        - 0.5 * trn * Z
        + 3.0 * _sym(_mmT(c.n, Z))
        - _iso(_ddot(c.sigma, c.H) - 0.5 * _dot(c.omega, c.q) + _ddot(c.n, Z))
        - _eps_sym(inner4)
    )
    res_H = c.dH[0] - rhs_H

    # bianchi5: div E constraint
    inner5 = _mm(c.sigma, c.H) + 1.5 * _outer(c.omega, c.q) + _mm(c.n, Y)
    div_E = (
        _div(c.dE[1:] + 0.5 * c.dpi[1:])
        - 3.0 * _matvec(Y, c.a)
        - c.dmu[1:] / 3.0
        + c.Theta * c.q / 3.0
        - 0.5 * _matvec(c.sigma, c.q)
        + 3.0 * _matvec(c.H, c.omega)
        - _eps_vec(inner5)
    )

    # final identity: div H constraint
    inner6 = (
        0.5 * (c.dq[1:] - _outer(c.a, c.q))
        + _mm(c.sigma, Y)
        - _mm(c.n, c.H)
    )
    div_H = (
        _div(c.dH[1:])
        - 3.0 * _matvec(c.H, c.a)
        - mu_p * c.omega
        - 3.0 * _matvec(X, c.omega)
        - 0.5 * _matvec(c.n, c.q)
        + _eps_vec(inner6)
    )
    return res_mu, res_q, res_E, res_H, div_E, div_H


# ---------------------------------------------------------------------------
# the assembled report
# ---------------------------------------------------------------------------


class NonFiniteResidual(ValueError):
    """A residual came out NaN or infinite; the message names its block."""


@dataclass
class ResidualReport:
    """All residual blocks of the general system, possibly batched.

    Block arrays keep their tensor character; norms are max-abs over every
    component (and over the batch).
    """

    e0_theta: np.ndarray
    e0_sigma: np.ndarray
    gauss: np.ndarray
    codazzi: np.ndarray
    e0_a: np.ndarray
    e0_n: np.ndarray
    e0_omega: np.ndarray
    jacobi4: np.ndarray
    jacobi5: np.ndarray
    e0_mu: np.ndarray
    e0_q: np.ndarray
    e0_E_pi: np.ndarray
    e0_H: np.ndarray
    div_E: np.ndarray
    div_H: np.ndarray

    # report field: (block label, component shape)
    BLOCKS = {
        "e0_theta": ("field1", ()),
        "e0_sigma": ("field2", (3, 3)),
        "gauss": ("field3", ()),
        "codazzi": ("field4", (3,)),
        "e0_a": ("jacobi1", (3,)),
        "e0_n": ("jacobi2", (3, 3)),
        "e0_omega": ("jacobi3", (3,)),
        "jacobi4": ("jacobi4", (3,)),
        "jacobi5": ("jacobi5", ()),
        "e0_mu": ("bianchi1", ()),
        "e0_q": ("bianchi2", (3,)),
        "e0_E_pi": ("bianchi3", (3, 3)),
        "e0_H": ("bianchi4", (3, 3)),
        "div_E": ("bianchi5", (3,)),
        "div_H": ("divH", (3,)),
    }

    def __post_init__(self):
        for f in dataclass_fields(self):
            arr = np.asarray(getattr(self, f.name))
            if not np.all(np.isfinite(arr)):
                raise NonFiniteResidual(f"non-finite residual in block {f.name}")
            setattr(self, f.name, arr)

    def blocks(self):
        for f in dataclass_fields(self):
            yield self.BLOCKS[f.name][0], getattr(self, f.name)

    def block_norms(self) -> dict[str, float]:
        return {label: float(np.max(np.abs(arr))) for label, arr in self.blocks()}

    def max_residual(self) -> float:
        return max(self.block_norms().values())

    def block_point_max(self) -> dict[str, np.ndarray]:
        """Each block's max-abs over its components, per batch entry."""
        batch = self.e0_theta.shape
        return {label: np.max(np.abs(arr.reshape(batch + (-1,))), axis=-1)
                for label, arr in self.blocks()}

    def per_point_max(self, per_block: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Max-abs residual over every block, per batch entry.  ``per_block``
        is this report's ``block_point_max()`` when the caller already has it."""
        if per_block is None:
            per_block = self.block_point_max()
        return functools.reduce(np.maximum, per_block.values())


# points per evaluation block: a block's temporaries stay cache-sized
BLOCK_POINTS = 2048


def _report_arrays(ja: JetArrays) -> tuple:
    return _efe_arr(ja) + _jacobi_arr(ja) + _bianchi_arr(ja)


def _pool_size(workers: int, blocks: int, cpus: int | None) -> int:
    """Threads for a block sweep: at most one per block and one per CPU."""
    return max(1, min(workers, blocks, cpus or 1))


def residual_report(jet, workers: int = 1) -> ResidualReport:
    """Evaluate every block of the general system on a jet or jet batch.

    A batch of shape (N,) is evaluated in consecutive blocks of
    BLOCK_POINTS points (``JetArrays.take`` views), serially or on up to
    ``workers`` threads; other batch shapes are evaluated in one piece.
    Every residual is pointwise, so the report is the same for any block
    size and any ``workers``.  Fields that are zero throughout are skipped
    (see the module docstring); ``jet`` itself is left as it is.
    """
    ja = _with_structural_zeros(_as_arrays(jet))
    n = ja.shape[0] if len(ja.shape) == 1 else 0
    if n <= BLOCK_POINTS:
        return _gather(ja.shape, [(..., _report_arrays(ja))])
    starts = range(0, n, BLOCK_POINTS)
    errors = np.geterr()  # pool threads start from numpy's default error state

    def block(lo):
        hi = lo + BLOCK_POINTS
        with np.errstate(**errors):
            return slice(lo, hi), _report_arrays(ja.take(lo, hi))

    threads = _pool_size(workers, len(starts), os.cpu_count())
    if threads == 1:
        return _gather(ja.shape, map(block, starts))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _gather(ja.shape, pool.map(block, starts))


def _gather(shape: tuple, pieces) -> ResidualReport:
    """Write the component-major kernel results of each (batch index,
    results) piece into batch-first arrays of batch shape ``shape``; a
    ``ZERO`` result leaves the zeros the array starts with."""
    out = [np.zeros(shape + comp) for _, comp in ResidualReport.BLOCKS.values()]
    k = len(shape)
    for index, arrays in pieces:
        for dst, src in zip(out, arrays):
            if src is not ZERO:
                dst[index] = np.moveaxis(src, range(-k, 0), range(k))
    return ResidualReport(*out)


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


def commutator_structure(c: ConnectionState) -> np.ndarray:
    """Structure functions gamma^c_{ab} of the frame, [e_a, e_b] = gamma^c_{ab} e_c.

    Returned as gamma[c, a, b] with a, b, c in 0..3, antisymmetric in (a, b).
    """
    gamma = np.zeros((4, 4, 4))
    udot = c.udot.as_array()
    womO = c.omega.as_array() - c.Omega.as_array()
    sigma = c.sigma.as_matrix()
    spatial = spatial_commutation_compose(c.a, c.n)

    # [e_0, e_alpha] block
    gamma[0, 0, 1:] = udot
    coeff = c.Theta * ID3 / 3.0 + sigma + np.einsum("big,g->bi", EPS, womO)
    gamma[1:, 0, 1:] = -coeff
    gamma[:, 1:, 0] = -gamma[:, 0, 1:]

    # [e_alpha, e_beta] block
    gamma[0, 1:, 1:] = -2.0 * np.einsum("ibg,g->ib", EPS, c.omega.as_array())
    gamma[1:, 1:, 1:] = spatial
    return gamma


def commutator_residual(
    provider: DerivativeProvider, field: str, a: int, b: int, point: float
) -> float:
    """e_a(e_b f) - e_b(e_a f) - gamma^c_{ab} e_c(f); zero for consistent data."""
    gamma = commutator_structure(provider.connection(point))
    mixed = provider.second_derivative(point, field, a, b) - provider.second_derivative(
        point, field, b, a
    )
    first = np.array([provider.derivative(point, field, c) for c in range(4)])
    return float(mixed - gamma[:, a, b] @ first)
