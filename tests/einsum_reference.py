"""Einsum form of the general-system residuals, kept as a test reference.

This is the evaluation of ``f13.frame_equations`` written with
``np.einsum`` for every contraction: the ``_efe_arr``, ``_jacobi_arr`` and
``_bianchi_arr`` blocks and the helpers they use.  The package evaluates
the same equations with fixed-index kernels; tests compare the two.
"""

from types import SimpleNamespace

import numpy as np

from f13.core import EPS

ID3 = np.eye(3)


def _sym(T):
    return 0.5 * (T + np.swapaxes(T, -1, -2))


def _outer(u, v):
    return np.einsum("...a,...b->...ab", u, v)


def _dot(u, v):
    return np.einsum("...a,...a->...", u, v)


def _ddot(A, B):
    return np.einsum("...ab,...ab->...", A, B)


def _matvec(A, v):
    return np.einsum("...ab,...b->...a", A, v)


def _tr(A):
    return np.einsum("...aa->...", A)


def _eps_vec(M):
    # eps_{abc} M_{bc} contracted into a vector
    return np.einsum("abc,...bc->...a", EPS, M)


def _eps_sym(inner):
    # inner[..., g, b, d] -> sym over (a, b) of eps_{gda} inner_{gbd}
    return _sym(np.einsum("gda,...gbd->...ab", EPS, inner))


def _b_tensor_arr(n):
    return 2.0 * np.einsum("...ag,...gb->...ab", n, n) - _tr(n)[..., None, None] * n


def _curly_S_arr(ja):
    grad_a = ja.da[..., 1:, :]          # e_alpha(a_beta)
    grad_n = ja.dn[..., 1:, :, :]       # e_gamma(n_{beta delta})
    b = _b_tensor_arr(ja.n)
    div_a = _tr(grad_a)
    inner = grad_n - 2.0 * np.einsum("...g,...bd->...gbd", ja.a, ja.n)
    S = (
        _sym(grad_a)
        + b
        - (div_a + _tr(b))[..., None, None] * ID3 / 3.0
        - _eps_sym(inner)
    )
    # the assembled trace is an index-convention self-check; project it away
    pre_trace = _tr(S)
    S = S - pre_trace[..., None, None] * ID3 / 3.0
    return S, pre_trace


def _curly_R_arr(ja):
    grad_a = ja.da[..., 1:, :]
    b = _b_tensor_arr(ja.n)
    return 2.0 * (2.0 * _tr(grad_a) - 3.0 * _dot(ja.a, ja.a)) - 0.5 * _tr(b)


def _efe_arr(ja):
    sigma2 = 0.5 * _ddot(ja.sigma, ja.sigma)
    omega2 = _dot(ja.omega, ja.omega)
    grad_udot = ja.dudot[..., 1:, :]    # e_alpha(udot_beta)

    # field1: Raychaudhuri
    rhs1 = (
        -ja.Theta**2 / 3.0
        + _tr(grad_udot)
        + _dot(ja.udot, ja.udot)
        - 2.0 * _dot(ja.a, ja.udot)
        - 2.0 * sigma2
        + 2.0 * omega2
        - 0.5 * (ja.mu + 3.0 * ja.p)
        + ja.Lam
    )
    res_theta = ja.dTheta[..., 0] - rhs1

    # field2: shear evolution.  The sign of the n-udot coupling is pinned by
    # exact-solution nullity: the rigidly rotating flat-space congruence
    # (vacuum, E = H = 0, with n_23 and udot_1 nonzero) satisfies the system
    # only with +eps n udot, so that sign is used here.
    S, _ = _curly_S_arr(ja)
    scalar_part = (
        _tr(grad_udot)
        + _dot(ja.udot, ja.udot)
        + _dot(ja.a, ja.udot)
        + 2.0 * _dot(ja.omega, ja.Omega)
    )
    inner = 2.0 * np.einsum("...g,...bd->...gdb", ja.Omega, ja.sigma) + np.einsum(
        "...bd,...g->...gdb", ja.n, ja.udot
    )
    # inner[..., g, d, b] = 2 Omega_g sigma_bd + n_bd udot_g
    eps_term = _sym(np.einsum("gda,...gdb->...ab", EPS, inner))
    rhs2 = (
        -ja.Theta[..., None, None] * ja.sigma
        + _sym(grad_udot)
        + _outer(ja.udot, ja.udot)
        + _sym(_outer(ja.a, ja.udot))
        + 2.0 * _sym(_outer(ja.omega, ja.Omega))
        + ja.pi
        - S
        - scalar_part[..., None, None] * ID3 / 3.0
        + eps_term
    )
    res_sigma = ja.dsigma[..., 0, :, :] - rhs2

    # field3: Gauss (Friedmann) constraint
    gauss = (
        ja.mu
        - ja.Theta**2 / 3.0
        + sigma2
        - omega2
        - 2.0 * _dot(ja.omega, ja.Omega)
        - 0.5 * _curly_R_arr(ja)
        + ja.Lam
    )

    # field4: Codazzi (momentum) constraint
    dsig = ja.dsigma[..., 1:, :, :]     # e_gamma(sigma_{alpha beta})
    inner4 = (
        ja.domega[..., 1:, :]
        + 2.0 * _outer(ja.udot, ja.omega)
        - _outer(ja.a, ja.omega)
        + np.einsum("...bd,...dg->...bg", ja.n, ja.sigma)
    )
    codazzi = (
        np.einsum("...bab->...a", dsig)
        - 3.0 * _matvec(ja.sigma, ja.a)
        - (2.0 / 3.0) * ja.dTheta[..., 1:]
        + _matvec(ja.n, ja.omega)
        + ja.q
        - _eps_vec(inner4)
    )
    return res_theta, res_sigma, gauss, codazzi


def _jacobi_arr(ja):
    womO = ja.omega - ja.Omega
    dwomO = ja.domega - ja.dOmega

    # jacobi1: e_0(a)
    rhs_a = (
        -(ja.dTheta[..., 1:] + (ja.udot + ja.a) * ja.Theta[..., None]) / 3.0
        + 0.5
        * (
            np.einsum("...bab->...a", ja.dsigma[..., 1:, :, :])
            + _matvec(ja.sigma, ja.udot - 2.0 * ja.a)
        )
        - 0.5
        * _eps_vec(
            dwomO[..., 1:, :] + _outer(ja.udot - 2.0 * ja.a, womO)
        )
    )
    res_a = ja.da[..., 0, :] - rhs_a

    # jacobi2: e_0(n)
    grad_w = dwomO[..., 1:, :]          # e_alpha(omega - Omega)_beta
    inner = (
        ja.dsigma[..., 1:, :, :]
        + np.einsum("...g,...bd->...gbd", ja.udot, ja.sigma)
        - 2.0 * np.einsum("...bg,...d->...gbd", ja.n, womO)
    )
    rhs_n = (
        -ja.Theta[..., None, None] * ja.n / 3.0
        - (_sym(grad_w) + _sym(_outer(ja.udot, womO)))
        + 2.0 * _sym(np.einsum("...ag,...bg->...ab", ja.sigma, ja.n))
        + (_tr(grad_w) + _dot(ja.udot, womO))[..., None, None] * ID3
        - _eps_sym(inner)
    )
    res_n = ja.dn[..., 0, :, :] - rhs_n

    # jacobi3: e_0(omega)
    inner3 = 0.5 * (ja.dudot[..., 1:, :] - _outer(ja.a, ja.udot)) + _outer(
        ja.omega, ja.Omega
    )
    rhs_w = (
        -(2.0 / 3.0) * ja.Theta[..., None] * ja.omega
        + _matvec(ja.sigma, ja.omega)
        + 0.5 * _matvec(ja.n, ja.udot)
        - _eps_vec(inner3)
    )
    res_w = ja.domega[..., 0, :] - rhs_w

    # jacobi4: vector constraint
    j4 = (
        np.einsum("...bab->...a", ja.dn[..., 1:, :, :])
        - 2.0 * _matvec(ja.n, ja.a)
        - (2.0 / 3.0) * ja.Theta[..., None] * ja.omega
        - 2.0 * _matvec(ja.sigma, ja.omega)
        + _eps_vec(ja.da[..., 1:, :] + 2.0 * _outer(ja.omega, ja.Omega))
    )

    # jacobi5: scalar constraint
    j5 = _tr(ja.domega[..., 1:, :]) - _dot(ja.udot + 2.0 * ja.a, ja.omega)
    return res_a, res_n, res_w, j4, j5


def _bianchi_arr(ja):
    mu_p = ja.mu + ja.p
    trn = _tr(ja.n)

    # bianchi1: energy conservation
    rhs_mu = (
        -mu_p * ja.Theta
        - (_tr(ja.dq[..., 1:, :]) + 2.0 * _dot(ja.udot - ja.a, ja.q))
        - _ddot(ja.sigma, ja.pi)
    )
    res_mu = ja.dmu[..., 0] - rhs_mu

    # bianchi2: momentum conservation
    inner2 = _outer(ja.omega + ja.Omega, ja.q) + np.einsum(
        "...bd,...dg->...bg", ja.n, ja.pi
    )
    rhs_q = (
        -(4.0 / 3.0) * ja.Theta[..., None] * ja.q
        - ja.dp[..., 1:]
        - mu_p[..., None] * ja.udot
        - (
            np.einsum("...bab->...a", ja.dpi[..., 1:, :, :])
            + _matvec(ja.pi, ja.udot - 3.0 * ja.a)
        )
        - _matvec(ja.sigma, ja.q)
        + _eps_vec(inner2)
    )
    res_q = ja.dq[..., 0, :] - rhs_q

    # bianchi3: e_0(E + pi/2)
    X = ja.E - ja.pi / 6.0
    Y = ja.E + 0.5 * ja.pi
    grad_q = ja.dq[..., 1:, :]
    inner3 = (
        ja.dH[..., 1:, :, :]
        + np.einsum("...g,...bd->...gbd", 2.0 * ja.udot - ja.a, ja.H)
        - np.einsum("...g,...bd->...gbd", ja.omega - 2.0 * ja.Omega, Y)
        + 0.5 * np.einsum("...bg,...d->...gbd", ja.n, ja.q)
    )
    rhs_E = (
        -0.5 * mu_p[..., None, None] * ja.sigma
        - ja.Theta[..., None, None] * (ja.E + ja.pi / 6.0)
        - 0.5 * (_sym(grad_q) + _sym(_outer(2.0 * ja.udot + ja.a, ja.q)))
        + 3.0 * _sym(np.einsum("...ag,...bg->...ab", ja.sigma, X))
        + 0.5 * trn[..., None, None] * ja.H
        + (
            0.5 * (_tr(grad_q) + _dot(2.0 * ja.udot + ja.a, ja.q))
            - 3.0 * _ddot(ja.sigma, X)
            + 3.0 * _ddot(ja.n, ja.H)
        )[..., None, None]
        * ID3
        / 3.0
        + _eps_sym(inner3)
        - 3.0 * _sym(np.einsum("...ag,...bg->...ab", ja.n, ja.H))
    )
    res_E = ja.dE[..., 0, :, :] + 0.5 * ja.dpi[..., 0, :, :] - rhs_E

    # bianchi4: e_0(H)
    Z = ja.E - 0.5 * ja.pi
    inner4 = (
        ja.dE[..., 1:, :, :]
        - 0.5 * ja.dpi[..., 1:, :, :]
        - np.einsum("...g,...bd->...gbd", ja.a, Z)
        + 2.0 * np.einsum("...g,...bd->...gbd", ja.udot, ja.E)
        - 0.5 * np.einsum("...bg,...d->...gbd", ja.sigma, ja.q)
        + np.einsum("...g,...bd->...gbd", ja.omega - 2.0 * ja.Omega, ja.H)
    )
    rhs_H = (
        -ja.Theta[..., None, None] * ja.H
        + 3.0 * _sym(np.einsum("...ag,...bg->...ab", ja.sigma, ja.H))
        - 1.5 * _sym(_outer(ja.omega, ja.q))
        - 0.5 * trn[..., None, None] * Z
        + 3.0 * _sym(np.einsum("...ag,...bg->...ab", ja.n, Z))
        - (_ddot(ja.sigma, ja.H) - 0.5 * _dot(ja.omega, ja.q) + _ddot(ja.n, Z))[
            ..., None, None
        ]
        * ID3
        - _eps_sym(inner4)
    )
    res_H = ja.dH[..., 0, :, :] - rhs_H

    # bianchi5: div E constraint
    inner5 = (
        np.einsum("...bd,...dg->...bg", ja.sigma, ja.H)
        + 1.5 * _outer(ja.omega, ja.q)
        + np.einsum("...bd,...dg->...bg", ja.n, Y)
    )
    div_E = (
        np.einsum("...bab->...a", ja.dE[..., 1:, :, :] + 0.5 * ja.dpi[..., 1:, :, :])
        - 3.0 * _matvec(Y, ja.a)
        - ja.dmu[..., 1:] / 3.0
        + ja.Theta[..., None] * ja.q / 3.0
        - 0.5 * _matvec(ja.sigma, ja.q)
        + 3.0 * _matvec(ja.H, ja.omega)
        - _eps_vec(inner5)
    )

    # final identity: div H constraint
    inner6 = (
        0.5 * (ja.dq[..., 1:, :] - _outer(ja.a, ja.q))
        + np.einsum("...bd,...dg->...bg", ja.sigma, Y)
        - np.einsum("...bd,...dg->...bg", ja.n, ja.H)
    )
    div_H = (
        np.einsum("...bab->...a", ja.dH[..., 1:, :, :])
        - 3.0 * _matvec(ja.H, ja.a)
        - mu_p[..., None] * ja.omega
        - 3.0 * _matvec(X, ja.omega)
        - 0.5 * _matvec(ja.n, ja.q)
        + _eps_vec(inner6)
    )
    return res_mu, res_q, res_E, res_H, div_E, div_H


def _batch_first(ja):
    """The arrays of a component-major ``JetArrays`` with the batch axes moved
    first, the layout the einsum evaluators index."""
    k = len(ja.shape)
    return SimpleNamespace(**{
        name: np.moveaxis(arr, range(arr.ndim - k, arr.ndim), range(k))
        for name, arr in vars(ja).items() if isinstance(arr, np.ndarray)
    })


def report_arrays(ja):
    """The 15 residual arrays, in ``ResidualReport`` field order and layout:
    evaluated batch-first, returned with the batch axes moved back last."""
    k = len(ja.shape)
    bf = _batch_first(ja)
    out = _efe_arr(bf) + _jacobi_arr(bf) + _bianchi_arr(bf)
    return tuple(np.moveaxis(arr, range(k), range(arr.ndim - k, arr.ndim)) for arr in out)
