"""Pointwise residuals of every field-level equation of the engine.

Relativistic side (Lorentzian background, signature -,+,...,+):

    classical HJ     (dS - qA) g^{-1} (dS - qA) + m^2
    current          J^M = rho sqrt(-g) g^{MN} (d_N S - q A_N)
    continuity       d_M J^M
    quantum potential  Q = -(1/4 rho^2) g^{MN} d_M rho d_N rho
                         - (1/sqrt(-g)) d_M [sqrt(-g) g^{MN} d_N rho / (2 rho)]
    quantum HJ       classical + Q
    linear wave      (1/sqrt(-g)) D_M [sqrt(-g) g^{MN} D_N psi] - m^2 psi
    nonlinear classical wave equation for psi_clas = sqrt(rho) e^{iS}

Newton-Cartan side (frame data as in nc_geometry, w = m - q phi):

    classical HJ     2 w vhat.(dS - qA) - (dS - qA) h (dS - qA) - 2 w^2 Phi
    quantum potential  Q = (1/4 rho^2) h drho drho
                         + (1/2e) d_mu [(1/rho) e h^{mu nu} d_nu rho]
    quantum HJ       classical + Q
    continuity       d_mu [e w rho vhat^mu] - d_mu [e rho h^{mu nu}(d_nu S - q A_nu)]
    linear wave      variational equation of the quadratic psi action

Every formula lives in one kernel.  The two product-rule divergences,
d_M[vol up^{MN} V_N] (``_density_divergence``) and d_M[vol s v^M]
(``_flow_divergence``), take factor derivatives from the derivative
providers; ``_gauged_laplacian`` adds the gauge term of D = d - i q A,
``_covariant_derivative_data`` builds D psi on either background, and one
``_quantum_potential`` serves both, the Newton-Cartan form being the
Lorentzian one with g^{MN} -> -h^{mu nu}.  ``hj_expression`` and
``nc_hj_expression`` evaluate the HJ expression of a given kinetic
covector.  Each residual has an independent nested-finite-difference oracle
(evaluate the whole bracket at shifted points) to test against.

Every public residual takes one point (D,) or a batch (K, D), under the
batch contract of ``geometry``: it reads each field closure once for the
whole batch, and every kernel runs over the leading axis with the stacked
products ``np.vecdot``/``np.matvec``/``np.vecmat`` and ``...`` einsum.  A
point gives shape-() values.  Geometry arrives in one bundle per batch.
A relativistic residual takes either the points or their
``geometry.metric_data`` bundle (g^{MN} and sqrt(-g) from one read of the
metric, their gradients derived from one read of d_M g at their first read),
resolved by ``geometry._bundle``, so every check of one grid reads one bundle;
given points, it builds their bundle itself.  ``classical_hj_residual_rel``
reads only g^{MN}, through ``metric_inverse``, so a grid whose checks need no
gradient reads no d_M g.
A Newton-Cartan residual takes the points or their ``NCDerived`` bundle
(``nc_geometry``: the stacked frames, inverted once, each derived object
computed once) and passes on what it was given: given points, it builds the
bundle it always built; given a bundle, none.  Its divergences read one stacked
``derive_nc_partials``.  ``nc_momentum_covector`` and the reduced gauge field
take M and phi from a bundle, and every kernel that holds one hands it to
them, so a guidance row reads each closure once.  A node check runs before
the division it guards, and an error in a batch names the first failing point.

The ``*_printed`` variants reproduce equation forms that fail their own
consistency checks (a factor slip in the relativistic quantum potential's
divergence term, a phase-covariance typo and mass-sign flip in the
nonlinear classical wave equation, a missing density factor in the complex
form of the nonrelativistic classical action).  They are kept callable so
the discrepancy can be reported rather than silently patched; the operating
forms are the ones that make polar and complex descriptions equivalent.
"""
from __future__ import annotations

import numpy as np

from .errors import FormMismatch
from .fields import PSI_AT_NODE, ComplexField, PolarField, _outer, node_check
from .geometry import (BackgroundRel, _bundle, broadcast_read, check_points, metric_inverse,
                       raise_at_first)
from .nc_geometry import NCBackground, NCDerived, _nc_bundle, derive_nc_partials

Array = np.ndarray


# ---------------------------------------------------------------------------
# shared kernels: one point, or a batch along leading axes
# ---------------------------------------------------------------------------
# np.vecdot conjugates its first argument, so a real factor goes first; at
# one point, np.vecdot, np.matvec and np.vecmat give the bits of ``@``.

def _col(s, n=1):
    """A value per point with n trailing axes added, to scale a row's vector or matrix."""
    return np.reshape(s, np.shape(s) + (1,) * n)


def _bilinear(a, m, b):
    """a_M m^{MN} b_N, conjugating neither vector, summed as ``a @ m @ b`` at one point."""
    return np.vecdot(np.conj(np.vecmat(np.conj(a), m)), b)


def _density_divergence(vol, dvol, up, dup, vec, dvec):
    """d_M [vol up^{MN} vec_N] by the product rule; dvec[..., M, N] = d_M vec_N."""
    return (np.vecdot(dvol, np.matvec(up, vec))
            + vol * np.einsum("...mmn,...n->...", dup, vec)
            + vol * np.einsum("...mn,...mn->...", up, dvec))


def _flow_divergence(vol, dvol, v, dv, s, ds):
    """d_M [vol s v^M] by the product rule; dv[..., M, N] = d_M v^N."""
    return (s * np.vecdot(dvol, v) + vol * np.vecdot(v, ds)
            + vol * s * np.trace(dv, axis1=-2, axis2=-1))


def _gauged_laplacian(vol, dvol, up, dup, a_cov, q, dcov, ddcov):
    """D_M [vol up^{MN} D_N psi] for the covariant derivative D = d - i q A."""
    return (_density_divergence(vol, dvol, up, dup, dcov, ddcov)
            - 1j * q * np.vecdot(a_cov, np.matvec(up, dcov)) * vol)


def _covariant_derivative_data(cf, pt, a_cov, da, q):
    """psi, d psi, D_N psi and d_M (D_N psi) at pt, with D = d - i q A."""
    psi, dpsi, d2psi = (broadcast_read(fn, pt, axes, complex)
                        for axes, fn in enumerate((cf.psi, cf.dpsi, cf.d2psi)))
    dcov = dpsi - 1j * q * a_cov * _col(psi)
    # d_M (Dpsi)_N = d2psi_MN - i q (dA_MN psi + A_N dpsi_M)
    ddcov = d2psi - 1j * q * (da * _col(psi, 2) + _outer(dpsi, a_cov))
    return psi, dpsi, dcov, ddcov


def _quantum_potential(vol, dvol, up, dup, f, pt, bracket_coeff=0.5):
    """-(1/4 rho^2) up drho drho - (1/vol) d_M [vol up^{MN} c drho_N / rho]."""
    rho = node_check(broadcast_read(f.rho, pt), pt)
    drho = broadcast_read(f.drho, pt, 1)
    d2rho = broadcast_read(f.d2rho, pt, 2)
    rho2 = rho**2
    a = bracket_coeff * drho / _col(rho)
    da = bracket_coeff * (d2rho / _col(rho, 2) - _outer(drho, drho) / _col(rho2, 2))
    first = -np.vecdot(np.vecmat(drho, up), drho) / (4.0 * rho2)
    return first - _density_divergence(vol, dvol, up, dup, a, da) / vol


def _mass_shell(ginv, k, mass):
    """k g^{-1} k + m^2."""
    return np.vecdot(np.vecmat(k, ginv), k) + mass**2


# ---------------------------------------------------------------------------
# relativistic backgrounds: x is one point (D,), a batch (K, D) or the
# MetricData bundle of either
# ---------------------------------------------------------------------------

def momentum_covector(bg: BackgroundRel, f: PolarField, x) -> Array:
    """k_M = d_M S - q A_M, from one check of the points x and one read of dS and A."""
    pt = check_points(x, bg.dim)
    return broadcast_read(f.dS, pt, 1) - bg.charge * broadcast_read(bg.gauge, pt, 1)


def hj_expression(bg: BackgroundRel, x, k):
    """k g^{-1} k + m^2 for a kinetic covector k at points x or their MetricData bundle x,
    with g^{-1} from metric_inverse."""
    return _mass_shell(metric_inverse(bg, x), np.asarray(k, dtype=float), bg.mass)


def classical_hj_residual_rel(bg: BackgroundRel, f: PolarField, x):
    """(dS - qA) g^{-1} (dS - qA) + m^2 at points x or their MetricData bundle x."""
    md = _bundle(bg, x)
    return hj_expression(bg, md, momentum_covector(bg, f, md.pt))


def continuity_residual_rel(bg: BackgroundRel, f: PolarField, x):
    """d_M [sqrt(-g) g^{MN} rho (d_N S - q A_N)]."""
    md = _bundle(bg, x)
    pt = md.pt
    k = momentum_covector(bg, f, pt)
    rho = broadcast_read(f.rho, pt)
    drho = broadcast_read(f.drho, pt, 1)
    dk = broadcast_read(f.d2S, pt, 2) - bg.charge * bg.gauge_derivative_at(pt)
    return _density_divergence(md.vol, md.dvol, md.ginv, md.dginv, _col(rho) * k,
                               _outer(drho, k) + _col(rho, 2) * dk)


def quantum_potential_rel(bg: BackgroundRel, f: PolarField, x):
    """Relativistic quantum potential (variationally consistent form).

    Q = -(1/4 rho^2) g drho drho - (1/sqrt(-g)) d[sqrt(-g) g drho/(2 rho)],
    which equals -box(sqrt rho)/sqrt(rho).  Vanishes for constant rho.
    """
    md = _bundle(bg, x)
    return _quantum_potential(md.vol, md.dvol, md.ginv, md.dginv, f, md.pt)


def quantum_potential_rel_printed(bg: BackgroundRel, f: PolarField, x):
    """Variant with drho/(4 rho) inside the divergence bracket.

    Kept for comparison: it breaks the equivalence between the linear wave
    equation and the quantum HJ + continuity pair whenever drho != 0.
    """
    md = _bundle(bg, x)
    return _quantum_potential(md.vol, md.dvol, md.ginv, md.dginv, f, md.pt, bracket_coeff=0.25)


def quantum_hj_residual_rel(bg: BackgroundRel, f: PolarField, x):
    """(dS - qA) g^{-1} (dS - qA) + m^2 + Q, from one read of the geometry."""
    md = _bundle(bg, x)
    classical = _mass_shell(md.ginv, momentum_covector(bg, f, md.pt), bg.mass)
    return classical + quantum_potential_rel(bg, f, md)


def _rel_wave_data(bg, cf, x):
    """The checked points, the leading arguments of _gauged_laplacian (sqrt(-g),
    its gradient, g^{-1}, its gradient, A, q), then psi, d psi, D psi and d D psi."""
    md = _bundle(bg, x)
    a_cov = bg.gauge_at(md.pt)
    psi, dpsi, dcov, ddcov = _covariant_derivative_data(
        cf, md.pt, a_cov, bg.gauge_derivative_at(md.pt), bg.charge)
    return md.pt, (md.vol, md.dvol, md.ginv, md.dginv, a_cov, bg.charge), psi, dpsi, dcov, ddcov


def linear_kg_residual(bg: BackgroundRel, cf: ComplexField, x):
    """(1/sqrt(-g)) D_M [sqrt(-g) g^{MN} D_N psi] - m^2 psi.

    Density-normalized so plane-wave checks read the same on any
    background.
    """
    _, geo, psi, _, dcov, ddcov = _rel_wave_data(bg, cf, x)
    return _gauged_laplacian(*geo, dcov, ddcov) / geo[0] - bg.mass**2 * psi


def _classical_field_terms(bg, cf, x, printed):
    pt, geo, psi, dpsi, dcov, ddcov = _rel_wave_data(bg, cf, x)
    vol, _, ginv = geo[:3]
    node_check(np.abs(psi) ** 2, pt, PSI_AT_NODE)
    psis = np.conj(psi)
    dcov_c = np.conj(dcov)
    m2 = bg.mass**2

    # T1 = (1/2) D_M [sqrt(-g) g^{MN} D_N psi]
    t1 = 0.5 * _gauged_laplacian(*geo, dcov, ddcov)

    t2 = vol / (4.0 * psi) * np.vecdot(dcov_c, np.matvec(ginv, dcov))

    if printed:
        t3 = m2 * vol * psi
        t4 = -(vol * psi / (4.0 * psis)) * np.vecdot(dcov, np.matvec(ginv, dcov_c))
    else:
        t3 = -m2 * vol * psi
        t4 = -(vol * psi / (4.0 * psis**2)) * np.vecdot(dcov, np.matvec(ginv, dcov_c))

    # T5 = -(1/2) D_M [(psi/psi*) sqrt(-g) g^{MN} (D_N psi)*]
    ratio = psi / psis
    dratio = dpsi / _col(psis) - _col(psi) * np.conj(dpsi) / _col(psis)**2
    t5 = -0.5 * (ratio * _gauged_laplacian(*geo, dcov_c, np.conj(ddcov))
                 + np.vecdot(np.conj(dratio), _col(vol) * np.matvec(ginv, dcov_c)))

    return (t1 + t2 + t3 + t4 + t5) / vol


def classical_field_residual(bg: BackgroundRel, cf: ComplexField, x):
    """Nonlinear classical wave residual for psi_clas, density-normalized.

    Derived term by term from the (rho, S) classical ensemble action, so it
    vanishes exactly when the polar data satisfies classical HJ plus
    continuity:

        residual = psi [ -classical_hj + i continuity/(rho sqrt(-g)) ].

    Superpositions of distinct solutions do not satisfy it: the equation is
    not linear.
    """
    return _classical_field_terms(bg, cf, x, printed=False)


def classical_field_residual_printed(bg: BackgroundRel, cf: ComplexField, x):
    """Literal transcription variant of the nonlinear classical equation.

    Differs from classical_field_residual in the sign of the mass term and
    a psi*^2 -> psi* slip that breaks phase covariance; it does not vanish
    even on single classical solutions.  Exposed so the discrepancy can be
    reported.
    """
    return _classical_field_terms(bg, cf, x, printed=True)


# ---------------------------------------------------------------------------
# Newton-Cartan backgrounds
# ---------------------------------------------------------------------------

FORM_AGREEMENT_TOL = 1e-10


def nc_momentum_covector(nc: NCBackground, f: PolarField, x) -> Array:
    """k_mu = d_mu S - q A_mu with the reduced gauge field A = Abar - phi M, at points
    x or at the points of an NCDerived bundle x, whose phi and M it takes."""
    a_red = nc.reduced_gauge_at(x)  # checks points x, or the bundle's dimension, for both reads
    return broadcast_read(f.dS, x.pt if isinstance(x, NCDerived) else x, 1) - nc.charge * a_red


def _nc_hj_forms(nc: NCBackground, x, k):
    """The points, both forms and the largest magnitude among the terms of either."""
    pt, der = _nc_bundle(nc, x)
    w = der.w
    terms = (2.0 * w * np.vecdot(der.v_hat, k), _bilinear(k, der.h_up, k),
             2.0 * w**2 * der.Phi)
    vhat_form = terms[0] - terms[1] - terms[2]
    # M is read afresh, not taken from der.m, so the guard also sees a closure
    # whose M disagrees with the one the derived objects were built from
    big_k = k + _col(w) * broadcast_read(nc.m_field, pt, 1)
    terms += (2.0 * w * np.vecdot(der.v, big_k), _bilinear(big_k, der.h_up, big_k))
    vm_form = terms[3] - terms[4]
    return pt, vhat_form, vm_form, np.max(np.abs(terms), axis=0)


def nc_hj_expression(nc: NCBackground, x, k) -> Array:
    """2 w vhat.k - k h k - 2 w^2 Phi for a kinetic covector k at x.

    Also evaluates the equivalent (v, M) form and raises FormMismatch if the
    two disagree beyond tolerance, relative to their largest term: the forms
    themselves can cancel to 0 while their terms are large.
    """
    pt, vhat_form, vm_form, scale = _nc_hj_forms(nc, x, np.asarray(k, dtype=float))
    raise_at_first(np.abs(vhat_form - vm_form) > FORM_AGREEMENT_TOL * np.maximum(1.0, scale),
                   pt, FormMismatch, "HJ form mismatch: {!r} vs {!r}", vhat_form, vm_form)
    return vhat_form


def nc_classical_hj_residual(nc: NCBackground, f: PolarField, x) -> Array:
    """2 w vhat.k - k h k - 2 w^2 Phi with k = dS - qA, form-checked."""
    return nc_hj_expression(nc, x, nc_momentum_covector(nc, f, x))


def nc_quantum_potential(nc: NCBackground, f: PolarField, x) -> Array:
    """Q = (1/4 rho^2) h drho drho + (1/2e) d_mu[(1/rho) e h^{mu nu} d_nu rho]."""
    (pt, der), parts = _nc_bundle(nc, x), derive_nc_partials(nc, x)
    return _quantum_potential(der.vol, parts["vol"], -der.h_up, -parts["h_up"], f, pt)


def nc_quantum_hj_residual(nc: NCBackground, f: PolarField, x) -> Array:
    """Classical NC HJ residual plus the quantum potential."""
    return nc_classical_hj_residual(nc, f, x) + nc_quantum_potential(nc, f, x)


def nc_continuity_residual(nc: NCBackground, f: PolarField, x) -> Array:
    """d_mu[e w rho vhat^mu] - d_mu[e h^{mu nu} rho k_nu]."""
    (pt, der), parts = _nc_bundle(nc, x), derive_nc_partials(nc, x)
    rho = broadcast_read(f.rho, pt)
    drho = broadcast_read(f.drho, pt, 1)
    k = nc_momentum_covector(nc, f, der)
    dk = broadcast_read(f.d2S, pt, 2) - nc.charge * parts["A"]
    e, de, w = der.vol, parts["vol"], der.w
    t1 = _flow_divergence(e, de, der.v_hat, parts["v_hat"], w * rho,
                          parts["w"] * _col(rho) + _col(w) * drho)
    t2 = _density_divergence(e, de, der.h_up, parts["h_up"], _col(rho) * k,
                             _outer(drho, k) + _col(rho, 2) * dk)
    return t1 - t2


def nc_schrodinger_residual(nc: NCBackground, cf: ComplexField, x) -> Array:
    """Variational residual of the quadratic wave action on NC data.

    In flat data with w = m this reduces to 2 i m d_t psi + laplacian(psi),
    i.e. 2m times the free Schrodinger operator; the residual here is
    divided by the volume element e so that normalization carries over to
    curved data.  Linear in psi by construction.
    """
    (pt, der), parts = _nc_bundle(nc, x), derive_nc_partials(nc, x)
    a_red = nc.reduced_gauge_at(der)
    q = nc.charge
    psi, dpsi, dcov, ddcov = _covariant_derivative_data(cf, pt, a_red, parts["A"], q)
    e, de, w = der.vol, parts["vol"], der.w

    # -i e w vhat^mu D_mu psi
    r = -1j * e * w * np.vecdot(der.v_hat, dcov)
    # -i D_mu[ e w vhat^mu psi ]
    div_evp = _flow_divergence(e, de, der.v_hat, parts["v_hat"], w * psi,
                               parts["w"] * _col(psi) + _col(w) * dpsi)
    r += -1j * div_evp - q * np.vecdot(a_red, der.v_hat) * e * w * psi
    # + D_nu[ e h^{nu mu} D_mu psi ]
    r += _gauged_laplacian(e, de, der.h_up, parts["h_up"], a_red, q, dcov, ddcov)
    # - 2 e Phi w^2 psi
    r += -2.0 * e * der.Phi * w**2 * psi
    return r / e


def nc_classical_action_density_polar(nc: NCBackground, f: PolarField, x) -> Array:
    """Integrand of the classical ensemble action in (rho, S) variables:
    e (2 w rho vhat.k - 2 Phi w^2 rho - rho h k k), i.e. e rho times the HJ
    expression."""
    pt, der = _nc_bundle(nc, x)
    k = nc_momentum_covector(nc, f, der)
    return der.vol * broadcast_read(f.rho, pt) * nc_hj_expression(nc, der, k)


def nc_classical_action_density_complex_printed(nc: NCBackground, cf: ComplexField,
                                                x) -> Array:
    """Literal complex form of the classical action integrand.

    The nonlinear terms carry 1/(psi psi) and 1/(psi* psi*) denominators as
    transcribed; the polar form above is the arbiter, and the two differ by
    a missing |psi|^2 factor in those terms whenever rho != 1 (the test
    oracle ``nc_classical_action_equivalence_report`` reports the gap).
    """
    pt, der = _nc_bundle(nc, x)
    psi = broadcast_read(cf.psi, pt, 0, complex)
    node_check(np.abs(psi) ** 2, pt, PSI_AT_NODE)
    dpsi = broadcast_read(cf.dpsi, pt, 1, complex)
    a_red = nc.reduced_gauge_at(der)
    q = nc.charge
    dcov = dpsi - 1j * q * a_red * _col(psi)
    dcov_c = np.conj(dcov)
    psis = np.conj(psi)
    h, w = der.h_up, der.w
    val = 1j * w * np.vecdot(der.v_hat, _col(psi) * dcov_c - _col(psis) * dcov)
    val += -2.0 * der.Phi * w**2 * psi * psis
    val += -0.5 * _bilinear(dcov, h, dcov_c)
    val += 0.25 * _bilinear(dcov, h, dcov) / (psi * psi)
    val += 0.25 * _bilinear(dcov_c, h, dcov_c) / (psis * psis)
    return der.vol * val
