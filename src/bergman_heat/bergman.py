"""Derived kernels and the normalized smoothing operator.

The central object is the Markov-like smoothing operator

    (Q f)(x) = (1/R) * integral of K(x, y) f(y) d nu(y),

with K the squared Bergman kernel modulus and R the section count divided
by the reference volume.  Applications are implemented through the
metric-volume factorization (eta prefactor outside, metric-volume weights
inside), which collapses to colatitude quadratures of longitude modes and
keeps the cost quadratic in the section count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fourier import grid_to_modes, kept_modes, moment_matrices
from .geometry import (INJECTIVITY_RADIUS, exp_map, integrate,
                       pairwise_distances, unit_vectors)
from .heat import SphericalHarmonicTransform

# longitude modes of ``SmoothingOperator.apply``'s input at most this
# fraction of the largest are skipped; a Q assembly forms its batches' modes
# by the density's band instead (``SphericalHarmonicTransform.order_band``)
MODE_TOL = 1e-16


def rank_ratio(p, form):
    """Section count over reference volume: (p+1) / Vol(nu)."""
    return (p + 1) / form.volume


class SmoothingOperator:
    """Normalized kernel smoothing operator bound to a Bergman evaluator."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.grid = evaluator.grid
        self.form = evaluator.form
        self.p = evaluator.p
        self.rank_ratio = rank_ratio(self.p, self.form)

    def coefficient_matrices(self, modes, rows, diagonals, parity=None,
                             out=None, products=None):
        """Section coefficient matrices of the operator's outputs for a batch
        of inputs, item index last.

        ``modes`` and ``rows`` give the nonnegative longitude modes of
        ``density * f`` for each input f in the factored form of
        ``fourier.moment_matrices``: node modes of shape (S, n_theta,
        n_modes) times colatitude rows of shape (n_theta, n_rows), for
        n = S n_rows inputs, of which the modes ``diagonals`` are read.  The
        inputs are folded into section moment matrices and conjugated by
        the inverse Gram M; output b is x -> sigma(x)^T A[:, :, b]
        conj(sigma(x)) for the returned (p+1, p+1, n) batch A = M T M / R:
        M T is one product over all items' columns, and its products with M
        one per row.  Real modes, those of a form symmetric under
        phi -> -phi, whose inverse Gram is real, come with their ``parity``.
        ``out``, if given, is a pair of flat buffers that hold the batch and
        the half product M T, so that a loop of batches reuses their pages.
        ``products``, if given, are the section-profile products
        (``fourier.profile_products``) that a Q assembly shares.
        """
        ev = self.evaluator
        batch, spare = (None, None) if out is None else out
        T = moment_matrices(modes, rows, self.grid.w_theta, ev.profiles,
                            diagonals, batch, parity, products)
        dim = T.shape[0]
        half = (np.empty_like(T) if out is None
                else spare.view(T.dtype)[:T.size].reshape(T.shape))
        np.matmul(ev.kernel_matrix / self.rank_ratio, T.reshape(dim, -1),
                  out=half.reshape(dim, -1))
        # (M T M)[i] = M^T (M T)[i]; T is not read again, so the product
        # reuses its pages
        return np.matmul(ev.kernel_matrix.T, half, out=T)

    def apply(self, values):
        """Apply the operator to real grid values; returns real grid values."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.grid.n_theta, self.grid.n_phi):
            raise ConfigError("input values do not match the grid")
        modes = grid_to_modes(self.form.density * values,
                              self.grid.n_phi // 2)[None]
        A = self.coefficient_matrices(modes, np.ones((self.grid.n_theta, 1)),
                                      kept_modes(modes, MODE_TOL, self.p + 1))
        return self.evaluator.hermitian_form_on_grid(A[:, :, 0])


@dataclass
class DecayProbe:
    """Result of the off-diagonal supremum scan."""

    sup: float
    min_distance: float


def off_diagonal_sup(evaluator, eps, theta_stride, phi_stride):
    """Supremum over decimated node pairs at geodesic distance >= eps of

        p^{-1} * eta(x) eta(y) * sqrt(K_metric(x, y)),

    the metric-convention kernel modulus made dimensionless.  Decreasing in
    eps.  Also reports the smallest distance actually achieved, so closed
    forms can be evaluated at the same argument.
    """
    if not 0.0 < eps < INJECTIVITY_RADIUS:
        raise ConfigError(f"eps must lie in (0, {INJECTIVITY_RADIUS:.6f})")
    grid = evaluator.grid
    tt, pp = (mesh.ravel() for mesh in np.meshgrid(
        grid.theta[::theta_stride], grid.phi[::phi_stride], indexing="ij"))
    vecs = unit_vectors(tt, pp)
    sup = 0.0
    min_dist = math.inf
    for rows, cols, blk, _ in evaluator.kernel_tiles(tt, pp):
        dist = pairwise_distances(vecs[rows], vecs[cols])
        mask = dist >= eps
        if not mask.any():
            continue
        vals = (blk.eta_x[:, None] * blk.eta_y) * blk.omega_modulus
        sup = max(sup, float(vals[mask].max() / evaluator.p))
        min_dist = min(min_dist, float(dist[mask].min()))
    if min_dist == math.inf:
        raise ConfigError("no node pairs at the requested separation")
    return DecayProbe(sup=sup, min_distance=min_dist)


@dataclass
class NearDiagonalProbe:
    """Gaussian comparison of the rescaled kernel in normal coordinates."""

    sup_residual: float
    center_residual: float


def tangent_window(radius, n_radial, n_angular):
    """Polar sample of tangent vectors in a disc, shape (n, 2); includes 0."""
    radii = np.linspace(0.0, radius, n_radial)
    angles = 2.0 * np.pi * np.arange(n_angular) / n_angular
    pts = [np.array([0.0, 0.0])]
    for r in radii[1:]:
        for a in angles:
            pts.append(np.array([r * math.cos(a), r * math.sin(a)]))
    return np.array(pts)


def near_diagonal_residual(evaluator, x0, window_constant, n_radial,
                           n_angular):
    """Sup over a tangent window of the rescaled-kernel/Gaussian mismatch.

    Both points run over ``|Z| <= window_constant / sqrt(p)`` in normal
    coordinates at x0; the comparison is between ``p^{-1}`` times the
    metric-convention kernel modulus and the flat Gaussian
    ``exp(-(pi/2) p |Z - Z'|^2)``.  Moduli only; no phase comparison.
    """
    p = evaluator.p
    radius = window_constant / math.sqrt(p)
    if radius >= INJECTIVITY_RADIUS:
        raise ConfigError(
            f"window {radius:.4g} reaches the injectivity radius; raise p")
    Z = tangent_window(radius, n_radial, n_angular)
    points = [exp_map(x0, z) for z in Z]
    theta = np.array([pt.theta for pt in points])
    phi = np.array([pt.phi for pt in points])
    sup = 0.0
    for rows, cols, blk, _ in evaluator.kernel_tiles(theta, phi):
        diff = Z[rows, None, :] - Z[None, cols, :]
        gauss = np.exp(-0.5 * math.pi * p * np.sum(diff * diff, axis=-1))
        resid = np.abs(blk.omega_modulus / p - gauss)
        sup = max(sup, float(resid.max()))
        if rows.start == cols.start == 0:
            center = float(resid[0, 0])
    return NearDiagonalProbe(sup_residual=sup, center_residual=center)


def weight_change_residuals(evaluator):
    """Max residuals of the reference/metric convention identities.

    One pass over the kernel tiles of all node pairs of the full grid feeds
    every check, each through the ``KernelBlock`` conventions it names:

    - ``kernel_eta``:   | |P_ref(x,y)| - eta(y) |P_metric_coef(x,y)| |
    - ``density_eta``:  | K(x,y) - eta(x) eta(y) K_metric(x,y) |
    - ``metric_symmetry``: | K_metric(x,y) - K_metric(y,x) |
    - ``frame_factor``: | |P_metric|^2 - |P_metric_coef|^2 * eta(y)/eta(x) |
    - ``hermitian_symmetry``: | P(x,y) - conj(P(y,x)) |
    - ``operator_factorization``: direct vs eta-factored vs fast smoothing
      application on four seeded random band-limited probes
    - ``reproducing``: full-grid quadrature reproduction of basis sections
    - ``projection_trace``: | quadrature of |P(x,x)| d nu - (p+1) |
    """
    grid = evaluator.grid
    form = evaluator.form
    tt = grid.theta_mesh.ravel()
    pp = grid.phi_mesh.ravel()
    op = SmoothingOperator(evaluator)
    # probes of degree at most 6, capped so that a coarse grid stays exact
    sht = SphericalHarmonicTransform(grid, min(6, grid.exactness_degree // 2))
    rng = np.random.default_rng(20240811)
    probes = np.stack([
        sht.synthesize(rng.normal(scale=1.0 / (1 + sht.degrees))).ravel()
        for _ in range(4)], axis=1)
    w_probes = grid.node_weights.reshape(-1, 1) * probes / op.rank_ratio
    w_nu_probes = form.density.reshape(-1, 1) * w_probes
    direct = np.zeros_like(probes)
    factored = np.zeros_like(probes)
    out = {}

    def track(key, residual):
        out[key] = max(out.get(key, 0.0), float(np.abs(residual).max()))

    for rows, cols, blk, mirror in evaluator.kernel_tiles(tt, pp):
        k_ref = blk.modulus ** 2
        k_metric = blk.omega_modulus ** 2
        omega_abs = np.abs(blk.omega_coefficient)
        track("kernel_eta", blk.modulus - blk.eta_y * omega_abs)
        track("density_eta",
              k_ref - (blk.eta_x[:, None] * blk.eta_y) * k_metric)
        track("frame_factor",
              k_metric - omega_abs ** 2 * (1.0 / blk.eta_x[:, None]
                                           * blk.eta_y))
        # a - b = -(b - a) exactly, so the (cols, rows) tile would give the
        # same two maxima bit for bit: one orientation is checked
        if rows.start <= cols.start:
            track("metric_symmetry", k_metric - mirror.omega_modulus.T ** 2)
            track("hermitian_symmetry",
                  blk.coefficient - mirror.coefficient.T.conj())
        # the two quadrature routes of the smoothing operator share the tiles
        direct[rows] += k_ref @ w_nu_probes[cols]
        factored[rows] += blk.eta_x[:, None] * (k_metric @ w_probes[cols])
    resid = float(np.abs(direct - factored).max())
    for probe, row in zip(probes.T, direct.T):
        fast = op.apply(probe.reshape(grid.n_theta, grid.n_phi))
        resid = max(resid, float(np.abs(row - fast.ravel()).max()))
    out["operator_factorization"] = resid
    repro = evaluator.reproduce_sections(tt[::97], pp[::97])
    target = evaluator.section_matrix(tt[::97], pp[::97])
    out["reproducing"] = float(np.abs(repro - target).max())
    trace = integrate(evaluator.diagonal_on_grid(), grid, form)
    out["projection_trace"] = abs(trace - (evaluator.p + 1))
    return out

