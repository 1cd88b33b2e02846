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
from .fourier import (diagonal_modes, grid_to_modes, modes_to_grid,
                      moment_matrices)
from .geometry import INJECTIVITY_RADIUS, exp_map, pairwise_distances, unit_vectors

# smoothing-input longitude modes at most this fraction of the largest are skipped
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
        self._profiles = evaluator.basis.theta_profiles(self.grid.theta)
        self._mu_cap = min(self.p, self.grid.n_phi // 2 - 1)

    def apply_modes(self, modes):
        """Apply the operator to a batch of inputs in longitude-mode space.

        ``modes`` has shape (n, n_theta, n_modes) and holds the nonnegative
        longitude modes of ``density * f`` for each input f.  The inputs are
        folded into section moment matrices, conjugated by the inverse Gram,
        and taken back to their longitude modes, shape (n, n_theta, mu_cap+1).
        """
        T = moment_matrices(modes, self.grid.w_theta, self._profiles, MODE_TOL)
        M = self.evaluator.kernel_matrix
        A = M @ T @ M
        return diagonal_modes(A, self._profiles, self._mu_cap) / self.rank_ratio

    def apply(self, values):
        """Apply the operator to real grid values; returns real grid values."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.grid.n_theta, self.grid.n_phi):
            raise ConfigError("input values do not match the grid")
        modes = grid_to_modes(self.form.density * values, self.grid.n_phi // 2)
        return modes_to_grid(self.apply_modes(modes[None])[0], self.grid.n_phi)


@dataclass
class DecayProbe:
    """Result of the off-diagonal supremum scan."""

    sup: float
    min_distance: float
    n_pairs: int


def off_diagonal_sup(evaluator, eps, theta_stride=1, phi_stride=1):
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
    n_pairs = 0
    for rows, blk in evaluator.kernel_rows(tt, pp):
        dist = pairwise_distances(vecs[rows], vecs)
        mask = dist >= eps
        if not mask.any():
            continue
        vals = np.outer(blk.eta_x, blk.eta_y) * blk.omega_modulus
        sup = max(sup, float(vals[mask].max() / evaluator.p))
        min_dist = min(min_dist, float(dist[mask].min()))
        n_pairs += int(mask.sum())
    if n_pairs == 0:
        raise ConfigError("no node pairs at the requested separation")
    return DecayProbe(sup=sup, min_distance=min_dist, n_pairs=n_pairs)


@dataclass
class NearDiagonalProbe:
    """Gaussian comparison of the rescaled kernel in normal coordinates."""

    sup_residual: float
    center_residual: float
    window: float
    n_samples: int


def tangent_window(radius, n_radial=17, n_angular=17):
    """Polar sample of tangent vectors in a disc, shape (n, 2); includes 0."""
    radii = np.linspace(0.0, radius, n_radial)
    angles = 2.0 * np.pi * np.arange(n_angular) / n_angular
    pts = [np.array([0.0, 0.0])]
    for r in radii[1:]:
        for a in angles:
            pts.append(np.array([r * math.cos(a), r * math.sin(a)]))
    return np.array(pts)


def near_diagonal_residual(evaluator, x0, window_constant=3.0,
                           n_radial=17, n_angular=17):
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
            f"window {radius:.4f} reaches the injectivity radius; raise p")
    Z = tangent_window(radius, n_radial, n_angular)
    points = [exp_map(x0, z) for z in Z]
    theta = np.array([pt.theta for pt in points])
    phi = np.array([pt.phi for pt in points])
    mod = evaluator.kernel(theta, phi, theta, phi).omega_modulus
    diff = Z[:, None, :] - Z[None, :, :]
    gauss = np.exp(-0.5 * math.pi * p * np.sum(diff * diff, axis=-1))
    resid = np.abs(mod / p - gauss)
    return NearDiagonalProbe(
        sup_residual=float(resid.max()),
        center_residual=float(resid[0, 0]),
        window=radius,
        n_samples=len(Z),
    )


def weight_change_residuals(evaluator, n_probe_functions=4, seed=20240811):
    """Max residuals of the reference/metric convention identities.

    One pass over the kernel blocks of all node pairs of the full grid feeds
    every check, each through the ``KernelBlock`` conventions it names:

    - ``kernel_eta``:   | |P_ref(x,y)| - eta(y) |P_metric_coef(x,y)| |
    - ``density_eta``:  | K(x,y) - eta(x) eta(y) K_metric(x,y) |
    - ``metric_symmetry``: | K_metric(x,y) - K_metric(y,x) |
    - ``frame_factor``: | |P_metric|^2 - |P_metric_coef|^2 * eta(y)/eta(x) |
    - ``hermitian_symmetry``: | P(x,y) - conj(P(y,x)) |
    - ``operator_factorization``: direct vs eta-factored vs fast smoothing
      application on random band-limited probes
    - ``reproducing``: full-grid quadrature reproduction of basis sections
    - ``projection_trace``: | quadrature of |P(x,x)| d nu - (p+1) |
    """
    grid = evaluator.grid
    form = evaluator.form
    tt = grid.theta_mesh.ravel()
    pp = grid.phi_mesh.ravel()
    op = SmoothingOperator(evaluator)
    rng = np.random.default_rng(seed)
    probes = np.stack([_random_band_limited(grid, rng, l_max=6).ravel()
                       for _ in range(n_probe_functions)], axis=1)
    w_probes = grid.node_weights.reshape(-1, 1) * probes / op.rank_ratio
    w_nu_probes = form.density.reshape(-1, 1) * w_probes
    direct = np.empty_like(probes)
    factored = np.empty_like(probes)
    out = {}

    def track(key, residual):
        out[key] = max(out.get(key, 0.0), float(np.abs(residual).max()))

    for rows, blk in evaluator.kernel_rows(tt, pp):
        swapped = evaluator.kernel(tt, pp, tt[rows], pp[rows])
        k_ref = blk.modulus ** 2
        k_metric = blk.omega_modulus ** 2
        omega_abs = np.abs(blk.omega_coefficient)
        track("kernel_eta", blk.modulus - blk.eta_y * omega_abs)
        track("density_eta", k_ref - np.outer(blk.eta_x, blk.eta_y) * k_metric)
        track("metric_symmetry", k_metric - swapped.omega_modulus.T ** 2)
        track("frame_factor",
              k_metric - omega_abs ** 2 * np.outer(1.0 / blk.eta_x, blk.eta_y))
        track("hermitian_symmetry",
              blk.coefficient - swapped.coefficient.T.conj())
        # the two quadrature routes of the smoothing operator share the blocks
        direct[rows] = k_ref @ w_nu_probes
        factored[rows] = blk.eta_x[:, None] * (k_metric @ w_probes)
    resid = float(np.abs(direct - factored).max())
    for j in range(n_probe_functions):
        fast = op.apply(probes[:, j].reshape(grid.n_theta, grid.n_phi))
        resid = max(resid, float(np.abs(direct[:, j] - fast.ravel()).max()))
    out["operator_factorization"] = resid
    repro = evaluator.reproduce_sections(tt[::97], pp[::97])
    target = evaluator.section_matrix(tt[::97], pp[::97])
    out["reproducing"] = float(np.abs(repro - target).max())
    diag = evaluator.diagonal_on_grid()
    trace = np.sum(grid.node_weights * form.density * diag).item()
    out["projection_trace"] = abs(trace - (evaluator.p + 1))
    return out


def _random_band_limited(grid, rng, l_max=6):
    from .harmonics import real_sph_harm
    values = np.zeros((grid.n_theta, grid.n_phi))
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            values += rng.normal(scale=1.0 / (1 + l)) * real_sph_harm(
                l, m, grid.theta_mesh, grid.phi_mesh)
    return values
