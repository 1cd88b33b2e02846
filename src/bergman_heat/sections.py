"""Holomorphic sections of the degree-p bundle and their Bergman kernels.

Sections are the monomial basis evaluated in a pointwise-unit gauge: the
k-th section has numeric value

    a_k(theta) * exp(i*k*phi),
    a_k = sqrt((p+1) * binom(p,k)) * cos(theta/2)^(p-k) * sin(theta/2)^k,

so pointwise Hermitian pairings of sections are plain complex products of
these values and moduli of kernels are gauge quantities.  The pre-scaling
makes the basis orthonormal for the metric volume form, which keeps Gram
matrices of nearby reference forms well conditioned at large p.
"""

import csv
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln

from .errors import ConfigError, IllConditionedGramError
from .fourier import diagonal_modes, modes_to_grid, moment_matrices

# x points per band of the node-pair passes (39 MB complex at the 40 x 80 grid)
PAIR_BLOCK_ROWS = 768


class SectionBasis:
    """The p+1 monomial sections of the degree-p bundle, pre-orthonormalized."""

    def __init__(self, p):
        if p < 1:
            raise ConfigError("tensor power p must be at least 1")
        self.p = int(p)
        k = np.arange(self.p + 1)
        self._log_scalings = 0.5 * (math.log(self.p + 1.0)
                                    + gammaln(self.p + 1)
                                    - gammaln(k + 1) - gammaln(self.p - k + 1))
        self.scalings = np.exp(self._log_scalings)

    @property
    def dim(self):
        return self.p + 1

    def theta_profiles(self, theta):
        """Real radial factors a_k(theta), shape (len(theta), p+1).

        Evaluated in log space; extreme powers underflow cleanly to 0.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        k = np.arange(self.p + 1)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_c = np.log(np.cos(0.5 * theta))[:, None]
            log_s = np.log(np.sin(0.5 * theta))[:, None]
            term_c = np.where(k == self.p, 0.0, (self.p - k) * log_c)
            term_s = np.where(k == 0, 0.0, k * log_s)
        return np.exp(self._log_scalings[None, :] + term_c + term_s)

    def values(self, theta, phi):
        """Complex section values at points, shape (n_points, p+1)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        k = np.arange(self.p + 1)
        return self.theta_profiles(theta) * np.exp(1j * np.outer(phi, k))


def section_basis(p):
    """Construct the section basis; rejects p = 0."""
    return SectionBasis(p)


class GramMatrix:
    """Hermitian positive-definite L2 Gram of the section basis under a form."""

    def __init__(self, matrix, condition_estimate):
        self.matrix = matrix
        self.condition_estimate = condition_estimate
        try:
            self._cho = cho_factor(matrix, lower=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by cond
            raise IllConditionedGramError("Cholesky factorization failed") from exc

    @property
    def dim(self):
        return self.matrix.shape[0]

    def inverse(self):
        inv = cho_solve(self._cho, np.eye(self.dim, dtype=complex))
        return 0.5 * (inv + inv.conj().T)


def gram_matrix(basis, form, grid, cond_limit=1e12):
    """Assemble G[j,k] = <s_j, s_k> under the form, via longitude modes.

    The longitude quadrature collapses to the density's Fourier modes, so
    only 1-D colatitude sums remain; the result is bitwise Hermitian.
    Requires grid exactness at least ``2p + phi_band``.
    """
    p = basis.p
    if grid.exactness_degree < 2 * p + form.phi_band:
        raise ConfigError(
            f"grid exactness {grid.exactness_degree} below 2p+band ="
            f" {2 * p + form.phi_band}")
    H = moment_matrices(form.density_modes[None], grid.w_theta,
                        basis.theta_profiles(grid.theta), mode_tol=0.0)[0]
    eigs = np.linalg.eigvalsh(H)
    if eigs[0] <= 0.0:
        raise IllConditionedGramError(
            f"Gram not positive definite (min eigenvalue {eigs[0]:.3e})")
    cond = float(eigs[-1] / eigs[0])
    if cond > cond_limit:
        raise IllConditionedGramError(
            f"Gram condition estimate {cond:.3e} exceeds {cond_limit:.1e}")
    return GramMatrix(H, cond)


def gram_matrix_bruteforce(basis, form, grid):
    """Direct node-by-node Gram sum; diagnostic cross-check of the fast path."""
    p = basis.p
    H = np.zeros((p + 1, p + 1), dtype=complex)
    w_rho = grid.node_weights * form.density
    for j in range(grid.n_phi):
        sigma = basis.values(grid.theta, np.full(grid.n_theta, grid.phi[j]))
        H += (sigma.conj() * w_rho[:, j:j + 1]).T @ sigma
    return H


class KernelBlock:
    """Bergman kernel over point pairs (x_i, y_j), in both volume conventions.

    ``coefficient`` is P(x, y) against the reference form, ``modulus`` is |P|.
    The ``omega_*`` properties give the metric-volume-form convention, whose
    ``eta = dv_X / d nu`` factors are taken at ``eta_x`` and ``eta_y``.  Only
    kernel moduli are contractually meaningful across gauges.
    """

    def __init__(self, coefficient, eta_x, eta_y):
        self.coefficient = coefficient
        self.modulus = np.abs(coefficient)
        self.eta_x = eta_x
        self.eta_y = eta_y

    @property
    def omega_coefficient(self):
        """P(x, y) / eta(y): the density folded into the second slot makes
        plain metric-volume integration reproduce holomorphic sections."""
        return self.coefficient * (1.0 / self.eta_y)

    @property
    def omega_modulus(self):
        """Metric-convention kernel norm |P| / sqrt(eta(x) eta(y)): the twisted
        Hermitian structure weighs the slots of |omega_coefficient| by
        1/sqrt(eta(x)) and sqrt(eta(y))."""
        return self.modulus * np.outer(self.eta_x ** -0.5, self.eta_y ** -0.5)


class BergmanEvaluator:
    """Evaluates the Bergman projection kernel of a (basis, form, grid) triple."""

    def __init__(self, basis, form, grid, cond_limit=1e12):
        self.basis = basis
        self.form = form
        self.grid = grid
        self.gram = gram_matrix(basis, form, grid, cond_limit=cond_limit)
        self.kernel_matrix = self.gram.inverse()

    @property
    def p(self):
        return self.basis.p

    def section_matrix(self, theta, phi):
        return self.basis.values(theta, phi)

    def kernel(self, theta_x, phi_x, theta_y, phi_y):
        """Kernel block over all pairs of two point sets, (n_x, n_y)."""
        half = self.section_matrix(theta_x, phi_x) @ self.kernel_matrix
        coef = half @ self.section_matrix(theta_y, phi_y).conj().T
        return KernelBlock(coef, self.form.eta_at(theta_x, phi_x),
                           self.form.eta_at(theta_y, phi_y))

    def kernel_rows(self, theta, phi):
        """Yield ``(rows, block)`` over all pairs of one point set: bands of
        ``PAIR_BLOCK_ROWS`` x points against every point, from sections and
        eta evaluated once."""
        sigma = self.section_matrix(theta, phi)
        half = sigma @ self.kernel_matrix
        sigma_h = sigma.conj().T
        eta = self.form.eta_at(theta, phi)
        for start in range(0, len(eta), PAIR_BLOCK_ROWS):
            rows = slice(start, min(start + PAIR_BLOCK_ROWS, len(eta)))
            yield rows, KernelBlock(half[rows] @ sigma_h, eta[rows], eta)

    def diagonal_on_grid(self):
        """P(x, x) over the full grid, shape (n_theta, n_phi); real positive."""
        mu_cap = min(self.p, self.grid.n_phi // 2 - 1)
        profiles = self.basis.theta_profiles(self.grid.theta)
        modes = diagonal_modes(self.kernel_matrix[None], profiles, mu_cap)[0]
        return modes_to_grid(modes, self.grid.n_phi)

    def reproduce_sections(self, theta, phi):
        """Quadrature of P(x, .) against every basis section, at given x.

        Returns the (n_x, p+1) array that the reproducing property says
        should equal the section values at x.  The node sum runs over the
        full physical grid, independent of the mode-collapsed Gram path.
        """
        moments = gram_matrix_bruteforce(self.basis, self.form, self.grid)
        sx = self.section_matrix(theta, phi)
        return sx @ self.kernel_matrix @ moments


def bergman_evaluator(p, form, grid, cond_limit=1e12):
    return BergmanEvaluator(SectionBasis(p), form, grid, cond_limit=cond_limit)


def write_kernel_slice(path, evaluator, x_points, y_points):
    """Export kernel moduli over a point-pair block as CSV rows (i, j, |P|)."""
    tx = np.array([pt.theta for pt in x_points])
    px = np.array([pt.phi for pt in x_points])
    ty = np.array([pt.theta for pt in y_points])
    py = np.array([pt.phi for pt in y_points])
    mod = evaluator.kernel(tx, px, ty, py).modulus
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x_index", "y_index", "kernel_modulus"])
        for i in range(mod.shape[0]):
            for j in range(mod.shape[1]):
                writer.writerow([i, j, f"{mod[i, j]:.17g}"])
