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


class BergmanEvaluator:
    """Evaluates the Bergman projection kernel of a (basis, form, grid) triple.

    ``kernel_coefficient`` is the kernel of the projection acting against the
    reference form; the ``omega_*`` accessors expose the same projection in
    its metric-volume-form convention, where the change of Hermitian
    structure contributes explicit eta factors.  Only kernel moduli are
    contractually meaningful across gauges.
    """

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

    def kernel_coefficient(self, theta_x, phi_x, theta_y, phi_y):
        """Kernel values P(x, y) against the reference form, (n_x, n_y)."""
        sx = self.section_matrix(theta_x, phi_x)
        sy = self.section_matrix(theta_y, phi_y)
        return sx @ self.kernel_matrix @ sy.conj().T

    def kernel_modulus(self, theta_x, phi_x, theta_y, phi_y):
        return np.abs(self.kernel_coefficient(theta_x, phi_x, theta_y, phi_y))

    def density(self, theta_x, phi_x, theta_y, phi_y):
        """Squared kernel modulus (the smoothing-operator density)."""
        return self.kernel_modulus(theta_x, phi_x, theta_y, phi_y) ** 2

    def omega_coefficient(self, theta_x, phi_x, theta_y, phi_y):
        """Kernel of the same projection taken against the metric volume form.

        Folding the density into the second slot makes plain metric-volume
        integration reproduce holomorphic sections.
        """
        rho_y = self.form.density_at(theta_y, phi_y)
        return self.kernel_coefficient(theta_x, phi_x, theta_y, phi_y) * rho_y[None, :]

    def omega_modulus(self, theta_x, phi_x, theta_y, phi_y):
        """Pointwise norm of the metric-convention kernel.

        The twisted Hermitian structure weighs the two slots by
        ``1/sqrt(eta(x))`` and ``sqrt(eta(y))`` respectively.
        """
        eta_x = self.form.eta_at(theta_x, phi_x)
        eta_y = self.form.eta_at(theta_y, phi_y)
        mod = np.abs(self.omega_coefficient(theta_x, phi_x, theta_y, phi_y))
        return mod * np.sqrt(eta_y[None, :] / eta_x[:, None])

    def omega_density(self, theta_x, phi_x, theta_y, phi_y):
        return self.omega_modulus(theta_x, phi_x, theta_y, phi_y) ** 2

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
    mod = evaluator.kernel_modulus(tx, px, ty, py)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x_index", "y_index", "kernel_modulus"])
        for i in range(mod.shape[0]):
            for j in range(mod.shape[1]):
                writer.writerow([i, j, f"{mod[i, j]:.17g}"])
