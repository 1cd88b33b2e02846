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

import math
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvalidRunError, count_text
from .fourier import moment_matrices

# points per side of the square node-pair tiles: a complex 192^2 tile is
# 0.59 MB, but a weight-change tile's live arrays take about 3.5 MB, more
# than a 2 MB per-core L2 cache holds
PAIR_BLOCK_ROWS = 192

# largest accepted point count squared of one all-pairs pass; tiles keep memory
# flat, so it bounds run time (one identities pass, tilted, p=16, 9800 nodes:
# 3.1-3.5 s at one BLAS thread on a 2-core Xeon)
MAX_PAIRS = 10 ** 8

# largest accepted node count along either grid axis: the Gauss-Legendre
# nodes come from a dense n x n eigenproblem, cubic in n (0.64 s at 2048 on
# 2 cores), and one float array over a 2048 x 2048 grid holds 34 MB
MAX_GRID_AXIS = 2048

# largest accepted Gram condition estimate
COND_LIMIT = 1e12


class SectionBasis:
    """The p+1 monomial sections of the degree-p bundle, pre-orthonormalized."""

    def __init__(self, p):
        if p < 1:
            raise ConfigError("tensor power p must be at least 1")
        self.p = int(p)
        # log k!, k = 0..p
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(self.p + 1)])
        self._log_scalings = 0.5 * (math.log(self.p + 1.0) + log_fact[-1]
                                    - log_fact - log_fact[::-1])
        self.scalings = np.exp(self._log_scalings)

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
    """Hermitian positive-definite L2 Gram of the section basis under a form,
    real when the form's density modes are."""

    def __init__(self, matrix, condition_estimate):
        self.matrix = matrix
        self.condition_estimate = condition_estimate
        try:
            self._cholesky = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as exc:
            raise InvalidRunError("Cholesky factorization failed") from exc

    def inverse(self):
        """G^-1 = L^-H L^-1 from the Cholesky factor G = L L^H, in the
        Gram's own real or complex dtype."""
        half = np.linalg.inv(self._cholesky)
        inv = half.conj().T @ half
        return 0.5 * (inv + inv.conj().T)


def gram_matrix(basis, form, grid):
    """Assemble G[j,k] = <s_j, s_k> under the form, via longitude modes.

    The longitude quadrature collapses to the density's Fourier modes, so
    only 1-D colatitude sums remain; the result is bitwise Hermitian.
    Requires grid exactness at least ``2p + phi_band``, so n_phi >= 2p + 1.
    """
    p = basis.p
    if grid.exactness_degree < 2 * p + form.phi_band:
        raise ConfigError(
            f"grid exactness {grid.exactness_degree} below 2p+band ="
            f" {2 * p + form.phi_band}")
    H = moment_matrices(form.density_modes[None], np.ones((grid.n_theta, 1)),
                        grid.w_theta, basis.theta_profiles(grid.theta),
                        mode_tol=0.0)[0]
    eigs = np.linalg.eigvalsh(H)
    if eigs[0] <= 0.0:
        raise InvalidRunError(
            f"Gram not positive definite (min eigenvalue {eigs[0]:.3e})")
    cond = float(eigs[-1] / eigs[0])
    if cond > COND_LIMIT:
        raise InvalidRunError(
            f"Gram condition estimate {cond:.3e} exceeds {COND_LIMIT:.1e}")
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


def check_pair_count(n):
    """Refuse an all-pairs pass over ``n`` points above ``MAX_PAIRS`` pairs."""
    if n * n > MAX_PAIRS:
        raise ConfigError(
            f"{count_text(n)} points make {count_text(n * n)} node pairs, "
            f"over the limit {MAX_PAIRS:.0e}; use fewer points")


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

    @cached_property
    def omega_modulus(self):
        """Metric-convention kernel norm |P| / sqrt(eta(x) eta(y)): the twisted
        Hermitian structure weighs the slots of |omega_coefficient| by
        1/sqrt(eta(x)) and sqrt(eta(y)).  Computed once per block."""
        return self.modulus * (self.eta_x[:, None] ** -0.5
                               * self.eta_y ** -0.5)


class BergmanEvaluator:
    """Evaluates the Bergman projection kernel of a (basis, form, grid) triple."""

    def __init__(self, basis, form, grid):
        self.basis = basis
        self.form = form
        self.grid = grid
        self.gram = gram_matrix(basis, form, grid)
        self.kernel_matrix = self.gram.inverse()
        # section profiles at the grid colatitudes
        self.profiles = basis.theta_profiles(grid.theta)

    @property
    def p(self):
        return self.basis.p

    def section_matrix(self, theta, phi):
        return self.basis.values(theta, phi)

    def point_factors(self, theta, phi):
        """The per-point factors of every kernel block over the points:
        sigma(x) M, conj(sigma(x)) and eta(x), one row per point, so the
        factors of a subset of the points are row slices."""
        sigma = self.section_matrix(theta, phi)
        half = sigma @ self.kernel_matrix
        # sigma is not read again, so its conjugate takes its pages
        np.conjugate(sigma, out=sigma)
        return half, sigma, self.form.eta_at(theta, phi)

    @staticmethod
    def pair_block(x, y, rows=slice(None), cols=slice(None)):
        """The one ``KernelBlock`` builder: the kernel over the points
        ``rows`` of ``point_factors`` ``x`` against the points ``cols`` of
        ``y``, P(x_i, y_j) = sigma(x_i) M conj(sigma(y_j)), one GEMM."""
        (half, _, eta_x), (_, conj, eta_y) = x, y
        return KernelBlock(half[rows] @ conj[cols].T, eta_x[rows],
                           eta_y[cols])

    def kernel(self, theta_x, phi_x, theta_y, phi_y):
        """Kernel block over all pairs of two point sets, (n_x, n_y), in one
        piece: the untiled oracle of ``kernel_tiles``."""
        return self.pair_block(self.point_factors(theta_x, phi_x),
                               self.point_factors(theta_y, phi_y))

    def kernel_tiles(self, theta, phi):
        """Yield ``(rows, cols, block, mirror)`` over all pairs of one point
        set: the kernel on square tiles of ``PAIR_BLOCK_ROWS`` points, rows x
        cols, and on cols x rows.  Sections and eta are evaluated once for
        the whole set, so each ordered tile costs one GEMM; it is evaluated
        once and comes once as ``block``.  Refuses more than ``MAX_PAIRS``
        pairs."""
        n = len(theta)
        check_pair_count(n)
        tiles = [slice(start, min(start + PAIR_BLOCK_ROWS, n))
                 for start in range(0, n, PAIR_BLOCK_ROWS)]
        factors = self.point_factors(theta, phi)
        for i, rows in enumerate(tiles):
            for cols in tiles[i:]:
                block = self.pair_block(factors, factors, rows, cols)
                mirror = block if cols == rows else self.pair_block(
                    factors, factors, cols, rows)
                yield rows, cols, block, mirror
                if cols != rows:
                    yield cols, rows, mirror, block

    def hermitian_form_on_grid(self, A):
        """x -> sigma(x)^T A conj(sigma(x)) at every grid node, shape
        (n_theta, n_phi), for a Hermitian (p+1, p+1) matrix A; real."""
        sigma = self.profiles[:, None, :] * np.exp(
            1j * np.outer(self.grid.phi, np.arange(self.p + 1)))
        return np.sum((sigma @ A) * sigma.conj(), axis=-1).real

    def diagonal_on_grid(self):
        """P(x, x) over the full grid, shape (n_theta, n_phi); real positive."""
        return self.hermitian_form_on_grid(self.kernel_matrix)

    def reproduce_sections(self, theta, phi):
        """Quadrature of P(x, .) against every basis section, at given x.

        Returns the (n_x, p+1) array that the reproducing property says
        should equal the section values at x.  The node sum runs over the
        full physical grid, independent of the mode-collapsed Gram path.
        """
        moments = gram_matrix_bruteforce(self.basis, self.form, self.grid)
        sx = self.section_matrix(theta, phi)
        return sx @ self.kernel_matrix @ moments


def bergman_evaluator(p, form, grid):
    return BergmanEvaluator(SectionBasis(p), form, grid)
