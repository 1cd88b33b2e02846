"""Spectral Laplacian and heat semigroup in the real harmonic basis.

The semigroup is exact-spectral: coefficients of degree l are multiplied by
``exp(-4*pi*l*(l+1)*u)``.  The only approximation anywhere is the harmonic
truncation, so rate measurements downstream are not polluted by
time-stepping error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fourier import grid_to_modes, profile_product
from .harmonics import legendre_profile

# largest accepted Legendre table, (l_max+1)^2 n_theta doubles (160 MB),
# filled at up to 1 us per entry on 2 cores (17 s at l_max 200 on 402 nodes);
# the default converge and heat-check tables hold 3.4e5 and 2.3e5
MAX_TABLE_ENTRIES = 2 * 10 ** 7


def laplace_eigenvalue(l):
    """Laplace eigenvalue of degree l (scalar or array) on the unit-area
    round sphere."""
    return 4.0 * math.pi * l * (l + 1.0)


def degree_vector(l_max):
    """Degree l of every packed coefficient slot, shape ((l_max+1)^2,)."""
    return np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)


def coeff_index(l, m):
    """Packed position of (l, m): degrees ascending, orders -l..l inside."""
    return l * (l + 1) + m


@dataclass
class HarmonicCoeffs:
    """Real spherical-harmonic coefficients packed degree-major."""

    l_max: int
    values: np.ndarray

    def __post_init__(self):
        expected = (self.l_max + 1) ** 2
        if self.values.shape != (expected,):
            raise ConfigError(
                f"expected {expected} coefficients, got {self.values.shape}")

    def copy_with(self, values):
        return HarmonicCoeffs(self.l_max, values)

    def norm_sq(self):
        return float(np.sum(self.values ** 2))


class SphericalHarmonicTransform:
    """Forward/inverse transform between grid values and harmonic coefficients.

    Exact (round-trip and Parseval to roundoff) for band-limited functions
    once ``2*l_max`` is within the grid's exactness degree.
    """

    def __init__(self, grid, l_max):
        if 2 * l_max > grid.exactness_degree:
            raise ConfigError(
                f"l_max {l_max} needs exactness >= {2 * l_max}, grid has "
                f"{grid.exactness_degree}")
        entries = (l_max + 1) ** 2 * grid.n_theta
        if entries > MAX_TABLE_ENTRIES:
            raise ConfigError(f"Legendre table of {entries:.2e} doubles is over "
                              f"the limit {MAX_TABLE_ENTRIES:.1e}; lower l_max")
        self.grid = grid
        self.l_max = int(l_max)
        # legendre[m, l, i] = normalized Legendre profile of degree l, order
        # m at node i; zero for l < m
        size = self.l_max + 1
        self.legendre = np.zeros((size, size, grid.n_theta))
        for m in range(size):
            for l in range(m, size):
                self.legendre[m, l] = legendre_profile(l, m, grid.cos_theta)
        # degree and order of every packed coefficient slot, and the factor
        # of the exp(i|m|phi) mode of Y_lm over its Legendre profile: 1 for
        # m = 0, 1/sqrt(2) for cosine (m > 0), -i/sqrt(2) for sine (m < 0);
        # the exp(-i|m|phi) mode carries the conjugate factor
        self.degrees = degree_vector(self.l_max)
        self.orders = np.arange(self.n_coeffs) - coeff_index(self.degrees, 0)
        # slot_profiles[i, s]: the Legendre profile of slot s at node i
        self.slot_profiles = self.legendre[np.abs(self.orders), self.degrees].T
        self.factors = np.select([self.orders > 0, self.orders < 0],
                                 [math.sqrt(0.5), -1j * math.sqrt(0.5)], 1.0)
        # the factor with the sine slots' i taken out, for functions whose
        # sine modes are carried as i times real numbers
        self.real_factors = np.where(self.orders < 0, self.factors.imag,
                                     self.factors.real)
        self.trig = self.rotated_trig(0.0)
        self.eigenvalues = laplace_eigenvalue(self.degrees)

    @property
    def n_coeffs(self):
        return (self.l_max + 1) ** 2

    def rotated_trig(self, alpha):
        """trig[m + l_max, j]: the longitude factor at node phi_j of Y_lm
        rotated about the pole by ``alpha``, Y_lm(theta, phi - alpha);
        twice the real part of its exp(i|m|phi) mode (once for m = 0)."""
        ms = np.arange(-self.l_max, self.l_max + 1)[:, None]
        return np.where(ms == 0, 1.0, 2.0) * (
            self.factors[coeff_index(self.l_max, ms)]
            * np.exp(1j * np.abs(ms) * (self.grid.phi - alpha))).real

    def order_products(self, mode_table, k, n_modes, out):
        """Longitude modes of (grid function) * Y_lm for every packed slot
        (l, m) of the orders m = +-k, in slot order, written into the flat
        buffer ``out``.

        ``mode_table`` holds the function's full DFT modes per colatitude
        node, shape (n_theta, n_phi).  Returns a view of ``out`` of shape
        (n_modes, n_theta, n_cols), mode by node by column: mode d of a grid
        product is the wrapped convolution of the table with the harmonic's
        two modes +-k, which every degree of the order shares.  A real table
        is that of a function even in phi; a sine slot's modes are then i
        times the real ones returned (``real_factors``).
        """
        ds = np.arange(n_modes)
        lo, hi = (mode_table[:, (ds + s) % self.grid.n_phi] for s in (-k, k))
        # one row of modes per sign, -k before +k as in the slots; a mode's
        # +k part carries the conjugate factor, which for the sine slots'
        # real factors is the negated one
        orders = np.array([-k, k] if k else [0])
        slots = coeff_index(k, orders)
        if np.iscomplexobj(mode_table):
            factors = self.factors[slots]
            conjugates = factors.conj()
        else:
            factors = self.real_factors[slots]
            conjugates = np.sign(orders) * factors
        modes = factors[:, None, None] * lo
        if k:
            modes += conjugates[:, None, None] * hi
        shape = (n_modes, self.grid.n_theta, self.l_max + 1 - k, len(slots))
        view = out[:math.prod(shape)].reshape(shape)
        # one sign at a time keeps the degrees in the inner loop
        for sign, sign_modes in enumerate(modes):
            np.multiply(sign_modes.T[:, :, None], self.legendre[k, k:].T,
                        out=view[..., sign])
        return view.reshape(n_modes, self.grid.n_theta, -1)

    def packed(self, proj, slots):
        """Real coefficients at the packed ``slots`` from the projections
        ``proj[|m|, l, col]`` of each column's +|m| longitude mode on the
        order-|m| Legendre profiles.

        <f, Y_lm> is Re(conj(factor) * mode) summed over the conjugate modes
        +-|m|: twice the +|m| term unless m = 0.  Real projections are those
        of functions whose sine modes are i times real numbers, and take the
        real factors.
        """
        scale = np.where(self.orders[slots] == 0, 1.0, 2.0)
        rows = proj[np.abs(self.orders[slots]), self.degrees[slots]]
        if np.iscomplexobj(proj):
            return ((scale * self.factors[slots].conj())[:, None] * rows).real
        return (scale * self.real_factors[slots])[:, None] * rows

    def section_moments(self, profiles, weights):
        """Section-harmonic moment tables of the section profiles a_k.

        One table per order mu = 0..min(l_max, P-1), P = ``profiles.shape[1]``:

            table[mu][l - mu, k]
                = sum_i weights[i] P_l^mu(theta_i) a_{k+mu}(theta_i) a_k(theta_i)

        for the degrees l = mu..l_max.  A longitude mode
        sum_k d_k a_{k+mu}(theta) a_k(theta) projects on the order-mu Legendre
        profiles as ``table[mu] @ d`` (weights ``w_theta``); with weights
        ``w_theta * rho`` the table folds a colatitude density in.
        """
        return [(self.legendre[mu, mu:] * weights)
                @ profile_product(profiles, mu)
                for mu in range(min(self.l_max + 1, profiles.shape[1]))]

    def analyze_diagonals(self, A, moments, grams, proj):
        """Projections and quadrature norms of real functions given by their
        section coefficient matrices, without their longitude modes.

        ``A`` is a (n, P, P) Hermitian batch; item b is the function
        x -> sigma(x)^T A[b] conj(sigma(x)), whose longitude mode mu is
        sum_k A[b, k+mu, k] a_{k+mu} a_k (``fourier.profile_product``).
        Diagonal -mu, d, gives the order-mu projections ``moments[mu] @ d``
        (``section_moments`` at weights ``w_theta``) and the mode's
        quadrature d^H G_mu d (``grams[mu]``, ``fourier.product_grams``).
        A real batch holds symmetric matrices and antisymmetric ones, i
        times which are Hermitian.  Fills the flat buffer ``proj`` with the
        projections ``proj[mu, l, b]`` (``packed`` turns them into
        coefficients) and returns that view and the quadrature norms.
        """
        n, dim, _ = A.shape
        size = (self.l_max + 1) ** 2 * n
        proj = proj[:size].reshape(self.l_max + 1, self.l_max + 1, n)
        proj.fill(0.0)
        norm_sq = np.zeros(n)
        for mu in range(dim):
            # d[k, b] = A[b, k+mu, k]; the float view holds real and
            # imaginary parts side by side, so each real product serves both
            d = np.ascontiguousarray(
                np.diagonal(A, offset=-mu, axis1=1, axis2=2).T).view(float)
            # modes +-mu both count, except mode 0; modes 0..P-1 stay below
            # Nyquist, since the Gram's exactness check forces n_phi >= 2P - 1
            quad = np.sum(d * (grams[mu] @ d), axis=0).reshape(n, -1).sum(1)
            norm_sq += quad if mu == 0 else 2.0 * quad
            if mu < len(moments):
                proj[mu, mu:] = (moments[mu] @ d).view(A.dtype)
        return proj, norm_sq

    def analyze(self, values):
        """Grid values -> coefficients; quadrature against each harmonic."""
        # the float view of the weighted longitude modes holds real and
        # imaginary parts side by side, so one real product serves both
        wd = np.ascontiguousarray(
            self.grid.w_theta * grid_to_modes(values, self.l_max).T)
        proj = (self.legendre @ wd[:, :, None].view(float)).view(complex)
        return HarmonicCoeffs(self.l_max,
                              self.packed(proj, np.arange(self.n_coeffs))[:, 0])

    def synthesize(self, coeffs):
        """Coefficients -> grid values (inverse of :meth:`analyze`)."""
        if coeffs.l_max != self.l_max:
            raise ConfigError("coefficient band does not match the transform")
        return ((self.slot_profiles * coeffs.values)
                @ self.trig[self.orders + self.l_max])

    def basis_function(self, l, m):
        """Grid values of the (l, m) harmonic, from the cached profiles."""
        return np.outer(self.slot_profiles[:, coeff_index(l, m)],
                        self.trig[m + self.l_max])

    def grid_norm_sq(self, values):
        """Quadrature of f^2 against the metric volume form."""
        return float(np.sum(self.grid.node_weights * np.square(values)))


def heat_apply(coeffs, u):
    """Heat semigroup at time u >= 0: slots scale by exp(-4*pi*l*(l+1)*u)."""
    if u < 0:
        raise ConfigError("heat time must be nonnegative")
    lam = laplace_eigenvalue(degree_vector(coeffs.l_max))
    return coeffs.copy_with(np.exp(-lam * u) * coeffs.values)


def heat_diagonal(u):
    """On-diagonal heat kernel value, constant over the unit-area sphere.

    Spectral sum ``sum_l (2l+1) exp(-4 pi l (l+1) u)`` truncated once terms
    drop below 1e-16 of the partial sum.  Supported for u >= 1e-4.
    """
    if u <= 0:
        raise ConfigError("heat time must be positive")
    if u < 1e-4:
        raise ConfigError("heat_diagonal supports u >= 1e-4")
    total = 0.0
    l = 0
    while True:
        term = (2 * l + 1) * math.exp(-laplace_eigenvalue(l) * u)
        total += term
        if l > 0 and term < 1e-16 * total:
            break
        l += 1
        if l > 100000:  # pragma: no cover - unreachable for supported u
            raise ConfigError("heat_diagonal failed to converge")
    return total


def semigroup_derivative_residual(coeffs, u, h):
    """L2 residual of (Laplacian + d/du) applied to the heat flow of coeffs.

    The u-derivative uses a centered difference, so the residual is O(h^2)
    with a spectral constant; the identity is exact mode-wise.
    """
    if u <= 0:
        raise ConfigError("heat time must be positive")
    lam = laplace_eigenvalue(degree_vector(coeffs.l_max))
    exact = lam * np.exp(-lam * u) * coeffs.values
    fd = (np.exp(-lam * (u + h)) - np.exp(-lam * (u - h))) / (2.0 * h) * coeffs.values
    return float(np.sqrt(np.sum((exact + fd) ** 2)))
