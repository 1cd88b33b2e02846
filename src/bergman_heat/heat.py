"""Spectral Laplacian and heat semigroup in the real harmonic basis.

The semigroup is exact-spectral: coefficients of degree l are multiplied by
``exp(-4*pi*l*(l+1)*u)``.  The only approximation anywhere is the harmonic
truncation, so rate measurements downstream are not polluted by
time-stepping error.
"""

import math

import numpy as np

from .errors import ConfigError
from .fourier import grid_to_modes
from .harmonics import legendre_profiles

# largest accepted l_max.  The Legendre recurrence
# (harmonics.legendre_profiles) stays finite far past it, and the turns
# stay orthogonal to rounding (tested to degree 200), but
# scipy.special.lpmv, the recurrence's independent check in the tests,
# overflows at order 85 above degree 85, so past 85 nothing checks the
# tables; a higher limit needs an oracle that reaches it.  Under this limit
# and MAX_GRID_AXIS a table holds at most 1.5e7 doubles
MAX_L_MAX = 85

# smallest heat time of ``heat_diagonal``; its spectral sum runs to degrees
# of order 1/sqrt(u)
MIN_HEAT_TIME = 1e-4


def laplace_eigenvalue(l):
    """Laplace eigenvalue of degree l (scalar or array) on the unit-area
    round sphere."""
    return 4.0 * math.pi * l * (l + 1.0)


def coeff_index(l, m):
    """Packed position of (l, m): degrees ascending, orders -l..l inside."""
    return l * (l + 1) + m


def mode_factors(orders):
    """Factor of the exp(i|m|phi) mode of the real harmonic of order m over
    its Legendre profile: 1 for m = 0, 1/sqrt(2) for cosine (m > 0),
    -i/sqrt(2) for sine (m < 0); the exp(-i|m|phi) mode carries the
    conjugate factor."""
    return np.select([orders > 0, orders < 0],
                     [math.sqrt(0.5), -1j * math.sqrt(0.5)], 1.0)


def pole_turn(l, alpha):
    """Orthogonal matrix D_l on the real harmonics of degree l (rows and
    columns m = -l..l) of the turn by -``alpha`` about the pole, in the
    convention of ``quarter_turn``: D_l mixes each pair (l, +-m), m > 0, by
    the angle m alpha, so the pair z = c_(l,m) + i c_(l,-m) goes to
    exp(-i m alpha) z."""
    m = np.arange(1, l + 1)
    c, s = np.cos(m * alpha), np.sin(m * alpha)
    D = np.eye(2 * l + 1)
    D[l + m, l + m] = D[l - m, l - m] = c
    D[l + m, l - m], D[l - m, l + m] = s, -s
    return D


def quarter_turn(l, beta):
    """Orthogonal matrix D_l on the real harmonics of degree l (rows and
    columns m = -l..l) of the turn R by -``beta`` about the pole and then a
    quarter about the x-axis, which carries z to y: f o R^-1 has degree-l
    coefficients D_l c_l if f has c_l.

    The quarter turn is exp(i pi/2 J_x) on the complex harmonics Y_l^n
    (Condon-Shortley phase).  J_x is real symmetric tridiagonal, with
    sqrt((l - n)(l + n + 1)) / 2 at (n + 1, n), and its eigenvalues are the
    integers k = -l..l, so with the eigenvectors V of one ``eigh`` the
    turn is V diag(i^k) V^T, orthogonal to rounding at every degree
    (X. M. Feng, P. Wang, W. Yang and G. R. Jin, Phys. Rev. E 92, 043307
    (2015)).  The real harmonic of order m is
    f_m Y_l^|m| + (-1)^m conj(f_m) Y_l^-|m| (``mode_factors``).  At degree
    1 the quarter turn is the rotation itself on (y, z, x), the coordinates
    of Y_1,-1, Y_1,0 and Y_1,1 up to their signs, written out exactly."""
    if l == 1:
        return np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0]]) @ pole_turn(1, beta)
    m = np.arange(-l, l + 1)
    step = 0.5 * np.sqrt((l - m[:-1]) * (l + m[:-1] + 1.0))
    _, V = np.linalg.eigh(np.diag(step, 1) + np.diag(step, -1))
    X = (V * np.array([1.0, 1j, -1.0, -1j])[m % 4]) @ V.T
    # conj(C) X C^T, where row m of C holds the real harmonic's
    # coefficients, f_m at column l + |m| and g_m at l - |m| (none for m = 0)
    f = mode_factors(m)
    g = np.where(m != 0, (-1.0) ** m, 0.0) * f.conj()
    up, down = l + np.abs(m), l - np.abs(m)
    X = f.conj()[:, None] * X[up] + g.conj()[:, None] * X[down]
    return (X[:, up] * f + X[:, down] * g).real @ pole_turn(l, beta)


class SphericalHarmonicTransform:
    """Forward/inverse transform between grid values and harmonic
    coefficients (float arrays packed by ``coeff_index``), and their spectrum.

    Exact (round-trip and Parseval to roundoff) for band-limited functions
    once ``2*l_max`` is within the grid's exactness degree.
    """

    def __init__(self, grid, l_max):
        if 2 * l_max > grid.exactness_degree:
            raise ConfigError(
                f"l_max {l_max} needs exactness >= {2 * l_max}, grid has "
                f"{grid.exactness_degree}")
        self.grid = grid
        self.l_max = int(l_max)
        size = self.l_max + 1
        self.n_coeffs = size ** 2
        # legendre[m, l, i] = normalized Legendre profile of degree l, order
        # m at node i; zero for l < m
        self.legendre = np.zeros((size, size, grid.n_theta))
        for m in range(size):
            for l, row in zip(range(m, size),
                              legendre_profiles(m, grid.cos_theta)):
                self.legendre[m, l] = row
        # degree and order of every packed coefficient slot, and the factor
        # of the exp(i|m|phi) mode of Y_lm over its Legendre profile
        # (``mode_factors``)
        self.degrees = np.repeat(np.arange(size), 2 * np.arange(size) + 1)
        self.orders = np.arange(self.n_coeffs) - coeff_index(self.degrees, 0)
        # slot_profiles[i, s]: the Legendre profile of slot s at node i
        self.slot_profiles = self.legendre[np.abs(self.orders), self.degrees].T
        self.factors = mode_factors(self.orders)
        # the factor with the sine slots' i taken out, for functions whose
        # sine modes are carried as i times real numbers
        self.real_factors = np.where(self.orders < 0, self.factors.imag,
                                     self.factors.real)
        # trig[m + l_max, j]: the longitude factor of Y_lm at node phi_j,
        # twice the real part of its exp(i|m|phi) mode (once for m = 0)
        ms = np.arange(-self.l_max, self.l_max + 1)[:, None]
        self.trig = np.where(ms == 0, 1.0, 2.0) * (
            self.factors[coeff_index(self.l_max, ms)]
            * np.exp(1j * np.abs(ms) * grid.phi)).real
        self.eigenvalues = laplace_eigenvalue(self.degrees)

    def heat_factors(self, u):
        """Per-slot factors exp(-4*pi*l*(l+1)*u) of the heat flow at u >= 0."""
        if u < 0:
            raise ConfigError("heat time must be nonnegative")
        return np.exp(-self.eigenvalues * u)

    def order_modes(self, mode_table, k, n_modes):
        """Longitude modes 0..``n_modes``-1 of (grid function) * Y_lm over
        the order-k Legendre profile, for the orders m = -k and +k (k alone
        for k = 0), shape (S, n_theta, n_modes), sign by node by mode.

        ``mode_table`` holds the function's full DFT modes per colatitude
        node, shape (n_theta, n_phi).  Mode d of a grid product is the
        wrapped convolution of the table with the harmonic's two modes +-k,
        which every degree l of the order shares: mode d of the product with
        Y_lm at node i is the returned ``modes[s, i, d]`` times
        ``legendre[k, l, i]``, the factored batch of
        ``fourier.moment_matrices``.  A real table is that of a function
        even in phi; a sine slot's modes are then i times the real ones
        returned (``real_factors``).
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
        return modes

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

    def section_moments(self, products, weights):
        """Section-harmonic moment tables of the section profiles a_k.

        One table per order mu = 0..min(l_max, P-1), from the products
        ``products[mu]`` = a_{k+mu} a_k (``fourier.profile_products``):

            table[mu][l - mu, k]
                = sum_i weights[i] P_l^mu(theta_i) a_{k+mu}(theta_i) a_k(theta_i)

        for the degrees l = mu..l_max.  A longitude mode
        sum_k d_k a_{k+mu}(theta) a_k(theta) projects on the order-mu Legendre
        profiles as ``table[mu] @ d`` (weights ``w_theta``); with weights
        ``w_theta * rho`` the table folds a colatitude density in.
        """
        return [(self.legendre[mu, mu:] * weights) @ products[mu]
                for mu in range(min(self.l_max + 1, len(products)))]

    def analyze_diagonals(self, A, moments, grams, proj):
        """Projections and quadrature norms of real functions given by
        their section coefficient matrices, without their longitude modes.

        Item b is the function x -> sigma(x)^T A[b] conj(sigma(x)) of a
        Hermitian (P, P) matrix A[b], whose longitude mode mu is
        sum_k A[b, k+mu, k] a_{k+mu} a_k (``fourier.profile_products``), so
        only A's lower diagonals are read, where they lie; a real batch
        holds symmetric matrices and antisymmetric ones, i times which are
        Hermitian.  Diagonal -mu, d, gives the order-mu
        projections ``moments[mu] @ d`` (``section_moments`` at weights
        ``w_theta``) and the mode's quadrature d^H G_mu d (``grams[mu]``,
        ``fourier.product_grams``).  Fills the flat buffer ``proj`` with the
        projections ``proj[mu, l, b]`` (``packed`` turns them into
        coefficients) and returns that view and the quadrature norms.
        """
        n = A.shape[0]
        size = (self.l_max + 1) ** 2 * n
        proj = proj[:size].reshape(self.l_max + 1, self.l_max + 1, n)
        proj.fill(0.0)
        # the float views hold real and imaginary parts side by side, so
        # each real product serves both
        flat = proj.view(float)
        quads = np.empty((len(grams), flat.shape[2]))
        for mu, gram in enumerate(grams):
            d = np.ascontiguousarray(A.diagonal(-mu, 1, 2).T).view(float)
            np.sum(d * (gram @ d), axis=0, out=quads[mu])
            if mu < len(moments):
                np.matmul(moments[mu], d, out=flat[mu, mu:])
        # modes +-mu both count, except mode 0; modes 0..P-1 stay below
        # Nyquist, since the Gram's exactness check forces n_phi >= 2P - 1
        quads[1:] *= 2.0
        return proj, quads.sum(axis=0).reshape(n, -1).sum(axis=1)

    def analyze(self, values):
        """Grid values -> coefficients; quadrature against each harmonic."""
        # the float view of the weighted longitude modes holds real and
        # imaginary parts side by side, so one real product serves both
        wd = np.ascontiguousarray(
            self.grid.w_theta * grid_to_modes(values, self.l_max).T)
        proj = (self.legendre @ wd[:, :, None].view(float)).view(complex)
        return self.packed(proj, np.arange(self.n_coeffs))[:, 0]

    def synthesize(self, coeffs):
        """Coefficients -> grid values (inverse of :meth:`analyze`)."""
        if np.shape(coeffs) != (self.n_coeffs,):
            raise ConfigError(f"expected {self.n_coeffs} coefficients")
        return ((self.slot_profiles * coeffs)
                @ self.trig[self.orders + self.l_max])

    def basis_function(self, l, m):
        """Grid values of the (l, m) harmonic, from the cached profiles."""
        return np.outer(self.slot_profiles[:, coeff_index(l, m)],
                        self.trig[m + self.l_max])


def heat_diagonal(u):
    """On-diagonal heat kernel value, constant over the unit-area sphere.

    Spectral sum ``sum_l (2l+1) exp(-4 pi l (l+1) u)`` truncated once terms
    drop below 1e-16 of the partial sum.  Supported for u >=
    ``MIN_HEAT_TIME``.
    """
    if u <= 0:
        raise ConfigError("heat time must be positive")
    if u < MIN_HEAT_TIME:
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


def semigroup_derivative_residual(eigenvalues, coeffs, u, h):
    """L2 residual of (Laplacian + d/du) on the heat flow of coeffs, whose
    slots have the Laplace ``eigenvalues``.

    The u-derivative uses a centered difference, so the residual is O(h^2)
    with a spectral constant; the identity is exact mode-wise.
    """
    if u <= 0:
        raise ConfigError("heat time must be positive")
    exact = eigenvalues * np.exp(-eigenvalues * u) * coeffs
    fd = (np.exp(-eigenvalues * (u + h)) - np.exp(-eigenvalues * (u - h))) \
        / (2.0 * h) * coeffs
    return float(np.sqrt(np.sum((exact + fd) ** 2)))
