"""Flat-space model objects: the Bargmann-Fock reproducing kernel on the
complex plane, the Landau-type operator annihilating it, and the Gaussian
Laplacian closed form used by the rescaling analysis.

Functions of the form polynomial times Gaussian, the kernel columns among
them, are differentiated exactly, as coefficient arrays
(``GaussianPolynomial``); arbitrary callables go through fourth-order
central differences.  numpy is the only dependency.
"""

import math

import numpy as np

from .errors import ConfigError

# largest accepted Gauss-Hermite order: its smallest weight is 5e-211, while
# numpy's hermgauss loses that weight to underflow at 371 and returns
# non-finite nodes from 372 on
MAX_QUAD_ORDER = 256


def bargmann_kernel(z, w):
    """Reproducing kernel exp(-(pi/2)(|z|^2 + |w|^2 - 2 z conj(w))).

    Hermitian in (z, w); its squared modulus is exp(-pi |z - w|^2).
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    expo = -0.5 * math.pi * (np.abs(z) ** 2 + np.abs(w) ** 2
                             - 2.0 * z * np.conj(w))
    return np.exp(expo)


# coefficients of x^i y^j of z = x + i y and of its conjugate
Z = np.array([[0.0, 1j], [1.0, 0.0]])
ZBAR = Z.conj()


def _values(coeffs, x, y):
    """A coefficient array's polynomial at points (x, y), shape
    ``x.shape`` + its batch axes."""
    xs = x[..., None] ** np.arange(coeffs.shape[0])
    ys = y[..., None] ** np.arange(coeffs.shape[1])
    return np.tensordot(xs[..., :, None] * ys[..., None, :], coeffs, axes=2)


def _derivative(coeffs, axis):
    """Coefficients of d/dx (axis 0) or d/dy (axis 1); a constant's is 0."""
    c = np.moveaxis(coeffs, axis, 0)
    if len(c) == 1:
        return 0 * coeffs
    powers = np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    return np.moveaxis(c[1:] * powers, 0, axis)


def _padded(coeffs, shape):
    out = np.zeros(shape + coeffs.shape[2:], dtype=complex)
    out[:coeffs.shape[0], :coeffs.shape[1]] = coeffs
    return out


def _product(a, b):
    """Coefficients of the product of two polynomials in x, y."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1)
                   + np.broadcast_shapes(a.shape[2:], b.shape[2:]),
                   dtype=complex)
    for i, j in np.ndindex(b.shape[:2]):
        out[i:i + a.shape[0], j:j + a.shape[1]] += a * b[i, j]
    return out


class GaussianPolynomial:
    """The function P(x, y) exp(E(x, y)) of z = x + i y, with P a polynomial
    and E a quadratic, in a form closed under differentiation:
    d_x (P e^E) = (d_x P + P E_x) e^E, and likewise in y.

    ``poly`` and ``expo`` hold the complex coefficients of x^i y^j of P and
    E on their first two axes.  Further axes, the same on both, are a batch,
    one function per entry (one kernel point w each), which every operation
    broadcasts, so one derivation serves the whole batch.  Sums are taken
    between functions that share their exponent.
    """

    def __init__(self, poly, expo):
        self.poly = poly
        self.expo = expo

    def diff(self, axis):
        """d/dx (axis 0) or d/dy (axis 1)."""
        return (GaussianPolynomial(_derivative(self.poly, axis), self.expo)
                + self.times(_derivative(self.expo, axis)))

    def times(self, coeffs):
        """The product with the polynomial of a coefficient array."""
        return GaussianPolynomial(_product(self.poly, coeffs), self.expo)

    def __add__(self, other):
        if other.expo is not self.expo:
            raise ValueError("sums need one shared exponent")
        shape = tuple(np.maximum(self.poly.shape[:2], other.poly.shape[:2]))
        return GaussianPolynomial(
            _padded(self.poly, shape) + _padded(other.poly, shape), self.expo)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return GaussianPolynomial(scalar * self.poly, self.expo)

    def __call__(self, x, y):
        """Values at real points (x, y), shape ``x.shape`` + the batch."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _values(self.poly, x, y) * np.exp(_values(self.expo, x, y))


def bargmann_kernel_columns(ws):
    """The kernel columns z -> K(z, w), one per kernel point w of ``ws`` on
    the batch axis: P = 1 and E = -(pi/2)(|z|^2 + |w|^2) + pi z conj(w)."""
    wc = np.conj(np.asarray(ws, dtype=complex))
    expo = np.zeros((3, 3) + wc.shape, dtype=complex)
    expo[0, 0] = -0.5 * math.pi * np.abs(wc) ** 2
    # z conj(w) = x conj(w) + y (i conj(w))
    expo[1, 0] = math.pi * wc
    expo[0, 1] = 1j * expo[1, 0]
    expo[2, 0] = expo[0, 2] = -0.5 * math.pi
    return GaussianPolynomial(np.ones((1, 1) + wc.shape, dtype=complex), expo)


def landau_operator_symbolic(f):
    """Exact application of (-2 d_z + pi conj(z)) (2 d_zbar + pi z) to a
    ``GaussianPolynomial``; returns one.

    The derivation is coefficient algebra in complex floating point.  On a
    kernel column every coefficient of the result cancels exactly: the
    x and y terms of 2 d_zbar K meet pi z K as -pi + pi, and its constant
    term is pi conj(w) + i (i pi conj(w)) = 0.
    """
    dzbar = 0.5 * (f.diff(0) + 1j * f.diff(1))
    inner = 2 * dzbar + math.pi * f.times(Z)
    dz_inner = 0.5 * (inner.diff(0) - 1j * inner.diff(1))
    return -2 * dz_inner + math.pi * inner.times(ZBAR)


def landau_kernel_residual(z, ws):
    """Max |L K(., w)| at points z over kernel points ws, from one exact
    derivation with the points w on the batch axis."""
    applied = landau_operator_symbolic(bargmann_kernel_columns(ws))
    z = np.asarray(z, dtype=complex)
    return float(np.abs(applied(z.real, z.imag)).max())


_D1_STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _fd_parts(f, z, h):
    """Fourth-order f_x, f_y, f_xx, f_yy at complex points z."""
    offsets = np.arange(-2, 3)
    fx = sum(c * f(z + k * h) for k, c in zip(offsets, _D1_STENCIL)) / h
    fy = sum(c * f(z + 1j * k * h) for k, c in zip(offsets, _D1_STENCIL)) / h
    fxx = sum(c * f(z + k * h) for k, c in zip(offsets, _D2_STENCIL)) / h ** 2
    fyy = sum(c * f(z + 1j * k * h) for k, c in zip(offsets, _D2_STENCIL)) / h ** 2
    return fx, fy, fxx, fyy


def landau_operator_apply(f, z):
    """Numeric application of the model operator to a callable f at points z,
    by fourth-order central differences with step 5e-4."""
    z = np.asarray(z, dtype=complex)
    fx, fy, fxx, fyy = _fd_parts(f, z, 5e-4)
    x, y = z.real, z.imag
    return (-(fxx + fyy) - 2.0 * math.pi * f(z)
            - 2.0 * math.pi * 1j * (y * fx - x * fy)
            + math.pi ** 2 * (x * x + y * y) * f(z))


def reproducing_residual(z, w, quad_order):
    """|integral of K(z, .) K(., w) - K(z, w)| by Gauss-Hermite quadrature."""
    if not 40 <= quad_order <= MAX_QUAD_ORDER:
        raise ConfigError(
            f"Gauss-Hermite order must lie in [40, {MAX_QUAD_ORDER}]")
    nodes, weights = np.polynomial.hermite.hermgauss(quad_order)
    # substitute u = sqrt(pi) * Re(v), etc.: the plane integral becomes
    # (1/pi) * double Gauss-Hermite sum of the Gaussian-free factor
    pts = nodes / math.sqrt(math.pi)
    vv = pts[:, None] + 1j * pts[None, :]
    z = complex(z)
    w = complex(w)
    integrand = np.exp(math.pi * (z * np.conj(vv) + vv * np.conj(w))
                       - 0.5 * math.pi * (abs(z) ** 2 + abs(w) ** 2))
    total = weights @ integrand @ weights / math.pi
    return float(abs(total - bargmann_kernel(z, w)))


def gaussian_laplacian_identity(p, w):
    """Positive flat Laplacian of exp(-pi p |Z - Z'|^2) at Z = 0.

    Returns ``(computed, closed_form)`` where the computed value comes from
    fourth-order second differences and the closed form is
    ``4 pi p (1 - pi p |Z'|^2) exp(-pi p |Z'|^2)`` (complex dimension one).
    """
    if p < 1:
        raise ConfigError("p must be at least 1")
    w = complex(w)
    # the Gaussian's width is 1/sqrt(p), so the step scales with it
    h = 2e-3 / math.sqrt(p)

    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.exp(-math.pi * p * np.abs(z - w) ** 2)

    _, _, fxx, fyy = _fd_parts(f, 0.0, h)
    computed = float((-(fxx + fyy)).real)
    closed = 4.0 * math.pi * p * (1.0 - math.pi * p * abs(w) ** 2) \
        * math.exp(-math.pi * p * abs(w) ** 2)
    return computed, closed
