"""Flat-space model objects: the Bargmann-Fock reproducing kernel on the
complex plane, the Landau-type operator annihilating it, and the Gaussian
Laplacian closed form used by the rescaling analysis.

Differentiation of closed-form test functions is available symbolically
(exact); arbitrary callables go through fourth-order central differences.
Sympy is imported only inside the symbolic functions, so importing the
package does not load it.
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


def bargmann_kernel_expr(w):
    """Sympy expression of the kernel z -> K(z, w) in real symbols (x, y);
    w is a number or an expression in real symbols such as u + I*v."""
    import sympy as sp
    x, y = sp.symbols("x y", real=True)
    w = sp.sympify(w)
    wc = sp.conjugate(w)
    z = x + sp.I * y
    expo = -sp.pi / 2 * (x ** 2 + y ** 2 + w * wc - 2 * z * wc)
    return sp.exp(expo), (x, y)


def landau_operator_symbolic(expr, x, y):
    """Exact application of (-2 d_z + pi conj(z)) (2 d_zbar + pi z).

    ``expr`` is a sympy expression in the real symbols x, y with z = x + i y.
    """
    import sympy as sp
    z = x + sp.I * y
    zbar = x - sp.I * y
    dzbar = (sp.diff(expr, x) + sp.I * sp.diff(expr, y)) / 2
    inner = 2 * dzbar + sp.pi * z * expr
    dz_inner = (sp.diff(inner, x) - sp.I * sp.diff(inner, y)) / 2
    return -2 * dz_inner + sp.pi * zbar * inner


def landau_kernel_residual(z, ws):
    """Max |L K(., w)| at points z over kernel points ws, from one exact
    derivation with w = u + i v symbolic, evaluated by broadcasting."""
    import sympy as sp
    u, v = sp.symbols("u v", real=True)
    expr, (x, y) = bargmann_kernel_expr(u + sp.I * v)
    applied = sp.expand(landau_operator_symbolic(expr, x, y))
    func = sp.lambdify((x, y, u, v), applied, modules="numpy")
    z = np.asarray(z, dtype=complex)[:, None]
    w = np.asarray(ws, dtype=complex)[None, :]
    return float(np.abs(func(z.real, z.imag, w.real, w.imag)).max())


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


def reproducing_residual(z, w, quad_order=48):
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
