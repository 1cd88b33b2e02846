"""Model geometry: the projective line with its prequantum normalization.

The Kaehler form integrates to 1 over the manifold (degree-one bundle), so
the underlying Riemannian surface is the round two-sphere of radius
``1/(2 sqrt(pi))`` with unit total area.  Laplace eigenvalues are then
``4*pi*l*(l+1)``.  This module provides points, quadrature grids with a
declared polynomial exactness degree, geodesic geometry in normal
coordinates, and strictly positive reference volume forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidRunError, value_text
from .fourier import phi_band
from .harmonics import real_sph_harm

#: Sphere radius forced by unit total area.
RADIUS = 1.0 / (2.0 * math.sqrt(math.pi))

#: Injectivity radius (half the great-circle length).
INJECTIVITY_RADIUS = math.pi * RADIUS

# largest imaginary part, relative to the largest modulus, of the longitude
# modes 0..n_phi/2 of a mirror-symmetric form's density, whose real parts
# the form keeps.  The modes are read alone, so no Gram condition enters:
# rounding leaves at most 6.7e-17 on the benchmark's forms after their
# turns (40 x 80, 102 x 204 and 152 x 304 grids, unrotated and at twenty
# seeded angles) and 2.8e-16 on the steep {(1,1): 5, (2,1): 2.5} on
# 64 x 128, while tilted rotated by 0.3, read as mirror-symmetric, leaves
# 3.4e-2
MIRROR_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class SpherePoint:
    """Point on the sphere: colatitude ``theta`` in [0, pi], longitude ``phi``.

    ``phi`` is normalized into [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ConfigError(f"colatitude out of range: {self.theta}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    def unit_vector(self):
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])


def unit_vectors(theta, phi):
    """Cartesian unit vectors for colatitude/longitude arrays, shape (..., 3)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                    axis=-1)


def geodesic_distance(x, y):
    """Great-circle distance on the radius ``RADIUS`` sphere."""
    dot = float(np.dot(x.unit_vector(), y.unit_vector()))
    return RADIUS * math.acos(min(1.0, max(-1.0, dot)))


def pairwise_distances(u, v):
    """Geodesic distances between unit-vector arrays u (n,3) and v (m,3)."""
    dots = np.clip(u @ v.T, -1.0, 1.0)
    return RADIUS * np.arccos(dots)


def _tangent_frame(point):
    """Orthonormal tangent frame (e1, e2) at a point.

    Away from the poles: e1 along increasing theta, e2 along increasing phi.
    At the poles the coordinate frame degenerates; a fixed Cartesian
    convention is used there instead.
    """
    st = math.sin(point.theta)
    if st < 1e-13:
        sign = 1.0 if point.theta < 0.5 * math.pi else -1.0
        return np.array([1.0, 0.0, 0.0]), np.array([0.0, sign, 0.0])
    ct = math.cos(point.theta)
    cp, sp = math.cos(point.phi), math.sin(point.phi)
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, 0.0])
    return e_theta, e_phi


def _point_from_unit_vector(v):
    theta = math.acos(min(1.0, max(-1.0, float(v[2]))))
    phi = math.atan2(float(v[1]), float(v[0]))
    return SpherePoint(theta, phi)


def exp_map(x0, Z):
    """Geodesic exponential; ``Z`` is a length-2 tangent vector at ``x0``.

    Rejects |Z| at or beyond the injectivity radius.
    """
    Z = np.asarray(Z, dtype=float)
    r = float(np.hypot(Z[0], Z[1]))
    if r >= INJECTIVITY_RADIUS:
        raise ConfigError(f"tangent vector length {r} >= injectivity radius")
    if r == 0.0:
        return x0
    e1, e2 = _tangent_frame(x0)
    direction = (Z[0] * e1 + Z[1] * e2) / r
    t = r / RADIUS
    v = math.cos(t) * x0.unit_vector() + math.sin(t) * direction
    return _point_from_unit_vector(v)


def log_map(x0, x):
    """Inverse of :func:`exp_map`; undefined at the antipode of ``x0``."""
    n0 = x0.unit_vector()
    n1 = x.unit_vector()
    c = min(1.0, max(-1.0, float(np.dot(n0, n1))))
    gamma = math.acos(c)
    if gamma >= math.pi - 1e-12:
        raise ConfigError("antipodal point: logarithm undefined")
    if gamma == 0.0:
        return np.zeros(2)
    tang = n1 - c * n0
    tang /= np.linalg.norm(tang)
    e1, e2 = _tangent_frame(x0)
    r = RADIUS * gamma
    return np.array([r * float(np.dot(tang, e1)), r * float(np.dot(tang, e2))])


class QuadratureGrid:
    """Gauss-Legendre x uniform-longitude product quadrature.

    Integrates spherical polynomials of degree up to ``exactness_degree``
    exactly against the mass-1 round measure; weights sum to 1.
    """

    def __init__(self, n_theta, n_phi):
        if n_theta < 2 or n_phi < 2:
            raise ConfigError("need at least 2 nodes per direction")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        x, w = np.polynomial.legendre.leggauss(self.n_theta)
        self.cos_theta = x
        self.theta = np.arccos(x)
        # w sums to 2; w_theta sums to 1 = total mass
        self.w_theta = 0.5 * w
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.exactness_degree = min(2 * self.n_theta - 1, self.n_phi - 1)
        self.node_weights = np.repeat(self.w_theta[:, None] / self.n_phi,
                                      self.n_phi, axis=1)

    @property
    def theta_mesh(self):
        return np.broadcast_to(self.theta[:, None],
                               (self.n_theta, self.n_phi))

    @property
    def phi_mesh(self):
        return np.broadcast_to(self.phi[None, :], (self.n_theta, self.n_phi))


def build_grid(n_theta, n_phi):
    """Construct a quadrature grid; rejects node counts below 2."""
    return QuadratureGrid(n_theta, n_phi)


def integrate(values, grid, form=None):
    """Quadrature of node values against ``dv_X`` or, if given, a volume form.

    Exact for band-limited integrands within the grid's exactness degree;
    linear and monotone for positive forms.
    """
    weights = grid.node_weights if form is None else grid.node_weights * form.density
    return np.sum(weights * values).item()


def is_zonal(coefficients):
    """True when every nonzero coefficient of a {(l, m): c} map has order
    m = 0: its density then depends on the colatitude alone, bit for bit."""
    return all(m == 0 for (_, m), c in coefficients.items() if c != 0.0)


def is_flip_symmetric(coefficients):
    """True when every nonzero coefficient of a {(l, m): c} map has l + |m|
    even: Y_lm(pi - theta, phi) = (-1)^(l+|m|) Y_lm(theta, phi), so its
    density is even under the equator flip theta -> pi - theta.  A rotation
    about the pole keeps l and |m|, so rotated maps keep the answer
    exactly."""
    return all((l + abs(m)) % 2 == 0
               for (l, m), c in coefficients.items() if c != 0.0)


def is_mirror_symmetric(coefficients):
    """True when no nonzero coefficient of a {(l, m): c} map has order
    m < 0: its density is then even under the mirror phi -> -phi, which
    maps the grid's longitudes onto themselves, bit for bit."""
    return all(m >= 0 for (_, m), c in coefficients.items() if c != 0.0)


class VolumeForm:
    """Strictly positive reference volume form ``d nu = rho * dv_X``.

    The density is ``exp`` of a real, low-degree spherical-harmonic
    combination, so positivity is automatic unless ``exp`` overflows or
    underflows, which is refused, and the longitude Fourier content stays
    narrow.  ``eta = 1/rho`` is the derived density of ``dv_X`` against
    ``d nu``.  A mirror-symmetric form's longitude modes are stored real.
    """

    def __init__(self, grid, coefficients, form_id="custom"):
        self.grid = grid
        self.form_id = str(form_id)
        self.coefficients = {(int(l), int(m)): float(c)
                             for (l, m), c in coefficients.items()}
        for (l, m), _ in self.coefficients.items():
            if not abs(m) <= l <= grid.exactness_degree:
                raise ConfigError(
                    f"bad harmonic index ({value_text(l)},{value_text(m)}): "
                    "needs |m| <= l <= "
                    f"{grid.exactness_degree}, the grid's exactness degree")
        with np.errstate(over="ignore"):
            self.density = np.exp(self.log_density_at(grid.theta_mesh,
                                                      grid.phi_mesh))
        if not (np.isfinite(self.density).all() and self.density.min() > 0.0):
            raise ConfigError(f"form {value_text(self.form_id)}: density is "
                              "not finite and positive at every node")
        self.eta = 1.0 / self.density
        self.volume = integrate(self.density, grid)
        self.density_inf = float(self.density.min())
        self.is_zonal = is_zonal(self.coefficients)
        # the Gauss-Legendre nodes are symmetric about the equator, so the
        # flip holds on every grid
        self.is_flip_symmetric = is_flip_symmetric(self.coefficients)
        self.is_mirror_symmetric = is_mirror_symmetric(self.coefficients)
        # longitude Fourier modes of the density, one row per theta node; a
        # mirror-symmetric form keeps the real parts of modes 0..n_phi/2,
        # mode -d wrapped onto mode d, so its Gram and inverse Gram are real
        modes = np.fft.fft(self.density, axis=1) / grid.n_phi
        if self.is_mirror_symmetric:
            half = modes[:, :grid.n_phi // 2 + 1]
            if np.abs(half.imag).max() > MIRROR_IMAG_TOL * np.abs(half).max():
                raise InvalidRunError(
                    f"form {value_text(self.form_id)}: density modes not real; "
                    "the form is not symmetric under phi -> -phi on the grid")
            wrapped = np.arange(grid.n_phi)
            modes = half.real[:, np.minimum(wrapped, grid.n_phi - wrapped)]
        self.density_modes = modes
        self.phi_band = phi_band(modes)

    def log_density_at(self, theta, phi):
        out = np.zeros(np.broadcast(np.asarray(theta, dtype=float),
                                    np.asarray(phi, dtype=float)).shape)
        for (l, m), c in sorted(self.coefficients.items()):
            out = out + c * real_sph_harm(l, m, theta, phi)
        return out

    def eta_at(self, theta, phi):
        """Pointwise ``dv_X / d nu`` off the grid, from the closed form."""
        return np.exp(-self.log_density_at(theta, phi))


def fubini_study_form(grid):
    """The metric volume form itself (density identically 1)."""
    return VolumeForm(grid, {}, form_id="fs")
