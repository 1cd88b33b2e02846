"""Real spherical harmonics orthonormal for the unit-mass round measure.

The ambient measure is the metric volume form with total mass 1, so the
harmonics here carry an extra sqrt(4*pi) against the usual unit-sphere
normalization: Y_{0,0} = 1 and Y_{1,0} = sqrt(3) cos(theta).
"""

import math
from itertools import count, islice

import numpy as np


def legendre_profiles(m, x):
    """Normalized associated Legendre functions of order ``m`` >= 0 at
    ``x``, with ``int_{-1}^{1} P^2 dx = 2`` and the Condon-Shortley sign,
    yielded for the degrees l = m, m + 1, ... without end.

    The normalized three-term recurrence in l (Holmes and Featherstone,
    J. Geodesy 76 (2002) 279), seeded at l = m, never forms the
    unnormalized functions, which grow factorially with m (scipy's lpmv
    overflows at order 85 above degree 85); a seed that underflows near a
    pole stands for values below the smallest double.
    """
    x = np.asarray(x, dtype=float)
    # the seed (-1)^m sqrt((2m+1)!!/(2m)!!) sin(theta)^m; (1 - x)(1 + x)
    # keeps sin(theta)^2 accurate next to the poles
    scale = math.prod(-math.sqrt((2 * k + 1) / (2 * k))
                      for k in range(1, m + 1))
    row = scale * np.sqrt((1.0 - x) * (1.0 + x)) ** m
    below = np.zeros_like(row)
    for l in count(m + 1):
        yield row
        a = math.sqrt((2 * l - 1) * (2 * l + 1) / ((l - m) * (l + m)))
        b = math.sqrt((2 * l + 1) * (l + m - 1) * (l - m - 1)
                      / ((l - m) * (l + m) * max(2 * l - 3, 1)))
        below, row = row, a * x * row - b * below


def real_sph_harm(l, m, theta, phi):
    """Real spherical harmonic with unit L2 norm against the mass-1 measure.

    Positive m pairs with cos(m*phi), negative m with sin(|m|*phi).
    ``theta`` and ``phi`` must broadcast against each other.
    """
    cos_theta = np.cos(np.asarray(theta, dtype=float))
    base = next(islice(legendre_profiles(abs(m), cos_theta), l - abs(m),
                       None))
    if m == 0:
        return base * np.ones_like(np.asarray(phi, dtype=float))
    if m > 0:
        return np.sqrt(2.0) * base * np.cos(m * np.asarray(phi, dtype=float))
    return np.sqrt(2.0) * base * np.sin(-m * np.asarray(phi, dtype=float))
