"""Symmetry oracles of the converge norms.

Q, eta and the heat flow are natural under the isometries that carry one
volume form to another, so both norms of a form and of its image agree.  The
maps here act on the form's real-harmonic coefficients: a rotation about the
pole mixes each pair (l, +-m) by the angle m * alpha, the reflection
phi -> -phi negates the sine (m < 0) coefficients, the flip
theta -> pi - theta multiplies (l, m) by (-1)^(l+|m|), and the quarter turn
about the x-axis is taken by analyzing the turned log-density on a grid
exact for it.  The two reflections are exact symmetries of the grid
(phi_j = 2 pi j / n_phi, Gauss-Legendre nodes symmetric about the equator),
so the top singular vector maps to the image's and ``argmax_degrees``
agrees too; a rotation by a generic angle or a quarter turn is not, and
``argmax_degrees`` depends on the basis, so it is left out there.
"""

import math

import numpy as np
import pytest

from bergman_heat import VolumeForm, bench, build_grid, sweep_form
from bergman_heat.config import DEFAULTS
from bergman_heat.harmonics import real_sph_harm
from bergman_heat.heat import SphericalHarmonicTransform, coeff_index

P_VALUES = [4, 8, 12, 16]

FORMS = {
    "mixed": {(1, 1): 0.1, (2, 1): 0.05, (2, -2): 0.15, (3, -1): 0.04,
              (1, 0): -0.1},
    "tilted": {(1, 1): 0.1, (2, 1): 0.05},
    "zonal-full": {(1, 0): -0.3},
}


def rotate(coeffs, alpha=0.37):
    out = {}
    for (l, m), c in coeffs.items():
        k = abs(m)
        c_cos, c_sin = coeffs.get((l, k), 0.0), coeffs.get((l, -k), 0.0)
        if m == 0:
            out[(l, 0)] = c
        else:
            out[(l, k)] = c_cos * math.cos(k * alpha) - c_sin * math.sin(k * alpha)
            out[(l, -k)] = c_cos * math.sin(k * alpha) + c_sin * math.cos(k * alpha)
    return out


def reflect_phi(coeffs):
    return {(l, m): -c if m < 0 else c for (l, m), c in coeffs.items()}


def flip_theta(coeffs):
    return {(l, m): c * (-1) ** (l + abs(m)) for (l, m), c in coeffs.items()}


def quarter_turn_map(coeffs):
    """The map of the density turned by the quarter turn about the x-axis
    that carries z to y: f(x, y, z) -> f(x, -z, y), analyzed on a grid exact
    for its degree.  Terms at most 1e-14 of the largest are rounding."""
    l_max = max(l for l, _ in coeffs)
    sht = SphericalHarmonicTransform(build_grid(l_max + 2, 2 * l_max + 4),
                                     l_max)
    st = np.sin(sht.grid.theta_mesh)
    x, y = st * np.cos(sht.grid.phi_mesh), st * np.sin(sht.grid.phi_mesh)
    z = np.cos(sht.grid.theta_mesh)
    theta, phi = np.arccos(np.clip(y, -1.0, 1.0)), np.arctan2(-z, x)
    values = sum(c * real_sph_harm(l, m, theta, phi)
                 for (l, m), c in coeffs.items())
    turned = sht.analyze(values)
    keep = np.abs(turned) > 1e-14 * np.abs(turned).max()
    return {(int(l), int(m)): float(turned[coeff_index(l, m)])
            for l, m in zip(sht.degrees[keep], sht.orders[keep])}


MAPS = {"rotate": rotate, "reflect-phi": reflect_phi, "flip-theta": flip_theta,
        "quarter-turn": quarter_turn_map}


@pytest.fixture(scope="module")
def sym_sht():
    return SphericalHarmonicTransform(build_grid(48, 96), 12)


@pytest.mark.parametrize("form_id,map_name", [
    ("mixed", "rotate"), ("mixed", "reflect-phi"), ("mixed", "flip-theta"),
    # tilted has no sine coefficients: phi -> -phi maps it to itself
    ("tilted", "rotate"), ("tilted", "flip-theta"),
    # neither symmetry, and a mirror axis, each turned off the pole
    ("mixed", "quarter-turn"), ("tilted", "quarter-turn"),
    # a zonal form and its flip both take the per-order block path
    ("zonal-full", "flip-theta"),
])
def test_norms_are_invariant(sym_sht, form_id, map_name):
    grid = sym_sht.grid
    coeffs = FORMS[form_id]
    mapped = MAPS[map_name](coeffs)
    assert mapped != coeffs
    bound = DEFAULTS["converge"]["tail_bound"]
    base = sweep_form(VolumeForm(grid, coeffs, form_id), P_VALUES, sym_sht,
                      bound)
    image = sweep_form(VolumeForm(grid, mapped, form_id), P_VALUES, sym_sht,
                       bound)
    for norms in ("norms1", "norms2"):
        a, b = np.array(getattr(base, norms)), np.array(getattr(image, norms))
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
    if map_name not in ("rotate", "quarter-turn"):
        assert base.argmax_degrees == image.argmax_degrees


def test_turned_and_mirror_routes_agree(sym_sht):
    # tilted-mirror is tilted turned about the pole and off it; a sweep
    # turns it onto the mirror route, which tilted takes as given
    bound = DEFAULTS["converge"]["tail_bound"]
    forms = [VolumeForm(sym_sht.grid, coeffs, form_id)
             for form_id, coeffs in (
                 ("tilted", {(1, 1): 0.1, (2, 1): 0.05}),
                 ("tilted-mirror", {(1, -1): -0.1, (2, -2): 0.05}))]
    assert [bench._turned(form, sym_sht)[1] is None
            for form in forms] == [True, False]
    reports = [sweep_form(form, P_VALUES, sym_sht, bound) for form in forms]
    for norms in ("norms1", "norms2"):
        a, b = (np.array(getattr(report, norms)) for report in reports)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
