import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bergman_heat import (INJECTIVITY_RADIUS, RADIUS, ConfigError, SpherePoint,
                          VolumeForm, build_grid, exp_map, geodesic_distance,
                          integrate, log_map, real_sph_harm)
from bergman_heat.geometry import (is_flip_symmetric, is_mirror_symmetric,
                                  is_zonal)

WORKLOADS = (Path(__file__).resolve().parents[1] / "perfbench"
             / "workloads.py")


def test_radius_normalization():
    # unit total area forces this radius; eigenvalues 4*pi*l*(l+1) follow
    assert RADIUS == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-16)
    assert INJECTIVITY_RADIUS == pytest.approx(math.pi * RADIUS, abs=1e-16)


class TestSpherePoint:
    def test_angle_validation(self):
        with pytest.raises(ConfigError):
            SpherePoint(-0.1, 0.0)
        with pytest.raises(ConfigError):
            SpherePoint(math.pi + 0.1, 0.0)

    def test_phi_wraps(self):
        pt = SpherePoint(1.0, 2.0 * math.pi + 0.5)
        assert pt.phi == pytest.approx(0.5, abs=1e-15)


class TestGrid:
    def test_small_grid_counts_and_mass(self):
        g = build_grid(2, 4)
        assert g.n_theta * g.n_phi == 8
        assert np.sum(g.node_weights) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_tiny(self):
        with pytest.raises(ConfigError):
            build_grid(1, 4)
        with pytest.raises(ConfigError):
            build_grid(4, 1)

    def test_weight_positivity(self, grid):
        assert np.all(grid.node_weights > 0)
        assert np.sum(grid.node_weights) == pytest.approx(1.0, abs=1e-12)

    def test_exactness_degree_formula(self):
        g = build_grid(64, 128)
        assert g.exactness_degree == min(2 * 64 - 1, 128 - 1)

    def test_integrates_harmonics_to_zero(self):
        g = build_grid(64, 128)
        val = integrate(real_sph_harm(40, 7, g.theta_mesh, g.phi_mesh), g)
        assert abs(val) < 1e-12

    def test_harmonic_normalization(self):
        g = build_grid(64, 128)
        val = integrate(real_sph_harm(10, 3, g.theta_mesh, g.phi_mesh) ** 2, g)
        assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l,m", [(1, 0), (5, -4), (17, 2), (31, 31),
                                     (30, 0), (24, -11)])
    def test_exactness_across_degrees(self, grid, l, m):
        # every harmonic through the exactness degree integrates to zero
        assert l <= grid.exactness_degree
        val = integrate(
            real_sph_harm(l, m, grid.theta_mesh, grid.phi_mesh), grid)
        assert abs(val) < 1e-12


class TestDistance:
    def test_identity(self):
        x = SpherePoint(0.7, 0.3)
        assert geodesic_distance(x, x) == 0.0

    def test_antipodal(self):
        d = geodesic_distance(SpherePoint(0.0, 0.0), SpherePoint(math.pi, 0.0))
        assert d == pytest.approx(math.pi / (2.0 * math.sqrt(math.pi)),
                                  abs=1e-14)

    def test_quarter_circle(self):
        d = geodesic_distance(SpherePoint(math.pi / 2, 0.0),
                              SpherePoint(math.pi / 2, math.pi / 2))
        assert d == pytest.approx((math.pi / 2) / (2.0 * math.sqrt(math.pi)),
                                  abs=1e-14)

    def test_metric_properties(self, rng):
        pts = [SpherePoint(t, p) for t, p in
               zip(rng.uniform(0.05, math.pi - 0.05, 12),
                   rng.uniform(0, 2 * math.pi, 12))]
        for a in pts[:6]:
            for b in pts[6:]:
                dab = geodesic_distance(a, b)
                assert dab == pytest.approx(geodesic_distance(b, a), abs=1e-14)
                for c in pts[3:9]:
                    assert dab <= geodesic_distance(a, c) \
                        + geodesic_distance(c, b) + 1e-12


class TestNormalCoordinates:
    def test_zero_vector(self):
        x0 = SpherePoint(0.8, 1.0)
        assert exp_map(x0, np.zeros(2)) is x0

    def test_north_pole_geodesic(self):
        d = 0.3
        pt = exp_map(SpherePoint(0.0, 0.0), np.array([d, 0.0]))
        assert pt.theta == pytest.approx(d / RADIUS, abs=1e-12)

    def test_distance_preservation(self):
        x0 = SpherePoint(1.2, 0.7)
        Z = np.array([0.21, -0.13])
        pt = exp_map(x0, Z)
        assert geodesic_distance(x0, pt) == pytest.approx(
            float(np.hypot(*Z)), abs=1e-10)

    def test_log_exp_round_trip(self):
        x0 = SpherePoint(1.2, 0.7)
        Z = np.array([0.06, 0.08])
        assert np.allclose(log_map(x0, exp_map(x0, Z)), Z, atol=1e-12)

    def test_rejects_beyond_injectivity(self):
        with pytest.raises(ConfigError):
            exp_map(SpherePoint(1.0, 0.0), np.array([INJECTIVITY_RADIUS, 0.0]))


class TestIntegrate:
    def test_constant_against_metric_form(self, grid):
        assert integrate(np.ones((grid.n_theta, grid.n_phi)),
                         grid) == pytest.approx(1.0, abs=1e-12)

    def test_zonal_volume_against_adaptive_quadrature(self, grid, zonal_form):
        target, err = quad(
            lambda t: 0.5 * math.exp(-0.3 * math.sqrt(3.0) * math.cos(t))
            * math.sin(t), 0.0, math.pi, epsabs=1e-13)
        assert err < 1e-12
        assert integrate(np.ones((grid.n_theta, grid.n_phi)), grid,
                         form=zonal_form) == pytest.approx(target, abs=1e-12)
        assert zonal_form.volume == pytest.approx(target, abs=1e-12)

    def test_harmonic_integrates_to_zero(self, grid):
        assert abs(integrate(
            real_sph_harm(2, 1, grid.theta_mesh, grid.phi_mesh), grid)) < 1e-13

    def test_linearity_and_monotonicity(self, grid, zonal_form, rng):
        f = rng.normal(size=(grid.n_theta, grid.n_phi))
        g = rng.normal(size=(grid.n_theta, grid.n_phi))
        lhs = integrate(2.0 * f + 3.0 * g, grid, form=zonal_form)
        rhs = 2.0 * integrate(f, grid, form=zonal_form) \
            + 3.0 * integrate(g, grid, form=zonal_form)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert integrate(np.abs(f), grid, form=zonal_form) >= 0.0


class TestVolumeForm:
    def test_positive_density_and_eta_inverse(self, tilted_form):
        assert tilted_form.density_inf > 0
        assert np.abs(tilted_form.density * tilted_form.eta - 1.0).max() < 1e-14

    def test_off_grid_matches_grid(self, grid, tilted_form):
        vals = tilted_form.eta_at(grid.theta_mesh, grid.phi_mesh)
        assert np.abs(vals - tilted_form.eta).max() < 1e-14

    def test_phi_band_measurement(self, grid, zonal_form, tilted_form):
        assert zonal_form.phi_band == 0
        assert tilted_form.phi_band >= 1

    def test_rejects_bad_index(self, grid):
        with pytest.raises(ConfigError):
            VolumeForm(grid, {(1, 2): 0.1})

    def test_degree_is_bounded_by_grid_exactness(self):
        small = build_grid(8, 16)
        top = small.exactness_degree
        VolumeForm(small, {(top, 0): 0.01})
        with pytest.raises(ConfigError, match="exactness degree"):
            VolumeForm(small, {(top + 1, 0): 0.01})


def _load_workloads():
    """The benchmark's workload definitions, loaded from their file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seeded_coefficients(workloads, spec, seed):
    """A benchmark form's coefficient map rotated by a seed's angle."""
    angle, _ = workloads.seeded_inputs(seed)
    rotated = workloads.rotate_form(spec, angle)
    return {tuple(int(part) for part in key.split(",")): value
            for key, value in rotated["coefficients"].items()}


class TestMirrorKey:
    def test_benchmark_forms_at_the_seeded_angles(self):
        # a turn about the pole off phi = 0 gives each pair a sine term;
        # only the zonal forms have no pair
        workloads = _load_workloads()
        for seed in range(1, 21):
            for spec in workloads.NONZONAL_FORMS + workloads.DEFAULT_FORMS:
                coefficients = _seeded_coefficients(workloads, spec, seed)
                assert is_mirror_symmetric(coefficients) is is_zonal(
                    coefficients), (seed, spec["id"])

    def test_one_small_sine_coefficient_drops_the_mirror(self, grid):
        coefficients = {(1, 1): 0.1, (2, 1): 0.05}
        assert is_mirror_symmetric(coefficients)
        assert not is_mirror_symmetric({**coefficients, (2, -1): 1e-300})
        # an explicit zero is no coefficient
        assert is_mirror_symmetric({**coefficients, (2, -2): 0.0})
        assert VolumeForm(grid, coefficients, "tilted").is_mirror_symmetric
        assert not VolumeForm(grid, {(1, -1): 0.1}, "sine").is_mirror_symmetric


class TestFlipKey:
    def test_benchmark_forms_at_the_seeded_angles(self):
        # tilted-mirror and sectoral keep l + |m| even at every rotation;
        # tilted has (2, +-1) and zonal-half (1, 0)
        workloads = _load_workloads()
        specs = {spec["id"]: spec for spec in (workloads.NONZONAL_FORMS
                                               + workloads.DEFAULT_FORMS)}
        for seed in range(1, 21):
            for form_id, flip in (("tilted-mirror", True), ("sectoral", True),
                                  ("tilted", False), ("zonal-half", False)):
                coefficients = _seeded_coefficients(workloads,
                                                    specs[form_id], seed)
                assert is_flip_symmetric(coefficients) is flip, (seed,
                                                                 form_id)

    def test_one_small_odd_coefficient_drops_the_flip(self):
        coefficients = {(1, -1): -0.1, (2, -2): 0.05}
        assert is_flip_symmetric(coefficients)
        assert not is_flip_symmetric({**coefficients, (2, 1): 1e-9})
        # an explicit zero is no coefficient
        assert is_flip_symmetric({**coefficients, (2, 1): 0.0})

    def test_volume_form_exposes_the_key(self, grid):
        assert VolumeForm(grid, {(2, 2): 0.04, (3, 1): 0.02},
                          "sectoral").is_flip_symmetric
        assert not VolumeForm(grid, {(1, 0): -0.15},
                              "zonal-half").is_flip_symmetric
        # the density is even under theta -> pi - theta on the grid, whose
        # Gauss-Legendre nodes are symmetric about the equator
        form = VolumeForm(grid, {(1, -1): -0.1, (2, -2): 0.05},
                          "tilted-mirror")
        assert np.abs(form.density - form.density[::-1]).max() \
            <= 1e-15 * form.density.max()
