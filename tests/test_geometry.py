import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bergman_heat import (INJECTIVITY_RADIUS, RADIUS, ConfigError, SpherePoint,
                          VolumeForm, build_grid, exp_map, geodesic_distance,
                          integrate, log_map, real_sph_harm)
from bergman_heat.geometry import MIRROR_TOL, mirror_axis

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


def _same_axis(a, b):
    """Mirror axes agree modulo pi, the period of a reflection's axis."""
    return abs(math.sin(a - b)) <= 1e-14


class TestMirrorAxis:
    def test_maps_without_sine_coefficients_get_zero_exactly(self):
        assert mirror_axis({}) == 0.0
        assert mirror_axis({(1, 0): -0.3}) == 0.0
        assert mirror_axis({(1, 1): 0.1, (2, 1): 0.05, (2, -2): 0.0}) == 0.0

    def test_tilted_mirror_has_no_axis(self):
        # its order-1 sine term wants alpha = pi/2 (mod pi), its order-2
        # one alpha = pi/4 (mod pi/2)
        assert mirror_axis({(1, -1): -0.1, (2, -2): 0.05}) is None

    def test_small_sine_coefficient_off_the_axis_has_no_axis(self):
        assert mirror_axis({(1, 1): 0.1, (2, -1): 1e-9}) is None
        # at the tolerance it is dropped
        assert mirror_axis({(1, 1): 0.1, (2, -1): 0.5 * MIRROR_TOL * 0.1}) \
            == 0.0

    def test_pure_sine_form_gets_a_quarter_turn(self):
        assert mirror_axis({(1, -1): 0.1, (2, -1): 0.05}) == pytest.approx(
            math.pi / 2, abs=1e-15)

    def test_axis_of_a_zero_lowest_order_pair(self):
        # an explicit zero pair does not pin the candidates
        alpha = mirror_axis({(1, 1): 0.0, (2, -2): 0.1})
        assert _same_axis(2 * alpha, math.pi / 2)

    def test_benchmark_forms_rotated_by_the_seeded_angles(self):
        workloads = _load_workloads()
        for seed in range(1, 21):
            angle, _ = workloads.seeded_inputs(seed)
            for spec in workloads.NONZONAL_FORMS:
                rotated = workloads.rotate_form(spec, angle)
                coefficients = {
                    tuple(int(part) for part in key.split(",")): value
                    for key, value in rotated["coefficients"].items()}
                alpha = mirror_axis(coefficients)
                if spec["id"] == "tilted-mirror":
                    assert alpha is None, seed
                elif spec["id"] == "fs":
                    assert alpha == 0.0
                else:
                    assert 0.0 <= alpha < math.pi
                    assert _same_axis(alpha, angle), (seed, spec["id"])

    def test_volume_form_exposes_the_axis(self, grid):
        form = VolumeForm(grid, {(1, -1): 0.1}, "sine")
        assert form.mirror_axis == pytest.approx(math.pi / 2, abs=1e-15)
        assert VolumeForm(grid, {(1, -1): 0.1, (1, 1): 0.1},
                          "diagonal").mirror_axis == pytest.approx(
                              math.pi / 4, abs=1e-15)

    def test_axis_off_zero_needs_the_band_below_the_top_mode(self):
        # on 24x48 this density's band reaches the top longitude mode 24;
        # phi -> -phi maps the grid onto itself, a rotation by 0.3 does not
        small = build_grid(24, 48)
        strong = {(3, 3): 1.5}
        form = VolumeForm(small, strong, "strong")
        assert form.phi_band == 24 and form.mirror_axis == 0.0
        alpha = 0.3
        rotated = {(3, 3): 1.5 * math.cos(3 * alpha),
                   (3, -3): 1.5 * math.sin(3 * alpha)}
        assert mirror_axis(rotated) == pytest.approx(alpha, abs=1e-15)
        assert VolumeForm(small, rotated, "strong").mirror_axis is None
