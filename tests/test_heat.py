import math

import numpy as np
import pytest

from bergman_heat import (ConfigError, HarmonicCoeffs,
                          SphericalHarmonicTransform, build_grid, heat_apply,
                          heat_diagonal, laplace_eigenvalue, real_sph_harm,
                          semigroup_derivative_residual)
from bergman_heat.fourier import grid_to_modes
from bergman_heat.heat import coeff_index, degree_vector


class TestTransform:
    def test_single_harmonic_isolated(self, grid, sht):
        coeffs = sht.analyze(sht.basis_function(3, 2))
        target = np.zeros(sht.n_coeffs)
        target[coeff_index(3, 2)] = 1.0
        assert np.abs(coeffs.values - target).max() < 1e-12

    def test_constant_hits_only_mean_slot(self, grid, sht):
        coeffs = sht.analyze(np.full((grid.n_theta, grid.n_phi), 2.5))
        assert coeffs.values[0] == pytest.approx(2.5, abs=1e-13)
        assert np.abs(coeffs.values[1:]).max() < 1e-13

    def test_round_trip_band_limited(self, grid, sht, rng):
        for case in ("even", "nyquist", "odd"):
            case_sht, c, nyquist = _analyze_input(case, grid, sht, rng)
            back = case_sht.analyze(case_sht.synthesize(c) + nyquist)
            assert np.abs(back.values - c.values).max() < 1e-10, case

    def test_parseval(self, grid, sht, rng):
        # a Nyquist term counts once in the grid norm, and not at all in the
        # coefficients
        for case in ("even", "nyquist", "odd"):
            case_sht, c, nyquist = _analyze_input(case, grid, sht, rng)
            f = case_sht.synthesize(c) + nyquist
            assert case_sht.analyze(f).norm_sq() == pytest.approx(
                c.norm_sq(), abs=1e-10)
            extra = float(case_sht.grid.w_theta @ nyquist[:, 0] ** 2)
            assert case_sht.grid_norm_sq(f) == pytest.approx(
                c.norm_sq() + extra, abs=1e-10)

    def test_basis_function_matches_direct_evaluation(self, grid, sht):
        for l, m in [(0, 0), (5, 0), (4, 3), (6, -2)]:
            direct = real_sph_harm(l, m, grid.theta_mesh, grid.phi_mesh)
            assert np.abs(sht.basis_function(l, m) - direct).max() < 1e-12

    def test_rejects_band_beyond_exactness(self):
        g = build_grid(8, 16)
        with pytest.raises(ConfigError):
            SphericalHarmonicTransform(g, 10)

    @pytest.mark.parametrize("m", [0, 1, -1, 20, -20])
    def test_order_products_match_grid_products(self, grid, sht, tilted_form,
                                                m):
        # one array holds the slots of both orders +-|m|, in slot order;
        # those of order m against the product formed on the grid
        values = tilted_form.density
        table = np.fft.fft(values, axis=1) / grid.n_phi
        n = 30
        k = abs(m)
        slots = np.flatnonzero(np.abs(sht.orders) == k)
        buffer = np.empty((n + 1) * grid.n_theta * len(slots), complex)
        out = sht.order_products(table, k, n + 1, buffer)
        assert out.shape == (n + 1, grid.n_theta, len(slots))
        assert np.shares_memory(out, buffer)
        for col, slot in enumerate(slots):
            if sht.orders[slot] != m:
                continue
            oracle = grid_to_modes(values * sht.basis_function(
                sht.degrees[slot], m), n)
            assert np.abs(out[:, :, col].T - oracle).max() < 1e-14

    @pytest.mark.parametrize("m", [0, 1, -1, 20, -20])
    def test_real_order_products_of_an_even_function(self, grid, sht,
                                                     tilted_form, m):
        # tilted's density is even in phi, so its modes are real and even;
        # from the real table, a cosine slot's product modes come real and
        # a sine slot's as i times the real numbers returned
        values = tilted_form.density
        table = np.fft.fft(values, axis=1) / grid.n_phi
        assert np.abs(table.imag).max() < 1e-15 * np.abs(table).max()
        n = 30
        k = abs(m)
        slots = np.flatnonzero(np.abs(sht.orders) == k)
        buffer = np.empty((n + 1) * grid.n_theta * len(slots))
        out = sht.order_products(np.ascontiguousarray(table.real), k, n + 1,
                                 buffer)
        for col, slot in enumerate(slots):
            if sht.orders[slot] != m:
                continue
            oracle = grid_to_modes(values * sht.basis_function(
                sht.degrees[slot], m), n)
            modes = out[:, :, col].T * (1j if m < 0 else 1.0)
            assert np.abs(modes - oracle).max() < 1e-14


class TestLaplacian:
    def test_kills_constants(self, sht):
        assert laplace_eigenvalue(0) == 0.0
        assert sht.eigenvalues[coeff_index(0, 0)] == 0.0

    def test_degree_one_eigenvalue(self, sht):
        assert laplace_eigenvalue(1) == pytest.approx(8 * math.pi, rel=1e-15)
        for m in (-1, 0, 1):
            assert sht.eigenvalues[coeff_index(1, m)] == pytest.approx(
                8 * math.pi, rel=1e-15)

    def test_positive_quadratic_form(self, rng):
        values = rng.normal(size=49)
        lam = laplace_eigenvalue(degree_vector(6))
        assert float(values @ (lam * values)) >= 0.0


class TestHeatFlow:
    def test_time_zero_identity(self, rng):
        c = HarmonicCoeffs(5, rng.normal(size=36))
        assert np.array_equal(heat_apply(c, 0.0).values, c.values)

    def test_degree_one_factor(self):
        p = 16
        values = np.zeros(9)
        values[coeff_index(1, 0)] = 1.0
        out = heat_apply(HarmonicCoeffs(2, values), 1.0 / (4 * math.pi * p))
        assert out.values[coeff_index(1, 0)] == pytest.approx(
            math.exp(-2.0 / p), rel=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            heat_apply(HarmonicCoeffs(1, np.zeros(4)), -0.1)

    def test_semigroup_law_exact(self, rng):
        c = HarmonicCoeffs(8, rng.normal(size=81))
        one = heat_apply(heat_apply(c, 0.05), 0.03)
        two = heat_apply(c, 0.08)
        assert np.abs(one.values - two.values).max() < 1e-15

    def test_positivity_of_band_limited_heat_image(self, grid, sht):
        f = np.abs(real_sph_harm(2, 1, grid.theta_mesh, grid.phi_mesh)) + 0.1
        c = sht.analyze(f)
        out = sht.synthesize(heat_apply(c, 0.02))
        assert out.min() > -1e-10

    def test_mass_conservation_and_contraction(self, grid, sht, rng):
        c = HarmonicCoeffs(sht.l_max,
                           rng.normal(size=sht.n_coeffs) / (1 + sht.degrees))
        f = sht.synthesize(c)
        hf = sht.synthesize(heat_apply(c, 0.07))
        w = grid.node_weights
        assert np.sum(w * hf) == pytest.approx(float(np.sum(w * f)),
                                               abs=1e-12)
        assert math.sqrt(np.sum(w * hf * hf)) <= math.sqrt(np.sum(w * f * f))

    def test_self_adjointness(self, grid, sht, rng):
        c1 = HarmonicCoeffs(sht.l_max, rng.normal(size=sht.n_coeffs))
        c2 = HarmonicCoeffs(sht.l_max, rng.normal(size=sht.n_coeffs))
        f, g = sht.synthesize(c1), sht.synthesize(c2)
        hf = sht.synthesize(heat_apply(sht.analyze(f), 0.04))
        hg = sht.synthesize(heat_apply(sht.analyze(g), 0.04))
        w = grid.node_weights
        assert np.sum(w * hf * g) == pytest.approx(float(np.sum(w * f * hg)),
                                                   abs=1e-10)


class TestHeatDiagonal:
    def test_leading_coefficient(self):
        # scaled diagonal tends to 1 as u -> 0
        for u, tol in [(1e-3, 5e-3), (1e-4, 5e-4)]:
            assert 4 * math.pi * u * heat_diagonal(u) == pytest.approx(1.0,
                                                                       abs=tol)

    def test_curvature_coefficient(self):
        # (4 pi u D - 1)/u -> 4 pi / 3, the scalar-curvature correction
        us = np.exp(np.linspace(math.log(1e-3), math.log(1e-2), 9))
        y = np.array([4 * math.pi * u * heat_diagonal(u) - 1.0 for u in us])
        linear = np.polyfit(us, y, 2)[1]
        assert linear == pytest.approx(4 * math.pi / 3.0, rel=0.01)

    def test_large_time_spectral_sum(self):
        target = 1.0 + 3.0 * math.exp(-8 * math.pi) \
            + 5.0 * math.exp(-24 * math.pi)
        assert heat_diagonal(1.0) == pytest.approx(target, rel=1e-15)

    def test_rejects_unsupported_times(self):
        with pytest.raises(ConfigError):
            heat_diagonal(0.0)
        with pytest.raises(ConfigError):
            heat_diagonal(5e-5)


class TestSemigroupDerivative:
    def test_residual_small_at_moderate_time(self, rng):
        c = HarmonicCoeffs(20, rng.normal(size=441))
        norm = math.sqrt(c.norm_sq())
        assert semigroup_derivative_residual(c, u=0.2, h=1e-4) <= 1e-6 * norm

    def test_second_order_in_h(self, rng):
        c = HarmonicCoeffs(10, rng.normal(size=121))
        r1 = semigroup_derivative_residual(c, u=0.2, h=2e-4)
        r2 = semigroup_derivative_residual(c, u=0.2, h=1e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.01)

    def test_mode_wise_identity_exact(self):
        # d/du of the mode factor equals minus the eigenvalue times it,
        # restated through the two public maps
        p = 16
        u = 1.0 / (4 * math.pi * p)
        values = np.zeros(16)
        values[coeff_index(2, 1)] = 1.0
        c = HarmonicCoeffs(3, values)
        lam_slots = laplace_eigenvalue(degree_vector(3))
        lhs = lam_slots * heat_apply(c, u).values / p
        lam = 4 * math.pi * 2 * 3
        rhs = (lam / p) * math.exp(-lam * u) * values
        assert np.abs(lhs - rhs).max() == 0.0


def _analyze_input(case, grid, sht, rng):
    """A transform, random coefficients of its band and an extra grid term:
    on the shared grid ("even"), the same plus a term on the Nyquist mode
    cos(n_phi phi / 2), which no harmonic of the band sees ("nyquist"), or
    on an odd longitude grid, which has no Nyquist mode ("odd")."""
    if case == "odd":
        grid = build_grid(24, 47)
        sht = SphericalHarmonicTransform(grid, 11)
    c = HarmonicCoeffs(sht.l_max, rng.normal(size=sht.n_coeffs))
    nyquist = np.zeros((grid.n_theta, grid.n_phi))
    if case == "nyquist":
        nyquist = np.cos(0.5 * grid.n_phi * grid.phi_mesh) \
            * (1.0 + grid.cos_theta[:, None])
    return sht, c, nyquist


def test_degree_vector_layout():
    degs = degree_vector(3)
    assert degs.tolist() == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3]
    assert coeff_index(2, -2) == 4
    assert coeff_index(2, 2) == 8
