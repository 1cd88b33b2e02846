import math

import numpy as np
import pytest
from scipy.special import lpmv

from bergman_heat import (ConfigError, SphericalHarmonicTransform,
                          bergman_evaluator, build_grid, fubini_study_form,
                          heat_diagonal, integrate, laplace_eigenvalue,
                          real_sph_harm, semigroup_derivative_residual)
from bergman_heat.fourier import grid_to_modes, product_grams, profile_products
from bergman_heat.harmonics import legendre_profiles
from bergman_heat.heat import MAX_L_MAX, coeff_index, pole_turn, quarter_turn


def _lpmv_profile(l, m, x):
    """scipy's lpmv scaled to ``int_{-1}^{1} P^2 dx = 2``: the recurrence's
    independent oracle, finite up to degree and order ``MAX_L_MAX``."""
    return math.exp(0.5 * (math.log(2 * l + 1) + math.lgamma(l - m + 1)
                           - math.lgamma(l + m + 1))) * lpmv(m, l, x)


class TestLegendreRecurrence:
    # x = +-(1 - 2^-k), k = 21..26, lie within 1e-3 of the poles, and both
    # 1 - x^2, as lpmv forms it, and (1 - x)(1 + x) are exact there: at
    # other nodes that close, lpmv's rounded 1 - x^2 puts errors of up to
    # 4e-11 in its values, which the recurrence does not share
    POLES = np.concatenate([1.0 - 2.0 ** -np.arange(21, 27),
                            2.0 ** -np.arange(21, 27) - 1.0])

    @pytest.mark.parametrize("nodes", ["gauss", "poles"])
    def test_matches_lpmv_up_to_max_l_max(self, nodes):
        x = (build_grid(100, 200).cos_theta if nodes == "gauss"
             else self.POLES)
        if nodes == "poles":
            assert np.arccos(np.abs(x)).max() < 1e-3
        worst = 0.0
        for m in range(MAX_L_MAX + 1):
            for l, row in zip(range(m, MAX_L_MAX + 1),
                              legendre_profiles(m, x)):
                worst = max(worst, np.abs(row - _lpmv_profile(l, m, x)).max())
        # values reach 13 (order 0, degree 85, at the poles)
        assert worst < 1e-12


class TestTransform:
    def test_single_harmonic_isolated(self, grid, sht):
        coeffs = sht.analyze(sht.basis_function(3, 2))
        target = np.zeros(sht.n_coeffs)
        target[coeff_index(3, 2)] = 1.0
        assert np.abs(coeffs - target).max() < 1e-12

    def test_constant_hits_only_mean_slot(self, grid, sht):
        coeffs = sht.analyze(np.full((grid.n_theta, grid.n_phi), 2.5))
        assert coeffs[0] == pytest.approx(2.5, abs=1e-13)
        assert np.abs(coeffs[1:]).max() < 1e-13

    def test_table_past_the_oracle_is_finite_and_orthonormal(self):
        # lpmv overflows one degree past MAX_L_MAX; the recurrence's table
        # at twice that degree is finite, and Gauss quadrature, exact at
        # degree 2 * 170 on 200 nodes, finds each order's rows orthonormal
        grid = build_grid(200, 400)
        assert not np.isfinite(
            _lpmv_profile(MAX_L_MAX + 1, MAX_L_MAX, grid.cos_theta)).all()
        l_max = 2 * MAX_L_MAX
        table = SphericalHarmonicTransform(grid, l_max).legendre
        assert np.isfinite(table).all()
        for m in range(l_max + 1):
            rows = table[m, m:]
            gram = (rows * grid.w_theta) @ rows.T
            assert np.abs(gram - np.eye(l_max + 1 - m)).max() < 1e-12, m

    def test_round_trip_band_limited(self, grid, sht, rng):
        for case in ("even", "nyquist", "odd"):
            case_sht, c, nyquist = _analyze_input(case, grid, sht, rng)
            back = case_sht.analyze(case_sht.synthesize(c) + nyquist)
            assert np.abs(back - c).max() < 1e-10, case

    def test_parseval(self, grid, sht, rng):
        # a Nyquist term counts once in the grid norm, and not at all in the
        # coefficients
        for case in ("even", "nyquist", "odd"):
            case_sht, c, nyquist = _analyze_input(case, grid, sht, rng)
            f = case_sht.synthesize(c) + nyquist
            assert np.sum(case_sht.analyze(f) ** 2) == pytest.approx(
                np.sum(c ** 2), abs=1e-10)
            extra = float(case_sht.grid.w_theta @ nyquist[:, 0] ** 2)
            assert integrate(np.square(f), case_sht.grid) == pytest.approx(
                np.sum(c ** 2) + extra, abs=1e-10)

    @pytest.mark.parametrize("shape", [(440,), (442,), (441, 1), ()])
    def test_synthesize_refuses_other_shapes(self, sht, shape):
        assert sht.n_coeffs == 441
        with pytest.raises(ConfigError, match="expected 441 coefficients"):
            sht.synthesize(np.zeros(shape))

    def test_basis_function_matches_direct_evaluation(self, grid, sht):
        for l, m in [(0, 0), (5, 0), (4, 3), (6, -2)]:
            direct = real_sph_harm(l, m, grid.theta_mesh, grid.phi_mesh)
            assert np.abs(sht.basis_function(l, m) - direct).max() < 1e-12

    def test_rejects_band_beyond_exactness(self):
        g = build_grid(8, 16)
        with pytest.raises(ConfigError):
            SphericalHarmonicTransform(g, 10)

    @pytest.mark.parametrize("m", [0, 1, -1, 20, -20])
    def test_order_modes_match_grid_products(self, grid, sht, tilted_form,
                                             m):
        # the node modes of both orders +-|m| times the order's Legendre
        # rows, here of every other degree first; those of order m against
        # the product formed on the grid
        values = tilted_form.density
        table = np.fft.fft(values, axis=1) / grid.n_phi
        n = 30
        k = abs(m)
        degrees = np.arange(k, sht.l_max + 1)
        degrees = np.concatenate([degrees[0::2], degrees[1::2]])
        modes = sht.order_modes(table, k, n + 1)
        assert modes.shape == (2 if k else 1, grid.n_theta, n + 1)
        rows = sht.legendre[k, degrees].T
        sign = int(m > 0)
        for l, row in zip(degrees, rows.T):
            oracle = grid_to_modes(values * sht.basis_function(l, m), n)
            assert np.abs(modes[sign] * row[:, None] - oracle).max() < 1e-14

    @pytest.mark.parametrize("m", [0, 1, -1, 20, -20])
    def test_real_order_modes_of_an_even_function(self, grid, sht,
                                                  tilted_form, m):
        # tilted's density is even in phi, so its modes are real and even;
        # from the real table, a cosine slot's product modes come real and
        # a sine slot's as i times the real numbers returned
        values = tilted_form.density
        table = np.fft.fft(values, axis=1) / grid.n_phi
        assert np.abs(table.imag).max() < 1e-15 * np.abs(table).max()
        n = 30
        k = abs(m)
        modes = sht.order_modes(np.ascontiguousarray(table.real), k, n + 1)
        assert np.isrealobj(modes)
        sign = int(m > 0)
        for l in range(k, sht.l_max + 1):
            oracle = grid_to_modes(values * sht.basis_function(l, m), n)
            product = modes[sign] * sht.legendre[k, l][:, None]
            assert np.abs(product * (1j if m < 0 else 1.0)
                          - oracle).max() < 1e-14


class TestAnalyzeDiagonals:
    @pytest.mark.parametrize("batch", ["hermitian", "real"])
    def test_matches_the_grid_values(self, batch):
        # p = 4 on 32 x 64 at l_max 8, with the section moment tables and
        # product Grams that a Q assembly builds: each item's projections
        # against the transform of its values on the grid, and its
        # quadrature norm against their quadrature
        grid = build_grid(32, 64)
        sht = SphericalHarmonicTransform(grid, 8)
        ev = bergman_evaluator(4, fubini_study_form(grid), grid)
        products = profile_products(ev.profiles)
        moments = sht.section_moments(products, grid.w_theta, sht.l_max)
        grams = product_grams(products, grid.w_theta)
        rng = np.random.default_rng(35)
        x = rng.normal(size=(4, 5, 5))
        if batch == "hermitian":
            A = x + 1j * rng.normal(size=x.shape)
            A += A.conj().transpose(0, 2, 1)
            forms, outputs = A, [np.arange(sht.n_coeffs)] * len(A)
        else:
            # symmetric items, with cosine outputs, and antisymmetric ones,
            # i times which are Hermitian, with sine outputs
            parity = np.array([1.0, -1.0, 1.0, -1.0])
            A = x + parity[:, None, None] * x.transpose(0, 2, 1)
            forms = np.where(parity > 0, 1.0, 1j)[:, None, None] * A
            outputs = [np.flatnonzero((sht.orders >= 0) == (s > 0))
                       for s in parity]
        # item index last
        proj, norms = sht.analyze_diagonals(
            np.ascontiguousarray(A.transpose(1, 2, 0)), moments, grams,
            np.empty(sht.n_coeffs * len(A), A.dtype))
        for b, (form, slots) in enumerate(zip(forms, outputs)):
            values = ev.hermitian_form_on_grid(form)
            expected = sht.analyze(values)
            got = sht.packed(proj[:, :, b:b + 1], sht.packing(
                slots, sht.l_max + 1, batch == "real"))[:, 0]
            assert (np.abs(got - expected[slots]).max()
                    <= 1e-13 * np.abs(expected).max()), b
            assert norms[b] == pytest.approx(integrate(values ** 2, grid),
                                             rel=1e-13)


class TestQuarterTurn:
    @staticmethod
    def _inverse_turned_nodes(l_max, beta):
        """A transform on a grid exact for degree 2 ``l_max``, and the
        points R^-1 x of its nodes x.  With beta = 0 the turn R takes
        (x, y, z) to (x, z, -y), so R^-1 x is (x, -z, y); a turn by -beta
        about the pole before it moves the longitude of that point by
        beta.  The analysis of Y_lm o R^-1 is then column m of D_l, and
        zero off degree l."""
        sht = SphericalHarmonicTransform(build_grid(l_max + 2, 2 * l_max + 4),
                                         l_max)
        st = np.sin(sht.grid.theta_mesh)
        x = st * np.cos(sht.grid.phi_mesh)
        y = st * np.sin(sht.grid.phi_mesh)
        z = np.cos(sht.grid.theta_mesh)
        return sht, np.arccos(np.clip(y, -1.0, 1.0)), np.arctan2(-z, x) + beta

    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_matches_analyzed_turned_harmonics(self, beta):
        l_max = 6
        sht, theta, phi = self._inverse_turned_nodes(l_max, beta)
        for l in range(l_max + 1):
            turn = quarter_turn(l, beta)
            for m in range(-l, l + 1):
                coeffs = sht.analyze(real_sph_harm(l, m, theta, phi))
                column = np.zeros(sht.n_coeffs)
                column[l * l:(l + 1) ** 2] = turn[:, m + l]
                assert np.abs(coeffs - column).max() < 1e-13, (l, m)

    @pytest.mark.parametrize("m", [60, 76, -110])
    def test_matches_analyzed_turned_harmonic_at_degree_110(self, m):
        # the columns where the recursion this construction replaced was
        # off by 1.4e-7 (m = 60) and 7.8e-8 (m = 76), and a sectoral one
        l = 110
        sht, theta, phi = self._inverse_turned_nodes(l, 0.9)
        coeffs = sht.analyze(real_sph_harm(l, m, theta, phi))
        column = np.zeros(sht.n_coeffs)
        column[l * l:] = quarter_turn(l, 0.9)[:, m + l]
        assert np.abs(coeffs - column).max() < 1e-13

    def test_z_goes_to_y(self):
        # Y_10 is sqrt(3) z and Y_1,-1 is -sqrt(3) y (Condon-Shortley)
        assert np.array_equal(quarter_turn(1, 0.0)[:, 1], [-1.0, 0.0, 0.0])

    # the recursion this construction replaced reached 5.0e-13 at l = 46,
    # 3.3e-6 at l = 120 and 1.1e5 at l = 200
    @pytest.mark.parametrize("degrees", [range(47), [69, 85, 100, 120, 200]])
    def test_orthogonal(self, degrees):
        for l in degrees:
            D = quarter_turn(l, 0.7)
            assert np.abs(D @ D.T - np.eye(len(D))).max() < 1e-14, l


class TestPoleTurn:
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.3])
    def test_matches_analyzed_turned_harmonics(self, alpha):
        # the turn R by -alpha about the pole moves every longitude by
        # -alpha, so Y_lm o R^-1 at (theta, phi) is Y_lm at
        # (theta, phi + alpha); on a grid exact for degree 2 l_max its
        # analysis is column m of D_l, and zero off degree l
        l_max = 6
        sht = SphericalHarmonicTransform(build_grid(l_max + 2, 2 * l_max + 4),
                                         l_max)
        theta, phi = sht.grid.theta_mesh, sht.grid.phi_mesh + alpha
        for l in range(l_max + 1):
            turn = pole_turn(l, alpha)
            for m in range(-l, l + 1):
                coeffs = sht.analyze(real_sph_harm(l, m, theta, phi))
                column = np.zeros(sht.n_coeffs)
                column[l * l:(l + 1) ** 2] = turn[:, m + l]
                assert np.abs(coeffs - column).max() < 1e-13, (l, m)

    def test_orthogonal(self):
        for l in range(47):
            D = pole_turn(l, 0.7)
            assert np.abs(D @ D.T - np.eye(len(D))).max() < 1e-15


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
        lam = _small_sht(6).eigenvalues
        assert float(values @ (lam * values)) >= 0.0


class TestHeatFlow:
    def test_time_zero_identity(self, rng):
        c = rng.normal(size=36)
        assert np.array_equal(_small_sht(5).heat_factors(0.0) * c, c)

    def test_degree_one_factor(self):
        p = 16
        factors = _small_sht(2).heat_factors(1.0 / (4 * math.pi * p))
        assert factors[coeff_index(1, 0)] == pytest.approx(
            math.exp(-2.0 / p), rel=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            _small_sht(1).heat_factors(-0.1)

    def test_semigroup_law_exact(self, rng):
        c = rng.normal(size=81)
        small = _small_sht(8)
        one = small.heat_factors(0.03) * (small.heat_factors(0.05) * c)
        two = small.heat_factors(0.08) * c
        assert np.abs(one - two).max() < 1e-15

    def test_positivity_of_band_limited_heat_image(self, grid, sht):
        f = np.abs(real_sph_harm(2, 1, grid.theta_mesh, grid.phi_mesh)) + 0.1
        c = sht.analyze(f)
        out = sht.synthesize(sht.heat_factors(0.02) * c)
        assert out.min() > -1e-10

    def test_mass_conservation_and_contraction(self, grid, sht, rng):
        c = rng.normal(size=sht.n_coeffs) / (1 + sht.degrees)
        f = sht.synthesize(c)
        hf = sht.synthesize(sht.heat_factors(0.07) * c)
        w = grid.node_weights
        assert np.sum(w * hf) == pytest.approx(float(np.sum(w * f)),
                                               abs=1e-12)
        assert math.sqrt(np.sum(w * hf * hf)) <= math.sqrt(np.sum(w * f * f))

    def test_self_adjointness(self, grid, sht, rng):
        c1 = rng.normal(size=sht.n_coeffs)
        c2 = rng.normal(size=sht.n_coeffs)
        f, g = sht.synthesize(c1), sht.synthesize(c2)
        hf = sht.synthesize(sht.heat_factors(0.04) * sht.analyze(f))
        hg = sht.synthesize(sht.heat_factors(0.04) * sht.analyze(g))
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
    def test_residual_small_at_moderate_time(self, sht, rng):
        c = rng.normal(size=441)
        norm = math.sqrt(np.sum(c ** 2))
        assert semigroup_derivative_residual(sht.eigenvalues, c, u=0.2,
                                             h=1e-4) <= 1e-6 * norm

    def test_second_order_in_h(self, rng):
        c = rng.normal(size=121)
        lam = _small_sht(10).eigenvalues
        r1 = semigroup_derivative_residual(lam, c, u=0.2, h=2e-4)
        r2 = semigroup_derivative_residual(lam, c, u=0.2, h=1e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.01)

    def test_mode_wise_identity_exact(self):
        # d/du of the mode factor equals minus the eigenvalue times it,
        # restated through the two public maps
        p = 16
        u = 1.0 / (4 * math.pi * p)
        values = np.zeros(16)
        values[coeff_index(2, 1)] = 1.0
        small = _small_sht(3)
        lhs = small.eigenvalues * (small.heat_factors(u) * values) / p
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
    c = rng.normal(size=sht.n_coeffs)
    nyquist = np.zeros((grid.n_theta, grid.n_phi))
    if case == "nyquist":
        nyquist = np.cos(0.5 * grid.n_phi * grid.phi_mesh) \
            * (1.0 + grid.cos_theta[:, None])
    return sht, c, nyquist


def _small_sht(l_max):
    """A transform of band ``l_max`` on a small grid exact for it."""
    return SphericalHarmonicTransform(build_grid(l_max + 2, 2 * l_max + 4),
                                      l_max)


def test_degree_vector_layout():
    degs = _small_sht(3).degrees
    assert degs.tolist() == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3]
    assert coeff_index(2, -2) == 4
    assert coeff_index(2, 2) == 8
