import math

import numpy as np
import pytest
from scipy.special import gammaln

from bergman_heat import (ConfigError, InvalidRunError, SectionBasis,
                          VolumeForm, bergman_evaluator, build_grid,
                          gram_matrix, section_basis)
from bergman_heat import sections
from bergman_heat.geometry import unit_vectors
from bergman_heat.sections import PAIR_BLOCK_ROWS, gram_matrix_bruteforce


def monomial_norm_sq(p, j):
    # Beta integral: <z^j, z^j> = j! (p-j)! / (p+1)!
    return math.exp(gammaln(j + 1) + gammaln(p - j + 1) - gammaln(p + 2))


class TestSectionBasis:
    def test_rejects_zero_power(self):
        with pytest.raises(ConfigError):
            section_basis(0)

    def test_scaling_values(self):
        basis = section_basis(8)
        assert basis.scalings[3] == pytest.approx(math.sqrt(9 * 56), rel=1e-14)
        # scalings are exactly the inverse square roots of the Beta integrals
        for j in range(9):
            assert basis.scalings[j] == pytest.approx(
                1.0 / math.sqrt(monomial_norm_sq(8, j)), rel=1e-13)

    @pytest.mark.parametrize("p", [1, 8])
    def test_orthonormal_under_metric_form(self, p):
        grid = build_grid(24, 48)
        basis = section_basis(p)
        sigma = basis.values(grid.theta_mesh.ravel(), grid.phi_mesh.ravel())
        w = grid.node_weights.ravel()
        gram = (sigma.conj() * w[:, None]).T @ sigma
        assert np.abs(gram - np.eye(p + 1)).max() < 1e-12

    def test_balanced_pointwise_sum(self, rng):
        basis = section_basis(11)
        theta = rng.uniform(0.01, math.pi - 0.01, 9)
        phi = rng.uniform(0, 2 * math.pi, 9)
        total = (np.abs(basis.values(theta, phi)) ** 2).sum(axis=1)
        assert np.abs(total - 12.0).max() < 1e-10

    def test_monomial_quadrature_matches_beta_integral(self):
        grid = build_grid(24, 48)
        p = 8
        basis = section_basis(p)
        profiles = basis.theta_profiles(grid.theta) / basis.scalings[None, :]
        for j in [0, 2, 5, 8]:
            val = np.sum(grid.w_theta * profiles[:, j] ** 2)
            assert val == pytest.approx(monomial_norm_sq(p, j), rel=1e-13)

    def test_pole_evaluation_is_finite(self):
        basis = section_basis(16)
        vals = basis.values(np.array([0.0, math.pi]), np.array([0.3, 0.4]))
        assert np.all(np.isfinite(vals))
        assert abs(vals[0, 0]) == pytest.approx(math.sqrt(17.0), rel=1e-13)


class TestGramMatrix:
    def test_identity_for_metric_form(self, grid, fs_form):
        gram = gram_matrix(section_basis(8), fs_form, grid)
        assert np.abs(gram.matrix - np.eye(9)).max() < 1e-12
        assert gram.condition_estimate == pytest.approx(1.0, abs=1e-10)

    def test_matches_bruteforce_nodes(self, grid, tilted_form):
        basis = section_basis(6)
        fast = gram_matrix(basis, tilted_form, grid).matrix
        slow = gram_matrix_bruteforce(basis, tilted_form, grid)
        assert np.abs(fast - slow).max() < 1e-13

    def test_hermitian_positive(self, grid, tilted_form):
        gram = gram_matrix(section_basis(10), tilted_form, grid)
        assert np.abs(gram.matrix - gram.matrix.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(gram.matrix).min() > 0

    def test_small_perturbation_linear_in_amplitude(self, grid):
        basis = section_basis(6)
        devs = []
        for c in (1e-3, 5e-4):
            form = VolumeForm(grid, {(1, 0): c})
            gram = gram_matrix(basis, form, grid)
            devs.append(np.abs(gram.matrix - np.eye(7)).max())
        assert devs[0] == pytest.approx(2 * devs[1], rel=1e-2)

    def test_rejects_insufficient_exactness(self, fs_form):
        small = build_grid(8, 16)
        form = VolumeForm(small, {})
        with pytest.raises(ConfigError):
            gram_matrix(section_basis(12), form, small)

    def test_condition_limit_enforced(self, grid, zonal_form, monkeypatch):
        monkeypatch.setattr(sections, "COND_LIMIT", 1.0001)
        with pytest.raises(InvalidRunError):
            gram_matrix(section_basis(8), zonal_form, grid)


class TestBergmanEvaluator:
    def test_diagonal_is_dimension(self, grid, fs_form):
        ev = bergman_evaluator(8, fs_form, grid)
        theta = np.array([0.3, 1.2, 2.6])
        phi = np.array([0.0, 2.0, 4.0])
        diag = ev.kernel(theta, phi, theta, phi).modulus.diagonal()
        assert np.abs(diag - 9.0).max() < 1e-12

    def test_modulus_closed_form(self, grid, fs_form, rng):
        p = 8
        ev = bergman_evaluator(p, fs_form, grid)
        tx = rng.uniform(0.1, 3.0, 5)
        px = rng.uniform(0, 6.0, 5)
        ty = rng.uniform(0.1, 3.0, 4)
        py = rng.uniform(0, 6.0, 4)
        mod_sq = ev.kernel(tx, px, ty, py).modulus ** 2
        cosg = unit_vectors(tx, px) @ unit_vectors(ty, py).T
        target = (p + 1) ** 2 * ((1.0 + cosg) / 2.0) ** p
        assert np.abs(mod_sq - target).max() < 1e-10

    def test_reproducing_property(self, grid, tilted_form):
        ev = bergman_evaluator(6, tilted_form, grid)
        theta = np.array([0.4, 1.0, 1.8, 2.7])
        phi = np.array([0.1, 2.2, 3.3, 5.0])
        repro = ev.reproduce_sections(theta, phi)
        target = ev.section_matrix(theta, phi)
        assert np.abs(repro - target).max() < 1e-8

    def test_hermitian_symmetry(self, grid, zonal_form):
        ev = bergman_evaluator(5, zonal_form, grid)
        t1, p1 = np.array([0.5, 1.5]), np.array([0.2, 3.0])
        t2, p2 = np.array([1.0, 2.5]), np.array([1.2, 4.4])
        k12 = ev.kernel(t1, p1, t2, p2).coefficient
        k21 = ev.kernel(t2, p2, t1, p1).coefficient
        assert np.abs(k12 - k21.conj().T).max() < 1e-12

    def test_projection_trace_is_dimension(self, grid, tilted_form):
        for p in (4, 9):
            ev = bergman_evaluator(p, tilted_form, grid)
            diag = ev.diagonal_on_grid()
            trace = np.sum(grid.node_weights * tilted_form.density * diag)
            assert trace == pytest.approx(p + 1, abs=1e-8)

    def test_diagonal_on_grid_matches_pointwise(self, grid, tilted_form):
        # the kernel's own diagonal, one longitude of nodes at a time
        ev = bergman_evaluator(5, tilted_form, grid)
        diag = ev.diagonal_on_grid()
        for j in range(grid.n_phi):
            phi = np.full(grid.n_theta, grid.phi[j])
            direct = np.diagonal(
                ev.kernel(grid.theta, phi, grid.theta, phi).coefficient)
            assert np.abs(direct.imag).max() < 1e-12 * direct.real.max()
            np.testing.assert_allclose(diag[:, j], direct.real, rtol=1e-12)

    @pytest.mark.parametrize("n_theta,n_phi", [(48, 96), (16, 15)])
    def test_hermitian_form_matches_pointwise_quadratic_form(
            self, rng, n_theta, n_phi):
        # n_phi = 15 = 2p + 1 is the smallest odd longitude grid the Gram
        # accepts at p = 7
        grid = build_grid(n_theta, n_phi)
        ev = bergman_evaluator(7, VolumeForm(grid, {}), grid)
        dim = ev.p + 1
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        A = raw + raw.conj().T
        values = ev.hermitian_form_on_grid(A)
        assert values.shape == (n_theta, n_phi)
        for j in range(n_phi):
            sigma = ev.basis.values(grid.theta, np.full(n_theta, grid.phi[j]))
            direct = np.einsum("ik,kl,il->i", sigma, A, sigma.conj())
            assert np.abs(direct.imag).max() < 1e-13 * np.abs(A).max()
            assert np.abs(values[:, j] - direct.real).max() \
                < 1e-13 * np.abs(A).max()

    def test_kernel_tiles_cover_every_pair_once(self, grid, tilted_form):
        # more points than two tiles, so the last tile is short
        n = 2 * PAIR_BLOCK_ROWS + 37
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.05, 3.1, n)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        ev = bergman_evaluator(6, tilted_form, grid)
        full = ev.kernel(theta, phi, theta, phi)
        seen = np.zeros((n, n), dtype=int)
        for rows, cols, blk, mirror in ev.kernel_tiles(theta, phi):
            assert max(rows.stop - rows.start,
                       cols.stop - cols.start) <= PAIR_BLOCK_ROWS
            seen[rows, cols] += 1
            for name in ("coefficient", "modulus", "omega_coefficient",
                         "omega_modulus"):
                for tile, a, b in ((blk, rows, cols), (mirror, cols, rows)):
                    np.testing.assert_allclose(
                        getattr(tile, name), getattr(full, name)[a, b],
                        rtol=1e-13, atol=1e-13, err_msg=name)
            np.testing.assert_array_equal(blk.eta_x, full.eta_x[rows])
            np.testing.assert_array_equal(blk.eta_y, full.eta_y[cols])
            np.testing.assert_array_equal(mirror.eta_x, full.eta_x[cols])
        assert (seen == 1).all()
