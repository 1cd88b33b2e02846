import numpy as np
import pytest

from bergman_heat import section_basis
from bergman_heat.fourier import (diagonal_index, grid_to_modes,
                                  moment_matrices, profile_products)
from bergman_heat.harmonics import real_sph_harm

# float64 roundoff on O(1) sums over a few thousand nodes
TOL = 1e-13


@pytest.fixture(scope="module")
def weights(grid):
    """Constant, zonal and non-zonal weight functions on the grid."""
    tt, pp = grid.theta_mesh, grid.phi_mesh
    return np.stack([
        np.full((grid.n_theta, grid.n_phi), 0.7),
        1.0 + 0.4 * real_sph_harm(2, 0, tt, pp),
        np.exp(0.2 * real_sph_harm(1, 1, tt, pp)
               - 0.1 * real_sph_harm(3, -2, tt, pp)),
    ])


def node_sum(basis, grid, f):
    """sum over all nodes of w * f * conj(s_k) s_k', one longitude at a time."""
    out = np.zeros((basis.p + 1, basis.p + 1), dtype=complex)
    w_f = grid.node_weights * f
    for j in range(grid.n_phi):
        sigma = basis.values(grid.theta, np.full(grid.n_theta, grid.phi[j]))
        out += (sigma.conj() * w_f[:, j:j + 1]).T @ sigma
    return out


class TestMomentMatrices:
    def test_batch_matches_node_sum(self, grid, weights):
        basis = section_basis(9)
        modes = np.stack([grid_to_modes(f, grid.n_phi // 2).T
                          for f in weights], axis=2)
        batch = moment_matrices(modes, grid.w_theta,
                                basis.theta_profiles(grid.theta), 1e-16)
        for f, T in zip(weights, batch):
            assert np.abs(T - node_sum(basis, grid, f)).max() < TOL

    def test_batch_matches_per_item_calls(self, grid, weights):
        # the mode cut is batch-wide, so batching keeps some modes that a
        # single constant weight would drop; they are roundoff either way
        profiles = section_basis(9).theta_profiles(grid.theta)
        modes = np.stack([grid_to_modes(f, grid.n_phi // 2).T
                          for f in weights], axis=2)
        batch = moment_matrices(modes, grid.w_theta, profiles, 1e-16)
        for b, T in enumerate(batch):
            single = moment_matrices(modes[:, :, b:b + 1], grid.w_theta,
                                     profiles, 1e-16)[0]
            assert np.abs(T - single).max() < TOL

    def test_mode_cut_is_relative_to_largest_mode(self, grid):
        profiles = section_basis(5).theta_profiles(grid.theta)
        modes = np.zeros((6, grid.n_theta, 1), dtype=complex)
        modes[0, :, 0] = 1.0
        modes[3, :, 0] = 1e-30
        kept = moment_matrices(modes, grid.w_theta, profiles, 0.0)[0]
        cut = moment_matrices(modes, grid.w_theta, profiles, 1e-16)[0]
        assert np.all(np.diagonal(kept, offset=-3) != 0.0)
        assert np.all(np.diagonal(cut, offset=-3) == 0.0)
        assert np.array_equal(kept, kept.conj().T)

    def test_shared_products_change_no_bit(self, grid, weights):
        # a Q assembly hands its one list of profile products to every
        # batch; the sums are the same, term by term
        profiles = section_basis(9).theta_profiles(grid.theta)
        modes = np.stack([grid_to_modes(f, grid.n_phi // 2).T
                          for f in weights], axis=2)
        made = moment_matrices(modes, grid.w_theta, profiles, 1e-16)
        shared = moment_matrices(modes, grid.w_theta, profiles, 1e-16,
                                 products=profile_products(profiles))
        assert np.array_equal(made, shared)


def test_diagonal_index_lays_out_the_lower_diagonals():
    dim = 5
    matrix = np.arange(dim * dim).reshape(dim, dim)
    assert (diagonal_index(dim) == np.concatenate(
        [np.diagonal(matrix, -mu) for mu in range(dim)])).all()
