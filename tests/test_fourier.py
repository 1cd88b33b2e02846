import numpy as np
import pytest

from bergman_heat import section_basis
from bergman_heat.fourier import (diagonal_index, flip_basis, flip_unitary,
                                  from_flip_basis, grid_to_modes,
                                  moment_matrices)
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



def _flip_batch(dim, parities, rng):
    """Hermitian (dim, dim) matrices with T = eps J conj(T) J, J the flip
    k -> dim - 1 - k, one per parity eps."""
    flip = np.eye(dim)[::-1]
    batch = []
    for eps in parities:
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = x + x.conj().T
        batch.append(0.5 * (x + eps * flip @ x.conj() @ flip))
    return np.array(batch)


def test_diagonal_index_lays_out_the_lower_diagonals():
    dim = 5
    matrix = np.arange(dim * dim).reshape(dim, dim)
    assert (diagonal_index(dim) == np.concatenate(
        [np.diagonal(matrix, -mu) for mu in range(dim)])).all()


# p odd and even, the smallest and a benchmark size
@pytest.mark.parametrize("dim", [2, 3, 8, 9, 65])
def test_flip_basis_matches_dense_products(dim):
    rng = np.random.default_rng(dim)
    U = flip_unitary(dim)
    assert np.abs(U.conj().T @ U - np.eye(dim)).max() < 1e-15
    # two even items, then three odd ones
    parities = [1.0, 1.0, -1.0, -1.0, -1.0]
    T = _flip_batch(dim, parities, rng)
    dense = np.array([U.conj().T @ t @ U / (1 if eps > 0 else 1j)
                      for t, eps in zip(T, parities)])
    assert np.abs(dense.imag).max() < 1e-14
    for items, flip in ((slice(0, 2), 1), (slice(2, None), -1)):
        got = flip_basis(T[items].copy(), flip, np.empty(T.size))
        assert np.abs(got - dense[items].real).max() < 1e-14
    # and back: the lower triangle of U A U^H, for real A
    A = rng.normal(size=(4, dim, dim))
    back = from_flip_basis(A.copy(), np.empty(A.size, complex))
    lower = diagonal_index(dim)
    dense = np.array([U @ a @ U.conj().T for a in A])
    assert np.abs(back.reshape(4, -1)[:, lower]
                  - dense.reshape(4, -1)[:, lower]).max() < 1e-14
