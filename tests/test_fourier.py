import numpy as np
import pytest

from bergman_heat import SphericalHarmonicTransform, VolumeForm, section_basis
from bergman_heat.bergman import MODE_TOL
from bergman_heat.fourier import (_set_diagonal, grid_to_modes,
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


def plain(grid, functions):
    """The factored batch of grid functions, each its own sign with one row
    of ones: the layout the Gram and ``SmoothingOperator.apply`` pass."""
    modes = np.stack([grid_to_modes(f, grid.n_phi // 2) for f in functions])
    return modes, np.ones((grid.n_theta, 1))


def explicit_batch(modes, rows):
    """The batch formed item by item, ``batch[d, i, l S + s]`` =
    ``modes[s, i, d] * rows[i, l]``."""
    n_signs, n_theta, n_modes = modes.shape
    batch = np.empty((n_modes, n_theta, rows.shape[1], n_signs), modes.dtype)
    for s, sign_modes in enumerate(modes):
        np.multiply(sign_modes.T[:, :, None], rows, out=batch[..., s])
    return batch.reshape(n_modes, n_theta, -1)


def explicit_moment_matrices(batch, w_theta, profiles, mode_tol, parity):
    """Moment matrices of an explicit batch ``batch[d, i, b]``, with the
    mode magnitudes scanned over the whole batch: the reference of the
    factored routine."""
    n_modes, _, n = batch.shape
    dim = profiles.shape[1]
    mags = np.array([np.abs(mode).max() for mode in batch])
    cut = mode_tol * mags.max()
    T = np.zeros((n, dim, dim), dtype=batch.dtype)
    for d in range(min(dim, n_modes)):
        if d > 0 and mags[d] <= cut:
            continue
        weighted = np.ascontiguousarray(batch[d] * w_theta[:, None])
        prod = profiles[:, d:] * profiles[:, :dim - d]
        _set_diagonal(T, d, (prod.T @ weighted.view(float)).view(
            batch.dtype).T, parity)
    return T


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
        batch = moment_matrices(*plain(grid, weights), grid.w_theta,
                                basis.theta_profiles(grid.theta), 1e-16)
        for f, T in zip(weights, batch):
            assert np.abs(T - node_sum(basis, grid, f)).max() < TOL

    def test_batch_matches_per_item_calls(self, grid, weights):
        # the mode cut is batch-wide, so batching keeps some modes that a
        # single constant weight would drop; they are roundoff either way
        profiles = section_basis(9).theta_profiles(grid.theta)
        modes, ones = plain(grid, weights)
        batch = moment_matrices(modes, ones, grid.w_theta, profiles, 1e-16)
        for b, T in enumerate(batch):
            single = moment_matrices(modes[b:b + 1], ones, grid.w_theta,
                                     profiles, 1e-16)[0]
            assert np.abs(T - single).max() < TOL

    def test_mode_cut_is_relative_to_largest_mode(self, grid):
        profiles = section_basis(5).theta_profiles(grid.theta)
        modes = np.zeros((1, grid.n_theta, 6), dtype=complex)
        modes[0, :, 0] = 1.0
        modes[0, :, 3] = 1e-30
        ones = np.ones((grid.n_theta, 1))
        kept = moment_matrices(modes, ones, grid.w_theta, profiles, 0.0)[0]
        cut = moment_matrices(modes, ones, grid.w_theta, profiles, 1e-16)[0]
        assert np.all(np.diagonal(kept, offset=-3) != 0.0)
        assert np.all(np.diagonal(cut, offset=-3) == 0.0)
        assert np.array_equal(kept, kept.conj().T)

    def test_shared_products_change_no_bit(self, grid, weights):
        # a Q assembly hands its one list of profile products to every
        # batch; the sums are the same, term by term
        profiles = section_basis(9).theta_profiles(grid.theta)
        modes, ones = plain(grid, weights)
        made = moment_matrices(modes, ones, grid.w_theta, profiles, 1e-16)
        shared = moment_matrices(modes, ones, grid.w_theta, profiles, 1e-16,
                                 products=profile_products(profiles))
        assert np.array_equal(made, shared)

    def test_plain_batch_matches_explicit_batch_exactly(self, grid,
                                                        weights):
        # one row of ones changes no bit of the weighted modes
        profiles = section_basis(9).theta_profiles(grid.theta)
        modes, ones = plain(grid, weights)
        assert np.array_equal(
            moment_matrices(modes, ones, grid.w_theta, profiles, 1e-16),
            explicit_moment_matrices(explicit_batch(modes, ones),
                                     grid.w_theta, profiles, 1e-16, None))

    @pytest.mark.parametrize("k", [0, 1, 5, 20])
    def test_factored_order_batch_matches_explicit_batch(self, grid, k):
        # a Q assembly's order batch at p = 16: the same bits from a real
        # table, where the factored mode magnitudes are exact, and rounding
        # from a complex one, whose magnitudes may move in the last ulp
        sht = SphericalHarmonicTransform(grid, 20)
        profiles = section_basis(16).theta_profiles(grid.theta)
        rows = sht.legendre[k, k:].T
        for coefficients, exact in (({(1, 1): 0.2, (2, 1): 0.1}, True),
                                    ({(1, 1): 0.2, (2, -1): 0.1}, False)):
            table = VolumeForm(grid, coefficients, "f").density_modes
            assert np.isrealobj(table) == exact
            modes = sht.order_modes(table, k, 17)
            parity = (np.tile([-1.0, 1.0] if k else [1.0], len(rows.T))
                      if exact else None)
            factored = moment_matrices(modes, rows, grid.w_theta, profiles,
                                       MODE_TOL, parity=parity)
            explicit = explicit_moment_matrices(
                explicit_batch(modes, rows), grid.w_theta, profiles,
                MODE_TOL, parity)
            if exact:
                assert np.array_equal(factored, explicit)
            else:
                assert (np.abs(factored - explicit).max()
                        < TOL * np.abs(explicit).max())
