import math

import numpy as np
import pytest

from bergman_heat import (SphericalHarmonicTransform, VolumeForm, bench,
                          build_grid, section_basis)
from bergman_heat.fourier import (BAND_TOL, grid_to_modes, kept_modes,
                                  moment_matrices, profile_products)
from bergman_heat.harmonics import real_sph_harm
from test_geometry import _load_workloads, _seeded_coefficients

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


def explicit_moment_matrices(batch, w_theta, profiles, diagonals, parity):
    """Moment matrices of an explicit batch ``batch[d, i, b]`` on the modes
    ``diagonals``, item index last, written entry by entry: the reference
    of the factored routine."""
    n = batch.shape[2]
    dim = profiles.shape[1]
    T = np.zeros((dim, dim, n), dtype=batch.dtype)
    for d in diagonals:
        weighted = np.ascontiguousarray(batch[d] * w_theta[:, None])
        prod = profiles[:, d:] * profiles[:, :dim - d]
        values = (prod.T @ weighted.view(float)).view(batch.dtype)
        for k, row in enumerate(values):
            T[k + d, k] = row
            if d:
                T[k, k + d] = row.conj() if parity is None else parity * row
    return T


def cut(modes, profiles):
    """The diagonals a plain batch keeps under a 1e-16 magnitude cut."""
    return kept_modes(modes, 1e-16, profiles.shape[1])


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
        profiles = basis.theta_profiles(grid.theta)
        modes, ones = plain(grid, weights)
        batch = moment_matrices(modes, ones, grid.w_theta, profiles,
                                cut(modes, profiles))
        assert batch.shape == (10, 10, len(weights))
        for b, f in enumerate(weights):
            assert np.abs(batch[:, :, b]
                          - node_sum(basis, grid, f)).max() < TOL

    def test_batch_matches_per_item_calls(self, grid, weights):
        # the mode cut is batch-wide, so batching keeps some modes that a
        # single constant weight would drop; they are roundoff either way
        profiles = section_basis(9).theta_profiles(grid.theta)
        modes, ones = plain(grid, weights)
        batch = moment_matrices(modes, ones, grid.w_theta, profiles,
                                cut(modes, profiles))
        for b in range(len(weights)):
            single = moment_matrices(modes[b:b + 1], ones, grid.w_theta,
                                     profiles, cut(modes[b:b + 1], profiles))
            assert np.abs(batch[:, :, b] - single[:, :, 0]).max() < TOL

    def test_mode_cut_is_relative_to_largest_mode(self, grid):
        profiles = section_basis(5).theta_profiles(grid.theta)
        modes = np.zeros((1, grid.n_theta, 6), dtype=complex)
        modes[0, :, 0] = 1.0
        modes[0, :, 3] = 1e-30
        ones = np.ones((grid.n_theta, 1))
        assert list(kept_modes(modes, 0.0, 6)) == [0, 3]
        assert list(cut(modes, profiles)) == [0]
        kept = moment_matrices(modes, ones, grid.w_theta, profiles,
                               kept_modes(modes, 0.0, 6))[:, :, 0]
        dropped = moment_matrices(modes, ones, grid.w_theta, profiles,
                                  cut(modes, profiles))[:, :, 0]
        assert np.all(np.diagonal(kept, offset=-3) != 0.0)
        assert np.all(np.diagonal(dropped, offset=-3) == 0.0)
        assert np.array_equal(kept, kept.conj().T)

    def test_shared_products_change_no_bit(self, grid, weights):
        # a Q assembly hands its one list of profile products to every
        # batch; the sums are the same, term by term
        profiles = section_basis(9).theta_profiles(grid.theta)
        modes, ones = plain(grid, weights)
        made = moment_matrices(modes, ones, grid.w_theta, profiles,
                               cut(modes, profiles))
        shared = moment_matrices(modes, ones, grid.w_theta, profiles,
                                 cut(modes, profiles),
                                 products=profile_products(profiles))
        assert np.array_equal(made, shared)

    def test_plain_batch_matches_explicit_batch_exactly(self, grid,
                                                        weights):
        # one row of ones changes no bit of the weighted modes
        profiles = section_basis(9).theta_profiles(grid.theta)
        modes, ones = plain(grid, weights)
        assert np.array_equal(
            moment_matrices(modes, ones, grid.w_theta, profiles,
                            cut(modes, profiles)),
            explicit_moment_matrices(explicit_batch(modes, ones),
                                     grid.w_theta, profiles,
                                     cut(modes, profiles), None))

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
                                       np.arange(17), parity=parity)
            explicit = explicit_moment_matrices(
                explicit_batch(modes, rows), grid.w_theta, profiles,
                np.arange(17), parity)
            if exact:
                assert np.array_equal(factored, explicit)
            else:
                assert (np.abs(factored - explicit).max()
                        < TOL * np.abs(explicit).max())

    @pytest.mark.parametrize("form_id", ["tilted", "tilted-mirror",
                                         "sectoral"])
    def test_band_drops_only_what_band_tol_calls_absent(self, form_id):
        # the benchmark's non-zonal forms, unrotated and at a seeded angle,
        # turned as a sweep turns them, in a Q assembly's order batches at
        # p = 8 on 40 x 80, l_max 24: every mode the band rule drops reads
        # table modes outside the band alone, each at most BAND_TOL times
        # the largest, and an order k > 0 sums two of them with factors of
        # modulus 1/sqrt(2); the kept modes are the explicit batch's, bit
        # for bit
        workloads = _load_workloads()
        spec = {s["id"]: s for s in workloads.NONZONAL_FORMS}[form_id]
        grid = build_grid(40, 80)
        sht = SphericalHarmonicTransform(grid, 24)
        p = 8
        profiles = section_basis(p).theta_profiles(grid.theta)
        unrotated = {tuple(int(part) for part in key.split(",")): value
                     for key, value in spec["coefficients"].items()}
        for coefficients in (unrotated,
                             _seeded_coefficients(workloads, spec, 3)):
            form, _ = bench._turned(VolumeForm(grid, coefficients, form_id),
                                    sht)
            table = form.density_modes
            assert np.isrealobj(table)
            absent = BAND_TOL * np.abs(table).max()
            skipped = 0
            for k in range(sht.l_max + 1):
                modes = sht.order_modes(table, k, p + 1)
                rows = sht.legendre[k, k:].T
                batch = explicit_batch(modes, rows)
                kept = sht.order_band(form.phi_band, k, p + 1)
                for d in np.setdiff1d(np.arange(p + 1), kept):
                    read = table[:, [(d - k) % grid.n_phi,
                                     (d + k) % grid.n_phi]]
                    assert np.abs(read).max() <= absent
                    assert (np.abs(batch[d]).max()
                            <= (math.sqrt(2.0) if k else 1.0) * absent
                            * np.abs(rows).max())
                skipped += not len(kept)
                parity = np.tile([-1.0, 1.0] if k else [1.0], rows.shape[1])
                assert np.array_equal(
                    moment_matrices(modes, rows, grid.w_theta, profiles,
                                    kept, parity=parity),
                    explicit_moment_matrices(batch, grid.w_theta, profiles,
                                             kept, parity))
            assert skipped == sht.l_max - p - form.phi_band > 0
