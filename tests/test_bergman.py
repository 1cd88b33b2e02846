import math

import numpy as np
import pytest

from bergman_heat import (RADIUS, BergmanEvaluator, ConfigError,
                          KernelBlock, SmoothingOperator, SpherePoint,
                          VolumeForm, bergman_evaluator, build_grid,
                          near_diagonal_residual, off_diagonal_sup,
                          rank_ratio, weight_change_residuals)
from bergman_heat.config import DEFAULTS
from bergman_heat.sections import PAIR_BLOCK_ROWS

NEAR = DEFAULTS["near-diagonal"]


def funk_hecke_eigenvalue(p, l):
    """Zonal-kernel eigenvalue of the smoothing operator, exact product form."""
    out = 1.0
    for j in range(1, l + 1):
        out *= (p + 1.0 - j) / (p + 1.0 + j)
    return out


class TestRankRatio:
    def test_metric_form_value(self, grid, fs_form):
        assert rank_ratio(7, fs_form) == pytest.approx(8.0, abs=1e-12)

    def test_definition_inverts(self, grid, zonal_form):
        for p in (3, 12):
            assert rank_ratio(p, zonal_form) * zonal_form.volume \
                == pytest.approx(p + 1, abs=1e-12)

    def test_large_p_asymptotics(self, grid, zonal_form):
        # R_p / p -> 1/Vol with residual exactly (1/p)/Vol
        for p in (8, 32, 128):
            resid = rank_ratio(p, zonal_form) / p - 1.0 / zonal_form.volume
            assert resid * p == pytest.approx(1.0 / zonal_form.volume,
                                              abs=1e-12)


class TestSmoothingOperator:
    def test_constant_is_fixed_for_metric_form(self, grid, fs_form):
        op = SmoothingOperator(bergman_evaluator(8, fs_form, grid))
        ones = np.ones((grid.n_theta, grid.n_phi))
        assert np.abs(op.apply(ones) - 1.0).max() < 1e-8

    @pytest.mark.parametrize("l,m", [(1, 0), (2, 1), (4, -3)])
    def test_funk_hecke_eigenfunctions(self, grid, fs_form, sht, l, m):
        p = 8
        op = SmoothingOperator(bergman_evaluator(p, fs_form, grid))
        f = sht.basis_function(l, m)
        expected = funk_hecke_eigenvalue(p, l)
        assert np.abs(op.apply(f) - expected * f).max() < 1e-8

    def test_first_eigenvalue_value(self):
        assert funk_hecke_eigenvalue(8, 1) == pytest.approx(8.0 / 10.0)

    def test_positivity(self, grid, tilted_form, rng):
        op = SmoothingOperator(bergman_evaluator(6, tilted_form, grid))
        f = np.abs(rng.normal(size=(grid.n_theta, grid.n_phi)))
        assert op.apply(f).min() > -1e-10

    def test_self_adjoint_under_reference_form(self, grid, tilted_form, sht,
                                               rng):
        op = SmoothingOperator(bergman_evaluator(6, tilted_form, grid))
        c1 = rng.normal(size=sht.n_coeffs) / (1.0 + sht.degrees) ** 2
        c2 = rng.normal(size=sht.n_coeffs) / (1.0 + sht.degrees) ** 2
        f, g = sht.synthesize(c1), sht.synthesize(c2)
        w_nu = grid.node_weights * tilted_form.density
        lhs = np.sum(w_nu * op.apply(f) * g)
        rhs = np.sum(w_nu * f * op.apply(g))
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_unit_image_matches_kernel_diagonal(self, grid, zonal_form):
        # reproducing property: R * Q(1) equals the kernel diagonal
        p = 6
        ev = bergman_evaluator(p, zonal_form, grid)
        op = SmoothingOperator(ev)
        image = op.apply(np.ones((grid.n_theta, grid.n_phi))) * op.rank_ratio
        assert np.abs(image - ev.diagonal_on_grid()).max() < 1e-8

    def test_density_kernel_accessor(self, grid, zonal_form):
        ev = bergman_evaluator(4, zonal_form, grid)
        t = np.array([0.5, 1.5])
        ph = np.array([0.3, 2.0])
        blk = ev.kernel(t, ph, t, ph)
        vals = blk.modulus ** 2
        assert np.all(vals >= 0)
        assert np.abs(vals - vals.T).max() < 1e-10
        assert np.abs(np.diag(vals)
                      - np.diag(blk.coefficient).real ** 2).max() < 1e-10


class TestOffDiagonal:
    def test_closed_form_at_achieved_distance(self, grid, fs_form):
        p = 8
        ev = bergman_evaluator(p, fs_form, grid)
        probe = off_diagonal_sup(ev, 0.2, theta_stride=2, phi_stride=2)
        q = (1.0 + math.cos(probe.min_distance / RADIUS)) / 2.0
        expected = (p + 1) / p * q ** (p / 2.0)
        assert probe.sup == pytest.approx(expected, rel=1e-10)

    def test_decreasing_in_p(self, grid, fs_form):
        sups = []
        for p in (8, 16):
            ev = bergman_evaluator(p, fs_form, grid)
            sups.append(off_diagonal_sup(ev, 0.2, 2, 2).sup)
        assert sups[1] < sups[0]

    def test_decreasing_in_eps(self, grid, fs_form):
        ev = bergman_evaluator(8, fs_form, grid)
        a = off_diagonal_sup(ev, 0.2, 2, 2).sup
        b = off_diagonal_sup(ev, 0.4, 2, 2).sup
        assert b < a

    def test_log_linear_decay_in_p(self, grid, fs_form):
        ps = [8, 12, 16, 20]
        vals = [off_diagonal_sup(bergman_evaluator(p, fs_form, grid),
                                 0.3, 2, 2).sup for p in ps]
        logs = np.log(vals)
        slope, intercept = np.polyfit(ps, logs, 1)
        assert slope < 0
        fitted = slope * np.asarray(ps) + intercept
        assert np.abs(fitted - logs).max() < 0.05

    def test_rejects_bad_eps(self, grid, fs_form):
        ev = bergman_evaluator(4, fs_form, grid)
        with pytest.raises(ConfigError):
            off_diagonal_sup(ev, 0.0, 1, 1)
        with pytest.raises(ConfigError):
            off_diagonal_sup(ev, 1.0, 1, 1)


class TestNearDiagonal:
    def test_center_residual_is_inverse_p(self, grid, fs_form):
        for p in (8, 16):
            ev = bergman_evaluator(p, fs_form, grid)
            probe = near_diagonal_residual(ev, SpherePoint(1.05, 0.4), 2.0,
                                           NEAR["n_radial"],
                                           NEAR["n_angular"])
            assert probe.center_residual == pytest.approx(1.0 / p, abs=1e-10)

    def test_gaussian_matches_model_kernel_modulus(self):
        # the comparison Gaussian is the rescaled flat-kernel modulus
        from bergman_heat import bargmann_kernel
        p = 16
        z = 0.21 + 0.13j
        lhs = abs(bargmann_kernel(math.sqrt(p) * z, 0.0))
        rhs = math.exp(-0.5 * math.pi * p * abs(z) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_rejects_window_beyond_injectivity(self, grid, fs_form):
        ev = bergman_evaluator(8, fs_form, grid)
        with pytest.raises(ConfigError):
            near_diagonal_residual(ev, SpherePoint(1.0, 0.0),
                                   NEAR["window_constant"], NEAR["n_radial"],
                                   NEAR["n_angular"])

    def test_refusal_message_stays_short(self, grid, fs_form):
        # the radius is printed to four significant digits, however large
        ev = bergman_evaluator(8, fs_form, grid)
        for constant in (3.0, 1e30, 1e300):
            with pytest.raises(ConfigError) as info:
                near_diagonal_residual(ev, SpherePoint(1.0, 0.0), constant,
                                       NEAR["n_radial"], NEAR["n_angular"])
            assert len(str(info.value)) <= 64, str(info.value)


class TestWeightChange:
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_identities_all_forms(self, grid, fs_form, zonal_form,
                                  tilted_form, p):
        for form in (fs_form, zonal_form, tilted_form):
            res = weight_change_residuals(bergman_evaluator(p, form, grid))
            for key, value in res.items():
                assert value < 1e-8, f"{form.form_id}/{key} = {value}"

    @pytest.mark.parametrize("breaks,key", [
        # frame factor eta(x)^(+1/2) in place of eta(x)^(-1/2)
        (lambda mp, ev: mp.setattr(KernelBlock, "omega_modulus", property(
            lambda blk: blk.modulus * np.outer(blk.eta_x ** 0.5,
                                               blk.eta_y ** -0.5))),
         "density_eta"),
        # density eta(y) in place of 1/eta(y) in the second slot
        (lambda mp, ev: mp.setattr(KernelBlock, "omega_coefficient", property(
            lambda blk: blk.coefficient * blk.eta_y)), "kernel_eta"),
        # an anti-Hermitian part in the kernel matrix: P(x, y) then differs
        # from conj(P(y, x)), across tiles as well as within one
        (lambda mp, ev: mp.setattr(ev, "kernel_matrix", ev.kernel_matrix
                                   + 1e-6j * np.eye(ev.p + 1)),
         "hermitian_symmetry"),
    ], ids=["omega_modulus", "omega_coefficient", "kernel_matrix"])
    def test_broken_convention_is_detected(self, grid, tilted_form,
                                           monkeypatch, breaks, key):
        # the grid spans at least three tiles a side, so tiles meet their
        # mirrors off the diagonal as well as on it
        assert math.ceil(grid.n_theta * grid.n_phi / PAIR_BLOCK_ROWS) >= 3
        ev = bergman_evaluator(4, tilted_form, grid)
        breaks(monkeypatch, ev)
        res = weight_change_residuals(ev)
        assert res[key] > 1e-8


class TestPairTiles:
    @pytest.mark.parametrize("probe,n", [
        (lambda ev: off_diagonal_sup(ev, 0.2, 1, 1), 1152),
        # 1 + 29 * 30 = 871 window points
        (lambda ev: near_diagonal_residual(ev, SpherePoint(1.05, 0.4), 1.0,
                                           n_radial=30, n_angular=30), 871),
        (lambda ev: weight_change_residuals(ev), 1152),
    ], ids=["off_diagonal", "near_diagonal", "weight_change"])
    def test_kernel_is_evaluated_once_per_tile(self, monkeypatch, probe, n):
        builds = []
        evaluations = []
        build = KernelBlock.__init__
        section_matrix = BergmanEvaluator.section_matrix
        eta_at = VolumeForm.eta_at

        def recording_build(self, coefficient, eta_x, eta_y):
            builds.append(coefficient.shape)
            build(self, coefficient, eta_x, eta_y)

        def recording(name, method):
            def wrapper(self, theta, phi):
                evaluations.append((name, len(theta)))
                return method(self, theta, phi)
            return wrapper

        monkeypatch.setattr(KernelBlock, "__init__", recording_build)
        monkeypatch.setattr(BergmanEvaluator, "section_matrix",
                            recording("section_matrix", section_matrix))
        monkeypatch.setattr(VolumeForm, "eta_at", recording("eta_at", eta_at))
        # 24 x 48 = 1152 nodes, and 871 window points
        small = build_grid(24, 48)
        probe(bergman_evaluator(4, VolumeForm(small, {(1, 1): 0.2}), small))
        # one block per ordered tile: a diagonal tile is its own mirror
        assert len(builds) == math.ceil(n / PAIR_BLOCK_ROWS) ** 2
        assert max(max(shape) for shape in builds) <= PAIR_BLOCK_ROWS
        # sections and eta once for the whole point set; weight_change's
        # reproducing check evaluates sections again at 12 sample nodes
        assert sorted(e for e in evaluations if e[1] == n) \
            == [("eta_at", n), ("section_matrix", n)]
        assert all(size < 16 for _, size in evaluations if size != n)

    def test_one_orientation_symmetry_is_the_all_pairs_max(self):
        # residuals over one orientation of the tile pairs, against the
        # same expressions over every ordered pair of one untiled block
        small = build_grid(24, 48)
        n = small.n_theta * small.n_phi
        assert math.ceil(n / PAIR_BLOCK_ROWS) >= 3
        tilted = VolumeForm(small, {(1, 1): 0.2, (2, 1): 0.1})
        ev = bergman_evaluator(6, tilted, small)
        res = weight_change_residuals(ev)
        tt, pp = small.theta_mesh.ravel(), small.phi_mesh.ravel()
        full = ev.kernel(tt, pp, tt, pp)
        k_metric = full.omega_modulus ** 2
        coef = full.coefficient
        assert res["metric_symmetry"] \
            == float(np.abs(k_metric - k_metric.T).max())
        assert res["hermitian_symmetry"] \
            == float(np.abs(coef - coef.T.conj()).max())
