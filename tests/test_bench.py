import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from bergman_heat import (ConfigError, SmoothingOperator, bergman_evaluator,
                          build_grid, comparison_norms, heat_apply,
                          matrix_free_norm, operator_matrix, rate_fit,
                          spectral_norm, sweep_form)
from bergman_heat import bench
from bergman_heat.cli import EXIT_OK, run
from bergman_heat.config import DEFAULTS
from bergman_heat.bench import (fast_multiplication_matrix,
                                multiplication_matrix,
                                smoothing_operator_matrix)
from bergman_heat.errors import InvalidRunError
from bergman_heat.heat import HarmonicCoeffs, SphericalHarmonicTransform
from bergman_heat.geometry import VolumeForm, fubini_study_form
from test_bergman import funk_hecke_eigenvalue
from test_symmetry import rotate

TAIL_BOUND = DEFAULTS["converge"]["tail_bound"]


def dense_matrix(blocks, rotation, sht):
    """The matrix on the input harmonic basis of (matrix, slots) blocks on
    the basis rotated about the pole by ``rotation``: the blocks placed on
    their slots, then rotated back with R, whose column (l, m) holds the
    rotated harmonic's input coefficients (Y'_lm = c Y_lm + s Y_l,-m and
    Y'_l,-m = c Y_l,-m - s Y_lm for m > 0, (c, s) = (cos, sin)(m rotation))."""
    n = sht.n_coeffs
    full = np.zeros((n, n))
    for matrix, slots in blocks:
        full[np.ix_(slots, slots)] = matrix
    orders = sht.orders
    angle = np.abs(orders) * rotation
    rot = np.diag(np.cos(angle))
    partner = np.arange(n) - 2 * orders
    cols = np.flatnonzero(orders != 0)
    rot[partner[cols], cols] = np.sign(orders[cols]) * np.sin(angle[cols])
    return rot @ full @ rot.T


def dense(op, sht):
    """An ``OperatorMatrix``'s matrix on the input harmonic basis."""
    return dense_matrix(op.blocks, op.rotation, sht)


@pytest.fixture(scope="module")
def bench_grid():
    return build_grid(56, 112)


@pytest.fixture(scope="module")
def bench_sht(bench_grid):
    return SphericalHarmonicTransform(bench_grid, 16)


class TestOperatorMatrix:
    def test_identity_operator(self, bench_sht):
        mat = operator_matrix(lambda f: f, bench_sht)
        n = bench_sht.n_coeffs
        assert np.abs(dense(mat, bench_sht) - np.eye(n)).max() < 1e-10
        assert mat.tail_residual < 1e-12

    def test_heat_operator_diagonal(self, bench_sht):
        u = 0.01
        mat = operator_matrix(
            lambda f: bench_sht.synthesize(
                heat_apply(bench_sht.analyze(f), u)), bench_sht)
        degs = bench_sht.degrees
        target = np.diag(np.exp(-4 * math.pi * degs * (degs + 1) * u))
        assert np.abs(dense(mat, bench_sht) - target).max() < 1e-10

    def test_smoothing_operator_diagonal_for_metric_form(self, bench_grid,
                                                         bench_sht):
        p = 8
        form = fubini_study_form(bench_grid)
        op = SmoothingOperator(bergman_evaluator(p, form, bench_grid))
        mat = smoothing_operator_matrix(op, bench_sht, None)
        degs = bench_sht.degrees
        target = np.diag([funk_hecke_eigenvalue(p, l) for l in degs])
        assert np.abs(dense(mat, bench_sht) - target).max() < 1e-8

    def test_fast_paths_match_generic(self, bench_grid, bench_sht):
        cases = [
            (bench_sht, {(1, 0): -0.3, (2, 2): 0.1}, 10),
            # band-2 sine and cosine terms at p = 4 < l_max: Q's output
            # carries modes 0..4 only, so the orders 5..l_max of every
            # column come out zero
            (bench_sht, {(2, -2): 0.15, (1, 1): 0.1}, 4),
            # an odd longitude grid, which has no Nyquist mode
            (SphericalHarmonicTransform(build_grid(24, 47), 11),
             {(1, 0): -0.3, (2, 2): 0.1}, 10),
            # eta's longitude band reaches the Nyquist mode 24
            (SphericalHarmonicTransform(build_grid(24, 48), 11),
             {(3, 3): 1.5, (2, -1): 1.0}, 4)]
        for sht, coefficients, p in cases:
            form = VolumeForm(sht.grid, coefficients, "mix")
            op = SmoothingOperator(bergman_evaluator(p, form, sht.grid))
            fast = smoothing_operator_matrix(op, sht, None)
            slow = operator_matrix(op.apply, sht)
            assert np.abs(dense(fast, sht) - dense(slow, sht)).max() < 1e-12
            assert np.abs(fast.column_norm_sq
                          - slow.column_norm_sq).max() < 1e-12
            mf = fast_multiplication_matrix(form, sht)
            ms = multiplication_matrix(form.eta, sht)
            assert np.abs(dense(mf, sht) - dense(ms, sht)).max() < 1e-12
            # the norms see every longitude mode of the products, those
            # past the transform's orders and a Nyquist mode included
            assert np.abs(mf.column_norm_sq
                          - ms.column_norm_sq).max() < 1e-12
            assert mf.tail_residual == pytest.approx(ms.tail_residual,
                                                     rel=1e-12)

    def test_wrong_mirror_axis_is_refused(self, bench_grid, bench_sht):
        # off the form's axis the gauged inverse Gram is far from real
        form = VolumeForm(bench_grid, {(1, 1): 0.1, (2, 1): 0.05}, "tilted")
        form.mirror_axis = 0.3
        op = SmoothingOperator(bergman_evaluator(8, form, bench_grid))
        with pytest.raises(InvalidRunError, match="mirror gauge"):
            smoothing_operator_matrix(op, bench_sht, None)

    def test_q_range_is_band_limited_to_p(self, bench_grid, bench_sht):
        # products of degree-p sections span harmonics of degree <= p, so
        # the smoothing operator cannot leak once l_max >= p
        form = VolumeForm(bench_grid, {(1, 0): -0.3, (1, 1): 0.2}, "strong")
        op = SmoothingOperator(bergman_evaluator(8, form, bench_grid))
        tiny = SphericalHarmonicTransform(bench_grid, 8)
        mat = smoothing_operator_matrix(op, tiny, None)
        assert mat.tail_residual < 1e-12

    def test_tail_bound_flags_invalid_run(self, bench_grid):
        # p above the truncation forces heat-side leakage past l_max
        form = VolumeForm(bench_grid, {(1, 0): -0.3, (1, 1): 0.2}, "strong")
        tiny = SphericalHarmonicTransform(bench_grid, 8)
        with pytest.raises(InvalidRunError):
            comparison_norms(32, form, tiny, None, 1e-9)

    def test_heat_side_tail_bound_flags_invalid_run(self, bench_grid):
        # at p = l_max the smoothing side stays inside the truncation, while
        # eta * heat(Y_lm) leaks past it
        form = VolumeForm(bench_grid, {(1, 0): -0.3, (1, 1): 0.2}, "strong")
        tiny = SphericalHarmonicTransform(bench_grid, 8)
        with pytest.raises(InvalidRunError, match="tail residual"):
            comparison_norms(8, form, tiny, None, 1e-10)


class TestSpectralNorm:
    def test_matches_dense_svd(self, rng):
        a = rng.normal(size=(80, 80))
        assert spectral_norm(a, None) == pytest.approx(np.linalg.norm(a, 2),
                                                       rel=1e-12)

    def test_large_path_with_degenerate_top(self):
        vals = np.repeat([3.0, 2.0, 1.0], [23, 300, 478])
        d = np.diag(vals)
        assert spectral_norm(d, None) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["random", "degenerate", "jittered"])
    def test_lanczos_matches_dense_oracle(self, monkeypatch, kind):
        rng = np.random.default_rng(5)
        if kind == "random":
            a = rng.normal(size=(300, 300))
        elif kind == "degenerate":
            a = np.diag(np.repeat([3.0, 2.0, 1.0], [23, 300, 478]))
        else:
            # the metric form's top singular value: a cluster split only at
            # rounding level
            top = 3.0 * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, 29))
            a = np.diag(rng.permutation(
                np.concatenate([top, rng.uniform(0.0, 2.9, 400)])))
        oracle = bench._dense_top_singular_pair
        sigma_ref, _ = oracle(a)

        def no_fallback(matrix):
            raise AssertionError("dense fallback ran")

        monkeypatch.setattr(bench, "_dense_top_singular_pair", no_fallback)
        sigma, vec = bench._top_singular_pair(a, None)
        assert sigma == pytest.approx(sigma_ref, rel=1e-11)
        assert np.linalg.norm(a @ vec) == pytest.approx(sigma_ref, rel=1e-11)

    def test_small_matrix_takes_dense_path(self):
        # ARPACK needs more columns than its Lanczos basis
        a = np.random.default_rng(5).normal(size=(12, 12))
        assert spectral_norm(a, None) == bench._dense_top_singular_pair(a)[0]
        assert spectral_norm(a, None) == pytest.approx(np.linalg.norm(a, 2),
                                                       rel=1e-12)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        a = np.random.default_rng(5).normal(size=(300, 300))
        oracle = bench._dense_top_singular_pair
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return oracle(matrix)

        monkeypatch.setattr(bench, "ARPACK_MAXITER", 1)
        monkeypatch.setattr(bench, "_dense_top_singular_pair", counted)
        assert spectral_norm(a, None) == oracle(a)[0]
        assert len(calls) == 1

    # 30 columns take ARPACK, 12 the dense path; rows outnumber columns so
    # that a scale applied to the wrong side cannot go unnoticed
    @pytest.mark.parametrize("rows,cols", [(36, 30), (15, 12)])
    def test_row_scale_matches_scaled_oracle(self, rows, cols):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(rows, cols))
        scale = rng.uniform(0.1, 3.0, rows)
        sigma = bench._dense_top_singular_pair(scale[:, None] * a)[0]
        assert spectral_norm(a, scale) == pytest.approx(sigma, rel=1e-12)

    def test_no_convergence_falls_back_to_scaled_dense(self, monkeypatch):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(36, 30))
        scale = rng.uniform(0.1, 3.0, 36)
        calls = []

        def no_convergence(operator, **kwargs):
            calls.append(operator.shape)
            raise ArpackNoConvergence("forced", np.empty(0), np.empty((30, 0)))

        monkeypatch.setattr(bench, "eigsh", no_convergence)
        sigma = bench._dense_top_singular_pair(scale[:, None] * a)[0]
        assert spectral_norm(a, scale) == pytest.approx(sigma, rel=1e-12)
        assert calls == [(30, 30)]


class TestComparisonNorms:
    def test_metric_form_closed_form(self, bench_grid, bench_sht):
        p = 8
        form = fubini_study_form(bench_grid)
        res = comparison_norms(p, form, bench_sht, None, TAIL_BOUND)
        ls = np.arange(bench_sht.l_max + 1)
        lam = np.array([funk_hecke_eigenvalue(p, l) for l in ls])
        heat = np.exp(-ls * (ls + 1.0) / p)
        assert res.norm1 == pytest.approx(np.abs(lam - heat).max(), rel=1e-8)
        scaled = 4 * math.pi * ls * (ls + 1.0) / p * np.abs(lam - heat)
        assert res.norm2 == pytest.approx(scaled.max(), rel=1e-8)

    def test_norm_shrinks_with_p(self, bench_grid, bench_sht):
        form = fubini_study_form(bench_grid)
        n8 = comparison_norms(8, form, bench_sht, None, TAIL_BOUND).norm1
        n32 = comparison_norms(32, form, bench_sht, None, TAIL_BOUND).norm1
        assert n32 < 0.3 * n8

    def test_argmax_mode_matches_diagonal_oracle(self, bench_grid, bench_sht):
        p = 8
        form = fubini_study_form(bench_grid)
        res = comparison_norms(p, form, bench_sht, None, TAIL_BOUND)
        ls = np.arange(bench_sht.l_max + 1)
        lam = np.array([funk_hecke_eigenvalue(p, l) for l in ls])
        gaps = np.abs(lam - np.exp(-ls * (ls + 1.0) / p))
        assert res.argmax_degree == int(np.argmax(gaps))

    def test_truncation_stability(self, bench_grid):
        form = VolumeForm(bench_grid, {(1, 0): -0.3}, "zonal-full")
        lo = SphericalHarmonicTransform(bench_grid, 14)
        hi = SphericalHarmonicTransform(bench_grid, 20)
        a = comparison_norms(16, form, lo, None, TAIL_BOUND)
        b = comparison_norms(16, form, hi, None, TAIL_BOUND)
        assert a.tail_residual < 1e-4
        assert abs(a.norm1 - b.norm1) < 1e-6
        assert abs(a.norm2 - b.norm2) < 1e-6

    def test_matrix_free_cross_check(self, bench_grid, bench_sht):
        for coeffs in ({}, {(1, 0): -0.3}, {(1, 1): 0.1, (2, 1): 0.05}):
            form = VolumeForm(bench_grid, coeffs, "probe")
            res = comparison_norms(16, form, bench_sht, None, TAIL_BOUND)
            est = matrix_free_norm(16, form, bench_sht)
            assert est == pytest.approx(res.norm1, rel=1e-5)


def _assembled_oracle(p, form, sht):
    """Both norms, the argmax degree and the tail of the assembled
    difference, from the dense top-singular-pair oracle."""
    smoother = SmoothingOperator(bergman_evaluator(p, form, sht.grid))
    mult = fast_multiplication_matrix(form, sht)
    blocks, rotation, tail = bench._assembled_difference(smoother, sht, mult,
                                                         None)
    diff = dense_matrix(blocks, rotation, sht)
    norm1, vec = bench._dense_top_singular_pair(diff)
    norm2, _ = bench._dense_top_singular_pair(
        (sht.eigenvalues / p)[:, None] * diff)
    return norm1, norm2, int(sht.degrees[np.argmax(np.abs(vec))]), tail


def _generic_oracle(p, form, sht):
    """Both norms, the argmax degree and the tail of an assembled cell from
    the generic per-column operator matrices and the dense solve."""
    smoother = SmoothingOperator(bergman_evaluator(p, form, sht.grid))
    q = operator_matrix(smoother.apply, sht)
    eta = multiplication_matrix(form.eta, sht)
    ones = HarmonicCoeffs(sht.l_max, np.ones(sht.n_coeffs))
    factors = heat_apply(ones, 1.0 / (4.0 * math.pi * p)).values
    heat = dense(eta, sht) * factors
    diff = dense(q, sht) - form.volume * heat
    norm1, vec = bench._dense_top_singular_pair(diff)
    norm2, _ = bench._dense_top_singular_pair(
        (sht.eigenvalues / p)[:, None] * diff)
    heat_norm = eta.column_norm_sq * factors ** 2
    heat_leak = np.maximum(heat_norm - np.sum(heat ** 2, axis=0), 0.0)
    tail = max(q.tail_residual, heat_leak.max() / heat_norm.max())
    return norm1, norm2, int(sht.degrees[np.argmax(np.abs(vec))]), tail


class TestAssembledCells:
    # tilted and sectoral have a mirror axis (at alpha once rotated by
    # alpha) and take two real blocks; tilted-mirror has none and takes one
    # complex block
    @pytest.mark.parametrize("form_id,coefficients,alpha", [
        ("tilted", {(1, 1): 0.1, (2, 1): 0.05}, 0.0),
        ("tilted", {(1, 1): 0.1, (2, 1): 0.05}, 0.7),
        ("sectoral", {(2, 2): 0.04, (3, 1): 0.02}, 0.0),
        ("tilted", {(1, 1): 0.1, (2, 1): 0.05}, 2.3),
        ("sectoral", {(2, 2): 0.04, (3, 1): 0.02}, 0.7),
        ("sectoral", {(2, 2): 0.04, (3, 1): 0.02}, 2.3),
        ("tilted-mirror", {(1, -1): -0.1, (2, -2): 0.05}, 0.0),
        ("tilted-mirror", {(1, -1): -0.1, (2, -2): 0.05}, 0.7)])
    @pytest.mark.parametrize("p", [8, 16])
    @pytest.mark.parametrize("l_max", [16, 6])
    def test_difference_buffer_matches_generic_oracle(
            self, bench_grid, bench_sht, form_id, coefficients, alpha, p,
            l_max):
        sht = (bench_sht if l_max == bench_sht.l_max
               else SphericalHarmonicTransform(bench_grid, l_max))
        if alpha:
            coefficients = rotate(coefficients, alpha)
        form = VolumeForm(bench_grid, coefficients, form_id)
        if form_id == "tilted-mirror":
            assert form.mirror_axis is None
        else:
            assert math.sin(form.mirror_axis - alpha) == pytest.approx(
                0.0, abs=1e-15)
        res = comparison_norms(p, form, sht, None, TAIL_BOUND)
        norm1, norm2, degree, tail = _generic_oracle(p, form, sht)
        assert res.norm1 == pytest.approx(norm1, rel=1e-12)
        assert res.norm2 == pytest.approx(norm2, rel=1e-12)
        # both read the top singular vector in the input basis
        assert res.argmax_degree == degree
        if l_max == bench_sht.l_max:
            # Q is band-limited to degree p <= l_max, and the heat side
            # leaks below rounding: both tails are rounding-level
            assert max(res.tail_residual, tail) < 1e-14
        else:
            assert res.tail_residual == pytest.approx(tail, rel=1e-12)

    @staticmethod
    def _cell_peak(p, coefficients, form_id):
        """tracemalloc peak, in doubles, of one cell on 64x128, l_max 30,
        with its eta blocks passed in; numpy reports its buffers to
        tracemalloc."""
        grid = build_grid(64, 128)
        sht = SphericalHarmonicTransform(grid, 30)
        form = VolumeForm(grid, coefficients, form_id)
        mult = fast_multiplication_matrix(form, sht)
        tracemalloc.start()
        try:
            comparison_norms(p, form, sht, mult, TAIL_BOUND)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 8, sht.n_coeffs ** 2

    @pytest.mark.parametrize("p", [8, 16])
    def test_cell_holds_one_matrix_besides_eta(self, p):
        # a form with no mirror axis takes one complex-arithmetic block: the
        # difference is built in Q's buffer and norm2 scales rows inside the
        # solve, so the cell allocates one full matrix and small blocks
        peak, square = self._cell_peak(
            p, {(1, -1): -0.1, (2, -2): 0.05}, "tilted-mirror")
        assert peak < 2 * square

    @pytest.mark.parametrize("p", [8, 16])
    def test_mirror_cell_holds_half_a_matrix(self, p):
        # a form with a mirror axis holds a cosine and a sine block, about
        # a quarter of the full matrix each, and half-size order batches
        peak, square = self._cell_peak(
            p, {(1, 1): 0.1, (2, 1): 0.05}, "tilted")
        assert peak < square


class TestZonalBlocks:
    @pytest.mark.parametrize("coefficients,form_id", [
        ({}, "fs"), ({(1, 0): -0.15}, "zonal-half"),
        ({(1, 0): -0.3}, "zonal-full")])
    @pytest.mark.parametrize("p", [8, 24])
    def test_blocks_match_assembled_dense_oracle(self, bench_grid, bench_sht,
                                                 coefficients, form_id, p):
        # p = 8 < l_max leaves the orders past p with an eta-heat block only
        form = VolumeForm(bench_grid, coefficients, form_id)
        res = comparison_norms(p, form, bench_sht, None, TAIL_BOUND)
        norm1, norm2, degree, tail = _assembled_oracle(p, form, bench_sht)
        assert res.norm1 == pytest.approx(norm1, rel=1e-13)
        assert res.norm2 == pytest.approx(norm2, rel=1e-13)
        assert res.argmax_degree == degree
        assert res.tail_residual == pytest.approx(tail, rel=1e-6, abs=1e-14)

    @pytest.mark.parametrize("p", [8, 24])
    def test_metric_form_blocks_are_funk_hecke_diagonals(self, bench_grid,
                                                          bench_sht, p):
        form = fubini_study_form(bench_grid)
        op = SmoothingOperator(bergman_evaluator(p, form, bench_grid))
        blocks = bench._zonal_q_blocks(op, bench_sht)
        assert len(blocks) == min(p, bench_sht.l_max) + 1
        for m, (block, _) in enumerate(blocks):
            target = [funk_hecke_eigenvalue(p, l)
                      for l in range(m, bench_sht.l_max + 1)]
            assert np.abs(block - np.diag(target)).max() < 1e-13

    def test_dispatch_reads_the_coefficients(self, bench_grid, bench_sht,
                                             monkeypatch):
        # Q assemblies and eta matrices per route, read off the blocks each
        # returns: one complex block, or a real cosine and sine block
        calls = {}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                route = ("complex" if len(result.blocks) == 1 else "mirror")
                key = (name, route)
                calls[key] = calls.get(key, 0) + 1
                return result
            return wrapper

        monkeypatch.setattr(bench, "smoothing_operator_matrix",
                            counted("q", smoothing_operator_matrix))
        monkeypatch.setattr(bench, "fast_multiplication_matrix",
                            counted("eta", fast_multiplication_matrix))
        p_values = [4, 8, 12, 16]
        zonal = VolumeForm(bench_grid, {(1, 0): -0.3, (2, 0): 0.1}, "z")
        sweep_form(zonal, p_values, bench_sht, TAIL_BOUND)
        assert calls == {}
        # one small m != 0 coefficient makes the form non-zonal; with no
        # sine coefficient it keeps the mirror axis 0
        tipped = VolumeForm(bench_grid, {(1, 0): -0.3, (2, 1): 1e-9}, "t")
        assert tipped.mirror_axis == 0.0
        sweep_form(tipped, p_values, bench_sht, TAIL_BOUND)
        assert calls == {("q", "mirror"): 4, ("eta", "mirror"): 1}
        # one small sine coefficient off the axis of the cosine ones leaves
        # the form with no mirror axis
        off_axis = VolumeForm(bench_grid, {(1, 1): 0.1, (2, -1): 1e-9}, "o")
        assert off_axis.mirror_axis is None
        sweep_form(off_axis, p_values, bench_sht, TAIL_BOUND)
        assert calls == {("q", "mirror"): 4, ("eta", "mirror"): 1,
                         ("q", "complex"): 4, ("eta", "complex"): 1}


class TestRateFit:
    def test_exact_inverse_p(self):
        ps = [8, 16, 32, 64]
        slope, c_hat = rate_fit(ps, [1.0 / p for p in ps])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert c_hat == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse_sqrt(self):
        ps = [8, 16, 32, 64]
        slope, _ = rate_fit(ps, [p ** -0.5 for p in ps])
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ConfigError):
            rate_fit([8, 16, 32], [1, 1, 1])
        with pytest.raises(ConfigError):
            rate_fit([8, 16, 32, 64], [1, 1, 0, 1])

    def test_measured_metric_form_slope(self, bench_grid, bench_sht):
        form = fubini_study_form(bench_grid)
        rep = sweep_form(form, [8, 16, 24, 32], bench_sht, TAIL_BOUND)
        assert rep.slope1 <= -0.75


class TestUniformity:
    def test_singleton_family_matches_single_fit(self, bench_grid, bench_sht,
                                                 tmp_path):
        # a one-member family reports that member's own rate fit, ratio 1
        p_list = [8, 16, 24, 32]
        cfg = {"p_list": p_list, "n_theta": bench_grid.n_theta,
               "n_phi": bench_grid.n_phi, "l_max": bench_sht.l_max,
               "volume_forms": [{"id": "fs", "coefficients": {}}],
               "uniformity_family": ["fs"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["converge", "--config", str(path),
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads(
            (tmp_path / "converge_summary.json").read_text())
        single = sweep_form(fubini_study_form(bench_grid), p_list, bench_sht,
                            TAIL_BOUND)
        uniformity = summary["uniformity"]
        assert uniformity["c_hat1"] == [pytest.approx(single.c_hat1,
                                                      rel=1e-12)]
        assert uniformity["ratio1"] == 1.0

    def test_amplitude_continuity(self, bench_grid, bench_sht):
        # shrinking the family amplitude pulls the constant to the baseline
        base = sweep_form(fubini_study_form(bench_grid), [8, 16, 24, 32],
                          bench_sht, TAIL_BOUND).c_hat1
        c_hats = []
        for amp in (0.2, 0.05):
            form = VolumeForm(bench_grid, {(1, 0): -amp}, f"z{amp}")
            c_hats.append(sweep_form(form, [8, 16, 24, 32],
                                     bench_sht, TAIL_BOUND).c_hat1)
        assert abs(c_hats[1] - base) < abs(c_hats[0] - base)
        assert abs(c_hats[1] - base) < 0.25 * abs(base)

