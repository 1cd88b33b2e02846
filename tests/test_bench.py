import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

from bergman_heat import (ConfigError, SmoothingOperator, bergman_evaluator,
                          build_grid, comparison_norms, laplace_eigenvalue,
                          matrix_free_norm, operator_matrix, rate_fit,
                          sweep_form)
from bergman_heat import bench, geometry
from bergman_heat.cli import EXIT_OK, run
from bergman_heat.config import DEFAULTS, read_form_spec
from bergman_heat.bench import (fast_multiplication_matrix,
                                multiplication_matrix,
                                smoothing_operator_matrix)
from bergman_heat.errors import InvalidRunError
from bergman_heat.heat import SphericalHarmonicTransform
from bergman_heat.geometry import VolumeForm, fubini_study_form
from test_bergman import funk_hecke_eigenvalue
from test_geometry import _load_workloads, _seeded_coefficients
from test_symmetry import rotate

TAIL_BOUND = DEFAULTS["converge"]["tail_bound"]


def dense(op, sht):
    """An ``OperatorMatrix``'s matrix on the harmonic basis: each block
    placed on each of its slot sets."""
    n = sht.n_coeffs
    full = np.zeros((n, n))
    for matrix, slots in op.blocks:
        for rows in slots:
            full[np.ix_(rows, rows)] = matrix
    return full


def _cell(p, form, sht):
    """One converge cell of a form that a sweep does not turn, with the
    form's eta blocks built for it."""
    mult = fast_multiplication_matrix(form, sht)
    return comparison_norms(p, form, sht, mult, TAIL_BOUND, None)


def block_diagonal(turn):
    """The quarter turn's per-degree matrices as one matrix on the packed
    harmonic basis."""
    n = sum(len(D) for D in turn)
    full = np.zeros((n, n))
    for l, D in enumerate(turn):
        full[l * l:(l + 1) ** 2, l * l:(l + 1) ** 2] = D
    return full


def _record_turns(monkeypatch, asked):
    """Record in ``asked`` each (turn name, degree, angle) that ``bench``
    builds a turn matrix for."""
    for name in ("pole_turn", "quarter_turn"):
        def recorded(l, angle, name=name, make=getattr(bench, name)):
            asked.append((name, l, angle))
            return make(l, angle)

        monkeypatch.setattr(bench, name, recorded)


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
                bench_sht.heat_factors(u) * bench_sht.analyze(f)), bench_sht)
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
            # zonal forms take closed-form order blocks, on their cosine
            # and sine slots alike; at p = 8 < l_max the orders past p
            # have zero Q blocks
            (bench_sht, {(1, 0): -0.3, (2, 0): 0.1}, 8),
            (bench_sht, {}, 10),
            # band-2 sine and cosine terms at p = 4 < l_max: Q's output
            # carries modes 0..4 only, so the orders 5..l_max of every
            # column come out zero
            (bench_sht, {(2, -2): 0.15, (1, 1): 0.1}, 4),
            # an odd longitude grid, which has no Nyquist mode
            (SphericalHarmonicTransform(build_grid(24, 47), 11),
             {(1, 0): -0.3, (2, 2): 0.1}, 10),
            # eta's longitude band reaches the Nyquist mode 24
            (SphericalHarmonicTransform(build_grid(24, 48), 11),
             {(3, 3): 1.5, (2, -1): 1.0}, 4),
            # the same band, rotated off its mirror axis, which the grid
            # then cannot keep: unturned, the form takes the complex route
            (SphericalHarmonicTransform(build_grid(24, 48), 11),
             rotate({(3, 3): 1.5}, 0.3), 4)]
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

    def test_wrong_mirror_axis_is_refused(self, bench_grid, monkeypatch):
        # tilted rotated by 0.3 has its mirror plane there; forced
        # mirror-symmetric about phi = 0, where it is not, its density
        # modes are far from real
        coefficients = rotate({(1, 1): 0.1, (2, 1): 0.05}, 0.3)
        assert not VolumeForm(bench_grid, coefficients,
                              "tilted").is_mirror_symmetric
        monkeypatch.setattr(geometry, "is_mirror_symmetric", lambda c: True)
        with pytest.raises(InvalidRunError, match="density modes not real"):
            VolumeForm(bench_grid, coefficients, "tilted")

    def test_turn_with_sine_terms_is_not_taken(self, bench_grid, bench_sht,
                                               monkeypatch):
        # the generic form's one pole candidate, the identity, keeps its
        # (2, -1) term; forced flip-symmetric, its quarter turn keeps sine
        # terms of its own.  Neither turn is taken, and neither builds a
        # turned form: the sine terms are read first.  Each candidate's
        # matrices are built at the form's degrees alone
        form = VolumeForm(bench_grid, GENERIC, "generic")
        form.is_flip_symmetric = True
        made, asked = [], []
        monkeypatch.setattr(bench, "VolumeForm",
                            lambda *args: made.append(args))
        _record_turns(monkeypatch, asked)
        assert bench._turned(form, bench_sht) == (form, None)
        quarter = [(l, angle) for name, l, angle in asked
                   if name == "quarter_turn"]
        assert len({angle for _, angle in quarter}) == 1 and made == []
        degrees = {l for l, _ in GENERIC}
        assert {l for _, l, _ in asked} <= set(
            range(bench_sht.l_max + 1)) | degrees
        assert sorted(l for l, _ in quarter) == sorted(degrees)

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
            comparison_norms(32, form, tiny,
                             fast_multiplication_matrix(form, tiny), 1e-9,
                             None)

    def test_heat_side_tail_bound_flags_invalid_run(self, bench_grid):
        # at p = l_max the smoothing side stays inside the truncation, while
        # eta * heat(Y_lm) leaks past it
        form = VolumeForm(bench_grid, {(1, 0): -0.3, (1, 1): 0.2}, "strong")
        tiny = SphericalHarmonicTransform(bench_grid, 8)
        with pytest.raises(InvalidRunError, match="tail residual"):
            comparison_norms(8, form, tiny,
                             fast_multiplication_matrix(form, tiny), 1e-10,
                             None)


class TestSpectralNorm:
    def test_matches_dense_svd(self, rng):
        a = rng.normal(size=(80, 80))
        sigma, _ = bench._top_singular_pair(a, None)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_large_path_with_degenerate_top(self):
        vals = np.repeat([3.0, 2.0, 1.0], [23, 300, 478])
        d = np.diag(vals)
        sigma, _ = bench._top_singular_pair(d, None)
        assert sigma == pytest.approx(3.0, rel=1e-12)

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

    @pytest.mark.parametrize("cols", [12, bench.DENSE_COLUMNS])
    def test_small_matrix_takes_dense_path(self, monkeypatch, cols):
        a = np.random.default_rng(5).normal(size=(cols, cols))

        def no_lanczos(normal, n):
            raise AssertionError("Lanczos ran")

        monkeypatch.setattr(bench, "_lanczos_top_pair", no_lanczos)
        sigma, _ = bench._top_singular_pair(a, None)
        assert sigma == bench._dense_top_singular_pair(a)[0]
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        # two Lanczos steps cannot meet the tolerance on a random block
        a = np.random.default_rng(5).normal(size=(300, 300))
        oracle = bench._dense_top_singular_pair
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return oracle(matrix)

        monkeypatch.setattr(bench, "LANCZOS_STEPS", 2)
        monkeypatch.setattr(bench, "_dense_top_singular_pair", counted)
        assert bench._top_singular_pair(a, None)[0] == oracle(a)[0]
        assert len(calls) == 1

    def test_basis_growth_leaves_the_pair_unchanged(self, monkeypatch):
        # squared singular values spread evenly over [0.5, 1] take about 90
        # steps, so the basis doubles twice; the pair is bit for bit the one
        # a basis of LANCZOS_STEPS rows from the start gives
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(200, 200)))
        a = q * np.sqrt(np.linspace(1.0, 0.5, 200))
        steps = []

        def normal(x):
            steps.append(1)
            return a.T @ (a @ x)

        grown = bench._lanczos_top_pair(normal, 200)
        assert len(steps) > 2 * bench.LANCZOS_ROWS
        monkeypatch.setattr(bench, "LANCZOS_ROWS", bench.LANCZOS_STEPS)
        whole = bench._lanczos_top_pair(normal, 200)
        assert grown[0] == whole[0]
        assert np.array_equal(grown[1], whole[1])
        assert grown[0] == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)

    # one column past DENSE_COLUMNS takes Lanczos, DENSE_COLUMNS and 12 the
    # dense path; rows outnumber columns so that a scale applied to the
    # wrong side cannot go unnoticed
    @pytest.mark.parametrize("rows,cols", [
        (bench.DENSE_COLUMNS + 7, bench.DENSE_COLUMNS + 1),
        (bench.DENSE_COLUMNS + 6, bench.DENSE_COLUMNS), (15, 12)])
    def test_row_scale_matches_scaled_oracle(self, rows, cols):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(rows, cols))
        scale = rng.uniform(0.1, 3.0, rows)
        sigma = bench._dense_top_singular_pair(scale[:, None] * a)[0]
        assert bench._top_singular_pair(a, scale)[0] == pytest.approx(
            sigma, rel=1e-12)

    def test_no_convergence_falls_back_to_scaled_dense(self, monkeypatch):
        rng = np.random.default_rng(11)
        cols = bench.DENSE_COLUMNS + 1
        a = rng.normal(size=(cols + 6, cols))
        scale = rng.uniform(0.1, 3.0, cols + 6)
        solve = bench._lanczos_top_pair
        calls = []

        def counted(normal, n):
            calls.append((n, solve(normal, n)))
            return calls[-1][1]

        monkeypatch.setattr(bench, "LANCZOS_STEPS", 2)
        monkeypatch.setattr(bench, "_lanczos_top_pair", counted)
        sigma = bench._dense_top_singular_pair(scale[:, None] * a)[0]
        assert bench._top_singular_pair(a, scale)[0] == pytest.approx(
            sigma, rel=1e-12)
        assert calls == [(cols, None)]


def _lanczos_against_arpack(monkeypatch, forms, p_values, sht):
    """Per wide block of every cell of each form: the relative gap of the
    Lanczos singular value to ARPACK's, 1 - |v.w| of their singular
    vectors, and both solves' normal-operator products.  ARPACK runs at
    the settings the Lanczos solve replaced (basis 20, tolerance 1e-10,
    300 restarts, the same seeded start vector)."""
    rows = []
    solve = bench._top_singular_pair

    def compared(matrix, row_scale):
        n = matrix.shape[1]
        if n <= bench.DENSE_COLUMNS:
            return solve(matrix, row_scale)
        weights = 1.0 if row_scale is None else row_scale ** 2
        products = []

        def normal(x):
            products[-1] += 1
            return matrix.T @ (weights * (matrix @ x))

        products.append(0)
        pair = bench._lanczos_top_pair(normal, n)
        assert pair is not None, "Lanczos fell back"
        products.append(0)
        vals, vecs = eigsh(LinearOperator((n, n), matvec=normal, dtype=float),
                           k=1, which="LA", ncv=20, tol=1e-10, maxiter=300,
                           v0=np.random.default_rng(0).standard_normal(n))
        sigma = math.sqrt(vals[0])
        rows.append((abs(pair[0] - sigma) / sigma,
                     1.0 - abs(pair[1] @ vecs[:, 0]), *products))
        return pair

    monkeypatch.setattr(bench, "_top_singular_pair", compared)
    for form in forms:
        form, turn = bench._turned(form, sht)
        mult = fast_multiplication_matrix(form, sht)
        for p in p_values:
            comparison_norms(p, form, sht, mult, TAIL_BOUND, turn)
    return rows


class TestLanczosMatchesArpack:
    """The Lanczos solve against ARPACK, the solver it replaced, on the
    blocks of the converge-nonzonal benchmark (102 x 204, l_max 46): the
    mirror blocks of tilted, the turned tilted-mirror and the flip-split
    sectoral, and the one complex block of a form with neither symmetry."""

    @pytest.fixture(scope="class")
    def nonzonal_sht(self):
        return SphericalHarmonicTransform(build_grid(102, 204), 46)

    @pytest.mark.parametrize("specs", ["benchmark", "complex"])
    def test_singular_pairs_and_products(self, monkeypatch, nonzonal_sht,
                                         specs):
        if specs == "benchmark":
            coefficient_maps = [read_form_spec(spec)[1] for spec
                                in _load_workloads().NONZONAL_FORMS
                                if spec["coefficients"]]
        else:
            coefficient_maps = [{(1, 1): 0.1, (2, -1): 0.05}]
        forms = [VolumeForm(nonzonal_sht.grid, coefficients, "probe")
                 for coefficients in coefficient_maps]
        rows = _lanczos_against_arpack(monkeypatch, forms, [8, 16, 32, 64],
                                       nonzonal_sht)
        # two norms per cell at four p, over 2 + 2 + 4 blocks (tilted,
        # tilted-mirror, sectoral) or 1 (complex)
        assert len(rows) == 8 * (8 if specs == "benchmark" else 1)
        gaps, angles, lanczos, arpack = np.array(rows).T
        assert gaps.max() < 1e-14
        assert angles.max() < 1e-12
        # never more products than ARPACK, which checks convergence only
        # once per restart
        assert (lanczos <= arpack).all()


class TestComparisonNorms:
    def test_metric_form_closed_form(self, bench_grid, bench_sht):
        p = 8
        form = fubini_study_form(bench_grid)
        res = _cell(p, form, bench_sht)
        ls = np.arange(bench_sht.l_max + 1)
        lam = np.array([funk_hecke_eigenvalue(p, l) for l in ls])
        heat = np.exp(-ls * (ls + 1.0) / p)
        assert res.norm1 == pytest.approx(np.abs(lam - heat).max(), rel=1e-8)
        scaled = 4 * math.pi * ls * (ls + 1.0) / p * np.abs(lam - heat)
        assert res.norm2 == pytest.approx(scaled.max(), rel=1e-8)

    def test_norm_shrinks_with_p(self, bench_grid, bench_sht):
        form = fubini_study_form(bench_grid)
        n8 = _cell(8, form, bench_sht).norm1
        n32 = _cell(32, form, bench_sht).norm1
        assert n32 < 0.3 * n8

    def test_argmax_mode_matches_diagonal_oracle(self, bench_grid, bench_sht):
        p = 8
        form = fubini_study_form(bench_grid)
        res = _cell(p, form, bench_sht)
        ls = np.arange(bench_sht.l_max + 1)
        lam = np.array([funk_hecke_eigenvalue(p, l) for l in ls])
        gaps = np.abs(lam - np.exp(-ls * (ls + 1.0) / p))
        assert res.argmax_degree == int(np.argmax(gaps))

    def test_truncation_stability(self, bench_grid):
        form = VolumeForm(bench_grid, {(1, 0): -0.3}, "zonal-full")
        lo = SphericalHarmonicTransform(bench_grid, 14)
        hi = SphericalHarmonicTransform(bench_grid, 20)
        a = _cell(16, form, lo)
        b = _cell(16, form, hi)
        assert a.tail_residual < 1e-4
        assert abs(a.norm1 - b.norm1) < 1e-6
        assert abs(a.norm2 - b.norm2) < 1e-6

    def test_matrix_free_cross_check(self, bench_grid, bench_sht):
        for coeffs in ({}, {(1, 0): -0.3}, {(1, 1): 0.1, (2, 1): 0.05}):
            form = VolumeForm(bench_grid, coeffs, "probe")
            res = _cell(16, form, bench_sht)
            est = matrix_free_norm(16, form, bench_sht)
            assert est == pytest.approx(res.norm1, rel=1e-5)


def _generic_oracle(p, form, sht):
    """Both norms, the argmax degree and the tail of an assembled cell from
    the generic per-column operator matrices and the dense solve."""
    smoother = SmoothingOperator(bergman_evaluator(p, form, sht.grid))
    q = operator_matrix(smoother.apply, sht)
    eta = multiplication_matrix(form.eta, sht)
    factors = np.exp(-laplace_eigenvalue(sht.degrees)
                     * (1.0 / (4.0 * math.pi * p)))
    heat = dense(eta, sht) * factors
    diff = dense(q, sht) - form.volume * heat
    norm1, vec = bench._dense_top_singular_pair(diff)
    norm2, _ = bench._dense_top_singular_pair(
        (sht.eigenvalues / p)[:, None] * diff)
    heat_norm = eta.column_norm_sq * factors ** 2
    heat_leak = np.maximum(heat_norm - np.sum(heat ** 2, axis=0), 0.0)
    tail = max(q.tail_residual, heat_leak.max() / heat_norm.max())
    return norm1, norm2, int(sht.degrees[np.argmax(np.abs(vec))]), tail


def _route(op, sht):
    """The route of an ``OperatorMatrix``, read off its blocks: zonal when
    each block holds one order |m|, else which of the cosine/sine and the
    even/odd l + |m| spans they keep apart; the even/odd split comes only
    with the cosine/sine one."""
    def apart(key):
        return all(len(np.unique(key[slots])) == 1 for _, slots in op.blocks)

    if apart(np.abs(sht.orders)):
        return "zonal"
    mirror = apart(sht.orders < 0)
    flip = apart((sht.degrees + sht.orders) % 2)
    return {(False, False): "complex", (True, False): "mirror",
            (True, True): "mirror+flip"}[mirror, flip]


GENERIC = {(1, 1): 0.1, (2, -1): 0.05}
TILTED = {(1, 1): 0.1, (2, 1): 0.05}
TILTED_MIRROR = {(1, -1): -0.1, (2, -2): 0.05}
SECTORAL = {(2, 2): 0.04, (3, 1): 0.02}


@pytest.mark.parametrize("coefficients,route,n_blocks", [
    ({(1, 0): -0.3}, "zonal", 17),
    ({(1, 1): 0.1, (2, 1): 0.05}, "mirror", 2),
    # tilted-mirror, which a sweep turns onto the mirror route
    ({(1, -1): -0.1, (2, -2): 0.05}, "mirror", 2),
    ({(2, 2): 0.04, (3, 1): 0.02}, "mirror+flip", 4),
    (GENERIC, "complex", 1)])
def test_spans_partition_the_slots(bench_grid, bench_sht, coefficients, route,
                                   n_blocks):
    form, _ = bench._turned(
        VolumeForm(bench_grid, coefficients, route), bench_sht)
    spans = bench._spans(bench_sht, form)
    assert len(spans) == n_blocks
    assert _route(SimpleNamespace(blocks=[(None, span) for span in spans]),
                  bench_sht) == route
    # every slot in exactly one set, and a block's sets alike slot by slot
    # in degree and |m|, as the blocks that stand on all of them need
    slots = np.concatenate([span.ravel() for span in spans])
    assert np.array_equal(np.sort(slots), np.arange(bench_sht.n_coeffs))
    for span in spans:
        assert (bench_sht.degrees[span] == bench_sht.degrees[span[0]]).all()
        assert (np.abs(bench_sht.orders[span])
                == np.abs(bench_sht.orders[span[0]])).all()
    # every route but the complex one runs on real density modes and a real
    # inverse Gram
    kernel_matrix = bergman_evaluator(8, form, bench_grid).kernel_matrix
    assert (np.isrealobj(form.density_modes) == np.isrealobj(kernel_matrix)
            == (route != "complex"))


def test_steep_mirror_form_takes_the_mirror_route():
    # a mirror-symmetric form whose Gram has condition 6.4e8 at p = 32: its
    # density modes and its Gram are real to rounding, while its inverse
    # Gram computed in complex arithmetic carries imaginary parts of 7.5e-10
    # relative.  The mirror route matches the generic oracle to within the
    # rounding that the Gram's condition amplifies
    p = 32
    grid = build_grid(64, 128)
    sht = SphericalHarmonicTransform(grid, 16)
    form = VolumeForm(grid, {(1, 1): 5.0, (2, 1): 2.5}, "steep")
    mult = fast_multiplication_matrix(form, sht)
    assert _route(mult, sht) == "mirror"
    cond = bergman_evaluator(p, form, grid).gram.condition_estimate
    assert cond > 1e8
    res = comparison_norms(p, form, sht, mult, TAIL_BOUND, None)
    norm1, norm2, degree, tail = _generic_oracle(p, form, sht)
    rel = cond * np.finfo(float).eps
    assert res.norm1 == pytest.approx(norm1, rel=rel)
    assert res.norm2 == pytest.approx(norm2, rel=rel)
    assert res.argmax_degree == degree
    assert res.tail_residual == pytest.approx(tail, rel=rel)


class TestAssembledCells:
    # tilted has a mirror axis and takes a cosine and a sine block, on the
    # form turned back about the pole once rotated by alpha; tilted-mirror
    # has the equator flip instead, and turned onto the meridian phi = 0 it
    # takes a cosine and a sine block too; sectoral has both and takes
    # four, turned as tilted is; the generic form has neither and takes one
    # complex block.  A "turned" route is the mirror route after the turn
    @pytest.mark.parametrize("form_id,coefficients,alpha,route", [
        ("tilted", TILTED, 0.0, "mirror"),
        ("tilted", TILTED, 0.7, "turned"),
        ("sectoral", SECTORAL, 0.0, "mirror+flip"),
        ("tilted", TILTED, 2.3, "turned"),
        ("sectoral", SECTORAL, 0.7, "turned+flip"),
        ("sectoral", SECTORAL, 2.3, "turned+flip"),
        ("tilted-mirror", TILTED_MIRROR, 0.0, "turned"),
        ("tilted-mirror", TILTED_MIRROR, 0.7, "turned"),
        ("generic", GENERIC, 0.0, "complex"),
        ("generic", GENERIC, 0.7, "complex")])
    @pytest.mark.parametrize("p", [8, 16])
    @pytest.mark.parametrize("l_max", [16, 6])
    def test_difference_buffer_matches_generic_oracle(
            self, bench_grid, bench_sht, form_id, coefficients, alpha, route,
            p, l_max):
        sht = (bench_sht if l_max == bench_sht.l_max
               else SphericalHarmonicTransform(bench_grid, l_max))
        if alpha:
            coefficients = rotate(coefficients, alpha)
        unturned = VolumeForm(bench_grid, coefficients, form_id)
        form, turn = bench._turned(unturned, sht)
        assert (turn is not None) == route.startswith("turned")
        assert unturned.is_mirror_symmetric == route.startswith("mirror")
        if route.startswith("turned") and form_id != "tilted-mirror":
            assert _same_axis(_pole_angle(turn), alpha)
        # the turn drops the sine terms: the turned form is mirror-symmetric
        assert form.is_mirror_symmetric == (route != "complex")
        route = route.replace("turned", "mirror")
        mult = fast_multiplication_matrix(form, sht)
        assert _route(mult, sht) == route
        assert len(mult.blocks) == {"complex": 1, "mirror": 2,
                                    "mirror+flip": 4}[route]
        res = comparison_norms(p, form, sht, mult, TAIL_BOUND, turn)
        # the oracle runs on the unturned form
        norm1, norm2, degree, tail = _generic_oracle(p, unturned, sht)
        assert res.norm1 == pytest.approx(norm1, rel=1e-12)
        assert res.norm2 == pytest.approx(norm2, rel=1e-12)
        # both read the top singular vector in the input basis
        assert res.argmax_degree == degree
        if l_max == bench_sht.l_max:
            # Q is band-limited to degree p <= l_max, and the heat side
            # leaks below rounding: both tails are rounding-level
            assert max(res.tail_residual, tail) < 1e-14
        else:
            if turn is not None:
                # a turned form's tail is over the turned basis's columns
                tail = _generic_oracle(p, form, sht)[3]
            assert res.tail_residual == pytest.approx(tail, rel=1e-12)

    @pytest.mark.parametrize("form_id,coefficients,alpha", [
        ("tilted-mirror", TILTED_MIRROR, 0.0),
        ("tilted-mirror", TILTED_MIRROR, 0.7),
        ("tilted", TILTED, 0.7), ("sectoral", SECTORAL, 2.3)])
    def test_turned_blocks_match_generic_oracle(self, bench_grid, bench_sht,
                                                form_id, coefficients, alpha):
        # Q's and eta's blocks of the turned form, taken back to the input
        # basis by the turn's matrices, against the per-column matrices of
        # the form as given: the quarter turn for tilted-mirror, the turn
        # about the pole for the others
        p = 8
        unturned = VolumeForm(bench_grid, rotate(coefficients, alpha),
                              form_id)
        form, turn = bench._turned(unturned, bench_sht)
        assert turn is not None
        back = block_diagonal(turn)
        op = SmoothingOperator(bergman_evaluator(p, form, bench_grid))
        fast = smoothing_operator_matrix(op, bench_sht, None)
        slow = operator_matrix(
            SmoothingOperator(bergman_evaluator(p, unturned,
                                                bench_grid)).apply,
            bench_sht)
        assert np.abs(back.T @ dense(fast, bench_sht) @ back
                      - dense(slow, bench_sht)).max() < 1e-12
        mf = fast_multiplication_matrix(form, bench_sht)
        ms = multiplication_matrix(unturned.eta, bench_sht)
        assert np.abs(back.T @ dense(mf, bench_sht) @ back
                      - dense(ms, bench_sht)).max() < 1e-12

    @staticmethod
    def _cell_peak(p, coefficients, form_id):
        """tracemalloc peak, in doubles, of one cell on 64x128, l_max 30,
        on the form a sweep runs it on, with its eta blocks passed in;
        numpy reports its buffers to tracemalloc."""
        grid = build_grid(64, 128)
        sht = SphericalHarmonicTransform(grid, 30)
        form, turn = bench._turned(
            VolumeForm(grid, coefficients, form_id), sht)
        mult = fast_multiplication_matrix(form, sht)
        tracemalloc.start()
        try:
            comparison_norms(p, form, sht, mult, TAIL_BOUND, turn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 8, sht.n_coeffs ** 2

    @pytest.mark.parametrize("p", [8, 16])
    def test_cell_holds_one_matrix_besides_eta(self, p):
        # a form with neither symmetry takes one complex-arithmetic block:
        # the difference is built in Q's buffer and norm2 scales rows inside
        # the solve, so the cell allocates one full matrix and small blocks
        peak, square = self._cell_peak(p, GENERIC, "generic")
        assert peak < 2 * square

    @pytest.mark.parametrize("p", [8, 16])
    def test_mirror_cell_holds_half_a_matrix(self, p):
        # a form with a mirror axis holds a cosine and a sine block, about
        # a quarter of the full matrix each, and half-size order batches
        peak, square = self._cell_peak(
            p, {(1, 1): 0.1, (2, 1): 0.05}, "tilted")
        assert peak < square

    @pytest.mark.parametrize("p", [8, 16])
    def test_turned_cell_holds_half_a_matrix(self, p):
        # a form symmetric under the equator flip, turned onto the mirror
        # route, holds a cosine and a sine block, as tilted does
        peak, square = self._cell_peak(
            p, {(1, -1): -0.1, (2, -2): 0.05}, "tilted-mirror")
        assert peak < square


class TestZonalBlocks:
    @pytest.mark.parametrize("coefficients,form_id", [
        ({}, "fs"), ({(1, 0): -0.15}, "zonal-half"),
        ({(1, 0): -0.3}, "zonal-full")])
    @pytest.mark.parametrize("p", [8, 24])
    def test_blocks_match_generic_oracle(self, bench_grid, bench_sht,
                                         coefficients, form_id, p):
        # p = 8 < l_max leaves the orders past p with an eta-heat block only
        form = VolumeForm(bench_grid, coefficients, form_id)
        res = _cell(p, form, bench_sht)
        norm1, norm2, degree, tail = _generic_oracle(p, form, bench_sht)
        assert res.norm1 == pytest.approx(norm1, rel=1e-13)
        assert res.norm2 == pytest.approx(norm2, rel=1e-13)
        assert res.argmax_degree == degree
        assert res.tail_residual == pytest.approx(tail, rel=1e-6, abs=1e-14)

    @pytest.mark.parametrize("p", [8, 24])
    def test_metric_form_blocks_are_funk_hecke_diagonals(self, bench_grid,
                                                          bench_sht, p):
        form = fubini_study_form(bench_grid)
        op = SmoothingOperator(bergman_evaluator(p, form, bench_grid))
        # the orders m > p have zero blocks, as Funk-Hecke's l > p
        blocks = bench._zonal_q_matrix(op, bench_sht, None).blocks
        assert len(blocks) == bench_sht.l_max + 1
        for m, (block, _) in enumerate(blocks):
            target = [funk_hecke_eigenvalue(p, l)
                      for l in range(m, bench_sht.l_max + 1)]
            assert np.abs(block - np.diag(target)).max() < 1e-13

    def test_dispatch_reads_the_coefficients(self, bench_grid, bench_sht,
                                             monkeypatch):
        # Q assemblies and eta matrices per route, read off the blocks each
        # returns (``_route``)
        calls = {}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                key = (name, _route(result, bench_sht))
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
        # one Q per cell and one eta per form, as for every route
        assert calls == {("q", "zonal"): 4, ("eta", "zonal"): 1}
        calls.clear()
        # one small m != 0 coefficient makes the form non-zonal; with no
        # sine coefficient it stays mirror-symmetric
        tipped = VolumeForm(bench_grid, {(1, 0): -0.3, (2, 1): 1e-9}, "t")
        assert tipped.is_mirror_symmetric
        sweep_form(tipped, p_values, bench_sht, TAIL_BOUND)
        assert calls == {("q", "mirror"): 4, ("eta", "mirror"): 1}
        # one small sine coefficient off the axis of the cosine ones leaves
        # the form with no mirror plane through the pole
        off_axis = VolumeForm(bench_grid, {(1, 1): 0.1, (2, -1): 1e-9}, "o")
        assert not off_axis.is_mirror_symmetric
        sweep_form(off_axis, p_values, bench_sht, TAIL_BOUND)
        assert calls == {("q", "mirror"): 4, ("eta", "mirror"): 1,
                         ("q", "complex"): 4, ("eta", "complex"): 1}
        # with no mirror plane through the pole, every l + |m| even keys the
        # quarter turn onto the mirror route
        calls.clear()
        flipped = VolumeForm(bench_grid, {(1, -1): -0.1, (2, -2): 0.05}, "f")
        assert not flipped.is_mirror_symmetric and flipped.is_flip_symmetric
        sweep_form(flipped, p_values, bench_sht, TAIL_BOUND)
        assert calls == {("q", "mirror"): 4, ("eta", "mirror"): 1}
        # one small odd coefficient drops the flip
        calls.clear()
        tipped = VolumeForm(bench_grid, {(1, -1): -0.1, (2, -2): 0.05,
                                         (2, 1): 1e-9}, "g")
        assert not tipped.is_mirror_symmetric
        sweep_form(tipped, p_values, bench_sht, TAIL_BOUND)
        assert calls == {("q", "complex"): 4, ("eta", "complex"): 1}

    def test_band_guard_keeps_the_complex_route(self, monkeypatch):
        # a strong (2, 0) term with weak (1, 1) and (2, -2) terms, whose
        # axes differ: flip-symmetric, no mirror plane through the pole,
        # and a narrow band that the quarter turn would widen, since Y_20
        # turned off the pole has |m| = 1, 2 parts.  The pinned grid's
        # exactness 2p + band passes at the input's band and would refuse
        # the turned one
        grid = build_grid(24, 31)
        sht = SphericalHarmonicTransform(grid, 12)
        form = VolumeForm(grid, {(2, 0): 0.5, (1, 1): 1e-3, (2, -2): 1e-3},
                          "narrow")
        assert not form.is_mirror_symmetric and form.is_flip_symmetric
        assert 2 * 12 + form.phi_band <= grid.exactness_degree
        made = []

        def kept(*args):
            made.append(VolumeForm(*args))
            return made[-1]

        with monkeypatch.context() as patch:
            patch.setattr(bench, "VolumeForm", kept)
            assert bench._turned(form, sht) == (form, None)
        assert 2 * 12 + made[0].phi_band > grid.exactness_degree
        routes = []
        original = bench.smoothing_operator_matrix

        def counted(*args):
            result = original(*args)
            routes.append(_route(result, sht))
            return result

        monkeypatch.setattr(bench, "smoothing_operator_matrix", counted)
        report = sweep_form(form, [4, 8, 10, 12], sht, TAIL_BOUND)
        assert routes == ["complex"] * 4
        assert min(report.norms1) > 0.0


def _pole_angle(turn):
    """The angle alpha of a turn about the pole by -alpha, read off D_1,
    which mixes the pair (1, +-1) by alpha; None for a turn off the pole,
    which moves Y_1,0."""
    D = turn[1]
    return math.atan2(D[2, 0], D[2, 2]) if D[1, 1] == 1.0 else None


def _same_axis(a, b):
    """Mirror axes agree modulo pi, the period of a reflection's axis."""
    return abs(math.sin(a - b)) <= 1e-14


class TestTurnChoice:
    # which turn, if any, puts a mirror plane on the meridian phi = 0
    # (``bench._turned``): the one tolerance-based route decision
    @staticmethod
    def _turned(coefficients, grid, sht):
        """A form of the coefficients, and what a sweep runs it on."""
        form = VolumeForm(grid, coefficients, "form")
        return form, *bench._turned(form, sht)

    def test_no_sine_terms_means_no_turn(self, bench_grid, bench_sht):
        for coefficients in ({}, {(1, 0): -0.3},
                             {(1, 1): 0.1, (2, 1): 0.05, (2, -2): 0.0}):
            form, turned, turn = self._turned(coefficients, bench_grid,
                                              bench_sht)
            assert form.is_mirror_symmetric
            assert (turned, turn) == (form, None)

    def test_tilted_mirror_has_no_pole_candidate(self, bench_grid,
                                                 bench_sht):
        # its order-1 sine term wants alpha = pi/2 (mod pi), its order-2
        # one alpha = pi/4 (mod pi/2); the flip keys the quarter turn
        form, turned, turn = self._turned(TILTED_MIRROR, bench_grid,
                                          bench_sht)
        assert _pole_angle(turn) is None and turned.is_mirror_symmetric
        form.is_flip_symmetric = False
        assert bench._turned(form, bench_sht) == (form, None)

    def test_sine_term_over_the_tolerance_keeps_the_complex_route(
            self, bench_grid, bench_sht):
        form, turned, turn = self._turned({(1, 1): 0.1, (2, -1): 1e-9},
                                          bench_grid, bench_sht)
        assert (turned, turn) == (form, None)

    def test_sine_term_under_the_tolerance_is_dropped(self, bench_grid,
                                                      bench_sht):
        # at most MIRROR_TOL times the largest term: the identity turn
        # about the pole is taken, and the sine term dropped from the map
        _, turned, turn = self._turned({(1, 1): 0.1, (2, -1): 5e-15},
                                       bench_grid, bench_sht)
        assert all(np.array_equal(D, np.eye(len(D))) for D in turn)
        assert turned.coefficients == {(1, 1): 0.1}

    def test_pure_sine_form_turns_by_a_quarter_about_the_pole(
            self, bench_grid, bench_sht):
        for coefficients, alpha in (({(1, -1): 0.1, (2, -1): 0.05},
                                     math.pi / 2),
                                    ({(1, -1): 0.1, (1, 1): 0.1},
                                     math.pi / 4)):
            _, turned, turn = self._turned(coefficients, bench_grid,
                                           bench_sht)
            assert _pole_angle(turn) == pytest.approx(alpha, abs=1e-15)
            assert turned.is_mirror_symmetric

    def test_axis_of_a_zero_lowest_order_pair(self, bench_grid, bench_sht):
        # an explicit zero pair does not pin the candidates
        _, turned, turn = self._turned({(1, 1): 0.0, (2, -2): 0.1},
                                       bench_grid, bench_sht)
        assert _same_axis(2 * _pole_angle(turn), math.pi / 2)
        assert turned.is_mirror_symmetric

    def test_benchmark_forms_rotated_by_the_seeded_angles(self, bench_grid,
                                                          bench_sht):
        # the pole turn's angle is the seed's rotation, mod pi
        workloads = _load_workloads()
        for seed in range(1, 21):
            angle, _ = workloads.seeded_inputs(seed)
            for spec in workloads.NONZONAL_FORMS:
                _, turned, turn = self._turned(
                    _seeded_coefficients(workloads, spec, seed), bench_grid,
                    bench_sht)
                if spec["id"] == "fs":
                    assert turn is None
                    continue
                assert turned.is_mirror_symmetric
                if spec["id"] == "tilted-mirror":
                    assert _pole_angle(turn) is None, seed
                else:
                    assert _same_axis(_pole_angle(turn), angle), (seed,
                                                                  spec["id"])

    def test_high_degree_form_matches_generic_oracle(self, monkeypatch):
        # a flip-symmetric form with a coefficient of degree 110 is
        # quarter-turned, its turn built once at each degree up to l_max
        # and at the form's degrees, and no other.  120x240 keeps the band
        # under Nyquist and resolves the density's second-order content
        # (degree 220): on 64x256, where only the first holds, the turned
        # and unturned densities differ on the grid, and so the norms, by
        # 2.6e-8 relative
        sht = SphericalHarmonicTransform(build_grid(120, 240), 12)
        coefficients = {(1, 1): 0.1, (110, -110): 1e-3}
        asked = []
        _record_turns(monkeypatch, asked)
        form, turned, turn = self._turned(coefficients, sht.grid, sht)
        assert form.is_flip_symmetric and _pole_angle(turn) is None
        assert sorted(l for name, l, _ in asked
                      if name == "pole_turn") == [1, 110]
        assert sorted(l for name, l, _ in asked
                      if name == "quarter_turn") == list(range(13)) + [110]
        p = 4
        mult = fast_multiplication_matrix(turned, sht)
        res = comparison_norms(p, turned, sht, mult, None, turn)
        norm1, norm2, degree, _ = _generic_oracle(p, form, sht)
        assert res.norm1 == pytest.approx(norm1, rel=1e-12)
        assert res.norm2 == pytest.approx(norm2, rel=1e-12)
        assert res.argmax_degree == degree

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "nothing checks that a grid resolves a form's density in "
        "colatitude: on 64x256 the turned and unturned norms differ by "
        "2.6e-8 relative"))
    def test_high_degree_form_on_a_grid_short_of_its_density(self):
        # the form above on the smallest grid that keeps its band under
        # Nyquist, which is accepted and quarter-turned, but misses the
        # density's degree-220 content; passes once such a grid is refused
        sht = SphericalHarmonicTransform(build_grid(64, 256), 12)
        form, turned, turn = self._turned({(1, 1): 0.1, (110, -110): 1e-3},
                                          sht.grid, sht)
        if turn is None or _pole_angle(turn) is not None:
            pytest.fail("the form is not quarter-turned")
        p = 4
        mult = fast_multiplication_matrix(turned, sht)
        res = comparison_norms(p, turned, sht, mult, None, turn)
        norm1, norm2, _, _ = _generic_oracle(p, form, sht)
        assert res.norm1 == pytest.approx(norm1, rel=1e-12)
        assert res.norm2 == pytest.approx(norm2, rel=1e-12)

    def test_band_at_the_top_mode_keeps_the_complex_route(self):
        # on 24x48 this density's band reaches the top longitude mode 24,
        # which stands for a +m and a -m mode that a turn treats apart;
        # phi -> -phi maps the grid onto itself, a turn by 0.3 does not.
        # Neither the pole turn nor, for this flip-symmetric form, the
        # quarter turn is tried; quarter-turned, its norms missed the
        # per-column oracle by 3.4e-9 and 8.7e-8 relative
        sht = SphericalHarmonicTransform(build_grid(24, 48), 12)
        strong, _, _ = self._turned({(3, 3): 1.5}, sht.grid, sht)
        assert strong.phi_band == 24 and strong.is_mirror_symmetric
        form, turned, turn = self._turned(
            {(3, 3): 1.5 * math.cos(0.9), (3, -3): 1.5 * math.sin(0.9)},
            sht.grid, sht)
        assert form.phi_band == 24 and form.is_flip_symmetric
        assert (turned, turn) == (form, None)
        p = 8
        mult = fast_multiplication_matrix(form, sht)
        # l_max 12 leaves a tail over the default bound; none is checked
        res = comparison_norms(p, form, sht, mult, None, None)
        norm1, norm2, degree, _ = _generic_oracle(p, form, sht)
        assert res.norm1 == pytest.approx(norm1, rel=1e-12)
        assert res.norm2 == pytest.approx(norm2, rel=1e-12)
        assert res.argmax_degree == degree


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

