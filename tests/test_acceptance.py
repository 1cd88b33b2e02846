"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE`` line (run pytest with ``-s`` to see the
lines for passing criteria as well).  The operator-norm sweep behind the
rate criteria is shared module-wide; the full module targets desk-scale
runtime (under ten minutes).
"""

import math
import time

import numpy as np
import pytest
import sympy as sp

from bergman_heat import (SmoothingOperator, SpherePoint, VolumeForm,
                          bargmann_kernel, bargmann_kernel_expr,
                          bergman_evaluator, build_grid, fubini_study_form,
                          gaussian_laplacian_identity, heat_apply,
                          heat_diagonal, landau_operator_symbolic,
                          near_diagonal_residual, off_diagonal_sup,
                          rank_ratio, rate_fit, reproducing_residual,
                          semigroup_derivative_residual, sweep_form,
                          weight_change_residuals)
from bergman_heat.bench import smoothing_operator_matrix
from bergman_heat.config import DEFAULTS
from bergman_heat.heat import HarmonicCoeffs, SphericalHarmonicTransform
from test_bench import dense
from test_bergman import funk_hecke_eigenvalue

P_GRID = [8, 16, 32, 64, 128]
FORM_SPECS = [
    ("fs", {}),
    ("zonal-half", {(1, 0): -0.15}),
    ("zonal-full", {(1, 0): -0.3}),
    ("tilted", {(1, 1): 0.1, (2, 1): 0.05}),
]
UNIFORMITY_FAMILY = ["fs", "zonal-half", "zonal-full"]


def report(criterion, passed, details):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({details})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def converge_data():
    grid = build_grid(152, 304)
    sht = SphericalHarmonicTransform(grid, 46)
    reports = {}
    start = time.time()
    for form_id, coeffs in FORM_SPECS:
        form = VolumeForm(grid, coeffs, form_id)
        reports[form_id] = sweep_form(form, P_GRID, sht,
                                     DEFAULTS["converge"]["tail_bound"])
    return reports, time.time() - start


@pytest.fixture(scope="module")
def probe_grid():
    # sized for p up to 256 (near-diagonal window and decay probes)
    return build_grid(280, 560)


def test_criterion_1_rate_line_one(converge_data):
    reports, elapsed = converge_data
    worst_slope = max(rep.slope1 for rep in reports.values())
    worst_ratio = max(rep.bounded_ratio(rep.norms1)
                      for rep in reports.values())
    ok = worst_slope <= -0.75 and worst_ratio <= 3.0 and elapsed < 600.0
    report("1 theorem-rate-line-1", ok,
           f"worst slope {worst_slope:.3f} <= -0.75, "
           f"max/median {worst_ratio:.2f} <= 3, sweep {elapsed:.0f}s < 600s, "
           f"{len(reports)} forms")


def test_criterion_2_rate_line_two(converge_data):
    reports, _ = converge_data
    worst_slope = max(rep.slope2 for rep in reports.values())
    worst_ratio = max(rep.bounded_ratio(rep.norms2)
                      for rep in reports.values())
    ok = worst_slope <= -0.75 and worst_ratio <= 3.0
    report("2 theorem-rate-line-2", ok,
           f"worst slope {worst_slope:.3f} <= -0.75, "
           f"max/median {worst_ratio:.2f} <= 3")


def test_criterion_3_closed_form_oracles():
    grid = build_grid(80, 160)
    form = fubini_study_form(grid)
    eig_err = 0.0
    offdiag = 0.0
    diag_err = 0.0
    rank_err = 0.0
    for p in (16, 64):
        l_top = int(2 * math.sqrt(p))
        sht = SphericalHarmonicTransform(grid, l_top)
        ev = bergman_evaluator(p, form, grid)
        mat = dense(smoothing_operator_matrix(SmoothingOperator(ev), sht,
                                              None), sht)
        target = np.array([funk_hecke_eigenvalue(p, l) for l in sht.degrees])
        eig_err = max(eig_err, float(np.abs(np.diag(mat) - target).max()))
        offdiag = max(offdiag, float(np.abs(mat - np.diag(np.diag(mat))).max()))
        theta = np.array([0.4, 1.3, 2.4])
        phi = np.array([0.1, 2.0, 5.1])
        density_diag = ev.kernel(theta, phi, theta, phi).modulus.diagonal() ** 2
        diag_err = max(diag_err, float(np.abs(density_diag
                                              - (p + 1.0) ** 2).max()))
        rank_err = max(rank_err, abs(rank_ratio(p, form) - (p + 1.0)))
    ok = eig_err < 1e-8 and offdiag < 1e-8 and diag_err < 1e-8 \
        and rank_err < 1e-12
    report("3 closed-form-oracles", ok,
           f"eigenvalue err {eig_err:.1e} < 1e-8, off-diagonal {offdiag:.1e}, "
           f"kernel diagonal err {diag_err:.1e} < 1e-8, "
           f"rank-ratio err {rank_err:.1e} < 1e-12")


def test_criterion_4_weight_change_identities():
    grid = build_grid(40, 80)
    worst = 0.0
    worst_tag = ""
    for form_id, coeffs in FORM_SPECS:
        form = VolumeForm(grid, coeffs, form_id)
        for p in (4, 8, 16):
            res = weight_change_residuals(bergman_evaluator(p, form, grid))
            for key, value in res.items():
                if value > worst:
                    worst, worst_tag = value, f"{form_id}/p={p}/{key}"
    ok = worst < 1e-8
    report("4 weight-change-identities", ok,
           f"max residual {worst:.2e} < 1e-8 (worst at {worst_tag})")


def test_criterion_5_near_diagonal_rate(probe_grid):
    form = fubini_study_form(probe_grid)
    x0 = SpherePoint(1.05, 0.4)
    ps = [16, 32, 64, 128, 256]
    cfg = DEFAULTS["near-diagonal"]
    residuals = [near_diagonal_residual(
        bergman_evaluator(p, form, probe_grid), x0, cfg["window_constant"],
        cfg["n_radial"], cfg["n_angular"]).sup_residual for p in ps]
    slope, _ = rate_fit(ps, residuals)
    ok = -1.4 <= slope <= -0.75
    report("5 near-diagonal-rate", ok,
           f"slope {slope:.3f} in [-1.4, -0.75], "
           f"residuals {['%.3f' % r for r in residuals]}")


def test_criterion_6_off_diagonal_decay(probe_grid):
    form = fubini_study_form(probe_grid)
    eps = 0.2
    ps = [64, 96, 128, 192, 256]
    sups = [off_diagonal_sup(bergman_evaluator(p, form, probe_grid), eps,
                             theta_stride=8, phi_stride=16).sup for p in ps]
    sqrt_p = np.sqrt(np.asarray(ps, dtype=float))
    logs = np.log(sups)
    slope, intercept = np.polyfit(sqrt_p, logs, 1)
    fitted = slope * sqrt_p + intercept
    r2 = 1.0 - np.sum((logs - fitted) ** 2) / np.sum((logs - logs.mean()) ** 2)
    weighted = np.asarray(ps, dtype=float) ** 5 * np.asarray(sups)
    decreasing = bool(np.all(np.diff(weighted) < 0))
    ok = slope < 0 and r2 >= 0.95 and decreasing
    report("6 off-diagonal-decay", ok,
           f"slope {slope:.2f} < 0, R^2 {r2:.4f} >= 0.95, "
           f"p^5-weighted decreasing: {decreasing}")


def test_criterion_7_heat_expansion():
    us = np.exp(np.linspace(math.log(1e-3), math.log(1e-2), 9))
    y = np.array([4 * math.pi * u * heat_diagonal(u) - 1.0 for u in us])
    linear = np.polyfit(us, y, 2)[1]
    target = 4 * math.pi / 3.0
    rel = abs(linear - target) / target

    grid = build_grid(64, 128)
    sht = SphericalHarmonicTransform(grid, 24)
    rng = np.random.default_rng(5)
    c = HarmonicCoeffs(24, rng.normal(size=625) / (1 + sht.degrees) ** 2)
    semi = np.abs(heat_apply(heat_apply(c, 0.04), 0.03).values
                  - heat_apply(c, 0.07).values).max()
    f = sht.synthesize(c)
    g = sht.synthesize(HarmonicCoeffs(
        24, rng.normal(size=625) / (1 + sht.degrees) ** 2))
    hf = sht.synthesize(heat_apply(sht.analyze(f), 0.05))
    hg = sht.synthesize(heat_apply(sht.analyze(g), 0.05))
    w = grid.node_weights
    self_adj = abs(float(np.sum(w * hf * g) - np.sum(w * f * hg)))
    mass = abs(float(np.sum(w * hf) - np.sum(w * f)))
    contract = float(np.sqrt(np.sum(w * hf * hf))
                     - np.sqrt(np.sum(w * f * f)))
    deriv = semigroup_derivative_residual(c, u=0.2, h=1e-4) \
        / math.sqrt(c.norm_sq())
    ok = rel <= 0.01 and semi < 1e-15 and self_adj < 1e-10 \
        and mass < 1e-12 and contract <= 0.0 and deriv <= 1e-6
    report("7 heat-expansion", ok,
           f"coefficient rel err {rel:.2e} <= 1%, semigroup {semi:.1e}, "
           f"self-adjoint {self_adj:.1e}, mass {mass:.1e}, "
           f"contraction ok, derivative {deriv:.1e}")


def test_criterion_8_flat_model():
    rng = np.random.default_rng(11)
    repro = max(reproducing_residual(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        DEFAULTS["model-check"]["quad_order"]) for _ in range(10))
    probe = np.linspace(-1.2, 1.2, 5)
    annihilation = 0.0
    for _ in range(20):
        w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        expr, (x, y) = bargmann_kernel_expr(w)
        func = sp.lambdify((x, y),
                           sp.expand(landau_operator_symbolic(expr, x, y)),
                           modules="numpy")
        vals = np.asarray(func(probe[:, None], probe[None, :]), dtype=complex)
        annihilation = max(annihilation, float(np.abs(vals).max()))
    lap_err = 0.0
    for p, w in [(4, 0.3), (9, 0.2 + 0.1j), (1, 0.0)]:
        computed, closed = gaussian_laplacian_identity(p, w)
        lap_err = max(lap_err, abs(computed - closed))
    zs = rng.normal(size=40) + 1j * rng.normal(size=40)
    ws = rng.normal(size=40) + 1j * rng.normal(size=40)
    modulus = float(np.abs(np.abs(bargmann_kernel(zs, ws)) ** 2
                           - np.exp(-math.pi * np.abs(zs - ws) ** 2)).max())
    ok = repro <= 1e-8 and annihilation <= 1e-8 and lap_err <= 1e-6 \
        and modulus <= 1e-12
    report("8 flat-model", ok,
           f"reproducing {repro:.1e} <= 1e-8, annihilation "
           f"{annihilation:.1e} <= 1e-8, laplacian {lap_err:.1e} <= 1e-6, "
           f"modulus law {modulus:.1e} <= 1e-12")


def test_criterion_9_uniformity(converge_data):
    reports, _ = converge_data
    base1 = reports["fs"].c_hat1
    base2 = reports["fs"].c_hat2
    c1 = [reports[f].c_hat1 for f in UNIFORMITY_FAMILY]
    c2 = [reports[f].c_hat2 for f in UNIFORMITY_FAMILY]
    finite = all(math.isfinite(v) for v in c1 + c2)
    ratio1 = max(c1) / base1
    ratio2 = max(c2) / base2
    ok = finite and ratio1 <= 5.0 and ratio2 <= 5.0
    report("9 uniformity-in-data", ok,
           f"all constants finite, line-1 ratio {ratio1:.2f} <= 5, "
           f"line-2 ratio {ratio2:.2f} <= 5, "
           f"family max/min {max(c1) / min(c1):.2f}")
