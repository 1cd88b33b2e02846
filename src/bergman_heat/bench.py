"""Operator-norm benchmark: smoothing operator vs damped heat flow.

Both sides of the comparison are matrices on the truncated real-harmonic
basis (columns are transforms of the operator applied to each basis
function).  The top singular value of the difference is a lower bound of the
true L2 operator norm; per-matrix tail residuals record how much column mass
escapes the truncation, normalized by the largest column so that
structurally-zero columns cannot poison the validity flag.

A zonal form's difference commutes with rotation about the pole, so it
splits into one block per longitude order, the same for cosine and sine;
those blocks are built directly from the section-harmonic moment tables.
Other forms assemble Q one longitude order of columns at a time, and the
eta multiplication as a product quadrature, one output order at a time.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .bergman import SmoothingOperator
from .errors import ConfigError, InvalidRunError
from .fourier import product_grams
from .geometry import is_zonal
from .heat import HarmonicCoeffs, coeff_index, heat_apply
from .sections import bergman_evaluator

# largest accepted sweep with a non-zonal form, checked before any table is
# built: one operator matrix on the harmonic basis holds (l_max+1)^4 doubles
# (200 MB at the limit; the default l_max 46 needs 4.9e6), and a non-zonal
# cell holds two of them live, eta and the difference; one Q
# assembly costs about (p+1)^3 (l_max+1)^2 flops (4.7e9 at the default
# p = 128, which took 3.5 s in a traced converge-default run on 2 cores)
MAX_MATRIX_ENTRIES = 25 * 10 ** 6
MAX_Q_FLOPS = 10 ** 11

# ARPACK settings of the top-eigenpair solve: Lanczos basis size, relative
# residual tolerance and restart bound.  The metric form's top singular value
# is a (2l+1)-fold cluster split at rounding level, which ARPACK does not
# resolve at tolerances near machine precision; the restart bound keeps a
# solve that cannot converge short before it takes the dense path.
ARPACK_NCV = 20
ARPACK_TOL = 1e-10
ARPACK_MAXITER = 300

# columns per in-place step of the difference (an n_coeffs x 256 temporary)
DIFF_COLUMNS = 256


@dataclass
class OperatorMatrix:
    """Operator matrix on the harmonic basis, each column's kept and total
    mass."""

    matrix: np.ndarray
    tail_residual: float
    column_kept: np.ndarray
    column_norm_sq: np.ndarray


def check_sweep_cost(p_max, l_max, coefficient_maps):
    """Refuse a sweep with a non-zonal form whose matrices or Q assembly
    exceed the budgets; zonal forms build (l_max+1)-square blocks only."""
    if all(is_zonal(coefficients) for coefficients in coefficient_maps):
        return
    entries = (l_max + 1) ** 4
    if entries > MAX_MATRIX_ENTRIES:
        raise ConfigError(
            f"l_max {l_max} needs {entries:.2e} doubles per operator matrix, "
            f"over the limit {MAX_MATRIX_ENTRIES:.1e}; lower l_max")
    flops = (p_max + 1) ** 3 * (l_max + 1) ** 2
    if flops > MAX_Q_FLOPS:
        raise ConfigError(
            f"p {p_max} at l_max {l_max} needs about {flops:.2e} flops per Q "
            f"assembly, over the limit {MAX_Q_FLOPS:.1e}; lower p or l_max")


def _tail(kept, col_norm, tail_bound):
    """Tail residual of an operator's columns; raise if it is over bound.

    The tail residual is the largest per-column leakage past the truncation
    (quadrature norm ``col_norm`` minus the column's kept coefficient mass
    ``kept``) relative to the largest column norm.
    """
    leak = np.maximum(col_norm - kept, 0.0)
    scale = max(float(col_norm.max(initial=0.0)), 1e-300)
    tail = float(leak.max(initial=0.0) / scale)
    if tail_bound is not None and tail > tail_bound:
        raise InvalidRunError(
            f"tail residual {tail:.3e} exceeds bound {tail_bound:.3e}; "
            "raise l_max")
    return tail


def _checked_matrix(matrix, col_norm, tail_bound=None):
    """Wrap columns, their kept mass and their quadrature norms; raise if
    the tail is over bound (``_tail``)."""
    kept = np.einsum("ij,ij->j", matrix, matrix)
    return OperatorMatrix(matrix, _tail(kept, col_norm, tail_bound), kept,
                          col_norm)


def operator_matrix(op, sht):
    """Assemble columns ``analyze(op(Y_lm))`` with Parseval tail tracking.

    ``op`` maps real grid values to real grid values.
    """
    n = sht.n_coeffs
    matrix = np.zeros((n, n))
    col_norm = np.zeros(n)
    idx = 0
    for l in range(sht.l_max + 1):
        for m in range(-l, l + 1):
            values = op(sht.basis_function(l, m))
            matrix[:, idx] = sht.analyze(values).values
            col_norm[idx] = sht.grid_norm_sq(values)
            idx += 1
    return _checked_matrix(matrix, col_norm)


def multiplication_matrix(values, sht):
    """Matrix of pointwise multiplication by a fixed grid function."""
    return operator_matrix(lambda f: values * f, sht)


def smoothing_operator_matrix(smoother, sht, tail_bound):
    """Batched equivalent of ``operator_matrix(smoother.apply, sht)``.

    The columns of one longitude order |m|, cosine and sine together, go
    through ``smoother.coefficient_matrices`` as one batch, so the
    per-column small matrix products run as batched BLAS calls, and their
    section coefficient matrices A = M T M / R go straight to harmonic
    coefficients and quadrature norms through the section-harmonic moment
    tables (``sht.analyze_diagonals``): no output longitude modes and no
    per-column grids.  Matches the generic path to roundoff.
    """
    if sht.grid is not smoother.grid:
        raise ConfigError("transform and smoother live on different grids")
    profiles = smoother.evaluator.profiles
    w_theta = sht.grid.w_theta
    moments = sht.section_moments(profiles, w_theta)
    grams = product_grams(profiles, w_theta)
    n = sht.n_coeffs
    # one order's columns sit 2l+1 apart; column-major storage keeps each
    # column write contiguous
    matrix = np.zeros((n, n), order="F")
    col_norm = np.zeros(n)
    for k in range(sht.l_max + 1):
        cols = np.abs(sht.orders) == k
        # modes 0..p fit the grid: the Gram exactness check forces
        # n_phi >= 2p + 1
        matrix[:, cols], col_norm[cols] = sht.analyze_diagonals(
            smoother.coefficient_matrices(sht.order_products(
                smoother.form.density_modes, k, smoother.p + 1)),
            moments, grams)
    return _checked_matrix(matrix, col_norm, tail_bound)


def fast_multiplication_matrix(values, sht):
    """Multiplication-operator matrix as a product quadrature, over longitude
    and then over colatitude.

    Entry ((l, m), (l', m')) is sum_i w_i P_l^|m| P_l'^|m'| c_m[i, m'], with
    c_m[i, m'] = (1/n_phi) sum_j f trig_m trig_m' at (theta_i, phi_j): the
    grid quadrature of ``multiplication_matrix`` regrouped, so it matches
    that oracle to roundoff.  The column norms come the same way from
    f^2 trig_m'^2.  Column-major, like Q, for the difference's column blocks.
    """
    trig, n_phi, l_max = sht.trig, sht.grid.n_phi, sht.l_max
    profiles = sht.slot_profiles
    weighted = sht.grid.w_theta[:, None] * profiles
    matrix = np.zeros((sht.n_coeffs, sht.n_coeffs), order="F")
    for m in range(-l_max, l_max + 1):
        c = (values * trig[m + l_max]) @ trig.T / n_phi
        matrix[sht.orders == m] = (sht.legendre[abs(m), abs(m):]
                                   @ (c[:, sht.orders + l_max] * weighted))
    c = values ** 2 @ (trig ** 2).T / n_phi
    col_norm = np.sum(c[:, sht.orders + l_max] * weighted * profiles, axis=0)
    return _checked_matrix(matrix, col_norm)


def _dense_top_singular_pair(matrix):
    """Largest singular value and its right singular vector, from the top
    eigenpair of the assembled normal matrix (LAPACK subset eigensolver);
    robust when the top singular value is degenerate, as for
    rotation-invariant data.  The fallback and test oracle of
    ``_top_singular_pair``."""
    n = matrix.shape[1]
    vals, vecs = eigh(matrix.T @ matrix, subset_by_index=[n - 1, n - 1],
                      driver="evr")
    return float(math.sqrt(max(vals[0], 0.0))), vecs[:, 0]


def _top_singular_pair(matrix, row_scale):
    """Largest singular value and its right singular vector of
    ``S A``, with A = ``matrix`` and S = diag(``row_scale``), or S = I when
    ``row_scale`` is None.

    ARPACK's Lanczos iteration finds the top eigenpair of the normal
    operator ``x -> A^T (S^2 (A x))`` without forming it or ``S A``, from a
    fixed seeded start vector, so reruns are deterministic.  Small
    matrices, and runs that do not converge within ``ARPACK_MAXITER``
    restarts, take the dense solve on ``S A``.
    """
    n = matrix.shape[1]
    if n > ARPACK_NCV:
        weights = 1.0 if row_scale is None else row_scale ** 2
        normal = LinearOperator(
            (n, n), matvec=lambda x: matrix.T @ (weights * (matrix @ x)),
            dtype=float)
        start = np.random.default_rng(0).standard_normal(n)
        try:
            vals, vecs = eigsh(normal, k=1, which="LA", v0=start,
                               ncv=ARPACK_NCV, tol=ARPACK_TOL,
                               maxiter=ARPACK_MAXITER)
            return float(math.sqrt(max(vals[0], 0.0))), vecs[:, 0]
        except ArpackNoConvergence:
            pass
    return _dense_top_singular_pair(
        matrix if row_scale is None else row_scale[:, None] * matrix)


def spectral_norm(matrix, row_scale):
    """Largest singular value of diag(``row_scale``) ``matrix`` (of
    ``matrix`` when ``row_scale`` is None); only the dense path forms it."""
    return _top_singular_pair(matrix, row_scale)[0]


def spectral_norm_with_mode(matrix):
    """Largest singular value and the index carrying the top singular vector.

    The index locates the dominant entry of the top right singular vector,
    i.e. the input slot where the operator-norm bound is attained.
    """
    sigma, vec = _top_singular_pair(matrix, None)
    return sigma, int(np.argmax(np.abs(vec)))


@dataclass
class ComparisonResult:
    """Both operator-norm gaps of the benchmark at a single (p, form) cell."""

    norm1: float
    norm2: float
    tail_residual: float
    argmax_degree: int


def _heat_factors(sht, p):
    """Per-slot factors of the heat flow at time 1/(4 pi p)."""
    ones = HarmonicCoeffs(sht.l_max, np.ones(sht.n_coeffs))
    return heat_apply(ones, 1.0 / (4.0 * math.pi * p)).values


def heat_side_matrix(mult, sht, p, tail_bound):
    """Heat side f -> eta * heat(f, 1/(4 pi p)) as a column scaling of the
    multiplication matrix: its per-slot factors and its tail residual.

    Smoothing acts first, so column j is factor j times column j of
    ``mult``, and its kept mass and quadrature norm are those of ``mult``
    times the factor squared; no matrix is formed.
    """
    factors = _heat_factors(sht, p)
    return factors, _tail(mult.column_kept * factors ** 2,
                          mult.column_norm_sq * factors ** 2, tail_bound)


def _zonal_q_blocks(smoother, sht):
    """Q's blocks for a zonal form, one per order m = 0..min(p, l_max), with
    their columns' quadrature norms.

    A zonal form has a diagonal Gram (up to the rounding of its density's
    longitude modes past 0), so Q maps the degrees l' of one order m to the
    degrees l of the same order, alike for cosine and sine:

        Q_m = Lambda_m diag(M_{k+m} M_k / R) (Lambda^rho_m)^T,

    with M the inverse Gram, R the rank ratio and Lambda_m, Lambda^rho_m the
    section-harmonic moment tables at the weights w and w * rho.  Column l'
    has output mode sum_k d_k a_{k+m} a_k with d = diag(...) Lambda^rho_m[l'],
    whose quadrature ``sum_i w_i (sum_k d_k a_{k+m} a_k)^2`` is its norm.
    Orders m > p have Q_m = 0.
    """
    ev = smoother.evaluator
    w_theta = sht.grid.w_theta
    m_diag = np.diag(ev.kernel_matrix).real
    grams = product_grams(ev.profiles, w_theta)
    blocks = []
    for m, (lam, lam_rho) in enumerate(zip(
            sht.section_moments(ev.profiles, w_theta),
            sht.section_moments(ev.profiles,
                                w_theta * smoother.form.density[:, 0]))):
        scale = m_diag[m:] * m_diag[:len(m_diag) - m] / smoother.rank_ratio
        d = scale[:, None] * lam_rho.T
        blocks.append((lam @ d, np.sum(d * (grams[m] @ d), axis=0)))
    return blocks


def _zonal_comparison(smoother, sht, tail_bound):
    """Both norms of a zonal form's cell from one block per longitude order.

    Order m's block of the difference is Q_m - Vol * E_m diag(h), with
    E_m = P^m diag(w eta) (P^m)^T the eta multiplication between the
    degrees of order m and h the heat factors of those degrees.  The
    cosine and sine columns of an order have the same block, so the norms
    are the largest over the blocks' dense SVDs, which are at most
    (l_max+1)-square, and the tails follow ``_tail`` over one copy of each
    block's columns.  Orders m > p have an eta-heat block only.
    """
    p = smoother.p
    w_theta = sht.grid.w_theta
    eta = smoother.form.eta[:, 0]
    heat_factors = _heat_factors(sht, p)
    q_blocks = _zonal_q_blocks(smoother, sht)
    q_kept, q_norm, h_kept, h_norm = [], [], [], []
    norm1 = norm2 = -1.0
    for m in range(sht.l_max + 1):
        legendre = sht.legendre[m, m:]
        degrees = np.arange(m, sht.l_max + 1)
        slots = coeff_index(degrees, 0)
        h = heat_factors[slots]
        h_block = (legendre * (w_theta * eta)) @ legendre.T * h
        h_kept.append(np.sum(h_block ** 2, axis=0))
        h_norm.append(legendre ** 2 @ (w_theta * eta ** 2) * h ** 2)
        diff = -smoother.form.volume * h_block
        if m < len(q_blocks):
            q_block, norm_sq = q_blocks[m]
            q_kept.append(np.sum(q_block ** 2, axis=0))
            q_norm.append(norm_sq)
            diff += q_block
        _, sigma, vt = np.linalg.svd(diff)
        if sigma[0] > norm1:
            norm1 = float(sigma[0])
            argmax_degree = int(degrees[np.argmax(np.abs(vt[0]))])
        lam_over_p = sht.eigenvalues[slots] / p
        norm2 = max(norm2, float(np.linalg.svd(lam_over_p[:, None] * diff,
                                               compute_uv=False)[0]))
    tail_q = _tail(np.concatenate(q_kept), np.concatenate(q_norm), tail_bound)
    tail_h = _tail(np.concatenate(h_kept), np.concatenate(h_norm), tail_bound)
    return ComparisonResult(norm1=norm1, norm2=norm2,
                            tail_residual=max(tail_q, tail_h),
                            argmax_degree=argmax_degree)


def _assembled_difference(smoother, sht, mult, tail_bound):
    """The difference ``Q - Vol * eta * heat`` on the whole harmonic basis,
    built in Q's buffer ``DIFF_COLUMNS`` columns at a time, and its tail
    residual."""
    q_mat = smoothing_operator_matrix(smoother, sht, tail_bound)
    factors, heat_tail = heat_side_matrix(mult, sht, smoother.p, tail_bound)
    diff = q_mat.matrix
    for start in range(0, sht.n_coeffs, DIFF_COLUMNS):
        cols = slice(start, start + DIFF_COLUMNS)
        diff[:, cols] -= smoother.form.volume * (mult.matrix[:, cols]
                                                 * factors[cols])
    return diff, max(q_mat.tail_residual, heat_tail)


def comparison_norms(p, form, sht, mult, tail_bound):
    """Operator norms of the two benchmark differences at one (p, form) cell.

    norm1 gauges ``Q - (Vol ratio) * eta * heat``; norm2 left-composes the
    difference with ``Laplacian / p``.  A zonal form takes one block per
    longitude order (``_zonal_comparison``) and ignores ``mult``; any other
    form assembles the difference from its eta multiplication matrix
    ``mult`` (p-independent, so a sweep builds it once; None builds it).
    """
    smoother = SmoothingOperator(bergman_evaluator(p, form, sht.grid))
    if form.is_zonal:
        return _zonal_comparison(smoother, sht, tail_bound)
    if mult is None:
        mult = fast_multiplication_matrix(form.eta, sht)
    diff, tail = _assembled_difference(smoother, sht, mult, tail_bound)
    norm1, mode = spectral_norm_with_mode(diff)
    norm2 = spectral_norm(diff, sht.eigenvalues / p)
    return ComparisonResult(norm1=norm1, norm2=norm2, tail_residual=tail,
                            argmax_degree=int(sht.degrees[mode]))


def rate_fit(p_values, norms):
    """Least-squares slope of log(norm) vs log(p) plus the bound constant.

    Returns ``(slope, c_hat)`` with ``c_hat = max_p p * norm``.  Requires at
    least four points and positive norms.
    """
    p_values = np.asarray(p_values, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if len(p_values) < 4:
        raise ConfigError("rate fit needs at least 4 values of p")
    if np.any(norms <= 0.0):
        raise ConfigError("rate fit requires positive norms")
    slope = float(np.polyfit(np.log(p_values), np.log(norms), 1)[0])
    c_hat = float(np.max(p_values * norms))
    return slope, c_hat


@dataclass
class FormReport:
    """Rate report of one volume form over the p grid."""

    form_id: str
    p_values: list
    norms1: list
    norms2: list
    tails: list
    argmax_degrees: list
    slope1: float = field(default=math.nan)
    slope2: float = field(default=math.nan)
    c_hat1: float = field(default=math.nan)
    c_hat2: float = field(default=math.nan)

    def finalize(self):
        self.slope1, self.c_hat1 = rate_fit(self.p_values, self.norms1)
        self.slope2, self.c_hat2 = rate_fit(self.p_values, self.norms2)
        return self

    def bounded_ratio(self, norms):
        scaled = np.asarray(self.p_values, dtype=float) * np.asarray(norms)
        return float(scaled.max() / np.median(scaled))


def sweep_form(form, p_values, sht, tail_bound):
    """Run the benchmark over a p grid for one form; reuses the eta matrix
    of a non-zonal form."""
    mult = None if form.is_zonal else fast_multiplication_matrix(form.eta, sht)
    report = FormReport(form_id=form.form_id, p_values=list(p_values),
                        norms1=[], norms2=[], tails=[], argmax_degrees=[])
    for p in p_values:
        cell = comparison_norms(p, form, sht, mult, tail_bound)
        report.norms1.append(cell.norm1)
        report.norms2.append(cell.norm2)
        report.tails.append(cell.tail_residual)
        report.argmax_degrees.append(cell.argmax_degree)
    return report.finalize()


def matrix_free_norm(p, form, sht):
    """Power-iteration estimate of norm1 without assembling matrices.

    The difference operator acts on grid functions; its adjoint for the
    metric-volume inner product follows from self-adjointness of both sides
    under the reference form: ``D*(g) = rho * D(eta * g)``.  Deterministic
    start vector; at most 300 steps, stopping once the estimate moves by at
    most 1e-12 relative; intended as a cross-check at small p.
    """
    grid = sht.grid
    evaluator = bergman_evaluator(p, form, grid)
    smoother = SmoothingOperator(evaluator)
    ratio = form.volume
    u_time = 1.0 / (4.0 * math.pi * p)

    def apply_diff(f):
        heat_part = sht.synthesize(heat_apply(sht.analyze(f), u_time))
        return smoother.apply(f) - ratio * form.eta * heat_part

    def apply_adjoint(g):
        return form.density * apply_diff(form.eta * g)

    weights = grid.node_weights
    u = sht.basis_function(1, 0) + 0.5 * sht.basis_function(2, 1) \
        + 0.25 * sht.basis_function(3, -2) + 1.0
    u /= math.sqrt(float(np.sum(weights * u * u)))
    sigma = 0.0
    for _ in range(300):
        du = apply_diff(u)
        new_sigma = math.sqrt(float(np.sum(weights * du * du)))
        v = apply_adjoint(du)
        norm_v = math.sqrt(float(np.sum(weights * v * v)))
        if norm_v == 0.0:
            return 0.0
        u = v / norm_v
        if abs(new_sigma - sigma) <= 1e-12 * max(new_sigma, 1.0):
            sigma = new_sigma
            break
        sigma = new_sigma
    return sigma
