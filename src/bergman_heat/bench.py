"""Operator-norm benchmark: smoothing operator vs damped heat flow.

Both sides of the comparison are matrices on the truncated real-harmonic
basis (columns are transforms of the operator applied to each basis
function).  The top singular value of the difference is a lower bound of the
true L2 operator norm; per-matrix tail residuals record how much column mass
escapes the truncation, normalized by the largest column so that
structurally-zero columns cannot poison the validity flag.

A cell's difference is a list of diagonal blocks, each on its set of
packed slots, and one helper reads both norms and the argmax degree off
them.  A zonal form's difference commutes with rotation about the pole, so
it splits into one block per longitude order, the same for cosine and sine;
those blocks are built directly from the section-harmonic moment tables.  A
form symmetric under phi -> 2 alpha - phi (``VolumeForm.mirror_axis``) keeps
the cosine and sine spans of the harmonic basis rotated by alpha apart, so
its difference is two real blocks, assembled in a section gauge where the
inverse Gram is real.  Any other form assembles one complex-arithmetic block
on the whole basis.  Both assembled routes build Q one longitude order of
columns at a time, and the eta multiplication as a product quadrature, one
order at a time.
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
# cell holds two of them live, eta and the difference (a mirror-symmetric
# form's cell about half of that, as a cosine and a sine block each); one Q
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

# largest imaginary part, relative to the largest modulus, of the inverse
# Gram and the density modes in the gauge of a form's mirror axis, whose
# real parts the mirror route keeps: rounding leaves at most 1.4e-16 on the
# benchmark's rotated forms, and a wrong axis leaves parts of order 1; the
# margin admits rounding amplified by a Gram condition up to about 1e6
MIRROR_IMAG_TOL = 1e-10


@dataclass
class OperatorMatrix:
    """Operator matrix on the harmonic basis rotated about the pole by
    ``rotation``, as diagonal blocks: (matrix, slots) pairs whose rows and
    columns are both the packed ``slots``, zero between blocks.  The kept
    and total column masses and the tail are those of the input basis."""

    blocks: list
    rotation: float
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


def _unrotated(masses, sht, rotation):
    """Per-slot column masses on the basis rotated by ``rotation`` as those
    of the input basis.

    For m > 0, Y_lm = c Y'_lm - s Y'_l,-m and Y_l,-m = s Y'_lm + c Y'_l,-m
    with (c, s) = (cos, sin)(m * rotation), and a block operator maps the
    two rotated functions into different blocks, whose images are
    orthogonal: each input mass is c^2 times its own slot's rotated mass
    plus s^2 times that of its partner (l, -m).
    """
    angle = np.abs(sht.orders) * rotation
    partner = np.arange(sht.n_coeffs) - 2 * sht.orders
    return np.cos(angle) ** 2 * masses + np.sin(angle) ** 2 * masses[partner]


def _checked_matrix(blocks, rotation, col_norm, sht, tail_bound=None):
    """Wrap blocks with their columns' kept mass and quadrature norms
    ``col_norm`` (per slot, on the rotated basis); raise if the tail is over
    bound (``_tail``)."""
    kept = np.zeros(sht.n_coeffs)
    for matrix, slots in blocks:
        kept[slots] = np.einsum("ij,ij->j", matrix, matrix)
    kept, col_norm = (_unrotated(x, sht, rotation) for x in (kept, col_norm))
    return OperatorMatrix(blocks, rotation, _tail(kept, col_norm, tail_bound),
                          kept, col_norm)


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
    return _checked_matrix([(matrix, np.arange(n))], 0.0, col_norm, sht)


def multiplication_matrix(values, sht):
    """Matrix of pointwise multiplication by a fixed grid function."""
    return operator_matrix(lambda f: values * f, sht)


def _spans(sht, axis):
    """Slot sets of an operator's diagonal blocks: the whole basis, or for a
    form with a mirror axis the cosine (m >= 0) and sine (m < 0) slots."""
    if axis is None:
        return [np.arange(sht.n_coeffs)]
    return [np.flatnonzero(sht.orders >= 0), np.flatnonzero(sht.orders < 0)]


def _real_part(values, what):
    """Real part of an array whose imaginary part must be at rounding
    level (``MIRROR_IMAG_TOL``)."""
    if np.abs(values.imag).max() > MIRROR_IMAG_TOL * np.abs(values).max():
        raise InvalidRunError(f"{what} not real in the mirror gauge; the "
                              "form's mirror axis does not hold on the grid")
    return np.ascontiguousarray(values.real)


def _gauged(evaluator, axis):
    """Inverse Gram and density mode table in the section gauge
    s_k -> exp(-i k axis) s_k, both real for a form symmetric under
    phi -> 2 axis - phi.

    There the inverse Gram is exp(i (j-k) axis) M[j, k], and the density's
    mode d is exp(i d axis) times the grid's, d taken in -n_phi/2..n_phi/2:
    the modes of the density rotated onto its axis, even in d.  Products of
    the harmonics rotated by ``axis`` with the density have the unrotated
    harmonics' mode factors against this table.
    """
    k = np.arange(evaluator.p + 1)
    kernel_matrix = _real_part(
        evaluator.kernel_matrix * np.exp(1j * axis * (k[:, None] - k)),
        "inverse Gram")
    n_phi = evaluator.grid.n_phi
    d = np.arange(n_phi // 2 + 1)
    half = _real_part(evaluator.form.density_modes[:, d]
                      * np.exp(1j * axis * d), "density modes")
    wrapped = np.arange(n_phi)
    return kernel_matrix, half[:, np.minimum(wrapped, n_phi - wrapped)]


def smoothing_operator_matrix(smoother, sht, tail_bound):
    """Batched equivalent of ``operator_matrix(smoother.apply, sht)``, as
    blocks (``OperatorMatrix``).

    The columns of one longitude order |m|, cosine and sine together, go
    through ``smoother.coefficient_matrices`` as one batch, so the
    per-column small matrix products run as batched BLAS calls, and their
    section coefficient matrices A = M T M / R go straight to harmonic
    coefficients and quadrature norms through the section-harmonic moment
    tables (``sht.analyze_diagonals``): no output longitude modes and no
    per-column grids.  The batch arrays are allocated once, for the widest
    order, and reused.  A form with a mirror axis is built on the harmonics
    rotated onto it, in real arithmetic from the gauged inverse Gram and
    density modes (``_gauged``): cosine columns give real symmetric A with
    cosine outputs, sine columns i times real antisymmetric A with sine
    outputs.  Matches the generic path to roundoff.
    """
    if sht.grid is not smoother.grid:
        raise ConfigError("transform and smoother live on different grids")
    axis = smoother.form.mirror_axis
    profiles = smoother.evaluator.profiles
    w_theta = sht.grid.w_theta
    moments = sht.section_moments(profiles, w_theta)
    grams = product_grams(profiles, w_theta)
    if axis is None:
        kernel_matrix, table = None, smoother.form.density_modes
    else:
        kernel_matrix, table = _gauged(smoother.evaluator, axis)
    spans = _spans(sht, axis)
    position = np.zeros(sht.n_coeffs, dtype=int)
    for span in spans:
        position[span] = np.arange(len(span))
    # one order's columns sit 2l+1 apart; column-major storage keeps each
    # column write contiguous
    blocks = [np.zeros((len(span), len(span)), order="F") for span in spans]
    col_norm = np.zeros(sht.n_coeffs)
    # one order's batch and one work buffer, sized for the widest order and
    # kept across the orders; the work buffer holds the grid products, then
    # the half product M T, then the projections, each dead before the next
    # (n_theta >= p + 1 by the Gram's exactness check)
    size, width = smoother.p + 1, max(2 * sht.l_max, 1)
    batch = np.empty(width * size * size, table.dtype)
    work = np.empty(width * max(size * sht.grid.n_theta,
                                (sht.l_max + 1) ** 2), table.dtype)
    for k in range(sht.l_max + 1):
        slots = np.flatnonzero(np.abs(sht.orders) == k)
        # the batch alternates sine (-k) and cosine (+k) columns; order 0
        # has cosine columns alone, and no sine block to fill
        if axis is None:
            parity, columns = None, [slice(None)]
        else:
            parity = np.where(sht.orders[slots] < 0, -1.0, 1.0)
            columns = ([slice(1, None, 2), slice(0, None, 2)] if k
                       else [slice(None)])
        # modes 0..p fit the grid: the Gram exactness check forces
        # n_phi >= 2p + 1
        A = smoother.coefficient_matrices(
            sht.order_products(table, k, size, work), kernel_matrix, parity,
            (batch, work))
        proj_k, col_norm[slots] = sht.analyze_diagonals(A, moments, grams,
                                                        work)
        for block, span, cols in zip(blocks, spans, columns):
            block[:, position[slots[cols]]] = sht.packed(proj_k[:, :, cols],
                                                         span)
    return _checked_matrix(list(zip(blocks, spans)),
                           0.0 if axis is None else axis, col_norm, sht,
                           tail_bound)


def fast_multiplication_matrix(form, sht):
    """Matrix of multiplication by the form's eta as a product quadrature,
    over longitude and then over colatitude, as blocks (``OperatorMatrix``).

    Entry ((l, m), (l', m')) is sum_i w_i P_l^|m| P_l'^|m'| c_m[i, m'], with
    c_m[i, m'] = (1/n_phi) sum_j f trig_m trig_m' at (theta_i, phi_j): the
    grid quadrature of ``multiplication_matrix`` regrouped, so it matches
    that oracle to roundoff.  The column norms come the same way from
    f^2 trig_m'^2.  A form with a mirror axis takes the harmonics rotated
    onto it, whose cosine and sine spans eta keeps apart: two real blocks,
    each order's rows written as its columns, which they equal by symmetry.
    Column-major, like Q, for the difference's column blocks.
    """
    values, axis = form.eta, form.mirror_axis
    rotation = 0.0 if axis is None else axis
    trig, n_phi, l_max = sht.rotated_trig(rotation), sht.grid.n_phi, sht.l_max
    profiles = sht.slot_profiles
    weighted = sht.grid.w_theta[:, None] * profiles
    blocks = []
    for span in _spans(sht, axis):
        block = np.zeros((len(span), len(span)), order="F")
        orders, span_weighted = sht.orders[span], weighted[:, span]
        for m in np.unique(orders):
            c = (values * trig[m + l_max]) @ trig.T / n_phi
            rows = orders == m
            chunk = (sht.legendre[abs(m), abs(m):]
                     @ (c[:, orders + l_max] * span_weighted))
            # a mirror block is symmetric, so order m's rows go in as its
            # columns, contiguously; the complex block keeps its row writes
            # and with them its bytes
            if axis is None:
                block[rows] = chunk
            else:
                block[:, rows] = chunk.T
        blocks.append((block, span))
    c = values ** 2 @ (trig ** 2).T / n_phi
    col_norm = np.sum(c[:, sht.orders + l_max] * weighted * profiles, axis=0)
    return _checked_matrix(blocks, rotation, col_norm, sht)


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


def spectral_norm_with_mode(matrix, reach):
    """Largest singular value and the index carrying the top singular vector.

    The index locates the dominant entry of the top right singular vector,
    each entry weighted by its column's ``reach`` (``_cell_result``), i.e.
    the input slot where the operator-norm bound is attained.
    """
    sigma, vec = _top_singular_pair(matrix, None)
    return sigma, int(np.argmax(reach * np.abs(vec)))


def _dense_norm_with_mode(block, reach):
    """``spectral_norm_with_mode`` of a small block, from its dense SVD."""
    _, sigma, vt = np.linalg.svd(block)
    return float(sigma[0]), int(np.argmax(reach * np.abs(vt[0])))


def _dense_norm(block, row_scale):
    """``spectral_norm`` of a small block, from its dense SVD."""
    return float(np.linalg.svd(row_scale[:, None] * block,
                               compute_uv=False)[0])


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
    times the factor squared; no matrix is formed.  A factor depends on the
    degree alone, which a rotation about the pole keeps, so this holds on
    the rotated basis of ``mult``'s blocks too.
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


def _zonal_differences(smoother, sht, tail_bound):
    """A zonal form's difference as one block per longitude order, and its
    tail residual.

    Order m's block is Q_m - Vol * E_m diag(h), with E_m =
    P^m diag(w eta) (P^m)^T the eta multiplication between the degrees of
    order m and h the heat factors of those degrees.  The cosine and sine
    columns of an order have the same block, so one copy, on the cosine
    slots, stands for both; the blocks are at most (l_max+1)-square, and
    the tails follow ``_tail`` over one copy of each block's columns.
    Orders m > p have an eta-heat block only.
    """
    p = smoother.p
    w_theta = sht.grid.w_theta
    eta = smoother.form.eta[:, 0]
    heat_factors = _heat_factors(sht, p)
    q_blocks = _zonal_q_blocks(smoother, sht)
    q_kept, q_norm, h_kept, h_norm = [], [], [], []
    blocks = []
    for m in range(sht.l_max + 1):
        legendre = sht.legendre[m, m:]
        slots = coeff_index(np.arange(m, sht.l_max + 1), m)
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
        blocks.append((diff, slots))
    tail_q = _tail(np.concatenate(q_kept), np.concatenate(q_norm), tail_bound)
    tail_h = _tail(np.concatenate(h_kept), np.concatenate(h_norm), tail_bound)
    return blocks, max(tail_q, tail_h)


def _assembled_difference(smoother, sht, mult, tail_bound):
    """The difference ``Q - Vol * eta * heat`` as blocks built in Q's
    buffers ``DIFF_COLUMNS`` columns at a time, the rotation of their basis
    and the tail residual; ``mult`` holds eta's blocks on the same slots."""
    q_mat = smoothing_operator_matrix(smoother, sht, tail_bound)
    factors, heat_tail = heat_side_matrix(mult, sht, smoother.p, tail_bound)
    for (diff, slots), (eta, _) in zip(q_mat.blocks, mult.blocks):
        scale = factors[slots]
        for start in range(0, len(slots), DIFF_COLUMNS):
            cols = slice(start, start + DIFF_COLUMNS)
            diff[:, cols] -= smoother.form.volume * (eta[:, cols]
                                                     * scale[cols])
    return q_mat.blocks, q_mat.rotation, max(q_mat.tail_residual, heat_tail)


def _cell_result(blocks, rotation, tail, p, sht, solves):
    """Both norms and the argmax degree of a cell from its difference's
    (block, slots) pairs on the basis rotated by ``rotation``.

    The norms are the largest over the blocks, norm2's from the rows scaled
    by lambda / p; ``solves`` gives the norm1 solve with its mode and the
    norm2 solve.  Mapped back to the input basis, a rotated basis function
    of slot (l, m) spreads over the slots (l, +-m), both of degree l, with
    weights |cos(m rotation)| and |sin(m rotation)|: the larger is the
    column's reach, and the winning block's top singular vector, weighted
    by it, peaks at the argmax degree of the vector in the input basis.
    """
    norm_with_mode, norm = solves
    norm1 = norm2 = -1.0
    for diff, slots in blocks:
        angle = np.abs(sht.orders[slots]) * rotation
        reach = np.maximum(np.abs(np.cos(angle)), np.abs(np.sin(angle)))
        sigma, col = norm_with_mode(diff, reach)
        if sigma > norm1:
            norm1, argmax_degree = sigma, int(sht.degrees[slots[col]])
        norm2 = max(norm2, norm(diff, sht.eigenvalues[slots] / p))
    return ComparisonResult(norm1=norm1, norm2=norm2, tail_residual=tail,
                            argmax_degree=argmax_degree)


def comparison_norms(p, form, sht, mult, tail_bound):
    """Operator norms of the two benchmark differences at one (p, form) cell.

    norm1 gauges ``Q - (Vol ratio) * eta * heat``; norm2 left-composes the
    difference with ``Laplacian / p``.  A zonal form takes one block per
    longitude order with dense solves (``_zonal_differences``) and ignores
    ``mult``; any other form assembles the difference's blocks, two for a
    form with a mirror axis and one otherwise, from its eta multiplication
    matrix ``mult`` (p-independent, so a sweep builds it once; None builds
    it), with ARPACK solves.
    """
    smoother = SmoothingOperator(bergman_evaluator(p, form, sht.grid))
    if form.is_zonal:
        blocks, tail = _zonal_differences(smoother, sht, tail_bound)
        return _cell_result(blocks, 0.0, tail, p, sht,
                            (_dense_norm_with_mode, _dense_norm))
    if mult is None:
        mult = fast_multiplication_matrix(form, sht)
    blocks, rotation, tail = _assembled_difference(smoother, sht, mult,
                                                   tail_bound)
    return _cell_result(blocks, rotation, tail, p, sht,
                        (spectral_norm_with_mode, spectral_norm))


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
    mult = None if form.is_zonal else fast_multiplication_matrix(form, sht)
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
