"""Operator-norm benchmark: smoothing operator vs damped heat flow.

Both sides of the comparison are matrices on the truncated real-harmonic
basis (columns are transforms of the operator applied to each basis
function).  The top singular value of the difference is a lower bound of the
true L2 operator norm; per-matrix tail residuals record how much column mass
escapes the truncation, normalized by the largest column so that
structurally-zero columns cannot poison the validity flag.

Every cell takes one pipeline: Q and eta as diagonal blocks, each on its
sets of packed slots (``_spans``, the one layout rule), the difference built
in Q's blocks, and one call per norm over them, whose solver the block's
width picks.  A zonal form's operators commute with rotation about the
pole, so they split into one block per longitude order, one for cosine and
sine alike; only Q's blocks take a zonal formula, straight from the
section-harmonic moment tables.  A form symmetric under phi -> -phi
(``VolumeForm.is_mirror_symmetric``) keeps the cosine and sine spans apart,
so its difference is two real blocks, assembled where the inverse Gram is
real; one also symmetric under the equator flip theta -> pi - theta
(``VolumeForm.is_flip_symmetric``) keeps the slots of even and odd
l + |m| apart as well, in four real blocks.  Any other mirror plane through
the pole, or the equator of a flip-symmetric form, is carried onto the
meridian phi = 0 by a turn about the pole or a quarter turn, which a sweep
chooses and takes once, running every cell on the turned form
(``_turned``).  The norms do not see the turn; the argmax degree is read in
the input basis, and the tails over the turned basis's columns (truncation
at ``l_max`` does not see the turn, the largest single column can).  Any
other form assembles one complex-arithmetic block on the whole basis.  The
assembled Q is built one longitude order of columns at a time, from the
order's grid products in factored form (the density's node modes times the
order's Legendre rows), and every form's eta multiplication as a product
quadrature, one order at a time.  A cell's two norms run on two lanes
(``in_order``, which identities' passes share): the calling thread and,
where the process may use two cores, one worker.
"""

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bergman import SmoothingOperator
from .errors import ConfigError, InvalidRunError, count_text
from .fourier import product_grams, profile_products
from .geometry import VolumeForm, integrate, is_zonal
from .heat import coeff_index, pole_turn, quarter_turn
from .sections import bergman_evaluator

# largest accepted sweep with a non-zonal form, checked before any table is
# built: one operator matrix on the harmonic basis holds (l_max+1)^4 doubles
# (200 MB at the limit; the default l_max 46 needs 4.9e6), and a non-zonal
# cell holds two of them live, eta and the difference (a mirror cell, turned
# or not, about half of that, as two blocks each, and a mirror cell with
# the equator flip a quarter, as four); one Q assembly costs about
# (p+1)^3 (l_max+1)^2 flops (4.7e9 at the default p = 128 on 152x304,
# which took 0.93-1.11 s for a mirror-symmetric form in real arithmetic and
# 2.6-2.8 s for a form with no mirror plane in complex arithmetic, five
# runs each at one BLAS thread on a 2-core Xeon)
MAX_MATRIX_ENTRIES = 25 * 10 ** 6
MAX_Q_FLOPS = 10 ** 11

# Lanczos settings of the top-eigenpair solve (``_lanczos_top_pair``): the
# relative Ritz residual tolerance (ARPACK's test, at the tolerance the
# ARPACK solve it replaced ran at) and the step bound.  The metric form's
# top singular value is a (2l+1)-fold cluster split at rounding level,
# which the tolerance treats as one eigenvalue; the step bound keeps a
# solve that cannot converge short before it takes the dense path.  The
# Krylov basis starts at ``LANCZOS_ROWS`` rows and doubles when full: the
# benchmark's converge solves take 8 to 36 steps.
LANCZOS_TOL = 1e-10
LANCZOS_STEPS = 300
LANCZOS_ROWS = 32

# widest block whose top singular pair comes from the dense solve; wider
# ones take the Lanczos solve.  A random square block's dense solve took
# 0.36 ms against the Lanczos solve's 2.3 ms at 64 columns, and 2.3 ms
# against 4.1 ms at 128 (1 BLAS thread, 2 cores).  A zonal form's order
# blocks have at most l_max + 1 columns, the other routes' blocks hundreds
# (at least 529 at l_max 46).
DENSE_COLUMNS = 64

# columns per in-place step of the difference (an n_coeffs x 256 temporary)
DIFF_COLUMNS = 256

# largest sine coefficient, relative to the largest coefficient, that a map
# turned onto the meridian phi = 0 may keep and drop (``_turned``).  A
# mirror-symmetric map turned by its own axis keeps them at rounding level:
# at most 4.6e-16 relative for the benchmark's forms turned about the pole
# and 2.4e-17 for tilted-mirror's quarter turn, unrotated and at twenty
# seeded angles, and 1.7e-14 for a single flip-symmetric column of degree
# 150.  Dropping a sine term of relative size eps moves the converge norms
# by about eps, so at most by the 1e-12 to which the mirror route is held
# against the complex one.
MIRROR_TOL = 1e-12


@dataclass
class OperatorMatrix:
    """Operator matrix on the harmonic basis as diagonal blocks:
    (matrix, slots) pairs, ``slots`` of shape (n_sets, size), whose matrix
    stands on each row of packed slots as both its rows and its columns,
    zero between blocks; with the columns' kept and total masses per slot
    and their tail."""

    blocks: list
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
            f"p {count_text(p_max)} at l_max {l_max} needs about "
            f"{count_text(flops)} flops per Q assembly, over the limit "
            f"{MAX_Q_FLOPS:.1e}; lower p or l_max")


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


def _checked_matrix(blocks, col_norm, sht, tail_bound=None):
    """Wrap blocks with their columns' kept mass, on every set of their
    slots, and quadrature norms ``col_norm`` (per slot); raise if the tail
    is over bound (``_tail``)."""
    kept = np.zeros(sht.n_coeffs)
    for matrix, slots in blocks:
        kept[slots] = np.einsum("ij,ij->j", matrix, matrix)
    return OperatorMatrix(blocks, _tail(kept, col_norm, tail_bound), kept,
                          col_norm)


def operator_matrix(op, sht):
    """Assemble columns ``analyze(op(Y_lm))`` with Parseval tail tracking.

    ``op`` maps real grid values to real grid values.
    """
    n = sht.n_coeffs
    matrix, col_norm = np.zeros((n, n)), np.zeros(n)
    for idx in range(n):
        values = op(sht.basis_function(sht.degrees[idx], sht.orders[idx]))
        matrix[:, idx] = sht.analyze(values)
        col_norm[idx] = integrate(np.square(values), sht.grid)
    return _checked_matrix([(matrix, np.arange(n)[None])], col_norm, sht)


def multiplication_matrix(values, sht):
    """Matrix of pointwise multiplication by a fixed grid function."""
    return operator_matrix(lambda f: values * f, sht)


def _spans(sht, form):
    """Slot sets of an operator's diagonal blocks, one array of shape
    (n_sets, size) per block, its rows alike in degree and |m| slot by
    slot.  A zonal form has one block per order m, on the cosine (l, m)
    and, for m > 0, the sine (l, -m) slots of l = m..l_max.  Any other form
    has one set per block: the whole basis, split for a mirror-symmetric
    form into the cosine (m >= 0) and sine (m < 0) slots, and for one also
    symmetric under the equator flip into the slots of even and odd
    l + |m| as well, which the flip keeps apart as it does the density's."""
    if form.is_zonal:
        return [coeff_index(np.arange(m, sht.l_max + 1),
                            np.array([m, -m] if m else [0])[:, None])
                for m in range(sht.l_max + 1)]
    key = np.zeros(sht.n_coeffs, dtype=int)
    if form.is_mirror_symmetric:
        key += sht.orders < 0
        if form.is_flip_symmetric:
            key += 2 * ((sht.degrees + sht.orders) % 2)
    return [np.flatnonzero(key == k)[None] for k in np.unique(key)]


def smoothing_operator_matrix(smoother, sht, tail_bound):
    """Batched equivalent of ``operator_matrix(smoother.apply, sht)``, as
    blocks (``OperatorMatrix``): a zonal form's closed-form order blocks
    (``_zonal_q_matrix``), any other form's assembled blocks
    (``_assembled_q_matrix``)."""
    if sht.grid is not smoother.grid:
        raise ConfigError("transform and smoother live on different grids")
    if smoother.form.is_zonal:
        return _zonal_q_matrix(smoother, sht, tail_bound)
    return _assembled_q_matrix(smoother, sht, tail_bound)


def _assembled_q_matrix(smoother, sht, tail_bound):
    """Q's blocks on the form's spans (``_spans``), assembled.

    The columns of one longitude order |m|, cosine and sine together, go
    through ``smoother.coefficient_matrices`` as one batch, so the
    per-column small matrix products run as batched BLAS calls, and their
    section coefficient matrices A = M T M / R go straight to harmonic
    coefficients and quadrature norms through the section-harmonic moment
    tables (``sht.analyze_diagonals``, which reads A's lower diagonals in
    place): no output longitude modes and no per-column grids.  The batch
    arrays are allocated once, for the widest batch, and reused, and the
    section-profile products are made once (``profile_products``).  A
    mirror-symmetric form is built in real arithmetic from its real inverse
    Gram and density modes (``VolumeForm.density_modes``): cosine columns
    give real symmetric A with cosine outputs, sine columns i times real
    antisymmetric A with sine outputs.  Matches the generic path to
    roundoff.
    """
    table = smoother.form.density_modes
    mirror = np.isrealobj(table)
    w_theta = sht.grid.w_theta
    products = profile_products(smoother.evaluator.profiles)
    moments = sht.section_moments(products, w_theta)
    grams = product_grams(products, w_theta)
    size = smoother.p + 1
    spans = _spans(sht, smoother.form)
    block_of, position = np.zeros((2, sht.n_coeffs), dtype=int)
    for b, span in enumerate(spans):
        block_of[span], position[span] = b, np.arange(span.shape[1])
    # one order's columns sit 2l+1 apart; column-major storage keeps each
    # column write contiguous
    blocks = [np.zeros((span.shape[1],) * 2, order="F") for span in spans]
    col_norm = np.zeros(sht.n_coeffs)
    # one batch and one work buffer, sized for the widest batch (order 1,
    # or 0 at l_max 0) and kept across the batches; the work buffer holds the
    # half product M T, then the projections, the first dead before the
    # second is written.  A batch's grid products stay factored, the order's
    # node modes times its Legendre rows (``sht.order_modes``), and are
    # formed a diagonal at a time inside ``fourier.moment_matrices``
    width = max(sht.l_max + 1, 2 * sht.l_max)
    batch = np.empty(width * size * size, table.dtype)
    work = np.empty(width * max(size * size, (sht.l_max + 1) ** 2),
                    table.dtype)
    for k in range(sht.l_max + 1):
        degrees = np.arange(k, sht.l_max + 1)
        # the batch alternates sine (-k) and cosine (+k) columns, degree by
        # degree; order 0 has cosine columns alone
        orders = np.array([-k, k] if k else [0])
        slots = coeff_index(degrees[:, None], orders).ravel()
        parity = (np.where(sht.orders[slots] < 0, -1.0, 1.0) if mirror
                  else None)
        # modes 0..p fit the grid: the Gram exactness check forces
        # n_phi >= 2p + 1
        A = smoother.coefficient_matrices(
            sht.order_modes(table, k, size), sht.legendre[k, degrees].T,
            parity, (batch, work), products)
        proj_k, col_norm[slots] = sht.analyze_diagonals(A, moments, grams,
                                                        work)
        for b in np.unique(block_of[slots]):
            cols = np.flatnonzero(block_of[slots] == b)
            # a block holds one sign of the order, and a flip block one
            # parity of l as well, so its columns are evenly spaced in the
            # batch, and a slice views their projections without a copy
            step = cols[1] - cols[0] if len(cols) > 1 else 1
            blocks[b][:, position[slots[cols]]] = sht.packed(
                proj_k[:, :, cols[0]:cols[-1] + 1:step], spans[b][0])
    return _checked_matrix(list(zip(blocks, spans)), col_norm, sht,
                           tail_bound)


def _zonal_q_matrix(smoother, sht, tail_bound):
    """Q's blocks for a zonal form, one per order m = 0..l_max on its cosine
    and sine slots (``_spans``), with their columns' quadrature norms.

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
    w_theta = sht.grid.w_theta
    m_diag = np.diag(smoother.evaluator.kernel_matrix)
    products = profile_products(smoother.evaluator.profiles)
    grams = product_grams(products, w_theta)
    spans = _spans(sht, smoother.form)
    blocks, col_norm = [], np.zeros(sht.n_coeffs)
    for m, (lam, lam_rho) in enumerate(zip(
            sht.section_moments(products, w_theta),
            sht.section_moments(products,
                                w_theta * smoother.form.density[:, 0]))):
        scale = m_diag[m:] * m_diag[:len(m_diag) - m] / smoother.rank_ratio
        d = scale[:, None] * lam_rho.T
        blocks.append((lam @ d, spans[m]))
        col_norm[spans[m]] = np.sum(d * (grams[m] @ d), axis=0)
    blocks += [(np.zeros((slots.shape[1],) * 2), slots)
               for slots in spans[len(blocks):]]
    return _checked_matrix(blocks, col_norm, sht, tail_bound)


def fast_multiplication_matrix(form, sht):
    """Matrix of multiplication by the form's eta as a product quadrature,
    as blocks (``OperatorMatrix``) on the form's slot sets (``_spans``),
    over longitude and then over colatitude.

    Entry ((l, m), (l', m')) is sum_i w_i P_l^|m| P_l'^|m'| c_m[i, m'], with
    c_m[i, m'] = (1/n_phi) sum_j f trig_m trig_m' at (theta_i, phi_j): the
    grid quadrature of ``multiplication_matrix`` regrouped, so it matches
    that oracle to roundoff.  The column norms come the same way from
    f^2 trig_m'^2.  A block is built on the first of its slot sets, which
    stands for the others (a zonal form's sine slots), and c_m on the
    orders m' of its slots alone.  Eta is symmetric, so each order's rows
    go in as its columns, contiguously in the column-major blocks that the
    difference's column steps read.
    """
    values, trig = form.eta, sht.trig
    n_phi, l_max = sht.grid.n_phi, sht.l_max
    profiles = sht.slot_profiles
    weighted = sht.grid.w_theta[:, None] * profiles
    blocks = []
    for slots in _spans(sht, form):
        span = slots[0]
        block = np.zeros((len(span), len(span)), order="F")
        present, order_of = np.unique(sht.orders[span], return_inverse=True)
        present_trig, span_weighted = trig[present + l_max], weighted[:, span]
        for i, m in enumerate(present):
            c = (values * trig[m + l_max]) @ present_trig.T / n_phi
            rows = order_of == i
            chunk = (sht.legendre[abs(m), sht.degrees[span[rows]]]
                     @ (c[:, order_of] * span_weighted))
            block[:, rows] = chunk.T
        blocks.append((block, slots))
    c = values ** 2 @ (trig ** 2).T / n_phi
    col_norm = np.sum(c[:, sht.orders + l_max] * weighted * profiles, axis=0)
    return _checked_matrix(blocks, col_norm, sht)


def _dense_top_singular_pair(matrix):
    """Largest singular value and its right singular vector, from the top
    eigenpair of the assembled normal matrix (LAPACK eigensolver); robust
    when the top singular value is degenerate, as for rotation-invariant
    data.  The narrow-block solve, fallback and test oracle of
    ``_top_singular_pair``."""
    vals, vecs = np.linalg.eigh(matrix.T @ matrix)
    return float(math.sqrt(max(vals[-1], 0.0))), vecs[:, -1]


def _lanczos_top_pair(normal, n):
    """Top eigenpair of the symmetric positive semidefinite operator
    ``normal`` on R^n by Lanczos with full reorthogonalization, from a
    fixed seeded start vector, so reruns are deterministic; None when the
    Ritz residual bound beta_k |s_k| of the top Ritz pair has not met
    ``LANCZOS_TOL`` times the Ritz value (ARPACK's test) within
    ``LANCZOS_STEPS`` steps.  No restart: every step widens the Krylov
    space, which any restarted space of as many products lies in."""
    steps = min(n, LANCZOS_STEPS)
    basis = np.empty((min(steps, LANCZOS_ROWS), n))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    floor = np.finfo(float).eps ** (2.0 / 3.0)
    for k in range(steps):
        if k == len(basis):
            grown = np.empty((min(2 * k, steps), n))
            grown[:k] = basis
            basis = grown
        basis[k] = q
        w = normal(q)
        # classical Gram-Schmidt twice against every earlier vector
        for _ in range(2):
            h = basis[:k + 1] @ w
            w -= h @ basis[:k + 1]
            alpha[k] += h[k]
        beta[k] = np.linalg.norm(w)
        theta, s = np.linalg.eigh(np.diag(alpha[:k + 1])
                                  + np.diag(beta[:k], 1)
                                  + np.diag(beta[:k], -1))
        if beta[k] * abs(s[-1, -1]) <= LANCZOS_TOL * max(floor,
                                                         abs(theta[-1])):
            return float(math.sqrt(max(theta[-1], 0.0))), (
                s[:, -1] @ basis[:k + 1])
        q = w / beta[k]
    return None


def _top_singular_pair(matrix, row_scale):
    """Largest singular value and its right singular vector of
    ``S A``, with A = ``matrix`` and S = diag(``row_scale``), or S = I when
    ``row_scale`` is None.

    A Lanczos solve (``_lanczos_top_pair``) finds the top eigenpair of the
    normal operator ``x -> A^T (S^2 (A x))`` without forming it or ``S A``.
    Matrices of at most ``DENSE_COLUMNS`` columns, and solves that do not
    converge, take the dense solve on ``S A``.
    """
    n = matrix.shape[1]
    if n > DENSE_COLUMNS:
        weights = 1.0 if row_scale is None else row_scale ** 2
        pair = _lanczos_top_pair(
            lambda x: matrix.T @ (weights * (matrix @ x)), n)
        if pair is not None:
            return pair
    return _dense_top_singular_pair(
        matrix if row_scale is None else row_scale[:, None] * matrix)


def spectral_norm_with_mode(blocks, sht, turn):
    """norm1 of a cell, the largest singular value over its difference's
    (block, slots) pairs (``_top_singular_pair``), and the argmax degree of
    the winning block's top singular vector in the input basis.  A block's
    slot sets share their degrees and |m|, so the first stands for all.  A
    turned form's cell takes the vector back by the turn's D_l^T
    (``turn``)."""
    norm1 = -1.0
    for diff, slots in blocks:
        sigma, vec = _top_singular_pair(diff, None)
        if sigma > norm1:
            norm1, back = sigma, np.zeros(sht.n_coeffs)
            back[slots[0]] = vec
            if turn is not None:
                back = np.concatenate([D.T @ back[l * l:(l + 1) ** 2]
                                       for l, D in enumerate(turn)])
            argmax_degree = int(sht.degrees[np.argmax(np.abs(back))])
    return norm1, argmax_degree


def spectral_norm(blocks, p, sht):
    """norm2 of a cell: the largest singular value over its difference's
    blocks with their rows scaled by lambda / p (``_top_singular_pair``)."""
    norm2 = -1.0
    for diff, slots in blocks:
        sigma, _ = _top_singular_pair(diff, sht.eigenvalues[slots[0]] / p)
        norm2 = max(norm2, sigma)
    return norm2


@dataclass
class ComparisonResult:
    """Both operator-norm gaps of the benchmark at a single (p, form) cell."""

    norm1: float
    norm2: float
    tail_residual: float
    argmax_degree: int


def heat_side_matrix(mult, sht, p, tail_bound):
    """Heat side f -> eta * heat(f, 1/(4 pi p)) as a column scaling of the
    multiplication matrix: its per-slot factors and its tail residual.

    Smoothing acts first, so column j is factor j times column j of
    ``mult``, and its kept mass and quadrature norm are those of ``mult``
    times the factor squared; no matrix is formed.
    """
    factors = sht.heat_factors(1.0 / (4.0 * math.pi * p))
    return factors, _tail(mult.column_kept * factors ** 2,
                          mult.column_norm_sq * factors ** 2, tail_bound)


def _assembled_difference(q_mat, mult, sht, p, volume, tail_bound):
    """Q's blocks ``q_mat`` made the difference ``Q - Vol * eta * heat`` in
    place, ``DIFF_COLUMNS`` columns at a time, and the cell's tail residual;
    ``mult`` holds eta's blocks on the same slots."""
    factors, heat_tail = heat_side_matrix(mult, sht, p, tail_bound)
    for (diff, slots), (eta, _) in zip(q_mat.blocks, mult.blocks):
        scale = factors[slots[0]]
        for start in range(0, len(scale), DIFF_COLUMNS):
            cols = slice(start, start + DIFF_COLUMNS)
            diff[:, cols] -= volume * (eta[:, cols] * scale[cols])
    return q_mat.blocks, max(q_mat.tail_residual, heat_tail)


def in_order(calls):
    """The results of the independent calls ``calls``, in input order.

    Where the process may run on two or more cores, the even-numbered calls
    run on this thread and the odd-numbered ones on one worker thread:
    numpy's elementwise loops and BLAS calls release the GIL, and a second
    worker would only add a memory arena.  A call that raises ends the run
    with the first failure in input order, as a sequential loop would."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        return [call() for call in calls]
    worker = ThreadPoolExecutor(1)
    try:
        futures = {i: worker.submit(call)
                   for i, call in enumerate(calls) if i % 2}
        here, stop, error = {}, len(calls), None
        for i in range(0, len(calls), 2):
            try:
                here[i] = calls[i]()
            except Exception as exc:
                stop, error = i, exc
                break
        # a failure on the worker before this thread's first one comes first
        results = [futures[i].result() if i % 2 else here[i]
                   for i in range(stop)]
        if error is not None:
            raise error
        return results
    finally:
        worker.shutdown(cancel_futures=True)


def comparison_norms(p, form, sht, mult, tail_bound, turn):
    """Operator norms of the two benchmark differences at one (p, form) cell.

    norm1 gauges ``Q - (Vol ratio) * eta * heat``; norm2 left-composes the
    difference with ``Laplacian / p``.  Every form builds Q's blocks
    (``smoothing_operator_matrix``) and subtracts the heat side from them
    (``_assembled_difference``) with eta's blocks ``mult`` on the same slots
    (``fast_multiplication_matrix``, p-independent, so a sweep builds them
    once); each norm is one call over the cell's blocks, the two on two
    lanes (``in_order``): each reads the blocks only and starts from its
    own seeded vector, so the norms do not depend on the lanes.  ``turn``:
    the turn's matrices for a turned form (``_turned``), else None.
    """
    smoother = SmoothingOperator(bergman_evaluator(p, form, sht.grid))
    q_mat = smoothing_operator_matrix(smoother, sht, tail_bound)
    blocks, tail = _assembled_difference(q_mat, mult, sht, p, form.volume,
                                         tail_bound)
    (norm1, argmax_degree), norm2 = in_order([
        functools.partial(spectral_norm_with_mode, blocks, sht, turn),
        functools.partial(spectral_norm, blocks, p, sht)])
    return ComparisonResult(norm1=norm1, norm2=norm2, tail_residual=tail,
                            argmax_degree=argmax_degree)


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


def _turned(form, sht):
    """The form a sweep runs its cells on, and the turn's matrices D_l,
    l = 0..``sht.l_max``, if it is turned, else None.  A candidate turn is
    built at the form's coefficient degrees only, and the taken one at the
    degrees up to ``sht.l_max`` as well.

    A mirror-symmetric form (zonal forms are) is not turned, nor is one
    whose longitude band reaches the top mode n_phi // 2, which stands for
    a +m and a -m mode that a turn treats apart.  Otherwise the candidates
    go in order, from the largest pair z0 = c_(l,m0) + i c_(l,-m0): the
    turns about the pole by -alpha_j, alpha_j = (arg z0 + j pi) / m0 mod pi
    for j < m0 (``heat.pole_turn``), which make z0 real; then, for a
    flip-symmetric form, whose equator is a mirror plane,
    ``heat.quarter_turn`` after the turn about the pole that makes z0 a sine
    term, so the turned form does not see how the form sits about the pole.
    The first candidate whose turned map keeps no sine (m < 0) term over
    ``MIRROR_TOL`` times its largest term, and whose turned form does not
    widen the longitude band that the Gram's exactness check reads, is
    taken, those sine terms dropped; if none is, the form keeps the complex
    route (``_spans``)."""
    if form.is_mirror_symmetric or form.phi_band >= sht.grid.n_phi // 2:
        return form, None
    pairs = {}
    for (l, m), c in form.coefficients.items():
        if m != 0:
            pairs[(l, abs(m))] = pairs.get((l, abs(m)), 0.0) + (
                c if m > 0 else 1j * c)
    (_, m0), z0 = max(pairs.items(), key=lambda item: abs(item[1]))
    arg = float(np.angle(z0))
    candidates = [(pole_turn, (arg + j * math.pi) / m0 % math.pi)
                  for j in range(m0)]
    if form.is_flip_symmetric:
        candidates.append((quarter_turn, (arg - math.pi / 2) / m0))
    degrees = {l for l, _ in form.coefficients}
    for make, angle in candidates:
        turn = {l: make(l, angle) for l in degrees}
        turned = {}
        for (l, m), c in form.coefficients.items():
            turned[l] = turned.get(l, 0.0) + c * turn[l][:, m + l]
        largest = max(np.abs(row).max() for row in turned.values())
        if any(np.abs(row[:l]).max(initial=0.0) > MIRROR_TOL * largest
               for l, row in turned.items()):
            continue
        turned_form = VolumeForm(form.grid, {
            (l, m): float(row[m + l]) for l, row in turned.items()
            for m in range(l + 1) if row[m + l] != 0.0}, form.form_id)
        if turned_form.phi_band <= form.phi_band:
            return turned_form, [turn[l] if l in turn else make(l, angle)
                                 for l in range(sht.l_max + 1)]
    return form, None


def sweep_form(form, p_values, sht, tail_bound):
    """Run the benchmark over a p grid for one form, turned onto the mirror
    route if it can be (``_turned``); builds the eta matrix once."""
    form, turn = _turned(form, sht)
    mult = fast_multiplication_matrix(form, sht)
    cells = [comparison_norms(p, form, sht, mult, tail_bound, turn)
             for p in p_values]
    return FormReport(
        form_id=form.form_id, p_values=list(p_values),
        norms1=[cell.norm1 for cell in cells],
        norms2=[cell.norm2 for cell in cells],
        tails=[cell.tail_residual for cell in cells],
        argmax_degrees=[cell.argmax_degree for cell in cells]).finalize()


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
    heat_factors = sht.heat_factors(1.0 / (4.0 * math.pi * p))

    def apply_diff(f):
        heat_part = sht.synthesize(heat_factors * sht.analyze(f))
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
