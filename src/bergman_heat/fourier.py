"""Longitude-Fourier helpers shared by the kernel and operator machinery.

Weight functions on the product grid are handled as colatitude profiles of
their longitude modes (``grid_to_modes``); ``moment_matrices`` folds them
into section moment matrices (the Gram, and the input side of the smoothing
operator).  It takes a batch in factored form, node modes laid out as
(sign, node, mode) times colatitude rows laid out as (node, row), so the
products of a density with every degree of one harmonic order are formed a
mode at a time, and only at the modes kept; a plain batch is one sign per
function and one row of ones.
``product_grams`` gives the quadrature norms of the longitude modes of
section quadratic forms, whose grid values are evaluated at the nodes.
``moment_matrices`` and ``product_grams`` read the section-profile products
a_{k+d} a_k, which a Q assembly makes once (``profile_products``) and
shares with the harmonic transform's moment tables.
"""

import numpy as np

# longitude modes at most this fraction of the largest mode lie outside a
# function's band
BAND_TOL = 1e-13


def grid_to_modes(values, n_modes):
    """Longitude DFT modes (1/n) sum_j f exp(-i m phi_j), columns 0..n_modes."""
    f = np.fft.rfft(np.asarray(values, dtype=float), axis=1)
    n_phi = values.shape[1]
    return f[:, :n_modes + 1] / n_phi


def phi_band(modes):
    """Longitude band of a real grid function from its full DFT table.

    ``modes`` has shape (n_theta, n_phi), as from ``np.fft.fft`` along phi.
    Returns the largest order m whose +m or -m mode, at some colatitude
    node, exceeds ``BAND_TOL`` times the largest mode (mode 0, for a
    positive function).
    """
    mags = np.abs(modes).max(axis=0)
    ms = np.arange(1, modes.shape[1] // 2 + 1)
    inside = np.maximum(mags[ms], mags[-ms]) > BAND_TOL * mags.max()
    return int(ms[inside].max(initial=0))


def _set_diagonal(T, d, values, parity):
    """Write ``values`` onto diagonal -d of every matrix in a (n, P, P) batch,
    and onto diagonal +d their conjugates, or for a real batch the values
    times each matrix's ``parity`` (+1 symmetric, -1 antisymmetric).

    Lower diagonal holds entries [k+d, k].  Uses flat strided views, which
    beats advanced indexing for many small writes.
    """
    n, P, _ = T.shape
    flat = T.reshape(n, P * P)
    flat[:, d * P::P + 1][:, :P - d] = values
    if d > 0:
        flat[:, d::P + 1][:, :P - d] = (np.conj(values) if parity is None
                                        else parity[:, None] * values)


def profile_products(profiles):
    """a_{k+d}(theta_i) a_k(theta_i), shape (n_theta, dim-d), d = 0..dim-1:
    (dim+1) dim / 2 n_theta doubles, 1.7 MB at p = 64 on 102 nodes."""
    dim = profiles.shape[1]
    return [profiles[:, d:] * profiles[:, :dim - d] for d in range(dim)]


def moment_matrices(modes, rows, w_theta, profiles, mode_tol, out=None,
                    parity=None, products=None):
    """Section moment matrices of a batch of weight functions, given in
    factored form.

    Item b = l S + s of the batch, for the S = ``modes.shape[0]`` signs s
    and the columns l of ``rows``, has longitude mode d >= 0
    ``modes[s, i, d] * rows[i, l]`` at colatitude node i: node modes shared
    by a set of items, times each item's own colatitude row.  A plain batch
    is one sign per weight function and one row of ones.  Returns the
    Hermitian batch T of shape (n, P, P) with

        T[b, k+d, k] = sum_i w_theta[i] modes[s, i, d] rows[i, l] a_{k+d} a_k (theta_i),

    i.e. the quadrature of weight b against conj(s_{k+d}) s_k.  Real
    ``modes`` are those of functions even (``parity`` +1) or, divided by i,
    odd (-1) in phi, whose T is real symmetric or i times real
    antisymmetric; the real matrices are returned.  Diagonals whose mode is
    at most ``mode_tol`` times the largest mode, over the whole batch, are
    skipped (``mode_tol=0`` skips exact zeros only), and their items' modes
    never formed.  ``out``, if given, is a flat buffer that holds the
    batch.  ``products``, if given, holds the profile products
    (``profile_products``); else each is made in turn.
    """
    n_signs, n_theta, n_modes = modes.shape
    n = n_signs * rows.shape[1]
    dim = profiles.shape[1]
    # the largest |mode * row| at a node is the largest |mode| times the
    # largest |row| there: rounding is monotone, so for real modes this is
    # the batch's largest product modulus exactly (complex ones may differ
    # in the last ulp, as the modulus of a rounded product)
    mags = (np.abs(modes).max(axis=0)
            * np.abs(rows).max(axis=1)[:, None]).max(axis=0)
    cut = mode_tol * mags.max()
    if out is None:
        T = np.zeros((n, dim, dim), dtype=modes.dtype)
    else:
        T = out[:n * dim * dim].reshape(n, dim, dim)
        T.fill(0.0)
    # item l S + s in column l S + s; one sign at a time keeps the rows l
    # in the inner loop
    items = np.empty((n_theta, rows.shape[1], n_signs), modes.dtype)
    weighted = items.reshape(n_theta, n)
    for d in range(min(dim, n_modes)):
        if d > 0 and mags[d] <= cut:
            continue
        # each item's mode, then its weight
        for s, sign_modes in enumerate(modes):
            np.multiply(rows, sign_modes[:, d, None], out=items[:, :, s])
        weighted *= w_theta[:, None]
        prod = (profiles[:, d:] * profiles[:, :dim - d] if products is None
                else products[d])
        # the complex array's float view interleaves real and imaginary
        # parts, so one real product folds both
        _set_diagonal(T, d, (prod.T @ weighted.view(float)).view(
            modes.dtype).T, parity)
    return T


def product_grams(products, w_theta):
    """Quadrature Grams of the profile products (``profile_products``), one
    per mode mu = 0..P-1:

        G_mu[k, k'] = sum_i w_theta[i] a_{k+mu} a_k a_{k'+mu} a_{k'} (theta_i),

    so a mode sum_k d_k a_{k+mu}(theta) a_k(theta), which diagonal -mu of a
    coefficient matrix A gives to x -> sigma(x)^T A conj(sigma(x)), has
    colatitude quadrature d^H G_mu d of its squared modulus.
    """
    return [prod.T @ (w_theta[:, None] * prod) for prod in products]
