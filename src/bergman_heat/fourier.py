"""Longitude-Fourier helpers shared by the kernel and operator machinery.

Weight functions on the product grid are handled as colatitude profiles of
their longitude modes (``grid_to_modes``); ``moment_matrices`` folds them
into section moment matrices (the Gram, and the input side of the smoothing
operator), with the modes laid out as (mode, node, batch item).
``product_grams`` gives the quadrature norms of the longitude modes of
section quadratic forms, whose grid values are evaluated at the nodes, and
``diagonal_index`` lays out their coefficient matrices' lower diagonals.
A form symmetric under the equator flip theta -> pi - theta, which maps
the section s_k to s_{p-k}, has real moment matrices in the flip basis of
the sections (``flip_unitary``, ``flip_basis``, ``from_flip_basis``).
"""

import math

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


def profile_product(profiles, d):
    """a_{k+d}(theta_i) a_k(theta_i), shape (n_theta, dim-d)."""
    dim = profiles.shape[1]
    return profiles[:, d:] * profiles[:, :dim - d]


def moment_matrices(modes, w_theta, profiles, mode_tol, out=None,
                    parity=None):
    """Section moment matrices of a batch of weight functions.

    ``modes[d, i, b]`` holds longitude mode d >= 0 of weight function b at
    colatitude node i.  Returns the Hermitian batch T of shape (n, P, P) with

        T[b, k+d, k] = sum_i w_theta[i] modes[d, i, b] a_{k+d}(theta_i) a_k(theta_i),

    i.e. the quadrature of weight b against conj(s_{k+d}) s_k.  Real
    ``modes`` are those of functions even (``parity`` +1) or, divided by i,
    odd (-1) in phi, whose T is real symmetric or i times real
    antisymmetric; the real matrices are returned.  Diagonals whose mode is
    at most ``mode_tol`` times the largest mode, over the whole batch, are
    skipped (``mode_tol=0`` skips exact zeros only).  ``out``, if given, is
    a flat buffer that holds the batch.
    """
    n_modes, _, n = modes.shape
    dim = profiles.shape[1]
    mags = np.abs(modes).max(axis=(1, 2))
    cut = mode_tol * mags.max()
    if out is None:
        T = np.zeros((n, dim, dim), dtype=modes.dtype)
    else:
        T = out[:n * dim * dim].reshape(n, dim, dim)
        T.fill(0.0)
    for d in range(min(dim, n_modes)):
        if d > 0 and mags[d] <= cut:
            continue
        # the complex array's float view interleaves real and imaginary
        # parts, so one real product folds both
        weighted = np.ascontiguousarray(modes[d] * w_theta[:, None])
        prod = profile_product(profiles, d)
        _set_diagonal(T, d, (prod.T @ weighted.view(float)).view(
            modes.dtype).T, parity)
    return T


def product_grams(profiles, w_theta):
    """Quadrature Grams of the profile products, one per mode mu = 0..P-1:

        G_mu[k, k'] = sum_i w_theta[i] a_{k+mu} a_k a_{k'+mu} a_{k'} (theta_i),

    so a mode sum_k d_k a_{k+mu}(theta) a_k(theta), which diagonal -mu of a
    coefficient matrix A gives to x -> sigma(x)^T A conj(sigma(x)), has
    colatitude quadrature d^H G_mu d of its squared modulus.
    """
    grams = []
    for mu in range(profiles.shape[1]):
        prod = profile_product(profiles, mu)
        grams.append(prod.T @ (w_theta[:, None] * prod))
    return grams


def diagonal_index(dim):
    """Row-major flat positions of the lower diagonals of a (dim, dim)
    matrix, diagonal -mu after diagonal -(mu-1), mu = 0..dim-1, each from
    entry [mu, 0] to [dim-1, dim-1-mu]."""
    mu = np.repeat(np.arange(dim), dim - np.arange(dim))
    start = mu * dim - mu * (mu - 1) // 2
    k = np.arange(len(mu)) - start
    return (k + mu) * dim + k


def flip_unitary(dim):
    """The flip basis of ``dim`` = p + 1 sections, as the columns of a
    unitary U: u_k = (e_k + e_{p-k}) / sqrt(2) at column k and
    i (e_k - e_{p-k}) / sqrt(2) at column p - k for k < dim / 2, and
    e_{p/2} at column p/2 for even p.

    A Hermitian T with T = J conj(T) J, J the flip k -> p - k, is real in
    it: each column u has J conj(u) = u, so conj(U^H T U) = U^H T U.
    """
    p, half = dim - 1, dim // 2
    k = np.arange(half)
    U = np.zeros((dim, dim), dtype=complex)
    U[k, k] = U[p - k, k] = math.sqrt(0.5)
    U[k, p - k] = 1j * math.sqrt(0.5)
    U[p - k, p - k] = -1j * math.sqrt(0.5)
    if dim % 2:
        U[half, half] = 1.0
    return U


def flip_basis(T, flip, out):
    """Real form of a Hermitian batch in the flip basis (``flip_unitary``):
    U^H T U for ``flip`` = 1, where T = J conj(T) J, and U^H T U / i for
    ``flip`` = -1, where T = -J conj(T) J.

    -i T has the relation of ``flip`` = 1, so for ``flip`` = -1 the rows
    read below are turned into it in place.  With T = R + i S the real form
    reads the rows k < dim / 2 and the middle row alone: its blocks between
    u_k and u_j are R[k, j] + R[k, p-j] (both at k, j),
    S[k, p-j] - S[k, j] (k, p - j), S[k, j] + S[k, p-j] (p - k, j) and
    R[k, j] - R[k, p-j] (p - k, p - j), and sqrt(2) R[k, p/2] and
    sqrt(2) S[k, p/2] against the middle section, whose row is ``flip``
    times its column: the form is symmetric for ``flip`` = 1 and
    antisymmetric for -1.  Written into the flat real buffer ``out``;
    returns that (n, dim, dim) view.
    """
    n, dim, _ = T.shape
    p, half = dim - 1, dim // 2
    if flip < 0:
        T[:, :half + 1] *= -1j
    R, S = T.real[:, :half], T.imag[:, :half]
    lo, hi = slice(0, half), slice(p, p - half, -1)
    out = out[:T.size].reshape(T.shape)
    np.add(R[..., lo], R[..., hi], out=out[:, lo, lo])
    np.subtract(S[..., hi], S[..., lo], out=out[:, lo, hi])
    np.add(S[..., lo], S[..., hi], out=out[:, hi, lo])
    np.subtract(R[..., lo], R[..., hi], out=out[:, hi, hi])
    if dim % 2:
        out[:, lo, half] = math.sqrt(2.0) * R[:, :, half]
        out[:, hi, half] = math.sqrt(2.0) * S[:, :, half]
        out[:, half] = flip * out[:, :, half]
        out[:, half, half] = T.real[:, half, half]
    return out


def from_flip_basis(A, out):
    """Lower triangle of U A U^H for a real batch A in the flip basis
    (``flip_unitary``), written into the flat complex buffer ``out``;
    returns that (n, dim, dim) view, whose upper triangle is not set.

    With A's blocks P, Q, R, S between the sections k < dim / 2 and those
    at p - k (taken as k runs), U A U^H has the blocks
    ((P + S) + i (R - Q)) / 2 at (k, j), ((P - S) - i (R + Q)) / 2 at
    (p - k, j) and ((P + S) + i (Q - R)) / 2 at (p - k, p - j); the middle
    section of even p has (A[k, p/2] - i A[p-k, p/2]) / sqrt(2) at
    (p - k, p/2), (A[p/2, k] - i A[p/2, p-k]) / sqrt(2) at (p/2, k), and
    A[p/2, p/2].  The block at (k, p - j) lies above the diagonal.  A is
    halved in place first, which leaves the blocks sums.
    """
    n, dim, _ = A.shape
    p, half = dim - 1, dim // 2
    lo, hi = slice(0, half), slice(p, p - half, -1)
    out = out[:A.size].reshape(A.shape)
    re, im = out.real, out.imag
    A *= 0.5
    P, Q, R, S = A[:, lo, lo], A[:, lo, hi], A[:, hi, lo], A[:, hi, hi]
    np.add(P, S, out=re[:, lo, lo])
    np.subtract(R, Q, out=im[:, lo, lo])
    np.subtract(P, S, out=re[:, hi, lo])
    np.negative(R + Q, out=im[:, hi, lo])
    np.add(P, S, out=re[:, hi, hi])
    np.subtract(Q, R, out=im[:, hi, hi])
    if dim % 2:
        scale = math.sqrt(2.0)
        np.multiply(A[:, lo, half], scale, out=re[:, hi, half])
        np.multiply(A[:, hi, half], -scale, out=im[:, hi, half])
        np.multiply(A[:, half, lo], scale, out=re[:, half, lo])
        np.multiply(A[:, half, hi], -scale, out=im[:, half, lo])
        re[:, half, half] = 2.0 * A[:, half, half]
        im[:, half, half] = 0.0
    return out
