"""The symbolic oracle of ``bergman_heat.flat_model``: the Bargmann-Fock
kernel as a sympy expression, and the model operator and its broken variant
applied by sympy's own differentiation.  sympy is a test dependency only.
"""

import sympy as sp


def bargmann_kernel_expr(w):
    """Sympy expression of the kernel z -> K(z, w) in real symbols (x, y);
    w is a number or an expression in real symbols such as u + I*v."""
    x, y = sp.symbols("x y", real=True)
    w = sp.sympify(w)
    wc = sp.conjugate(w)
    z = x + sp.I * y
    expo = -sp.pi / 2 * (x ** 2 + y ** 2 + w * wc - 2 * z * wc)
    return sp.exp(expo), (x, y)


def landau_operator_symbolic(expr, x, y):
    """Exact application of (-2 d_z + pi conj(z)) (2 d_zbar + pi z).

    ``expr`` is a sympy expression in the real symbols x, y with z = x + i y.
    """
    z = x + sp.I * y
    zbar = x - sp.I * y
    dzbar = (sp.diff(expr, x) + sp.I * sp.diff(expr, y)) / 2
    inner = 2 * dzbar + sp.pi * z * expr
    dz_inner = (sp.diff(inner, x) - sp.I * sp.diff(inner, y)) / 2
    return -2 * dz_inner + sp.pi * zbar * inner


def landau_without_field_term(expr, x, y):
    """The model operator with the ``pi * z * expr`` term of its inner factor
    dropped: a broken operator that does not annihilate the kernel."""
    inner = sp.diff(expr, x) + sp.I * sp.diff(expr, y)
    dz_inner = (sp.diff(inner, x) - sp.I * sp.diff(inner, y)) / 2
    return -2 * dz_inner + sp.pi * (x - sp.I * y) * inner
