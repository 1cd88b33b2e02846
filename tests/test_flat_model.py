import math

import numpy as np
import pytest
import sympy as sp

from bergman_heat import (ConfigError, bargmann_kernel, bargmann_kernel_expr,
                          gaussian_laplacian_identity, landau_operator_apply,
                          landau_operator_symbolic, reproducing_residual)
from bergman_heat import flat_model
from bergman_heat.config import DEFAULTS

QUAD_ORDER = DEFAULTS["model-check"]["quad_order"]


class TestBargmannKernel:
    def test_diagonal_is_one(self, rng):
        zs = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.abs(bargmann_kernel(zs, zs) - 1.0).max() < 1e-14

    def test_squared_modulus_law(self, rng):
        zs = rng.normal(size=10) + 1j * rng.normal(size=10)
        ws = rng.normal(size=10) + 1j * rng.normal(size=10)
        lhs = np.abs(bargmann_kernel(zs, ws)) ** 2
        rhs = np.exp(-math.pi * np.abs(zs - ws) ** 2)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_hermitian_symmetry(self, rng):
        z, w = 0.4 + 0.2j, -1.1 + 0.7j
        assert bargmann_kernel(z, w) == pytest.approx(
            np.conj(bargmann_kernel(w, z)), abs=1e-16)

    def test_expression_matches_numeric_kernel(self, rng):
        zs = rng.normal(size=6) + 1j * rng.normal(size=6)
        ws = rng.normal(size=6) + 1j * rng.normal(size=6)
        u, v = sp.symbols("u v", real=True)
        expr, (x, y) = bargmann_kernel_expr(u + sp.I * v)
        func = sp.lambdify((x, y, u, v), expr, modules="numpy")
        target = bargmann_kernel(zs, ws)
        assert np.abs(func(zs.real, zs.imag, ws.real, ws.imag)
                      - target).max() < 1e-12
        for z, w, k in zip(zs, ws, target):
            expr, (x, y) = bargmann_kernel_expr(w)
            assert complex(expr.subs({x: z.real, y: z.imag})) \
                == pytest.approx(k, abs=1e-12)

    def test_modulus_depends_only_on_separation(self, rng):
        base = rng.normal(size=5) + 1j * rng.normal(size=5)
        sep = 0.37 - 0.21j
        mods = np.abs(bargmann_kernel(base + sep, base))
        assert np.ptp(mods) < 1e-14


class TestReproducing:
    def test_origin(self):
        assert reproducing_residual(0.0, 0.0, QUAD_ORDER) < 1e-10

    def test_window(self, rng):
        for _ in range(6):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert reproducing_residual(z, w, QUAD_ORDER) < 1e-8

    def test_diagonal_idempotence(self):
        # setting both arguments equal checks integral of |K|^2 = 1
        assert reproducing_residual(0.5 + 0.5j, 0.5 + 0.5j,
                                    QUAD_ORDER) < 1e-8

    def test_rejects_low_order(self):
        with pytest.raises(ConfigError):
            reproducing_residual(0.0, 0.0, quad_order=20)

    def test_order_bound(self):
        # numpy's Gauss-Hermite nodes turn non-finite above order 371
        z, w = 0.3 + 0.2j, -0.1 + 0.4j
        top = reproducing_residual(z, w, flat_model.MAX_QUAD_ORDER)
        assert math.isfinite(top) and top < 1e-8
        with pytest.raises(ConfigError):
            reproducing_residual(z, w, 400)


class TestLandauOperator:
    def test_annihilates_kernel_columns_symbolically(self, rng):
        x, y = sp.symbols("x y", real=True)
        for _ in range(20):
            w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            expr, (x, y) = bargmann_kernel_expr(w)
            applied = sp.expand(landau_operator_symbolic(expr, x, y))
            func = sp.lambdify((x, y), applied, modules="numpy")
            probe = np.linspace(-1.2, 1.2, 5)
            vals = np.asarray(func(probe[:, None], probe[None, :]),
                              dtype=complex)
            assert np.abs(vals).max() < 1e-8

    def test_one_derivation_matches_per_w_route(
            self, rng, monkeypatch, landau_without_field_term):
        # a broken operator leaves an O(1) residual, so agreement checks that
        # the symbolic kernel point reproduces each numeric one
        probe = np.linspace(-1.2, 1.2, 5)
        zs = (probe[:, None] + 1j * probe[None, :]).ravel()
        ws = rng.uniform(-1.5, 1.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        for operator in (landau_operator_symbolic, landau_without_field_term):
            monkeypatch.setattr(flat_model, "landau_operator_symbolic",
                                operator)
            per_w = []
            for w in ws:
                expr, (x, y) = bargmann_kernel_expr(w)
                func = sp.lambdify((x, y), sp.expand(operator(expr, x, y)),
                                   modules="numpy")
                per_w.append(np.abs(np.asarray(func(zs.real, zs.imag),
                                               dtype=complex)).max())
                assert flat_model.landau_kernel_residual(zs, [w]) \
                    == pytest.approx(per_w[-1], rel=1e-10, abs=1e-8)
            for batch in (ws, ws[::-1]):
                assert flat_model.landau_kernel_residual(zs, batch) \
                    == pytest.approx(max(per_w), rel=1e-10, abs=1e-8)
        assert min(per_w) > 1.0

    def test_annihilates_kernel_columns_fd(self, rng):
        zs = (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12))
        for w in (0.3 + 0.1j, -0.8j):
            vals = landau_operator_apply(lambda z: bargmann_kernel(z, w), zs)
            assert np.abs(vals).max() < 1e-6

    def test_ground_state_annihilated(self):
        x, y = sp.symbols("x y", real=True)
        expr = sp.exp(-sp.pi * (x ** 2 + y ** 2) / 2)
        assert sp.simplify(landau_operator_symbolic(expr, x, y)) == 0

    def test_first_landau_level(self):
        # conj(z) times the ground state has eigenvalue 4*pi
        x, y = sp.symbols("x y", real=True)
        f = (x - sp.I * y) * sp.exp(-sp.pi * (x ** 2 + y ** 2) / 2)
        applied = landau_operator_symbolic(f, x, y)
        assert sp.simplify(applied - 4 * sp.pi * f) == 0

    def test_fd_matches_symbolic_on_smooth_probe(self):
        x, y = sp.symbols("x y", real=True)
        expr = sp.exp(-(x ** 2 + y ** 2) / 3) * (1 + x + y ** 2)
        exact = sp.lambdify((x, y), landau_operator_symbolic(expr, x, y),
                            modules="numpy")
        func = sp.lambdify((x, y), expr, modules="numpy")
        zs = np.array([0.2 + 0.1j, -0.5 + 0.4j, 0.9 - 0.3j])
        vals = landau_operator_apply(lambda z: func(z.real, z.imag), zs)
        target = np.asarray(exact(zs.real, zs.imag), dtype=complex)
        assert np.abs(vals - target).max() < 1e-7


class TestGaussianLaplacian:
    def test_center_value(self):
        computed, closed = gaussian_laplacian_identity(3, 0.0)
        assert closed == pytest.approx(4 * math.pi * 3, rel=1e-15)
        assert computed == pytest.approx(closed, abs=1e-6)

    def test_root_of_the_identity(self):
        p = 5
        w = 1.0 / math.sqrt(math.pi * p)
        _, closed = gaussian_laplacian_identity(p, w)
        assert closed == pytest.approx(0.0, abs=1e-12)

    def test_fd_matches_closed_form(self):
        computed, closed = gaussian_laplacian_identity(4, 0.3)
        assert computed == pytest.approx(closed, abs=1e-6)

    def test_rejects_bad_power(self):
        with pytest.raises(ConfigError):
            gaussian_laplacian_identity(0, 0.1)
