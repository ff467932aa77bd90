"""Torus grids, tabulation and the seminorm system."""

import numpy as np
import pytest

import sectorcalc as sc
from sectorcalc.dsl import Call, Var
from sectorcalc.grid import (BOUND_SLACK, _spectral_norms, _window_slices,
                             certified_maxima, class_weighted_sup, class_weighted_sups,
                             pointwise_inverse)

from reference import full_table_sup, seminorm

# the benchmark's non-normal 3x3 scene, x-dependent and upper triangular
MATRIX3 = ("[[(2+sin(x1))*(1+xi1^2)+5, bracket(xi), 0], "
           "[0, (2+cos(x1))*(1+xi1^2)+5, bracket(xi)], [0, 0, bracket(xi)^2+5]]")


class TestTorusGrid:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            sc.TorusGrid(n=1, points=20)

    def test_window_aliasing_guard(self):
        with pytest.raises(ValueError):
            sc.TorusGrid(n=1, points=16, xi_max=8)
        g = sc.TorusGrid(n=1, points=16, xi_max=7)
        assert g.modes_per_axis == 15

    @pytest.mark.parametrize("xi_max", [-1, -3])
    def test_negative_window_rejected(self, xi_max):
        # no negative half-width stands for the default P/2 - 1
        with pytest.raises(ValueError, match="xi_max must be >= 0"):
            sc.TorusGrid(n=1, points=16, xi_max=xi_max)
        assert sc.TorusGrid(n=1, points=16).xi_max == 7

    def test_axes(self):
        g = sc.TorusGrid(n=1, points=8, xi_max=2)
        assert g.x_axis[0] == 0.0
        assert np.allclose(np.diff(g.x_axis), 2 * np.pi / 8)
        assert list(g.xi_axis) == [-2, -1, 0, 1, 2]

    def test_interior_window(self):
        g = sc.TorusGrid(n=1, points=8, xi_max=3)
        assert list(g.xi_axis[_window_slices(g, 1)[1]]) == [-2, -1, 0, 1, 2]

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            sc.TorusGrid(n=3, points=8)


class TestSample:
    def test_constant_is_all_ones(self, grid16):
        gs = sc.sample(sc.parse_symbol("1", n=1), grid16)
        assert np.array_equal(gs.values, np.ones_like(gs.values))

    def test_bracket_square_values(self):
        g = sc.TorusGrid(n=1, points=8, xi_max=2)
        gs = sc.sample(sc.parse_symbol("bracket(xi)^2", n=1), g)
        assert np.allclose(gs.values[0, :, 0, 0], [5, 2, 1, 2, 5])

    def test_shape_and_finiteness(self, grid16, var_laplace):
        gs = sc.sample(var_laplace, grid16)
        assert gs.values.shape == (16, 15, 1, 1)
        with pytest.raises(sc.SectorcalcError):
            bad = gs.values.copy()
            bad[0, 0, 0, 0] = np.inf
            sc.GridSymbol(grid16, bad)

    def test_dimension_mismatch(self, grid16):
        with pytest.raises(sc.GridMismatchError):
            sc.sample(sc.parse_symbol("xi1+xi2", n=2), grid16)


class TestSeminorm:
    def test_bracket_square_q00_is_one(self, grid16):
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        q = seminorm(expr, (0,), (0,), sc.SymbolClassParams(m=2), grid16)
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_bracket_square_q10_approaches_two(self):
        g = sc.TorusGrid(n=1, points=64)
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        q = seminorm(expr, (1,), (0,), sc.SymbolClassParams(m=2), g)
        xi = g.xi_max
        assert q == pytest.approx(2 * xi / np.sqrt(1 + xi * xi), abs=1e-12)
        assert q < 2.0

    def test_variable_laplace_q01_is_one(self, grid32, var_laplace):
        q = seminorm(var_laplace, (0,), (1,), sc.SymbolClassParams(m=2), grid32)
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self, grid16, var_laplace):
        params = sc.SymbolClassParams(m=2)
        base = seminorm(var_laplace, (1,), (1,), params, grid16)
        scaled = seminorm(var_laplace.scaled(3.0 - 4.0j), (1,), (1,), params, grid16)
        assert scaled == pytest.approx(5.0 * base, rel=1e-12)

    def test_monotone_in_window(self, var_laplace):
        params = sc.SymbolClassParams(m=2)
        coarse = seminorm(var_laplace, (1,), (0,), params,
                          sc.TorusGrid(n=1, points=16, xi_max=7))
        fine = seminorm(var_laplace, (1,), (0,), params,
                        sc.TorusGrid(n=1, points=32, xi_max=15))
        assert fine >= coarse

    def test_x_independent_beta_seminorms_vanish(self, grid16):
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        q = seminorm(expr, (0,), (1,), sc.SymbolClassParams(m=2), grid16)
        assert q <= 1e-12

    def test_exponential_outside_every_class(self):
        # sup-seminorm sweep diverges as the window grows: not in any S^m
        expr = sc.SymbolExpr([[Call("exp", Var("xi", 0))]], n=1)
        params = sc.SymbolClassParams(m=4)
        qs = [seminorm(expr, (0,), (0,), params,
                       sc.TorusGrid(n=1, points=2 * (xi + 1), xi_max=xi))
              for xi in (7, 15, 31)]
        assert qs[1] > 10 * qs[0]
        assert qs[2] > 100 * qs[1]

    def test_matrix_seminorm_uses_spectral_norm(self, grid16):
        expr = sc.parse_symbol("[[0, 2], [0, 0]]", n=1, k=2)
        q = seminorm(expr, (0,), (0,), sc.SymbolClassParams(m=0), grid16)
        assert q == pytest.approx(2.0, rel=1e-12)


class TestSpectralNorms:
    """The Gram-eigenvalue spectral norm against the largest singular value."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_complex_stack_matches_svd(self, k):
        rng = np.random.default_rng(k)
        vals = rng.standard_normal((64, 9, k, k)) + 1j * rng.standard_normal((64, 9, k, k))
        ref = np.linalg.svd(vals, compute_uv=False)[..., 0]
        assert np.max(np.abs(_spectral_norms(vals) - ref) / ref) <= 1e-14

    def test_rank_one_stack_matches_svd(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((50, 3, 1)) + 1j * rng.standard_normal((50, 3, 1))
        v = rng.standard_normal((50, 1, 3)) + 1j * rng.standard_normal((50, 1, 3))
        vals = u @ v
        ref = np.linalg.svd(vals, compute_uv=False)[..., 0]
        assert np.max(np.abs(_spectral_norms(vals) - ref) / ref) <= 1e-14

    def test_zero_stack_is_exactly_zero(self):
        norms = _spectral_norms(np.zeros((4, 5, 3, 3), dtype=complex))
        assert norms.shape == (4, 5)
        assert np.all(norms == 0.0)


def inverse_of_stack(values, lam=0.0):
    """pointwise_inverse of a node-shaped (..., k, k) stack, node-shaped."""
    inv = pointwise_inverse(np.moveaxis(values, (-2, -1), (0, 1)), lam)
    return np.moveaxis(inv, (0, 1), (-2, -1))


class TestPointwiseInverse:
    """The vectorized partial-pivot elimination against LAPACK's stacked
    inverse: per block, a forward difference of at most 8 kappa eps and a
    relative residual ||A X - 1|| / (||A|| ||X||) of at most 8 k eps, the
    rounding of two backward-stable inverses (Higham, ch. 14)."""

    @staticmethod
    def stack(kind, k, rng, n=600):
        def cplx(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if kind == "full":
            return cplx((n, k, k))
        if kind == "triangular":
            return np.triu(cplx((n, k, k))) + 2.0 * np.eye(k)
        # singular values 1 .. kappa, kappa log-spaced up to 1e8
        s = np.geomspace(1.0, 1e8, n)[:, None] ** np.linspace(0.0, 1.0, k)
        u, v = np.linalg.qr(cplx((n, k, k)))[0], np.linalg.qr(cplx((n, k, k)))[0]
        return u @ (s[..., None] * v)

    @pytest.mark.parametrize("kind", ["full", "triangular", "ill_conditioned"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_lapack(self, k, kind):
        rng = np.random.default_rng(10 * k + len(kind))
        A = self.stack(kind, k, rng)
        first = A[:, :, 0]
        exchanges = np.argmax(np.abs(first.real) + np.abs(first.imag), axis=1) != 0
        if kind == "triangular":
            assert not np.any(exchanges)
        else:  # most blocks take a row exchange at the first column
            assert np.mean(exchanges) >= 0.4
        X, ref = inverse_of_stack(A), np.linalg.inv(A)
        eps = np.finfo(float).eps
        norm = lambda M: np.linalg.norm(M, ord=2, axis=(-2, -1))  # noqa: E731
        kappa = np.linalg.cond(A)
        if kind == "ill_conditioned":
            assert np.max(kappa) >= 0.9e8
        assert np.all(norm(X - ref) / norm(ref) <= 8 * kappa * eps)
        assert np.all(norm(A @ X - np.eye(k)) / (norm(A) * norm(X)) <= 8 * k * eps)

    def test_lambda_broadcasts_over_nodes(self):
        # one lambda per node, as the parametrix's per-node contours pass it
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 7, 3, 3)) + 1j * rng.standard_normal((8, 7, 3, 3))
        lam = rng.standard_normal((8, 7)) + 1j * rng.standard_normal((8, 7))
        ref = np.linalg.inv(A - lam[..., None, None] * np.eye(3))
        assert np.max(np.abs(inverse_of_stack(A, lam) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_pivot_by_real_plus_imaginary_modulus(self):
        # the first column (1j, 1e-17): |Re| alone would pivot on 1e-17 and
        # round the 1 out of (1 + 1j) - 1e17j; LAPACK's |Re| + |Im| pivots on 1j
        A = np.array([[[1j, 1 + 1j], [1e-17, 1.0]]])
        ref = np.linalg.inv(A)
        assert np.max(np.abs(inverse_of_stack(A) - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_exactly_singular_block_raises_like_lapack(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        A[3] = [[1.0, 2.0], [2.0, 4.0]]  # U_22 = 4 - 2 * 2 = 0 exactly
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(A)
        with pytest.raises(np.linalg.LinAlgError):
            inverse_of_stack(A)

    def test_nan_block_gives_nan(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        A[2, 1, 0] = np.nan
        with np.errstate(invalid="ignore"):
            X = inverse_of_stack(A)
        assert np.all(np.isnan(X[2]))
        keep = [0, 1, 3, 4]
        assert np.array_equal(X[keep], inverse_of_stack(A[keep]))


def stack_symbol(values):
    g = sc.TorusGrid(n=1, points=values.shape[0])
    return sc.GridSymbol(g, values, check=False)


def random_stack(rng, k, points=32):
    shape = (points, points - 1, k, k)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module", params=["jordan2", "matrix3"])
def parametrix_tables(request, sector_right):
    """b^N, r^N and s^N of a matrix symbol at a lambda with |lambda| >= R."""
    if request.param == "jordan2":
        expr, params = sc.get_preset("jordan2", n=1)
    else:
        expr, params = sc.parse_symbol(MATRIX3, n=1, k=3), sc.SymbolClassParams(m=2)
    calc = sc.ParametrixCalculator(expr, sc.TorusGrid(n=1, points=32), params,
                                   sector_right, N=3)
    lr = calc.leibniz_resolvent(complex(calc.sector.boundary_point(64.0)))
    return calc, {"bN": lr.b_n, "rN": lr.r_n, "sN": lr.s_n}


def outcome(fn, *args):
    """repr of fn's result, or of the LinAlgError it raises."""
    try:
        return repr(fn(*args))
    except np.linalg.LinAlgError as exc:
        return f"LinAlgError: {exc}"


class TestCertifiedSup:
    """class_weighted_sup of a matrix symbol, decided by the Frobenius bound,
    is the same float as the sup of the full spectral-norm table."""

    @pytest.mark.parametrize("name", ["bN", "rN", "sN"])
    def test_parametrix_tables(self, parametrix_tables, name):
        calc, tables = parametrix_tables
        gs = tables[name]
        rem_weight = calc.N * (calc.class_params.rho - calc.class_params.delta) \
            - calc.class_params.m
        for margin in (0, calc.default_interior_margin):
            for weight in (0.0, rem_weight):
                assert class_weighted_sup(gs, weight, margin) == \
                    full_table_sup(gs, weight, margin)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_complex_stacks(self, k):
        rng = np.random.default_rng(10 + k)
        for _ in range(5):
            gs = stack_symbol(random_stack(rng, k))
            for margin in (0, 1, 5):
                for weight in (0.0, -1.5, 2.0):
                    assert class_weighted_sup(gs, weight, margin) == \
                        full_table_sup(gs, weight, margin)

    @pytest.mark.parametrize("k", [2, 3])
    def test_rank_one_stacks(self, k):
        # ||M||_F == ||M||_2: bounds and exact norms tie up to rounding
        rng = np.random.default_rng(20 + k)
        u = random_stack(rng, k)[..., :1]
        v = random_stack(rng, k)[..., :1, :]
        for gs in (stack_symbol(u @ v), stack_symbol(np.broadcast_to(
                (u @ v)[:1, :1], u.shape[:2] + (k, k)).copy())):
            for margin in (0, 3):
                for weight in (0.0, -2.0):
                    assert class_weighted_sup(gs, weight, margin) == \
                        full_table_sup(gs, weight, margin)

    def test_zero_stack(self):
        gs = stack_symbol(np.zeros((16, 15, 3, 3), dtype=complex))
        for margin in (0, 2):
            for weight in (0.0, 1.0):
                assert class_weighted_sup(gs, weight, margin) == 0.0

    @pytest.mark.parametrize("mode", [7, 0])
    def test_nan_like_the_full_table(self, mode):
        # inside the interior window and outside it; the NaN reaches
        # eigvalsh either way (numpy 2.4 raises LinAlgError on it)
        vals = random_stack(np.random.default_rng(3), 3, points=16)
        vals[2, mode, 1, 1] = np.nan
        gs = stack_symbol(vals)
        for margin in (0, 2):
            for weight in (0.0, -1.0):
                assert outcome(class_weighted_sup, gs, weight, margin) == \
                    outcome(full_table_sup, gs, weight, margin)

    def test_2d_window(self, grid2d):
        rng = np.random.default_rng(5)
        shape = grid2d.x_shape + grid2d.xi_shape + (2, 2)
        gs = sc.GridSymbol(grid2d, rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
        for margin in (0, 1, 2):
            for weight in (0.0, 1.0):
                assert class_weighted_sup(gs, weight, margin) == \
                    full_table_sup(gs, weight, margin)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_outputs_equal_two_passes(self, parametrix_tables, k):
        # one pass with the sweep's two weights gives the floats of one pass
        # per weight, on the sweep's tables, random stacks and a NaN stack
        calc, tables = parametrix_tables
        rng = np.random.default_rng(30 + k)
        nan = random_stack(rng, k)
        nan[3, 7, 0, 0] = np.nan
        cases = [stack_symbol(random_stack(rng, k)), stack_symbol(nan)]
        if k == calc.k:
            cases += list(tables.values())
        for gs in cases:
            for margin in (0, 2):
                for weights in ((0.0, -1.5), (2.0, 0.0, -1.0)):
                    assert outcome(class_weighted_sups, gs, weights, margin) == \
                        outcome(lambda: [class_weighted_sup(gs, w, margin)
                                         for w in weights])

    def test_empty_interior_window_raises(self):
        gs = stack_symbol(np.ones((8, 7, 2, 2), dtype=complex))
        with pytest.raises(ValueError):
            class_weighted_sup(gs, 0.0, 4)

    def test_exact_norms_only_where_the_bound_reaches(self, parametrix_tables,
                                                      monkeypatch):
        # the certificate is the point: far fewer exact norms than nodes
        calc, tables = parametrix_tables
        counted = []

        def counting(values):
            counted.append(int(np.prod(values.shape[:-2])))
            return _spectral_norms(values)

        monkeypatch.setattr(sc.grid, "_spectral_norms", counting)
        margin = calc.default_interior_margin
        class_weighted_sup(tables["rN"], 0.0, margin)
        nodes = calc.grid.points * (calc.grid.modes_per_axis - 2 * margin)
        assert sum(counted) < nodes / 2


class TestCertifiedMaxima:
    """certified_maxima gives the maxima of the full table of r, and takes no
    node's exact value twice."""

    @staticmethod
    def full_table(best, r, factors):
        return [max(b, float(np.max(da * r * w))) for b, (da, w) in zip(best, factors)]

    @staticmethod
    def certified(best, r, bound, factors):
        best, taken = list(best), np.zeros(r.shape, dtype=int)

        def exact(nodes):
            taken[nodes] += 1
            return r[nodes]

        certified_maxima(best, bound, exact, factors)
        assert taken.max() == 1
        return best, int(taken.sum())

    @pytest.mark.parametrize("shape", [(60,), (16, 15)])
    def test_random_outputs(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            r = rng.uniform(0.0, 1.0, shape)
            bound = r * rng.uniform(1.0, 1.5, shape)
            factors = [(rng.uniform(0.0, 2.0, shape), rng.uniform(0.5, 1.0, shape[-1:]))
                       for _ in range(3)] + [(2.5, 1.0)]
            best = [0.0] * len(factors)
            got, _ = self.certified(best, r, bound, factors)
            assert got == self.full_table(best, r, factors)

    def test_running_maxima_carry_over(self):
        # a max already above every product stays, after one exact value
        rng = np.random.default_rng(1)
        r = rng.uniform(0.0, 1.0, 40)
        got, taken = self.certified([5.0], r, 1.1 * r, [(1.0, 1.0)])
        assert got == [5.0] and taken == 1

    def test_ties(self):
        # every node attains the max, and the bound is the exact value
        r = np.full((8, 7), 0.3)
        factors = [(1.0, 1.0), (np.full((8, 7), 2.0), 3.0)]
        got, _ = self.certified([0.0, 0.0], r, r.copy(), factors)
        assert got == self.full_table([0.0, 0.0], r, factors)

    def test_all_zero_output(self):
        rng = np.random.default_rng(2)
        r = rng.uniform(0.5, 1.0, 30)
        factors = [(np.zeros(30), 1.0), (rng.uniform(0.0, 1.0, 30), 1.0)]
        got, _ = self.certified([0.0, 0.0], r, 1.2 * r, factors)
        assert got == self.full_table([0.0, 0.0], r, factors)
        assert got[0] == 0.0

    def test_bound_at_the_exact_value(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(0.0, 1.0, (12, 11))
        factors = [(rng.uniform(0.0, 1.0, (12, 11)), rng.uniform(0.5, 1.0, 11))]
        got, taken = self.certified([0.0], r, r.copy(), factors)
        assert got == self.full_table([0.0], r, factors)
        assert taken < r.size

    def test_bound_rounded_below_the_exact_value(self):
        # near-tied values whose bounds sit up to 0.9 BOUND_SLACK below them:
        # the top-bound node is not the top node, and the slack finds it
        rng = np.random.default_rng(4)
        r = 1.0 + 1e-13 * rng.uniform(0.0, 1.0, 50)
        bound = r * (1.0 - 0.9 * BOUND_SLACK * rng.uniform(0.0, 1.0, 50))
        got, _ = self.certified([0.0], r, bound, [(1.0, 1.0)])
        assert got == [float(r.max())]


class TestGridSeminorm:
    def test_matches_exact_on_quadratic(self, grid16):
        # lattice-step central differences are exact on a xi-quadratic;
        # compare on the interior where the sup lands at xi = 6
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        gs = sc.sample(expr, grid16)
        params = sc.SymbolClassParams(m=2)
        approx = sc.grid_seminorm(gs, (1,), (0,), params, interior_margin=1)
        assert approx == pytest.approx(2 * 6 / np.sqrt(1 + 36), rel=1e-10)

    def test_q00_no_derivatives_is_exact(self, grid16, var_laplace):
        gs = sc.sample(var_laplace, grid16)
        params = sc.SymbolClassParams(m=2)
        assert sc.grid_seminorm(gs, (0,), (0,), params) == \
            pytest.approx(seminorm(var_laplace, (0,), (0,), params, grid16), rel=1e-12)

    @pytest.mark.parametrize("beta", [(1,), (2,)])
    def test_spectral_x_derivatives_match_exact(self, grid32, var_laplace, beta):
        # sin(x1) is band-limited on the grid: spectral D_x is exact to rounding
        gs = sc.sample(var_laplace, grid32)
        params = sc.SymbolClassParams(m=2)
        assert sc.grid_seminorm(gs, (0,), beta, params) == \
            pytest.approx(seminorm(var_laplace, (0,), beta, params, grid32), rel=1e-12)
