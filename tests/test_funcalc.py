"""H-function models, contour quadrature, functional calculus."""

import tracemalloc

import numpy as np
import pytest

import sectorcalc as sc
from sectorcalc import funcalc
from sectorcalc.densela import dense_resolvent
from sectorcalc.funcalc import (_CHUNK, _SPOT_TOL, _accumulate_resolvents, _check_vector,
                                _probe_fun)

from reference import bn_f_deformed, gl_contour, resolvent_quotient, two_ray_dunford


@pytest.fixture(scope="module")
def contour_d1(sector_right):
    return sc.build_contour(sector_right, d=1.0, tol=1e-8)


@pytest.fixture(scope="module")
def calc16(sector_right):
    grid = sc.TorusGrid(n=1, points=16)
    expr = sc.shift(sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1), 5.0)
    return sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                   sector_right, N=3)


class TestHFun:
    def test_power_quotient_validates(self, sector_right):
        f = sc.power_quotient(1.0)
        cf = f.validate(sector_right)
        assert np.isfinite(cf) and cf > 0

    def test_decay_violation_detected(self, sector_right):
        bad = sc.HFun(lambda z: np.ones_like(z), d=1.0, name="flat")
        bad.c_f = 1.0
        with pytest.raises(ValueError):
            bad.validate(sector_right)

    def test_declared_cf_below_sampled_max_rejected(self, sector_right):
        f = sc.power_quotient(1.0)
        sampled_max = f.validate(sector_right) / 1.01
        exact = sc.HFun(f.fn, d=1.0)
        exact.c_f = sampled_max
        exact.validate(sector_right)
        tight = sc.HFun(f.fn, d=1.0, name="tight")
        tight.c_f = 0.99 * sampled_max
        with pytest.raises(ValueError, match="decay bound violated"):
            tight.validate(sector_right)

    def test_nan_on_ray_rejected_without_declared_cf(self, sector_right):
        def fn(z):
            return np.where(np.abs(z) > 100.0, np.nan, z / (1.0 + z) ** 2)
        f = sc.HFun(fn, d=1.0, name="nan_tail")
        with pytest.raises(ValueError, match="non-finite"):
            f.validate(sector_right)

    def test_ensure_cf_is_validate(self, sector_right):
        # an unset c_f is 1% above the sampled max, the same float for both
        for f in (sc.power_quotient(0.5), sc.imaginary_power_regularized(2.0, 100)):
            expected = float(np.max(f._decay_products(sector_right)) * 1.01)
            assert f.ensure_cf(sector_right) == expected

    @pytest.mark.parametrize("f", [sc.power_quotient(0.5), sc.power_quotient(2.0),
                                   sc.imaginary_power_regularized(0.0, 1000),
                                   sc.imaginary_power_regularized(5.0, 1000)],
                             ids=lambda f: f.name)
    def test_flat_tails_keep_the_validation_range(self, sector_right, f):
        # 20 radii per decade over 1e-4 .. 1e4 on three rays, no more
        assert len(f._decay_products(sector_right)) == 3 * 160

    def test_growing_corners_widen_the_validation_range(self, sector_right):
        # |psi_n(z)| (|z| + 1/|z|) grows tenfold per decade up to |z| ~ n and
        # down to 1/n, where it levels off at n: both ends widen by 4 decades
        f = sc.imaginary_power_regularized(0.0, 10 ** 7)
        assert len(f._decay_products(sector_right)) == 3 * (160 + 2 * 4 * 20)
        assert 1e7 <= f.validate(sector_right) <= 1.02e7

    def test_ensure_cf_rejects_overflowing_samples(self, sector_right):
        # |z^(500 i)| = exp(-500 arg z) overflows on the lower validation ray
        f = sc.imaginary_power_regularized(500.0, 1000)
        with pytest.raises(ValueError, match="imag_power 500.0.*non-finite"):
            f.ensure_cf(sector_right)
        assert f.c_f is None

    def test_sup_norm_of_probe(self, sector_right):
        # |z/(1+z)^2| on the boundary ray: t/(1+t^2), maximal 1/2 at z = i
        f = sc.power_quotient(1.0)
        assert f.sup_norm(sector_right) == pytest.approx(0.5, rel=1e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", [1.0, np.pi / 2, 2.0, 3.0])
    def test_sup_norm_of_steep_power_quotient(self, theta):
        # on arg z = phi, |z/(1+z)^2| = 1/(r + 2 cos phi + 1/r) peaks at r = 1,
        # so sup |f| = (2 + 2 cos theta)^-s; at s = 50 the quotient of two
        # exponentials is inf/inf on the rays at |z| = 1e6, and a single
        # density reads 1.3-87% low
        s = 50.0
        f = sc.power_quotient(s)
        exact = (2.0 + 2.0 * np.cos(theta)) ** -s
        assert f.sup_norm(sc.Sector(theta=theta)) == pytest.approx(exact, rel=1e-2)

    def test_sup_norm_rejects_non_finite_samples(self, sector_right):
        # max(cur, nan) keeps cur: a dropped sample would read low
        def fn(z):
            return np.where(np.abs(z) > 1e5, np.nan, z / (1.0 + z) ** 2)
        f = sc.HFun(fn, d=1.0, name="nan_tail")
        with pytest.raises(ValueError, match="nan_tail: non-finite"):
            f.sup_norm(sector_right)

    def test_positive_decay_required(self):
        with pytest.raises(ValueError):
            sc.HFun(lambda z: z, d=0.0)

    def test_regularizer_bound(self, sector_right):
        # ||f psi_n||_inf <= 4 ||f||_inf for the bounded f(z) = z^{2i}
        def base(z):
            return np.exp(2j * np.log(np.asarray(z, dtype=complex)))
        base_sup = float(max(np.max(np.abs(base(np.geomspace(1e-6, 1e6, 500)
                                                * np.exp(1j * ang))))
                             for ang in (sector_right.theta, -sector_right.theta, 0.0)))
        for n in (10, 100, 1000):
            f_n = sc.HFun(lambda z, n=n: base(z) * sc.regularizer_value(z, n), d=1.0,
                          name=f"z^2i~reg{n}")
            assert f_n.sup_norm(sector_right) <= 4.0 * base_sup

    def test_regularizer_value_frozen(self):
        # psi_n(2) at n = 1000: (2000/2001)*(1000/1002) = 0.99750523...
        expected = (2000.0 / 2001.0) * (1000.0 / 1002.0)
        assert sc.regularizer_value(2.0, 1000) == pytest.approx(expected, rel=1e-14)
        assert sc.regularizer_value(2.0, 1000) == pytest.approx(1.0, abs=5e-3)


class TestContour:
    def test_cauchy_certificate(self, contour_d1):
        for z0 in (0.5, 1.0, 4.0, 20.0):
            got = contour_d1.dunford_scalar(_probe_fun, z0)
            assert abs(got - _probe_fun(z0)) <= 1e-8

    def test_orientation_pinned_by_cauchy(self, sector_right, contour_d1):
        flipped = sc.Contour(theta=contour_d1.theta, r_min=contour_d1.r_min,
                             r_max=contour_d1.r_max,
                             step=contour_d1.step,
                             nodes=contour_d1.nodes, weights=-contour_d1.weights)
        got = flipped.dunford_scalar(_probe_fun, 1.0)
        assert abs(got + _probe_fun(1.0)) <= 1e-8

    def test_radius_order_enforced(self, sector_right):
        with pytest.raises(sc.ContourError):
            # r_max = 4 c_f / tol = 4e-12 falls below the capped r_min = 1e-2
            sc.build_contour(sector_right, d=1.0, tol=1.0, c_f=1e-12)

    def test_decade_budget_is_tested_in_logarithms(self, sector_right):
        # at d = 1e-3 r_max = (4 c_f/(d tol))^(1/d) overflows a double
        with pytest.raises(sc.ContourError, match=r"^contour spans 8608 decades \(> 220\)"):
            sc.build_contour(sector_right, d=1e-3, tol=1e-5)

    @pytest.mark.parametrize("d", [0.025, 0.033, 0.033009028132879474, 0.03300902813287948,
                                   0.0331, 0.05])
    def test_decade_budget_as_the_radii_decide_it(self, sector_right, d):
        # where the radii are finite, the budget rejects what their ratio spans
        r_max = (4.0 / (d * 1e-5)) ** (1.0 / d)
        r_min = min(((d + 1.0) * 1e-5 / 4.0) ** (1.0 / (d + 1.0)), 1e-2)
        if np.log10(r_max / r_min) > 220:
            with pytest.raises(sc.ContourError, match="decades"):
                sc.build_contour(sector_right, d=d, tol=1e-5, step=1.0)
        else:
            contour = sc.build_contour(sector_right, d=d, tol=1e-5, step=1.0)
            assert (contour.r_min, contour.r_max) == (r_min, r_max)

    def test_matched_decay_certificates(self, sector_right):
        for d in (0.5, 2.0):
            contour = sc.build_contour(sector_right, d=d, tol=1e-8)
            got = contour.dunford_scalar(lambda z: _probe_fun(z, d), 4.0)
            assert abs(got - _probe_fun(4.0, d)) <= 1e-8

    def test_doubling_stability(self, sector_right, contour_d1):
        finer = sc.build_contour(sector_right, d=1.0, tol=1e-8,
                                 step=contour_d1.step / 2)
        a = contour_d1.dunford_scalar(_probe_fun, 4.0)
        b = finer.dunford_scalar(_probe_fun, 4.0)
        assert abs(a - b) <= 2.5e-9

    @pytest.mark.parametrize("d, tol", [(1.0, 1e-8), (0.25, 1e-5), (2.0, 1e-6)])
    def test_levels_nested_and_anchored(self, sector_right, d, tol):
        # each halving keeps every node of the level before it, bit for bit,
        # and r = 1 is a node of every level
        levels = [sc.build_contour(sector_right, d=d, tol=tol, step=2.0 ** -k)
                  for k in range(7)]
        anchor = np.exp(1j * sector_right.theta).tobytes()
        for coarse, fine in zip(levels, levels[1:]):
            fine_nodes = {z.tobytes() for z in fine.nodes}
            assert all(z.tobytes() in fine_nodes for z in coarse.nodes)
            assert len(fine) == 2 * len(coarse) - 2
        for level in levels:
            assert anchor in {z.tobytes() for z in level.nodes}
            up = np.abs(level.nodes[:len(level) // 2])
            assert up[0] <= level.r_min and up[-1] >= level.r_max

    def test_step_floor_raises(self, sector_right, monkeypatch):
        # a tolerance below rounding is never certified: the step is halved
        # from 1 down to 2^-9, and there the builder gives up
        steps = []
        lattice = funcalc._lattice

        def recording(sector, r_min, r_max, step):
            steps.append(step)
            return lattice(sector, r_min, r_max, step)

        monkeypatch.setattr(funcalc, "_lattice", recording)
        with pytest.raises(sc.ContourError, match="not reached at step 0.00195312"):
            sc.build_contour(sector_right, d=1.0, tol=1e-17)
        assert steps == [2.0 ** -k for k in range(10)]

    def test_reference_scene_lengths_pinned(self, sector_right):
        # calc (tol 1e-5) and bip (tol 1e-6, n_reg 1000) contours of the
        # reference scene; every one is accepted at step 1/4
        calc = []
        for s in (0.25, 0.5, 1.0, 2.0):
            f = sc.power_quotient(s)
            f.validate(sector_right)
            calc.append(sc.build_contour(sector_right, d=f.d, tol=1e-5, c_f=f.c_f))
        bip = []
        for t in np.linspace(-5.0, 5.0, 11):
            f = sc.imaginary_power_regularized(float(t), 1000)
            f.validate(sector_right)
            bip.append(sc.build_contour(sector_right, d=1.0, tol=1e-6, c_f=f.c_f))
        assert [len(c) for c in calc] == [570, 298, 162, 98]
        assert [len(c) for c in bip] == [362, 346, 330, 314, 290, 274,
                                         290, 314, 330, 346, 362]
        assert {c.step for c in calc + bip} == {0.25}


class TestFOfSymbol:
    def test_x_independent_is_pointwise(self, sector_right, contour_d1):
        grid = sc.TorusGrid(n=1, points=16)
        expr = sc.parse_symbol("bracket(xi)^2+1", n=1)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=2)
        f = sc.power_quotient(1.0)
        fa = sc.f_of_symbol(calc.quantized_symbol, f, contour_d1)
        expected = f(calc.a_tab.values[..., 0, 0])
        assert np.max(np.abs(fa.values[..., 0, 0] - expected)) <= 1e-8

    def test_value_at_two(self, sector_right, contour_d1):
        grid = sc.TorusGrid(n=1, points=16)
        expr = sc.parse_symbol("bracket(xi)^2+1", n=1)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=2)
        fa = sc.f_of_symbol(calc.quantized_symbol, sc.power_quotient(1.0), contour_d1)
        mid = grid.xi_max
        assert fa.values[0, mid, 0, 0] == pytest.approx(2.0 / 9.0, abs=1e-8)

    def test_linearity_on_shared_contour(self, calc16, contour_d1):
        f = sc.power_quotient(1.0)
        g = sc.HFun(lambda z: z / (1.0 + z) ** 2 * (1.0 / (1.0 + z)), d=1.0,
                    name="cubed")
        combo = sc.HFun(lambda z: 2.0 * f(z) - 3.0 * g(z), d=1.0, name="combo")
        fa = sc.f_of_symbol(calc16.quantized_symbol, f, contour_d1)
        ga = sc.f_of_symbol(calc16.quantized_symbol, g, contour_d1)
        ca = sc.f_of_symbol(calc16.quantized_symbol, combo, contour_d1)
        diff = np.max(np.abs(ca.values - (2.0 * fa.values - 3.0 * ga.values)))
        assert diff <= 1e-10 * max(ca.sup_norm(), 1e-30)


class TestOperatorOracle:
    def test_diagonal_multiplier(self, sector_right, contour_d1):
        grid = sc.TorusGrid(n=1, points=16)
        A = sc.quantize(sc.sample(sc.parse_symbol("bracket(xi)^2+1", n=1), grid))
        f = sc.power_quotient(1.0)
        fA = sc.f_of_operator_oracle(A, f, contour_d1)
        expected = np.diag(f(2.0 + grid.xi_axis.astype(complex) ** 2))
        assert np.max(np.abs(fA - expected)) <= 1e-8

    def test_multiplicativity(self, calc16, sector_right):
        A = calc16.quantized_symbol
        f = sc.power_quotient(1.0)
        g = sc.power_quotient(0.5)
        fg = sc.HFun(lambda z: f(z) * g(z), d=1.5, name="fg")
        for fn in (f, g, fg):
            fn.ensure_cf(sector_right)
        cf = sc.build_contour(sector_right, d=1.0, tol=1e-9, c_f=f.c_f)
        cg = sc.build_contour(sector_right, d=0.5, tol=1e-9, c_f=g.c_f)
        cfg = sc.build_contour(sector_right, d=1.5, tol=1e-9, c_f=fg.c_f)
        lhs = sc.f_of_operator_oracle(A, fg, cfg)
        rhs = sc.f_of_operator_oracle(A, f, cf) @ sc.f_of_operator_oracle(A, g, cg)
        assert sc.operator_norm(lhs - rhs) <= 1e-7

    def test_resolvent_consistency(self, calc16, sector_right):
        # f_mu(A) = A (mu - A)^{-1} (1 + A)^{-1} computed by direct LU
        mu = -25.0
        A = calc16.quantized_symbol.matrix
        f = resolvent_quotient(mu)
        f.ensure_cf(sector_right)
        contour = sc.build_contour(sector_right, d=1.0, tol=1e-9, c_f=f.c_f)
        via_quad = sc.f_of_operator_oracle(A, f, contour)
        inv_mu = -dense_resolvent(A, mu)
        inv_one = dense_resolvent(A, -1.0)
        direct = A @ inv_mu @ inv_one
        assert sc.operator_norm(via_quad - direct) <= 1e-7

    def test_cor302_equivalence_small(self, calc16, sector_right):
        f = sc.power_quotient(1.0)
        f.ensure_cf(sector_right)
        contour = sc.build_contour(sector_right, d=1.0, tol=1e-8, c_f=f.c_f)
        fine = sc.build_contour(sector_right, d=1.0, tol=1e-9, c_f=f.c_f,
                                step=contour.step / 4)
        fa = sc.f_of_symbol(calc16.quantized_symbol, f, contour)
        oracle = sc.f_of_operator_oracle(calc16.quantized_symbol, f, fine)
        rel = sc.operator_norm(sc.quantize(fa).matrix - oracle) / sc.operator_norm(oracle)
        assert rel <= 1e-6

    @pytest.mark.parametrize("f, tol", [
        (sc.power_quotient(0.25), 1e-5), (sc.power_quotient(2.0), 1e-5),
        (sc.imaginary_power_regularized(0.0, 1000), 1e-6),
        (sc.imaginary_power_regularized(5.0, 1000), 1e-6),
    ], ids=["s0.25", "s2", "t0", "t5"])
    def test_lattice_matches_gauss_legendre(self, sector_right, f, tol):
        # the slow path the lattice replaced: composite Gauss-Legendre with 16
        # nodes per decade over the same radii
        grid = sc.TorusGrid(n=1, points=32)
        expr = sc.shift(sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1), 5.0)
        A = sc.quantize(sc.sample(expr, grid))
        f.ensure_cf(sector_right)
        lattice = sc.build_contour(sector_right, d=f.d, tol=tol, c_f=f.c_f)
        gl16 = gl_contour(sector_right, lattice.r_min, lattice.r_max, 16)
        diff = sc.f_of_operator_oracle(A, f, lattice) - sc.f_of_operator_oracle(A, f, gl16)
        assert np.linalg.norm(diff, 2) <= tol


    def test_every_node_residual_checked(self, calc16, contour_d1, monkeypatch):
        # One corrupted inverse in the second chunk: the full spot check only
        # sees the first node of the first chunk, so the per-node residual
        # has to catch it.
        real_inv = np.linalg.inv
        calls = []

        def corrupting_inv(a):
            out = real_inv(a)
            calls.append(a.shape)
            if len(calls) == 2:
                out[5] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(np.linalg, "inv", corrupting_inv)
        with pytest.raises(sc.SingularOperatorError):
            sc.f_of_operator_oracle(calc16.quantized_symbol, sc.power_quotient(1.0),
                                    contour_d1)
        assert len(calls) == 2


def _literal_dunford(M, nodes, coeffs, lower=None, k=1):
    """(i/2 pi) sum_q (coeffs[f, q] X_q + lower[f, q] P conj(X_q) P) for
    X_q = inv(M - lambda_q I), one node at a time, with P conj(.) P formed
    as the flip of the (mode, component) blocks' mode indices."""
    eye = np.eye(M.shape[0], dtype=complex)
    m = M.shape[0] // k
    out = np.zeros((coeffs.shape[0],) + M.shape, dtype=complex)
    for q, lam in enumerate(nodes):
        inv = np.linalg.inv(M - lam * eye)
        blocks = inv.reshape(m, k, m, k)
        mirror = np.conj(blocks[::-1, :, ::-1, :]).reshape(M.shape)
        for f in range(coeffs.shape[0]):
            out[f] += coeffs[f, q] * inv
            if lower is not None:
                out[f] += lower[f, q] * mirror
    return 1j / (2.0 * np.pi) * out


def _plain(M, nodes, coeffs):
    """The engine with no lower side: the plain sum over ``nodes``."""
    return _accumulate_resolvents(M, nodes, coeffs, np.zeros_like(coeffs), None)


class TestDunfordEngine:
    """The chunked engine against the literal node-by-node sum."""

    @pytest.fixture(scope="class")
    def family_coeffs(self, contour_d1):
        family = [sc.power_quotient(1.0), resolvent_quotient(-25.0),
                  sc.imaginary_power_regularized(1.0, 100)]
        return np.array([contour_d1.weights * f(contour_d1.nodes) for f in family])

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("count", [1, 2 * _CHUNK + 3, 5 * _CHUNK])
    def test_matches_literal_sum(self, calc16, contour_d1, family_coeffs, rows, count):
        M = calc16.quantized_symbol.matrix
        nodes, coeffs = contour_d1.nodes[:count], family_coeffs[:rows, :count]
        got = _plain(M, nodes, coeffs)
        ref = _literal_dunford(M, nodes, coeffs)
        assert got.shape == ref.shape == (rows,) + M.shape
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))

    def test_zero_columns_skipped(self, calc16, contour_d1, family_coeffs,
                                  monkeypatch):
        M = calc16.quantized_symbol.matrix
        count = 3 * _CHUNK + 1
        nodes, coeffs = contour_d1.nodes[:count], family_coeffs[:, :count].copy()
        zero = [0, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 5]
        coeffs[:, zero] = 0.0
        coeffs[1, 3] = 0.0  # zero in one row only: the node still counts
        ref = _literal_dunford(M, nodes, coeffs)
        real_inv = np.linalg.inv
        inverted = []

        def counting_inv(a):
            inverted.append(a.shape[0])
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        got = _plain(M, nodes, coeffs)
        assert sum(inverted) == count - len(zero)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))

    @pytest.mark.parametrize("k", [1, 2])
    def test_lower_side_adds_the_mirrored_resolvent(self, calc16, contour_d1,
                                                    family_coeffs, k):
        # a general matrix, no symmetry: the lower side adds
        # lower[f, q] P conj(X_q) P whatever M is; a node with only a lower
        # coefficient is inverted too, and a node with neither is skipped
        M = np.random.default_rng(3).standard_normal((14, 14)) + 20.0 * np.eye(14)
        count = 2 * _CHUNK + 3
        nodes = contour_d1.nodes[:count]
        coeffs = family_coeffs[:, :count].copy()
        lower = family_coeffs[:, count:2 * count][:, ::-1].copy()
        coeffs[:, [1, _CHUNK + 2]] = 0.0
        lower[:, [_CHUNK + 2, 2 * _CHUNK]] = 0.0
        got = _accumulate_resolvents(M, nodes, coeffs, lower, k)
        ref = _literal_dunford(M, nodes, coeffs, lower, k)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))

    @staticmethod
    def invisible_to_check_vector(dim, node=None, M=None):
        """np.linalg.inv plus u v^H with v^H x = 0 for the engine's check
        vector x, at every node or at one: each node's unit-vector residual
        still holds, the full identity does not."""
        x = _check_vector(dim)
        u = np.zeros(dim, dtype=complex)
        u[0] = 1.0
        v = u - x * np.conj(x[0])
        real_inv = np.linalg.inv
        corrupted = []

        def inv(a):
            out = real_inv(a)
            for q in range(len(out)):
                if node is None or a[q, 0, 0] == M[0, 0] - node:
                    out[q] += np.outer(u, v.conj())
                    corrupted.append((a[q].copy(), out[q].copy()))
            return out

        def unit_residuals():
            return [np.linalg.norm(a @ (y @ x) - x) for a, y in corrupted]
        return inv, unit_residuals

    def test_spot_residual_catches_what_the_unit_vector_misses(
            self, calc16, contour_d1, monkeypatch):
        M = calc16.quantized_symbol.matrix
        inv, unit_residuals = self.invisible_to_check_vector(M.shape[0])
        monkeypatch.setattr(np.linalg, "inv", inv)
        with pytest.raises(sc.SingularOperatorError,
                           match=r"resolvent residual \S+ at lambda"):
            sc.f_of_operator_oracle(calc16.quantized_symbol, sc.power_quotient(1.0),
                                    contour_d1)
        assert 0 < len(unit_residuals()) <= _CHUNK
        assert max(unit_residuals()) <= _SPOT_TOL

    def test_spot_residual_on_each_rows_first_node(self, calc16, sector_right,
                                                   monkeypatch):
        # the d = 2 row starts inside the d = 1/4 row's range: its first node
        # is spot-checked though it is not the call's first node
        pairs = _calc_contours(sector_right)
        first = pairs[-1][1].nodes[0]
        assert first in pairs[0][1].nodes[1:]
        M = calc16.quantized_symbol.matrix
        inv, unit_residuals = self.invisible_to_check_vector(M.shape[0], first, M)
        monkeypatch.setattr(np.linalg, "inv", inv)
        with pytest.raises(sc.SingularOperatorError,
                           match=r"resolvent residual \S+ at lambda"):
            sc.dunford_family(calc16.quantized_symbol, pairs)
        assert len(unit_residuals()) == 1
        assert max(unit_residuals()) <= _SPOT_TOL

    def test_working_set_bounded_by_chunk(self, sector_right):
        # The engine holds about two chunk stacks of n x n matrices (the
        # shifted buffer and one chunk's inverses); the peak must not grow
        # with the contour or hold extra full-stack copies.
        grid = sc.TorusGrid(n=1, points=128)
        expr = sc.shift(sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1), 5.0)
        A = sc.quantize(sc.sample(expr, grid))
        dim = A.matrix.shape[0]
        contour = sc.build_contour(sector_right, d=1.0, tol=1e-4)
        assert dim == 127 and len(contour) > 4 * _CHUNK
        f = sc.power_quotient(1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sc.f_of_operator_oracle(A, f, contour)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (2 * _CHUNK + 5) * dim * dim * 16


def _relative_frobenius(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def _calc_contours(sector, tol=1e-5):
    """The reference scene's calc family: four nested power-quotient contours."""
    family = [sc.power_quotient(s) for s in (0.25, 0.5, 1.0, 2.0)]
    for f in family:
        f.validate(sector)
    return [(f, sc.build_contour(sector, d=f.d, tol=tol, c_f=f.c_f)) for f in family]


def _upper_nodes(contours):
    """The distinct nodes of ``contours`` with each lower-ray node taken as
    its conjugate: the nodes a mirrored call inverts."""
    every = np.concatenate([c.nodes for c in contours])
    return len(np.unique(np.where(every.imag < 0, every.conj(), every)))


class TestDunfordFamily:
    """One engine call over the union of the members' nodes, its lower ray
    mirrored, against each member's two-ray sum node by node (the slow
    path)."""

    @staticmethod
    def against_slow_path(A, pairs):
        ops, inverted, mirrored = sc.dunford_family(A, pairs)
        assert len(ops) == len(pairs)
        assert mirrored == isinstance(A, sc.QuantOp)
        for (f, contour), op in zip(pairs, ops):
            slow = two_ray_dunford(A, f, contour)
            assert _relative_frobenius(op, slow) <= 1e-12
        return inverted

    @staticmethod
    def distinct(pairs):
        return len(np.unique(np.concatenate([c.nodes for _, c in pairs])))

    def test_calc_contours(self, calc16, sector_right):
        pairs = _calc_contours(sector_right)
        assert [len(c) for _, c in pairs] == [570, 298, 162, 98]
        assert self.distinct(pairs) == 570
        inverted = self.against_slow_path(calc16.quantized_symbol, pairs)
        assert inverted == _upper_nodes([c for _, c in pairs]) == 285

    def test_plain_matrix_integrates_both_rays(self, calc16, sector_right):
        # a plain ndarray carries no mode layout: no mirror
        pairs = _calc_contours(sector_right)
        inverted = self.against_slow_path(calc16.quantized_symbol.matrix, pairs)
        assert inverted == self.distinct(pairs) == 570

    def test_explicit_steps(self, calc16, sector_right):
        # a step-1/2 lattice inside a longer step-1/4 one, and the reverse
        family = [sc.power_quotient(1.0), resolvent_quotient(-25.0),
                  sc.imaginary_power_regularized(2.0, 100)]
        pairs = [(family[0], sc.build_contour(sector_right, d=1.0, tol=1e-6, step=0.5)),
                 (family[1], sc.build_contour(sector_right, d=1.0, tol=1e-9, step=0.25)),
                 (family[2], sc.build_contour(sector_right, d=1.0, tol=1e-4, step=0.5))]
        inverted = self.against_slow_path(calc16.quantized_symbol, pairs)
        assert 2 * inverted == self.distinct(pairs) < sum(len(c) for _, c in pairs)
        assert inverted == _upper_nodes([c for _, c in pairs])

    def test_long_family_is_one_engine_call(self, calc16, sector_right, monkeypatch):
        # however long the family, one engine call over one union: no node
        # is inverted twice
        ts = np.linspace(-5.0, 5.0, 19)
        pairs = []
        for t in ts:
            f = sc.imaginary_power_regularized(float(t), 1000)
            f.validate(sector_right)
            pairs.append((f, sc.build_contour(sector_right, d=1.0, tol=1e-6, c_f=f.c_f)))
        rows = []
        engine = funcalc._accumulate_resolvents

        def recording(M, nodes, coeffs, lower, k):
            rows.append(len(coeffs))
            return engine(M, nodes, coeffs, lower, k)

        monkeypatch.setattr(funcalc, "_accumulate_resolvents", recording)
        inverted = self.against_slow_path(calc16.quantized_symbol, pairs)
        assert rows == [19]
        assert inverted == _upper_nodes([c for _, c in pairs])

    def test_node_on_one_members_range_raises(self, sector_right):
        # an eigenvalue exactly at a node that only the longer contour holds
        short = sc.build_contour(sector_right, d=1.0, tol=1e-2, step=0.5)
        long = sc.build_contour(sector_right, d=1.0, tol=1e-8, step=0.5)
        outside = long.nodes[np.abs(long.nodes) > 10.0 * short.r_max]
        dim = 12
        M = np.triu(np.full((dim, dim), 0.5 + 0.25j), 1) + np.diag(
            np.append(np.arange(1.0, dim), outside[0])).astype(complex)
        f = sc.power_quotient(1.0)
        sc.f_of_operator_oracle(M, f, short)
        with pytest.raises(sc.SingularOperatorError):
            sc.dunford_family(M, [(f, short), (f, long)])

    def test_working_set_bounded_by_family(self, sector_right):
        # one f(A) per member beside the engine's two chunk stacks: a second
        # (F, n, n) stack, such as per-member copies, would break the bound
        grid = sc.TorusGrid(n=1, points=128)
        expr = sc.shift(sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1), 5.0)
        A = sc.quantize(sc.sample(expr, grid))
        dim = A.matrix.shape[0]
        family = [sc.imaginary_power_regularized(float(t), 100)
                  for t in np.linspace(-1.0, 1.0, 40)]
        contour = sc.build_contour(sector_right, d=1.0, tol=1e-2, step=1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ops, _, mirrored = sc.dunford_family(A, [(f, contour) for f in family])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert mirrored and ops.shape == (len(family), dim, dim)
        assert peak <= (2 * _CHUNK + len(family) + 5) * dim * dim * 16


def regularized_imaginary_power(calc, t, n_reg, quad_tol=1e-8):
    """f_n(a) for f_n(z) = z^{it} psi_n(z), the principal branch of z^{it}
    taken on the sector complement."""
    f_n = sc.imaginary_power_regularized(t, n_reg)
    f_n.ensure_cf(calc.sector)
    contour = sc.build_contour(calc.sector, d=1.0, tol=quad_tol, c_f=f_n.c_f)
    return sc.f_of_symbol(calc.quantized_symbol, f_n, contour)


class TestImaginaryPowers:
    def test_t_zero_is_regularizer(self, sector_right):
        grid = sc.TorusGrid(n=1, points=8, xi_max=2)
        expr = sc.parse_symbol("2", n=1)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=0),
                                       sector_right, N=1)
        sym = regularized_imaginary_power(calc, 0.0, 1000)
        assert np.max(np.abs(sym.values - sc.regularizer_value(2.0, 1000))) <= 1e-7

    def test_principal_branch_at_e(self, sector_right):
        grid = sc.TorusGrid(n=1, points=8, xi_max=2)
        expr = sc.parse_symbol("2.718281828459045", n=1)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=0),
                                       sector_right, N=1)
        sym = regularized_imaginary_power(calc, np.pi, 1000)
        expected = -1.0 * sc.regularizer_value(np.e, 1000)
        assert np.max(np.abs(sym.values[..., 0, 0] - expected)) <= 1e-6

    def test_growth_rate_below_angle(self, calc16, sector_right):
        norms = []
        ts = (-2.0, -1.0, 0.0, 1.0, 2.0)
        for t in ts:
            f = sc.imaginary_power_regularized(t, 100)
            f.ensure_cf(sector_right)
            contour = sc.build_contour(sector_right, d=1.0, tol=1e-6, c_f=f.c_f)
            norms.append(sc.operator_norm(
                sc.f_of_operator_oracle(calc16.quantized_symbol, f, contour)))
        rate = float(np.polyfit(np.abs(ts), np.log(norms), 1)[0])
        assert rate <= sector_right.theta + 0.2


class TestHinfProbe:
    def test_single_member(self, calc16, sector_right):
        report = sc.hinf_bound_probe(calc16.quantized_symbol,
                                     [sc.power_quotient(1.0)], sector_right,
                                     quad_tol=1e-6)
        assert len(report.rows) == 1
        assert report.M == pytest.approx(report.rows[0][3])
        assert np.isfinite(report.M)

    def test_scaling_leaves_ratio(self, calc16, sector_right):
        f = sc.power_quotient(1.0)
        doubled = sc.HFun(lambda z: 2.0 * f(z), f.d, name="2.0*" + f.name)
        report = sc.hinf_bound_probe(calc16.quantized_symbol, [f, doubled],
                                     sector_right, quad_tol=1e-6)
        r1, r2 = report.rows[0][3], report.rows[1][3]
        assert r2 == pytest.approx(r1, rel=1e-10)

    def test_family_stability(self, calc16, sector_right):
        base = [sc.power_quotient(s) for s in (0.5, 1.0, 2.0)]
        ext = base + [sc.power_quotient(s) for s in (0.75, 1.5)] + \
            [sc.imaginary_power_regularized(t, 100) for t in (-1.0, 1.0)]
        m_base = sc.hinf_bound_probe(calc16.quantized_symbol, base, sector_right,
                                     quad_tol=1e-6).M
        m_ext = sc.hinf_bound_probe(calc16.quantized_symbol, ext, sector_right,
                                    quad_tol=1e-6).M
        assert m_ext >= m_base - 1e-12
        assert m_ext <= 2.0 * m_base

    @staticmethod
    def probe_on_own_contours(A, family, sector, tol, monkeypatch):
        """The probe's report, after checking that it inverts each distinct
        upper-ray node of the members' own contours once and that each norm
        is the two-ray sum's on that member's own contour."""
        for f in family:
            f.validate(sector)
        contours = [sc.build_contour(sector, d=f.d, tol=tol, c_f=f.c_f) for f in family]
        expected = [sc.operator_norm(two_ray_dunford(A, f, contour))
                    for f, contour in zip(family, contours)]
        real_inv = np.linalg.inv
        inverted = []

        def counting_inv(a):
            inverted.append(a.shape[0] if a.ndim == 3 else 1)
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        report = sc.hinf_bound_probe(A, family, sector, quad_tol=tol)
        assert report.mirrored
        assert sum(inverted) == report.inverted == _upper_nodes(contours)
        assert report.nodes == sum(map(len, contours))
        for row, ref in zip(report.rows, expected):
            assert row[2] == pytest.approx(ref, rel=1e-14, abs=0.0)
        return report

    def test_shared_contour_inverted_once(self, calc16, sector_right, monkeypatch):
        # each member on its own contour; a node the contours share is
        # inverted once for the whole family
        family = [sc.power_quotient(1.0), resolvent_quotient(-25.0),
                  sc.imaginary_power_regularized(1.0, 100)]
        self.probe_on_own_contours(calc16.quantized_symbol, family, sector_right, 1e-6,
                                   monkeypatch)

    def test_equal_decay_members_keep_their_own_contours(self, calc16, sector_right,
                                                         monkeypatch):
        # two members of decay 1: power_quotient's contour is the shorter, and
        # is not widened to the regularized power's c_f
        family = [sc.power_quotient(1), sc.imaginary_power_regularized(1.0, 1000)]
        report = self.probe_on_own_contours(calc16.quantized_symbol, family,
                                            sector_right, 1e-5, monkeypatch)
        assert (report.nodes, report.inverted) == (428, 133)

    def test_matrices_match_f_of_symbol(self, calc16, sector_right):
        # the slow path: f_of_symbol of each member on its own contour
        family = [sc.power_quotient(s) for s in (0.5, 1.0, 2.0)] + \
            [sc.imaginary_power_regularized(t, 100) for t in (-1.0, 1.0)]
        A = calc16.quantized_symbol
        report = sc.hinf_bound_probe(A, family, sector_right, quad_tol=1e-5)
        assert len(report.ops) == len(report.rows) == len(family)
        for f, row, op in zip(family, report.rows, report.ops):
            assert row[0] == f.name
            contour = sc.build_contour(sector_right, d=f.d, tol=1e-5, c_f=f.c_f)
            slow = sc.f_of_symbol(A, f, contour).values
            fast = sc.extract_symbol(sc.QuantOp(A.grid, A.k, op)).values
            assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    def test_empty_family_rejected(self, calc16, sector_right):
        with pytest.raises(ValueError):
            sc.hinf_bound_probe(calc16.quantized_symbol, [], sector_right)


class TestSeminormBound:
    def test_mq_ratio_stable_under_family_doubling(self, calc16, sector_right):
        params0 = sc.SymbolClassParams(m=0.0)
        seminorms = [((0,), (0,)), ((1,), (0,)), ((0,), (1,))]
        margin = calc16.default_interior_margin

        def ratios(family):
            out = {q: 0.0 for q in seminorms}
            for f in family:
                f.ensure_cf(sector_right)
                contour = sc.build_contour(sector_right, d=f.d, tol=1e-6, c_f=f.c_f)
                fa = sc.f_of_symbol(calc16.quantized_symbol, f, contour)
                sup = f.sup_norm(sector_right)
                for q in seminorms:
                    val = sc.grid_seminorm(fa, q[0], q[1], params0,
                                           interior_margin=margin)
                    out[q] = max(out[q], val / sup)
            return out

    # family of s-powers; doubling it must not move any M_q by more than 10%
        base = ratios([sc.power_quotient(s) for s in (0.5, 1.0)])
        ext = ratios([sc.power_quotient(s) for s in (0.5, 1.0, 0.75, 1.5)])
        for q in seminorms:
            assert ext[q] >= base[q] - 1e-12
            assert ext[q] <= 1.1 * base[q]


class TestBnPart:
    def test_parametrix_part_approaches_oracle(self, sector_right, contour_d1):
        # The paper's split f(a) = (i/2pi) int f b^N + remainder part: the
        # b^N part alone moves toward f(A) as N grows, and for N = 1 it is
        # the pointwise f(a(x, xi)) by the scalar Cauchy formula.
        grid = sc.TorusGrid(n=1, points=32)
        expr = sc.parse_symbol("(2+sin(x1))*(1+xi1^2)+5", n=1)
        f = sc.power_quotient(1)
        calcs = [sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                         sector_right, N=N) for N in (1, 2, 3, 4)]
        fA = sc.f_of_operator_oracle(calcs[0].quantized_symbol, f, contour_d1)
        parts = [sc.bn_part(calc, f, contour_d1.nodes, contour_d1.weights)
                 for calc in calcs]
        pointwise = f(calcs[0].a_tab.values)
        assert np.max(np.abs(parts[0].values - pointwise)) <= \
            1e-7 * np.max(np.abs(pointwise))
        errors = [np.linalg.norm(sc.quantize(part).matrix - fA, 2) / np.linalg.norm(fA, 2)
                  for part in parts]
        assert all(later < earlier for earlier, later in zip(errors, errors[1:])), errors


class TestDeformedContour:
    def test_deformed_equals_straight(self, sector_right):
        grid = sc.TorusGrid(n=1, points=32)
        expr = sc.shift(sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1), 5.0)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=3)
        f = sc.power_quotient(1.0)
        R = 2.0 * (2.0 * calc.sup_a)
        rays = gl_contour(calc.sector, R, 1e12, 24)
        straight = sc.bn_part(calc, f, rays.nodes, rays.weights)
        deformed = bn_f_deformed(calc, f, R)
        scale = straight.sup_norm()
        assert (straight - deformed).sup_norm() <= 1e-6 * scale

    def test_n1_deformed_part_is_scalar_cauchy_integral(self, sector_right):
        # at N = 1, b^N = (a - lambda)^{-1}: the deformed b^N part must be
        # (i/2pi) sum_q w_q f(lambda_q) / (a - lambda_q) on the straight
        # rays beyond R, formed here from a(x, xi) alone
        grid = sc.TorusGrid(n=1, points=16)
        expr = sc.shift(sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1), 5.0)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=1)
        f = sc.power_quotient(1.0)
        R = 2.0 * (2.0 * calc.sup_a)
        rays = gl_contour(calc.sector, R, 1e12, 24)
        a = calc.a_tab.values[..., 0, 0]
        scalar = sum(w * f(lam) / (a - lam) for lam, w in zip(rays.nodes, rays.weights))
        scalar = 1j / (2.0 * np.pi) * scalar
        part = bn_f_deformed(calc, f, R).values[..., 0, 0]
        assert np.max(np.abs(part - scalar)) <= 1e-6 * np.max(np.abs(scalar))

    def test_radius_must_clear_symbol(self, calc16):
        with pytest.raises(ValueError):
            bn_f_deformed(calc16, sc.power_quotient(1.0), R=1.0)
