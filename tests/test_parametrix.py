"""Parametrix recursion, remainder decay, Neumann resolvent, radius R."""

import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import sectorcalc as sc
from sectorcalc import parametrix
from sectorcalc.grid import class_weighted_sup, conj_mirror
from sectorcalc.densela import _hoelder_bounds
from sectorcalc.quantop import QuantOp, extract_symbol, fft_rounding, mode_mirror, quantize
from sectorcalc.util import (fit_loglog_slope, japanese_bracket, multi_factorial,
                             multi_indices_of_order)

from reference import (apply_dxi, find_R_all_points, neumann_horner,
                       products_formed, unit_symbol)


def dense_reference(calc, lam):
    """Symbol of the LU resolvent (A - lambda)^{-1}, built outside the calculator."""
    X = sc.dense_resolvent(calc.quantized_symbol, lam)
    return extract_symbol(QuantOp(calc.grid, calc.k, X))


def remainder_symbol(calc, lam):
    """The symbol of the remainder matrix at lambda."""
    return extract_symbol(QuantOp(calc.grid, calc.k, calc.remainder(lam).matrix))


def record_bytes(point):
    """Every field of a remainder record as bytes, for bitwise comparison."""
    return {f.name: np.asarray(getattr(getattr(point, f.name), "values",
                                       getattr(point, f.name))).tobytes()
            for f in dataclasses.fields(point)}


@pytest.fixture(scope="module")
def xind_calc(sector_right):
    grid = sc.TorusGrid(n=1, points=16)
    expr = sc.parse_symbol("bracket(xi)^2+1", n=1)
    return sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                   sector_right, N=3)


class TestRecursion:
    def test_b0_pointwise(self, sector_right):
        grid = sc.TorusGrid(n=1, points=8, xi_max=2)
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=2)
        b = calc.bj(-1.0)
        mid = grid.xi_max  # xi = 0 column
        assert b[0].values[0, mid, 0, 0] == pytest.approx(0.5)

    def test_x_independent_higher_terms_vanish(self, xind_calc):
        b = xind_calc.bj(-1.0)
        assert b[1].sup_norm() == 0.0
        assert b[2].sup_norm() == 0.0

    def test_b1_closed_form(self, calc32):
        # independent oracle: b_1 = -i b_0^3 (d_xi a)(d_x a) evaluated directly
        lam = -1.0
        b = calc32.bj(lam)
        grid = calc32.grid
        a = calc32.a_tab.values[..., 0, 0]
        da_xi = sc.sample(calc32.expr.diff(alpha=(1,)), grid).values[..., 0, 0]
        da_x = sc.sample(calc32.expr.diff(beta=(1,)), grid).values[..., 0, 0]
        oracle = -1j * (1.0 / (a - lam)) ** 3 * da_xi * da_x
        assert np.max(np.abs(b[1].values[..., 0, 0] - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_b1_value_at_reference_point(self, sector_right, var_laplace):
        # frozen from the closed form: b_0=1/5, d_xi a=4, d_x a=2 at (0,1,-1)
        grid = sc.TorusGrid(n=1, points=32)
        calc = sc.ParametrixCalculator(var_laplace, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=2)
        b1 = calc.bj(-1.0)[1]
        col = grid.xi_max + 1  # xi = +1
        assert b1.values[0, col, 0, 0] == pytest.approx(-0.064j, abs=1e-15)

    def test_b1_2d_against_direct_formula(self, sector_right):
        grid = sc.TorusGrid(n=2, points=8)
        expr = sc.parse_symbol("(2+sin(x1)*cos(x2))*(1+xi1^2+xi2^2)", n=2)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=2)
        lam = -2.0
        b1 = calc.bj(lam)[1].values[..., 0, 0]
        a = calc.a_tab.values[..., 0, 0]
        b0 = 1.0 / (a - lam)
        oracle = np.zeros_like(b0)
        for ax in range(2):
            alpha = tuple(1 if j == ax else 0 for j in range(2))
            da_xi = sc.sample(expr.diff(alpha=alpha), grid).values[..., 0, 0]
            da_x = sc.sample(expr.diff(beta=alpha), grid).values[..., 0, 0]
            oracle += -1j * b0 ** 3 * da_xi * da_x
        assert np.max(np.abs(b1 - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_lambda_inside_exclusion_rejected(self, calc32):
        with pytest.raises(sc.SectorcalcError):
            calc32.bj(1.0)  # on the positive axis, well below 2 sup|a|

    def test_resolvent_identity_pointwise(self, calc32):
        # b_0(lam) - b_0(mu) = (lam - mu) b_0(lam) b_0(mu) with b_0 = (a-lam)^{-1}
        lam, mu = -3.0 + 2j, -50.0
        b_lam = calc32.bj(lam)[0].values
        b_mu = calc32.bj(mu)[0].values
        lhs = b_lam - b_mu
        rhs = (lam - mu) * b_lam * b_mu
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def literal_terms(calc, terms, lam):
    """A term list evaluated factor by factor, left to right with @."""
    b0 = calc.b0_values(lam)
    acc = np.zeros_like(b0)
    for coeff, factors in terms:
        prod = b0 if factors[0] == ("b0",) else calc.derivative_tab(*factors[0][1:])
        for f in factors[1:]:
            prod = prod @ (b0 if f == ("b0",) else calc.derivative_tab(*f[1:]))
        acc = acc + coeff * prod
    return acc


def left_term_lists(n, N):
    """b_0 .. b_{N-1} from the left recursion (operands swapped),

        b_{j+1} = -sum_{|alpha|+k=j+1} (1/alpha!) d^alpha_xi b_k . D^alpha_x a . b_0,

    rebuilt here as an oracle: the calculator's one recursion must give the
    same b_j."""
    zero = (0,) * n
    lists = [[(1.0 + 0.0j, (("b0",),))]]
    for j in range(N - 1):
        acc = {}
        for total in range(1, j + 2):
            for alpha in multi_indices_of_order(n, total):
                scale = -((-1j) ** total) / multi_factorial(alpha)
                dxib = apply_dxi(lists[j + 1 - total], alpha, n)
                for coeff, factors in dxib:
                    key = factors + (("da", zero, tuple(alpha)), ("b0",))
                    acc[key] = acc.get(key, 0.0) + scale * coeff
        lists.append([(c, f) for f, c in sorted(acc.items()) if c != 0.0])
    return lists


def side_term_lists(calc, left):
    return left_term_lists(calc.grid.n, calc.N) if left else calc.term_lists


def rel_sup_diff(values, ref):
    return np.max(np.abs(values - ref)) / np.max(np.abs(ref))


MATRIX2 = "[[(2+sin(x1))*(1+xi1^2), bracket(xi)], [0, (2+cos(x1))*(1+xi1^2)]]"
# the benchmark's non-normal 3x3 scene, x-dependent and upper triangular
MATRIX3 = ("[[(2+sin(x1))*(1+xi1^2)+5, bracket(xi), 0], "
           "[0, (2+cos(x1))*(1+xi1^2)+5, bracket(xi)], [0, 0, bracket(xi)^2+5]]")


@pytest.fixture(scope="module", params=["calc32", "scalar2d", "jordan2", "matrix2",
                                        "matrix2_N4", "matrix3"])
def any_calc(request, sector_right):
    if request.param == "calc32":
        return request.getfixturevalue("calc32")
    if request.param == "scalar2d":
        grid = sc.TorusGrid(n=2, points=8)
        expr = sc.shift(
            sc.parse_symbol("(2+sin(x1)*cos(x2))*(1+xi1^2+xi2^2)", n=2), 3.0)
        return sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=3)
    params = sc.SymbolClassParams(m=2)
    if request.param == "jordan2":
        expr, params = sc.get_preset("jordan2", n=1)
    elif request.param == "matrix3":
        expr = sc.parse_symbol(MATRIX3, n=1, k=3)
    else:
        expr = sc.shift(sc.parse_symbol(MATRIX2, n=1, k=2), 2.0)
    # N=4: 52 terms, deeper shared prefixes than the 8 terms of N=3
    N = 4 if request.param == "matrix2_N4" else 3
    return sc.ParametrixCalculator(expr, sc.TorusGrid(n=1, points=16), params,
                                   sector_right, N=N)


class TestCompiledTerms:
    """The compiled b^N and b_j against the term lists multiplied out: the
    calculator's own lists (right) and the left recursion's (left)."""

    @pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
    def test_assemble_bN_matches_literal_sum(self, any_calc, left):
        calc = any_calc
        lam = complex(calc.sector.boundary_point(20.0, upper=False))
        ref = sum(literal_terms(calc, terms, lam)
                  for terms in side_term_lists(calc, left))
        assert rel_sup_diff(calc.assemble_bN(lam).values, ref) <= 1e-13

    @pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
    def test_bj_matches_literal_terms(self, any_calc, left):
        calc = any_calc
        lam = -4.0 + 3.0j
        for b, terms in zip(calc.bj(lam), side_term_lists(calc, left)):
            ref = literal_terms(calc, terms, lam)
            if np.max(np.abs(ref)) == 0.0:
                assert np.max(np.abs(b.values)) == 0.0
            else:
                assert rel_sup_diff(b.values, ref) <= 1e-13

    def test_grid_shaped_lambda_matches_literal_sum(self, any_calc):
        # one lambda per grid node, as bn_f_deformed passes them
        calc = any_calc
        rho = 2.0 * calc.a_tab.spectral_norms()
        angles = np.linspace(-1.4, 1.4, rho.size).reshape(rho.shape)
        lam = rho * np.exp(1j * angles)
        ref = literal_terms(calc, calc.bN_terms, lam)
        assert rel_sup_diff(calc.evaluate(calc.compiled_bN, lam), ref) <= 1e-13


# The benchmark's symbols and the CI configs' parametrix symbols, at P = 16:
# (preset name or symbol text, dimension, shift).  Each is a real operator's
# symbol, a(x, -xi) = conj a(x, xi).
MIRRORED = {
    "ref1d": ("variable_laplace", 1, 5.0),
    "scene2d": ("variable_laplace", 2, 5.0),
    "matrix3": (MATRIX3, 1, 0.0),
    "matrix_cfg": ("[[(2+sin(x1))*(1+xi1^2)+2, bracket(xi)], "
                   "[0, (2+cos(x1))*(1+xi1^2)+2]]", 1, 0.0),
    "jordan2": ("jordan2", 1, 0.0),
    "minus_cfg": ("(2-sin(x1))*(1+xi1^2) - bracket(xi)/(3-cos(x1)) + 5", 1, 5.0),
}
# a(x, -xi) != conj a(x, xi): b^N at conj lambda is no mirror
ASYMMETRIC = {"imag_shift": "(2+sin(x1))*(1+xi1^2)+5+2*i",
              "odd_in_xi": "(2+sin(x1))*(1+xi1^2)+5+xi1"}
MIRROR_RADII = (1.0, 8.0, 100.0, 1e4)


def calc_of(sector, text, n=1, shift=0.0, N=3, points=16):
    """Calculator of a preset name or a symbol text (m = 2), by default
    N = 3 at P = 16."""
    if "(" in text:
        expr, params = sc.parse_symbol(text, n=n), sc.SymbolClassParams(m=2)
    else:
        expr, params = sc.get_preset(text, n=n)
    if shift:
        expr = sc.shift(expr, shift)
    return sc.ParametrixCalculator(expr, sc.TorusGrid(n=n, points=points), params,
                                   sector, N=N)


def eval_spy(calc, monkeypatch):
    """The lambdas at which ``calc`` evaluates a compiled term list, in call order."""
    lams = []
    orig = calc.evaluate

    def spy(compiled, lam):
        lams.append(lam)
        return orig(compiled, lam)

    monkeypatch.setattr(calc, "evaluate", spy)
    return lams


def partner_bN(calc, lam):
    """b^N of the resolvent at conj lambda, handed the one at lambda."""
    upper = calc.leibniz_resolvent(lam)
    return calc.leibniz_resolvent(lam.conjugate(), upper=upper).b_n.values


class TestConjugateMirror:
    """The lower-ray b^N as the mirror of the upper-ray one, against the term
    list evaluated at conj lambda."""

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    def test_mirror_equals_direct_evaluation(self, sector_right, monkeypatch, name):
        calc = calc_of(sector_right, *MIRRORED[name])
        lams = eval_spy(calc, monkeypatch)
        expected = []
        for rad in MIRROR_RADII:
            lam = complex(calc.sector.boundary_point(rad))
            mirrored = partner_bN(calc, lam)
            direct = calc.evaluate(calc.compiled_bN, lam.conjugate())
            assert np.array_equal(mirrored, direct), rad
            expected += [lam, lam.conjugate()]
        assert calc.conj_symmetric
        assert lams == expected  # the mirrored b^N evaluated nothing

    @pytest.mark.parametrize("name", sorted(ASYMMETRIC))
    def test_asymmetric_symbol_evaluates_every_lambda(self, sector_right,
                                                      monkeypatch, name):
        calc = calc_of(sector_right, ASYMMETRIC[name])
        lams = eval_spy(calc, monkeypatch)
        points = [complex(lam) for lam in calc.sector.ray_points(MIRROR_RADII)]
        for lam in points[0::2]:
            partner_bN(calc, lam)
        assert not calc.conj_symmetric
        assert lams == points

    @pytest.mark.parametrize("name", sorted(ASYMMETRIC))
    def test_forced_gate_gives_a_wrong_mirror(self, sector_right, name):
        # the comparison above can fail: on these symbols the mirror is not
        # b^N at conj lambda
        calc = calc_of(sector_right, ASYMMETRIC[name])
        calc.conj_symmetric = True
        lam = complex(calc.sector.boundary_point(8.0))
        mirrored = partner_bN(calc, lam)
        direct = calc.evaluate(calc.compiled_bN, lam.conjugate())
        assert rel_sup_diff(mirrored, direct) > 1e-3

    @pytest.mark.parametrize("name, rad, tol, method", [
        ("ref1d", 64.0, 1e-300, "neumann->dense"),
        ("slow_decay_calc", 8.0, 1e-11, "dense")])
    def test_dense_partner_is_computed(self, request, sector_right, monkeypatch,
                                       name, rad, tol, method):
        # the partner of a row that is not Neumann mirrors nothing: it
        # evaluates b^N at conj lambda itself, and its row is the one computed
        # with no partner (an unreachable tol forces the rescue)
        calc = (calc_of(sector_right, *MIRRORED[name]) if name in MIRRORED
                else request.getfixturevalue(name))
        lams = eval_spy(calc, monkeypatch)
        lam = complex(calc.sector.boundary_point(rad))
        upper = calc.leibniz_resolvent(lam, tol=tol)
        lower = calc.leibniz_resolvent(lam.conjugate(), tol=tol, upper=upper)
        alone = calc.leibniz_resolvent(lam.conjugate(), tol=tol)
        assert calc.conj_symmetric and upper.diagnostics["method"] == method
        assert lams == [lam, lam.conjugate(), lam.conjugate()]
        assert lower.diagnostics == alone.diagnostics
        for got, want in ((lower.matrix, alone.matrix),
                          *((getattr(lower, f).values, getattr(alone, f).values)
                            for f in ("symbol", "s_n", "b_n", "r_n"))):
            assert got.tobytes() == want.tobytes()

    def test_wrong_partner_is_rejected(self, sector_right):
        # upper must be the resolvent at conj lambda: at lambda itself, or at
        # the conjugate of another radius, the mirror would be another b^N
        calc = calc_of(sector_right, *MIRRORED["ref1d"])
        lam = complex(calc.sector.boundary_point(8.0))
        upper = calc.leibniz_resolvent(lam)
        for other in (lam, complex(calc.sector.boundary_point(16.0, upper=False))):
            with pytest.raises(ValueError, match="not at conj lambda"):
                calc.leibniz_resolvent(other, upper=upper)

    @pytest.mark.parametrize("name, share", [("ref1d", 2), ("odd_in_xi", 1)])
    def test_find_R_and_sweep_evaluate_once_per_pair(self, sector_right, monkeypatch,
                                                     name, share):
        # a symmetric symbol evaluates b^N at half of the boundary points; the
        # sweep's first row, R e^{i theta}, evaluates its own, as find_R did
        args = MIRRORED[name] if name in MIRRORED else (ASYMMETRIC[name],)
        calc = calc_of(sector_right, *args)
        lams = eval_spy(calc, monkeypatch)
        R = calc.find_R()
        assert len(lams) == 42 // share
        del lams[:]
        sc.parametrix_sweep(calc, np.geomspace(R, 1e4, 5))
        assert len(lams) == 10 // share
        assert lams[0] == complex(calc.sector.boundary_point(R))


def tree_tables(children):
    """(table, rows) of every product-tree edge whose factor is a table."""
    out = []
    for table, rows, _, grand in children:
        if table is not None:
            out.append((table, rows))
        out += tree_tables(grand)
    return out


# matrix symbols with the b_0 zero pattern at each of MIRROR_RADII
UPPER3, LOWER3, FULL2, LOWER2 = ([[0, 1, 2], [1, 2], [2]], [[0], [0, 1], [0, 1, 2]],
                                 [[0, 1], [0, 1]], [[0], [0, 1]])
TRIANGULAR = {
    "matrix3": (MATRIX3, [UPPER3] * 4),
    "lower3": ("[[(2+sin(x1))*(1+xi1^2)+5, 0, 0], "
               "[bracket(xi), (2+cos(x1))*(1+xi1^2)+5, 0], "
               "[0, bracket(xi), bracket(xi)^2+5]]", [LOWER3] * 4),
    # the lower entry outgrows the diagonal: rows are exchanged and the
    # computed b_0 keeps no exact zero, until lambda outgrows both
    "lower_pivot": ("[[(2+sin(x1))*(1+xi1^2)+5, 0], "
                    "[3*(2+cos(x1))*(1+xi1^2), (2+sin(x1))*(1+xi1^2)+5]]",
                    [FULL2] * 3 + [LOWER2]),
    "pivot": ("[[(2+sin(x1))*(1+xi1^2)+5, 0.1*bracket(xi)], "
              "[3*(2+cos(x1))*(1+xi1^2), (2+sin(x1))*(1+xi1^2)+5]]", [FULL2] * 4),
}


class TestZeroPattern:
    """The product tree skips the multiply-adds of identically zero table
    entries; b^N stays the full k^3 loop's."""

    @pytest.mark.parametrize("name", ["matrix3", "matrix_cfg", "jordan2"])
    def test_pattern_is_the_nonzero_entries(self, sector_right, name):
        calc = calc_of(sector_right, *MIRRORED[name])
        tables = tree_tables(calc.compiled_bN)
        skipped = 0
        for table, rows in tables:
            assert rows == [[m for m in range(calc.k) if np.any(table[i, m] != 0)]
                            for i in range(calc.k)]
            skipped += calc.k ** 2 - sum(map(len, rows))
        # jordan2 is x-independent: every term but b_0 has a zero table, so
        # its tree holds no table at all
        assert skipped > 0 if name != "jordan2" else not tables

    @pytest.mark.parametrize("name", ["matrix3", "matrix_cfg", "jordan2"])
    def test_bN_equals_the_full_loop(self, sector_right, monkeypatch, name):
        calc = calc_of(sector_right, *MIRRORED[name])
        lams = [complex(calc.sector.boundary_point(r)) for r in MIRROR_RADII]
        fast = [calc.evaluate(calc.compiled_bN, lam) for lam in lams]
        full_loop = parametrix._cm_matmul
        monkeypatch.setattr(parametrix, "_cm_matmul",
                            lambda a, b, rows: full_loop(a, b, None))
        for lam, got in zip(lams, fast):
            ref = calc.evaluate(calc.compiled_bN, lam)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), lam

    @pytest.mark.parametrize("name", sorted(TRIANGULAR))
    def test_b0_zeros_are_skipped_up_to_signed_zeros(self, sector_right, monkeypatch,
                                                      name):
        # the b_0 factors take the zero pattern of their values: a triangular
        # one where a is triangular and no row is exchanged, none otherwise
        text, patterns = TRIANGULAR[name]
        calc = calc_of(sector_right, text)
        lams = [complex(calc.sector.boundary_point(r)) for r in MIRROR_RADII]
        tree_sum, fast = parametrix._tree_sum, []
        for lam, pattern in zip(lams, patterns):
            seen = []
            monkeypatch.setattr(parametrix, "_tree_sum", lambda children, b0, b0_rows: (
                seen.append(b0_rows) or tree_sum(children, b0, b0_rows)))
            fast.append(calc.evaluate(calc.compiled_bN, lam))
            assert seen and all(rows == pattern for rows in seen), lam
        monkeypatch.setattr(parametrix, "_tree_sum", tree_sum)
        full_loop = parametrix._cm_matmul
        monkeypatch.setattr(parametrix, "_cm_matmul",
                            lambda a, b, rows: full_loop(a, b, None))
        for lam, got in zip(lams, fast):
            assert np.array_equal(got, calc.evaluate(calc.compiled_bN, lam)), lam

    def test_cm_matmul_rows(self):
        # skipped entries are zero, one row entirely; the rest bitwise equal
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3, 4, 5)) + 1j * rng.standard_normal((3, 3, 4, 5))
        b = rng.standard_normal((3, 3, 4, 5)) + 1j * rng.standard_normal((3, 3, 4, 5))
        a[0, 1] = a[1, 0] = a[1, 2] = a[2] = 0.0
        rows = [[0, 2], [1], []]
        got, ref = parametrix._cm_matmul(a, b, rows), parametrix._cm_matmul(a, b, None)
        assert np.array_equal(got[:2].view(np.uint64), ref[:2].view(np.uint64))
        assert np.array_equal(got[2], ref[2]) and not np.any(got[2])


def bN_factors(calc):
    """The distinct derivative factors of b^N's term list, in first-use order."""
    return list(dict.fromkeys(f for _, factors in calc.bN_terms
                              for f in factors if f != ("b0",)))


def gate_from_every_table(calc):
    """``conj_symmetric`` as the calculator decided it when it kept every
    table: A, a and each table of b^N, sampled anew by ``derivative_tab``."""
    A, a = calc.quantized_symbol.matrix, calc.a_tab.values
    tables = ((f[1], calc.derivative_tab(f[1], f[2])) for f in bN_factors(calc))
    return bool(np.max(np.abs(A - mode_mirror(A, calc.k)))
                <= 64 * np.finfo(float).eps * np.max(np.abs(A))) \
        and np.array_equal(conj_mirror(a), a) \
        and all(np.array_equal(conj_mirror(tab), (-1) ** sum(alpha) * tab)
                for alpha, tab in tables)


def polynomial_of(calc, terms):
    """{p: S_p} of a scalar term list from ``derivative_tab``, term by term."""
    tables = {}
    for coeff, factors in terms:
        for f in factors:
            if f != ("b0",):
                coeff = coeff * calc.derivative_tab(f[1], f[2])[..., 0, 0]
        power = factors.count(("b0",))
        tables[power] = tables.get(power, 0) + coeff
    return tables


def polynomial_from_every_table(calc):
    """The S_p tables of b^N from ``derivative_tab``, term by term, each a
    full array, zero ones included."""
    tables = polynomial_of(calc, calc.bN_terms)
    zero = np.zeros(calc.a_tab.values.shape[:-2], dtype=complex)
    return [zero + tables.get(p, 0) for p in range(max(tables) + 1)]


def zero_factors(calc):
    """The factors of b^N whose ``derivative_tab`` is zero at every node."""
    return {f for f in bN_factors(calc) if not np.any(calc.derivative_tab(f[1], f[2]))}


def live_terms(calc):
    """The terms of b^N with no zero factor."""
    zero = zero_factors(calc)
    return [term for term in calc.bN_terms if not zero.intersection(term[1])]


def bN_from_every_table(calc, lam):
    """b^N at lambda from every table of its term list, zero ones included,
    sampled anew by ``derivative_tab``: for a scalar symbol by Horner over
    every S_p, for a matrix symbol over the full product tree of the term
    list with every k x k product the full loop."""
    b0 = calc.b0_values(lam)
    if calc.k == 1:
        tables = polynomial_from_every_table(calc)
        s, acc = b0[..., 0, 0], tables[-1]
        for table in reversed(tables[:-1]):
            acc = acc * s + table
        return acc[..., None, None]

    def tree(words):
        children = {}
        for coeff, factors in words:
            children.setdefault(factors[0], []).append((coeff, factors[1:]))
        return [(None if f == ("b0",) else np.ascontiguousarray(
                    np.moveaxis(calc.derivative_tab(f[1], f[2]), (-2, -1), (0, 1))),
                 None, sum(c for c, rest in group if not rest),
                 tree([(c, rest) for c, rest in group if rest]))
                for f, group in children.items()]
    acc = parametrix._tree_sum(tree(calc.bN_terms), np.moveaxis(b0, (-2, -1), (0, 1)), None)
    return np.moveaxis(acc, (0, 1), (-2, -1))


# MIRRORED's scene2d is a 2-D scalar symbol too; this one fails the gate
ODD2D = ("(2+sin(x1)*cos(x2))*(1+xi1^2+xi2^2)+5+xi2", 2)
GATE_SYMBOLS = {**MIRRORED, **{name: (text,) for name, text in ASYMMETRIC.items()},
                "odd2d": ODD2D}
SCALAR = sorted(name for name in GATE_SYMBOLS
                if name not in ("matrix3", "matrix_cfg", "jordan2"))


class TestCompileOwnsTables:
    """b^N's compile samples each derivative table once, checks its parity
    there, and a scalar compile keeps none of them."""

    @pytest.mark.parametrize("name", sorted(GATE_SYMBOLS))
    def test_gate_equals_the_check_over_every_table(self, sector_right, name):
        calc = calc_of(sector_right, *GATE_SYMBOLS[name])
        assert calc.conj_symmetric == gate_from_every_table(calc)
        assert calc.conj_symmetric == (name in MIRRORED)

    @pytest.mark.parametrize("name", ["ref1d", "scene2d", "matrix3"])
    def test_one_odd_table_closes_the_gate(self, sector_right, monkeypatch, name):
        # i T breaks (-1)^|alpha| conj T(x, -xi) = T(x, xi) for any nonzero T;
        # A and a keep their symmetry, so the table check alone decides
        calc = calc_of(sector_right, *MIRRORED[name])
        factors = [f for f in bN_factors(calc) if np.any(calc.derivative_tab(f[1], f[2]))]
        assert factors
        orig = parametrix.ParametrixCalculator.derivative_tab
        for broken in factors:
            def skewed(self, alpha, beta):
                tab = orig(self, alpha, beta)
                return 1j * tab if ("da", alpha, beta) == broken else tab

            monkeypatch.setattr(parametrix.ParametrixCalculator, "derivative_tab", skewed)
            calc = calc_of(sector_right, *MIRRORED[name])
            assert not calc.conj_symmetric, broken
            assert not gate_from_every_table(calc), broken

    @pytest.mark.parametrize("name", SCALAR)
    def test_polynomial_tables_equal_the_ones_from_every_table(self, sector_right, name):
        # bitwise the S_p of the terms with no zero table, None where none of
        # them reaches b_0^p; up to signed zeros the S_p of every term
        calc = calc_of(sector_right, *GATE_SYMBOLS[name])
        got = calc.compiled_bN
        live = polynomial_of(calc, live_terms(calc))
        every = polynomial_from_every_table(calc)
        assert len(got) == len(every) == max(live) + 1
        for p, (table, full) in enumerate(zip(got, every)):
            if table is None:
                assert p not in live and not np.any(full), p
                continue
            assert np.broadcast_to(table, full.shape).tobytes() \
                == np.broadcast_to(live[p], full.shape).tobytes(), p
            assert np.array_equal(np.broadcast_to(table, full.shape), full), p

    @pytest.mark.parametrize("name", ["ref1d", "scene2d", "odd2d", "matrix3", "jordan2"])
    def test_construction_samples_each_table_once(self, sector_right, monkeypatch, name):
        sampled, tables = [], []
        sample, orig = parametrix.sample, parametrix.ParametrixCalculator.derivative_tab
        monkeypatch.setattr(parametrix, "sample",
                            lambda expr, grid: sampled.append(expr) or sample(expr, grid))
        monkeypatch.setattr(parametrix.ParametrixCalculator, "derivative_tab",
                            lambda self, alpha, beta: tables.append(("da", alpha, beta))
                            or orig(self, alpha, beta))
        calc = calc_of(sector_right, *GATE_SYMBOLS[name])
        assert tables == bN_factors(calc)
        assert len(sampled) == 1 + len(tables)

    @pytest.mark.parametrize("name", ["ref1d", "scene2d", "odd2d", "matrix3", "matrix_cfg"])
    def test_scalar_tables_go_at_their_last_use(self, sector_right, monkeypatch, name):
        # when a scalar compile samples a table, every table whose last term
        # came before is gone, and so is every zero table; after construction
        # none is left.  A matrix symbol's nonzero tables stay on its product
        # tree, which every lambda reads, and its zero ones are gone
        refs, alive = [], []
        orig = parametrix.ParametrixCalculator.derivative_tab

        def tracked(self, alpha, beta):
            alive.append([ref() is not None for ref in refs])
            tab = orig(self, alpha, beta)
            refs.append(weakref.ref(tab.base if tab.base is not None else tab))
            return tab

        monkeypatch.setattr(parametrix.ParametrixCalculator, "derivative_tab", tracked)
        calc = calc_of(sector_right, *GATE_SYMBOLS[name])
        gc.collect()
        kept = [ref() is not None for ref in refs]
        monkeypatch.undo()
        factors, zero = bN_factors(calc), zero_factors(calc)
        if calc.k > 1:
            tree = {id(tab): tab for tab, _ in tree_tables(calc.compiled_bN)}
            assert len(tree) == len(factors) - len(zero)
            assert all(np.any(tab) for tab in tree.values())
            return
        assert refs and not any(kept)
        uses = {}
        for i, (_, factors_i) in enumerate(calc.bN_terms):
            for f in factors_i:
                uses.setdefault(f, []).append(i)
        for j, now in enumerate(alive):
            first = uses[factors[j]][0]
            assert now == [uses[f][-1] >= first and f not in zero
                           for f in factors[:j]], factors[j]


# b^N's compile scenes: the benchmark's three and the 2-D scene at N = 4
# (P = 8), where 21 of the 34 tables are zero at every node
COMPILE_SCENES = {"ref1d": dict(text="variable_laplace", n=1, shift=5.0),
                  "scene2d": dict(text="variable_laplace", n=2, shift=5.0),
                  "matrix3": dict(text=MATRIX3),
                  "scene2d_N4": dict(text="variable_laplace", n=2, N=4, points=8)}
X_INDEPENDENT = {1: "bracket(xi)^2+1",
                 2: "[[bracket(xi)^2+1, bracket(xi)], [0, bracket(xi)^2+2]]"}


class TestCompileOnce:
    """One compile of b^N per calculator, holding only what an evaluation at
    lambda reads: a table zero at every node drops out with its terms."""

    @pytest.mark.parametrize("name", sorted(COMPILE_SCENES))
    def test_bN_equals_the_build_from_every_table(self, sector_right, name):
        # up to signed zeros, at boundary points and at one lambda per node
        calc = calc_of(sector_right, **COMPILE_SCENES[name])
        lams = [complex(lam) for lam in calc.sector.ray_points(MIRROR_RADII)]
        rho = 2.0 * calc.a_tab.spectral_norms()
        lams.append(rho * np.exp(1j * np.linspace(-1.4, 1.4, rho.size).reshape(rho.shape)))
        for lam in lams:
            assert np.array_equal(calc.evaluate(calc.compiled_bN, lam),
                                  bN_from_every_table(calc, lam))
        assert calc.conj_symmetric == gate_from_every_table(calc)

    @pytest.mark.parametrize("name, tables, kept_tables, terms, kept_terms", [
        ("scene2d", 14, 8, 28, 8), ("scene2d_N4", 34, 13, 456, 48)])
    def test_zero_tables_fold_away(self, sector_right, monkeypatch, name, tables,
                                   kept_tables, terms, kept_terms):
        sampled, orig = [], parametrix.ParametrixCalculator.derivative_tab
        monkeypatch.setattr(parametrix.ParametrixCalculator, "derivative_tab",
                            lambda self, alpha, beta: sampled.append(("da", alpha, beta))
                            or orig(self, alpha, beta))
        calc = calc_of(sector_right, **COMPILE_SCENES[name])
        monkeypatch.undo()
        assert len(sampled) == len(set(sampled)) == tables
        assert tables - len(zero_factors(calc)) == kept_tables
        live = live_terms(calc)
        assert (len(calc.bN_terms), len(live)) == (terms, kept_terms)
        # the powers of b_0 the live terms reach, and no other, hold a table
        got = calc.compiled_bN
        assert [p for p, table in enumerate(got) if table is not None] \
            == sorted(polynomial_of(calc, live))

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_placeholder_powers(self, sector_right, n):
        # every b_j term starts with b_0 and none holds b_0^2, for N <= 5: no
        # term reaches S_0 or S_2, and S_1 is b_0's own coefficient, 1
        for terms in parametrix.bj_term_lists(n, 5):
            assert all(f[0] == ("b0",) and f.count(("b0",)) != 2 for _, f in terms)
        for name in SCALAR:
            args = GATE_SYMBOLS[name]
            if len(args) == 1 or args[1] == n:
                got = calc_of(sector_right, *args).compiled_bN
                assert got[0] is None and got[2] is None, name
                assert type(got[1]) is complex and got[1] == 1, name

    @pytest.mark.parametrize("name", ["ref1d", "matrix3", "odd_in_xi"])
    def test_construction_compiles_once(self, sector_right, monkeypatch, name):
        # find_R, the sweep and bn_part compile nothing; bj compiles its own
        # lists and keeps none of them
        calls, orig = [], parametrix.ParametrixCalculator._compile
        monkeypatch.setattr(parametrix.ParametrixCalculator, "_compile",
                            lambda self, terms: calls.append(len(terms)) or orig(self, terms))
        calc = calc_of(sector_right, *(MIRRORED.get(name) or (ASYMMETRIC[name],)))
        assert calls == [len(calc.bN_terms)]
        R = calc.find_R()
        sc.parametrix_sweep(calc, np.geomspace(R, 1e4, 5))
        contour = sc.build_contour(calc.sector, d=1.0, tol=1e-3)
        sc.bn_part(calc, sc.HFun(lambda z: z / (1 + z) ** 2, d=1.0),
                   contour.nodes, contour.weights)
        assert len(calls) == 1
        attributes = set(vars(calc))
        calc.bj(complex(calc.sector.boundary_point(8.0)))
        assert calls[1:] == [len(terms) for terms in calc.term_lists]
        assert set(vars(calc)) == attributes

    @pytest.mark.parametrize("k", sorted(X_INDEPENDENT))
    def test_x_independent_bj_are_exact_zeros(self, sector_right, k):
        # every table with an x-derivative is zero, so each b_j list with
        # j >= 1 folds away entirely
        calc = sc.ParametrixCalculator(sc.parse_symbol(X_INDEPENDENT[k], n=1, k=k),
                                       sc.TorusGrid(n=1, points=16),
                                       sc.SymbolClassParams(m=2), sector_right, N=4)
        lam = complex(calc.sector.boundary_point(8.0))
        b = calc.bj(lam)
        assert np.array_equal(b[0].values, calc.b0_values(lam))
        zero = np.zeros(calc.a_tab.values.shape, dtype=complex)
        for j, terms in enumerate(calc.term_lists[1:], 1):
            assert calc._compile(terms)[0] == [], j
            assert b[j].values.tobytes() == zero.tobytes(), j
        assert np.array_equal(calc.assemble_bN(lam).values, b[0].values)


class TestFindRPoint:
    """The sweep's first row, R e^{i theta}, forms its own remainder there:
    find_R keeps no point, and ``remainder`` is pure, so the row's b^N,
    quantize(b^N), remainder matrix and norm bound are bitwise find_R's."""

    @pytest.mark.parametrize("name", ["ref1d", "matrix3", "odd_in_xi"])
    def test_one_evaluation_and_quantize_at_R(self, sector_right, monkeypatch, name):
        # find_R and the sweep each evaluate and quantize b^N at R once,
        # bitwise the same tables
        args = MIRRORED[name] if name in MIRRORED else (ASYMMETRIC[name],)
        calc = calc_of(sector_right, *args)
        evals, quantized = [], []
        eval_orig, quantize_orig = calc.evaluate, parametrix.quantize

        def eval_spy(compiled, lam):
            evals.append((lam, eval_orig(compiled, lam)))
            return evals[-1][1]

        def quantize_spy(a):
            quantized.append(a.values)
            return quantize_orig(a)

        monkeypatch.setattr(calc, "evaluate", eval_spy)
        monkeypatch.setattr(parametrix, "quantize", quantize_spy)
        R = calc.find_R()
        at_R_lam = complex(calc.sector.boundary_point(R))
        in_find_R = [vals for lam, vals in evals if lam == at_R_lam]
        del evals[:], quantized[:]
        radii = np.geomspace(R, 1e4, 5)
        rows = sc.parametrix_sweep(calc, radii).rows
        at_R = [vals for lam, vals in evals if lam == at_R_lam]
        assert len(in_find_R) == len(at_R) == 1
        assert at_R[0].tobytes() == in_find_R[0].tobytes()
        assert sum(np.array_equal(vals, at_R[0]) for vals in quantized) == 1
        # the same row as a sweep with no find_R before it
        fresh = sc.parametrix_sweep(calc_of(sector_right, *args), radii).rows
        assert rows == fresh

    @pytest.mark.parametrize("name", ["ref1d", "matrix3", "odd_in_xi"])
    def test_remainder_is_pure(self, sector_right, name):
        # two calls at one lambda give bitwise equal records, and the point
        # at R passes
        calc = calc_of(sector_right, *(MIRRORED.get(name) or (ASYMMETRIC[name],)))
        lam = complex(calc.sector.boundary_point(8.0))
        assert record_bytes(calc.remainder(lam)) == record_bytes(calc.remainder(lam))
        R = calc.find_R()
        assert calc.remainder(calc.sector.boundary_point(R)).norm <= 0.5

    def test_point_is_the_accepted_radius(self, sector_right, slow_decay_calc):
        # the walk stops at the failing upper point at R / 2; both points at
        # R pass
        calc = slow_decay_calc
        R = calc.find_R()
        assert calc.find_R_points["computed"] > 1
        assert calc.remainder(calc.sector.boundary_point(R / 2)).norm > 0.5
        assert all(calc.remainder(lam).norm <= 0.5 for lam in calc.sector.ray_points([R]))


class TestCallOrder:
    """A row depends on its own lambda alone, not on the calls before it."""

    @pytest.mark.parametrize("name", ["ref1d", "matrix3", "odd_in_xi"])
    def test_repeated_sweeps_equal_a_fresh_one(self, sector_right, name):
        args = MIRRORED[name] if name in MIRRORED else (ASYMMETRIC[name],)
        calc = calc_of(sector_right, *args)
        radii = np.geomspace(calc.find_R(), 1e4, 5)
        first = sc.parametrix_sweep(calc, radii).rows
        second = sc.parametrix_sweep(calc, radii).rows
        fresh = sc.parametrix_sweep(calc_of(sector_right, *args), radii).rows
        assert first == second == fresh

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    def test_assemble_bN_after_its_conjugate(self, sector_right, name):
        calc = calc_of(sector_right, *MIRRORED[name])
        for rad in MIRROR_RADII:
            lam = complex(calc.sector.boundary_point(rad))
            calc.assemble_bN(lam)
            got = calc.assemble_bN(lam.conjugate()).values
            assert np.array_equal(got, calc.evaluate(calc.compiled_bN, lam.conjugate()))


SUP_COLUMNS = ("sup_bN", "sup_rN", "sup_sN", "class_sup_rN", "class_sup_sN")


def resolvent_spy(calc, monkeypatch):
    """Per ``leibniz_resolvent`` call: (mirrored, quantize calls, remainder
    calls).  The Neumann loop multiplies by the remainder matrix, which only
    ``remainder`` makes, so a call without it formed no Neumann product."""
    calls, counts = [], {"quantize": 0, "remainder": 0}
    quantize_orig, remainder_orig = parametrix.quantize, calc.remainder
    resolvent_orig = calc.leibniz_resolvent

    def quantize_spy(a):
        counts["quantize"] += 1
        return quantize_orig(a)

    def remainder_spy(*args, **kwargs):
        counts["remainder"] += 1
        return remainder_orig(*args, **kwargs)

    def spy(lam, tol=1e-11, upper=None):
        counts.update(quantize=0, remainder=0)
        out = resolvent_orig(lam, tol=tol, upper=upper)
        calls.append((out.diagnostics["mirrored"], counts["quantize"],
                      counts["remainder"]))
        return out

    monkeypatch.setattr(parametrix, "quantize", quantize_spy)
    monkeypatch.setattr(calc, "remainder", remainder_spy)
    monkeypatch.setattr(calc, "leibniz_resolvent", spy)
    return calls


def mirror_sweeps(sector, args, gate=None):
    """The sweep as shipped and the full two-ray sweep (no mirror at all) of
    the same symbol, over 5 radii from R to 1e3; ``gate`` forces the shipped
    calculator's symmetry gate.

    The range stops at 1e3 because at P = 16 the smallest class sups at 1e4
    are about 1e-10 of their column's largest value.  The two paths round
    such a sup differently, neither closer to the exact one, and that moves
    a log-log slope by up to about 1e-9 relative (3.4e-9 on ``minus_cfg``'s
    rN); up to 1e3 the slopes agree to 8e-12.
    """
    shipped, full = calc_of(sector, *args), calc_of(sector, *args)
    if gate is not None:
        shipped.conj_symmetric = gate
    full.conj_symmetric = False
    radii = np.geomspace(full.find_R(), 1e3, 5)
    return (shipped, sc.parametrix_sweep(shipped, radii),
            sc.parametrix_sweep(full, radii))


class TestMirroredResolvent:
    """The lower-ray Neumann resolvent as the mirror of the upper-ray one,
    against the full two-ray sweep it replaces."""

    @pytest.mark.parametrize("name", ["matrix3", "scene2d"])
    def test_mode_mirror_is_the_quantized_symbol_mirror(self, sector_right, name):
        # P conj(M) P against quantize of conj a(x, -xi), on a table of the
        # symbol's shape with no symmetry: on the 3x3 table a transposed block
        # would show, on the 2-D one an unreversed axis or mode
        calc = calc_of(sector_right, *MIRRORED[name])
        rng = np.random.default_rng(7)
        shape = calc.a_tab.values.shape
        table = sc.GridSymbol(calc.grid, rng.normal(size=shape)
                              + 1j * rng.normal(size=shape), check=False)
        mirrored = sc.GridSymbol(calc.grid, conj_mirror(table.values), check=False)
        assert rel_sup_diff(mode_mirror(quantize(table).matrix, calc.k),
                            quantize(mirrored).matrix) <= 1e-14

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    def test_mirrored_sweep_matches_two_ray_sweep(self, sector_right, name):
        calc, shipped, full = mirror_sweeps(sector_right, MIRRORED[name])
        assert calc.conj_symmetric
        assert [row["method"] for row in shipped.rows] == \
            [row["method"] for row in full.rows]
        assert [row["mirrored"] for row in shipped.rows] == \
            [i % 2 == 1 and full.rows[i - 1]["method"] == "neumann"
             for i in range(len(full.rows))]
        for col in SUP_COLUMNS:
            scale = max(row[col] for row in full.rows)
            for i, (got, want) in enumerate(zip(shipped.rows, full.rows)):
                if i % 2 == 0:  # upper rows are computed the same way
                    assert got[col] == want[col], (col, i)
                else:
                    assert abs(got[col] - want[col]) <= 1e-12 * scale, (col, i)
        assert shipped.slopes.keys() == full.slopes.keys()
        for key, slope in full.slopes.items():
            assert shipped.slopes[key] == pytest.approx(slope, rel=1e-10, abs=0)

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    def test_mirrored_rows_quantize_nothing(self, sector_right, monkeypatch, name):
        calc = calc_of(sector_right, *MIRRORED[name])
        calls = resolvent_spy(calc, monkeypatch)
        family = sc.parametrix_sweep(calc, np.geomspace(calc.find_R(), 1e4, 5))
        for i, (row, (mirrored, n_quantize, n_remainder)) in enumerate(
                zip(family.rows, calls)):
            upper_neumann = family.rows[i - i % 2]["method"] == "neumann"
            assert mirrored == (i % 2 == 1 and upper_neumann), i
            assert row["mirrored"] == mirrored
            if mirrored:
                assert (n_quantize, n_remainder) == (0, 0), i
            else:
                assert (n_quantize, n_remainder) == (1, 1), i
        assert sum(mirrored for mirrored, _, _ in calls) > 0

    @pytest.mark.parametrize("name, tol", [("ref1d", 1e-11), ("matrix3", 1e-11),
                                           ("odd_in_xi", 1e-11), ("ref1d", 1e-300)])
    def test_each_row_forms_the_shift_once(self, sector_right, monkeypatch, name, tol):
        # a computed row forms A - lambda in its remainder, and its residuals
        # reuse it; a mirrored row forms it for its one residual.  The
        # unreachable tol rescues every row, with a second residual each
        calc = calc_of(sector_right, *(MIRRORED.get(name) or (ASYMMETRIC[name],)))
        formed, orig = [], calc.shifted_matrix

        def spy(lam):
            formed.append(lam)
            return orig(lam)

        R = calc.find_R()
        monkeypatch.setattr(calc, "shifted_matrix", spy)
        family = sc.parametrix_sweep(calc, np.geomspace(R, 1e4, 5), tol=tol)
        assert formed == [row["lambda"] for row in family.rows]
        methods = {(row["mirrored"], row["method"]) for row in family.rows}
        assert methods == ({(False, "neumann->dense")} if tol < 1e-100 else
                           {(False, "neumann"), (name in MIRRORED, "neumann")})

    @pytest.mark.parametrize("name", sorted(MIRRORED) + sorted(ASYMMETRIC))
    def test_operator_gate_separates_the_symbols(self, sector_right, name):
        # max|A - P conj(A) P| / max|A| is at most 0.16 eps on the real
        # operators and above 1e14 eps on the others
        calc = calc_of(sector_right, *(MIRRORED.get(name) or (ASYMMETRIC[name],)))
        A = calc.quantized_symbol.matrix
        asymmetry = np.max(np.abs(A - mode_mirror(A, calc.k))) / np.max(np.abs(A))
        assert (asymmetry <= 0.2 * np.finfo(float).eps) == (name in MIRRORED)
        assert calc.conj_symmetric == (name in MIRRORED)

    def test_operator_gate_is_read(self, sector_right, monkeypatch):
        # ref1d's A is symmetric to 0.08 eps, not bitwise: a zero bound
        # closes the gate although every table passes the bitwise check
        monkeypatch.setattr(parametrix, "_MIRROR_TOL", 0.0)
        assert not calc_of(sector_right, *MIRRORED["ref1d"]).conj_symmetric

    @pytest.mark.parametrize("name", sorted(ASYMMETRIC))
    def test_asymmetric_symbol_mirrors_no_row(self, sector_right, name):
        calc = calc_of(sector_right, ASYMMETRIC[name])
        family = sc.parametrix_sweep(calc, np.geomspace(calc.find_R(), 1e3, 5))
        assert [row["method"] for row in family.rows] == ["neumann"] * 10
        assert not any(row["mirrored"] for row in family.rows)

    def test_forced_gate_fails_the_mirrored_residual(self, sector_right):
        # the residual check can fail: with the gate forced on a symbol odd
        # in xi, each lower row's mirror misses tol against A and the row
        # falls back to the dense inverse
        _, shipped, full = mirror_sweeps(sector_right, (ASYMMETRIC["odd_in_xi"],),
                                         gate=True)
        assert [row["method"] for row in full.rows] == ["neumann"] * 10
        assert [row["method"] for row in shipped.rows[0::2]] == ["neumann"] * 5
        assert [row["method"] for row in shipped.rows[1::2]] == ["neumann->dense"] * 5
        assert all(row["mirrored"] and row["residual"] <= 1e-11
                   for row in shipped.rows[1::2])


class TestSweepSups:
    """Each row's sups against class_weighted_sup taken on that row's own
    b^N, r^N and s^N, which mirrored rows no longer read."""

    @staticmethod
    def sweep_and_resolvents(calc, monkeypatch):
        resolvents, orig = [], calc.leibniz_resolvent

        def spy(lam, tol=1e-11, upper=None):
            resolvents.append(orig(lam, tol=tol, upper=upper))
            return resolvents[-1]

        monkeypatch.setattr(calc, "leibniz_resolvent", spy)
        family = sc.parametrix_sweep(calc, np.geomspace(calc.find_R(), 1e4, 5))
        assert len(resolvents) == len(family.rows) == 10
        return family.rows, resolvents

    @pytest.mark.parametrize("case", ["ref1d", "matrix3", "odd_in_xi", "forced_gate"])
    def test_every_sup_is_the_rows_own(self, sector_right, monkeypatch, case):
        if case == "odd_in_xi":  # no mirror
            calc = calc_of(sector_right, ASYMMETRIC[case])
        elif case == "forced_gate":  # mirrored rows redone dense
            calc = calc_of(sector_right, ASYMMETRIC["odd_in_xi"])
            calc.conj_symmetric = True
        else:
            calc = calc_of(sector_right, *MIRRORED[case])
        rows, resolvents = self.sweep_and_resolvents(calc, monkeypatch)
        params, margin = calc.class_params, calc.default_interior_margin
        weight = calc.N * (params.rho - params.delta) - params.m
        for i, (row, lr) in enumerate(zip(rows, resolvents)):
            assert row == {**row, "sup_bN": class_weighted_sup(lr.b_n, 0.0, margin),
                           "sup_rN": class_weighted_sup(lr.r_n, 0.0, margin),
                           "class_sup_rN": class_weighted_sup(lr.r_n, weight, margin),
                           "sup_sN": class_weighted_sup(lr.s_n, 0.0, margin),
                           "class_sup_sN": class_weighted_sup(lr.s_n, weight, margin)}, i
        methods = {(row["mirrored"], row["method"]) for row in rows}
        assert methods == {"ref1d": {(False, "neumann"), (True, "neumann")},
                           "matrix3": {(False, "neumann"), (True, "neumann")},
                           "odd_in_xi": {(False, "neumann")},
                           "forced_gate": {(False, "neumann"),
                                           (True, "neumann->dense")}}[case]


class TestAssembleAndRemainder:
    def test_order_one_x_independent_is_b0(self, sector_right):
        grid = sc.TorusGrid(n=1, points=16)
        expr = sc.parse_symbol("bracket(xi)^2+1", n=1)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=1)
        bN = calc.assemble_bN(-1.0)
        b0 = calc.bj(-1.0)[0]
        assert (bN - b0).sup_norm() <= 1e-14

    def test_x_independent_remainder_vanishes(self, xind_calc):
        r_mat = xind_calc.remainder(-1.0).matrix
        assert remainder_symbol(xind_calc, -1.0).sup_norm() <= 1e-12
        assert sc.operator_norm(r_mat) <= 1e-12

    def test_remainder_split_oscillatory_part_negligible(self, calc32):
        # a is a xi-polynomial of degree 2 and N=3: the expansion terminates,
        # so away from the window edge the oscillatory piece is pure leak,
        # orders of magnitude below the Leibniz part
        # r^N = ((a-lam)#b^N - q_N) + (q_N - 1), q_N the N-term Leibniz expansion
        lam, one, bN = -10.0, unit_symbol(calc32.grid), calc32.assemble_bN(-10.0)
        # q_N of a - lam is q_N of a minus lam b^N: lam has no xi-derivative
        a_q_n = sc.leibniz_truncated(calc32.expr, bN, calc32.N)
        q_n = sc.GridSymbol(calc32.grid, a_q_n.values - lam * bN.values, check=False)
        r_n = remainder_symbol(calc32, lam)
        osc = sc.GridSymbol(calc32.grid, r_n.values + one.values - q_n.values,
                            check=False)
        qminus1 = q_n - one
        osc_sup = class_weighted_sup(osc, 0.0, interior_margin=10)
        q_sup = class_weighted_sup(qminus1, 0.0, interior_margin=10)
        assert q_sup > 1e-6
        assert osc_sup <= 1e-3 * q_sup

    def test_remainder_decay(self, calc32):
        radii = np.geomspace(8.0, 2e3, 8)
        fam = sc.parametrix_sweep(calc32, radii)
        assert fam.slopes["rN"] <= -0.8
        assert abs(fam.slopes["bN_weighted"]) <= 0.1
        # residual of the Leibniz resolvent along the sweep
        assert all(row["residual"] <= 1e-10 for row in fam.rows)
        # the class seminorm decays by orders of magnitude over the sweep
        assert fam.rows[-1]["class_sup_rN"] <= 1e-2 * fam.rows[0]["class_sup_rN"]

    @pytest.mark.parametrize("any_calc", ["calc32", "matrix2"], indirect=True)
    def test_left_remainder_decays_like_right(self, any_calc):
        # b^N is also a left parametrix: b^N#(a-lambda) - 1 decays, also for
        # the x-dependent, non-commutative 2x2 symbol, and faster with every
        # order N (b_0 alone already decays on matrix2, so decay by itself
        # cannot tell N=1 from N=3)
        base = any_calc
        radii = (8.0, 32.0, 128.0, 512.0, 2048.0)
        slopes = []
        for N in (1, 2, 3, 4):
            calc = sc.ParametrixCalculator(base.expr, base.grid, base.class_params,
                                           base.sector, N=N)
            margin = calc.default_interior_margin
            weight = calc.N - calc.class_params.m
            brackets, vals = [], []
            for rad in radii:
                lam = complex(calc.sector.boundary_point(rad))
                left = quantize(calc.assemble_bN(lam)).matrix @ calc.shifted_matrix(lam)
                r_sym = extract_symbol(QuantOp(calc.grid, calc.k,
                                               left - np.eye(left.shape[0])))
                brackets.append(float(japanese_bracket(lam)))
                vals.append(class_weighted_sup(r_sym, weight, margin))
            slopes.append(fit_loglog_slope(brackets, vals)[0])
        assert max(slopes) <= -0.8
        assert all(lo < hi for hi, lo in zip(slopes, slopes[1:]))


class TestLeibnizResolvent:
    def test_reference_residual(self, calc32):
        lam = -1.0
        lr = calc32.leibniz_resolvent(lam, tol=1e-11)
        one = unit_symbol(calc32.grid)
        a_min_lam = sc.GridSymbol(calc32.grid, calc32.a_tab.values - lam)  # k = 1
        residual = (sc.compose_exact(a_min_lam, lr.symbol) - one).sup_norm()
        assert residual <= 1e-10

    def test_x_independent_pointwise_and_sn_zero(self, xind_calc):
        lr = xind_calc.leibniz_resolvent(-2.0)
        expected = 1.0 / (xind_calc.a_tab.values[..., 0, 0] + 2.0)
        assert np.max(np.abs(lr.symbol.values[..., 0, 0] - expected)) <= 1e-12
        assert lr.s_n.sup_norm() <= 1e-12

    def test_neumann_matches_dense(self, calc32):
        lam = complex(calc32.sector.boundary_point(64.0))
        lr = calc32.leibniz_resolvent(lam, tol=1e-13)
        assert lr.diagnostics["method"] == "neumann"
        assert (lr.symbol - dense_reference(calc32, lam)).sup_norm() <= 1e-12

    def test_large_remainder_takes_dense_branch(self, sector_right):
        # small shift, strong x-variation, N=1: ||quantize(r^N)|| ~ 6.7 at i
        grid = sc.TorusGrid(n=1, points=16)
        expr = sc.shift(sc.parse_symbol("(2+1.9*sin(x1))*(1+xi1^2)", n=1), 0.1)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=1)
        lr = calc.leibniz_resolvent(1j)
        assert lr.diagnostics["method"] == "dense"
        assert lr.diagnostics["r_norm"] >= 0.5
        assert lr.r_n is not None
        assert (lr.symbol - dense_reference(calc, 1j)).sup_norm() <= 1e-12

    def test_unreachable_tol_rescued_by_dense(self, calc32):
        # tol below any attainable residual: the Neumann series runs to its
        # tail-bound length, misses the residual target and is replaced
        lam = complex(calc32.sector.boundary_point(64.0))
        lr = calc32.leibniz_resolvent(lam, tol=1e-300)
        assert lr.diagnostics["method"] == "neumann->dense"
        assert lr.diagnostics["neumann_terms"] > 1
        assert (lr.symbol - dense_reference(calc32, lam)).sup_norm() <= 1e-12

    def test_neumann_identity(self, calc32):
        # (1+r)^{-#} = 1 - r # (1+r)^{-#} in the operator algebra
        lam = complex(calc32.sector.boundary_point(64.0))
        r_mat = calc32.remainder(lam).matrix
        eye = np.eye(r_mat.shape[0], dtype=complex)
        inv = np.linalg.solve(eye + r_mat, eye)
        assert np.max(np.abs(inv - (eye - r_mat @ inv))) <= 1e-12

    def test_spectrum_lambda_raises(self, xind_calc):
        spec_point = float(np.real(xind_calc.a_tab.values[0, 0, 0, 0]))
        with pytest.raises(sc.SectorcalcError):
            xind_calc.leibniz_resolvent(spec_point)

    def test_holomorphy_difference_quotient(self, calc32):
        lam0 = complex(calc32.sector.boundary_point(100.0))
        res0 = calc32.leibniz_resolvent(lam0, tol=1e-13).symbol
        deriv = sc.compose_exact(res0, res0)
        errs = []
        for h in (1e-2, 1e-3):
            res_h = calc32.leibniz_resolvent(lam0 + h * 1j, tol=1e-13).symbol
            quotient = (res_h - res0).values * (1.0 / (h * 1j))
            errs.append(np.max(np.abs(quotient - deriv.values)))
        ratio = errs[0] / errs[1]
        assert 5.0 <= ratio <= 20.0

    def test_neumann_tail_is_certified(self, sector_right, monkeypatch):
        # on the non-normal 3x3 symbol every Neumann row's ||r^N|| is an upper
        # bound of the exact norm of the remainder matrix it inverts, and the
        # tail bound of the series it ran is below tol
        # (a mirrored row inverts its upper partner's matrix)
        calc = calc_of(sector_right, MATRIX3)
        r_mats = {}
        orig = calc.remainder

        def spy(lam):
            point = orig(lam)
            r_mats[complex(lam)] = point.matrix
            return point

        monkeypatch.setattr(calc, "remainder", spy)
        radii = np.geomspace(calc.find_R(), 1e4, 10)
        tol = 1e-11
        neumann = mirrored = 0
        for pair in calc.sector.ray_points(radii).reshape(-1, 2):
            lr = None
            for lam in pair:
                lr = calc.leibniz_resolvent(complex(lam), tol=tol, upper=lr)
                diag = lr.diagnostics
                if diag["method"] != "neumann":
                    continue
                neumann += 1
                mirrored += diag["mirrored"]
                rho, K = diag["r_norm"], diag["neumann_terms"] - 1
                r_mat = r_mats[lam.conjugate() if diag["mirrored"] else lam]
                assert rho >= np.linalg.norm(r_mat, 2), lam
                assert rho ** (K + 1) / (1.0 - rho) <= tol, lam
        assert (neumann, mirrored) == (20, 10)

    def test_2d_resolvent_residual(self, sector_right):
        grid = sc.TorusGrid(n=2, points=8)
        expr = sc.shift(
            sc.parse_symbol("(2+sin(x1)*cos(x2))*(1+xi1^2+xi2^2)", n=2), 3.0)
        calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                       sector_right, N=2)
        lr = calc.leibniz_resolvent(-5.0, tol=1e-11)
        assert lr.diagnostics["residual"] <= 1e-10


@pytest.fixture(scope="module")
def slow_decay_calc(sector_right):
    # nearly vanishing coefficient and a small shift: r^N decays late
    grid = sc.TorusGrid(n=1, points=16)
    expr = sc.shift(sc.parse_symbol("(2+1.9*sin(x1))*(1+xi1^2)", n=1), 0.1)
    return sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2),
                                   sector_right, N=1)


@pytest.fixture(scope="module")
def scene2d_calc(sector_right):
    # the 2-D benchmark scene: ||r^N||_F reads 0.51 at |lambda| <= 8, the
    # Hoelder bound 0.16
    expr, params = sc.get_preset("variable_laplace", n=2)
    return sc.ParametrixCalculator(sc.shift(expr, 5.0), sc.TorusGrid(n=2, points=16),
                                   params, sector_right, N=3)


class TestFindR:
    def test_x_independent_returns_smallest(self, xind_calc):
        assert xind_calc.find_R() == 1.0

    def test_default_symbol_finite(self, calc32):
        R = calc32.find_R()
        assert R >= 1.0 and np.isfinite(R)

    def test_interior_remainder_halves(self, calc32):
        # in the decaying regime the interior class measure drops by >= 40%
        # per octave
        margin = calc32.default_interior_margin
        weight = calc32.N - calc32.class_params.m
        vals = []
        for rad in (512.0, 1024.0):
            r_sym = remainder_symbol(calc32, complex(calc32.sector.boundary_point(rad)))
            vals.append(class_weighted_sup(r_sym, weight, margin))
        assert vals[1] <= 0.6 * vals[0]

    def test_shifted_symbol_invertible_at_origin(self, calc32):
        # 0 is in the resolvent set of the shifted operator
        X = sc.dense_resolvent(calc32.quantized_symbol, 0.0)
        assert np.isfinite(X).all()

    def test_radius_where_remainder_halves(self, slow_decay_calc):
        # ||quantize(r^N)|| on the boundary is 6.66, 5.21, 3.87, 2.62, 1.59,
        # 0.87, 0.43 at |lambda| = 1, 2, ..., 64: the first radius with every
        # larger one at or under 1/2 is 64
        assert slow_decay_calc.find_R() == 64.0

    def test_no_radius_raises(self, slow_decay_calc, monkeypatch):
        monkeypatch.setattr(parametrix, "_R_CANDIDATES",
                            (1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        with pytest.raises(sc.SectorcalcError, match="R <= 32"):
            slow_decay_calc.find_R()

    @pytest.mark.parametrize("fixture, fallbacks, R", [
        ("calc32", 0, 1.0), ("slow_decay_calc", 1, 64.0),
        ("scene2d_calc", 0, 1.0)])
    def test_frobenius_certificate(self, request, monkeypatch, fixture,
                                   fallbacks, R):
        # at every point find_R computes, the exact norm is taken only where
        # both upper bounds, ||r^N||_F and the Hoelder bound, exceed 1/2; on
        # slow_decay_calc that is the upper point at |lambda| = 32 alone,
        # where the walk stops (||.||_2 = 0.871).  R is the radius that the
        # exact norms of all 42 points give
        calc = request.getfixturevalue(fixture)
        norm, svd = np.linalg.norm, np.linalg.svd
        exact, computed = [], []

        def counting_svd(x, *args, **kwargs):
            exact.append(x)
            return svd(x, *args, **kwargs)

        orig = calc.remainder

        def spy(lam):
            point = orig(lam)
            computed.append(point.matrix)
            return point

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(calc, "remainder", spy)
        assert calc.find_R() == R
        monkeypatch.undo()
        assert len(exact) == fallbacks
        assert len(computed) == calc.find_R_points["computed"]
        for r_mat in computed:
            taken = any(np.array_equal(r_mat, m) for m in exact)
            bound = min(norm(r_mat), _hoelder_bounds(r_mat[None])[0])
            assert taken == (bound > 0.5)
        radii = 2.0 ** np.arange(21)
        points = calc.sector.ray_points(radii)
        assert len(points) == 42
        passed = [norm(calc.remainder(lam).matrix, 2) <= 0.5 for lam in points]
        above = [all(ok for rad, ok in zip(np.repeat(radii, 2), passed) if rad >= r)
                 for r in radii]
        assert radii[above.index(True)] == R

    def test_lower_bound_cannot_certify(self, xind_calc, monkeypatch):
        # ||M||_2 = 0.6 and ||M||_F = 0.72, while power iteration from the
        # all-ones vector, orthogonal to M's top singular vector
        # (1, -1)/sqrt(2), would read 0.4: only the exact norm rejects M
        q = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        r_mat = q @ np.diag([0.6, 0.4]) @ q.T
        assert np.linalg.norm(r_mat @ np.ones(2)) / np.sqrt(2.0) == pytest.approx(0.4)
        assert sc.operator_norm(r_mat) == pytest.approx(0.6)
        # every remainder reads (r_mat + 1) 1 - 1 = r_mat
        eye = np.eye(2)
        monkeypatch.setattr(parametrix, "quantize", lambda b_n: SimpleNamespace(matrix=eye))
        monkeypatch.setattr(parametrix.ParametrixCalculator, "shifted_matrix",
                            lambda self, lam: r_mat + eye)
        with pytest.raises(sc.SectorcalcError, match="no invertibility radius"):
            xind_calc.find_R()

    @pytest.mark.parametrize("fixture, R", [("calc32", 1.0), ("slow_decay_calc", 64.0)])
    def test_no_symbol_extraction(self, request, monkeypatch, fixture, R):
        # find_R and remainder read only the remainder matrices: no
        # extract_symbol call; the resolvent's r^N is the symbol of the
        # remainder's matrix
        calc = request.getfixturevalue(fixture)
        calls = []

        def counting_extract(op):
            calls.append(op)
            return extract_symbol(op)

        monkeypatch.setattr(parametrix, "extract_symbol", counting_extract)
        assert calc.find_R() == R
        lam = complex(calc.sector.boundary_point(4.0))
        calc.remainder(lam)
        assert calls == []
        r_n = calc.leibniz_resolvent(lam).r_n.values
        assert np.array_equal(r_n, remainder_symbol(calc, lam).values)


# find_R against the search over all 42 points: the TestFindR fixtures,
# the benchmark's and the CI configs' symbols at P = 16, and an asymmetric one
FIND_R_CASES = (["xind_calc", "calc32", "slow_decay_calc", "scene2d_calc"]
                + sorted(MIRRORED) + sorted(ASYMMETRIC))
# a(x, -xi) != conj a(x, xi), N = 1: at |lambda| = 64 the upper point
# passes and the lower one fails, so R = 128
TILTED = "(2+1.9*sin(x1))*(1+xi1^2)*(1-0.3*i)+0.1"


def find_R_case(request, sector, name):
    if name in MIRRORED:
        return calc_of(sector, *MIRRORED[name])
    if name in ASYMMETRIC:
        return calc_of(sector, ASYMMETRIC[name])
    return request.getfixturevalue(name)


def tilted_calc(sector):
    return sc.ParametrixCalculator(sc.parse_symbol(TILTED, n=1),
                                   sc.TorusGrid(n=1, points=16),
                                   sc.SymbolClassParams(m=2), sector, N=1)


class TestFindRWalk:
    """The early-stopping walk and the mirror bound against the search over
    every point."""

    @pytest.mark.parametrize("name", FIND_R_CASES)
    def test_same_R_as_every_point(self, request, sector_right, name):
        calc = find_R_case(request, sector_right, name)
        assert calc.find_R() == find_R_all_points(calc)

    def test_reference_evaluates_every_point(self, sector_right, monkeypatch):
        # the search over every point forms each b^N itself, so it checks
        # find_R's mirror against no mirror
        calc = calc_of(sector_right, *MIRRORED["ref1d"])
        lams = eval_spy(calc, monkeypatch)
        assert find_R_all_points(calc) == 1.0
        assert lams == list(calc.sector.ray_points(parametrix._R_CANDIDATES))

    @pytest.mark.parametrize("name", FIND_R_CASES)
    def test_mirror_bound_covers_the_mirror_error(self, request, sector_right, name):
        # ||r_lo - P conj(r_up) P||_2 <= mirror_error_bound at every radius,
        # r_lo formed from the mirrored quantize(b^N); on a symmetric symbol
        # also r_lo as find_R computes it, from its own quantize(b^N)
        calc = find_R_case(request, sector_right, name)
        for up, lo in calc.sector.ray_points(parametrix._R_CANDIDATES).reshape(-1, 2):
            point = calc.remainder(up)
            bound = calc.mirror_error_bound(point)
            r_lo = calc.shifted_matrix(lo) @ mode_mirror(point.q_bN, calc.k)
            r_lo.flat[::len(r_lo) + 1] -= 1
            r_lows = [r_lo] + [calc.remainder(lo).matrix] * calc.conj_symmetric
            for r_lo in r_lows:
                error = np.linalg.norm(r_lo - mode_mirror(point.matrix, calc.k), 2)
                assert error <= bound, (name, up)

    @pytest.mark.parametrize("name", sorted(MIRRORED))
    def test_fft_term_covers_the_lower_points_own_quantization(self, sector_right, name):
        # the lower b^N is the bitwise mirror of the upper one, and its own
        # quantize(b^N) is within the bound's FFT term of P conj(Q_up) P
        calc = calc_of(sector_right, *MIRRORED[name])
        g = calc.grid
        for up, lo in calc.sector.ray_points(parametrix._R_CANDIDATES).reshape(-1, 2):
            b_up, b_lo = calc.assemble_bN(up), calc.assemble_bN(lo)
            assert np.array_equal(conj_mirror(b_up.values), b_lo.values)
            q_err = (2 * fft_rounding(g) * np.linalg.norm(b_up.values)
                     / g.points ** (g.n / 2))
            error = np.linalg.norm(quantize(b_lo).matrix
                                   - mode_mirror(quantize(b_up).matrix, calc.k))
            assert error <= q_err, (name, up)

    @pytest.mark.parametrize("n, points", [(1, 16), (1, 128), (2, 16)])
    def test_fft_rounding_bounds_the_dft_error(self, n, points):
        # numpy's FFT against the DFT in extended precision, on random tables
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("no extended precision for the reference DFT")
        grid = sc.TorusGrid(n=n, points=points)
        j = np.arange(points)
        pi = 4 * np.arctan(np.longdouble(1))
        angle = -2 * pi * (np.outer(j, j) % points).astype(np.longdouble) / points
        dft = np.cos(angle) + 1j * np.sin(angle)
        if n == 2:
            dft = np.kron(dft, dft)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(8):
            x = rng.standard_normal((points,) * n) + 1j * rng.standard_normal((points,) * n)
            exact = dft @ x.ravel().astype(np.clongdouble)
            error = np.linalg.norm((np.fft.fftn(x).ravel() - exact).astype(complex))
            worst = max(worst, error / np.linalg.norm(exact.astype(complex)))
        assert worst <= fft_rounding(grid)

    def test_mirror_bound_passes_every_lower_point_of_the_benchmark(
            self, sector_right, monkeypatch):
        calc = calc_of(sector_right, *MIRRORED["ref1d"])
        lams = eval_spy(calc, monkeypatch)
        assert calc.find_R() == 1.0
        assert calc.find_R_points == {"computed": 21, "mirror_bound": 21, "skipped": 0}
        upper = calc.sector.ray_points(parametrix._R_CANDIDATES)[0::2]
        assert lams == list(upper[::-1])

    def test_walk_stops_at_the_first_failing_point(self, slow_decay_calc,
                                                   monkeypatch):
        # radii 2^20 .. 64 pass, the upper point at 32 fails: the lower point
        # at 32 and both points at 16 .. 1 are never formed
        lams = eval_spy(slow_decay_calc, monkeypatch)
        assert slow_decay_calc.find_R() == 64.0
        assert slow_decay_calc.find_R_points == {
            "computed": 16, "mirror_bound": 15, "skipped": 11}
        assert [abs(lam) for lam in lams] == pytest.approx(2.0 ** np.arange(20, 4, -1))

    def test_asymmetric_symbol_computes_every_lower_point(self, sector_right):
        calc = tilted_calc(sector_right)
        assert not calc.conj_symmetric
        assert calc.find_R() == 128.0
        # 2^20 .. 64: both points; the lower point at 64 fails
        assert calc.find_R_points == {"computed": 30, "mirror_bound": 0, "skipped": 12}

    @pytest.mark.parametrize("name", ["slow_decay_calc"] + sorted(MIRRORED))
    def test_failing_mirror_bound_computes_the_lower_point(self, request, sector_right,
                                                           monkeypatch, name):
        # with the mirror bound failing everywhere, a symmetric symbol's
        # lower points are computed like an asymmetric symbol's, from their
        # own b^N, and R is the search's over every point
        calc = find_R_case(request, sector_right, name)
        monkeypatch.setattr(calc, "mirror_error_bound", lambda point: 1.0)
        lams = eval_spy(calc, monkeypatch)
        assert calc.conj_symmetric
        assert calc.find_R() == find_R_all_points(calc)
        computed = calc.find_R_points["computed"]
        assert calc.find_R_points["mirror_bound"] == 0 and computed > 1
        pairs = calc.sector.ray_points(parametrix._R_CANDIDATES).reshape(-1, 2)
        assert lams[:computed] == list(pairs[::-1].ravel()[:computed])

    def test_too_small_a_bound_changes_R(self, sector_right, monkeypatch):
        # mutation: the gate forced and the mirror bound set to 0 pass the
        # failing lower point at 64 behind its upper partner, so R moves
        # against the search over every point
        calc = tilted_calc(sector_right)
        assert find_R_all_points(calc) == 128.0
        calc.conj_symmetric = True
        monkeypatch.setattr(calc, "mirror_error_bound", lambda point: 0.0)
        assert calc.find_R() == 64.0


class TestNeumannSum:
    """Binary splitting of the Neumann sum against Horner's rule."""

    @staticmethod
    def check(r_mat, Ks=range(65)):
        for K in Ks:
            split, products = products_formed(parametrix.neumann_sum, r_mat, K)
            horner = neumann_horner(r_mat, K)
            assert rel_sup_diff(split, horner) <= 1e-13, K
            assert products == parametrix.neumann_products(K), K
            assert products <= 2 * int(np.log2(K + 1)), K

    @pytest.mark.parametrize("norm", [0.1, 0.45, 0.9])
    @pytest.mark.parametrize("normal", [True, False], ids=["dense", "triangular"])
    def test_random_contractions(self, norm, normal):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        if not normal:
            m = np.triu(m)
        self.check(m * (norm / np.linalg.norm(m, 2)))

    @pytest.mark.parametrize("name", ["ref1d", "scene2d", "matrix3"])
    def test_benchmark_remainders(self, sector_right, name):
        calc = calc_of(sector_right, *MIRRORED[name])
        # scene2d's dimension is 225: a sample of K up to 64, with both bit
        # values at each position of K + 1, keeps its Horner sums to a second
        Ks = (range(65) if name != "scene2d" else
              (0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 14, 15, 16, 21, 31, 32, 42, 64))
        for rad in (1.0, 100.0):
            r_mat = calc.remainder(complex(calc.sector.boundary_point(rad))).matrix
            self.check(r_mat, Ks)

    def test_horner_count_of_the_reference(self):
        # the counter sees Horner's K products
        r_mat = np.eye(3) * 0.1
        assert [products_formed(neumann_horner, r_mat, K)[1] for K in range(5)] == \
            [0, 1, 2, 3, 4]


class TestShift:
    def test_expression(self, var_laplace):
        shifted = sc.shift(var_laplace, 1.0)
        x = np.linspace(0, 6, 9)[:, None]
        xi = np.linspace(-4, 4, 9)[None, :]
        assert np.array_equal(shifted.eval(x, xi), var_laplace.eval(x, xi) + 1.0)

    def test_spectrum_translates(self, grid16, var_laplace):
        eigs = sc.eigenvalues_grid(sc.sample(var_laplace, grid16).values)
        eigs_shifted = sc.eigenvalues_grid(
            sc.sample(sc.shift(var_laplace, 2.5), grid16).values)
        assert np.max(np.abs(eigs_shifted - eigs - 2.5)) <= 1e-12 * np.max(np.abs(eigs))

    def test_positive_required(self, var_laplace):
        with pytest.raises(ValueError):
            sc.shift(var_laplace, -1.0)
