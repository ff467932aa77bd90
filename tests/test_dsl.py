"""Symbol expression language: parsing, exact derivatives, validation."""

import numpy as np
import pytest

import sectorcalc as sc
from sectorcalc.errors import (DerivativeOrderError, DimensionIndexError,
                               NonPeriodicError, SymbolDomainError,
                               SymbolSyntaxError, UnknownIdentifierError)


def ev(expr, x, xi):
    return complex(expr.eval(np.asarray(x, dtype=float),
                             np.asarray(xi, dtype=float))[..., 0, 0])


class TestParsing:
    def test_bracket_power_at_origin(self):
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        assert ev(expr, 0.0, 0.0) == pytest.approx(1.0)

    def test_product_value(self):
        expr = sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1)
        assert ev(expr, np.pi / 2, 1.0) == pytest.approx(6.0)

    def test_syntax_error_position(self):
        with pytest.raises(SymbolSyntaxError) as err:
            sc.parse_symbol("2+*x1", n=1)
        assert err.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            sc.parse_symbol("foo(x1)", n=1)

    def test_dimension_index_out_of_range(self):
        with pytest.raises(DimensionIndexError):
            sc.parse_symbol("x3+xi1", n=1)

    def test_nonperiodic_rejected(self):
        with pytest.raises(NonPeriodicError):
            sc.parse_symbol("x1", n=1)

    def test_log_branch_cut_rejected(self):
        with pytest.raises(SymbolDomainError):
            sc.parse_symbol("log(xi1)", n=1)

    def test_log_of_bracket_fine(self):
        expr = sc.parse_symbol("log(bracket(xi))", n=1)
        assert ev(expr, 0.0, 0.0) == pytest.approx(0.0)

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(SymbolDomainError):
            sc.parse_symbol("xi1^0.5", n=1)
        sc.parse_symbol("(2+xi1^2)^0.5", n=1)

    def test_complex_constant_and_pi(self):
        expr = sc.parse_symbol("exp(i*x1)", n=1)
        assert ev(expr, np.pi, 0.0) == pytest.approx(-1.0)
        assert ev(sc.parse_symbol("pi", n=1), 0.0, 0.0) == pytest.approx(np.pi)

    def test_power_of_negative_exponent(self):
        expr = sc.parse_symbol("bracket(xi)^(-2)", n=1)
        assert ev(expr, 0.0, 1.0) == pytest.approx(0.5)

    def test_two_dimensional_variables(self):
        expr = sc.parse_symbol("sin(x2)*xi1 + xi2^2", n=2)
        val = expr.eval((np.array(0.0), np.array(np.pi / 2)),
                        (np.array(3.0), np.array(2.0)))
        assert complex(val[..., 0, 0]) == pytest.approx(3.0 + 4.0)

    def test_matrix_symbol_parse(self):
        expr = sc.parse_symbol("[[bracket(xi)^2, 1], [0, bracket(xi)^2]]", n=1, k=2)
        val = expr.eval(np.array(0.0), np.array(1.0))
        assert val[..., 0, 0] == pytest.approx(2.0)
        assert val[..., 0, 1] == pytest.approx(1.0)
        assert val[..., 1, 0] == pytest.approx(0.0)

    def test_matrix_size_mismatch(self):
        with pytest.raises(SymbolSyntaxError):
            sc.parse_symbol("[[1, 0], [0, 1]]", n=1, k=3)

    def test_matrix_size_comes_from_the_text(self):
        expr = sc.parse_symbol("[[bracket(xi)^2+5, 100], [0, bracket(xi)^2+7]]", n=1)
        assert expr.k == 2
        val = expr.eval(np.array(0.0), np.array(1.0))
        assert np.array_equal(val, [[7, 100], [0, 9]])

    @pytest.mark.parametrize("text, offset", [
        ("[[1, 0] junk [0, 1]]", 8),
        ("[[1, 0] [0, 1]]", 8),
        ("[[1, 0],, [0, 1]]", 8),
        ("[[1,0],[0,1]]]", 13),
        ("[[1, 0], [0]]", 9),
    ], ids=["junk", "missing_comma", "double_comma", "extra_bracket", "ragged"])
    def test_malformed_matrix_rejected(self, text, offset):
        with pytest.raises(SymbolSyntaxError) as info:
            sc.parse_symbol(text, n=1)
        assert info.value.position == offset

    def test_matrix_error_offset_is_into_the_whole_text(self):
        with pytest.raises(DimensionIndexError) as info:
            sc.parse_symbol("[[1, 0], [0, x9]]", n=1)
        assert info.value.position == 13


class TestDerivatives:
    def test_bracket_square_xi_derivative(self):
        d = sc.parse_symbol("bracket(xi)^2", n=1).diff(alpha=(1,))
        assert ev(d, 0.0, 3.0) == pytest.approx(6.0)

    def test_x_derivative(self):
        d = sc.parse_symbol("2+sin(x1)", n=1).diff(beta=(1,))
        assert ev(d, 0.0, 0.0) == pytest.approx(1.0)

    def test_log_x_derivative_is_exact(self):
        d = sc.parse_symbol("log(2+sin(x1))", n=1).diff(beta=(1,))
        x = np.linspace(0.0, 2.0 * np.pi, 101)
        got = d.eval(x, np.zeros_like(x))[..., 0, 0]
        assert np.max(np.abs(got - np.cos(x) / (2.0 + np.sin(x)))) <= 1e-14

    def test_mixed_derivative(self):
        expr = sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1)
        d = expr.diff(alpha=(1,), beta=(1,))
        assert ev(d, 0.0, 1.0) == pytest.approx(2.0)

    def test_order_budget_enforced(self):
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        with pytest.raises(DerivativeOrderError):
            expr.diff(alpha=(5,), beta=(4,))

    def test_derivatives_commute(self):
        rng = np.random.default_rng(7)
        expr = sc.parse_symbol("exp(sin(x1))*bracket(xi)^(-1)+cos(x1)*xi1", n=1)
        d1 = expr.diff(alpha=(1,)).diff(beta=(1,))
        d2 = expr.diff(beta=(1,)).diff(alpha=(1,))
        x = rng.uniform(0, 2 * np.pi, 100)
        xi = rng.uniform(-10, 10, 100)
        v1 = d1.eval(x, xi)[..., 0, 0]
        v2 = d2.eval(x, xi)[..., 0, 0]
        assert np.max(np.abs(v1 - v2)) <= 1e-12 * np.max(1 + np.abs(v1))

    def test_against_central_differences(self):
        # finite differences are the independent oracle for the exact trees
        rng = np.random.default_rng(11)
        expr = sc.parse_symbol("(2+sin(x1))*bracket(xi)^(-2)", n=1)
        h = 1e-4
        for _ in range(10):
            x = rng.uniform(0.3, 5.5)
            xi = rng.uniform(0.5, 8.0)
            exact = ev(expr.diff(alpha=(1,)), x, xi)
            fd = (ev(expr, x, xi + h) - ev(expr, x, xi - h)) / (2 * h)
            assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact))
            exact_x = ev(expr.diff(beta=(1,)), x, xi)
            fd_x = (ev(expr, x + h, xi) - ev(expr, x - h, xi)) / (2 * h)
            assert abs(exact_x - fd_x) <= 1e-6 * max(1.0, abs(exact_x))

    def test_mixed_against_nested_differences(self):
        expr = sc.parse_symbol("cos(x1)*(1+xi1^2)^2", n=1)
        h = 1e-4
        x, xi = 1.1, 2.3
        exact = ev(expr.diff(alpha=(1,), beta=(1,)), x, xi)

        def dxi(f, x, xi):
            return (f(x, xi + h) - f(x, xi - h)) / (2 * h)

        fd = (dxi(lambda a, b: ev(expr, a, b), x + h, xi)
              - dxi(lambda a, b: ev(expr, a, b), x - h, xi)) / (2 * h)
        assert abs(exact - fd) <= 1e-5 * max(1.0, abs(exact))


class TestSubtraction:
    @pytest.mark.parametrize("left, right", [
        ("(2+sin(x1))*(1+xi1^2)", "bracket(xi)/(3-cos(x1))"),
        ("exp(i*x1)+xi1^2", "cos(x1)/(2+xi1^2)-5"),
    ])
    def test_difference_of_the_parts(self, left, right):
        # a - b parses to a + (-b), and x - y is x + (-y) in IEEE
        # arithmetic: values and exact derivatives are the float differences
        a, b = (sc.parse_symbol(text, n=1) for text in (left, right))
        d = sc.parse_symbol(f"({left}) - ({right})", n=1)
        x = np.linspace(0, 6, 17)[:, None]
        xi = np.linspace(-5, 5, 11)[None, :]
        for alpha, beta in [((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((2,), (1,))]:
            da, db, dd = (e.diff(alpha, beta).eval(x, xi) for e in (a, b, d))
            assert np.array_equal(dd, da - db), (alpha, beta)


class TestClassParams:
    def test_strict_requires_delta_below_rho(self):
        with pytest.raises(ValueError):
            sc.SymbolClassParams(m=1, rho=0.5, delta=0.5).validate(strict=True)
        sc.SymbolClassParams(m=1, rho=0.5, delta=0.5).validate(strict=False)

    def test_rho_delta_ranges(self):
        with pytest.raises(ValueError):
            sc.SymbolClassParams(m=1, rho=1.5).validate()
        with pytest.raises(ValueError):
            sc.SymbolClassParams(m=1, delta=1.0).validate(strict=False)

    def test_pipeline_needs_nonnegative_order(self):
        with pytest.raises(ValueError):
            sc.SymbolClassParams(m=-1).validate(require_nonnegative_order=True)


class TestPresets:
    def test_registry_contents(self):
        assert set(sc.preset_names()) >= {"bracket_power", "variable_laplace",
                                          "rotated_phase", "jordan2"}

    def test_bracket_power_arg(self):
        expr, params = sc.get_preset("bracket_power 2", n=1)
        assert params.m == 2.0
        assert ev(expr, 0.0, 1.0) == pytest.approx(2.0)

    def test_negated_preset(self):
        expr, _ = sc.get_preset("-bracket_power 2", n=1)
        assert ev(expr, 0.0, 0.0) == pytest.approx(-1.0)

    def test_jordan2_is_2x2(self):
        expr, _ = sc.get_preset("jordan2", n=1)
        assert expr.k == 2

    def test_unknown_preset(self):
        with pytest.raises(sc.ConfigError):
            sc.get_preset("does_not_exist", n=1)
