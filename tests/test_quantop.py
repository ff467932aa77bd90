"""Quantization and exact composition."""

import numpy as np
import pytest

import sectorcalc as sc
from sectorcalc.quantop import QuantOp

from reference import apply_dense, apply_fft, unit_symbol


def sup_diff(a, b, margin=0):
    return (a - b).sup_norm(interior_margin=margin)


class TestQuantize:
    def test_identity(self, grid16):
        op = sc.quantize(unit_symbol(grid16))
        assert np.max(np.abs(op.matrix - np.eye(op.matrix.shape[0]))) <= 1e-14

    def test_multiplier_is_diagonal(self, grid16):
        op = sc.quantize(sc.sample(sc.parse_symbol("xi1", n=1), grid16))
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off)) <= 1e-14
        assert np.allclose(np.diag(op.matrix), grid16.xi_axis)

    def test_phase_is_mode_shift_with_truncation(self, grid16):
        op = sc.quantize(sc.sample(sc.parse_symbol("exp(i*x1)", n=1), grid16))
        M = grid16.n_modes
        expected = np.zeros((M, M), dtype=complex)
        expected[np.arange(1, M), np.arange(0, M - 1)] = 1.0  # mode shift by +1
        assert np.max(np.abs(op.matrix - expected)) <= 1e-13
        # topmost input mode has nowhere to go: truncated at the window edge
        assert np.max(np.abs(op.matrix[:, M - 1])) <= 1e-13

    def test_extract_identity_is_one(self, grid16):
        op = QuantOp(grid16, 1, np.eye(grid16.n_modes, dtype=complex))
        gs = sc.extract_symbol(op)
        assert np.max(np.abs(gs.values - 1.0)) <= 1e-14

    def test_roundtrip_x_independent_exact(self, grid16):
        gs = sc.sample(sc.parse_symbol("bracket(xi)^2", n=1), grid16)
        back = sc.extract_symbol(sc.quantize(gs))
        assert sup_diff(back, gs) <= 1e-12

    def test_roundtrip_interior_for_banded_symbol(self, grid32, var_laplace):
        # x-trig degree 1: faithful at modes |xi| <= Xi - 1
        gs = sc.sample(var_laplace, grid32)
        back = sc.extract_symbol(sc.quantize(gs))
        assert sup_diff(back, gs, margin=1) <= 1e-12

    def test_reverse_roundtrip_exact_for_any_matrix(self, grid16):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(grid16.n_modes,) * 2) + 1j * rng.normal(size=(grid16.n_modes,) * 2)
        op = QuantOp(grid16, 1, M)
        back = sc.quantize(sc.extract_symbol(op))
        assert np.max(np.abs(back.matrix - M)) <= 1e-12 * np.max(np.abs(M))

    def test_2d_identity_and_roundtrip(self, grid2d):
        op = sc.quantize(unit_symbol(grid2d))
        assert np.max(np.abs(op.matrix - np.eye(op.matrix.shape[0]))) <= 1e-14
        gs = sc.sample(sc.parse_symbol("bracket(xi)^2", n=2), grid2d)
        back = sc.extract_symbol(sc.quantize(gs))
        assert sup_diff(back, gs) <= 1e-12

    def test_matrix_valued_roundtrip(self, grid16):
        expr, _ = sc.get_preset("jordan2", n=1)
        gs = sc.sample(expr, grid16)
        back = sc.extract_symbol(sc.quantize(gs))
        assert sup_diff(back, gs) <= 1e-12  # entries are x-independent

    def test_apply_matches_fft_path(self, grid16, var_laplace):
        rng = np.random.default_rng(2)
        gs = sc.sample(var_laplace, grid16)
        op = sc.quantize(gs)
        u = rng.normal(size=grid16.x_shape) + 1j * rng.normal(size=grid16.x_shape)
        via_matrix = apply_dense(op, u)
        via_fft = apply_fft(gs, u)
        scale = np.max(np.abs(via_fft))
        assert np.max(np.abs(via_matrix - via_fft)) <= 1e-11 * scale


class TestComposeExact:
    def test_ones(self, grid16):
        one = unit_symbol(grid16)
        assert sup_diff(sc.compose_exact(one, one), one) <= 1e-13

    def test_x_independent_is_pointwise_product(self, grid16):
        gs = sc.sample(sc.parse_symbol("bracket(xi)^2", n=1), grid16)
        prod = sc.compose_exact(gs, gs)
        expected = sc.sample(sc.parse_symbol("bracket(xi)^4", n=1), grid16)
        assert sup_diff(prod, expected) <= 1e-10

    def test_shift_composition_matches_leibniz(self, grid16):
        # xi # e^{ix} = (xi+1) e^{ix}: one Leibniz term, exact off the edge
        a = sc.sample(sc.parse_symbol("xi1", n=1), grid16)
        b = sc.sample(sc.parse_symbol("exp(i*x1)", n=1), grid16)
        composed = sc.compose_exact(a, b)
        expected = sc.sample(sc.parse_symbol("(xi1+1)*exp(i*x1)", n=1), grid16)
        assert sup_diff(composed, expected, margin=1) <= 1e-12

    def test_associativity(self, grid16, var_laplace):
        a = sc.sample(sc.parse_symbol("xi1", n=1), grid16)
        b = sc.sample(sc.parse_symbol("exp(i*x1)", n=1), grid16)
        c = sc.sample(var_laplace, grid16)
        left = sc.compose_exact(sc.compose_exact(a, b), c)
        right = sc.compose_exact(a, sc.compose_exact(b, c))
        scale = max(left.sup_norm(), 1.0)
        assert sup_diff(left, right) <= 1e-11 * scale

    def test_operator_faithfulness(self, grid16, var_laplace):
        a = sc.sample(var_laplace, grid16)
        b = sc.sample(sc.parse_symbol("exp(i*x1)*bracket(xi)^(-2)", n=1), grid16)
        qa, qb = sc.quantize(a), sc.quantize(b)
        lhs = sc.quantize(sc.compose_exact(a, b)).matrix
        rhs = (qa @ qb).matrix
        bound = 1e-11 * sc.operator_norm(qa.matrix) * sc.operator_norm(qb.matrix)
        assert sc.operator_norm(lhs - rhs) <= bound

    def test_grid_mismatch(self, grid16, grid32):
        with pytest.raises(sc.GridMismatchError):
            sc.compose_exact(unit_symbol(grid16), unit_symbol(grid32))


class TestLeibnizTruncated:
    def test_x_independent_any_order(self, grid16):
        a = sc.parse_symbol("bracket(xi)^2", n=1)
        b = sc.sample(sc.parse_symbol("bracket(xi)^(-2)", n=1), grid16)
        got = sc.leibniz_truncated(a, b, K=1)
        assert sup_diff(got, unit_symbol(grid16)) <= 1e-12

    def test_shift_pair_terminates(self, grid16):
        a = sc.parse_symbol("xi1", n=1)
        b = sc.sample(sc.parse_symbol("exp(i*x1)", n=1), grid16)
        got = sc.leibniz_truncated(a, b, K=2)
        expected = sc.sample(sc.parse_symbol("(xi1+1)*exp(i*x1)", n=1), grid16)
        assert sup_diff(got, expected) <= 1e-12

    def test_polynomial_matches_exact_composition(self, grid32, var_laplace):
        # dense matrix-product oracle: expansion is finite for xi-poly degree 2
        b = sc.sample(sc.parse_symbol("exp(i*x1)/(2+xi1^2)", n=1), grid32)
        truncated = sc.leibniz_truncated(var_laplace, b, K=3)
        exact = sc.compose_exact(sc.sample(var_laplace, grid32), b)
        assert sup_diff(truncated, exact, margin=3) <= 1e-10

    def test_budget_guard(self, grid16, var_laplace):
        b = sc.sample(var_laplace, grid16)
        with pytest.raises(sc.DerivativeOrderError):
            sc.leibniz_truncated(var_laplace, b, K=sc.MAX_DERIVATIVE_ORDER + 2)
