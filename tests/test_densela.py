"""Dense backend: resolvents, operator norms, FFT application."""

import numpy as np
import pytest

import sectorcalc as sc
from sectorcalc import densela
from sectorcalc.util import fit_loglog_slope, japanese_bracket

from reference import apply_dense, apply_fft, unit_symbol


def jacobi_svd_norms(M, sweeps=30):
    """One-sided Jacobi SVD: independent oracle for singular values."""
    A = M.astype(complex).copy()
    n = A.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap = A[:, p]
                aq = A[:, q]
                hpq = np.vdot(ap, aq)
                off = max(off, abs(hpq))
                if abs(hpq) < 1e-15:
                    continue
                hpp = np.vdot(ap, ap).real
                hqq = np.vdot(aq, aq).real
                # 2x2 Hermitian eigen-rotation on columns p, q
                tau = (hqq - hpp) / (2 * abs(hpq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1 + t * t)
                s = c * t * (hpq / abs(hpq))
                Ap = c * ap - np.conj(s) * aq
                Aq = s * ap + c * aq
                A[:, p], A[:, q] = Ap, Aq
        if off < 1e-14:
            break
    return np.sort(np.linalg.norm(A, axis=0))[::-1]


class TestDenseResolvent:
    def test_diagonal_multiplier(self, grid16):
        A = sc.quantize(sc.sample(sc.parse_symbol("bracket(xi)^2", n=1), grid16))
        X = sc.dense_resolvent(A, -1.0)
        expected = np.diag(1.0 / (2.0 + grid16.xi_axis ** 2))
        assert np.max(np.abs(X - expected)) <= 1e-13

    def test_residual_contract(self):
        rng = np.random.default_rng(12)
        M = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)) + 8 * np.eye(40)
        X = sc.dense_resolvent(M, 0.5 + 0.5j)
        eye = np.eye(40)
        assert np.max(np.abs((M - (0.5 + 0.5j) * eye) @ X - eye)) <= 1e-12

    def test_exact_spectrum_flagged(self):
        with pytest.raises(sc.SingularOperatorError):
            sc.dense_resolvent(np.diag([1.0, 2.0]).astype(complex), 1.0)

    def test_near_spectrum_flagged(self):
        # defective block: residual blows up near the eigenvalue
        J = np.diag(np.full(12, 2.0 + 0j)) + np.diag(np.ones(11), 1)
        with pytest.raises(sc.SingularOperatorError):
            sc.dense_resolvent(J, 2.0 + 1e-10)

    def test_resolvent_identity(self, grid16, var_laplace_shifted):
        A = sc.quantize(sc.sample(var_laplace_shifted, grid16)).matrix
        lam, mu = -2.0 + 1j, -30.0 - 4j
        Xl = sc.dense_resolvent(A, lam)
        Xm = sc.dense_resolvent(A, mu)
        lhs = Xl - Xm
        rhs = (lam - mu) * (Xl @ Xm)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))

    def test_h2prime_sweep_slope(self, grid32, var_laplace_shifted, sector_right):
        A = sc.quantize(sc.sample(var_laplace_shifted, grid32)).matrix
        radii = np.geomspace(10.0, 1e4, 8)
        rows = sc.resolvent_norm_sweep(A, sector_right, radii)
        slope, weighted_sup = sc.resolvent_decay_probe(rows)
        assert -1.1 <= slope <= -0.9
        assert np.isfinite(weighted_sup)

    def test_sweep_norms_are_exact(self, grid32, var_laplace_shifted, sector_right):
        # the sweep's norms are exact, not a power-iteration lower bound
        A = sc.quantize(sc.sample(var_laplace_shifted, grid32)).matrix
        rows = sc.resolvent_norm_sweep(A, sector_right, np.geomspace(10.0, 1e4, 8))
        assert len(rows) == 16
        for lam, nrm in rows:
            ref = np.linalg.norm(np.linalg.inv(A - lam * np.eye(len(A))), 2)
            assert abs(nrm - ref) <= 1e-12 * ref

    def test_sweep_flags_the_spectrum(self, sector_right):
        lam = sector_right.ray_points(np.array([2.0]))[0]
        with pytest.raises(sc.SingularOperatorError):
            sc.resolvent_norm_sweep(np.diag([lam, 100.0]), sector_right, [2.0])

    def test_weighted_sup_stable_under_doubling(self, grid16, var_laplace_shifted,
                                                sector_right):
        A = sc.quantize(sc.sample(var_laplace_shifted, grid16)).matrix
        sups = []
        for count in (8, 16):
            rows = sc.resolvent_norm_sweep(A, sector_right,
                                           np.geomspace(10.0, 1e4, count))
            sups.append(max(japanese_bracket(lam) * n for lam, n in rows))
        assert abs(sups[1] - sups[0]) <= 0.05 * sups[0]


class TestOperatorNorm:
    def test_identity(self):
        assert sc.operator_norm(np.eye(12, dtype=complex)) == pytest.approx(1.0)

    def test_diagonal(self):
        D = np.diag([3.0, 1.0, 1.0, 1.0, 1.0]).astype(complex)
        assert sc.operator_norm(D) == pytest.approx(3.0, rel=1e-7)

    def test_against_jacobi_svd(self):
        rng = np.random.default_rng(21)
        M = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        ours = sc.operator_norm(M)
        oracle = jacobi_svd_norms(M)[0]
        assert ours == pytest.approx(oracle, rel=1e-7)

    def test_submultiplicative(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            A = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
            B = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
            assert sc.operator_norm(A @ B) <= \
                sc.operator_norm(A) * sc.operator_norm(B) * (1 + 1e-8)

    @pytest.mark.parametrize("case", ["lower_start", "jordan", "random_complex"])
    def test_is_the_largest_singular_value(self, case):
        # bitwise one SVD's sigma_max: the first matrix's top singular vector
        # is orthogonal to the all-ones vector, from which power iteration
        # read 0.4, and a Jordan block's top singular values cluster
        q = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        rng = np.random.default_rng(23)
        M = {"lower_start": q @ np.diag([0.6, 0.4]) @ q.T,
             "jordan": 2.0 * np.eye(12) + np.eye(12, k=1),
             "random_complex": rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)),
             }[case]
        assert sc.operator_norm(M) == np.linalg.svd(M, compute_uv=False)[0]
        assert sc.operator_norm(M, 1e-8, 5000, return_info=True) == \
            (sc.operator_norm(M), True, 0)

    def test_zero_matrix(self):
        assert sc.operator_norm(np.zeros((5, 5), dtype=complex)) == 0.0


class TestNormBound:
    """densela.norm_bound against the exact norm it stands in for."""

    def test_upper_bound_exact_at_the_threshold(self):
        # never below ||M||_2, the exact norm wherever it is at least t, so
        # the comparison with t is the exact norm's
        rng = np.random.default_rng(5)
        for scale in (0.02, 0.1, 0.3, 1.0, 3.0):
            M = scale * (rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))) / 24
            exact = np.linalg.norm(M, 2)
            for t in (0.05, 0.5, 2.0):
                bound = densela.norm_bound(M, t)
                assert bound >= exact
                assert (bound < t) == (exact < t)
                if bound >= t:
                    assert bound == exact

    def test_power_iteration_lower_bound_not_taken(self):
        # ||M||_2 = 0.6, but power iteration from the all-ones vector, which
        # is orthogonal to the top singular vector, would read 0.4
        q = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        M = q @ np.diag([0.6, 0.4]) @ q.T
        ones = np.ones(2) / np.sqrt(2.0)
        assert np.linalg.norm(M @ ones) == pytest.approx(0.4)
        assert sc.operator_norm(M) == pytest.approx(0.6)
        assert densela.norm_bound(M, 0.5) == np.linalg.norm(M, 2)

    def test_small_matrix_takes_the_cheaper_bound(self):
        # a single dominant entry: the Hoelder bound is its modulus
        M = np.diag([0.25, 0.01, 0.01]).astype(complex)
        assert densela.norm_bound(M, 0.5) == 0.25
        assert densela.norm_bound(np.zeros((3, 3)), 0.5) == 0.0


class TestApplyFft:
    def test_identity_symbol(self, grid16):
        rng = np.random.default_rng(1)
        u = rng.normal(size=grid16.x_shape) + 1j * rng.normal(size=grid16.x_shape)
        one = unit_symbol(grid16)
        out = apply_fft(one, u)
        # identity on the window content of u (Nyquist mode is outside)
        expected = apply_dense(sc.quantize(one), u)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(u))

    def test_derivative_on_eigenfunction(self, grid16):
        gs = sc.sample(sc.parse_symbol("xi1", n=1), grid16)
        u = np.exp(1j * grid16.x_axis)
        out = apply_fft(gs, u)
        assert np.max(np.abs(out - u)) <= 1e-12

    def test_random_matches_dense_path(self, grid16, var_laplace):
        rng = np.random.default_rng(8)
        gs = sc.sample(var_laplace, grid16)
        op = sc.quantize(gs)
        for _ in range(3):
            u = rng.normal(size=grid16.x_shape) + 1j * rng.normal(size=grid16.x_shape)
            lhs = apply_fft(gs, u)
            rhs = apply_dense(op, u)
            assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(np.max(np.abs(rhs)), 1.0)

    def test_2d_matches_dense_path(self, grid2d):
        rng = np.random.default_rng(4)
        gs = sc.sample(sc.parse_symbol("(2+cos(x1)*sin(x2))*(1+xi1^2+xi2^2)", n=2),
                       grid2d)
        op = sc.quantize(gs)
        u = rng.normal(size=grid2d.x_shape) + 1j * rng.normal(size=grid2d.x_shape)
        lhs = apply_fft(gs, u)
        rhs = apply_dense(op, u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * np.max(np.abs(rhs))

    def test_shape_mismatch(self, grid16):
        with pytest.raises(sc.GridMismatchError):
            apply_fft(unit_symbol(grid16), np.zeros(7))


def test_fit_loglog_slope_recovers_power_law():
    xs = np.geomspace(1, 1e4, 20)
    slope, intercept = fit_loglog_slope(xs, 3.0 * xs ** -1.5)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_fit_loglog_slope_rejects_nonpositive_or_nonfinite(bad, axis):
    # a sample the fit cannot take is the caller's to drop, not the fit's
    xs = np.geomspace(1, 1e4, 5)
    ys = 3.0 * xs ** -1.5
    (xs if axis == "x" else ys)[2] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        fit_loglog_slope(xs, ys)
