"""Sector geometry, spectrum checks and resolvent-bound constants."""

import numpy as np
import pytest

import sectorcalc as sc
from sectorcalc.util import multi_indices_below

from reference import pointwise_resolvent_norms

MATRIX3 = ("[[(2+sin(x1))*(1+xi1^2)+5, bracket(xi), 0], "
           "[0, (2+cos(x1))*(1+xi1^2)+5, bracket(xi)], [0, 0, bracket(xi)^2+5]]")


class TestSector:
    def test_membership(self, sector_right):
        assert sector_right.contains(-1.0)
        assert sector_right.contains(0.0)
        assert sector_right.contains(1j)          # boundary ray included
        assert not sector_right.contains(1.0)
        assert not sector_right.contains(2.0 + 0.1j)

    def test_positive_axis_never_inside(self):
        for theta in (0.1, np.pi / 4, 3.0):
            assert not sc.Sector(theta).contains(7.0)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            sc.Sector(0.0)
        with pytest.raises(ValueError):
            sc.Sector(np.pi)

    def test_boundary_points_belong(self):
        sec = sc.Sector(np.pi / 4)
        assert sec.contains(sec.boundary_point(17.3))
        assert sec.contains(sec.boundary_point(17.3, upper=False))


class TestCheckSpectrum:
    def test_bracket_square_passes(self, grid16, sector_right):
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        report = sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid16)
        assert report.passed and report.n_violations == 0

    def test_negated_fails_on_negative_axis(self, grid16, sector_right):
        expr, _ = sc.get_preset("-bracket_power 2", n=1)
        report = sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid16)
        assert not report.passed
        assert report.n_violations > 0
        _, _, eig = report.violations[0]
        assert eig.real < 0 and abs(eig.imag) < 1e-12

    def test_variable_laplace_quarter_sector(self, grid32, var_laplace):
        report = sc.check_spectrum(var_laplace, sc.Sector(np.pi / 4), 0.5, 0.0, grid32)
        assert report.passed
        assert report.extras["min_eigen_modulus"] == pytest.approx(1.0)

    def test_cutoff_masks_low_frequencies(self, grid16, sector_right):
        # symbol dips into the disc at xi = 0 only; C = 2 masks it
        expr = sc.parse_symbol("bracket(xi)^2 - 1 + 0.1", n=1)
        assert not sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid16).passed
        assert sc.check_spectrum(expr, sector_right, 0.5, 2.0, grid16).passed

    def test_jordan2_passes(self, grid16, sector_right):
        expr, _ = sc.get_preset("jordan2", n=1)
        report = sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid16)
        assert report.passed and report.k == 2

    def test_shift_consistency(self, grid32, var_laplace, sector_right):
        # gap grows by exactly the shift for this positive real symbol
        shifted = sc.shift(var_laplace, 1.0)
        assert sc.check_spectrum(shifted, sector_right, 1.9, 0.0, grid32).passed
        assert not sc.check_spectrum(shifted, sector_right, 2.1, 0.0, grid32).passed


def _assert_spectrum(mat, spectrum):
    """eigenvalues_grid of one matrix, tabulated on a 2 x 1 node stack,
    matches the known spectrum to 1e-12 relative."""
    mats = np.broadcast_to(np.asarray(mat, dtype=complex), (2, 1) + np.shape(mat))
    ours = np.sort_complex(sc.eigenvalues_grid(mats).reshape(2, -1))
    ref = np.sort_complex(np.asarray(spectrum, dtype=complex))
    assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestEigenvalues:
    def test_k2_closed_form(self):
        mat = np.array([[[[1.0, 2.0], [0.0, 3.0]]]], dtype=complex)
        eigs = np.sort_complex(sc.eigenvalues_grid(mat).ravel())
        assert np.allclose(eigs, [1.0, 3.0])

    def test_repeated_diagonal(self):
        _assert_spectrum(np.diag([7.0, 7.0, 6.0]), [7.0, 7.0, 6.0])

    @pytest.mark.parametrize("mat, spectrum", [
        ([[7, 2, -1], [0, 7, 3], [0, 0, 6]], [7, 7, 6]),
        ([[2, 1, 0, 3], [0, 2, 1j, 0], [0, 0, 2, 1], [0, 0, 0, 5j]], [2, 2, 2, 5j]),
    ], ids=["k3", "k4"])
    def test_triangular_with_repeated_diagonal(self, mat, spectrum):
        _assert_spectrum(mat, spectrum)

    @pytest.mark.parametrize("T", [
        [[3, 0], [0, 3]],
        [[7, 0, 1], [0, 7, 1], [0, 0, 6]],
        [[2, 0, 0, 1], [0, 2, 0, 1j], [0, 0, 2, -1], [0, 0, 0, 5j]],
    ], ids=["k2", "k3", "k4"])
    def test_unitary_similarity(self, T):
        T = np.asarray(T, dtype=complex)
        k = T.shape[0]
        rng = np.random.default_rng(k)
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        _assert_spectrum(Q @ T @ Q.conj().T, np.diag(T))


@pytest.fixture(scope="module")
def bracket_report(sector_right):
    grid = sc.TorusGrid(n=1, points=32)
    expr = sc.parse_symbol("bracket(xi)^2", n=1)
    params = sc.SymbolClassParams(m=2)
    report = sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid)
    sc.estimate_hypo_constants(expr, sector_right, grid, params, report,
                               max_order=1)
    return report


class TestConstants:
    def test_c00_is_one(self, bracket_report):
        # sup |a| / |a - lambda| over the left half plane peaks at lambda = 0
        assert bracket_report.c_table[((0,), (0,))] == pytest.approx(1.0, rel=1e-9)

    def test_c10_close_to_two(self, bracket_report):
        c10 = bracket_report.c_table[((1,), (0,))]
        assert 1.9 <= c10 <= 2.0 + 1e-9

    def test_c0_finite_and_stable(self, sector_right, monkeypatch):
        grid = sc.TorusGrid(n=1, points=32)
        expr = sc.parse_symbol("bracket(xi)^2+1", n=1)
        params = sc.SymbolClassParams(m=2)
        vals = []
        for spr in (16, 32):
            report = sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid)
            monkeypatch.setattr(sc.hypo, "SAMPLES_PER_RAY", spr)
            sc.estimate_hypo_constants(expr, sector_right, grid, params, report,
                                       max_order=0)
            assert report.extras["lambda_samples_per_ray"] == spr
            vals.append(report.c0)
        assert np.isfinite(vals[0])
        assert abs(vals[1] - vals[0]) <= 0.01 * vals[0]

    def test_c_table_stable_under_sample_doubling(self, grid32, var_laplace,
                                                  sector_right, monkeypatch):
        params = sc.SymbolClassParams(m=2)
        tables = []
        for spr in (16, 32):
            report = sc.check_spectrum(var_laplace, sector_right, 0.5, 0.0, grid32)
            monkeypatch.setattr(sc.hypo, "SAMPLES_PER_RAY", spr)
            sc.estimate_hypo_constants(var_laplace, sector_right, grid32, params,
                                       report, max_order=1)
            tables.append(report.c_table)
        for key in tables[0]:
            assert abs(tables[1][key] - tables[0][key]) <= 0.01 * tables[0][key]

    def test_c_table_monotone_under_x_refinement(self, var_laplace, sector_right):
        params = sc.SymbolClassParams(m=2)
        tables = []
        for pts in (16, 32):
            grid = sc.TorusGrid(n=1, points=pts, xi_max=7)
            report = sc.check_spectrum(var_laplace, sector_right, 0.5, 0.0, grid)
            sc.estimate_hypo_constants(var_laplace, sector_right, grid, params,
                                       report, max_order=1)
            tables.append(report.c_table)
        for key in tables[0]:
            assert tables[1][key] >= tables[0][key] - 1e-12

    def test_remark_b_extension(self, grid16, var_laplace):
        # beyond the exclusion radius the resolvent is no larger than 1/|a|
        tab = sc.sample(var_laplace, grid16)
        a_abs = np.abs(tab.values[..., 0, 0])
        for lam_scale in (2.0, 3.0, 10.0):
            lam = lam_scale * float(np.max(a_abs))
            rnorm = pointwise_resolvent_norms(tab.values, lam)
            assert np.all(rnorm <= (1.0 + 1e-10) / a_abs)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matrix_resolvent_norms_match_svd(self, k):
        # ||(a - lam)^{-1}||_2 = 1/sigma_min(a - lam) on well-conditioned
        # stacks: a - lam = U diag(s) V^H with s in [0.5, 2]
        rng = np.random.default_rng(30 + k)

        def unitary(shape):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return np.linalg.qr(z)[0]

        shape = (40, 7, k, k)
        s = rng.uniform(0.5, 2.0, shape[:-1])
        lam = 1.5 - 0.7j
        values = unitary(shape) @ (s[..., None] * unitary(shape)) \
            + lam * np.eye(k)
        ref = 1.0 / np.linalg.svd(values - lam * np.eye(k), compute_uv=False)[..., -1]
        got = pointwise_resolvent_norms(values, lam)
        assert got.shape == shape[:-2]
        assert np.max(np.abs(got - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("C, singular", [(0.0, True), (0.5, False)])
    def test_singular_node_only_matters_under_the_mask(self, grid16,
                                                       sector_right, C, singular):
        # a(x, 0) = [[0, 1], [0, 1]] is singular at the sample lambda = 0;
        # the cutoff C = 0.5 masks xi = 0 out, C = 0 keeps it
        expr = sc.parse_symbol("[[xi1, 1], [0, 1]]", n=1, k=2)
        params = sc.SymbolClassParams(m=1)
        report = sc.HypoReport(passed=True, theta=sector_right.theta, c=0.5,
                               C=C, k=2)
        if singular:
            with pytest.raises(ValueError, match="singular at a sample lambda=0j"):
                sc.estimate_hypo_constants(expr, sector_right, grid16, params,
                                           report, max_order=0)
        else:
            sc.estimate_hypo_constants(expr, sector_right, grid16, params,
                                       report, max_order=0)
            assert np.isfinite(report.c0)

    def test_requires_passing_check(self, grid16, sector_right):
        expr, params = sc.get_preset("-bracket_power 2", n=1)
        report = sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid16)
        with pytest.raises(ValueError):
            sc.estimate_hypo_constants(expr, sector_right, grid16,
                                       sc.SymbolClassParams(m=2), report)


def full_table_constants(expr, sector, grid, class_params, report,
                         max_order=2, samples_per_ray=16, inverse=None):
    """c_table and c0 as maxima of the full resolvent-norm table: every
    (lambda, node) pair gets an exact spectral norm, of the inverse
    :func:`pointwise_resolvent_norms` takes with ``inverse``."""
    tab = sc.sample(expr, grid)
    mask = (grid.xi_norm() >= report.C).reshape((1,) * grid.n + grid.xi_shape)
    mask = np.broadcast_to(mask, grid.x_shape + grid.xi_shape)
    masked = tab.values[mask]
    sup_a = tab.sup_norm()
    lo, hi = max(report.c, 1e-3), 10.0 * max(sup_a, 1.0)
    radii = np.geomspace(lo, hi, samples_per_ray)
    lambdas = [0.0 + 0.0j]
    lambdas.extend(complex(z) for z in sector.ray_points(radii))
    resnorms = [pointwise_resolvent_norms(masked, lam, inverse) for lam in lambdas]
    assert all(np.all(np.isfinite(rn)) for rn in resnorms)

    bracket = grid.bracket_xi().reshape((1,) * grid.n + grid.xi_shape)
    c_table = {}
    for alpha in multi_indices_below(grid.n, max_order + 1):
        for beta in multi_indices_below(grid.n, max_order + 1 - sum(alpha)):
            weight = bracket ** (class_params.rho * sum(alpha)
                                 - class_params.delta * sum(beta))
            da_norm = sc.sample(expr.diff(alpha, beta), grid).spectral_norms()[mask]
            weight = np.broadcast_to(weight, mask.shape)[mask]
            best = 0.0
            for rn in resnorms:
                best = max(best, float(np.max(da_norm * rn * weight)))
            c_table[(alpha, beta)] = best

    c0 = 0.0
    for lam, rn in zip(lambdas, resnorms):
        c0 = max(c0, float(np.sqrt(1.0 + abs(lam) ** 2) * np.max(rn)))
    for factor in (1.0, 2.0, 4.0, 8.0):
        for angle in (0.0, sector.theta / 2.0, -sector.theta / 2.0):
            lam = factor * 2.0 * sup_a * np.exp(1j * angle)
            rn = pointwise_resolvent_norms(masked, lam, inverse)
            c0 = max(c0, float(np.sqrt(1.0 + abs(lam) ** 2) * np.max(rn)))
    return c_table, c0


def random_symbol(rng, k):
    """A k x k symbol with random complex coefficients.  Diagonal entries are
    bracket(xi)^2 + 5 plus at most 0.5; off-diagonal ones are at most
    bracket(xi) in modulus, so by Gershgorin every eigenvalue has real part
    above 2 and the spectrum check passes on the right half-plane."""
    def coef():
        z = rng.uniform(-0.35, 0.35) + 1j * rng.uniform(-0.35, 0.35)
        return f"({z.real!r}+({z.imag!r})*i)"

    rows = []
    for r in range(k):
        rows.append("[" + ", ".join(
            f"bracket(xi)^2+5+{coef()}*cos(x1)" if r == c else
            f"{coef()}*sin(x1)*bracket(xi)+{coef()}*xi1" for c in range(k)) + "]")
    return sc.parse_symbol("[" + ", ".join(rows) + "]", n=1, k=k)


class TestCertifiedHypoMaxima:
    """estimate_hypo_constants of a matrix symbol, decided by the Hoelder
    bound of each inverse, gives the same floats as the full norm table."""

    @staticmethod
    def assert_full_table(expr, sector, grid, params, C=0.0, max_order=2):
        report = sc.check_spectrum(expr, sector, 0.5, C, grid)
        assert report.passed
        sc.estimate_hypo_constants(expr, sector, grid, params, report,
                                   max_order=max_order)
        c_table, c0 = full_table_constants(expr, sector, grid, params, report,
                                           max_order=max_order)
        assert report.c_table == c_table
        assert report.c0 == c0
        return report

    @pytest.mark.parametrize("k", [2, 3, 4, "matrix3"])
    def test_lapack_table_within_rounding(self, grid32, sector_right, k):
        # the constants against a full table of LAPACK inverses, which differ
        # from the package's by rounding only
        if k == "matrix3":
            expr, C = sc.parse_symbol(MATRIX3, n=1, k=3), 0.0
            grid = sc.TorusGrid(n=1, points=64)
        else:
            expr, grid, C = random_symbol(np.random.default_rng(40 + k), k), grid32, 2.5
        params = sc.SymbolClassParams(m=2)
        report = sc.check_spectrum(expr, sector_right, 0.5, C, grid)
        sc.estimate_hypo_constants(expr, sector_right, grid, params, report)
        c_table, c0 = full_table_constants(expr, sector_right, grid, params, report,
                                           inverse="lapack")
        assert report.c_table.keys() == c_table.keys()
        for key, ref in c_table.items():
            assert abs(report.c_table[key] - ref) <= 1e-13 * ref, key
        assert abs(report.c0 - c0) <= 1e-13 * c0

    def test_nan_inverse_is_refused(self, grid16, sector_right, monkeypatch):
        # a NaN block inverts to NaN, which the constants refuse as they
        # refuse a singular block
        kernel = sc.hypo.pointwise_inverse

        def poisoned(a, lam):
            a = a.copy()
            a[0, 0, 3] = np.nan
            return kernel(a, lam)

        monkeypatch.setattr(sc.hypo, "pointwise_inverse", poisoned)
        expr = sc.parse_symbol("[[bracket(xi)^2+3, xi1], [0, bracket(xi)^2+5]]", n=1, k=2)
        report = sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid16)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="singular at a sample lambda=0j"):
            sc.estimate_hypo_constants(expr, sector_right, grid16,
                                       sc.SymbolClassParams(m=2), report, max_order=0)

    def test_matrix3(self, sector_right):
        self.assert_full_table(sc.parse_symbol(MATRIX3, n=1, k=3), sector_right,
                               sc.TorusGrid(n=1, points=64),
                               sc.SymbolClassParams(m=2))

    def test_ci_matrix_config(self, grid16, sector_right):
        expr = sc.parse_symbol("[[(2+sin(x1))*(1+xi1^2)+2, bracket(xi)], "
                               "[0, (2+cos(x1))*(1+xi1^2)+2]]", n=1, k=2)
        self.assert_full_table(expr, sector_right, grid16, sc.SymbolClassParams(m=2))

    def test_jordan2_ties_across_x(self, grid32, sector_right):
        # x-independent: every maximum is attained at all 32 x nodes
        expr, params = sc.get_preset("jordan2", n=1)
        self.assert_full_table(expr, sector_right, grid32, params)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_complex_symbols(self, grid32, sector_right, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(3):
            self.assert_full_table(random_symbol(rng, k), sector_right, grid32,
                                   sc.SymbolClassParams(m=2), C=2.5)

    @pytest.mark.parametrize("k", [2, 3])
    def test_diagonal_symbols(self, grid32, sector_right, k):
        # the bound equals the exact norm of a diagonal inverse, so bounds and
        # exact norms tie up to rounding
        entries = ["(2+sin(x1))*(1+xi1^2)+5", "bracket(xi)^2+3+i*xi1",
                   "(2+cos(x1))*bracket(xi)^2+4"]
        rows = ", ".join("[" + ", ".join(entries[r] if r == c else "0"
                                         for c in range(k)) + "]" for r in range(k))
        self.assert_full_table(sc.parse_symbol(f"[{rows}]", n=1, k=k), sector_right,
                               grid32, sc.SymbolClassParams(m=2), C=1.0)

    def test_bounds_rounded_below_the_norm(self, grid32, sector_right, monkeypatch):
        # A computed bound may round below the exact norm it bounds; BOUND_SLACK
        # covers that.  Here every bound sits below its exact norm by a relative
        # 0.9 BOUND_SLACK (1 - cos x)/2, and the symbol's maximum over x is a
        # near-tie: a(x, xi) differs across x by 1e-12 cos x, largest norm at
        # x = pi, where the bound is lowest.  Every maximum must still be the
        # full table's float.
        def low_bounds(inv):
            exact = sc.grid._spectral_norms(inv)
            assert len(exact) == grid32.points * grid32.modes_per_axis  # C = 0, x-major
            x = grid32.x_axis[np.arange(len(exact)) // grid32.modes_per_axis]
            return exact * (1.0 - 0.9 * sc.grid.BOUND_SLACK * 0.5 * (1.0 - np.cos(x)))

        # densela's bound, patched where hypo's certificate calls it
        monkeypatch.setattr(sc.hypo, "_hoelder_bounds", low_bounds)
        expr = sc.parse_symbol("[[bracket(xi)^2+3+1e-12*cos(x1), 0], "
                               "[0, bracket(xi)^2+5+i*xi1]]", n=1, k=2)
        self.assert_full_table(expr, sector_right, grid32, sc.SymbolClassParams(m=2),
                               max_order=1)

    def test_vanishing_mixed_derivative(self, grid32, sector_right):
        # d_xi d_x a = 0 at every node: that output skips the kernel and reads 0.0
        expr = sc.parse_symbol("[[bracket(xi)^2+3+1e-12*cos(x1), 0], "
                               "[0, bracket(xi)^2+5+i*xi1]]", n=1, k=2)
        report = self.assert_full_table(expr, sector_right, grid32,
                                        sc.SymbolClassParams(m=2))
        assert report.c_table[(1,), (1,)] == 0.0

    @staticmethod
    def exact_norm_share(expr, params, sector, monkeypatch):
        """Share of the (lambda, node) pairs that take an exact norm, at P = 64."""
        counted = []

        def counting(values):
            counted.append(int(np.prod(values.shape[:-2])))
            return sc.grid._spectral_norms(values)

        grid = sc.TorusGrid(n=1, points=64)
        report = sc.check_spectrum(expr, sector, 0.5, 0.0, grid)
        monkeypatch.setattr(sc.hypo, "_spectral_norms", counting)
        sc.estimate_hypo_constants(expr, sector, grid, params, report)
        pairs = (1 + 2 * 16 + 12) * grid.points * grid.modes_per_axis
        return sum(counted) / pairs

    def test_exact_norms_at_few_pairs(self, sector_right, monkeypatch):
        # the certificate is the point: exact norms at <= 10% of the pairs
        share = self.exact_norm_share(sc.parse_symbol(MATRIX3, n=1, k=3),
                                      sc.SymbolClassParams(m=2), sector_right,
                                      monkeypatch)
        assert 0 < share <= 0.1

    def test_exact_norms_at_few_pairs_x_independent(self, sector_right, monkeypatch):
        # every beta-derivative of jordan2 vanishes; such outputs keep no node
        expr, params = sc.get_preset("jordan2", n=1)
        assert 0 < self.exact_norm_share(expr, params, sector_right, monkeypatch) <= 0.1


class TestReportSerialization:
    def test_csv_and_summary(self, tmp_path, grid16, sector_right):
        expr = sc.parse_symbol("bracket(xi)^2", n=1)
        params = sc.SymbolClassParams(m=2)
        report = sc.check_spectrum(expr, sector_right, 0.5, 0.0, grid16)
        sc.estimate_hypo_constants(expr, sector_right, grid16, params, report,
                                   max_order=1)
        path = tmp_path / "hypo.csv"
        report.to_csv(path)
        text = path.read_text()
        assert text.startswith("record,detail,value_re,value_im\n")
        assert "c_table" in text
        summary = report.summary_text()
        assert "PASS" in summary and "c0" in summary
