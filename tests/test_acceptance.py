"""Acceptance criteria at the reference scene.

Scene: n=1, P=128 (window half-width 63), k=1, a = (2+sin x)(1+xi^2)+5,
sector angle pi/2, parametrix order N=3.  Every criterion prints one
PASS/FAIL line (run with ``pytest -s`` to see them on success).
"""

import csv

import numpy as np
import pytest

import sectorcalc as sc
from sectorcalc.cli import main as cli_main
from sectorcalc.funcalc import _probe_fun
from sectorcalc.grid import class_weighted_sup
from sectorcalc.util import japanese_bracket

THETA = np.pi / 2


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def scene():
    grid = sc.TorusGrid(n=1, points=128)
    base = sc.parse_symbol("(2+sin(x1))*(1+xi1^2)", n=1)
    expr = sc.shift(base, 5.0)
    sector = sc.Sector(THETA)
    params = sc.SymbolClassParams(m=2.0)
    calc = sc.ParametrixCalculator(expr, grid, params, sector, N=3)
    return calc


@pytest.fixture(scope="session")
def radius_R(scene):
    return scene.find_R()


@pytest.fixture(scope="session")
def sweep(scene, radius_R):
    radii = np.geomspace(radius_R, 1e4, 10)   # 10 radii x 2 rays = 20 lambdas
    return sc.parametrix_sweep(scene, radii, tol=1e-11)


@pytest.fixture(scope="session")
def family12():
    s_vals = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    t_vals = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    return [sc.power_quotient(s) for s in s_vals] + \
        [sc.imaginary_power_regularized(t, 100) for t in t_vals]


@pytest.fixture(scope="session")
def family24(family12):
    s_vals = (0.3, 0.4, 0.6, 0.8, 1.25, 1.75)
    t_vals = (-1.5, -0.75, -0.25, 0.25, 0.75, 1.5)
    return family12 + [sc.power_quotient(s) for s in s_vals] + \
        [sc.imaginary_power_regularized(t, 100) for t in t_vals]


def test_criterion_01_cauchy_certificate(scene):
    contour = sc.build_contour(scene.sector, d=1.0, tol=1e-8)
    worst = 0.0
    for z0 in (0.5, 1.0, 4.0, 20.0):
        expected = z0 / (1.0 + z0) ** 2
        got = contour.dunford_scalar(_probe_fun, z0)
        worst = max(worst, abs(got - expected))
    report(1, "Cauchy certificate", worst <= 1e-8, f"max abs err {worst:.2e}")


def test_criterion_02_composition_exactness(scene):
    # the truncated expansion terminates for xi-polynomials of degree 2, so
    # the interior difference is pure float rounding; the tolerance is read
    # against the operand scale (the scene symbol has magnitude ~1.2e4, so an
    # absolute 1e-10 is below double-precision reach on ~1e8-sized products)
    grid = scene.grid
    worst = 0.0
    for b_text in ("(2+sin(x1))*(1+xi1^2)+5",
                   "exp(i*x1)*bracket(xi)^(-2)",
                   "(1+0.5*cos(x1))/(3+xi1^2)"):
        b = sc.sample(sc.parse_symbol(b_text, n=1), grid)
        truncated = sc.leibniz_truncated(scene.expr, b, K=3)
        exact = sc.compose_exact(scene.a_tab, b)
        diff = (truncated - exact).sup_norm(interior_margin=3)
        scale = max(1.0, exact.sup_norm(interior_margin=3))
        worst = max(worst, diff / scale)
    report(2, "composition exactness (K=3, xi-degree 2)", worst <= 1e-10,
           f"interior sup diff / product sup {worst:.2e}")


def test_criterion_03_parametrix_residual(sweep):
    residuals = [row["residual"] for row in sweep.rows]
    ok = len(residuals) == 20 and max(residuals) <= 1e-10
    report(3, "parametrix resolvent residual", ok,
           f"20 lambdas, max residual {max(residuals):.2e}")


def test_criterion_04_remainder_decay_slopes(sweep):
    r_slope = sweep.slopes["rN"]
    s_slope = sweep.slopes["sN"]
    ok = -1.15 <= r_slope <= -0.85 and -2.2 <= s_slope <= -1.8
    report(4, "remainder decay slopes", ok,
           f"rN {r_slope:+.3f} in [-1.15,-0.85], sN {s_slope:+.3f} in [-2.2,-1.8]")


def test_criterion_05_resolvent_bound(scene):
    A = scene.quantized_symbol.matrix
    rows = sc.resolvent_norm_sweep(A, scene.sector, np.geomspace(10.0, 1e4, 8))
    slope, weighted = sc.resolvent_decay_probe(rows)
    rows2 = sc.resolvent_norm_sweep(A, scene.sector, np.geomspace(10.0, 1e4, 16))
    _, weighted2 = sc.resolvent_decay_probe(rows2)
    drift = abs(weighted2 - weighted) / weighted
    ok = -1.1 <= slope <= -0.9 and np.isfinite(weighted) and drift < 0.05
    report(5, "uniform resolvent bound", ok,
           f"slope {slope:+.3f}, sup <l>||R|| {weighted:.3f}, drift {drift:.2%}")


def test_criterion_06_operator_symbol_equivalence(scene):
    # one family Dunford call: each f on its accepted lattice and on that
    # lattice's step/4 refinement, two different sums
    A = scene.quantized_symbol
    pairs = []
    for s in (0.25, 0.5, 1.0, 2.0):
        f = sc.power_quotient(s)
        f.ensure_cf(scene.sector)
        contour = sc.build_contour(scene.sector, d=f.d, tol=1e-8, c_f=f.c_f)
        fine = sc.build_contour(scene.sector, d=f.d, tol=1e-9, c_f=f.c_f,
                                step=contour.step / 4)
        pairs += [(f, contour), (f, fine)]
    ops = [op for op, _ in sc.dunford_family(A, pairs)]
    worst = 0.0
    for accepted, oracle in zip(ops[::2], ops[1::2]):
        fa = sc.extract_symbol(sc.QuantOp(A.grid, A.k, accepted))
        rel = sc.operator_norm(sc.quantize(fa).matrix - oracle) \
            / sc.operator_norm(oracle)
        worst = max(worst, rel)
    report(6, "operator/symbol calculus equivalence", worst <= 1e-6,
           f"max rel discrepancy {worst:.2e}")


def test_dunford_values_match_eig(scene):
    # beside criterion 6, which measures quadrature convergence only: each
    # accepted calc and bip f(A) against V f(Lambda) V^-1 from eig, within
    # 4 cond(V) tol
    A = scene.quantized_symbol.matrix
    eigs, V = np.linalg.eig(A)
    V_inv = np.linalg.inv(V)
    cond = np.linalg.cond(V)
    cases = [(sc.power_quotient(s), 1e-5) for s in (0.25, 0.5, 1.0, 2.0)] + \
        [(sc.imaginary_power_regularized(t, 1000), 1e-6) for t in (-5.0, 0.0, 5.0)]
    pairs = [(f, sc.build_contour(scene.sector, d=f.d, tol=tol,
                                  c_f=f.ensure_cf(scene.sector)))
             for f, tol in cases]
    for (f, tol), (op, _) in zip(cases, sc.dunford_family(A, pairs)):
        err = np.linalg.norm(op - (V * f(eigs)) @ V_inv, 2)
        assert err <= 4.0 * cond * tol, (f.name, err)


def test_criterion_07_uniform_bound_stability(scene, family12, family24):
    probe12 = sc.hinf_bound_probe(scene.quantized_symbol, family12,
                                  scene.sector, quad_tol=1e-5)
    probe24 = sc.hinf_bound_probe(scene.quantized_symbol, family24,
                                  scene.sector, quad_tol=1e-5)
    m_drift = abs(probe24.M - probe12.M) / probe12.M

    params0 = sc.SymbolClassParams(m=0.0)
    seminorms = (((0,), (0,)), ((1,), (0,)), ((0,), (1,)))
    margin = scene.default_interior_margin

    def mq_ratios(probe):
        # the symbols of the f(A) the probe integrated, sup norms from its rows
        out = {q: 0.0 for q in seminorms}
        for (_, sup, _, _), op in zip(probe.rows, probe.ops):
            fa = sc.extract_symbol(sc.QuantOp(scene.grid, scene.k, op))
            for q in seminorms:
                val = sc.grid_seminorm(fa, q[0], q[1], params0,
                                       interior_margin=margin)
                out[q] = max(out[q], val / sup)
        return out

    mq12 = mq_ratios(probe12)
    mq24 = mq_ratios(probe24)
    mq_drifts = {q: abs(mq24[q] - mq12[q]) / mq12[q] for q in seminorms}
    ok = m_drift < 0.10 and all(d < 0.10 for d in mq_drifts.values())
    report(7, "uniformity of the calculus bound", ok,
           f"M {probe12.M:.4f}->{probe24.M:.4f} ({m_drift:.2%}); "
           f"max Mq drift {max(mq_drifts.values()):.2%}")


def test_criterion_08_bounded_imaginary_powers(scene):
    ts = np.linspace(-5.0, 5.0, 11)
    pairs = []
    for t in ts:
        f = sc.imaginary_power_regularized(float(t), 1000)
        pairs.append((f, sc.build_contour(scene.sector, d=1.0, tol=1e-6,
                                          c_f=f.ensure_cf(scene.sector))))
    norms = [sc.operator_norm(op)
             for op, _ in sc.dunford_family(scene.quantized_symbol, pairs)]
    rate = float(np.polyfit(np.abs(ts), np.log(norms), 1)[0])
    ok = rate <= THETA + 0.2
    report(8, "bounded imaginary powers", ok,
           f"fitted rate {rate:.4f} <= theta+0.2 = {THETA + 0.2:.4f}")


def test_criterion_09_cli_determinism(tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("""
symbol.preset = variable_laplace
sector.theta = 1.5707963267948966
grid.points = 128
hypo.c = 0.5
shift = 5.0
parametrix.N = 3
lambda.count = 5
functions = power_quotient 0.5, power_quotient 1
calc.quad_tol = 1e-5
bip.tmax = 2.0
bip.steps = 3
bip.n_reg = 100
bip.quad_tol = 1e-5
""")
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        for cmd in ("check", "parametrix", "calc", "bip"):
            assert cli_main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    names = ("hypo_report.csv", "hypo_summary.txt", "parametrix_sweep.csv",
             "fcalc_report.csv", "imaginary_powers.csv")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    report(9, "CLI determinism", identical, f"{len(names)} outputs compared")


def test_criterion_10_degenerate_x_independent_suite():
    grid = sc.TorusGrid(n=1, points=128)
    sector = sc.Sector(THETA)
    expr = sc.parse_symbol("bracket(xi)^2+1", n=1)
    calc = sc.ParametrixCalculator(expr, grid, sc.SymbolClassParams(m=2.0),
                                   sector, N=3)
    lam = -3.0
    bjs = calc.bj(lam)
    higher = max(b.sup_norm() for b in bjs[1:])
    r_sym = sc.extract_symbol(sc.QuantOp(grid, calc.k, calc.remainder(lam).matrix))
    r_sup = r_sym.sup_norm(interior_margin=3)
    f = sc.power_quotient(1.0)
    contour = sc.build_contour(sector, d=1.0, tol=1e-8)
    fa = sc.f_of_symbol(calc.quantized_symbol, f, contour)
    pointwise = np.max(np.abs(fa.values[..., 0, 0] - f(calc.a_tab.values[..., 0, 0])))
    ok = higher == 0.0 and r_sup <= 1e-12 and pointwise <= 1e-8
    report(10, "x-independent degenerate suite", ok,
           f"sup b_j>=1 {higher:.1e}, sup rN {r_sup:.1e}, |f(a)-f.a| {pointwise:.2e}")
