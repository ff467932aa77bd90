"""Command-line front end: exit codes, CSV schemas, determinism.

The CLI scenarios are rows of ``tests/scenarios.py``, run here in-process;
the other tests read CSV schemas and cells, check cells against an oracle,
patch a stage, count solves or run the module entry point."""

import csv
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sectorcalc
from sectorcalc import (build_contour, cli, funcalc, imaginary_power_regularized,
                        parametrix, quantize, sample)
from sectorcalc.cli import main
from sectorcalc.config import CONFIG_KEYS, load_config, parse_config_text, resolve_config
from sectorcalc.errors import ContourError, SingularOperatorError
from sectorcalc.util import fit_loglog_slope

import scenarios
from reference import products_formed
from scenarios import NAMED, Row, run

BASE_CFG = """
symbol.preset = variable_laplace
sector.theta = 1.5707963267948966
grid.points = 32
hypo.c = 0.5
shift = 5.0
parametrix.N = 3
lambda.count = 5
lambda.max = 2e3
functions = power_quotient 0.5, power_quotient 1
calc.quad_tol = 1e-5
bip.tmax = 2.0
bip.steps = 5
bip.n_reg = 100
bip.quad_tol = 1e-5
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


def write_cfg(tmp_path, text, name="alt.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def runs(rows):
    """A test method that runs one table row, or each row of a list under
    its id, through :func:`scenarios.run`."""
    if isinstance(rows, Row):
        def test(self, tmp_path, capsys):
            run(rows, tmp_path, capsys)
        return test

    @pytest.mark.parametrize("row", rows, ids=lambda row: row.id)
    def test_row(self, row, tmp_path, capsys):
        run(row, tmp_path, capsys)
    return test_row


@pytest.mark.parametrize("row", scenarios.RUNS, ids=lambda row: row.id)
def test_scenario(row, tmp_path, capsys):
    run(row, tmp_path, capsys)


class TestExitCodes:
    def test_check_passes(self, cfg_file, tmp_path):
        assert main(["check", "--config", cfg_file, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "hypo_report.csv").exists()
        assert (tmp_path / "hypo_summary.txt").exists()

    def test_check_fails_on_negated_preset(self, tmp_path):
        cfg = write_cfg(tmp_path, "symbol.preset = -bracket_power 2\ngrid.points = 16\n")
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2

    test_missing_config_file = runs(NAMED["missing_config_file"])
    test_bad_schema = runs(NAMED["bad_schema"])
    test_bad_expression_is_config_error = runs(NAMED["bad_expression_is_config_error"])
    test_duplicate_key_rejected = runs(NAMED["duplicate_key_rejected"])
    test_parametrix_rejects_bad_order = runs(NAMED["parametrix_rejects_bad_order"])
    test_calc_requires_functions = runs(NAMED["calc_requires_functions"])
    test_unknown_subcommand_is_usage_error = runs(
        NAMED["unknown_subcommand_is_usage_error"])
    test_small_decay_exponent_is_a_numerical_failure = runs(
        NAMED["small_decay_exponent_is_a_numerical_failure"])
    test_bad_function_specs_are_config_errors = runs(scenarios.BAD_FUNCTION_SPECS)
    test_overflowing_decay_samples_are_config_errors = runs(scenarios.OVERFLOWING_DECAY)
    test_sweep_ranges_past_rounding_are_config_errors = runs(scenarios.SWEEP_RANGES)
    test_bip_ranges_are_config_errors = runs(scenarios.BIP_RANGES)
    test_out_of_range_values_are_config_errors = runs(scenarios.OUT_OF_RANGE)

    def test_parametrix_fails_upstream_check(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(
            "symbol.preset = variable_laplace", "symbol.preset = -variable_laplace"))
        assert main(["parametrix", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("symbol, violations", [
        ("symbol.preset = -bracket_power 2", 240),
        ("symbol.expr = exp(i*x1)*bracket(xi)^2+10\nclass.m = 2", 50)],
        ids=["negated", "rotating_phase"])
    @pytest.mark.parametrize("command", ["parametrix", "calc", "bip"])
    def test_spectrum_gate_runs_before_any_contour(self, tmp_path, capsys, monkeypatch,
                                                   command, symbol, violations):
        # spectrum in the sector: a calc or bip contour would enclose none of
        # it, so no command builds a contour or searches a radius
        def refuse(*args, **kwargs):
            raise AssertionError("contour or radius built")
        # calc and bip build their contours inside hinf_bound_probe
        monkeypatch.setattr(funcalc, "build_contour", refuse)
        monkeypatch.setattr(cli.ParametrixCalculator, "find_R", refuse)
        cfg = write_cfg(tmp_path, f"{symbol}\ngrid.points = 16\n"
                        "functions = power_quotient 1\nbip.steps = 3\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        work = "sweeping" if command == "parametrix" else "integrating"
        assert capsys.readouterr().out == (f"hypoellipticity check failed upstream "
                                           f"({violations} violations); not {work}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["calc", "bip"])
    def test_calc_and_bip_with_excision_fail_at_the_gate(self, tmp_path, capsys,
                                                         monkeypatch, command):
        # the check behind the contour integral needs the whole window too
        monkeypatch.setattr(funcalc, "build_contour", None)
        cfg = write_cfg(tmp_path, BASE_CFG + "hypo.C = 0.5\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command} needs hypo.C = 0, got 0.5: "
                              "the contour integral needs")
        assert list(out.iterdir()) == []

    def test_parametrix_with_excision_fails_before_find_R(self, tmp_path, capsys,
                                                          monkeypatch):
        # the parametrix needs the spectral condition on the whole window and
        # models no low-frequency excision: hypo.C > 0 is rejected before
        # any radius is searched
        def no_search(self):
            raise AssertionError("find_R ran")
        monkeypatch.setattr(cli.ParametrixCalculator, "find_R", no_search)
        cfg = write_cfg(tmp_path, BASE_CFG + "hypo.C = 0.5\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["parametrix", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: parametrix needs hypo.C = 0")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("preset, code", [("rotated_phase", 0),
                                              ("rotated_phase 2", 2)])
    def test_rotated_phase_preset(self, tmp_path, preset, code):
        # exp(2i) (1 + xi^2) has argument 2 > pi/2: inside the sector
        cfg = write_cfg(tmp_path, f"symbol.preset = {preset}\ngrid.points = 16\n")
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == code


class TestMatrixSymbols:
    test_size_comes_from_the_text = runs(NAMED["size_comes_from_the_text"])
    test_bad_matrix_symbols_are_config_errors = runs(scenarios.BAD_MATRIX_SYMBOLS)


class TestNumericalErrors:
    @pytest.mark.parametrize("exc, hinted", [
        (SingularOperatorError("pivot broke down"), True),
        (ContourError("resolvent quadrature is singular"), False),
    ], ids=["singular_operator", "contour"])
    def test_shift_hint_follows_exception_type(self, cfg_file, tmp_path, monkeypatch,
                                               capsys, exc, hinted):
        def fail(rc, args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "check", fail)
        assert main(["check", "--config", cfg_file, "--out", str(tmp_path)]) == 3
        assert ("hint: a larger shift" in capsys.readouterr().err) == hinted

    test_symbol_too_large_for_doubles = runs(scenarios.SYMBOLS_TOO_LARGE)
    test_norms_below_the_quadrature_tolerance_are_refused = runs(
        scenarios.NORMS_BELOW_QUAD_TOL)


class TestParametrixOutputs:
    def test_sweep_csv_schema(self, cfg_file, tmp_path):
        assert main(["parametrix", "--config", cfg_file, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "parametrix_sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:6] == ["lambda_re", "lambda_im", "bracket_lambda",
                               "sup_bN", "sup_rN", "sup_sN"]
        slope_rows = [r for r in rows if r[0] == "slope"]
        assert {r[1] for r in slope_rows} >= {"rN", "bN_weighted", "sN"}

    def test_x_independent_remainders_vanish(self, tmp_path):
        cfg = write_cfg(tmp_path, """
symbol.preset = bracket_power 2
grid.points = 16
shift = 1.0
parametrix.N = 2
lambda.count = 4
lambda.max = 1e3
""")
        assert main(["parametrix", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "parametrix_sweep.csv") as fh:
            rows = [r for r in csv.reader(fh)][1:]
        data = [r for r in rows if r[0] != "slope" and r[0] != ""]
        assert data and all(float(r[4]) <= 1e-12 for r in data)


    test_underflowing_slope_samples_are_dropped_loudly = runs(
        NAMED["underflowing_slope_samples_are_dropped_loudly"])

    def test_slope_window_stops_at_rounding(self, tmp_path, capsys):
        # swept to 1e9, the scene's r^N sup reads 9.5e-13 at <lambda> = 1e5,
        # 12 times its rounding bound, and 1e-15 to 3e-16 from 1e6 on, under
        # it: the rN and sN fits stop at 1e5 and name the rows they dropped
        cfg = write_cfg(tmp_path, "symbol.preset = variable_laplace\n"
                        "grid.points = 16\nshift = 5\nlambda.max = 1e9\n")
        assert main(["parametrix", "--config", cfg, "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        note = ("8 of 16 fit rows at rounding or not finite "
                "(<lambda> = 1e+06, 1e+07, 1e+08, 1e+09), fitted through 8")
        assert captured.err.splitlines() == [
            f"warning: slope fits dropped rows: slope[rN] {note}; slope[sN] {note}"]
        with open(tmp_path / "parametrix_sweep.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        data = [r for r in rows if r[0] != "slope"]
        slopes = {r[1]: float(r[2]) for r in rows if r[0] == "slope"}
        # the window: <lambda> from 2 min|a| = 12 up to 1e5
        kept = [r for r in data if 12 <= float(r[2]) <= 2e5]
        assert len(kept) == 8
        for name, col in (("rN", 6), ("sN", 7)):
            assert slopes[name] == fit_loglog_slope([float(r[2]) for r in kept],
                                                    [float(r[col]) for r in kept])[0]
        assert slopes["rN"] == pytest.approx(-3.0, abs=0.05)

    def test_verbose_explains_the_sweep(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL_REF1D_CFG)
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert main(["parametrix", "--config", cfg, "--out", str(quiet)]) == 0
        plain = capsys.readouterr()
        # the products the Neumann sums form, counted as they are formed
        counted, neumann_sum = [], parametrix.neumann_sum

        def counting_sum(r_mat, K):
            out, products = products_formed(neumann_sum, r_mat, K)
            counted.append(products)
            return out

        monkeypatch.setattr(parametrix, "neumann_sum", counting_sum)
        assert main(["parametrix", "--config", cfg, "--out", str(loud), "--verbose"]) == 0
        verbose = capsys.readouterr()
        assert plain.err == "" and verbose.out == plain.out
        assert (quiet / "parametrix_sweep.csv").read_bytes() == \
            (loud / "parametrix_sweep.csv").read_bytes()
        assert len(counted) == 10  # one sum per upper row; the lower rows mirror
        assert verbose.err.splitlines() == [
            "parametrix: R = 1.0",
            "parametrix: find_R points: 21 computed, 21 passed by the mirror bound, "
            "0 skipped behind a failing radius",
            "parametrix: rows per method: neumann 20",
            "parametrix: mirrored rows: 10 of 20",
            f"parametrix: Neumann products formed: {sum(counted)}",
        ]
        assert plain.out.splitlines()[0] == "R = 1.0"


class TestCalcOutputs:
    def test_report_schema_and_ratios(self, cfg_file, tmp_path):
        assert main(["calc", "--config", cfg_file, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fcalc_report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "sup_norm", "op_norm_oracle", "op_norm_symbol",
                           "ratio", "discrepancy"]
        body = rows[1:-1]
        assert len(body) == 2
        m_row = rows[-1]
        assert m_row[0] == "M"
        M = float(m_row[4])
        for row in body:
            assert float(row[4]) <= M + 1e-15
            assert float(row[5]) <= 1e-6


    def test_imag_power_row_matches_bip(self, tmp_path):
        # calc's imag_power 1 and bip's t = 1 build the same function,
        # contour and Dunford sum, so the norms are the same float
        rows = [row for row in BASE_CFG.splitlines()
                if not row.startswith(("functions ", "calc.quad_tol ", "bip."))]
        cfg = write_cfg(tmp_path, "\n".join(rows + [
            "functions = imag_power 1", "calc.quad_tol = 1e-6", "bip.quad_tol = 1e-6",
            "bip.tmax = 1", "bip.steps = 3", "bip.n_reg = 100"]).replace(
                "grid.points = 32", "grid.points = 16"))
        assert main(["calc", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["bip", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fcalc_report.csv") as fh:
            calc_rows = list(csv.reader(fh))
        with open(tmp_path / "imaginary_powers.csv") as fh:
            bip_norms = {row[0]: row[1] for row in csv.reader(fh)}
        assert calc_rows[1][0] == "imag_power 1.0~reg100"
        assert calc_rows[1][2] == bip_norms["1.0"]


    def test_calc_and_bip_build_no_parametrix(self, tmp_path, monkeypatch):
        # both run on quantize(a) alone: with the parametrix calculator
        # refused they write the same reports
        cfg = write_cfg(tmp_path, BASE_CFG.replace("grid.points = 32",
                                                   "grid.points = 16"))
        ref, out = tmp_path / "ref", tmp_path / "out"
        for cmd in ("calc", "bip"):
            assert main([cmd, "--config", cfg, "--out", str(ref)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("ParametrixCalculator built")
        monkeypatch.setattr(cli, "ParametrixCalculator", refuse)
        monkeypatch.setattr(parametrix, "ParametrixCalculator", refuse)
        for cmd in ("calc", "bip"):
            assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
        for name in ("fcalc_report.csv", "imaginary_powers.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()


class TestBipOutputs:
    def test_symmetry_and_unit_norm_at_zero(self, cfg_file, tmp_path):
        assert main(["bip", "--config", cfg_file, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "imaginary_powers.csv") as fh:
            rows = list(csv.reader(fh))
        body = [r for r in rows[1:] if r[0] not in ("rate", "theta")]
        norms = {float(t): float(v) for t, v in body}
        assert norms[0.0] == pytest.approx(1.0, abs=0.1)
        for t in (1.0, 2.0):
            assert norms[t] == pytest.approx(norms[-t], rel=1e-6)
        rate = float([r for r in rows if r[0] == "rate"][0][1])
        theta = float([r for r in rows if r[0] == "theta"][0][1])
        assert rate <= theta + 0.2


    def test_large_n_reg_norms_match_eig(self, tmp_path):
        # psi_n's corners sit at |z| ~ n and 1/n: with n = 1e7 the validation
        # range must widen past 1e-4 .. 1e4 for c_f and the contour to reach
        # them (a c_f of 1e4 left the t = 0 norm 4.3e-5 low)
        cfg = write_cfg(tmp_path, "symbol.preset = variable_laplace\n"
                        "grid.points = 16\nshift = 5\nbip.steps = 3\n"
                        "bip.n_reg = 10000000\n")
        assert main(["bip", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "imaginary_powers.csv") as fh:
            norms = {float(t): float(v) for t, v in list(csv.reader(fh))[1:-2]}
        assert sorted(norms) == [-5.0, 0.0, 5.0]
        rc = resolve_config(load_config(cfg))
        eigs, V = np.linalg.eig(quantize(sample(rc.expr, rc.grid)).matrix)
        V_inv, bound = np.linalg.inv(V), 4.0 * np.linalg.cond(V) * rc.bip_quad_tol
        for t, norm in norms.items():
            f = imaginary_power_regularized(t, rc.bip_n_reg)
            assert abs(norm - np.linalg.norm((V * f(eigs)) @ V_inv, 2)) <= bound, t

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the scalar probe "
                       "certificate accepts h = 1/4 at t = 15, and the norm reads "
                       "2077 against eig's 1.24")
    def test_far_t_norms_match_eig_or_exit_3(self, tmp_path):
        # a known wrong norm: at t = +-15 the contour's step is too coarse
        # for f(A), which the probe certificate does not see.  A fix writes
        # norms within 4 cond(V) bip.quad_tol of V f(Lambda) V^-1, or refuses
        # the run with exit 3
        cfg = write_cfg(tmp_path, "symbol.preset = variable_laplace\n"
                        "grid.points = 16\nshift = 5\nbip.tmax = 15\nbip.steps = 3\n")
        status = main(["bip", "--config", cfg, "--out", str(tmp_path)])
        if status == 3:
            return
        assert status == 0
        with open(tmp_path / "imaginary_powers.csv") as fh:
            norms = {float(t): float(v) for t, v in list(csv.reader(fh))[1:-2]}
        assert sorted(norms) == [-15.0, 0.0, 15.0]
        rc = resolve_config(load_config(cfg))
        eigs, V = np.linalg.eig(quantize(sample(rc.expr, rc.grid)).matrix)
        V_inv, bound = np.linalg.inv(V), 4.0 * np.linalg.cond(V) * rc.bip_quad_tol
        for t, norm in norms.items():
            f = imaginary_power_regularized(t, rc.bip_n_reg)
            assert abs(norm - np.linalg.norm((V * f(eigs)) @ V_inv, 2)) <= bound, t

    def test_reference_scene_norms_match_eig(self, tmp_path):
        # each norm is the integrated f(A)'s largest singular value, within
        # bip.quad_tol of V f(Lambda) V^-1 (power iteration read t = 0 1.3e-6 low)
        cfg = write_cfg(tmp_path, "symbol.preset = variable_laplace\n"
                        "grid.points = 128\nshift = 5\nbip.steps = 3\n")
        assert main(["bip", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "imaginary_powers.csv") as fh:
            norms = {float(t): float(v) for t, v in list(csv.reader(fh))[1:-2]}
        assert sorted(norms) == [-5.0, 0.0, 5.0]
        rc = resolve_config(load_config(cfg))
        eigs, V = np.linalg.eig(quantize(sample(rc.expr, rc.grid)).matrix)
        V_inv = np.linalg.inv(V)
        for t, norm in norms.items():
            f = imaginary_power_regularized(t, rc.bip_n_reg)
            exact = np.linalg.norm((V * f(eigs)) @ V_inv, 2)
            assert abs(norm - exact) <= rc.bip_quad_tol, t


class TestTwoDimensional:
    def test_check_and_parametrix_on_2d_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, """
symbol.expr = (2+sin(x1)*cos(x2))*(1+xi1^2+xi2^2)
symbol.n = 2
class.m = 2.0
grid.points = 8
shift = 3.0
parametrix.N = 2
lambda.count = 3
lambda.max = 1e3
""")
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["parametrix", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "parametrix_sweep.csv") as fh:
            rows = [r for r in csv.reader(fh)][1:]
        data = [r for r in rows if r[0] != "slope"]
        assert len(data) == 6  # 3 radii, both rays
        assert all(float(r[8]) <= 1e-10 for r in data)  # residual column


class TestConfigDefaults:
    def test_missing_shift_leaves_symbol_unshifted(self):
        # docs/config.md: a config without `shift` quantizes a itself
        rc = resolve_config(parse_config_text("symbol.preset = variable_laplace\n"))
        assert rc.expr is rc.base_expr
        rc = resolve_config(parse_config_text(
            "symbol.preset = variable_laplace\nshift = 5\n"))
        assert rc.expr is not rc.base_expr


class TestConfigSchema:
    """The schema is docs/config.md's, and resolve_config reads all of it."""

    def test_schema_is_the_documented_one(self):
        doc = (pathlib.Path(__file__).resolve().parents[1] / "docs" / "config.md")
        block = doc.read_text().split("```\n", 2)[1]
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
                if "=" in line.split("#", 1)[0]}
        assert keys == CONFIG_KEYS

    def test_every_key_is_read(self):
        # a key in the schema that resolve_config never reads would be
        # accepted and then ignored
        class Recording(dict):
            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        read = set()
        resolve_config(Recording(parse_config_text("symbol.preset = variable_laplace\n")))
        assert CONFIG_KEYS <= read


class TestDeterminism:
    def test_byte_identical_reruns(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            for cmd in ("check", "parametrix", "calc", "bip"):
                assert main([cmd, "--config", cfg_file, "--out", str(out)]) == 0
        for name in ("hypo_report.csv", "hypo_summary.txt", "parametrix_sweep.csv",
                     "fcalc_report.csv", "imaginary_powers.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# The benchmark self-test's scene: the reference scene at P = 16, with the
# seed-0 values of the benchmark's ref1d workload and three bip steps.
SMALL_REF1D_CFG = """
symbol.preset = variable_laplace
symbol.n = 1
grid.points = 16
shift = 5.0
sector.theta = 1.5707963267948966
parametrix.N = 3
calc.quad_tol = 1e-05
functions = power_quotient 0.25, power_quotient 0.5, power_quotient 1.0, power_quotient 2.0
bip.tmax = 5.0
bip.steps = 3
bip.n_reg = 1000
bip.quad_tol = 1e-06
"""


class TestLuCounts:
    """The LU solves each subcommand makes, exactly: an operator-dimension
    matrix through ``np.linalg.inv`` or ``np.linalg.solve`` is one solve, and
    a stack of them counts by its batch size."""

    @staticmethod
    def scene(tmp_path, steps=3):
        cfg = write_cfg(tmp_path, SMALL_REF1D_CFG.replace("bip.steps = 3",
                                                          f"bip.steps = {steps}"))
        return cfg, resolve_config(load_config(cfg))

    @staticmethod
    def lu_solves(command, cfg, out, dim, monkeypatch):
        counted = []

        def counting(fn):
            def wrapper(a, *rest, **kwargs):
                shape = np.shape(a)
                if shape[-2:] == (dim, dim):
                    counted.append(int(np.prod(shape[:-2])))
                return fn(a, *rest, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "inv", counting(np.linalg.inv))
        monkeypatch.setattr(np.linalg, "solve", counting(np.linalg.solve))
        assert main([command, "--verbose", "--config", cfg, "--out", str(out)]) == 0
        return sum(counted)

    def test_check_makes_none(self, tmp_path, monkeypatch):
        cfg, rc = self.scene(tmp_path)
        assert self.lu_solves("check", cfg, tmp_path, rc.grid.n_modes, monkeypatch) == 0

    @staticmethod
    def distinct_nodes(contours):
        return len(np.unique(np.concatenate([c.nodes for c in contours])))

    @staticmethod
    def upper_nodes(contours):
        """The distinct nodes with each lower-ray node taken as its conjugate."""
        every = np.concatenate([c.nodes for c in contours])
        return len(np.unique(np.where(every.imag < 0, every.conj(), every)))

    def test_calc_inverts_each_distinct_node_once(self, tmp_path, monkeypatch, capsys):
        # one family call: the four nested contours share their nodes, and
        # the real symbol's lower ray is the mirror of its upper ray
        cfg, rc = self.scene(tmp_path)
        contours = []
        for f in rc.functions:
            f.validate(rc.sector)
            contours.append(build_contour(rc.sector, d=f.d, tol=rc.calc_quad_tol,
                                          c_f=f.c_f))
        assert sum(map(len, contours)) == 1128
        assert self.distinct_nodes(contours) == 570
        assert self.lu_solves("calc", cfg, tmp_path, rc.grid.n_modes,
                              monkeypatch) == self.upper_nodes(contours) == 285
        assert "calc: 1128 contour nodes, 285 inverted, lower ray mirrored" in \
            capsys.readouterr().err.splitlines()

    def bip_counts(self, tmp_path, monkeypatch, capsys, steps, nodes):
        # t and -t share their contour, and every contour holds the shorter ones
        cfg, rc = self.scene(tmp_path, steps)
        contours = []
        for t in np.linspace(-rc.bip_tmax, rc.bip_tmax, rc.bip_steps):
            f = imaginary_power_regularized(float(t), rc.bip_n_reg)
            f.validate(rc.sector)
            contours.append(build_contour(rc.sector, d=1.0, tol=rc.bip_quad_tol,
                                          c_f=f.c_f))
        assert sum(map(len, contours)) == nodes
        assert self.distinct_nodes(contours) == 362
        assert self.lu_solves("bip", cfg, tmp_path, rc.grid.n_modes,
                              monkeypatch) == self.upper_nodes(contours) == 181
        assert f"bip: {nodes} contour nodes, 181 inverted, lower ray mirrored" in \
            capsys.readouterr().err.splitlines()

    def test_bip_inverts_each_distinct_node_once(self, tmp_path, monkeypatch, capsys):
        self.bip_counts(tmp_path, monkeypatch, capsys, 3, 998)

    def test_long_bip_family_inverts_each_distinct_node_once(self, tmp_path,
                                                              monkeypatch, capsys):
        # twenty members: still one engine call, so no node is inverted twice
        self.bip_counts(tmp_path, monkeypatch, capsys, 20, 6440)

    @pytest.mark.parametrize("rescued", [False, True], ids=["neumann", "rescued"])
    def test_parametrix_solves_twice_per_dense_row(self, tmp_path, monkeypatch,
                                                   rescued):
        # a dense sweep resolvent is one LU solve refined by a second; every
        # row of this scene is Neumann at the default tolerance, and a Neumann
        # series cut to its first term, b^N alone, misses that tolerance at
        # every row and sends it on to the dense inverse
        if rescued:
            monkeypatch.setattr(parametrix, "_MAX_NEUMANN", 0)
        cfg, rc = self.scene(tmp_path)
        solves = self.lu_solves("parametrix", cfg, tmp_path, rc.grid.n_modes,
                                monkeypatch)
        with open(tmp_path / "parametrix_sweep.csv", newline="") as fh:
            methods = [row[9] for row in csv.reader(fh)
                       if row[0] not in ("lambda_re", "slope")]
        assert len(methods) == 2 * rc.lambda_count
        dense = sum(m in ("dense", "neumann->dense") for m in methods)
        assert dense == (len(methods) if rescued else 0)
        assert solves == 2 * dense


def src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(pathlib.Path(sectorcalc.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestImports:
    def test_a_run_imports_no_numpy_random(self, tmp_path):
        # importing numpy.random costs 10-18 ms on every CLI run; the
        # validation points and the resolvent check vector are closed-form
        cfg = write_cfg(tmp_path, SMALL_REF1D_CFG)
        code = "\n".join([
            "import sys",
            "import sectorcalc",
            "from sectorcalc.cli import main",
            "from sectorcalc.config import load_config, resolve_config",
            f"resolve_config(load_config({cfg!r}))",
            f"assert main(['calc', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0",
            "print('numpy.random' in sys.modules)"])
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"
        assert (tmp_path / "fcalc_report.csv").exists()

    @pytest.mark.parametrize("row", scenarios.CHECK_RUNS, ids=lambda row: row.id)
    def test_entry_point_matches_in_process(self, tmp_path, capsys, row):
        # the module entry point in a fresh interpreter (its own hash seed)
        # prints and writes byte for byte what the in-process row run does
        out, err, files = run(row, tmp_path, capsys)
        entry = tmp_path / "entry"
        proc = subprocess.run(
            [sys.executable, "-m", "sectorcalc.cli", row.command, "--config",
             str(tmp_path / "run.cfg"), "--out", str(entry)],
            env=src_env(), capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (row.status, out, err)
        assert {p.name: p.read_bytes() for p in entry.iterdir()} == files
