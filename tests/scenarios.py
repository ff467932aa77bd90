"""The command-line scenarios as data: one row per subcommand run.

A row gives its config lines, the command (``--verbose`` or not), the
exit code, the stdout and stderr it pins, and whether a rerun must
repeat it.  :func:`run` runs a row through ``cli.main`` in-process and
checks:

- the exit code, and stderr in full (``err``, empty by default) and
  stdout in full when ``out`` is given.  A pin is an exact line, a
  compiled pattern the line matches in full, or ``...`` for any lines;
- the output directory: exactly the command's own nonempty reports on
  exit 0, and no directory at all on failure;
- ``lines``: each ``(report, pattern, count)`` says that exactly
  ``count`` lines of the report match the pattern in full;
- that no Python warning was recorded;
- with ``rerun``, that a second run into a fresh directory gives the
  same exit code, streams and report bytes.

To add a scenario, append a row to ``RUNS`` (the later lists run under
named tests in ``test_cli.py``), and run it alone with
``pytest tests/test_cli.py -k <row id>``.
"""

import dataclasses
import re
import warnings

from sectorcalc import cli

rx = re.compile

REPORTS = {"check": ("hypo_report.csv", "hypo_summary.txt"),
           "parametrix": ("parametrix_sweep.csv",),
           "calc": ("fcalc_report.csv",),
           "bip": ("imaginary_powers.csv",)}


@dataclasses.dataclass(frozen=True)
class Row:
    id: str
    command: str
    config: tuple | None  # None: the config file does not exist
    status: int = 0
    verbose: bool = False
    out: tuple | None = None
    err: tuple = ()
    lines: tuple = ()
    rerun: bool = False


def cfg(base, *lines):
    """``base`` with each of ``lines`` in place of the base line of its key,
    or appended when the base has no such key."""
    new = {line.split("=", 1)[0].strip(): line for line in lines}
    kept = tuple(new.pop(line.split("=", 1)[0].strip(), line) for line in base)
    return kept + tuple(new.values())


def _matches(pins, text):
    pattern = "".join(r"(?:.*\n)*" if pin is ... else
                      (pin.pattern if isinstance(pin, re.Pattern) else re.escape(pin))
                      + r"\n" for pin in pins)
    return re.fullmatch(pattern, text) is not None


def _invoke(row, cfg_path, out, capsys):
    argv = [row.command, "--config", str(cfg_path), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = cli.main(argv + ["--verbose"] * row.verbose)
    captured = capsys.readouterr()
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    return status, captured.out, captured.err, files


def run(row, tmp_path, capsys):
    """Run ``row`` in ``tmp_path`` and check all of it; returns the stdout,
    the stderr and the reports (name to bytes, ``None`` for no output
    directory) of its first run."""
    cfg_path = tmp_path / "run.cfg"
    if row.config is not None:
        cfg_path.write_text("\n".join(row.config) + "\n")
    status, out, err, files = result = _invoke(row, cfg_path, tmp_path / "out", capsys)
    assert status == row.status, err
    assert _matches(row.err, err), err
    assert row.out is None or _matches(row.out, out), out
    if row.status == 0:
        assert sorted(files) == sorted(REPORTS[row.command]) and all(files.values())
    else:
        assert files is None
    for name, pattern, count in row.lines:
        found = [line for line in files[name].decode().splitlines()
                 if re.fullmatch(pattern, line)]
        assert len(found) == count, (name, pattern, found)
    if row.rerun:
        assert _invoke(row, cfg_path, tmp_path / "rerun", capsys) == result
    return out, err, files


# the shared base: the reference symbol at P = 16, shifted by 5
SCENE = ("symbol.preset = variable_laplace", "grid.points = 16", "shift = 5")
# one function and three bip steps; with SCENE, the installed console
# script's scene in CI
FAMILY = ("functions = power_quotient 1", "bip.steps = 3")
CHECK = SCENE + FAMILY
# a symbol odd in xi: it fails the conjugate-symmetry gate
ODD = ("symbol.expr = (2+sin(x1))*(1+xi1^2)+5+xi1", "class.m = 2", "grid.points = 16")
MATRIX2_EXPR = ("[[(2+sin(x1))*(1+xi1^2)+2, bracket(xi)], "
                "[0, (2+cos(x1))*(1+xi1^2)+2]]")
MATRIX2 = (f"symbol.expr = {MATRIX2_EXPR}", "class.m = 2", "grid.points = 16")
MATRIX3 = ("symbol.expr = [[(2+sin(x1))*(1+xi1^2)+5, bracket(xi), 0], "
           "[0, (2+cos(x1))*(1+xi1^2)+5, bracket(xi)], [0, 0, bracket(xi)^2+5]]",
           "symbol.k = 3", "class.m = 2", "grid.points = 16")
# the lower entry outgrows the diagonal: pointwise inverses exchange rows
PIVOT = ("symbol.expr = [[(2+sin(x1))*(1+xi1^2)+5, 0.1*bracket(xi)], "
         "[3*(2+cos(x1))*(1+xi1^2), (2+sin(x1))*(1+xi1^2)+5]]",
         "symbol.k = 2", "class.m = 2", "grid.points = 16")
MINUS = ("symbol.expr = (2-sin(x1))*(1+xi1^2) - bracket(xi)/(3-cos(x1)) + 5",
         "class.m = 2", "grid.points = 16", "shift = 5")
SLOW = ("symbol.expr = (2+1.9*sin(x1))*(1+xi1^2)+0.1", "class.m = 2",
        "parametrix.N = 1", "grid.points = 16", "hypo.c = 0.1")
# a 2-D scalar scene, where b^N's compile reads the most derivative tables
SCALAR2D = ("symbol.preset = variable_laplace", "symbol.n = 2", "grid.points = 8")
# a spectrum in the sector, which no contour encloses
NEGATED = ("symbol.preset = -bracket_power 2", "grid.points = 16") + FAMILY


def reruns(name, config, commands=("check", "parametrix")):
    """A row per command on ``config``, each rerun byte for byte."""
    return [Row(f"{name}-{command}", command, config, rerun=True) for command in commands]


def sweep(R, computed, passed, skipped, mirrored, products):
    """The whole --verbose stderr of a 20-row ``parametrix`` sweep."""
    return (f"parametrix: R = {R}",
            f"parametrix: find_R points: {computed} computed, {passed} passed by the "
            f"mirror bound, {skipped} skipped behind a failing radius",
            "parametrix: rows per method: neumann 20",
            f"parametrix: mirrored rows: {mirrored} of 20",
            f"parametrix: Neumann products formed: {products}")


def engine(command, nodes, inverted, mirrored):
    rays = "lower ray mirrored" if mirrored else "both rays inverted"
    return f"{command}: {nodes} contour nodes, {inverted} inverted, {rays}"


def config_error(case, command, config, message):
    return Row(case, command, config, status=1, err=(f"config error: {message}",))


def must(key, rule, got):
    return f"config key '{key}': must be {rule}, got {got}"


FINITE = "the number must be finite"
BIP_T3 = ("bip: t=-5.0", "bip: t=0.0", "bip: t=5.0")
UPSTREAM = "hypoellipticity check failed upstream (240 violations); not integrating"

# the check scene's four commands, which test_cli also runs through the
# module entry point
CHECK_RUNS = reruns("check", CHECK, REPORTS)

# the scenarios test_cli.test_scenario runs
RUNS = [
    *CHECK_RUNS,
    # each upper row is passed to its partner: half the rows are mirrors
    Row("check-parametrix-verbose", "parametrix", CHECK, verbose=True,
        err=sweep("1.0", 21, 21, 0, 10, 38)),
    # one family Dunford call each: every distinct contour node is inverted
    # once, and the real symbol's lower ray is the mirror of its upper ray
    Row("check-calc-verbose", "calc", CHECK, verbose=True,
        err=("calc: power_quotient 1.0", engine("calc", 162, 81, True))),
    Row("check-bip-verbose", "bip", CHECK, verbose=True,
        err=BIP_T3 + (engine("bip", 998, 181, True),)),
    # twenty bip steps are still one engine call: each distinct node is inverted once
    Row("steps20-bip-verbose", "bip", cfg(CHECK, "bip.steps = 20"), verbose=True,
        err=(rx(r"bip: t=-?\d+\.\d+"),) * 20 + (engine("bip", 6440, 181, True),)),
    # two functions of equal decay each keep their own contour
    Row("equal-d-calc-verbose", "calc",
        cfg(CHECK, "functions = power_quotient 1, imag_power 1"), verbose=True,
        err=("calc: power_quotient 1.0", "calc: imag_power 1.0~reg1000",
             engine("calc", 428, 133, True))),
    # the regularizer's corners at |z| ~ 1e7 and 1e-7 widen the validation range
    Row("n-reg-bip", "bip", cfg(CHECK, "bip.n_reg = 10000000")),
    config_error("nan-shift-check", "check", cfg(SCENE, "shift = nan"),
                 must("shift", "finite", "'nan'")),
    config_error("excised-parametrix", "parametrix", cfg(SCENE, "hypo.C = 0.5"),
                 "parametrix needs hypo.C = 0, got 0.5: the parametrix needs the "
                 "spectral condition on the whole window, and low-frequency excision "
                 "is not modelled"),
    config_error("nan-function-check", "check",
                 cfg(SCENE, "functions = power_quotient nan"),
                 f"bad function spec 'power_quotient nan': {FINITE}"),
    *reruns("imag", cfg(SCENE, "functions = imag_power 1"), ["calc"]),
    *reruns("minus", MINUS),
    *reruns("odd", ODD, ["parametrix"]),
    # no sweep row of the odd symbol is a mirror ...
    Row("odd-parametrix-verbose", "parametrix", ODD, verbose=True,
        err=sweep("1.0", 42, 0, 0, 0, 76)),
    # ... and its Dunford calls invert both rays
    Row("odd-calc-verbose", "calc", ODD + FAMILY, verbose=True,
        err=("calc: power_quotient 1.0", engine("calc", 162, 162, False))),
    Row("odd-bip-verbose", "bip", ODD + FAMILY, verbose=True,
        err=BIP_T3 + (engine("bip", 998, 362, False),)),
    *reruns("matrix", MATRIX2 + ("symbol.k = 2",)),
    *reruns("jordan2", ("symbol.preset = jordan2", "grid.points = 64"), ["check"]),
    *reruns("matrix3", MATRIX3),
    # a matrix symbol's mirrored rows take their partners' sups
    Row("matrix3-parametrix-verbose", "parametrix", MATRIX3, verbose=True,
        err=sweep("1.0", 21, 21, 0, 10, 41)),
    *reruns("pivot", PIVOT),
    # the mirror bound on a symbol whose pointwise inverses exchange rows
    Row("pivot-parametrix-verbose", "parametrix", PIVOT, verbose=True,
        err=sweep("128.0", 15, 14, 13, 10, 33)),
    Row("slow-parametrix", "parametrix", SLOW, out=("R = 64.0", ...), rerun=True),
    *reruns("scalar2d", SCALAR2D),
    Row("scalar2d-parametrix-verbose", "parametrix", SCALAR2D, verbose=True,
        err=sweep("4.0", 20, 19, 3, 10, 33)),
    # the 2-D scene at N = 4, where 21 of b^N's 34 tables are zero and 408
    # of its 456 terms fold away at compile time
    *reruns("scalar2d-n4", SCALAR2D + ("parametrix.N = 4",), ["parametrix"]),
    Row("negated-calc", "calc", NEGATED, status=2, out=(UPSTREAM,)),
    Row("negated-bip", "bip", NEGATED, status=2, out=(UPSTREAM,)),
]

# The lists below run under the test_cli.py test named above each of them,
# not under test_scenario.

FLOAT = "could not convert string to float"

# TestExitCodes.test_bad_function_specs_are_config_errors
BAD_FUNCTION_SPECS = [
    config_error("unknown", "calc", cfg(SCENE, "functions = sine 1"),
                 "unknown function spec 'sine 1' (use power_quotient S or imag_power T)"),
] + [
    config_error(case, command, cfg(SCENE, f"functions = {spec}"),
                 f"bad function spec '{spec}': {why}")
    for case, command, spec, why in [
        ("missing_argument", "calc", "power_quotient", "expected one number, got 0"),
        ("not_a_number", "calc", "imag_power one", f"{FLOAT}: 'one'"),
        ("power_quotient_nan", "calc", "power_quotient nan", FINITE),
        ("power_quotient_inf", "calc", "power_quotient inf", FINITE),
        ("imag_power_nan", "calc", "imag_power nan", FINITE),
        ("imag_power_inf", "calc", "imag_power inf", FINITE),
        ("two_numbers", "calc", "power_quotient 1 2", "expected one number, got 2"),
        ("check_not_a_number", "check", "power_quotient abc", f"{FLOAT}: 'abc'"),
    ]]

STEPS_MESSAGE = ("bip.steps must be >= 3 (the growth rate is a line fitted against "
                 "|t|; two steps give one |t|)")

# TestExitCodes.test_bip_ranges_are_config_errors: calc runs imag_power
# through the same regularizer index
BIP_RANGES = [
    config_error(f"{command}-{case}", command,
                 cfg(SCENE, "functions = imag_power 1", line), message)
    for command in ("bip", "calc")
    for case, line, message in [
        ("n_reg_0", "bip.n_reg = 0", "bip.n_reg must be >= 1"),
        ("n_reg_negative", "bip.n_reg = -3", "bip.n_reg must be >= 1"),
        ("steps_0", "bip.steps = 0", STEPS_MESSAGE),
        ("steps_1", "bip.steps = 1", STEPS_MESSAGE),
        ("steps_2", "bip.steps = 2", STEPS_MESSAGE),
    ]]

COUNT = "lambda.count must be >= 2 (the decay slopes are fits)"
ORDER = "parametrix.N must be in [1, 5] (the term lists grow steeply in N)"
MAX_ORDER = "hypo.max_order must be in [0, 8]"
WINDOW = "must lie in [0, 7.0]: above the largest |xi| on the window it leaves no node"
UNKNOWN = "unknown config key '{}': docs/config.md lists the keys"

# TestExitCodes.test_out_of_range_values_are_config_errors
OUT_OF_RANGE = [
    config_error(case, command, cfg(SCENE, *lines), message)
    for case, command, lines, message in [
        ("nodes_per_decade", "calc",
         ("functions = power_quotient 1", "contour.nodes_per_decade = 16"),
         UNKNOWN.format("contour.nodes_per_decade")),
        ("lambda_count_0", "parametrix", ("lambda.count = 0",), COUNT),
        ("lambda_count_1", "parametrix", ("lambda.count = 1",), COUNT),
        ("tol_0", "parametrix", ("parametrix.tol = 0",),
         must("parametrix.tol", "> 0", 0.0)),
        ("tol_negative", "parametrix", ("parametrix.tol = -1",),
         must("parametrix.tol", "> 0", -1.0)),
        ("tmax_0", "bip", ("bip.tmax = 0",), must("bip.tmax", "> 0", 0.0)),
        ("bip_quad_tol_0", "bip", ("bip.quad_tol = 0",),
         must("bip.quad_tol", "> 0", 0.0)),
        ("calc_quad_tol_0", "calc", ("calc.quad_tol = 0",),
         must("calc.quad_tol", "> 0", 0.0)),
        ("max_order_negative", "check", ("hypo.max_order = -1",), MAX_ORDER),
        ("max_order_9", "check", ("hypo.max_order = 9",), MAX_ORDER),
        ("lambda_max_below_R", "parametrix", ("lambda.max = 0.5",),
         "lambda.max = 0.5 must exceed max(lambda.min, R) = 1.0"),
        ("shift_nan", "parametrix", ("shift = nan",), must("shift", "finite", "'nan'")),
        ("hypo_c_nan", "check", ("hypo.c = nan",), must("hypo.c", "finite", "'nan'")),
        ("hypo_C_nan", "check", ("hypo.C = nan",), must("hypo.C", "finite", "'nan'")),
        ("hypo_C_past_window", "check", ("hypo.C = 7.5",), f"hypo.C = 7.5 {WINDOW}"),
        ("hypo_C_negative", "check", ("hypo.C = -1",), f"hypo.C = -1.0 {WINDOW}"),
        ("hypo_c_negative", "check", ("hypo.c = -1",), must("hypo.c", "> 0", -1.0)),
        ("class_m_nan", "parametrix", ("class.m = nan",),
         must("class.m", "finite", "'nan'")),
        ("lambda_min_nan", "parametrix", ("lambda.min = nan",),
         must("lambda.min", "finite", "'nan'")),
        ("lambda_max_inf", "parametrix", ("lambda.max = inf",),
         must("lambda.max", "finite", "'inf'")),
        ("parametrix_N_6", "parametrix", ("parametrix.N = 6",), ORDER),
        ("parametrix_N_9", "parametrix", ("parametrix.N = 9",), ORDER),
        ("xi_max_negative", "check", ("grid.xi_max = -3",),
         "window half-width xi_max must be >= 0, got -3"),
        ("xi_max_minus_1", "parametrix", ("grid.xi_max = -1",),
         "window half-width xi_max must be >= 0, got -1"),
        ("lambda_min_negative", "parametrix", ("lambda.min = -5",),
         "lambda.min must be >= 0, got -5.0"),
        ("misspelled_N", "parametrix", ("parametrix.n = 9",),
         UNKNOWN.format("parametrix.n")),
        ("misspelled_count", "check", ("lambda.cuont = 1",),
         UNKNOWN.format("lambda.cuont")),
    ]]

# TestExitCodes.test_overflowing_decay_samples_are_config_errors: |z^(it)| =
# exp(-t arg z) overflows on the validation rays at |t| = 500
OVERFLOWING_DECAY = [
    config_error("calc", "calc", cfg(SCENE, "functions = imag_power 500"),
                 "imag_power 500.0~reg1000: non-finite values on validation rays"),
    config_error("bip", "bip", cfg(SCENE, "bip.tmax = 500"),
                 "imag_power -500.0~reg1000: non-finite values on validation rays"),
]

# TestExitCodes.test_sweep_ranges_past_rounding_are_config_errors: <lambda> =
# inf at 1e300 broke the sweep's slope fit; at tol 1e-16 every sweep row
# failed its Neumann residual and was redone dense
SWEEP_RANGES = [
    config_error("lambda_max_overflow", "parametrix", cfg(SCENE, "lambda.max = 1e300"),
                 "lambda.max = 1e+300 is too large: <lambda> = (1 + lambda^2)^(1/2) "
                 "overflows"),
    config_error("tol_below_rounding", "parametrix", cfg(SCENE, "parametrix.tol = 1e-16"),
                 "parametrix.tol = 1e-16 must be >= 1e-14: below it the sweep's "
                 "residuals miss the tolerance at rounding level"),
]

# TestMatrixSymbols.test_bad_matrix_symbols_are_config_errors
BAD_MATRIX_SYMBOLS = [
    config_error(case, "check", (symbol, "class.m = 2", "grid.points = 16") + extra,
                 message)
    for case, symbol, extra, message in [
        ("expr_k_mismatch", f"symbol.expr = {MATRIX2_EXPR}", ("symbol.k = 3",),
         "symbol.k = 3 does not match the 2x2 symbol"),
        ("preset_k_mismatch", "symbol.preset = jordan2", ("symbol.k = 1",),
         "symbol.k = 1 does not match the 2x2 symbol"),
        ("junk_between_rows", "symbol.expr = [[1, 0] junk [0, 1]]", (),
         "expected ']', found 'junk' (offset 8)"),
    ]]

BIG153 = ("symbol.expr = 1e153+xi1^2", "class.m = 2", "grid.points = 16")
BIG307 = ("symbol.expr = 2e307+xi1^2", "class.m = 2", "grid.points = 16")
TOO_LARGE = "is not finite (symbol too large for double precision)"

# TestNumericalErrors.test_symbol_too_large_for_doubles: check's exterior
# samples reach |lambda| = 16 sup|a|, where <lambda> overflows, and wrote
# c0 = inf with PASS; at 2e307, 16 sup|a| itself overflows, and so does the
# DFT that quantizes the symbol
SYMBOLS_TOO_LARGE = [
    Row("check_1e153", "check", BIG153, status=3, err=(
        f"error: resolvent bound constant at sample lambda=(1.6e+154+0j) {TOO_LARGE}",)),
    Row("check_2e307", "check", BIG307, status=3, err=(
        "error: sup|a| = 2e+307 is too large for double precision: the lambda "
        "samples reach 16 sup|a|",)),
    Row("parametrix_2e307", "parametrix", BIG307, status=3,
        err=(f"error: quantized symbol {TOO_LARGE}",)),
    Row("bip_2e307", "bip", BIG307, status=3,
        err=(f"error: quantized symbol {TOO_LARGE}",)),
]

# TestNumericalErrors.test_norms_below_the_quadrature_tolerance_are_refused:
# at 1e153 every f(A) is far below the contour's absolute tolerance, so the
# quadrature certifies no digit of its norm
NO_DIGIT = ": the quadrature certifies no digit of it"
NORMS_BELOW_QUAD_TOL = [
    Row("calc", "calc", BIG153 + ("functions = power_quotient 1",), status=3, err=(rx(
        r"numerical failure: power_quotient 1\.0: op_norm_oracle = 4\.99\d*e-154 is at "
        r"or below calc\.quad_tol = 1e-05" + re.escape(NO_DIGIT)),)),
    Row("bip", "bip", BIG153 + ("functions = power_quotient 1",), status=3, err=(rx(
        r"numerical failure: t=-5\.0: op_norm = 8\.75\d*e-149 is at or below "
        r"bip\.quad_tol = 1e-06" + re.escape(NO_DIGIT)),)),
]

ROUNDED = ("18 of 18 fit rows at rounding or not finite (<lambda> = 4.64e+16, "
           "2.15e+33, 1e+50, 4.64e+66, 2.15e+83, 1e+100, 4.64e+116, 2.15e+133, "
           "1e+150), omitted (0 distinct radii left, 3 needed)")

# the rows of the single tests named by their ids (test_<id>)
NAMED = {row.id: row for row in [
    Row("missing_config_file", "check", None, status=1, err=(rx(
        r"config error: cannot read config '.*run\.cfg': \[Errno 2\] No such file or "
        r"directory: '.*run\.cfg'"),)),
    config_error("bad_schema", "check", ("this is not a key value line",),
                 "line 1: expected 'key = value', got 'this is not a key value line'"),
    config_error("bad_expression_is_config_error", "check",
                 ("symbol.expr = 2+*x1", "class.m = 2", "grid.points = 16"),
                 "expected a value, found '*' (offset 2)"),
    config_error("duplicate_key_rejected", "check", SCENE + ("shift = 1",),
                 "line 4: duplicate key 'shift'"),
    config_error("parametrix_rejects_bad_order", "parametrix",
                 cfg(SCENE, "parametrix.N = 0"), ORDER),
    config_error("calc_requires_functions", "calc", cfg(SCENE, "functions ="),
                 "calc requires a nonempty 'functions' list"),
    Row("unknown_subcommand_is_usage_error", "frobnicate", SCENE, status=1, err=(
        rx("usage: sectorcalc .*"), ...,
        rx("sectorcalc: error: argument command: invalid choice: 'frobnicate' .*"))),
    # r_max = (4 c_f/(d tol))^(1/d) overflows at d = 0.001: the decade
    # budget is tested in logarithms first
    Row("small_decay_exponent_is_a_numerical_failure", "calc",
        cfg(SCENE, "functions = power_quotient 0.001"), status=3, err=(rx(
            r"numerical failure: contour spans \d+ decades \(> 220\); decay exponent "
            r"too small for the requested tolerance"),)),
    # swept to 1e150, s^N is 0.0 at every row with <lambda> >= 1e50, and past
    # R every row's r^N is at rounding, so the rN and sN fits keep no row,
    # both are omitted and one warning names both with the <lambda> of every
    # row they dropped
    Row("underflowing_slope_samples_are_dropped_loudly", "parametrix",
        cfg(CHECK, "lambda.max = 1e150"),
        out=("R = 1.0", rx(r"slope\[bN_weighted\] = \S+")),
        err=(f"warning: slope fits dropped rows: slope[rN] {ROUNDED}; "
             f"slope[sN] {ROUNDED}",),
        lines=(("parametrix_sweep.csv", r"slope,.*", 1),
               ("parametrix_sweep.csv", r"slope,bN_weighted,.*", 1),
               ("parametrix_sweep.csv", r"(?:[^,]*,){7}0\.0,.*", 14))),
    Row("size_comes_from_the_text", "check", MATRIX2,
        lines=(("hypo_summary.txt", r".*, k = 2", 1),)),
]}
