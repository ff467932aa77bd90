"""Configuration-driven command line emitting diffable CSV reports.

Subcommands: ``check`` (hypoellipticity), ``parametrix`` (lambda sweep),
``calc`` (functional-calculus report), ``bip`` (imaginary powers).  Exit
codes: 0 success, 1 usage/config error, 2 mathematical-check failure,
3 numerical failure.  Reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter

import numpy as np

from .config import load_config, resolve_config
from .densela import operator_norm
from .errors import ConfigError, ContourError, SectorcalcError, SingularOperatorError
from .funcalc import (build_contour, dunford_family, hinf_bound_probe,
                      imaginary_power_regularized)
from .grid import sample
from .hypo import check_spectrum, estimate_hypo_constants
from .parametrix import ParametrixCalculator, neumann_products, parametrix_sweep
from .quantop import QuantOp, extract_symbol, quantize

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL = 3


def _say(args, message):
    if args.verbose:
        print(message, file=sys.stderr)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_check(rc, args):
    report = check_spectrum(rc.base_expr, rc.sector, rc.hypo_c, rc.hypo_C, rc.grid)
    if report.passed:
        estimate_hypo_constants(rc.base_expr, rc.sector, rc.grid, rc.class_params,
                                report, max_order=rc.hypo_max_order)
    report.to_csv(_out_path(args, "hypo_report.csv"))
    with open(_out_path(args, "hypo_summary.txt"), "w") as fh:
        fh.write(report.summary_text() + "\n")
    print(report.summary_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _spectrum_gate(rc, command, work):
    """The gate of ``parametrix``, ``calc`` and ``bip`` before any radius or
    contour: hypo.C = 0 (a config error otherwise) and the spectral check on
    the whole window.  Returns whether the check passed, saying that
    ``work`` is skipped when it did not."""
    if rc.hypo_C > 0:
        subject = "the parametrix" if command == "parametrix" else "the contour integral"
        raise ConfigError(
            f"{command} needs hypo.C = 0, got {rc.hypo_C!r}: {subject} needs "
            "the spectral condition on the whole window, and low-frequency "
            "excision is not modelled")
    base = check_spectrum(rc.base_expr, rc.sector, rc.hypo_c, rc.hypo_C, rc.grid)
    if not base.passed:
        print(f"hypoellipticity check failed upstream "
              f"({base.n_violations} violations); not {work}")
    return base.passed


def cmd_parametrix(rc, args):
    if not _spectrum_gate(rc, "parametrix", "sweeping"):
        return EXIT_CHECK_FAILED
    calc = ParametrixCalculator(rc.expr, rc.grid, rc.class_params, rc.sector,
                                rc.parametrix_N)
    R = calc.find_R()
    lo = max(rc.lambda_min, R)
    if not rc.lambda_max > lo:
        raise ConfigError(f"lambda.max = {rc.lambda_max!r} must exceed "
                          f"max(lambda.min, R) = {lo!r}")
    radii = np.geomspace(lo, rc.lambda_max, rc.lambda_count)
    family = parametrix_sweep(calc, radii, tol=rc.parametrix_tol)
    family.to_csv(_out_path(args, "parametrix_sweep.csv"))
    rows = family.rows
    methods = Counter(row["method"] for row in rows)
    _say(args, f"parametrix: R = {R!r}")
    points = calc.find_R_points
    _say(args, f"parametrix: find_R points: {points['computed']} computed, "
         f"{points['mirror_bound']} passed by the mirror bound, "
         f"{points['skipped']} skipped behind a failing radius")
    _say(args, "parametrix: rows per method: "
         + ", ".join(f"{m} {methods[m]}" for m in sorted(methods)))
    _say(args, f"parametrix: mirrored rows: {sum(row['mirrored'] for row in rows)} "
         f"of {len(rows)}")
    # a mirrored row forms no Neumann product, and a dense row has no terms
    _say(args, "parametrix: Neumann products formed: "
         + str(sum(neumann_products(row["neumann_terms"] - 1) for row in rows
                   if row["neumann_terms"] and not row["mirrored"])))
    if family.fit_notes:
        print("warning: slope fits dropped rows: " + "; ".join(
            f"slope[{name}] {note}" for name, note in sorted(family.fit_notes.items())),
              file=sys.stderr)
    print(f"R = {R!r}")
    for name in sorted(family.slopes):
        print(f"slope[{name}] = {family.slopes[name]!r}")
    return EXIT_OK


def _validate_all(family, sector):
    """:meth:`HFun.validate` on each member; a failed decay check (non-finite
    samples, say from overflow) is a config error."""
    try:
        for f in family:
            f.validate(sector)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _certified(norm, what, command, quad_tol):
    """A reported operator norm, refused when it is at or below the
    quadrature tolerance that bounds its error: it has no certified digit."""
    if not norm > quad_tol:
        raise ContourError(f"{what} = {norm!r} is at or below {command}.quad_tol = "
                           f"{quad_tol!r}: the quadrature certifies no digit of it")
    return norm


def cmd_calc(rc, args):
    if not rc.functions:
        raise ConfigError("calc requires a nonempty 'functions' list")
    _validate_all(rc.functions, rc.sector)
    if not _spectrum_gate(rc, "calc", "integrating"):
        return EXIT_CHECK_FAILED
    A = quantize(sample(rc.expr, rc.grid))
    try:
        probe = hinf_bound_probe(A, rc.functions, rc.sector, quad_tol=rc.calc_quad_tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = []
    for (name, sup, op_norm_oracle, ratio), oracle in zip(probe.rows, probe.ops):
        _say(args, f"calc: {name}")
        # the symbol-level f(a) is the symbol of f(A), extracted on A's grid
        q_fa = quantize(extract_symbol(QuantOp(A.grid, A.k, oracle))).matrix
        _certified(op_norm_oracle, f"{name}: op_norm_oracle", "calc", rc.calc_quad_tol)
        op_norm_symbol = _certified(operator_norm(q_fa), f"{name}: op_norm_symbol",
                                    "calc", rc.calc_quad_tol)
        discrepancy = operator_norm(q_fa - oracle) / op_norm_oracle
        rows.append((name, sup, op_norm_oracle, op_norm_symbol, ratio, discrepancy))
    _say(args, f"calc: {probe.nodes} contour nodes, {probe.inverted} inverted")
    with open(_out_path(args, "fcalc_report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "sup_norm", "op_norm_oracle", "op_norm_symbol",
                         "ratio", "discrepancy"])
        for name, sup, opo, ops, ratio, disc in rows:
            writer.writerow([name, repr(sup), repr(opo), repr(ops),
                             repr(ratio), repr(disc)])
        writer.writerow(["M", "", "", "", repr(probe.M), ""])
    print(f"M = {probe.M!r} over {len(rows)} functions")
    return EXIT_OK


def cmd_bip(rc, args):
    ts = np.linspace(-rc.bip_tmax, rc.bip_tmax, rc.bip_steps).tolist()
    family = [imaginary_power_regularized(t, rc.bip_n_reg) for t in ts]
    _validate_all(family, rc.sector)
    if not _spectrum_gate(rc, "bip", "integrating"):
        return EXIT_CHECK_FAILED
    A = quantize(sample(rc.expr, rc.grid))
    contours = [build_contour(rc.sector, d=1.0, tol=rc.bip_quad_tol, c_f=f.c_f)
                for f in family]
    rows = []
    for t, (op, inverted) in zip(ts, dunford_family(A, list(zip(family, contours)))):
        _say(args, f"bip: t={t!r}")
        rows.append((t, _certified(operator_norm(op), f"t={t!r}: op_norm", "bip",
                                   rc.bip_quad_tol)))
    _say(args, f"bip: {sum(map(len, contours))} contour nodes, {inverted} inverted")
    rate = float(np.polyfit(np.abs([r[0] for r in rows]),
                            np.log([r[1] for r in rows]), 1)[0])
    with open(_out_path(args, "imaginary_powers.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "op_norm"])
        for t, nrm in rows:
            writer.writerow([repr(t), repr(nrm)])
        writer.writerow(["rate", repr(rate)])
        writer.writerow(["theta", repr(rc.sector.theta)])
    print(f"fitted growth rate = {rate!r} (theta = {rc.sector.theta!r})")
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "parametrix": cmd_parametrix,
    "calc": cmd_calc,
    "bip": cmd_bip,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sectorcalc",
        description="Sectorial functional calculus reports on the discrete torus")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=".", help="output directory for CSV reports")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        rc = resolve_config(load_config(args.config))
    except SectorcalcError as exc:
        # parse/validation problems in the config are usage errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](rc, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularOperatorError, ContourError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if isinstance(exc, SingularOperatorError):
            print("hint: a larger shift c may move the spectrum off the contour",
                  file=sys.stderr)
        return EXIT_NUMERICAL
    except SectorcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
