"""Output checks that do not rely on the program under test.

Each CLI stage's CSVs are checked against the layouts in
``docs/csv_schemas.md``.  On the scalar scenes the operator norms in the
``calc`` and ``bip`` reports are compared with f(A) = V f(Lambda) V^-1, where
A is built here from the symbol's x-Fourier coefficients and diagonalised
with ``numpy.linalg.eig``.  The contour certificate bounds the scalar
quadrature error by the config's quad_tol and each truncated tail by a quarter
of it, so a norm may differ from the eigen-oracle by at most
QUAD_SLACK * cond(V) * quad_tol.  Every sweep residual must be within the
acceptance bound.  The ``discrepancy`` column is not used: it is zero by construction.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os

import numpy as np

RESIDUAL_BOUND = 1e-10
# Certificate error (1) plus both tails (1/2), rounded up with room for the
# resolvent-distance constant the certificate takes as 1.
QUAD_SLACK = 4.0

OUTPUTS = {
    "check": ["hypo_report.csv", "hypo_summary.txt"],
    "parametrix": ["parametrix_sweep.csv"],
    "calc": ["fcalc_report.csv"],
    "bip": ["imaginary_powers.csv"],
}

HYPO_HEADER = ["record", "detail", "value_re", "value_im"]
HYPO_RECORDS = {"passed", "param", "extra", "c_table", "violation"}
SWEEP_HEADER = ["lambda_re", "lambda_im", "bracket_lambda", "sup_bN", "sup_rN",
                "sup_sN", "class_sup_rN", "class_sup_sN", "residual", "method"]
SWEEP_METHODS = {"", "neumann", "dense", "neumann->dense"}
CALC_HEADER = ["name", "sup_norm", "op_norm_oracle", "op_norm_symbol", "ratio",
               "discrepancy"]
BIP_HEADER = ["t", "op_norm"]


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _num(text, what):
    try:
        val = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None
    _require(math.isfinite(val), f"{what}: not finite: {text!r}")
    return val


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Independent operator and f(A)
# ---------------------------------------------------------------------------

def scalar_scene_operator(n, points, shift):
    """Dense matrix of (2 + sin x1)(1 + |xi|^2) + shift on the mode window.

    Column xi holds the x-Fourier coefficients of a(., xi) placed at rows
    xi + j: 2(1+|xi|^2) + shift at j = 0 and +-(1+|xi|^2)/(2i) at j = +-e1.
    """
    half = points // 2 - 1
    axis = range(-half, half + 1)
    modes = list(itertools.product(axis, repeat=n))
    index = {m: i for i, m in enumerate(modes)}
    A = np.zeros((len(modes), len(modes)), dtype=complex)
    for col, m in enumerate(modes):
        w = 1.0 + sum(v * v for v in m)
        A[col, col] = 2.0 * w + shift
        for sign in (1, -1):
            row = index.get((m[0] + sign,) + m[1:])
            if row is not None:
                A[row, col] += sign * w / 2j
    return A


class EigenOracle:
    """f(A) = V f(Lambda) V^-1 and its exact 2-norm."""

    def __init__(self, A):
        self.eigs, self.V = np.linalg.eig(A)
        self.V_inv = np.linalg.inv(self.V)
        self.cond = float(np.linalg.cond(self.V))

    def norm(self, fn):
        fA = (self.V * fn(self.eigs)) @ self.V_inv
        return float(np.linalg.norm(fA, 2))


def power_quotient(s):
    return lambda z: np.exp(s * np.log(z) - 2.0 * s * np.log1p(z))


def regularized_imaginary_power(t, n_reg):
    return lambda z: (np.exp(1j * t * np.log(z)) * (n_reg * z / (1.0 + n_reg * z))
                      / (1.0 + z / n_reg))


def make_oracle(wl):
    if "calc" not in wl.stages and "bip" not in wl.stages:
        return None
    return EigenOracle(scalar_scene_operator(wl.n, wl.points, wl.shift))


# ---------------------------------------------------------------------------
# Per-stage checks
# ---------------------------------------------------------------------------

def _check_hypo(outdir, wl, oracle):
    rows = _rows(os.path.join(outdir, "hypo_report.csv"))
    _require(rows and rows[0] == HYPO_HEADER, f"hypo_report.csv header {rows[:1]}")
    params = {}
    for row in rows[1:]:
        _require(len(row) == 4 and row[0] in HYPO_RECORDS, f"hypo_report.csv row {row}")
        float(row[2]), float(row[3])  # raises ValueError on a non-number
        if row[0] == "passed":
            _require(float(row[2]) == 1.0, "hypoellipticity check did not pass")
        if row[0] == "param":
            params[row[1]] = float(row[2])
    theta = float(wl.values["sector.theta"])
    _require(params.get("theta") == theta, f"hypo_report.csv theta {params.get('theta')}")
    with open(os.path.join(outdir, "hypo_summary.txt")) as fh:
        first = fh.readline().strip()
    _require(first == "hypoellipticity check: PASS", f"hypo_summary.txt: {first!r}")


def _check_sweep(outdir, wl, oracle):
    rows = _rows(os.path.join(outdir, "parametrix_sweep.csv"))
    _require(rows and rows[0] == SWEEP_HEADER, f"parametrix_sweep.csv header {rows[:1]}")
    data = [r for r in rows[1:] if r and r[0] != "slope"]
    slopes = {r[1]: r for r in rows[1:] if r and r[0] == "slope"}
    theta = float(wl.values["sector.theta"])
    _require(len(data) == 2 * 10, f"sweep has {len(data)} rows, expected 20")
    resolved = 0
    for i, row in enumerate(data):
        what = f"parametrix_sweep.csv row {i + 1}"
        _require(len(row) == 10, f"{what}: {len(row)} fields")
        lam = complex(_num(row[0], what), _num(row[1], what))
        _require(abs(abs(np.angle(lam)) - theta) <= 1e-9, f"{what}: lambda off the rays")
        _require(_close(_num(row[2], what), math.sqrt(1.0 + abs(lam) ** 2), 1e-12),
                 f"{what}: bracket_lambda")
        for col in (3, 4, 6):
            _require(_num(row[col], what) >= 0.0, f"{what}: negative sup")
        method = row[9]
        _require(method in SWEEP_METHODS, f"{what}: method {method!r}")
        if method:
            resolved += 1
            residual = _num(row[8], what)
            _require(0.0 <= residual <= RESIDUAL_BOUND,
                     f"{what}: residual {residual!r} above {RESIDUAL_BOUND}")
            _num(row[5], what), _num(row[7], what)
        else:
            _require(row[8] == "nan" and row[5] == "" and row[7] == "",
                     f"{what}: unresolved row carries resolvent data")
    _require(resolved > 0, "no sweep row reached the resolvent")
    for name in ("rN", "bN_weighted"):
        _require(name in slopes, f"slope {name} missing")
    for name, row in slopes.items():
        _require(len(row) == 10 and row[3:] == [""] * 7, f"slope row {row}")
        _num(row[2], f"slope {name}")


def _check_calc(outdir, wl, oracle):
    rows = _rows(os.path.join(outdir, "fcalc_report.csv"))
    _require(rows and rows[0] == CALC_HEADER, f"fcalc_report.csv header {rows[:1]}")
    body, last = rows[1:-1], rows[-1]
    _require(len(body) == len(wl.functions),
             f"fcalc_report.csv: {len(body)} functions, expected {len(wl.functions)}")
    tol = QUAD_SLACK * oracle.cond * float(wl.values["calc.quad_tol"])
    ratios = []
    for row, s in zip(body, wl.functions):
        what = f"fcalc_report.csv {row[0]!r}"
        _require(len(row) == 6 and row[0] == f"power_quotient {s!r}", f"{what}: row {row}")
        sup, opo, ops, ratio = (_num(v, what) for v in row[1:5])
        _num(row[5], what)
        _require(min(sup, opo, ops) > 0.0, f"{what}: non-positive norm")
        _require(_close(ratio, opo / sup, 1e-12), f"{what}: ratio != op_norm_oracle/sup_norm")
        ref = oracle.norm(power_quotient(s))
        _require(abs(opo - ref) <= tol,
                 f"{what}: op_norm_oracle {opo!r} vs eig {ref!r} (tol {tol:.2e})")
        ratios.append(ratio)
    _require(len(last) == 6 and last[0] == "M" and last[1:4] == ["", "", ""]
             and last[5] == "", f"fcalc_report.csv M row {last}")
    _require(_num(last[4], "M") == max(ratios), "M is not the largest ratio")


def _check_bip(outdir, wl, oracle):
    rows = _rows(os.path.join(outdir, "imaginary_powers.csv"))
    _require(rows and rows[0] == BIP_HEADER, f"imaginary_powers.csv header {rows[:1]}")
    body, tail = rows[1:-2], rows[-2:]
    _require(len(body) == len(wl.bip_ts), f"imaginary_powers.csv: {len(body)} t rows")
    tol = QUAD_SLACK * oracle.cond * float(wl.values["bip.quad_tol"])
    n_reg = int(wl.values["bip.n_reg"])
    for row, t in zip(body, wl.bip_ts):
        what = f"imaginary_powers.csv t={row[0]}"
        _require(len(row) == 2 and _num(row[0], what) == t, f"{what}: expected t={t!r}")
        nrm = _num(row[1], what)
        ref = oracle.norm(regularized_imaginary_power(t, n_reg))
        _require(abs(nrm - ref) <= tol,
                 f"{what}: op_norm {nrm!r} vs eig {ref!r} (tol {tol:.2e})")
    _require(tail[0][0] == "rate" and len(tail[0]) == 2, f"rate row {tail[0]}")
    _num(tail[0][1], "rate")
    _require(tail[1] == ["theta", wl.values["sector.theta"]], f"theta row {tail[1]}")


CHECKS = {"check": _check_hypo, "parametrix": _check_sweep, "calc": _check_calc,
          "bip": _check_bip}


def check_stage(stage, outdir, wl, oracle):
    """Problems with one stage's outputs, as a list of messages (empty = ok)."""
    try:
        CHECKS[stage](outdir, wl, oracle)
    except CheckFailed as exc:
        return [f"{stage}: {exc}"]
    except (OSError, IndexError, ValueError) as exc:
        return [f"{stage}: unreadable output: {exc!r}"]
    return []


def digest_stage(stage, outdir):
    """SHA-256 of each report a stage writes, for the byte-identity check."""
    out = {}
    for name in OUTPUTS[stage]:
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
