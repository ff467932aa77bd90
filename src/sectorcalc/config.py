"""Run-configuration parsing for the command-line front end.

The format is plain text, one ``dotted.key = value`` per line, ``#`` starts
a comment.  Dots nest keys; values are typed by the consumer.  The schema
is documented in ``docs/config.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsl import MAX_DERIVATIVE_ORDER, SymbolClassParams, parse_symbol
from .errors import ConfigError, SectorcalcError
from .funcalc import imaginary_power_regularized, power_quotient
from .presets import get_preset
from .sector import Sector
from .grid import TorusGrid
from .util import japanese_bracket

# Largest parametrix order N a config may ask for.  At P = 16 and one BLAS
# thread a parametrix run takes 0.3 s at n = 1, N = 5 and 7.4 s at n = 2,
# N = 5 (9,270 terms); the n = 2 term lists hold 213,478 terms at N = 6.
MAX_PARAMETRIX_N = 5

# Smallest parametrix.tol a config may ask for.  Sweep residuals sit at
# rounding level, about 1e-16 to 4e-16: at N = 3 and tol 1e-15, 10 of the 20
# sweep rows of the reference scene fail their Neumann residual check and are
# redone dense (two LU solves each); at 1e-16 every row is, and the dense
# rows may still miss the tolerance.
MIN_PARAMETRIX_TOL = 1e-14

# The schema of docs/config.md.  Any other key is a configuration error, so
# that a misspelled key never silently runs the default.
CONFIG_KEYS = frozenset({
    "symbol.preset", "symbol.expr", "symbol.n", "symbol.k",
    "class.m", "class.rho", "class.delta", "sector.theta",
    "grid.points", "grid.xi_max", "hypo.c", "hypo.C", "hypo.max_order", "shift",
    "parametrix.N", "parametrix.tol", "lambda.min", "lambda.max", "lambda.count",
    "calc.quad_tol", "functions", "bip.tmax", "bip.steps", "bip.n_reg",
    "bip.quad_tol"})


def parse_config_text(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def load_config(path):
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


class _Cfg:
    def __init__(self, values):
        self.values = values

    def get(self, key, default=None):
        return self.values.get(key, default)

    def get_float(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            return float(default)
        try:
            val = float(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: not a number: {raw!r}") from exc
        if not np.isfinite(val):
            raise ConfigError(f"config key {key!r}: must be finite, got {raw!r}")
        return val

    def get_positive(self, key, default):
        val = self.get_float(key, default)
        if not val > 0:
            raise ConfigError(f"config key {key!r}: must be > 0, got {val!r}")
        return val

    def get_int(self, key, default=None):
        val = self.get_float(key, default)
        if val != int(val):
            raise ConfigError(f"config key {key!r}: expected an integer, got {val!r}")
        return int(val)

    def get_int_in(self, key, default, lo, hi=None, why=""):
        """:meth:`get_int` with lo <= value (<= hi) enforced."""
        val = self.get_int(key, default)
        if val < lo or (hi is not None and val > hi):
            allowed = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigError(f"{key} must be {allowed}{why}")
        return val


@dataclass
class RunConfig:
    """Validated run configuration resolved into package objects."""

    expr: object
    base_expr: object
    class_params: SymbolClassParams
    sector: Sector
    grid: TorusGrid
    hypo_c: float
    hypo_C: float
    hypo_max_order: int
    parametrix_N: int
    parametrix_tol: float
    lambda_min: float
    lambda_max: float
    lambda_count: int
    calc_quad_tol: float
    functions: list
    bip_tmax: float
    bip_steps: int
    bip_n_reg: int
    bip_quad_tol: float


def resolve_config(values):
    """Validate raw key/value pairs and build the run objects."""
    cfg = _Cfg(values)
    unknown = sorted(set(values) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}: "
                          "docs/config.md lists the keys")
    n = cfg.get_int("symbol.n", 1)
    preset = cfg.get("symbol.preset")
    expr_text = cfg.get("symbol.expr")
    if preset and expr_text:
        raise ConfigError("give either symbol.preset or symbol.expr, not both")
    try:
        if preset:
            base_expr, params = get_preset(preset, n=n)
        elif expr_text:
            base_expr = parse_symbol(expr_text, n=n)
            params = SymbolClassParams(m=cfg.get_float("class.m"))
        else:
            raise ConfigError("config must set symbol.preset or symbol.expr")
    except SectorcalcError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.get("symbol.k") is not None and cfg.get_int("symbol.k") != base_expr.k:
        raise ConfigError(f"symbol.k = {cfg.get('symbol.k')} does not match the "
                          f"{base_expr.k}x{base_expr.k} symbol")
    params = SymbolClassParams(
        m=cfg.get_float("class.m", params.m),
        rho=cfg.get_float("class.rho", params.rho),
        delta=cfg.get_float("class.delta", params.delta))
    try:
        params.validate()
        sector = Sector(theta=cfg.get_float("sector.theta", np.pi / 2))
        xi_max = cfg.get("grid.xi_max")
        grid = TorusGrid(n=n, points=cfg.get_int("grid.points", 128),
                         xi_max=None if xi_max is None else cfg.get_int("grid.xi_max"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    shift_c = cfg.get_float("shift", 0.0)
    if shift_c < 0:
        raise ConfigError("shift must be >= 0")
    expr = base_expr.shifted(shift_c) if shift_c > 0 else base_expr
    lambda_min = cfg.get_float("lambda.min", 0.0)
    if lambda_min < 0:
        raise ConfigError(f"lambda.min must be >= 0, got {lambda_min!r}")
    hypo_C = cfg.get_float("hypo.C", 0.0)
    xi_top = float(grid.xi_norm().max())
    if not 0.0 <= hypo_C <= xi_top:
        raise ConfigError(f"hypo.C = {hypo_C!r} must lie in [0, {xi_top!r}]: above "
                          "the largest |xi| on the window it leaves no node")
    bip_n_reg = cfg.get_int_in("bip.n_reg", 1000, 1)
    specs = [spec.strip() for spec in cfg.get("functions", "").split(",") if spec.strip()]
    rc = RunConfig(
        expr=expr, base_expr=base_expr, class_params=params, sector=sector,
        grid=grid,
        hypo_c=cfg.get_positive("hypo.c", 0.5),
        hypo_C=hypo_C,
        hypo_max_order=cfg.get_int_in("hypo.max_order", 2, 0, MAX_DERIVATIVE_ORDER),
        parametrix_N=cfg.get_int_in("parametrix.N", 3, 1, MAX_PARAMETRIX_N,
                                    why=" (the term lists grow steeply in N)"),
        parametrix_tol=cfg.get_positive("parametrix.tol", 1e-11),
        lambda_min=lambda_min,
        lambda_max=cfg.get_float("lambda.max", 1e4),
        lambda_count=cfg.get_int_in("lambda.count", 10, 2,
                                    why=" (the decay slopes are fits)"),
        calc_quad_tol=cfg.get_positive("calc.quad_tol", 1e-5),
        functions=build_function_family(specs, bip_n_reg),
        bip_tmax=cfg.get_positive("bip.tmax", 5.0),
        bip_steps=cfg.get_int_in("bip.steps", 11, 2,
                                 why=" (the growth rate is a fit)"),
        bip_n_reg=bip_n_reg,
        bip_quad_tol=cfg.get_positive("bip.quad_tol", 1e-6),
    )
    if rc.parametrix_tol < MIN_PARAMETRIX_TOL:
        raise ConfigError(f"parametrix.tol = {rc.parametrix_tol!r} must be >= "
                          f"{MIN_PARAMETRIX_TOL!r}: below it the sweep's residuals "
                          "miss the tolerance at rounding level")
    with np.errstate(over="ignore"):
        if not np.isfinite(japanese_bracket(rc.lambda_max)):
            raise ConfigError(f"lambda.max = {rc.lambda_max!r} is too large: "
                              "<lambda> = (1 + lambda^2)^(1/2) overflows")
    return rc


def build_function_family(specs, n_reg):
    """Resolve ``functions = name arg, ...`` specs into HFun objects.

    Each spec is a known name and exactly one finite number."""
    makers = {"power_quotient": power_quotient,
              "imag_power": lambda t: imaginary_power_regularized(t, n_reg)}
    family = []
    for spec in specs:
        name, *args = spec.split()
        if name not in makers:
            raise ConfigError(f"unknown function spec {spec!r} "
                              "(use power_quotient S or imag_power T)")
        try:
            if len(args) != 1:
                raise ValueError(f"expected one number, got {len(args)}")
            arg = float(args[0])
            if not np.isfinite(arg):
                raise ValueError("the number must be finite")
            family.append(makers[name](arg))
        except ValueError as exc:
            raise ConfigError(f"bad function spec {spec!r}: {exc}") from exc
    return family
