"""Sectorial functional calculus for pseudodifferential symbols on the
discrete torus: symbol DSL with exact derivatives, hypoellipticity checks,
exact Leibniz composition, the parametrix recursion with Neumann inversion,
and contour-quadrature functional calculus validated against a dense
operator oracle."""

from .dsl import (MAX_DERIVATIVE_ORDER, SymbolClassParams, SymbolExpr,
                  parse_symbol, validate_symbol)
from .densela import dense_resolvent, operator_norm, resolvent_norm_sweep
from .errors import (ConfigError, ContourError, DerivativeOrderError,
                     GridMismatchError, NonPeriodicError, SectorcalcError,
                     SingularOperatorError, SymbolDomainError, SymbolSyntaxError,
                     UnknownIdentifierError)
from .funcalc import (Contour, HFun, HinfProbeReport, bn_part, build_contour,
                      dunford_family, f_of_operator_oracle, f_of_symbol,
                      hinf_bound_probe, imaginary_power_regularized,
                      power_quotient, regularizer_value, resolvent_decay_probe)
from .grid import GridSymbol, TorusGrid, class_weighted_sup, grid_seminorm, sample
from .hypo import (HypoReport, check_spectrum, eigenvalues_grid,
                   estimate_hypo_constants)
from .parametrix import (LeibnizResolvent, ParametrixCalculator,
                         ParamSymbolFamily, bj_term_lists, parametrix_sweep,
                         shift)
from .presets import get_preset, preset_names
from .quantop import (QuantOp, compose_exact, extract_symbol, leibniz_truncated,
                      quantize)
from .sector import Sector

__version__ = "0.1.0"
