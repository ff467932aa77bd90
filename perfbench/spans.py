"""Span and counter tracing for the benchmark's traced pass.

The tracer wraps public functions and methods of the ``sectorcalc`` modules
and three ``numpy.linalg`` kernels from outside the package: every module
attribute that refers to a wrapped function is replaced, so ``from .x import
f`` bindings are covered too.  Wrappers call the original with the same
arguments and return its result unchanged, so traced and untraced passes
write byte-identical reports.

Spans (name, start, end, parent) are kept in memory and summarised at the
end of the pass.  A name's inclusive time counts only its outermost spans;
its self time is each span's duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter

# (module, attribute, span name)
FUNCTIONS = [
    ("config", "load_config", "config.load"),
    ("config", "resolve_config", "config.resolve"),
    ("dsl", "parse_symbol", "dsl.parse"),
    ("grid", "sample", "grid.sample"),
    ("hypo", "check_spectrum", "hypo.spectrum"),
    ("hypo", "eigenvalues_grid", "hypo.eigenvalues"),
    ("hypo", "estimate_hypo_constants", "hypo.constants"),
    ("quantop", "quantize", "quantop.quantize"),
    ("quantop", "extract_symbol", "quantop.extract"),
    ("parametrix", "parametrix_sweep", "parametrix.sweep"),
    ("funcalc", "build_contour", "funcalc.contour"),
    ("funcalc", "f_of_operator_oracle", "funcalc.oracle"),
    ("funcalc", "f_of_symbol", "funcalc.symbol"),
    ("densela", "operator_norm", "densela.norm"),
]

# (module, class, method, span name)
METHODS = [
    ("dsl", "SymbolExpr", "diff", "dsl.diff"),
    ("grid", "GridSymbol", "spectral_norms", "grid.spectral_norms"),
    ("parametrix", "ParametrixCalculator", "__init__", "parametrix.init"),
    ("parametrix", "ParametrixCalculator", "assemble_bN", "parametrix.assemble_bN"),
    ("parametrix", "ParametrixCalculator", "remainder", "parametrix.remainder"),
    ("parametrix", "ParametrixCalculator", "leibniz_resolvent", "parametrix.resolvent"),
    ("parametrix", "ParametrixCalculator", "find_R", "parametrix.find_R"),
]


def _lu_flops(shape, nrhs=None):
    """Computed real flop count of LU-based inversion or solve.

    Complex arithmetic counts four real flops per multiply-add pair:
    getrf 8/3 n^3, getri 16/3 n^3, triangular solves 8 n^2 per column.
    """
    n = shape[-1]
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    if nrhs is None:
        per = 8.0 * n ** 3
    else:
        per = 8.0 / 3.0 * n ** 3 + 8.0 * n * n * nrhs
    return batch, batch * per


class Tracer:
    """In-memory spans and counters for one worker process."""

    def __init__(self, op_dim):
        self.op_dim = op_dim
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._pairs = set()

    # -- spans -----------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = _clock()

    def span(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(out, args, kwargs)
            return out
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self):
        """Patch sectorcalc and numpy.linalg; call after ``import sectorcalc``."""
        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                if name.startswith("sectorcalc") and mod is not None}
        after = {
            "funcalc.contour": self._after_contour,
            "funcalc.oracle": self._after_integral,
            "funcalc.symbol": self._after_integral,
            "parametrix.resolvent": self._after_resolvent,
        }
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(mods[mod_name], attr)
            if span == "densela.norm":
                wrapped = self._wrap(span, self._norm_with_iterations(orig))
            else:
                wrapped = self._wrap(span, orig, after.get(span))
            self._rebind(mods.values(), orig, wrapped)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            orig = getattr(cls, meth)
            setattr(cls, meth, self._wrap(span, orig, after.get(span)))
        linalg = np.linalg
        linalg.inv = self._linalg(linalg.inv, solve=False)
        linalg.solve = self._linalg(linalg.solve, solve=True)
        linalg.svd = self._wrap("linalg.svd", linalg.svd)

    def _rebind(self, modules, orig, wrapped):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

    def _norm_with_iterations(self, orig):
        counts = self.counts

        @functools.wraps(orig)
        def operator_norm(A, tol=1e-8, maxiter=5000, return_info=False):
            s, converged, iterations = orig(A, tol, maxiter, return_info=True)
            counts["densela.norm_iters"] += iterations
            return (s, converged, iterations) if return_info else s
        return operator_norm

    def _linalg(self, fn, solve):
        """LU kernels: operator-dimension matrices are counted as LU solves."""
        @functools.wraps(fn)
        def wrapper(a, *rest, **kwargs):
            shape = np.shape(a)
            if shape[-1] != self.op_dim:
                return self.span("linalg.small_lu", fn, a, *rest, **kwargs)
            nrhs = None
            if solve:
                b_shape = np.shape(rest[0] if rest else kwargs["b"])
                nrhs = b_shape[-1] if len(b_shape) > 1 else 1
            batch, flops = _lu_flops(shape, nrhs)
            self.counts["linalg.lu_count"] += batch
            self.counts["linalg.lu_flop"] += flops
            return self.span("linalg.lu", fn, a, *rest, **kwargs)
        return wrapper

    # -- counters read off results -----------------------------------------------

    def _after_contour(self, contour, args, kwargs):
        self.counts["funcalc.contour_nodes"] += len(contour)

    def _after_integral(self, out, args, kwargs):
        op, contour = args[0], args[2]
        matrix = op.quantized_symbol.matrix if hasattr(op, "quantized_symbol") \
            else getattr(op, "matrix", op)
        key = hashlib.blake2b(np.ascontiguousarray(matrix).tobytes(),
                              digest_size=16).digest()
        self.counts["funcalc.integrated_nodes"] += len(contour)
        self._pairs.update((key, lam.tobytes()) for lam in contour.nodes)

    def _after_resolvent(self, result, args, kwargs):
        diag = result.diagnostics
        method = diag["method"]
        if method == "neumann":
            self.counts["parametrix.neumann_nodes"] += 1
        elif method == "dense":
            self.counts["parametrix.dense_nodes"] += 1
        else:
            self.counts["parametrix.rescues"] += 1
        self.counts["parametrix.neumann_terms"] += int(diag["neumann_terms"])

    # -- summary -------------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive and self seconds; plus counters."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        by_name = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            rec = by_name[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child_time[idx]
            if not self._has_ancestor(idx, name):
                rec["inclusive_s"] += t1 - t0
        counts = dict(self.counts)
        counts["funcalc.distinct_pairs"] = len(self._pairs)
        return {"spans": dict(by_name), "counts": counts}

    def _has_ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
