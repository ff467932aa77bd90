"""Parameter-dependent parametrix of a - lambda and the Leibniz resolvent.

The recursion produces b_0 = (a-lambda)^{-1} and

    b_{j+1} = -b_0 sum_{|alpha|+k=j+1, 0<=k<=j} (1/alpha!) d^alpha_xi a . D^alpha_x b_k,

which this module represents exactly as a term algebra: every b_j is a
finite sum of ordered products of b_0 factors and tabulated derivatives of
a.  The recursion differentiates b_k in x only; a term's x-derivative uses
the resolvent derivative rule d_x b_0 = -b_0 (d_x a) b_0, so the b_j
evaluate with no finite-difference noise.

One recursion serves both sides: the left recursion, with the operands
swapped (b^N#(a-lambda) - 1 in place of (a-lambda)#b^N - 1) and
xi-derivatives of b_k, is a test oracle; it builds the same term lists up
to coefficient rounding, and the tests check that the left remainder
decays too.

On top of the recursion sit the sum b^N, the remainder
r^N = (a-lambda)#b^N - 1, the Neumann inversion of 1 + r^N (dense fallback
when the remainder is not small), and the empirical invertibility radius R.
b^N is evaluated from one term list, the b_0 .. b_{N-1} lists concatenated.
Every factor other than b_0 is lambda-independent, so a term list compiles
once.  For a scalar symbol it becomes one table per power of b_0 and
evaluates as a polynomial in b_0.  For a matrix symbol it becomes one
shared-prefix product tree of its factor words, so a product that begins
several terms is formed once; the tree is evaluated on component-major
(k, k, grid) arrays with each k x k product written out entrywise.

The boundary rays are sampled in conjugate pairs.  When the symbol
satisfies a(x, -xi) = conj a(x, xi), as every real operator's does,
b^N(x, xi, conj lambda) = conj b^N(x, -xi, lambda), and the lower-ray b^N
is the mirror of the upper-ray one: no b_0 inverses and no products.  The
calculator decides this symmetry once, at construction, on the tables its
compiled b^N term list reads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .densela import dense_resolvent, norm_bound
from .errors import SectorcalcError
from .grid import GridSymbol, class_weighted_sup, sample
from .quantop import QuantOp, extract_symbol, quantize
from .util import (fit_loglog_slope, japanese_bracket, multi_factorial,
                   multi_indices_of_order)

_B0 = ("b0",)
# Neumann series length cap; the tail bound decides K below it.
_MAX_NEUMANN = 400
# Invertibility radii find_R tries: the powers of two 1 .. 2^20.
_R_CANDIDATES = tuple(2.0 ** p for p in range(21))


# ---------------------------------------------------------------------------
# Term algebra over {b0, derivative-of-a} factors
# ---------------------------------------------------------------------------

def _da(alpha, beta):
    return ("da", tuple(alpha), tuple(beta))


def _bump(idx, axis):
    out = list(idx)
    out[axis] += 1
    return tuple(out)


def _collect(acc):
    return [(c, f) for f, c in sorted(acc.items()) if abs(c) > 1e-300]


def _acc(acc, coeff, factors):
    acc[factors] = acc.get(factors, 0.0 + 0.0j) + coeff


def apply_dx(terms, beta, n):
    """D_x^beta (D_x = -i d_x) of a term list, by the product rule with
    d_x b_0 = -b_0 (d_x a) b_0."""
    zero = (0,) * n
    for axis, order in enumerate(beta):
        for _ in range(order):
            acc = {}
            for coeff, factors in terms:
                for pos, f in enumerate(factors):
                    head, tail = factors[:pos], factors[pos + 1:]
                    if f == _B0:
                        _acc(acc, -coeff,
                             head + (_B0, _da(zero, _bump(zero, axis)), _B0) + tail)
                    else:
                        _acc(acc, coeff, head + (_da(f[1], _bump(f[2], axis)),) + tail)
            terms = _collect(acc)
    return [(c * (-1j) ** sum(beta), f) for c, f in terms]


def bj_term_lists(n, N):
    """Term lists for b_0 .. b_{N-1}."""
    zero = (0,) * n
    lists = [[(1.0 + 0.0j, (_B0,))]]
    for j in range(N - 1):
        acc = {}
        for total in range(1, j + 2):
            k = j + 1 - total
            for alpha in multi_indices_of_order(n, total):
                dxb = apply_dx(lists[k], alpha, n)
                scale = -1.0 / multi_factorial(alpha)
                for coeff, factors in dxb:
                    _acc(acc, scale * coeff, (_B0, _da(alpha, zero)) + factors)
        lists.append(_collect(acc))
    return lists


# ---------------------------------------------------------------------------
# Matrix term lists: component-major product tree
# ---------------------------------------------------------------------------

def _component_major(values):
    """(..., k, k) node-shaped values viewed as (k, k, ...)."""
    return np.moveaxis(values, (-2, -1), (0, 1))


def _cm_matmul(a, b):
    """Pointwise k x k product of component-major stacks, written out as k^3
    vector multiply-adds (far cheaper than a stacked @ of tiny matrices)."""
    k = a.shape[0]
    out = np.empty(a.shape[:2] + np.broadcast_shapes(a.shape[2:], b.shape[2:]),
                   dtype=complex)
    tmp = np.empty(out.shape[2:], dtype=complex)
    for i in range(k):
        for j in range(k):
            cell = out[i, j]
            np.multiply(a[i, 0], b[0, j], out=cell)
            for m in range(1, k):
                np.multiply(a[i, m], b[m, j], out=tmp)
                cell += tmp
    return out


def _tree_sum(children, b0):
    """sum_child F_child T(child) over a product-tree level, T as in
    ``ParametrixCalculator._product_tree``; b0 is component-major."""
    acc = None
    for table, coeff, grand in children:
        factor = b0 if table is None else table
        term = _cm_matmul(factor, _tree_sum(grand, b0)) if grand else None
        if coeff != 0:
            term = coeff * factor if term is None else term + coeff * factor
        if acc is None:
            acc = term
        else:
            acc += term  # every term is a fresh array
    return acc


# ---------------------------------------------------------------------------
# Calculator: all lambda-dependent objects for one symbol on one grid
# ---------------------------------------------------------------------------

@dataclass
class LeibnizResolvent:
    """Result of inverting a - lambda with respect to the Leibniz product.

    ``b_n`` is the parametrix b^N and ``r_n`` its remainder r^N,
    built at every lambda; ``diagnostics["method"]`` says which of
    "neumann", "dense" or "neumann->dense" produced ``symbol``.
    """

    symbol: GridSymbol
    s_n: GridSymbol
    diagnostics: dict
    b_n: GridSymbol
    r_n: GridSymbol


class ParametrixCalculator:
    """Caches the lambda-independent data of the parametrix construction.

    Derivative tabulations of a, the term lists of the recursion (and their
    concatenation ``bN_terms``, the one term list of b^N), the compiled
    term lists (scalar polynomial tables or matrix product trees) and the
    quantized symbol are computed once; everything per-lambda (b_j, b^N,
    r^N, the resolvent) is then cheap and independent across lambda.

    ``conj_symmetric`` says whether b^N(conj lambda) = conj b^N(x, -xi, lambda):
    whether a and every derivative table T of xi-order alpha that b^N reads
    satisfy T(x, -xi) = (-1)^|alpha| conj T(x, xi), bitwise.
    """

    def __init__(self, expr, grid, class_params, sector, N):
        if N < 1:
            raise ValueError("parametrix order N must be >= 1")
        class_params.validate()
        self.expr = expr
        self.grid = grid
        self.class_params = class_params
        self.sector = sector
        self.N = N
        self.a_tab = sample(expr, grid)
        self.quantized_symbol = quantize(self.a_tab)
        self.k = self.a_tab.k
        self.sup_a = self.a_tab.sup_norm()
        if self.k == 1:
            self.min_a = float(np.min(np.abs(self.a_tab.values[..., 0, 0])))
        else:
            self.min_a = float(np.min(
                np.linalg.svd(self.a_tab.values, compute_uv=False)[..., -1]))
        self.term_lists = bj_term_lists(grid.n, N)
        self.bN_terms = sum(self.term_lists, [])
        # Sweep sups exclude the edge band where mode-truncation leak of the
        # exact composition sits (lambda-flat, confined to O(1) modes);
        # clamped so tiny windows keep at least the central mode.
        self.default_interior_margin = min(max(4, grid.xi_max // 6),
                                           max(0, grid.xi_max - 1))
        self._deriv_cache = {}
        self._compiled = {}
        # (lambda, b^N values) of the last b^N evaluated, for its conjugate
        self._bN_memo = None
        # compiling b^N tabulates every derivative of a that it reads
        (self._scalar_polynomial if self.k == 1 else self._product_tree)(self.bN_terms)
        a = self.a_tab.values
        self.conj_symmetric = np.array_equal(self._conj_mirror(a), a) and all(
            np.array_equal(self._conj_mirror(self.derivative_tab(alpha, beta)),
                           (-1) ** sum(alpha) * self.derivative_tab(alpha, beta))
            for alpha, beta in self._deriv_cache)

    # -- caches ---------------------------------------------------------------

    def _derivative_cm(self, alpha, beta):
        """d^alpha_xi d^beta_x a tabulated component-major, shape (k, k) + grid."""
        key = (tuple(alpha), tuple(beta))
        if key not in self._deriv_cache:
            vals = sample(self.expr.diff(alpha, beta), self.grid).values
            self._deriv_cache[key] = np.ascontiguousarray(_component_major(vals))
        return self._deriv_cache[key]

    def derivative_tab(self, alpha, beta):
        """The same table as a node-shaped (..., k, k) view."""
        return np.moveaxis(self._derivative_cm(alpha, beta), (0, 1), (-2, -1))

    def shifted_matrix(self, lam):
        m = self.quantized_symbol.matrix
        return m - lam * np.eye(m.shape[0], dtype=complex)

    # -- lambda admissibility ---------------------------------------------------

    def require_admissible(self, lam):
        """Raise unless lambda lies outside every exclusion region
        Omega_{x,xi}: in the sector, or |lambda| >= 2 sup|a|."""
        if not (self.sector.contains(lam) or abs(lam) >= 2.0 * self.sup_a):
            raise SectorcalcError(
                f"lambda={lam!r} lies inside an exclusion region Omega_(x,xi) "
                f"(|lambda| < 2 sup|a| = {2 * self.sup_a!r} and outside the sector)")

    # -- evaluation -------------------------------------------------------------

    def b0_values(self, lam):
        """Pointwise (a - lambda)^{-1}; lam may broadcast over node axes."""
        lam = np.asarray(lam, dtype=complex)
        if self.k == 1:
            return 1.0 / (self.a_tab.values - lam[..., None, None])
        shifted = self.a_tab.values - \
            lam[..., None, None] * np.eye(self.k, dtype=complex)
        return np.linalg.inv(shifted)

    def _scalar_polynomial(self, terms):
        """k=1: lambda-independent tables S_0..S_p, one per power of b_0,
        with sum(terms) = sum_p S_p b_0^p (evaluated by Horner in b_0)."""
        key = tuple(terms)
        if key not in self._compiled:
            tables = {}
            for coeff, factors in terms:
                for f in factors:
                    if f != _B0:
                        coeff = coeff * self.derivative_tab(f[1], f[2])[..., 0, 0]
                power = factors.count(_B0)
                tables[power] = tables.get(power, 0) + coeff
            zero = np.zeros(self.a_tab.values.shape[:-2], dtype=complex)
            self._compiled[key] = [zero + tables.get(p, 0)
                                   for p in range(max(tables, default=0) + 1)]
        return self._compiled[key]

    def _product_tree(self, terms):
        """k>1: the term list as a prefix tree of its factor words.

        A node is a list of children (table, c, grandchildren): ``table`` is
        the component-major factor on the edge (None for b_0) and ``c`` the
        summed coefficient of the words ending at the child.  With
        T(node) = c_node 1 + sum_child F_child T(child), the term list is
        T(root), and a factor prefix shared by several words is multiplied
        once.
        """
        key = tuple(terms)
        if key not in self._compiled:
            root = [0.0, {}]
            for coeff, factors in terms:
                node = root
                for f in factors:
                    node = node[1].setdefault(f, [0.0, {}])
                node[0] += coeff

            def freeze(children):
                return [(None if f == _B0 else self._derivative_cm(f[1], f[2]),
                         c, freeze(grand)) for f, (c, grand) in children.items()]
            self._compiled[key] = freeze(root[1])
        return self._compiled[key]

    def eval_terms(self, terms, lam):
        """Evaluate a term list at lambda; returns node-shaped (..., k, k).

        ``lam`` may be a scalar or broadcast over node axes (one lambda per
        grid node).  Scalars evaluate the compiled polynomial in b_0 by
        Horner; matrices evaluate the compiled product tree on component-major
        arrays, with b_0 viewed as (k, k, ...).
        """
        b0 = self.b0_values(lam)
        if self.k == 1:
            s = b0[..., 0, 0]
            tables = self._scalar_polynomial(terms)
            acc = tables[-1]
            for table in reversed(tables[:-1]):
                acc = acc * s + table
            return acc[..., None, None]
        acc = _tree_sum(self._product_tree(terms), _component_major(b0))
        return np.ascontiguousarray(np.moveaxis(acc, (0, 1), (-2, -1)))

    def bj(self, lam):
        """GridSymbols b_0 .. b_{N-1} at lambda (checked admissible)."""
        self.require_admissible(lam)
        return [GridSymbol(self.grid, self.eval_terms(terms, complex(lam)), check=False)
                for terms in self.term_lists]

    def _conj_mirror(self, values):
        """conj v(x, -xi) of a node-shaped (..., k, k) table."""
        n = self.grid.n
        return np.flip(values, axis=tuple(range(n, 2 * n))).conj()

    def assemble_bN(self, lam):
        """b^N(lambda) = sum_{j<N} b_j(lambda), one term list.

        A one-slot memo holds the last lambda evaluated.  At its conjugate,
        on a ``conj_symmetric`` symbol, b^N is the memo's mirror and the
        slot is cleared; otherwise the term list is evaluated.
        """
        self.require_admissible(lam)
        lam = complex(lam)
        memo, self._bN_memo = self._bN_memo, None
        if memo is not None and memo[0] == lam.conjugate() and self.conj_symmetric:
            vals = self._conj_mirror(memo[1])
        else:
            vals = self.eval_terms(self.bN_terms, lam)
            self._bN_memo = (lam, vals)
        return GridSymbol(self.grid, vals, check=False)

    def remainder_matrix(self, lam, q_bN=None, m_shift=None):
        """quantize(r^N) = (A - lambda) quantize(b^N) - 1, with no symbol
        extraction.  A caller that already holds quantize(b^N).matrix
        (``q_bN``) or A - lambda (``m_shift``) passes it in."""
        if q_bN is None:
            q_bN = quantize(self.assemble_bN(lam)).matrix
        if m_shift is None:
            m_shift = self.shifted_matrix(lam)
        prod = m_shift @ q_bN
        return prod - np.eye(prod.shape[0], dtype=complex)

    def remainder(self, lam, q_bN=None, m_shift=None):
        """r^N = (a-lambda)#b^N - 1.

        Returns (GridSymbol, remainder matrix); the matrix is exactly the
        quantization of the remainder symbol.
        """
        r_mat = self.remainder_matrix(lam, q_bN=q_bN, m_shift=m_shift)
        return extract_symbol(QuantOp(self.grid, self.k, r_mat)), r_mat

    # -- resolvent ---------------------------------------------------------------

    def leibniz_resolvent(self, lam, tol=1e-11):
        """(a - lambda)^{-#} with Neumann inversion of 1 + r^N when possible.

        ||r|| is the certified upper bound of ||quantize(r^N)||_2 of
        :func:`densela.norm_bound` (exact at and above 1/2), so the Neumann
        series runs iff ||quantize(r^N)||_2 < 1/2, and truncating it once
        the geometric tail bound ||r||^(K+1)/(1 - ||r||) drops below ``tol``
        is certified too.  The dense Leibniz inverse takes over when
        ||quantize(r^N)||_2 >= 1/2 or the Neumann residual symbol stays
        above ``tol``.  b^N comes from :meth:`assemble_bN`, which checks
        that lambda is admissible, so at a conjugate pair of lambda on a
        symmetric symbol the second b^N is the mirror of the first.
        """
        bN = self.assemble_bN(lam)
        q_bN = quantize(bN).matrix
        m_shift = self.shifted_matrix(lam)
        r_sym, r_mat = self.remainder(lam, q_bN=q_bN, m_shift=m_shift)
        r_norm = norm_bound(r_mat, 0.5)
        diag = {"lambda": complex(lam), "method": None, "r_norm": r_norm,
                "neumann_terms": 0, "residual": None}
        eye = np.eye(m_shift.shape[0], dtype=complex)

        def residual(res_mat):
            return extract_symbol(
                QuantOp(self.grid, self.k, m_shift @ res_mat - eye)).sup_norm()

        if r_norm < 0.5:
            K = int(np.ceil(np.log(tol * (1.0 - r_norm)) / np.log(r_norm))) \
                if r_norm > 0 else 0
            K = max(0, min(K, _MAX_NEUMANN))
            series = eye.copy()
            for _ in range(K):
                series = eye - r_mat @ series
            res_mat = q_bN @ series
            diag.update(method="neumann", neumann_terms=K + 1,
                        residual=residual(res_mat))
        if diag["method"] is None or diag["residual"] > tol:
            # r^N too large, or the tail bound was optimistic (non-normal r^N)
            res_mat = dense_resolvent(self.quantized_symbol, lam)
            diag["method"] = "dense" if diag["method"] is None else "neumann->dense"
            diag["residual"] = residual(res_mat)
        symbol = extract_symbol(QuantOp(self.grid, self.k, res_mat))
        return LeibnizResolvent(symbol=symbol, s_n=symbol - bN,
                                diagnostics=diag, b_n=bN, r_n=r_sym)

    # -- invertibility radius ------------------------------------------------------

    def find_R(self):
        """Smallest R in ``_R_CANDIDATES`` with ||quantize(r^N)|| <= 1/2 on
        all sampled boundary points with |lambda| >= R.

        Each point is decided by :func:`densela.norm_bound`: the Frobenius
        norm or the Hoelder bound (||M||_1 ||M||_inf)^(1/2) where either is
        below 1/2, the exact spectral norm (one SVD) elsewhere, so every
        passed point is certified.  The points come in conjugate pairs, and
        on a symmetric symbol the lower point's b^N is the mirror of the
        upper one's (:meth:`assemble_bN`).
        """
        radii = _R_CANDIDATES
        passed = [norm_bound(self.remainder_matrix(lam), 0.5) <= 0.5
                  for lam in self.sector.ray_points(radii)]
        for candidate in radii:
            if all(ok for rad, ok in zip(np.repeat(radii, 2), passed)
                   if rad >= candidate):
                return candidate
        raise SectorcalcError(
            f"no invertibility radius R <= {radii[-1]:g}: remainder does not decay "
            "on this grid (symbol outside the tractable class?)")


def shift(expr, c):
    """The shifted symbol a + c (c > 0 real); class parameters unchanged."""
    c = float(c)
    if c <= 0:
        raise ValueError("shift constant must be a positive real")
    return expr.shifted(c)


# ---------------------------------------------------------------------------
# lambda-sweep families
# ---------------------------------------------------------------------------

@dataclass
class ParamSymbolFamily:
    """Per-lambda records of a parametrix sweep plus fitted decay slopes."""

    rows: list
    slopes: dict = field(default_factory=dict)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["lambda_re", "lambda_im", "bracket_lambda",
                             "sup_bN", "sup_rN", "sup_sN",
                             "class_sup_rN", "class_sup_sN", "residual", "method"])
            for row in self.rows:
                lam = row["lambda"]
                writer.writerow([
                    repr(lam.real), repr(lam.imag), repr(row["bracket"]),
                    repr(row["sup_bN"]), repr(row["sup_rN"]), repr(row["sup_sN"]),
                    repr(row["class_sup_rN"]), repr(row["class_sup_sN"]),
                    repr(row["residual"]), row["method"]])
            for name in sorted(self.slopes):
                writer.writerow(["slope", name, repr(self.slopes[name]),
                                 "", "", "", "", "", "", ""])


def parametrix_sweep(calc, radii, tol=1e-11):
    """Sweep lambda over both boundary rays: sup norms of b^N, r^N, s^N.

    Every row is the Leibniz resolvent at lambda, with its own b^N, r^N and
    s^N = (a - lambda)^{-#} - b^N.  Record per lambda both the plain sup and
    the class seminorm (|.| <xi>^(N(rho-delta)-m), the q_{0,0} of the
    remainder class, which is what decays like <lambda>^{-1} for r^N and
    <lambda>^{-2} for s^N).  Sups are taken over the interior window - the
    calculator's default margin absorbs the mode-truncation leak confined to
    the window edge.  The radii are meant to start at the invertibility
    radius R of :meth:`ParametrixCalculator.find_R`; below it the resolvent
    falls back to the dense inverse wherever ||quantize(r^N)|| >= 1/2, and
    the row's method says so.

    Fitted log-log slopes against <lambda>: ``rN`` near -1, ``sN`` near -2,
    ``bN_weighted`` (of <lambda> sup|b^N|) near 0.  The decay laws are
    asymptotic; below the spectral-gap scale the remainder is flat, so the
    fits exclude rows with <lambda> under twice the smallest pointwise
    symbol modulus (dropped if fewer than three radii would survive).
    """
    margin = calc.default_interior_margin
    params = calc.class_params
    rem_weight = calc.N * (params.rho - params.delta) - params.m
    rows = []
    for lam in calc.sector.ray_points(np.asarray(radii, dtype=float)):
        lam = complex(lam)
        if not calc.sector.contains(lam):
            raise SectorcalcError(f"sweep lambda {lam!r} escaped the sector")
        lr = calc.leibniz_resolvent(lam, tol=tol)
        rows.append({
            "lambda": lam,
            "bracket": float(japanese_bracket(lam)),
            "sup_bN": class_weighted_sup(lr.b_n, 0.0, margin),
            "sup_rN": class_weighted_sup(lr.r_n, 0.0, margin),
            "class_sup_rN": class_weighted_sup(lr.r_n, rem_weight, margin),
            "sup_sN": class_weighted_sup(lr.s_n, 0.0, margin),
            "class_sup_sN": class_weighted_sup(lr.s_n, rem_weight, margin),
            "residual": lr.diagnostics["residual"],
            "method": lr.diagnostics["method"],
        })
    fit_rows = [row for row in rows if row["bracket"] >= 2.0 * calc.min_a]
    if len({row["bracket"] for row in fit_rows}) < 3:
        fit_rows = rows
    brackets = [row["bracket"] for row in fit_rows]
    slopes = {}
    slopes["rN"], _ = fit_loglog_slope(brackets,
                                       [row["class_sup_rN"] for row in fit_rows])
    slopes["bN_weighted"], _ = fit_loglog_slope(
        brackets, [row["bracket"] * row["sup_bN"] for row in fit_rows])
    s_pairs = [(row["bracket"], row["class_sup_sN"]) for row in fit_rows
               if row["class_sup_sN"] > 0]
    if len(s_pairs) >= 2:
        slopes["sN"], _ = fit_loglog_slope([p[0] for p in s_pairs],
                                           [p[1] for p in s_pairs])
    return ParamSymbolFamily(rows=rows, slopes=slopes)
