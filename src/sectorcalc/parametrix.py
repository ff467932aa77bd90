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
``remainder`` alone forms r^N: a pure record of b^N, Q = quantize(b^N),
A - lambda, (A - lambda) Q - 1 and its norm bound.  b^N is one term
list, the b_0 .. b_{N-1} lists concatenated, compiled once (every factor
but b_0 is lambda-independent; a table zero at every node drops out with its
terms): for a scalar symbol into one table per power of b_0, for a matrix
symbol into a shared-prefix product tree on component-major (k, k, grid) arrays.

The boundary rays are sampled in conjugate pairs.  When the symbol
satisfies a(x, -xi) = conj a(x, xi), as every real operator's does,
b^N(x, xi, conj lambda) = conj b^N(x, -xi, lambda); with P the mode
permutation xi -> -xi, conj(A) = P A P and
(A - conj lambda)^{-1} = P conj((A - lambda)^{-1}) P.  The sweep hands each
upper-ray resolvent to its lower-ray partner.  The partner of a Neumann
resolvent mirrors its b^N, remainder and resolvent (no b_0 inverses, no
quantization, no products) and measures its residual against A; every other
row is computed.  The calculator decides the symmetry once, at
construction: bitwise on the tables its compiled b^N term list reads, and
on the quantized symbol by :func:`quantop.mirror_holds`, the decision the
Dunford engine reads too.  The mirrors are the layouts' own,
:func:`grid.conj_mirror` and :func:`quantop.mode_mirror`.

``find_R`` walks the radii down and stops at the first failing point; on a
symmetric symbol a lower point passes by its upper partner's bound plus a
bound of the mirror's error where that decides it.  It keeps no point.  The
Neumann series is summed by binary splitting, in O(log K) products.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .densela import dense_resolvent, norm_bound
from .errors import SectorcalcError
from .grid import GridSymbol, class_weighted_sups, conj_mirror, pointwise_inverse, sample
from .quantop import (QuantOp, extract_symbol, fft_rounding, mirror_holds, mode_mirror,
                      quantize)
from .util import (fit_loglog_slope, japanese_bracket, multi_factorial,
                   multi_indices_of_order)

_B0 = ("b0",)
# Neumann series length cap; the tail bound decides K below it.
_MAX_NEUMANN = 400
# Invertibility radii find_R tries: the powers of two 1 .. 2^20.
_R_CANDIDATES = tuple(2.0 ** p for p in range(21))
_EPS = np.finfo(float).eps


def _remainder_rounding(dim, s_norm, q_norm):
    """(dim + 8) eps s_norm q_norm + eps sqrt(dim) / 2 >= the Frobenius
    rounding error of fl(fl(S Q) - 1), S = fl(A - lambda), given the norms.

    (dim + 8) eps covers the product's sqrt(2) gamma_(dim+2) (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.5-3.6), the shift's
    and the subtraction's u = eps / 2; eps sqrt(dim) / 2 is u |1|.
    """
    return float((dim + 8) * _EPS * s_norm * q_norm + 0.5 * _EPS * np.sqrt(dim))


def neumann_sum(r_mat, K):
    """sum_{j<=K} (-r)^j by binary splitting of the length L = K + 1.

    With Y = -r, S_m = sum_{j<m} Y^j and P = Y^m, each bit of L after the
    leading one doubles, S_2m = S_m + P S_m, or for a 1 doubles and
    increments, S_2m+1 = S_m + P (S_m + P); then P becomes P^2, or
    Y^(2m+1) = 1 - S - r S (one product, not two).  At most
    2 floor(log2 L) products (:func:`neumann_products`) against Horner's K.
    """
    dim = r_mat.shape[0]
    S, P = np.eye(dim, dtype=complex), -r_mat
    bits = bin(K + 1)[3:]
    for i, bit in enumerate(bits):
        if bit == "1":
            S += P @ (S + P)
        else:
            S += P @ S if i else P  # S_1 = 1
        if i == len(bits) - 1:
            break
        if bit == "0":
            P = P @ P
        else:
            P = r_mat @ S  # Y^(2m+1) = 1 - S - r S
            P += S
            np.negative(P, out=P)
            P.flat[::dim + 1] += 1
    return S


def neumann_products(K):
    """The products :func:`neumann_sum` forms for K + 1 terms."""
    bits = bin(K + 1)[3:]
    if not bits:
        return 0
    return 2 * len(bits) - 1 - (bits[0] == "0")


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


def _cm_matmul(a, b, rows):
    """Pointwise k x k product of component-major stacks, written out as
    vector multiply-adds (far cheaper than a stacked @ of tiny matrices).

    ``rows[i]`` lists the m with a[i, m] not identically zero; the other
    multiply-adds are skipped (all k^3 when ``rows`` is None).  A skipped term
    is a signed zero, so every entry is the full loop's up to the sign of a
    zero.
    """
    k = a.shape[0]
    out = np.empty(a.shape[:2] + np.broadcast_shapes(a.shape[2:], b.shape[2:]),
                   dtype=complex)
    tmp = np.empty(out.shape[2:], dtype=complex)
    for i in range(k):
        ms = range(k) if rows is None else rows[i]
        if not ms:
            out[i] = 0.0
            continue
        for j in range(k):
            cell = out[i, j]
            np.multiply(a[i, ms[0]], b[ms[0], j], out=cell)
            for m in ms[1:]:
                np.multiply(a[i, m], b[m, j], out=tmp)
                cell += tmp
    return out


def _tree_sum(children, b0, b0_rows):
    """sum_child F_child T(child) over a product-tree level, T as in
    ``ParametrixCalculator._product_tree``; b0 is component-major, with
    zero pattern ``b0_rows`` for :func:`_cm_matmul`."""
    acc = None
    for table, rows, coeff, grand in children:
        factor, rows = (b0, b0_rows) if table is None else (table, rows)
        term = _cm_matmul(factor, _tree_sum(grand, b0, b0_rows), rows) if grand else None
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

    ``matrix`` is the quantized resolvent and ``symbol`` its symbol;
    ``b_n`` is the parametrix b^N and ``r_n`` its remainder r^N,
    built at every lambda; ``diagnostics["method"]`` says which of
    "neumann", "dense" or "neumann->dense" produced ``symbol``, and
    ``diagnostics["mirrored"]`` whether the Neumann part is the mirror of
    the conjugate lambda's.
    """

    symbol: GridSymbol
    s_n: GridSymbol
    diagnostics: dict
    b_n: GridSymbol
    r_n: GridSymbol
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class Remainder:
    """r^N at one lambda: b^N, Q = quantize(b^N), ``shift`` = A - lambda,
    (A - lambda) Q - 1 and its norm_bound against 1/2."""

    b_n: GridSymbol
    q_bN: np.ndarray
    shift: np.ndarray
    matrix: np.ndarray
    norm: float


class ParametrixCalculator:
    """Caches the lambda-independent data of the parametrix construction.

    The term lists of the recursion (and their concatenation ``bN_terms``,
    the one term list of b^N), its compiled form ``compiled_bN`` and the
    quantized symbol are computed once; everything per-lambda (b_j, b^N, r^N,
    the resolvent) is then cheap and independent across lambda.  The compile
    owns the nonzero derivative tables of a it reads: a scalar symbol keeps
    only its S_p, a matrix symbol the tables on its product tree.

    ``conj_symmetric`` says whether b^N(conj lambda) = conj b^N(x, -xi, lambda)
    and (A - conj lambda)^{-1} = P conj((A - lambda)^{-1}) P: whether a and
    every derivative table T of xi-order alpha that b^N reads satisfy
    T(x, -xi) = (-1)^|alpha| conj T(x, xi), bitwise (checked where b^N's
    compile samples T), and the quantized symbol A passes
    :func:`quantop.mirror_holds`, max|A - P conj(A) P| <= 64 eps max|A|.
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
        self.compiled_bN, tables_mirror = self._compile(self.bN_terms)
        a = self.a_tab.values
        A = self.quantized_symbol.matrix
        self.mirror_asymmetry = float(np.linalg.norm(A - mode_mirror(A, self.k)))
        self.find_R_points = None  # set by find_R
        self.conj_symmetric = mirror_holds(self.quantized_symbol) \
            and np.array_equal(conj_mirror(a), a) and tables_mirror

    # -- derivative tables and compiled term lists ------------------------------

    def derivative_tab(self, alpha, beta):
        """d^alpha_xi d^beta_x a, sampled anew, node-shaped (..., k, k)."""
        return sample(self.expr.diff(alpha, beta), self.grid).values

    def shifted_matrix(self, lam):
        m = self.quantized_symbol.matrix
        return m - lam * np.eye(m.shape[0], dtype=complex)

    def _compile(self, terms):
        """(``terms`` compiled for :meth:`evaluate`, whether every table T
        passed): ``table(f)`` samples T, checks T(x, -xi) = (-1)^|alpha| conj
        T(x, xi) and returns T component-major, or None if T is zero."""
        parity = []

        def table(f):
            tab = self.derivative_tab(f[1], f[2])
            parity.append(np.array_equal(conj_mirror(tab), (-1) ** sum(f[1]) * tab))
            return np.ascontiguousarray(_component_major(tab)) if np.any(tab) else None

        compile_list = self._scalar_polynomial if self.k == 1 else self._product_tree
        return compile_list(terms, table), all(parity)

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
        """Pointwise (a - lambda)^{-1}, node-shaped (..., k, k); lam may
        broadcast over node axes.  For k > 1 it is a view of
        :func:`grid.pointwise_inverse` of the component-major table."""
        lam = np.asarray(lam, dtype=complex)
        if self.k == 1:
            return 1.0 / (self.a_tab.values - lam[..., None, None])
        inv = pointwise_inverse(_component_major(self.a_tab.values), lam)
        return np.moveaxis(inv, (0, 1), (-2, -1))

    def _scalar_polynomial(self, terms, table):
        """k=1: S_0..S_p with sum(terms) = sum_p S_p b_0^p over the terms with no
        zero table (Horner in b_0; None where none reaches b_0^p).  A table is
        sampled at its first use and dropped after its last, a zero one at once."""
        last = {f: i for i, (_, factors) in enumerate(terms) for f in factors}
        live, tables = {}, {}
        for i, (coeff, factors) in enumerate(terms):
            for f in factors:
                if f != _B0 and f not in live:
                    live[f] = table(f)
            if all(f == _B0 or live[f] is not None for f in factors):
                for f in factors:
                    if f != _B0:
                        coeff = coeff * live[f][0, 0]
                power = factors.count(_B0)
                tables[power] = tables.get(power, 0) + coeff
            for f in factors:
                if last[f] == i:
                    live.pop(f, None)
        return [tables.get(p) for p in range(max(tables, default=-1) + 1)]

    def _product_tree(self, terms, table):
        """k>1: the term list as a prefix tree of its factor words.

        A node is a list of children (table, rows, c, grandchildren):
        ``table`` is the component-major factor on the edge (None for b_0),
        ``rows`` its zero pattern for :func:`_cm_matmul` (``rows[i]`` the
        columns m with table[i, m] nonzero at some node; None for b_0, whose
        pattern :meth:`evaluate` reads off its values at each lambda) and
        ``c`` the summed coefficient of the words ending at the child.  With
        T(node) = c_node 1 + sum_child F_child T(child), the term list is
        T(root), and a factor prefix shared by several words is multiplied
        once.  Each distinct table is sampled once; a zero table's edge goes
        with its subtree, and so does a child left with no subtree and c = 0.
        """
        root = [0.0, {}]
        for coeff, factors in terms:
            node = root
            for f in factors:
                node = node[1].setdefault(f, [0.0, {}])
            node[0] += coeff
        edges = {_B0: (None, None)}

        def freeze(children):
            out = []
            for f, (c, grand) in children.items():
                if f not in edges:
                    tab = table(f)
                    edges[f] = tab if tab is None else (tab, [
                        [m for m in range(self.k) if np.any(tab[i, m])] for i in range(self.k)])
                grand = freeze(grand)
                if edges[f] is not None and (grand or c != 0):
                    out.append(edges[f] + (c, grand))
            return out
        return freeze(root[1])

    def evaluate(self, compiled, lam):
        """Evaluate a term list compiled by :meth:`_compile` at lambda;
        returns node-shaped (..., k, k), exact zeros when nothing is left.

        ``lam`` may be a scalar or broadcast over node axes (one lambda per
        grid node).  Scalars evaluate the polynomial in b_0 by Horner,
        matrices the product tree with b_0 viewed as (k, k, ...).  The b_0
        factors skip the entries that vanish at every node, as a triangular
        a's exact zeros do when no row is exchanged.
        """
        b0 = self.b0_values(lam)
        if not compiled:
            return np.zeros(b0.shape, dtype=complex)
        if self.k == 1:
            s = b0[..., 0, 0]
            acc = compiled[-1]
            for table in reversed(compiled[:-1]):
                acc = acc * s if table is None else acc * s + table
            return acc[..., None, None]
        b0 = _component_major(b0)
        b0_rows = [[m for m in range(self.k) if np.any(b0[i, m])] for i in range(self.k)]
        acc = _tree_sum(compiled, b0, b0_rows)
        return np.ascontiguousarray(np.moveaxis(acc, (0, 1), (-2, -1)))

    def bj(self, lam):
        """GridSymbols b_0 .. b_{N-1} at lambda (checked admissible), compiled anew."""
        self.require_admissible(lam)
        return [GridSymbol(self.grid, self.evaluate(self._compile(terms)[0], complex(lam)),
                           check=False) for terms in self.term_lists]

    def assemble_bN(self, lam):
        """b^N(lambda) = sum_{j<N} b_j(lambda), ``compiled_bN`` evaluated at
        lambda (checked admissible)."""
        self.require_admissible(lam)
        return GridSymbol(self.grid, self.evaluate(self.compiled_bN, complex(lam)),
                          check=False)

    def remainder(self, lam):
        """r^N = (a - lambda)#b^N - 1 at lambda as a :class:`Remainder`, with no
        symbol extraction; b^N comes from :meth:`assemble_bN`, which checks
        lambda.  A remainder matrix that is not finite (a symbol too large for
        double precision) is a SectorcalcError."""
        lam = complex(lam)
        # A - lambda formed after b^N's temporaries gave matrix3 1.6x the page faults
        m_shift = self.shifted_matrix(lam)
        b_n = self.assemble_bN(lam)
        q_bN = quantize(b_n).matrix
        matrix = m_shift @ q_bN
        matrix.flat[::len(matrix) + 1] -= 1
        if not np.all(np.isfinite(matrix)):
            raise SectorcalcError(f"remainder at lambda={lam!r} is not finite")
        return Remainder(b_n, q_bN, m_shift, matrix, norm_bound(matrix, 0.5))

    # -- resolvent ---------------------------------------------------------------

    def leibniz_resolvent(self, lam, tol=1e-11, upper=None):
        """(a - lambda)^{-#} with Neumann inversion of 1 + r^N when possible.

        ||r|| is the certified upper bound of ||quantize(r^N)||_2 of
        :func:`densela.norm_bound` (exact at and above 1/2), so the Neumann
        series runs iff ||quantize(r^N)||_2 < 1/2, and truncating it once
        the geometric tail bound ||r||^(K+1)/(1 - ||r||) drops below ``tol``
        is certified too.  The dense Leibniz inverse takes over when
        ||quantize(r^N)||_2 >= 1/2 or the Neumann residual symbol stays
        above ``tol``.  :func:`neumann_sum` sums the K + 1 terms
        (``neumann_terms``); ``r_rounding`` is :func:`_remainder_rounding`.

        ``upper`` is this calculator's result at conj lambda with the same
        ``tol`` (a ValueError if its lambda is another).  On a
        ``conj_symmetric`` symbol whose ``upper`` method is "neumann", b^N,
        r^N and the symbol are :func:`grid.conj_mirror`s of its tables, the
        resolvent matrix is its :func:`quantop.mode_mirror`, and ``r_norm``,
        ``neumann_terms`` and ``r_rounding`` are copied; the mirrored row
        still measures its own residual against A - lambda and falls back to
        the dense inverse above ``tol``.  Every other row starts from its own
        :meth:`remainder`, whose A - lambda its residuals reuse.
        """
        lam = complex(lam)
        if upper is not None and upper.diagnostics["lambda"] != lam.conjugate():
            raise ValueError(f"upper is at lambda = {upper.diagnostics['lambda']!r}, "
                             f"not at conj lambda = {lam.conjugate()!r}")
        mirrored = self.conj_symmetric and upper is not None \
            and upper.diagnostics["method"] == "neumann"

        def residual(res_mat):
            # a mirrored row forms A - lambda only for this product
            prod = (self.shifted_matrix(lam) if mirrored else point.shift) @ res_mat
            prod.flat[::len(prod) + 1] -= 1
            return extract_symbol(QuantOp(self.grid, self.k, prod)).sup_norm()

        if mirrored:
            self.require_admissible(lam)
            bN, r_sym, symbol = (GridSymbol(self.grid, conj_mirror(t.values), check=False)
                                 for t in (upper.b_n, upper.r_n, upper.symbol))
            res_mat = mode_mirror(upper.matrix, self.k)
            diag = {**upper.diagnostics, "lambda": lam, "mirrored": True,
                    "residual": residual(res_mat)}
        else:
            point = self.remainder(lam)
            bN, r_norm = point.b_n, point.norm
            r_sym = extract_symbol(QuantOp(self.grid, self.k, point.matrix))
            diag = {"lambda": lam, "method": None, "r_norm": r_norm,
                    "neumann_terms": 0, "residual": None, "mirrored": False,
                    "r_rounding": _remainder_rounding(
                        len(point.shift), *map(np.linalg.norm, (point.shift, point.q_bN)))}
            if r_norm < 0.5:
                K = int(np.ceil(np.log(tol * (1.0 - r_norm)) / np.log(r_norm))) \
                    if r_norm > 0 else 0
                K = max(0, min(K, _MAX_NEUMANN))
                res_mat = point.q_bN @ neumann_sum(point.matrix, K)
                diag.update(method="neumann", neumann_terms=K + 1,
                            residual=residual(res_mat))
        if diag["method"] is None or diag["residual"] > tol:
            # r^N too large, or the tail bound was optimistic (non-normal r^N)
            res_mat = dense_resolvent(self.quantized_symbol, lam)
            diag["method"] = "dense" if diag["method"] is None else "neumann->dense"
            diag["residual"] = residual(res_mat)
        if not mirrored or diag["method"] != "neumann":
            symbol = extract_symbol(QuantOp(self.grid, self.k, res_mat))
        return LeibnizResolvent(symbol=symbol, s_n=symbol - bN, diagnostics=diag,
                                b_n=bN, r_n=r_sym, matrix=res_mat)

    # -- invertibility radius ------------------------------------------------------

    def mirror_error_bound(self, point):
        """Bound of ||r_lo - P conj(r_up) P||_2 at the upper :class:`Remainder`
        ``point`` with quantize(b^N) = Q, for r_lo = (A - conj lambda) Q_lo - 1
        as :meth:`remainder` forms it.  The lower b^N is the bitwise mirror of
        the upper one, so Q_lo and P conj(Q) P differ only by the FFT's
        rounding of each, e = 2 :func:`quantop.fft_rounding` ||b^N||_F /
        P^(n/2) in the Frobenius norm.  With alpha = ||A - P conj(A) P||_F and
        ||A - conj lambda||_F <= ||A - lambda||_F + alpha = s, the bound is
        alpha ||Q||_F (A's asymmetry) + s e (Q_lo's rounding) plus the
        :func:`_remainder_rounding` of both products, r_lo's taken with
        ||Q_lo||_F <= ||Q||_F + e.
        """
        g = self.grid
        q_norm, dim = np.linalg.norm(point.q_bN), len(point.q_bN)
        s_up = np.linalg.norm(point.shift)
        s_lo = s_up + self.mirror_asymmetry
        q_err = 2 * fft_rounding(g) * np.linalg.norm(point.b_n.values) / g.points ** (g.n / 2)
        return (self.mirror_asymmetry * q_norm + s_lo * q_err
                + _remainder_rounding(dim, s_up, q_norm)
                + _remainder_rounding(dim, s_lo, q_norm + q_err))

    def find_R(self):
        """Smallest R in ``_R_CANDIDATES`` with ||quantize(r^N)|| <= 1/2 on
        all sampled boundary points with |lambda| >= R.

        Each point is a :meth:`remainder`, decided by its certified ``norm``
        (:func:`densela.norm_bound`).  The radii are walked down, upper
        point first, to the first failing point, which excludes its radius
        and every smaller one.  On a ``conj_symmetric`` symbol a lower point
        passes without a remainder when its upper partner's norm plus
        :meth:`mirror_error_bound` is at most 1/2; every other lower point
        is computed.  ``find_R_points`` counts the points computed, passed
        by the mirror bound and skipped.
        """
        radii = _R_CANDIDATES
        pairs = self.sector.ray_points(radii).reshape(-1, 2)
        computed = mirrored = 0
        R = None
        for rad, (up, lo) in reversed(list(zip(radii, pairs))):
            point = self.remainder(up)
            computed += 1
            if point.norm > 0.5:
                break
            if self.conj_symmetric and point.norm + self.mirror_error_bound(point) <= 0.5:
                mirrored += 1
            else:
                computed += 1
                if self.remainder(lo).norm > 0.5:
                    break
            R = rad
        self.find_R_points = {"computed": computed, "mirror_bound": mirrored,
                              "skipped": 2 * len(radii) - computed - mirrored}
        if R is None:
            raise SectorcalcError(
                f"no invertibility radius R <= {radii[-1]:g}: remainder does not decay "
                "on this grid (symbol outside the tractable class?)")
        return R


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
    """Per-lambda records of a parametrix sweep plus fitted decay slopes.

    ``fit_notes`` names each slope whose fit dropped rows (a sup that is at
    rounding, zero or not finite) or that was omitted for it.
    """

    rows: list
    slopes: dict = field(default_factory=dict)
    fit_notes: dict = field(default_factory=dict)

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

    The rows come in (lambda, conj lambda) pairs, upper ray first, and each
    upper row's resolvent is passed to its partner as ``upper``
    (:meth:`ParametrixCalculator.leibniz_resolvent`).  A mirrored row's
    b^N and r^N, and its s^N while its method stays "neumann", are
    :func:`grid.conj_mirror`s of its partner's, so it takes their sups from its
    partner's row: the interior window is symmetric and <xi> is even.  A
    computed table's plain and class sups come from one pass.

    Fitted log-log slopes against <lambda>: ``rN`` near -1, ``sN`` near -2,
    ``bN_weighted`` (of <lambda> sup|b^N|) near 0.  The decay laws are
    asymptotic; below the spectral-gap scale the remainder is flat, so the
    fits exclude rows with <lambda> under twice the smallest pointwise
    symbol modulus (dropped if fewer than three radii would survive).  A row
    whose r^N sup is at or below its ``r_rounding`` is rounding noise and
    leaves the rN and sN fits.  Each fit also drops the rows whose sample
    is zero or not finite; a slope is written only if its remaining rows
    span three distinct radii (every radius, on a sweep of two), and
    ``fit_notes`` names every slope that dropped rows, with their
    <lambda>, or that was omitted.
    """
    margin = calc.default_interior_margin
    params = calc.class_params
    weights = (0.0, calc.N * (params.rho - params.delta) - params.m)
    rows = []
    for pair in calc.sector.ray_points(np.asarray(radii, dtype=float)).reshape(-1, 2):
        lr = None
        for lam in map(complex, pair):
            if not calc.sector.contains(lam):
                raise SectorcalcError(f"sweep lambda {lam!r} escaped the sector")
            lr = calc.leibniz_resolvent(lam, tol=tol, upper=lr)
            diag = lr.diagnostics
            row = {"lambda": lam, "bracket": float(japanese_bracket(lam))}
            for table, names in (("b_n", ("sup_bN",)),
                                 ("r_n", ("sup_rN", "class_sup_rN")),
                                 ("s_n", ("sup_sN", "class_sup_sN"))):
                if diag["mirrored"] and (table != "s_n" or diag["method"] == "neumann"):
                    row.update((name, rows[-1][name]) for name in names)
                else:
                    row.update(zip(names, class_weighted_sups(
                        getattr(lr, table), weights[:len(names)], margin)))
            row.update((key, diag[key]) for key in
                       ("residual", "method", "mirrored", "neumann_terms", "r_rounding"))
            rows.append(row)
    fit_rows = [row for row in rows if row["bracket"] >= 2.0 * calc.min_a]
    if len({row["bracket"] for row in fit_rows}) < 3:
        fit_rows = rows
    need = min(3, len({row["bracket"] for row in fit_rows}))
    family = ParamSymbolFamily(rows=rows)
    for name, sample_of, floored in (
            ("rN", lambda row: row["class_sup_rN"], True),
            ("bN_weighted", lambda row: row["bracket"] * row["sup_bN"], False),
            ("sN", lambda row: row["class_sup_sN"], True)):
        kept, dropped = [], set()
        for row in fit_rows:
            v = sample_of(row)
            at_rounding = floored and row["sup_rN"] <= row["r_rounding"]
            if np.isfinite(v) and v > 0 and not at_rounding:
                kept.append((row["bracket"], v))
            else:
                dropped.add(row["bracket"])
        radii_left = len({b for b, _ in kept})
        if radii_left >= need:
            family.slopes[name], _ = fit_loglog_slope([b for b, _ in kept],
                                                      [v for _, v in kept])
        if dropped:
            where = ", ".join(f"{b:.3g}" for b in sorted(dropped))
            family.fit_notes[name] = (
                f"{len(fit_rows) - len(kept)} of {len(fit_rows)} fit rows "
                f"{'at rounding' if floored else 'zero'} or not finite "
                f"(<lambda> = {where}), "
                + (f"fitted through {len(kept)}" if name in family.slopes else
                   f"omitted ({radii_left} distinct radii left, {need} needed)"))
    return family
