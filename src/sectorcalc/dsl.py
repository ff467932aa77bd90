"""Expression language for phase-space symbols a(x, xi).

A symbol is entered as infix text over the variables ``x1..xn`` (space) and
``xi1..xin`` (frequency), complex constants (``i`` is the imaginary unit),
the functions ``sin, cos, exp, log``, powers ``u^c`` with a constant
exponent, and the Japanese bracket ``bracket(xi) = (1 + |xi|^2)^(1/2)``.
Matrix symbols are entered as a ``[[...],[...]]`` grid of entry expressions.
The full grammar is documented in ``docs/grammar.md``.

Derivatives are exact: differentiation rewrites the expression tree node by
node (forward mode), so arbitrarily mixed x/xi derivatives evaluate without
finite-difference noise.  Trees are immutable after parsing; evaluation is
pure and may be shared freely across workers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    DerivativeOrderError,
    DimensionIndexError,
    NonPeriodicError,
    SymbolDomainError,
    SymbolSyntaxError,
    UnknownIdentifierError,
)

MAX_DERIVATIVE_ORDER = 8

_FUNCTIONS = ("sin", "cos", "exp", "log")


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class Node:
    """Immutable expression-tree node."""

    __slots__ = ()

    def eval(self, xs, xis):
        raise NotImplementedError

    def diff(self, kind, axis):
        """Exact partial derivative w.r.t. x_axis (kind='x') or xi_axis."""
        raise NotImplementedError


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def eval(self, xs, xis):
        return self.value

    def diff(self, kind, axis):
        return _ZERO


_ZERO = Num(0.0)
_ONE = Num(1.0)


class Var(Node):
    """Space variable x_axis or frequency variable xi_axis (0-based)."""

    __slots__ = ("kind", "axis")

    def __init__(self, kind, axis):
        self.kind = kind
        self.axis = axis

    def eval(self, xs, xis):
        return (xs if self.kind == "x" else xis)[self.axis]

    def diff(self, kind, axis):
        if kind == self.kind and axis == self.axis:
            return _ONE
        return _ZERO


class Bracket(Node):
    """Japanese bracket of the full frequency vector, (1 + |xi|^2)^(1/2)."""

    __slots__ = ()

    def eval(self, xs, xis):
        s = 1.0
        for xi in xis:
            s = s + xi * xi
        return np.sqrt(s) if isinstance(s, np.ndarray) else cmath.sqrt(s)

    def diff(self, kind, axis):
        if kind == "x":
            return _ZERO
        return div(Var("xi", axis), Bracket())


class Add(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, xs, xis):
        return self.a.eval(xs, xis) + self.b.eval(xs, xis)

    def diff(self, kind, axis):
        return add(self.a.diff(kind, axis), self.b.diff(kind, axis))


class Mul(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, xs, xis):
        return self.a.eval(xs, xis) * self.b.eval(xs, xis)

    def diff(self, kind, axis):
        return add(mul(self.a.diff(kind, axis), self.b),
                   mul(self.a, self.b.diff(kind, axis)))


class Div(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, xs, xis):
        return self.a.eval(xs, xis) / self.b.eval(xs, xis)

    def diff(self, kind, axis):
        num = add(mul(self.a.diff(kind, axis), self.b),
                  neg(mul(self.a, self.b.diff(kind, axis))))
        return div(num, mul(self.b, self.b))


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def eval(self, xs, xis):
        return -self.a.eval(xs, xis)

    def diff(self, kind, axis):
        return neg(self.a.diff(kind, axis))


class Pow(Node):
    """u^c with a constant (real) exponent; keeps differentiation total."""

    __slots__ = ("a", "c")

    def __init__(self, a, c):
        self.a = a
        self.c = float(c)

    def eval(self, xs, xis):
        base = self.a.eval(xs, xis)
        if self.c == int(self.c):
            return base ** int(self.c)
        return base ** self.c

    def diff(self, kind, axis):
        da = self.a.diff(kind, axis)
        return mul(mul(Num(self.c), power(self.a, self.c - 1.0)), da)


class Call(Node):
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn = fn
        self.a = a

    def eval(self, xs, xis):
        v = self.a.eval(xs, xis)
        if isinstance(v, np.ndarray):
            return getattr(np, self.fn)(v)
        return getattr(cmath, self.fn)(v)

    def diff(self, kind, axis):
        da = self.a.diff(kind, axis)
        if self.fn == "sin":
            return mul(Call("cos", self.a), da)
        if self.fn == "cos":
            return neg(mul(Call("sin", self.a), da))
        if self.fn == "exp":
            return mul(self, da)
        if self.fn == "log":
            return div(da, self.a)
        raise AssertionError(self.fn)


# Smart constructors with constant folding; they keep high-order derivative
# trees from exploding without any general CAS rewriting.

def _is_zero(u):
    return isinstance(u, Num) and u.value == 0

def _is_one(u):
    return isinstance(u, Num) and u.value == 1


def add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def div(a, b):
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value / b.value)
    return Div(a, b)


def neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def power(a, c):
    if c == 0:
        return _ONE
    if c == 1:
        return a
    if isinstance(a, Num):
        return Num(a.value ** c)
    return Pow(a, c)


# ---------------------------------------------------------------------------
# Symbol class parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolClassParams:
    """Order/regularity triple (m, rho, delta) of a symbol class.

    :meth:`validate` enforces the classes the paper's calculus runs on:
    0 <= delta < rho <= 1 and order m >= 0.
    """

    m: float
    rho: float = 1.0
    delta: float = 0.0

    def validate(self):
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if not self.delta < self.rho:
            raise ValueError(
                f"pipeline use requires delta < rho, got delta={self.delta}, rho={self.rho}")
        if self.m < 0:
            raise ValueError(f"pipeline use requires order m >= 0, got m={self.m}")
        return self

    def xi_weight_exponent(self, alpha, beta):
        """Exponent of <xi> in the seminorm weight for orders (alpha, beta)."""
        return -self.m + self.rho * sum(alpha) - self.delta * sum(beta)


# ---------------------------------------------------------------------------
# SymbolExpr: scalar or k x k matrix of scalar trees
# ---------------------------------------------------------------------------

class SymbolExpr:
    """A (possibly matrix-valued) symbol with exact mixed derivatives.

    Parameters
    ----------
    entries : nested list of Node
        k x k grid of scalar expression trees (k=1 for scalar symbols).
    n : int
        Space dimension; variables x1..xn, xi1..xin are admissible.
    k : int
        Matrix size.
    """

    __slots__ = ("entries", "n", "k")

    def __init__(self, entries, n, k=1):
        self.entries = entries
        self.n = n
        self.k = k

    # -- evaluation ---------------------------------------------------------

    def eval(self, xs, xis):
        """Evaluate at broadcastable coordinate arrays.

        Returns an array of shape ``broadcast(...) + (k, k)``; for scalar
        symbols the trailing axes are (1, 1).
        """
        xs = tuple(np.asarray(v) for v in _as_tuple(xs, self.n))
        xis = tuple(np.asarray(v) for v in _as_tuple(xis, self.n))
        shape = np.broadcast_shapes(*(v.shape for v in xs + xis))
        out = np.empty(shape + (self.k, self.k), dtype=complex)
        for r in range(self.k):
            for c in range(self.k):
                val = self.entries[r][c].eval(xs, xis)
                out[..., r, c] = val
        return out

    # -- calculus -----------------------------------------------------------

    def diff(self, alpha=(), beta=()):
        """Exact derivative d^alpha_xi d^beta_x applied entrywise.

        ``alpha`` and ``beta`` are multi-indices of length n (scalars are
        promoted in dimension 1); the total order is capped at
        ``MAX_DERIVATIVE_ORDER``.
        """
        alpha = _as_multi(alpha, self.n)
        beta = _as_multi(beta, self.n)
        if sum(alpha) + sum(beta) > MAX_DERIVATIVE_ORDER:
            raise DerivativeOrderError(
                f"derivative order {sum(alpha) + sum(beta)} exceeds budget "
                f"{MAX_DERIVATIVE_ORDER}")
        ent = self.entries
        out = []
        for row in ent:
            new_row = []
            for node in row:
                for ax, o in enumerate(alpha):
                    for _ in range(o):
                        node = node.diff("xi", ax)
                for ax, o in enumerate(beta):
                    for _ in range(o):
                        node = node.diff("x", ax)
                new_row.append(node)
            out.append(new_row)
        return SymbolExpr(out, self.n, self.k)

    def shifted(self, c):
        """The symbol a + c (c added on the diagonal for matrix symbols)."""
        out = []
        for r in range(self.k):
            row = []
            for s in range(self.k):
                node = self.entries[r][s]
                row.append(add(node, Num(c)) if r == s else node)
            out.append(row)
        return SymbolExpr(out, self.n, self.k)

    def scaled(self, c):
        return SymbolExpr([[mul(Num(c), e) for e in row] for row in self.entries],
                          self.n, self.k)


def _as_tuple(v, n):
    if isinstance(v, (list, tuple)):
        if len(v) != n:
            raise ValueError(f"expected {n} coordinate arrays, got {len(v)}")
        return tuple(v)
    if n != 1:
        raise ValueError(f"expected {n} coordinate arrays")
    return (v,)


def _as_multi(idx, n):
    if isinstance(idx, (int, np.integer)):
        if n != 1:
            raise ValueError("multi-index required in dimension > 1")
        idx = (int(idx),)
    idx = tuple(int(o) for o in idx)
    if len(idx) == 0:
        idx = (0,) * n
    if len(idx) != n:
        raise ValueError(f"multi-index length {len(idx)} != dimension {n}")
    if any(o < 0 for o in idx):
        raise ValueError("multi-index entries must be >= 0")
    return idx


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text):
    toks = []
    i, L = 0, len(text)
    while i < L:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),[]":
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < L and text[i + 1].isdigit()):
            j = i
            while j < L and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < L and text[j] in "eE" and j + 1 < L and (
                    text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < L
                                              and text[j + 2].isdigit())):
                j += 2
                while j < L and text[j].isdigit():
                    j += 1
            try:
                float(text[i:j])
            except ValueError:
                raise SymbolSyntaxError(f"bad number literal {text[i:j]!r}", i)
            toks.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < L and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise SymbolSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(_Token("end", "", L))
    return toks


class _Parser:
    def __init__(self, toks, n):
        self.toks = toks
        self.n = n
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok.kind != kind:
            raise SymbolSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        self.i += 1
        return tok

    # symbol := matrix | expr, then the end of the text
    def symbol(self):
        entries = self.matrix() if self.peek().kind == "[" else [[self.expr()]]
        tok = self.peek()
        if tok.kind != "end":
            raise SymbolSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return entries

    # matrix := '[' row (',' row)* ']', row := '[' expr (',' expr)* ']'
    def matrix(self):
        rows = self.bracketed(lambda: (self.peek().pos, self.bracketed(self.expr)))
        for pos, row in rows:
            if len(row) != len(rows):
                raise SymbolSyntaxError(
                    f"matrix symbol must be square: a row of {len(row)} entries "
                    f"in {len(rows)} rows", pos)
        return [row for _, row in rows]

    def bracketed(self, item):
        """'[' item (',' item)* ']' as a list of items."""
        self.take("[")
        items = [item()]
        while self.peek().kind == ",":
            self.take()
            items.append(item())
        self.take("]")
        return items

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            node = add(node, rhs if op == "+" else neg(rhs))
        return node

    # term := unary (('*'|'/') unary)*
    def term(self):
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.take().kind
            rhs = self.unary()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    # unary := ('-'|'+') unary | powexpr
    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return neg(self.unary())
        if self.peek().kind == "+":
            self.take()
            return self.unary()
        return self.powexpr()

    # powexpr := atom ('^' signed_number)?
    def powexpr(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            sign = 1.0
            if self.peek().kind == "-":
                self.take()
                sign = -1.0
            opened = False
            if self.peek().kind == "(":
                self.take()
                opened = True
                if self.peek().kind == "-":
                    self.take()
                    sign = -sign
            tok = self.take("num")
            if opened:
                self.take(")")
            return power(node, sign * float(tok.text))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Num(float(tok.text))
        if tok.kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok.kind == "name":
            return self.name_atom()
        raise SymbolSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)

    def name_atom(self):
        tok = self.take("name")
        name = tok.text
        if name == "i":
            return Num(1j)
        if name == "pi":
            return Num(np.pi)
        if name in _FUNCTIONS:
            self.take("(")
            arg = self.expr()
            self.take(")")
            return Call(name, arg)
        if name == "bracket":
            self.take("(")
            inner = self.take("name")
            if inner.text != "xi":
                raise SymbolSyntaxError(
                    "bracket() takes the frequency vector 'xi'", inner.pos)
            self.take(")")
            return Bracket()
        var = _parse_var(name, self.n, tok.pos)
        if var is not None:
            return var
        raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.pos)


def _parse_var(name, n, pos):
    for prefix, kind in (("xi", "xi"), ("x", "x")):
        if name == prefix:
            if n == 1:
                return Var(kind, 0)
            raise DimensionIndexError(
                f"bare {prefix!r} is only valid in dimension 1", pos)
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            idx = int(name[len(prefix):])
            if not 1 <= idx <= n:
                raise DimensionIndexError(
                    f"variable {name!r} out of range for dimension {n}", pos)
            return Var(kind, idx - 1)
    return None


def parse_symbol(text, n=1, k=None):
    """Parse symbol text into a :class:`SymbolExpr`.

    Matrix symbols are written as a bracketed k x k grid,
    ``[[a11, a12], [a21, a22]]``, each entry a scalar expression; the size k
    comes from the text.  A given ``k`` must match it.

    Raises
    ------
    SymbolSyntaxError, UnknownIdentifierError, DimensionIndexError
        On malformed text or a size other than ``k`` (with the character
        offset into ``text``).
    NonPeriodicError, SymbolDomainError
        When validation sampling detects non-periodic x-dependence or a
        reachable singular point (log/fractional-power branch cut).
    """
    entries = _Parser(_tokenize(text), n).symbol()
    size = len(entries)
    if k is not None and k != size:
        raise SymbolSyntaxError(
            f"expected a {k}x{k} symbol, the text gives {size}x{size}", 0)
    expr = SymbolExpr(entries, n, size)
    validate_symbol(expr)
    return expr


# ---------------------------------------------------------------------------
# Validation sampling
# ---------------------------------------------------------------------------

def _sample_points(n):
    """40 fixed (x, xi) points: 20 at |xi| <= 50, 19 at |xi| <= 2, one at 0."""
    rng = np.random.default_rng(20240229)
    xs = rng.uniform(0.0, 2 * np.pi, size=(40, n))
    xis = np.concatenate([
        rng.uniform(-50.0, 50.0, size=(20, n)),
        rng.uniform(-2.0, 2.0, size=(19, n)),
        np.zeros((1, n)),
    ])
    return xs, xis


def validate_symbol(expr):
    """Sample-based domain and periodicity checks (deterministic points);
    the relative periodicity deviation may not exceed 1e-12."""
    xs, xis = _sample_points(expr.n)
    cols_x = tuple(xs[:, ax] for ax in range(expr.n))
    cols_xi = tuple(xis[:, ax] for ax in range(expr.n))
    for row in expr.entries:
        for node in row:
            _check_domain(node, cols_x, cols_xi)
    base = expr.eval(cols_x, cols_xi)
    if not np.all(np.isfinite(base)):
        raise SymbolDomainError("symbol evaluates to a non-finite value on the real domain")
    for ax in range(expr.n):
        shifted = list(cols_x)
        shifted[ax] = cols_x[ax] + 2 * np.pi
        other = expr.eval(tuple(shifted), cols_xi)
        err = np.max(np.abs(other - base) / (1.0 + np.abs(base)))
        if err > 1e-12:
            raise NonPeriodicError(
                f"symbol is not 2*pi-periodic in x{ax + 1} (sampled deviation {err:.2e})")


def _check_domain(node, xs, xis):
    """Reject log/fractional-power branch points reachable on the real domain."""
    if isinstance(node, Call) and node.fn == "log":
        _reject_cut(node.a, xs, xis, "log")
    if isinstance(node, Pow) and node.c != int(node.c):
        _reject_cut(node.a, xs, xis, "fractional power")
    if isinstance(node, Div):
        vals = np.asarray(node.b.eval(xs, xis))
        if np.any(np.abs(vals) < 1e-9):
            raise SymbolDomainError("division by a value vanishing on the real domain")
    for attr in ("a", "b"):
        child = getattr(node, attr, None)
        if isinstance(child, Node):
            _check_domain(child, xs, xis)


def _reject_cut(base_node, xs, xis, what):
    vals = np.asarray(base_node.eval(xs, xis))
    on_cut = (np.abs(vals.imag) < 1e-12) & (vals.real < 1e-9)
    if np.any(on_cut):
        raise SymbolDomainError(
            f"{what} branch cut reachable on the real domain "
            f"(base touches the closed negative real axis)")
