"""Holomorphic functional calculus over the sector complement.

An H-function decays two-sidedly, |f(z)| <= c_f (|z|^d + |z|^-d)^-1, and its
operator value is the Dunford integral

    f(A) = (i / 2 pi) int_{boundary of the sector} f(lambda) (A - lambda)^{-1} d lambda,

realized by the trapezoid rule on a lattice in u = ln r along the two
boundary rays (nodes e^{jh}, anchored at r = 1, the step h halved from 1).
Orientation is pinned by the scalar Cauchy test (the quadrature must
reproduce f(z0) for z0 on the positive real axis), not by convention.  One
LU Dunford engine serves a whole family: :func:`dunford_family` inverts each
distinct node of its members' contours once, with one coefficient row per
member, so each f(A) keeps its own lattice and truncation.  The calculus
bound M = max ||f(A)|| / ||f||_inf over a family is :func:`hinf_bound_probe`,
one such call with each member on its own contour; ``calc`` reports through
it.  The one-member case is the dense-operator value f(A)
(:func:`f_of_operator_oracle`), and the symbol-level value f(a) is its
extracted symbol (:func:`f_of_symbol`); the parametrix part of the integral,
with b^N in place of the resolvent, is the independent symbol-side
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densela import _as_matrix, operator_norm
from .errors import ContourError, SingularOperatorError
from .grid import GridSymbol
from .quantop import QuantOp, extract_symbol
from .util import fit_loglog_slope, japanese_bracket

_MAX_DECADES = 220
_MIN_STEP = 2.0 ** -9  # finest lattice step in ln r: about 1180 nodes per decade
# HFun.validate widens its sampled range to at most 1e-100 .. 1e100.
_VALIDATE_MAX_DECADE = 100
# Dunford engine: nodes per stacked LU batch (see _accumulate_resolvents);
# residual bound of its checks.
_CHUNK = 8
_SPOT_TOL = 1e-9
# dunford_family's members per engine call: its (F, n, n) sum then holds no
# more matrices than the engine's two chunk stacks
_FAMILY_GROUP = 2 * _CHUNK


# ---------------------------------------------------------------------------
# Function models
# ---------------------------------------------------------------------------

class HFun:
    """Holomorphic function on the sector complement with two-sided decay.

    Parameters
    ----------
    fn : callable
        Vectorized evaluator z -> complex.
    d : float
        Decay exponent: |f(z)| <= c_f (|z|^d + |z|^{-d})^{-1}.
    name : str
        Label used in reports.

    The bound constant ``c_f`` is estimated from ray samples by
    :meth:`validate`, which :meth:`ensure_cf` calls when it is unset.
    """

    def __init__(self, fn, d, name="f"):
        if d <= 0:
            raise ValueError("decay exponent d must be positive")
        self.fn = fn
        self.d = float(d)
        self.c_f = None
        self.name = name

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))

    def _decay_products(self, sector):
        """|f(z)| (|z|^d + |z|^-d) on the validation rays (see :meth:`validate`)."""
        angles = np.array([0.0, sector.theta - 1e-3, -(sector.theta - 1e-3)])

        def products(radii):
            z = (np.exp(1j * angles)[:, None] * radii).ravel()
            with np.errstate(over="ignore", invalid="ignore"):  # validate rejects them
                return np.abs(self(z)) * (np.abs(z) ** self.d + np.abs(z) ** -self.d)

        def peak(exponent):
            return np.max(products(10.0 ** exponent))

        out = [products(np.geomspace(1e-4, 1e4, 160))]
        for sign in (1, -1):
            end = 4
            while end < _VALIDATE_MAX_DECADE and peak(sign * end) > 2 * peak(sign * (end - 1)):
                out.append(products(10.0 ** (sign * (end + np.arange(1, 21) / 20))))
                end += 1
        return np.concatenate(out)

    def ensure_cf(self, sector):
        """c_f, set by :meth:`validate` when unset: a non-finite sample on the
        validation rays raises ``ValueError``.  A c_f set beforehand is
        returned unchecked."""
        return self.validate(sector) if self.c_f is None else self.c_f

    def validate(self, sector):
        """Check the decay bound on the validation rays; returns c_f.

        The rays are arg 0 and +-(theta - 1e-3), sampled at 20 radii per
        decade over 1e-4 .. 1e4.  Each end of that range is widened by a
        decade while the product |f(z)| (|z|^d + |z|^-d) there is still
        growing: while its max over the rays at the end radius is more than
        twice that a decade inside, up to 1e-100 .. 1e100.  So a corner past
        1e4, as psi_n's at |z| ~ n, enters c_f; a flat tail, as
        power_quotient's or psi_1000's, leaves the range as it is.  Every
        sample must be finite, and a c_f set beforehand must bound their
        maximum (relative slack 1e-9); an unset c_f is set 1% above that
        maximum.
        """
        prod = self._decay_products(sector)
        if not np.all(np.isfinite(prod)):
            raise ValueError(f"{self.name}: non-finite values on validation rays")
        worst = float(np.max(prod))
        if self.c_f is None:
            self.c_f = worst * 1.01
        elif worst > self.c_f * (1.0 + 1e-9):
            raise ValueError(
                f"{self.name}: decay bound violated, sup |f| (|z|^d + |z|^-d) = "
                f"{worst:.3e} > c_f = {self.c_f:.3e}")
        return self.c_f

    def sup_norm(self, sector):
        """sup |f| sampled on the boundary rays and the positive real axis.

        Radii run over 1e-6 .. 1e6, 40 per decade; the density is doubled
        (up to 4096 per decade) until the estimate moves by less than 1%
        (maximum principle justifies boundary sampling).  A non-finite
        sample raises ``ValueError``: a dropped sample would read low.
        """
        lo, hi, per_decade = 1e-6, 1e6, 40
        prev = None
        while per_decade <= 4096:
            radii = np.geomspace(lo, hi, max(8, int(np.log10(hi / lo) * per_decade)))
            cur = 0.0
            for ang in (sector.theta, -sector.theta, 0.0):
                vals = np.abs(self(radii * np.exp(1j * ang)))
                if not np.all(np.isfinite(vals)):
                    raise ValueError(f"{self.name}: non-finite values on the "
                                     "sup-norm rays")
                cur = max(cur, float(np.max(vals)))
            if prev is not None and abs(cur - prev) <= 0.01 * max(cur, 1e-300):
                return cur
            prev = cur
            per_decade *= 2
        return prev


def regularizer_value(z, n):
    """psi_n(z) = (nz/(1+nz)) (1/(1+z/n)), the H-regularizing factor: an
    H-function of decay 1, with ||f psi_n||_inf <= 4 ||f||_inf for bounded f."""
    z = np.asarray(z, dtype=complex)
    return (n * z / (1.0 + n * z)) * (1.0 / (1.0 + z / n))


# -- stock families ----------------------------------------------------------

def power_quotient(s):
    """z^s / (1+z)^(2s): the workhorse H-family, decay exponent s."""
    def fn(z):
        # one exponential: a quotient of two is inf/inf on the rays at
        # |z| = 1e6 once s > 25.7
        return np.exp(s * np.log(z) - 2.0 * s * np.log1p(z))
    return HFun(fn, d=float(s), name=f"power_quotient {s!r}")


def imaginary_power_regularized(t, n_reg):
    """z^{it} psi_n(z): H-regularization of the imaginary power."""
    def fn(z):
        z = np.asarray(z, dtype=complex)
        return np.exp(1j * t * np.log(z)) * regularizer_value(z, n_reg)
    return HFun(fn, d=1.0, name=f"imag_power {t!r}~reg{n_reg}")


# ---------------------------------------------------------------------------
# Contours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """Quadrature-ready boundary contour of the sector.

    ``nodes`` and complex ``weights`` absorb orientation and d(lambda); the
    Dunford value of f at operator A is
    (i/2 pi) sum_q w_q f(lambda_q) (A - lambda_q)^{-1}.  ``step`` is the
    lattice step h in u = ln r.
    """

    theta: float
    r_min: float
    r_max: float
    step: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.nodes)

    def dunford_scalar(self, f, z0):
        """Scalar Cauchy quadrature (i/2 pi) sum w f(lambda) (z0-lambda)^{-1}."""
        vals = f(self.nodes)
        return complex(1j / (2.0 * np.pi) *
                       np.sum(self.weights * vals / (z0 - self.nodes)))


def _lattice(sector, r_min, r_max, step):
    """Trapezoid rule in u = ln r on both rays: nodes r e^{+-i theta} at
    r = e^{j step}, weights +-step lambda.  u runs over the whole numbers
    floor(ln r_min) .. ceil(ln r_max), so the lattice is anchored at r = 1 and,
    for step = 2^-k, holds the lattice of step 2^(1-k) bitwise:
    (2j)(step/2) = j step exactly."""
    j = np.arange(np.floor(np.log(r_min)) / step, np.ceil(np.log(r_max)) / step + 1.0)
    r = np.exp(j * step)
    up, lo = r * np.exp(1j * sector.theta), r * np.exp(-1j * sector.theta)
    # Orientation: down the upper ray, out along the lower ray, so the scalar
    # Cauchy identity holds for z0 in the sector complement.
    return Contour(theta=sector.theta, r_min=r_min, r_max=r_max, step=step,
                   nodes=np.concatenate([up, lo]),
                   weights=step * np.concatenate([-up, lo]))


_PROBE_Z0 = (0.5, 1.0, 4.0, 20.0)


def _probe_fun(z, d=1.0):
    """Certificate function z^d/(1+z)^(2d): decay matched to the contour."""
    z = np.asarray(z, dtype=complex)
    return np.exp(d * np.log(z) - 2.0 * d * np.log1p(z))


def build_contour(sector, d, tol, c_f=1.0, step=None):
    """Contour with truncation radii from the decay tail bounds.

    The outer tail c_f r^{-d}/d and the inner tail c_f r^{d+1}/(d+1)
    are each kept below tol/4.  The lattice step in ln r is halved from 1
    (down to 2^-9) until the scalar Cauchy certificate moves by less than
    tol/4 and the finer level reproduces the probe values within tol; a
    given ``step`` returns that lattice uncertified.
    """
    if tol <= 0 or d <= 0:
        raise ContourError("tol and d must be positive")
    # the span in decades from logarithms, before r_max can overflow
    lg_cf, lg_tol = np.log10(4.0 * c_f), np.log10(tol)
    decades = (lg_cf - np.log10(d) - lg_tol) / d \
        - min((np.log10(d + 1.0) + lg_tol - lg_cf) / (d + 1.0), -2.0)
    if decades > _MAX_DECADES:
        raise ContourError(
            f"contour spans {decades:.4g} decades (> {_MAX_DECADES}); "
            "decay exponent too small for the requested tolerance")
    r_max = (4.0 * c_f / (d * tol)) ** (1.0 / d)
    r_min = min(((d + 1.0) * tol / (4.0 * c_f)) ** (1.0 / (d + 1.0)), 1e-2)
    if r_min > r_max:
        raise ContourError(f"r_min={r_min:g} > r_max={r_max:g}")
    probes = [z0 for z0 in _PROBE_Z0 if 10.0 * r_min <= z0 <= 0.1 * r_max] or [1.0]

    if step is not None:
        return _lattice(sector, r_min, r_max, step)

    def probe(z):
        return _probe_fun(z, d)

    step = 1.0
    prev = None
    while step >= _MIN_STEP:
        contour = _lattice(sector, r_min, r_max, step)
        vals = np.array([contour.dunford_scalar(probe, z0) for z0 in probes])
        err = float(np.max(np.abs(vals - _probe_fun(np.array(probes), d))))
        if prev is not None:
            moved = float(np.max(np.abs(vals - prev)))
            if moved < tol / 4.0 and err < tol:
                return contour
        prev = vals
        step /= 2.0
    raise ContourError(
        f"Cauchy certificate not reached at step {_MIN_STEP:g} in ln r "
        f"(residual {err:.2e} vs tol {tol:.1e})")


# ---------------------------------------------------------------------------
# Dunford integrals
# ---------------------------------------------------------------------------

def _check_vector(dim):
    """The engine's fixed unit vector: equal moduli, golden-ratio phases."""
    return np.exp(2j * np.pi * np.arange(1, dim + 1) * (np.sqrt(5) - 1) / 2) / np.sqrt(dim)


def _accumulate_resolvents(M, nodes, coeffs):
    """(i/2 pi) sum_q coeffs[f, q] (M - lambda_q)^{-1}, stacked over rows f.

    ``coeffs`` is (F, Q): each node is inverted once for all F rows, and
    skipped where every row vanishes.  ``np.linalg.inv`` solves
    (M - lambda) X = I by LAPACK gesv (partial-pivot LU, then two triangular
    solves) for ``_CHUNK`` nodes per call.  The shifted matrices live in one
    (``_CHUNK``, n, n) buffer: M is copied in and lambda subtracted on the
    diagonal only.  Each chunk is added to the (F, n*n) sum row by row, and
    the sum is scaled in place, so no second (F, n*n) array is formed.
    The engine holds about two chunk stacks of n x n matrices at once (the
    shifted buffer and one chunk's inverses), so ``_CHUNK`` sets its peak
    memory.  8 nodes keep that small without slowing the inverse: at
    n = 127 a stacked inverse costs 0.90 ms per node for 8 nodes against
    1.11 ms for 24 (2 BLAS threads), and calc plus bip on the reference
    scene take the same time, within noise, for 2 to 24.
    Every node is residual-checked on one fixed unit vector x
    (:func:`_check_vector`), ||M y - lambda y - x|| with
    y = (M - lambda)^{-1} x, and each row's first node against the full
    identity, so a near-singular shift cannot pass silently.
    """
    keep = np.any(coeffs != 0.0, axis=0)
    nodes, coeffs = nodes[keep], coeffs[:, keep]
    spots = np.argmax(coeffs != 0.0, axis=1)  # each row's first node
    dim = M.shape[0]
    diag = np.arange(dim)
    x = _check_vector(dim)
    buf = np.empty((min(_CHUNK, len(nodes)), dim, dim), dtype=complex)
    acc = np.zeros((len(coeffs), dim * dim), dtype=complex)
    for start in range(0, len(nodes), _CHUNK):
        lam = nodes[start:start + _CHUNK]
        cf = coeffs[:, start:start + _CHUNK]
        shifted = buf[:len(lam)]
        shifted[...] = M
        shifted[:, diag, diag] -= lam[:, None]
        try:
            inv = np.linalg.inv(shifted)
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError(
                f"resolvent failed on contour chunk at |lambda| ~ "
                f"{abs(lam[0]):.3g}: {exc}") from exc
        for q in spots[(spots >= start) & (spots < start + len(lam))] - start:
            residual = float(np.max(np.abs(shifted[q] @ inv[q]
                                           - np.eye(dim, dtype=complex))))
            if not residual <= _SPOT_TOL:
                raise SingularOperatorError(
                    f"resolvent residual {residual:.2e} at lambda={lam[q]!r}; "
                    "contour touches the spectrum")
        y = inv @ x
        node_res = np.linalg.norm(y @ M.T - lam[:, None] * y - x, axis=1)
        worst = int(np.argmax(node_res))
        if not node_res[worst] <= _SPOT_TOL:
            raise SingularOperatorError(
                f"resolvent residual {node_res[worst]:.2e} on a unit vector at "
                f"lambda={lam[worst]!r}; contour touches the spectrum")
        flat = inv.reshape(len(lam), dim * dim)
        for row, c in zip(acc, cf):
            row += c @ flat
        del inv, flat  # so the next chunk's inverse is not built beside this one
    acc *= 1j / (2.0 * np.pi)
    return acc.reshape(len(coeffs), dim, dim)


def _union(contours):
    """The distinct nodes of ``contours`` in order of first appearance, and
    each contour's node positions among them.  Lattices of one sector share
    their nodes bitwise (see :func:`_lattice`)."""
    every = np.concatenate([c.nodes for c in contours])
    _, first, inverse = np.unique(every, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return every[first[order]], np.split(rank[inverse.ravel()],
                                         np.cumsum([len(c) for c in contours])[:-1])


def dunford_family(A, pairs):
    """f(A) for each (f, contour) pair, in order, each with the running count
    of nodes inverted so far.

    Members run in groups of at most ``_FAMILY_GROUP``, one engine call per
    group, so the engine's sum never holds more matrices than its two chunk
    stacks, however long the family.  A call inverts each distinct node of
    the union of its members' contours once.  A member's coefficient row is
    its own weights times f on its own nodes, and zero elsewhere, so each
    f(A) keeps its own lattice and truncation.  A generator: a group is
    integrated when its first member is asked for, and each f(A) is a copy,
    so a member kept by the caller does not keep its group's sum alive.
    """
    mat = _as_matrix(A)
    inverted = 0
    for start in range(0, len(pairs), _FAMILY_GROUP):
        group = pairs[start:start + _FAMILY_GROUP]
        nodes, positions = _union([contour for _, contour in group])
        coeffs = np.zeros((len(group), len(nodes)), dtype=complex)
        for row, (f, contour), pos in zip(coeffs, group, positions):
            row[pos] = contour.weights * f(contour.nodes)
        inverted += int(np.count_nonzero(np.any(coeffs != 0.0, axis=0)))
        sums = _accumulate_resolvents(mat, nodes, coeffs)
        for row in range(len(group)):
            yield sums[row].copy(), inverted
        del sums  # so the next group's sum is not built beside this one


def f_of_operator_oracle(A, f, contour):
    """Dense-operator Dunford integral: (i/2 pi) sum w f(lambda)(A-lambda)^{-1},
    the one-member case of :func:`dunford_family`."""
    op, _ = next(dunford_family(A, [(f, contour)]))
    return op


def f_of_symbol(A, f, contour):
    """Symbol-level calculus f(a) of the quantized symbol A = quantize(a), a
    :class:`QuantOp`: the symbol extracted on A's grid from
    :func:`f_of_operator_oracle`'s f(A), so it agrees with the oracle up to
    the quantize/extract round trip."""
    return extract_symbol(QuantOp(A.grid, A.k, f_of_operator_oracle(A, f, contour)))


# ---------------------------------------------------------------------------
# H-infinity bound probe
# ---------------------------------------------------------------------------

@dataclass
class HinfProbeReport:
    """Per-function rows (name, ||f||_inf, ||f(A)||, ratio), their maximum
    ratio M and the integrated f(A) matrices ``ops``, aligned with ``rows``;
    ``nodes`` sums the members' contour nodes, ``inverted`` counts the
    distinct ones."""

    rows: list
    M: float
    ops: list
    nodes: int
    inverted: int


def hinf_bound_probe(A, family, sector, quad_tol=1e-8):
    """Estimate the calculus bound M = max_f ||f(A)|| / ||f||_inf.

    Each member is validated against its declared decay and integrated on
    its own contour, sized by its own c_f, in one :func:`dunford_family`
    call, so each distinct node is inverted once for the whole family.
    Exact operator norms (one SVD each); sup norms via stabilized boundary
    sampling.  Scaling a member by a constant scales its f(A) and its sup
    norm alike; its c_f scales too and may widen its contour, so its ratio
    is unchanged up to the quadrature error.
    """
    if not family:
        raise ValueError("function family must be nonempty")
    contours = [build_contour(sector, d=f.d, tol=quad_tol, c_f=f.validate(sector))
                for f in family]
    rows, ops = [], []
    for f, (op, inverted) in zip(family, dunford_family(A, list(zip(family, contours)))):
        opn = operator_norm(op)
        sup = f.sup_norm(sector)
        rows.append((f.name, sup, opn, opn / sup))
        ops.append(op)
    return HinfProbeReport(rows=rows, M=max(r[3] for r in rows), ops=ops,
                           nodes=sum(map(len, contours)), inverted=inverted)


# ---------------------------------------------------------------------------
# The b^N part of the Dunford integral
# ---------------------------------------------------------------------------

def bn_part(calc, f, nodes, weights):
    """(i/2 pi) sum_q w_q f(lambda_q) b^N(lambda_q), the parametrix part of
    the Dunford integral.

    Each node lambda_q (with its weight) is a scalar or one lambda per grid
    node.  b^N is one ``calc.evaluate`` call per node; i/2 pi is applied
    once, to the sum.
    """
    acc = 0.0
    for lam, w in zip(nodes, weights):
        acc = acc + (w * f(lam))[..., None, None] * calc.evaluate(calc.compiled_bN, lam)
    return GridSymbol(calc.grid, 1j / (2.0 * np.pi) * acc, check=False)


# ---------------------------------------------------------------------------
# Resolvent-decay probe (the operator-side uniform bound)
# ---------------------------------------------------------------------------

def resolvent_decay_probe(rows):
    """Slope of log||(A-lambda)^{-1}|| vs log<lambda> and the weighted sup.

    ``rows`` are (lambda, norm) pairs from the dense sweep; returns
    (slope, sup of <lambda> norm)."""
    brackets = [float(japanese_bracket(lam)) for lam, _ in rows]
    norms = [n for _, n in rows]
    slope, _ = fit_loglog_slope(brackets, norms)
    weighted = max(b * n for b, n in zip(brackets, norms))
    return slope, weighted
