"""Discrete torus grids, symbol tabulation and the seminorm system.

The sup over continuous phase space is replaced by a sup over grid nodes:
x runs over the P-point uniform grid per axis, xi over the integer frequency
window {-Xi..Xi}^n.  Class membership is therefore only certified on the
window; reports record the window used.  Window sups of a tabulated symbol
(plain, weighted by a power of <xi>, or on the interior window) all go
through :func:`class_weighted_sups`; the pointwise matrix modulus is the
spectral norm.  These sups (by the Frobenius bound ||M||_2 <= ||M||_F) and
the constants of :mod:`sectorcalc.hypo` share one kernel,
:func:`certified_maxima`: exact norms only where an upper bound can still
reach a running max, each max the same float as that of the full norm table.
A table's mirror conj v(x, -xi) is :func:`conj_mirror`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsl import _as_multi
from .errors import GridMismatchError, SectorcalcError
from .util import japanese_bracket

# Relative slack on a certified upper bound of a spectral norm before it is
# compared with an exact norm: it covers the rounding of both, which decides
# the comparison where the bound is attained (||M||_F = ||M||_2 at rank one).
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the n-torus with a symmetric frequency window.

    Parameters
    ----------
    n : int
        Space dimension, 1 or 2 (the dense oracle makes n >= 3 intractable).
    points : int
        Points per axis P (power of two); x_i = 2*pi*i/P.
    xi_max : int, optional
        Window half-width Xi >= 0; defaults to P/2 - 1, the largest window
        with no aliasing (P >= 2*Xi + 2).
    """

    n: int
    points: int
    xi_max: int = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        P = self.points
        if P < 4 or (P & (P - 1)) != 0:
            raise ValueError(f"points per axis must be a power of two >= 4, got {P}")
        if self.xi_max is None:
            object.__setattr__(self, "xi_max", P // 2 - 1)
        elif self.xi_max < 0:
            raise ValueError(f"window half-width xi_max must be >= 0, got {self.xi_max}")
        if self.points < 2 * self.xi_max + 2:
            raise ValueError(
                f"points={self.points} < 2*xi_max+2={2 * self.xi_max + 2}: window would alias")

    # -- axes and meshes ------------------------------------------------------

    @property
    def x_axis(self):
        return 2.0 * np.pi * np.arange(self.points) / self.points

    @property
    def xi_axis(self):
        return np.arange(-self.xi_max, self.xi_max + 1, dtype=float)

    @property
    def modes_per_axis(self):
        return 2 * self.xi_max + 1

    @property
    def x_shape(self):
        return (self.points,) * self.n

    @property
    def xi_shape(self):
        return (self.modes_per_axis,) * self.n

    @property
    def n_modes(self):
        return self.modes_per_axis ** self.n

    def x_mesh(self):
        """x coordinate arrays broadcastable over x_shape + xi_shape."""
        out = []
        for ax in range(self.n):
            shape = [1] * (2 * self.n)
            shape[ax] = self.points
            out.append(self.x_axis.reshape(shape))
        return tuple(out)

    def xi_mesh(self):
        out = []
        for ax in range(self.n):
            shape = [1] * (2 * self.n)
            shape[self.n + ax] = self.modes_per_axis
            out.append(self.xi_axis.reshape(shape))
        return tuple(out)

    def mode_vectors(self):
        """All window mode vectors, lexicographic, shape (n_modes, n)."""
        grids = np.meshgrid(*([self.xi_axis.astype(int)] * self.n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def xi_norm(self):
        """|xi| (Euclidean) per window node, shape xi_shape."""
        mesh = np.meshgrid(*([self.xi_axis] * self.n), indexing="ij")
        return np.sqrt(sum(m * m for m in mesh))

    def bracket_xi(self):
        """<xi> = (1+|xi|^2)^(1/2) per window node, shape xi_shape."""
        return japanese_bracket(self.xi_norm())


def _spectral_norms(values):
    """Pointwise matrix modulus: |a(x,xi)| as the spectral norm.

    For k > 1 this takes the Gram-matrix eigenvalue path, cheaper than a
    stacked SVD: the square root of the largest eigenvalue of a^H a, clipped
    at 0 so that a zero matrix gives exactly 0.  The Gram matrix is written
    out entrywise in its lower triangle, the only part ``eigvalsh`` reads.
    """
    k = values.shape[-1]
    if k == 1:
        return np.abs(values[..., 0, 0])
    gram = np.zeros(values.shape, dtype=complex)
    for i in range(k):
        for j in range(i + 1):
            for m in range(k):
                gram[..., i, j] += values[..., m, i].conj() * values[..., m, j]
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def pointwise_inverse(a, lam):
    """(a - lam)^{-1} of every k x k block of a component-major (k, k, ...)
    stack; lam is a scalar or broadcasts over the trailing node axes.

    Gaussian elimination with partial pivoting on [a - lam | 1], vectorized
    over the nodes, as LAPACK's getrf + getrs runs it on each block (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 9 and 14): the pivot
    is the first row of largest |Re| + |Im|, multipliers and the back
    substitution take the pivot's reciprocal, and the back substitution runs
    column by column.  Rows are exchanged, in both halves, by ``np.where``
    and only where some node needs it.  An exactly zero pivot raises
    ``numpy.linalg.LinAlgError``, as a stacked LAPACK inverse does; a NaN
    block gives NaN.  Returns a component-major view of shape (k, k, ...).
    """
    k = a.shape[0]
    work = np.zeros((k, 2 * k) + np.broadcast_shapes(a.shape[2:], np.shape(lam)),
                    dtype=complex)
    work[:, :k] = a
    for i in range(k):
        work[i, i] -= lam
        work[i, k + i] = 1.0
    recips = []
    for c in range(k):
        if c + 1 < k:
            mag = np.abs(work[c:, c].real) + np.abs(work[c:, c].imag)
            best, pivot = mag[0], np.zeros(mag.shape[1:], dtype=np.intp)
            for r in range(1, k - c):
                pivot[mag[r] > best] = r  # strict: the first largest row wins
                best = np.maximum(best, mag[r])
            for r in range(1, k - c):
                swap = pivot == r
                if np.any(swap):
                    top, other = work[c, c:], work[c + r, c:]
                    work[c, c:], work[c + r, c:] = (np.where(swap, other, top),
                                                    np.where(swap, top, other))
        if not np.all(work[c, c]):
            raise np.linalg.LinAlgError("Singular matrix")
        recips.append(1.0 / work[c, c])
        mult = work[c + 1:, c] * recips[c]
        work[c + 1:, c + 1:] -= mult[:, None] * work[c, None, c + 1:]
    inv = work[:, k:]
    for r in range(k - 1, -1, -1):
        inv[r] *= recips[r]
        inv[:r] -= work[:r, r, None] * inv[r]
    return inv


def conj_mirror(values):
    """conj v(x, -xi) of a node-shaped table: its n xi axes reversed (the
    window is symmetric), its entries conjugated."""
    n = values.ndim // 2 - 1
    return np.flip(values, axis=tuple(range(n, 2 * n))).conj()


class GridSymbol:
    """A symbol tabulated on a :class:`TorusGrid`.

    ``values`` has shape ``x_shape + xi_shape + (k, k)`` (k=1 for scalars)
    and is immutable by convention after construction.  A table carries no
    class parameters: the weighted sups take the weight as an argument.
    """

    __slots__ = ("grid", "k", "values")

    def __init__(self, grid, values, check=True):
        values = np.asarray(values, dtype=complex)
        if values.shape[-1] != values.shape[-2]:
            raise ValueError("trailing axes must be square (k, k)")
        expected = grid.x_shape + grid.xi_shape + values.shape[-2:]
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != expected {expected}")
        if check and not np.all(np.isfinite(values)):
            raise SectorcalcError("tabulated symbol contains non-finite entries")
        self.grid = grid
        self.k = values.shape[-1]
        self.values = values

    # -- algebra, pointwise ---------------------------------------------------

    def __sub__(self, other):
        if self.grid != other.grid or self.k != other.k:
            raise GridMismatchError("operands live on different grids")
        return GridSymbol(self.grid, self.values - other.values, check=False)

    # -- norms ----------------------------------------------------------------

    def spectral_norms(self):
        return _spectral_norms(self.values)

    def sup_norm(self, interior_margin=0):
        """sup over grid nodes of the pointwise matrix modulus.

        ``interior_margin`` restricts the sup to window modes at least that
        far from the window edge (composition outputs are only faithful
        there).
        """
        return class_weighted_sup(self, 0.0, interior_margin)


def sample(expr, grid):
    """Tabulate a :class:`SymbolExpr` on the grid.

    ``values[i, j] = expr(x_i, xi_j)``; evaluation failures (non-finite
    values) raise.
    """
    if expr.n != grid.n:
        raise GridMismatchError(f"symbol dimension {expr.n} != grid dimension {grid.n}")
    values = expr.eval(grid.x_mesh(), grid.xi_mesh())
    values = np.broadcast_to(values, grid.x_shape + grid.xi_shape + (expr.k, expr.k))
    return GridSymbol(grid, np.ascontiguousarray(values))


def grid_seminorm(gs, alpha, beta, class_params, interior_margin=0):
    """Seminorm of a tabulated symbol (no expression available).

    x-derivatives are spectral (exact for window-band-limited content);
    xi-derivatives use lattice central differences, so this is a
    validation-grade estimate, adequate for ratio/stability diagnostics.
    """
    class_params.validate()
    alpha = _as_multi(alpha, gs.grid.n)
    beta = _as_multi(beta, gs.grid.n)
    vals = gs.values
    for ax, order in enumerate(beta):
        vals = spectral_Dx(vals, gs.grid, ax, order)
    for ax, order in enumerate(alpha):
        for _ in range(order):
            vals = np.gradient(vals, 1.0, axis=gs.grid.n + ax)
    return class_weighted_sup(GridSymbol(gs.grid, vals, check=False),
                              class_params.xi_weight_exponent(alpha, beta),
                              interior_margin)


def class_weighted_sup(gs, weight_exponent, interior_margin=0):
    """sup over (interior) nodes of |p(x, xi)| <xi>^weight_exponent.

    With weight_exponent = -(order of p's class) this is the q_{0,0}
    seminorm of the class, the quantity the decay statements are about.
    ``interior_margin`` keeps only window modes at least that far from the
    window edge.  :func:`class_weighted_sups` takes several exponents in
    one pass.
    """
    return class_weighted_sups(gs, (weight_exponent,), interior_margin)[0]


def class_weighted_sups(gs, weight_exponents, interior_margin=0):
    """[:func:`class_weighted_sup` of gs at each of ``weight_exponents``],
    the same floats, from one pass over the nodes.

    For k > 1 the Frobenius norms of all nodes are formed from views of the
    values, with no copy of the (..., k, k) stack; they bound the spectral
    norms from above, and :func:`certified_maxima` takes exact norms only
    where some weighted bound can still reach its sup.  A non-finite
    Frobenius norm at any node falls back to the full norm table, so NaN and
    inf propagate as they do there.
    """
    g = gs.grid
    window = _window_slices(g, interior_margin)
    ws = [(g.bracket_xi() ** e)[window[g.n:]] for e in weight_exponents]
    if gs.k > 1:
        frob2 = sum(np.einsum("...ij,...ij->...", part, part)
                    for part in (gs.values.real, gs.values.imag))
        if np.all(np.isfinite(frob2)):
            vals = gs.values[window]
            best = [0.0] * len(ws)
            certified_maxima(best, np.sqrt(frob2[window]),
                             lambda nodes: _spectral_norms(vals[nodes]),
                             [(1.0, w) for w in ws])
            return best
    norms = gs.spectral_norms()[window]
    return [float(np.max(norms * w)) for w in ws]


def certified_maxima(best, bound, exact, factors):
    """Raise ``best[t]`` to the max over nodes of da * r * w, for the t-th
    (da, w) in ``factors``, where r >= 0 is a per-node quantity.

    ``bound`` is a finite upper bound of r per node, and ``exact(nodes)``
    returns r at the nodes of a boolean mask of ``bound``'s shape, in the
    mask's order, each the float the full table holds there (LAPACK treats
    each matrix of a stack on its own).  da and w broadcast to that shape.  r is taken first at
    each output's top-bound node, then only at the nodes where some output's
    bound da * bound * w, with ``BOUND_SLACK`` relative slack, still reaches
    its running max.  Every running max stays an attained product, so the
    maxima are the same floats as those of the full table of r.
    """
    factors = [(np.broadcast_to(da, bound.shape), np.broadcast_to(w, bound.shape))
               for da, w in factors]
    bounds = [da * bound * w for da, w in factors]

    def raise_at(nodes):
        r = exact(nodes)
        for t, (da, w) in enumerate(factors):
            best[t] = max(best[t], float(np.max(da[nodes] * r * w[nodes])))

    top = np.zeros(bound.shape, dtype=bool)
    for b in bounds:
        top.flat[np.argmax(b)] = True
    raise_at(top)
    keep = np.zeros(bound.shape, dtype=bool)
    for b, lower in zip(bounds, best):
        keep |= b * (1.0 + BOUND_SLACK) >= lower
    keep &= ~top
    if np.any(keep):
        raise_at(keep)


def _window_slices(g, interior_margin):
    """Index tuple of the (interior) window, the modes with
    |xi_axis| <= Xi - interior_margin on every axis, as basic slices, so
    indexing a table with it gives a view."""
    if interior_margin <= 0:
        return (slice(None),) * (2 * g.n)
    keep = np.flatnonzero(np.abs(g.xi_axis) <= g.xi_max - interior_margin)
    if keep.size == 0:
        raise ValueError(f"interior margin {interior_margin} leaves no "
                         f"window modes (half-width {g.xi_max})")
    return (slice(None),) * g.n + (slice(keep[0], keep[-1] + 1),) * g.n


def spectral_Dx(vals, grid, axis, order):
    """(D_x)^order = (-i d_x)^order along one x-axis: multiplier m^order on mode m.

    The D_x and d_x conventions differ by the unit factor (-i)^order, which
    no spectral norm sees.
    """
    if order == 0:
        return vals
    freqs = np.fft.fftfreq(grid.points, d=1.0 / grid.points)
    shape = [1] * vals.ndim
    shape[axis] = grid.points
    spec = np.fft.fft(vals, axis=axis)
    return np.fft.ifft(spec * freqs.reshape(shape) ** order, axis=axis)

