"""Quantization on the discrete torus and the Leibniz product.

A tabulated symbol a(x, xi) becomes the operator

    (op(a) u)(x) = sum_{xi in window} e^{i x.xi} a(x, xi) u_hat(xi),

realized as a dense matrix in the Fourier-mode basis of the window
{-Xi..Xi}^n (dimension k * (2Xi+1)^n).  In that basis ``quantize(1)`` is the
identity matrix exactly, Fourier multipliers are diagonal, and e^{i x.e_j}
is a mode shift truncated at the window edge.  Composition of operators is
exact finite matrix algebra; the truncated Leibniz expansion is compared
against it.

Faithfulness caveat: ``quantize(extract_symbol(A)) == A`` holds to machine
precision for every matrix, while ``extract_symbol(quantize(a)) == a`` holds
where the x-frequency content of a(., xi), shifted by xi, stays inside the
window - i.e. for x-trigonometric symbols of degree B at modes
|xi| <= Xi - B (exactly, for x-independent symbols).  Compositions are
asserted on the interior window |xi| <= Xi - K for the same reason: mode
shifts leak past the truncation at the edge.  The mode layout's mirror is
:func:`mode_mirror`, and :func:`mirror_holds` decides whether an operator is
its own mirror; :func:`fft_rounding` bounds the rounding of the DFT.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, SectorcalcError
from .grid import GridSymbol, sample, spectral_Dx
from .util import multi_factorial, multi_indices_below


class QuantOp:
    """Dense realization of op(a) on window-mode coefficient vectors.

    The matrix has shape (k*M, k*M) with M = (2Xi+1)^n; row/column index is
    ``mode_flat * k + component``.  Instances are immutable by convention.
    """

    __slots__ = ("grid", "k", "matrix")

    def __init__(self, grid, k, matrix):
        dim = k * grid.n_modes
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} != ({dim}, {dim})")
        self.grid = grid
        self.k = k
        self.matrix = matrix

    def __matmul__(self, other):
        if not isinstance(other, QuantOp):
            return NotImplemented
        if self.grid != other.grid or self.k != other.k:
            raise GridMismatchError("cannot compose operators from different grids")
        return QuantOp(self.grid, self.k, self.matrix @ other.matrix)


@lru_cache(maxsize=8)
def _index_arrays(grid):
    """Gather/scatter index arrays between DFT bins and matrix entries.

    Entry (row mode eta_p, column mode xi_q) corresponds to the x-DFT bin
    (eta_p - xi_q) mod P of the tabulation column xi_q; the map is injective
    per column because the window spans fewer than P modes per axis.
    Cached per grid and shared, so the arrays are read-only.
    """
    modes = grid.mode_vectors()
    diff = (modes[:, None, :] - modes[None, :, :]) % grid.points
    idx = tuple(diff[..., ax] for ax in range(grid.n))
    idx += (np.arange(grid.n_modes)[None, :],)
    for arr in idx:
        arr.flags.writeable = False
    return idx


_MAX_DENSE_DIM = 512
_EPS = np.finfo(float).eps
# Relative bound on max|A - P conj(A) P| for a conjugate-symmetric operator.
_MIRROR_TOL = 64 * _EPS


def quantize(a):
    """Exact dense operator of a tabulated symbol.

    Columns realize op(a) on the Fourier modes: op(a) e_xi = e^{i x.xi} a(x, xi),
    expanded over the window modes via the x-DFT of a(., xi).  Dimension is
    capped at 512 so LU solves stay sub-second per contour node.  A DFT that
    overflows (a symbol too large for doubles) is a SectorcalcError.
    """
    g = a.grid
    if a.k * g.n_modes > _MAX_DENSE_DIM:
        raise GridMismatchError(
            f"operator dimension {a.k * g.n_modes} exceeds the desk-scale cap "
            f"{_MAX_DENSE_DIM}; shrink the grid or matrix size")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        fft = np.fft.fftn(a.values, axes=tuple(range(g.n))) / g.points ** g.n
    if not np.all(np.isfinite(fft)):
        raise SectorcalcError("quantized symbol is not finite (symbol too large "
                              "for double precision)")
    fft = fft.reshape((g.points,) * g.n + (g.n_modes, a.k, a.k))
    block = fft[_index_arrays(g)]
    matrix = block.transpose(0, 2, 1, 3).reshape(a.k * g.n_modes, a.k * g.n_modes)
    return QuantOp(g, a.k, matrix)


def fft_rounding(grid):
    """t eta / (1 - t eta) >= ||fl(F x) - F x||_2 / ||F x||_2 for the DFT F
    of size P^n that :func:`quantize` computes, t = n log2 P: Higham's bound
    for a power-of-two FFT (Accuracy and Stability of Numerical Algorithms,
    Thm. 24.2), with eta = mu + gamma_4 (sqrt(2) + mu) and twiddle factors
    within mu = eps."""
    t = grid.n * np.log2(grid.points)
    eta = _EPS + 2 * _EPS / (1 - 2 * _EPS) * (np.sqrt(2) + _EPS)
    return float(t * eta / (1 - t * eta))


def mode_mirror(matrix, k):
    """P conj(M) P, P the mode permutation xi -> -xi: the quantization of
    the :func:`grid.conj_mirror` of M's symbol.  The modes are lexicographic
    over a symmetric window, so P reverses the flat mode order; each k x k
    block is conjugated in place, not transposed."""
    m = len(matrix) // k
    return np.flip(matrix.reshape(m, k, m, k), axis=(0, 2)).conj().reshape(m * k, m * k)


def mirror_holds(op):
    """Whether the operator ``op`` is its own :func:`mode_mirror`,
    max|A - P conj(A) P| <= 64 eps max|A|: then conj(A) = P A P and
    (A - conj lambda)^{-1} = P conj((A - lambda)^{-1}) P up to that
    asymmetry.  The one operator-level mirror decision: the parametrix
    calculator's gate and the Dunford engine's lower-ray fold both read it."""
    A = op.matrix
    return bool(np.max(np.abs(A - mode_mirror(A, op.k))) <= _MIRROR_TOL * np.max(np.abs(A)))


def extract_symbol(op):
    """Discrete inverse of quantize: a(x_i, xi_j) = e^{-i x_i.xi_j} (A e_{xi_j})(x_i)."""
    g = op.grid
    block = op.matrix.reshape(g.n_modes, op.k, g.n_modes, op.k).transpose(0, 2, 1, 3)
    fft = np.zeros((g.points,) * g.n + (g.n_modes, op.k, op.k), dtype=complex)
    fft[_index_arrays(g)] = block
    values = np.fft.ifftn(fft, axes=tuple(range(g.n))) * g.points ** g.n
    values = values.reshape(g.x_shape + g.xi_shape + (op.k, op.k))
    return GridSymbol(g, values, check=False)


def compose_exact(a, b):
    """The discrete Leibniz product a#b = extract(quantize(a) quantize(b)).

    Exact finite matrix algebra; faithful on the interior window (see the
    module docstring for the edge caveat).
    """
    if a.grid != b.grid or a.k != b.k:
        raise GridMismatchError("operands live on different grids")
    return extract_symbol(quantize(a) @ quantize(b))


def leibniz_truncated(a_expr, b, K):
    """Truncated Leibniz expansion sum_{|alpha|<K} (1/alpha!) d^alpha_xi a . D^alpha_x b.

    ``a_expr`` is a SymbolExpr (exact xi-derivatives); ``b`` is a
    GridSymbol.  D_x = -i d_x acts spectrally on the tabulation.
    """
    g = b.grid
    acc = np.zeros_like(b.values)
    for alpha in multi_indices_below(g.n, K):
        da = sample(a_expr.diff(alpha=alpha), g).values
        dxb = b.values
        for ax, order in enumerate(alpha):
            dxb = spectral_Dx(dxb, g, ax, order)
        acc = acc + np.einsum("...rs,...st->...rt", da, dxb) / multi_factorial(alpha)
    return GridSymbol(g, acc, check=False)
