"""Dense linear-algebra backend: LU resolvents, operator norms, FFT apply.

Everything here is deterministic: LU via LAPACK partial pivoting with one
step of iterative refinement, spectral norms via power iteration from a
fixed all-ones start vector.  Solves at distinct lambda are independent;
matrices are immutable by convention.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError, SingularOperatorError

RESIDUAL_TOL = 1e-12


def _as_matrix(A):
    return A.matrix if hasattr(A, "matrix") else np.asarray(A, dtype=complex)


def solve_refined(M, B):
    """Solve M X = B with one step of iterative refinement."""
    try:
        X = np.linalg.solve(M, B)
        X = X + np.linalg.solve(M, B - M @ X)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(f"LU solve failed: {exc}") from exc
    return X


def inverse_refined(M):
    """Inverse with refinement; returns (X, residual) with residual = max|MX - I|."""
    eye = np.eye(M.shape[0], dtype=complex)
    X = solve_refined(M, eye)
    residual = float(np.max(np.abs(M @ X - eye)))
    if residual > RESIDUAL_TOL:
        raise SingularOperatorError(
            f"inverse residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}; "
            "matrix is numerically singular")
    return X, residual


def dense_resolvent(A, lam):
    """(A - lam)^{-1} by partial-pivot LU with one refinement step.

    Raises :class:`SingularOperatorError` when the residual stays above
    ``RESIDUAL_TOL`` - the lambda is then flagged as (near-)spectrum.
    """
    M = _as_matrix(A)
    shifted = M - lam * np.eye(M.shape[0], dtype=complex)
    try:
        X, _ = inverse_refined(shifted)
    except SingularOperatorError as exc:
        raise SingularOperatorError(
            f"resolvent at lambda={lam!r}: {exc} (lambda near the spectrum)") from exc
    return X


def operator_norm(A, tol=1e-8, maxiter=5000, return_info=False):
    """Spectral norm by power iteration on A*A.

    Deterministic all-ones start vector; stops when successive estimates
    agree to relative ``tol``.  On hitting the iteration cap the best
    estimate is returned with ``converged=False`` (use ``return_info``).
    """
    M = _as_matrix(A)
    dim = M.shape[0]
    v = np.ones(dim, dtype=complex) / np.sqrt(dim)
    MH = M.conj().T
    prev = None
    converged = False
    iterations = 0
    s = 0.0
    for iterations in range(1, maxiter + 1):
        w = M @ v
        s = float(np.linalg.norm(w))
        if s == 0.0:
            converged = True
            break
        u = MH @ w
        nu = np.linalg.norm(u)
        if nu == 0.0:
            converged = True
            break
        v = u / nu
        if prev is not None and abs(s - prev) <= tol * s:
            converged = True
            break
        prev = s
    if return_info:
        return s, converged, iterations
    return s


def apply_fft(a, u):
    """Apply op(a) to grid samples via forward FFT and a per-x multiplier sum.

    Independent of the dense matrix path: u_hat is gathered on the window
    modes, (op(a) u)(x) = sum_xi e^{i x.xi} a(x, xi) u_hat(xi) is summed
    directly, and the result is read back through the window basis (the
    operator's output lives on window modes; the raw pointwise product would
    alias its out-of-window content onto the sample grid).  Agrees with the
    dense matrix-vector product to rounding.
    """
    g = a.grid
    u = np.asarray(u, dtype=complex)
    vector_valued = a.k > 1
    expected = g.x_shape + (a.k,) if vector_valued else g.x_shape
    if u.shape != expected:
        raise GridMismatchError(f"expected samples of shape {expected}, got {u.shape}")
    hat = np.fft.fftn(u, axes=tuple(range(g.n))) / g.points ** g.n
    if not vector_valued:
        hat = hat[..., None]
    modes = g.mode_vectors() % g.points
    idx = tuple(modes[:, ax] for ax in range(g.n))
    coeffs = hat[idx].reshape(g.xi_shape + (a.k,))
    phase = _phase_table(g)
    if g.n == 1:
        out = np.einsum("pmrc,pm,mc->pr", a.values, phase, coeffs)
    else:
        out = np.einsum("pqmnrc,pqmn,mnc->pqr", a.values, phase, coeffs)
    out_hat = np.fft.fftn(out, axes=tuple(range(g.n))) / g.points ** g.n
    window = np.zeros_like(out_hat)
    window[idx] = out_hat[idx]
    out = np.fft.ifftn(window, axes=tuple(range(g.n))) * g.points ** g.n
    return out if vector_valued else out[..., 0]


def _phase_table(grid):
    """e^{i x.xi} over x-nodes times window modes."""
    x, xi = grid.x_axis, grid.xi_axis
    if grid.n == 1:
        return np.exp(1j * x[:, None] * xi[None, :])
    ph1 = np.exp(1j * x[:, None] * xi[None, :])
    return np.einsum("pm,qn->pqmn", ph1, ph1)


def resolvent_norm_sweep(A, sector, radii):
    """(lambda, ||(A-lambda)^{-1}||) along both boundary rays of the sector.

    Rows come in deterministic order: for each radius, the upper ray point
    then the lower ray point.
    """
    M = _as_matrix(A)
    return [(complex(lam), operator_norm(dense_resolvent(M, lam)))
            for lam in sector.ray_points(np.asarray(radii, dtype=float))]
