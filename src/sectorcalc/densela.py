"""Dense linear-algebra backend: LU resolvents and operator norms.

Everything here is deterministic: the dense resolvent is one LAPACK
partial-pivot LU solve refined by a second, and the resolvent-norm sweep's
norms are exact from the smallest singular value.  Norms come in two kinds.
Power iteration from a fixed all-ones start vector (:func:`operator_norm`)
approaches ||M||_2 from below; it serves reported norms only.  A decision
that compares a norm with a threshold (Neumann eligibility and length, the
invertibility radius) takes :func:`norm_bound`, an upper bound that is the
exact norm wherever the comparison could go the other way.  Solves at
distinct lambda are independent; matrices are immutable by convention.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularOperatorError

RESIDUAL_TOL = 1e-12


def _as_matrix(A):
    return A.matrix if hasattr(A, "matrix") else np.asarray(A, dtype=complex)


def dense_resolvent(A, lam):
    """(A - lam)^{-1} by partial-pivot LU with one refinement step.

    Raises :class:`SingularOperatorError` when the LU solve fails or the
    residual max|(A - lam) X - I| exceeds ``RESIDUAL_TOL`` or is NaN - the
    lambda is then flagged as (near-)spectrum.
    """
    M = _as_matrix(A)
    eye = np.eye(M.shape[0], dtype=complex)
    shifted = M - lam * eye
    try:
        X = np.linalg.solve(shifted, eye)
        X = X + np.linalg.solve(shifted, eye - shifted @ X)
    except np.linalg.LinAlgError:
        residual = np.inf
    else:
        residual = float(np.max(np.abs(shifted @ X - eye)))
    if not residual <= RESIDUAL_TOL:
        raise SingularOperatorError(
            f"resolvent at lambda={lam!r}: inverse residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e} (lambda near the spectrum)")
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


def _hoelder_bounds(inv):
    """(||X||_1 ||X||_inf)^(1/2) per X of a (nodes, k, k) stack, an upper
    bound of ||X||_2 (Golub & Van Loan, Matrix Computations, 2.3)."""
    # |X| as (k, k, nodes), so both sums and maxima run over leading axes;
    # a view of a component-major stack
    mod = np.abs(inv.transpose(1, 2, 0))
    return np.sqrt(mod.sum(axis=0).max(axis=0) * mod.sum(axis=1).max(axis=0))


def norm_bound(M, t):
    """Certified upper bound of ||M||_2 for a comparison with ``t``.

    The smaller of ||M||_F and the Hoelder bound (||M||_1 ||M||_inf)^(1/2)
    when it is below ``t``; otherwise the exact norm from one SVD.  The
    result is never below ||M||_2 and equals it wherever it is at least
    ``t``, so comparing it with ``t`` decides ||M||_2 against ``t``.
    """
    bound = min(float(np.linalg.norm(M)), float(_hoelder_bounds(M[None])[0]))
    return bound if bound < t else float(np.linalg.norm(M, 2))


def resolvent_norm_sweep(A, sector, radii):
    """(lambda, ||(A-lambda)^{-1}||) along both boundary rays of the sector.

    Each norm is exact, 1/sigma_min(A - lambda) from one SVD.  Rows come in
    deterministic order: for each radius, the upper ray point then the lower
    ray point.  A lambda at which A - lambda is numerically singular
    (sigma_min <= dim * eps * sigma_max) raises :class:`SingularOperatorError`.
    """
    M = _as_matrix(A)
    lams = sector.ray_points(np.asarray(radii, dtype=float))
    sigma = np.linalg.svd(M - lams[:, None, None] * np.eye(M.shape[0]),
                          compute_uv=False)
    if np.any(sigma[:, -1] <= M.shape[0] * np.finfo(float).eps * sigma[:, 0]):
        raise SingularOperatorError("resolvent sweep: A - lambda numerically singular "
                                    "at a sample (lambda near the spectrum)")
    return [(complex(lam), float(1.0 / s)) for lam, s in zip(lams, sigma[:, -1])]
