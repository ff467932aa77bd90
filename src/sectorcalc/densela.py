"""Dense linear-algebra backend: LU resolvents and operator norms.

Everything here is deterministic: the dense resolvent is one LAPACK
partial-pivot LU solve refined by a second, and every norm is exact where
it is reported.  :func:`operator_norm` is ||M||_2, the largest singular
value from one SVD, and the resolvent-norm sweep's norms are exact from the
smallest.  A decision that compares a norm with a threshold (Neumann
eligibility and length, the invertibility radius) takes :func:`norm_bound`,
an upper bound that is the exact norm wherever the comparison could go the
other way.  Solves at distinct lambda are independent; matrices are
immutable by convention.
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
    """Spectral norm ||A||_2, the largest singular value from one SVD.

    ``tol`` and ``maxiter`` have no effect, and ``return_info`` returns
    ``(norm, True, 0)``: they exist only for the benchmark tracer's norm
    wrapper, which passes them through and unpacks three values.
    """
    s = float(np.linalg.svd(getattr(A, "matrix", A), compute_uv=False)[0])
    return (s, True, 0) if return_info else s


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
    return bound if bound < t else operator_norm(M)


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
