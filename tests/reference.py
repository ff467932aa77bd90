"""Independent reference implementations the tests check the package against.

None of these runs in a CLI stage or an acceptance criterion: each is a
second route to a quantity the package computes another way (FFT
application against the dense matrix, the deformed contour against the
straight rays, the composite Gauss-Legendre contour against the
trapezoid lattice, the two-ray Dunford sum against the mirrored one, the full norm tables against the certified sups and maxima,
exact-derivative seminorms, every find_R point against the early-stopping
walk, Horner's Neumann sum against binary splitting, products counted as
they are formed), or a stated paper construct that only a test exercises.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

import sectorcalc as sc
from sectorcalc import parametrix
from sectorcalc.densela import norm_bound
from sectorcalc.errors import GridMismatchError
from sectorcalc.dsl import _as_multi
from sectorcalc.grid import _spectral_norms, class_weighted_sup, pointwise_inverse


def unit_symbol(grid, k=1):
    """The constant symbol 1 (identity matrix for k > 1)."""
    values = np.zeros(grid.x_shape + grid.xi_shape + (k, k), dtype=complex)
    idx = np.arange(k)
    values[..., idx, idx] = 1.0
    return sc.GridSymbol(grid, values, check=False)


# ---------------------------------------------------------------------------
# Grid functions: samples <-> window-mode coefficients, and op(a) u by FFT
# ---------------------------------------------------------------------------

def analyze(op, u):
    """Grid samples -> window-mode coefficient vector of ``op`` (Nyquist dropped)."""
    g = op.grid
    u = np.asarray(u, dtype=complex)
    if op.k > 1:
        if u.shape != g.x_shape + (op.k,):
            raise GridMismatchError(f"expected samples of shape {g.x_shape + (op.k,)}")
        hat = np.fft.fftn(u, axes=tuple(range(g.n))) / g.points ** g.n
    else:
        if u.shape != g.x_shape:
            raise GridMismatchError(f"expected samples of shape {g.x_shape}")
        hat = (np.fft.fftn(u) / g.points ** g.n)[..., None]
    modes = g.mode_vectors() % g.points
    coeffs = hat[tuple(modes[:, ax] for ax in range(g.n))]
    return coeffs.reshape(-1)


def synthesize(op, coeffs):
    """Window-mode coefficient vector -> grid samples."""
    g = op.grid
    coeffs = np.asarray(coeffs, dtype=complex).reshape(g.n_modes, op.k)
    hat = np.zeros(g.x_shape + (op.k,), dtype=complex)
    modes = g.mode_vectors() % g.points
    hat[tuple(modes[:, ax] for ax in range(g.n))] = coeffs
    u = np.fft.ifftn(hat, axes=tuple(range(g.n))) * g.points ** g.n
    return u if op.k > 1 else u[..., 0]


def apply_dense(op, u):
    """Apply the quantized operator by its matrix on the mode coefficients of u."""
    return synthesize(op, op.matrix @ analyze(op, u))


def phase_table(grid):
    """e^{i x.xi} over x-nodes times window modes."""
    x, xi = grid.x_axis, grid.xi_axis
    if grid.n == 1:
        return np.exp(1j * x[:, None] * xi[None, :])
    ph1 = np.exp(1j * x[:, None] * xi[None, :])
    return np.einsum("pm,qn->pqmn", ph1, ph1)


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
    phase = phase_table(g)
    if g.n == 1:
        out = np.einsum("pmrc,pm,mc->pr", a.values, phase, coeffs)
    else:
        out = np.einsum("pqmnrc,pqmn,mnc->pqr", a.values, phase, coeffs)
    out_hat = np.fft.fftn(out, axes=tuple(range(g.n))) / g.points ** g.n
    window = np.zeros_like(out_hat)
    window[idx] = out_hat[idx]
    out = np.fft.ifftn(window, axes=tuple(range(g.n))) * g.points ** g.n
    return out if vector_valued else out[..., 0]


# ---------------------------------------------------------------------------
# Symbol-side references
# ---------------------------------------------------------------------------

def seminorm(expr, alpha, beta, class_params, grid):
    """Grid seminorm q_{alpha,beta}: sup |d^a_xi d^b_x a| <xi>^(-m+rho|a|-delta|b|).

    Derivatives are exact (expression-tree differentiation); the sup runs
    over the grid window, so the value is a certified lower bound for the
    continuum seminorm.
    """
    class_params.validate()
    deriv = expr.diff(alpha, beta)
    return class_weighted_sup(sc.sample(deriv, grid), class_params.xi_weight_exponent(
        _as_multi(alpha, grid.n), _as_multi(beta, grid.n)))


def full_table_sup(gs, weight_exponent, interior_margin=0):
    """class_weighted_sup from the full table of pointwise spectral norms,
    with the interior window as a boolean mask of the modes with
    |xi_axis| <= Xi - interior_margin on every axis."""
    g = gs.grid
    w = g.bracket_xi() ** weight_exponent
    norms = _spectral_norms(gs.values) * w.reshape((1,) * g.n + g.xi_shape)
    if interior_margin > 0:
        keep = np.abs(g.xi_axis) <= g.xi_max - interior_margin
        mask = np.logical_and.reduce(np.meshgrid(*([keep] * g.n), indexing="ij"))
        if not np.any(mask):
            raise ValueError(f"interior margin {interior_margin} leaves no "
                             f"window modes (half-width {g.xi_max})")
        norms = norms[(slice(None),) * g.n + (mask,)]
    return float(np.max(norms))


def pointwise_resolvent_norms(values, lam, inverse=None):
    """||(a(x,xi) - lam)^{-1}|| per node (spectral norm), vectorized in lam.

    For k > 1 the inverse is the package's :func:`grid.pointwise_inverse`,
    the one hypo takes, so that a full norm table holds the same floats as
    the certified maxima; ``inverse="lapack"`` takes the stacked LAPACK
    inverse instead.  Either way an exactly singular node raises
    ``numpy.linalg.LinAlgError`` for the whole stack.
    """
    k = values.shape[-1]
    lam = np.asarray(lam, dtype=complex)
    if k == 1:
        return 1.0 / np.abs(values[..., 0, 0] - lam)
    if inverse == "lapack":
        return _spectral_norms(np.linalg.inv(values - lam[..., None, None] * np.eye(k)))
    inv = pointwise_inverse(np.moveaxis(values, (-2, -1), (0, 1)), lam)
    return _spectral_norms(np.moveaxis(inv, (0, 1), (-2, -1)))


# ---------------------------------------------------------------------------
# Functional calculus references
# ---------------------------------------------------------------------------

def gl_contour(sector, r_min, r_max, per_decade):
    """The composite Gauss-Legendre contour the trapezoid lattice replaced:
    ``per_decade`` nodes on each panel of log10 r, about one decade wide,
    over exactly [r_min, r_max] on both rays, oriented as ``build_contour``'s
    (down the upper ray, out along the lower).  Its rays start at r_min
    itself, which no lattice contour does; it has no step."""
    def ray(theta_ray):
        s_lo, s_hi = np.log10(r_min), np.log10(r_max)
        edges = np.linspace(s_lo, s_hi, max(1, int(np.ceil(s_hi - s_lo))) + 1)
        t, w = leggauss(per_decade)
        phase = np.exp(1j * theta_ray)
        nodes, weights = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            r = 10.0 ** (mid + half * t)
            nodes.append(r * phase)
            weights.append(phase * np.log(10.0) * r * w * half)
        return np.concatenate(nodes), np.concatenate(weights)

    up_n, up_w = ray(sector.theta)
    lo_n, lo_w = ray(-sector.theta)
    return sc.Contour(theta=sector.theta, r_min=r_min, r_max=r_max, step=None,
                      nodes=np.concatenate([up_n, lo_n]),
                      weights=np.concatenate([-up_w, lo_w]))


def two_ray_dunford(A, f, contour):
    """(i/2 pi) sum_q w_q f(lambda_q) inv(A - lambda_q), one ``np.linalg.inv``
    per node of both rays: no chunk, no shared node, no mirror."""
    M = A.matrix if isinstance(A, sc.QuantOp) else np.asarray(A, dtype=complex)
    eye = np.eye(len(M), dtype=complex)
    out = np.zeros_like(M)
    for lam, w in zip(contour.nodes, contour.weights):
        out += w * f(lam) * np.linalg.inv(M - lam * eye)
    return 1j / (2.0 * np.pi) * out


def resolvent_quotient(mu):
    """f_mu(z) = z / ((mu - z)(1 + z)); mu must lie inside the sector so the
    pole stays off the sector complement."""
    def fn(z):
        z = np.asarray(z, dtype=complex)
        return z / ((mu - z) * (1.0 + z))
    return sc.HFun(fn, d=1.0, name=f"resolvent_quotient {mu!r}")


def bn_f_deformed(calc, f, R):
    """The b^N part over the boundary rays beyond R, on the per-point
    deformed contour: in along the lower ray to radius 2|a(x,xi)|,
    counterclockwise about the origin on that arc, out along the upper ray
    (24 Gauss-Legendre nodes per ray piece, 48 on the arc).  Agreement with the
    straight rays |lambda| >= R is the numerical face of the
    contour-deformation argument; the arc length scaling is what bounds the
    b^N part by ||f||_inf."""
    theta = calc.sector.theta
    rho = 2.0 * calc.a_tab.spectral_norms()
    if np.min(rho) <= 0:
        raise ValueError("symbol vanishes somewhere; no deformed contour")
    if R <= float(np.max(rho)):
        raise ValueError(f"R={R!r} must exceed 2 sup|a| = {float(np.max(rho))!r}")
    t_ray, w_ray = leggauss(24)
    t_arc, w_arc = leggauss(48)
    nodes, weights = [], []
    s_lo, s_hi = np.log(rho), np.log(R) * np.ones_like(rho)
    half, mid = 0.5 * (s_hi - s_lo), 0.5 * (s_hi + s_lo)
    for tq, wq in zip(t_ray, w_ray):
        r = np.exp(mid + half * tq)
        for sign in (-1.0, 1.0):
            phase = np.exp(sign * 1j * theta)
            nodes.append(r * phase)
            weights.append(sign * phase * r * wq * half)
    for tq, wq in zip(t_arc, w_arc):
        lam = rho * np.exp(1j * tq * theta)  # angle from -theta to +theta
        nodes.append(lam)
        weights.append(1j * lam * wq * theta)
    return sc.bn_part(calc, f, nodes, weights)


# ---------------------------------------------------------------------------
# Term-algebra references
# ---------------------------------------------------------------------------

def apply_dxi(terms, alpha, n):
    """d^alpha_xi of a parametrix term list, by the product rule with
    d_xi b_0 = -b_0 (d_xi a) b_0: the xi-derivative the left recursion
    needs, which the calculator's x-only recursion never takes."""
    b0 = ("b0",)

    def bump(idx, axis):
        return tuple(o + (i == axis) for i, o in enumerate(idx))

    zero = (0,) * n
    for axis, order in enumerate(alpha):
        for _ in range(order):
            acc = {}
            for coeff, factors in terms:
                for pos, f in enumerate(factors):
                    head, tail = factors[:pos], factors[pos + 1:]
                    if f == b0:
                        key = head + (b0, ("da", bump(zero, axis), zero), b0) + tail
                        c = -coeff
                    else:
                        key, c = head + (("da", bump(f[1], axis), f[2]),) + tail, coeff
                    acc[key] = acc.get(key, 0.0 + 0.0j) + c
            terms = [(c, f) for f, c in sorted(acc.items()) if abs(c) > 1e-300]
    return terms


# ---------------------------------------------------------------------------
# Parametrix-stage references
# ---------------------------------------------------------------------------

def find_R_all_points(calc):
    """The invertibility radius from all 42 boundary points: every point's
    remainder matrix is formed and decided by ``norm_bound``, with no early
    stop and no mirror bound."""
    radii = parametrix._R_CANDIDATES
    passed = [norm_bound(calc.remainder(lam).matrix, 0.5) <= 0.5
              for lam in calc.sector.ray_points(radii)]
    for candidate in radii:
        if all(ok for rad, ok in zip(np.repeat(radii, 2), passed)
               if rad >= candidate):
            return candidate
    raise sc.SectorcalcError(f"no invertibility radius R <= {radii[-1]:g}")


def neumann_horner(r_mat, K):
    """sum_{j<=K} (-r)^j by Horner's rule S <- 1 - r S, K products."""
    eye = np.eye(r_mat.shape[0], dtype=complex)
    series = eye.copy()
    for _ in range(K):
        series = eye - r_mat @ series
    return series


def products_formed(fn, matrix, *args):
    """(fn(matrix, *args), the matrix products fn formed).

    ``matrix`` is passed as an ndarray subclass that counts every np.matmul
    (``@``) it, or any array computed from it, takes part in; the result is
    returned as a plain ndarray."""
    count = [0]

    def plain(arrays):
        return tuple(x.view(np.ndarray) if isinstance(x, Counting) else x
                     for x in arrays)

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            count[0] += ufunc is np.matmul
            if out is not None:
                getattr(ufunc, method)(*plain(inputs), out=plain(out), **kwargs)
                return out[0] if len(out) == 1 else out
            result = getattr(ufunc, method)(*plain(inputs), **kwargs)
            return result.view(Counting) if isinstance(result, np.ndarray) else result

    out = fn(matrix.view(Counting), *args)
    return out.view(np.ndarray), count[0]
