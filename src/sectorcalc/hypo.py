"""Sectorial hypoellipticity checks and resolvent-bound constants.

The pointwise spectrum of a(x, xi) must avoid the sector and a disc at the
origin for |xi| >= C; the constants c_{alpha,beta} and c0 quantifying the
derivative-times-resolvent bounds are estimated as sups over the grid and a
log-uniform lambda sample cloud.  Pointwise eigenvalues come from one
stacked LAPACK call (a slice for scalar symbols); pointwise resolvent norms
are spectral norms of the stacked inverses on the |xi| >= C nodes.  For a
matrix symbol every constant is a max over (lambda, node) pairs, decided by
the package's one certified-maximum kernel, :func:`grid.certified_maxima`,
with the Hoelder bound ||X||_2 <= (||X||_1 ||X||_inf)^(1/2) of the inverse X:
the constants are the same floats as the maxima of the full norm table.
Derivatives that vanish at every node take no exact norms.  Failures are
data (collected in the report), not exceptions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .densela import _hoelder_bounds
from .grid import _spectral_norms, certified_maxima, sample
from .util import japanese_bracket, multi_indices_below

_MAX_STORED_VIOLATIONS = 1000
# Log-uniform lambda moduli per boundary ray in estimate_hypo_constants.
SAMPLES_PER_RAY = 16


def eigenvalues_grid(values):
    """Pointwise eigenvalues of a tabulated (..., k, k) symbol.

    k = 1 is a slice; every k >= 2 is one stacked LAPACK call.
    """
    if values.shape[-1] == 1:
        return values[..., 0, 0][..., None]
    return np.linalg.eigvals(values)


@dataclass
class HypoReport:
    """Outcome of the sectorial hypoellipticity checks.

    ``c_table`` maps (alpha, beta) to the estimated constant of the
    derivative-times-resolvent bound; ``c0`` is the empirical constant of
    the <lambda>-weighted resolvent bound outside the exclusion regions.
    """

    passed: bool
    theta: float
    c: float
    C: float
    k: int = 1
    c_table: dict = field(default_factory=dict)
    c0: float | None = None
    violations: list = field(default_factory=list)
    n_violations: int = 0
    extras: dict = field(default_factory=dict)

    def summary_text(self):
        lines = [
            f"hypoellipticity check: {'PASS' if self.passed else 'FAIL'}",
            f"sector theta = {self.theta!r}",
            f"spectral gap c = {self.c!r}, frequency cutoff C = {self.C!r}, k = {self.k}",
            f"violations: {self.n_violations}",
        ]
        for key in sorted(self.extras):
            lines.append(f"{key} = {self.extras[key]!r}")
        if self.c0 is not None:
            lines.append(f"c0 (resolvent bound constant) = {self.c0!r}")
        for (alpha, beta) in sorted(self.c_table):
            lines.append(f"c[alpha={alpha},beta={beta}] = {self.c_table[alpha, beta]!r}")
        lines.append("note: sups taken over the grid window only; membership is "
                     "certified on the window, not on continuous phase space")
        return "\n".join(lines)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["record", "detail", "value_re", "value_im"])
            writer.writerow(["passed", "", repr(1.0 if self.passed else 0.0), repr(0.0)])
            for name in ("theta", "c", "C"):
                writer.writerow(["param", name, repr(float(getattr(self, name))), repr(0.0)])
            for key in sorted(self.extras):
                writer.writerow(["extra", key, repr(float(self.extras[key])), repr(0.0)])
            if self.c0 is not None:
                writer.writerow(["param", "c0", repr(float(self.c0)), repr(0.0)])
            for (alpha, beta) in sorted(self.c_table):
                writer.writerow(["c_table", f"alpha={alpha};beta={beta}",
                                 repr(float(self.c_table[alpha, beta])), repr(0.0)])
            for x, xi, eig in self.violations:
                writer.writerow(["violation", f"x={x};xi={xi}",
                                 repr(float(eig.real)), repr(float(eig.imag))])


def check_spectrum(expr, sector, c, C, grid):
    """Verify that eigenvalues of a(x, xi) avoid the sector and the c-disc.

    Every grid node with |xi| >= C is checked; failing nodes are listed in
    the report (failures are data, not errors).  The check reads the
    eigenvalues only, so it takes no class parameters.
    """
    tab = sample(expr, grid)
    eigs = eigenvalues_grid(tab.values)
    mask = grid.xi_norm() >= C
    bad = (sector.contains(eigs) | (np.abs(eigs) <= c)) \
        & mask.reshape((1,) * grid.n + grid.xi_shape + (1,))
    n_bad = int(np.count_nonzero(bad))
    violations = []
    if n_bad:
        idx = np.argwhere(bad)
        x_axis, xi_axis = grid.x_axis, grid.xi_axis
        for row in idx[:_MAX_STORED_VIOLATIONS]:
            x = tuple(float(x_axis[i]) for i in row[:grid.n])
            xi = tuple(float(xi_axis[i]) for i in row[grid.n:2 * grid.n])
            violations.append((x, xi, complex(eigs[tuple(row)])))
    full_mask = np.broadcast_to(
        mask.reshape((1,) * grid.n + grid.xi_shape + (1,)), eigs.shape)
    masked_mod = np.abs(eigs)[full_mask]
    report = HypoReport(
        passed=n_bad == 0, theta=sector.theta, c=float(c), C=float(C),
        k=tab.k, violations=violations, n_violations=n_bad,
        extras={"min_eigen_modulus": float(np.min(masked_mod)) if masked_mod.size else np.inf,
                "xi_window": float(grid.xi_max)})
    return report


def _sample_maxima(best, values, lam, factors):
    """Raise ``best[t]`` to the max over nodes of da * r * w for the t-th
    (da, w) in ``factors``, and ``best[-1]``, one entry past them, to that of
    <lam> r, where r = ||(a(x, xi) - lam)^{-1}||_2 per node.

    For k > 1 each node's inverse X bounds its norm from above by
    h = (||X||_1 ||X||_inf)^(1/2), and :func:`certified_maxima` takes exact
    norms only where some output's bound can still reach its running max,
    with c0 as one more output.  A non-finite bound means a non-finite
    inverse, and that sample takes the full table.  Returns whether every
    norm is finite; a singular stack raises ``numpy.linalg.LinAlgError``.
    """
    k = values.shape[-1]
    scale = japanese_bracket(lam)
    if k == 1:
        # 1/|a - lam| is exact already: a bound would only add work
        rn = 1.0 / np.abs(values[..., 0, 0] - lam)
    else:
        lam = np.asarray(lam, dtype=complex)
        inv = np.linalg.inv(values - lam[..., None, None] * np.eye(k))
        h = _hoelder_bounds(inv)
        if np.all(np.isfinite(h)):
            certified_maxima(best, h, lambda nodes: _spectral_norms(inv[nodes]),
                             factors + [(scale, 1.0)])
            return True
        rn = _spectral_norms(inv)
    for t, (da, w) in enumerate(factors):
        best[t] = max(best[t], float(np.max(da * rn * w)))
    best[-1] = max(best[-1], float(scale * np.max(rn)))
    return bool(np.all(np.isfinite(rn)))


def estimate_hypo_constants(expr, sector, grid, class_params, report,
                            max_order=2):
    """Estimate c_{alpha,beta} and c0 and store them in the report.

    lambda samples: both boundary rays, log-uniform moduli from the gap c up
    to 10 sup|a|, plus lambda = 0 (all automatically outside the exclusion
    regions), plus exterior samples |lambda| = 2 sup|a| times 1, 2, 4 and 8
    on the rays arg in {0, +-theta/2} exercising the extension of the bound
    beyond the sector.  Doubling ``SAMPLES_PER_RAY`` should move the constants by
    less than a percent on admissible symbols.

    c_{alpha,beta} is the max over the in-sector samples and the |xi| >= C
    nodes of |d^alpha_xi d^beta_x a| ||(a - lambda)^{-1}|| times
    <xi>^(rho|alpha| - delta|beta|); c0 is the max over all samples of
    (1+|lambda|^2)^(1/2) ||(a - lambda)^{-1}||.  For a matrix symbol the
    samples are taken in one pass with a certificate (:func:`_sample_maxima`):
    the Hoelder bound ||X||_2 <= (||X||_1 ||X||_inf)^(1/2) of each inverse
    decides where an exact norm can still reach a running max, and the
    constants are the same floats as the maxima of the full norm table.  A
    derivative that vanishes at every node gives the constant 0.0 and takes
    no part in the certificate.
    """
    if not report.passed:
        raise ValueError("estimate_hypo_constants requires a passing spectrum check")
    tab = sample(expr, grid)
    mask = (grid.xi_norm() >= report.C).reshape((1,) * grid.n + grid.xi_shape)
    mask = np.broadcast_to(mask, grid.x_shape + grid.xi_shape)
    masked = tab.values[mask]
    sup_a = tab.sup_norm()
    lo, hi = max(report.c, 1e-3), 10.0 * max(sup_a, 1.0)
    radii = np.geomspace(lo, hi, SAMPLES_PER_RAY)
    lambdas = [0.0 + 0.0j]
    lambdas.extend(complex(z) for z in sector.ray_points(radii))

    bracket = grid.bracket_xi().reshape((1,) * grid.n + grid.xi_shape)
    c_table, keys, factors = {}, [], []
    for alpha in multi_indices_below(grid.n, max_order + 1):
        for beta in multi_indices_below(grid.n, max_order + 1 - sum(alpha)):
            da_norm = sample(expr.diff(alpha, beta), grid).spectral_norms()[mask]
            c_table[alpha, beta] = 0.0
            if not np.any(da_norm):
                continue  # a vanishing derivative needs no resolvent norm
            weight = bracket ** (class_params.rho * sum(alpha)
                                 - class_params.delta * sum(beta))
            keys.append((alpha, beta))
            factors.append((da_norm, np.broadcast_to(weight, mask.shape)[mask]))

    best = [0.0] * (len(factors) + 1)
    for lam in lambdas:
        try:
            finite = _sample_maxima(best, masked, lam, factors)
        except np.linalg.LinAlgError:
            finite = False
        if not finite:
            raise ValueError(f"(a - lambda) singular at a sample lambda={lam!r}; "
                             "inconsistent with the passed spectrum check")
    # Exterior-of-sector samples: outside every Omega_{x,xi} by construction.
    c0 = best[-1:]
    for factor in (1.0, 2.0, 4.0, 8.0):
        for angle in (0.0, sector.theta / 2.0, -sector.theta / 2.0):
            _sample_maxima(c0, masked, factor * 2.0 * sup_a * np.exp(1j * angle), [])

    c_table.update(zip(keys, best))
    report.c_table = c_table
    report.c0 = c0[0]
    report.extras["sup_symbol_norm"] = sup_a
    report.extras["lambda_samples_per_ray"] = float(SAMPLES_PER_RAY)
    return report
