"""Small shared helpers: multi-indices and log-log regression."""

from __future__ import annotations

import math

import numpy as np


def multi_indices_of_order(n, total):
    """All multi-indices of length n with |alpha| == total, lexicographic."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in multi_indices_of_order(n - 1, total - first):
            out.append((first,) + rest)
    return out


def multi_indices_below(n, bound):
    """All multi-indices with |alpha| < bound, ordered by |alpha| then lex."""
    out = []
    for total in range(bound):
        out.extend(multi_indices_of_order(n, total))
    return out


def multi_factorial(alpha):
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def fit_loglog_slope(xs, ys):
    """Least-squares slope and intercept of log y against log x.

    Every sample must be positive and finite: a caller that may hold others
    filters them itself, and says so.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not (np.all(np.isfinite(xs) & (xs > 0)) and np.all(np.isfinite(ys) & (ys > 0))):
        raise ValueError("slope fit samples must be positive and finite")
    if xs.size < 2:
        raise ValueError("need at least two samples for a slope fit")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)


def japanese_bracket(z):
    """<z> = (1 + |z|^2)^(1/2) for scalars or arrays, inf where |z|^2 overflows."""
    with np.errstate(over="ignore"):
        return np.sqrt(1.0 + np.abs(z) ** 2)
