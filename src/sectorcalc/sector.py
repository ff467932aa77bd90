"""Sector geometry: the closed sector kept free of spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ANG_TOL = 1e-12


@dataclass(frozen=True)
class Sector:
    """Closed sector {r e^{i phi}: r >= 0, theta <= phi <= 2 pi - theta}.

    0 < theta < pi, so the positive real axis is never inside.
    """

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < np.pi:
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")

    def contains(self, z):
        """Vectorized membership; z = 0 belongs to the sector.

        The angular slack ``_ANG_TOL`` absorbs the rounding of points
        constructed exactly on the boundary rays (the sector is closed).
        """
        z = np.asarray(z, dtype=complex)
        arg = np.mod(np.angle(z), 2.0 * np.pi)
        inside = (arg >= self.theta - _ANG_TOL) \
            & (arg <= 2.0 * np.pi - self.theta + _ANG_TOL)
        return inside | (z == 0)

    def boundary_point(self, r, upper=True):
        """Point at radius r on the upper (arg=theta) or lower boundary ray."""
        phi = self.theta if upper else -self.theta
        return r * np.exp(1j * phi)

    def ray_points(self, radii):
        """Boundary points at the given radii, upper then lower per radius."""
        out = []
        for r in radii:
            out.append(self.boundary_point(r, upper=True))
            out.append(self.boundary_point(r, upper=False))
        return np.asarray(out)
