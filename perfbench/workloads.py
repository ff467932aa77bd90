"""Seeded workload definitions for the sectorcalc benchmark.

A workload is a run configuration (the dotted-key text the CLI reads) plus
the list of CLI stages to run on it.  Seed 0 reproduces each scene exactly;
other seeds perturb the shift, the ``power_quotient`` exponents and the
``bip`` t-grid by a few percent, small enough that contour node counts and
the split of work between layers stay the same.  The program only ever sees
the generated configuration file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0

MATRIX3_TEMPLATE = ("[[(2+sin(x1))*(1+xi1^2)+{c}, bracket(xi), 0], "
                    "[0, (2+cos(x1))*(1+xi1^2)+{c}, bracket(xi)], "
                    "[0, 0, bracket(xi)^2+{c}]]")


@dataclass
class Workload:
    """One generated scene: config values, stages and the facts checks need."""

    name: str
    seed: int
    stages: list
    values: dict
    # Timed calls per pass of the short stages, whose medians need more
    # samples than one call per pass gives.
    repeats: dict = field(default_factory=dict)
    functions: list = field(default_factory=list)
    bip_ts: list = field(default_factory=list)

    def schedule(self):
        """Stage calls of one pass: every stage once, in order, with the extra
        calls of a repeated stage spread over the rest of the pass."""
        calls = []
        for i, stage in enumerate(self.stages):
            calls.append(stage)
            for p, short in enumerate(self.stages[:i + 1]):
                extra, slots = self.repeats.get(short, 1) - 1, len(self.stages) - p
                calls += [short] * (extra * (i - p + 1) // slots - extra * (i - p) // slots)
        return calls

    @property
    def n(self):
        return int(self.values["symbol.n"])

    @property
    def points(self):
        return int(self.values["grid.points"])

    @property
    def k(self):
        return int(self.values.get("symbol.k", 1))

    @property
    def shift(self):
        return float(self.values.get("shift", 0.0))

    @property
    def op_dim(self):
        """Dense operator dimension k * (2 Xi + 1)^n with Xi = P/2 - 1."""
        return self.k * (self.points - 1) ** self.n

    def config_text(self):
        return "".join(f"{key} = {val}\n" for key, val in self.values.items())


def _fmt(x):
    """Shortest text for a float that parses back to the same value."""
    return repr(float(x))


def _perturb(rng, seed, base, rel):
    if seed == DEFAULT_SEED:
        return base
    return round(base * (1.0 + rng.uniform(-rel, rel)), 4)


def _scalar_scene(name, seed, rng, n, points, exponents, bip_steps, repeats):
    shift = _perturb(rng, seed, 5.0, 0.1)
    exps = [_perturb(rng, seed, s, 0.02) for s in exponents]
    tmax = _perturb(rng, seed, 5.0, 0.05)
    values = {
        "symbol.preset": "variable_laplace",
        "symbol.n": str(n),
        "grid.points": str(points),
        "shift": _fmt(shift),
        "sector.theta": _fmt(math.pi / 2),
        "parametrix.N": "3",
        "calc.quad_tol": "1e-05",
        "functions": ", ".join(f"power_quotient {_fmt(s)}" for s in exps),
        "bip.tmax": _fmt(tmax),
        "bip.steps": str(bip_steps),
        "bip.n_reg": "1000",
        "bip.quad_tol": "1e-06",
    }
    return Workload(name=name, seed=seed,
                    stages=["check", "parametrix", "calc", "bip"],
                    values=values, repeats=repeats, functions=exps,
                    bip_ts=[float(t) for t in np.linspace(-tmax, tmax, bip_steps)])


def _ref1d(seed, rng):
    return _scalar_scene("ref1d", seed, rng, n=1, points=128,
                         exponents=[0.25, 0.5, 1.0, 2.0], bip_steps=11,
                         repeats={"check": 9, "parametrix": 3})


def _scene2d(seed, rng):
    # Dimension 225: the full function list and 11 bip steps would take about
    # a minute per pass, so calc keeps the shortest contour (d=2) and bip
    # keeps three t values (the fewest that still fit a growth rate).
    return _scalar_scene("scene2d", seed, rng, n=2, points=16,
                         exponents=[2.0], bip_steps=3,
                         repeats={"check": 3, "parametrix": 3})


def _matrix3(seed, rng):
    c = _perturb(rng, seed, 5.0, 0.1)
    values = {
        "symbol.expr": MATRIX3_TEMPLATE.format(c="5" if seed == DEFAULT_SEED else _fmt(c)),
        "symbol.k": "3",
        "symbol.n": "1",
        "class.m": "2",
        "grid.points": "64",
        "sector.theta": _fmt(math.pi / 2),
        "parametrix.N": "3",
    }
    return Workload(name="matrix3", seed=seed, stages=["check", "parametrix"],
                    values=values, repeats={"check": 4})


SCENES = {"ref1d": _ref1d, "scene2d": _scene2d, "matrix3": _matrix3}

WHY = {
    "ref1d": "the paper's reference scene (dim 127); Dunford LU solves in calc and bip dominate",
    "scene2d": "the same symbol in 2-D (dim 225): larger LU share, 2-D quantize and term lists",
    "matrix3": "non-normal 3x3 symbol (dim 189), check and parametrix only: the Dunford engine is bypassed",
}


def make_workload(name, seed=DEFAULT_SEED):
    if name not in SCENES:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(SCENES)}")
    rng = random.Random(f"{name}:{seed}")
    return SCENES[name](seed, rng)
