"""Smooth rapidly-decaying test functions and their norm bookkeeping.

The operator and S-transform layers consume functions through a small
record: callables for the function and its derivative plus the three
norms sup|f|, sup|f'| and the L2 norm.  Vector-valued test functions
(one component per spatial dimension) aggregate the component norms as

    |||f||| = sqrt( sum_i (sup|f_i| + sup|f_i'| + |f_i|_L2)^2 ).

Two families are provided: Hermite functions (orthonormal in L2) and
Gaussian bumps.  Arbitrary linear combinations are supported; their
norms are recomputed numerically on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, _finite, _integer
from .quadrature import integrate_interval

__all__ = [
    "TestFunction",
    "VectorTestFunction",
    "hermite_function",
    "gaussian_bump",
    "zero_function",
    "linear_combination",
    "zero_bundle",
    "hermite_bundle",
]


def _grid_sup(fn, radius: float, n: int = 20001) -> float:
    """Sup of |fn| on a dense grid with parabolic refinement at the peak."""
    x = np.linspace(-radius, radius, n)
    y = np.abs(fn(x))
    i = int(np.argmax(y))
    if 0 < i < n - 1:
        # One parabolic fit around the grid argmax sharpens the estimate.
        xl, xc, xr = x[i - 1], x[i], x[i + 1]
        yl, yc, yr = y[i - 1], y[i], y[i + 1]
        denom = (yl - 2.0 * yc + yr)
        if denom < 0.0:
            dx = 0.5 * (yl - yr) / denom * (xc - xl)
            xs = np.linspace(xc - abs(dx) * 2, xc + abs(dx) * 2, 41)
            return float(max(y[i], np.max(np.abs(fn(xs)))))
    return float(y[i])


@dataclass(frozen=True)
class TestFunction:
    """A smooth scalar test function with precomputed norms.

    ``support_radius`` bounds the region outside which the function and
    its derivative are negligible (below roughly 1e-15 of their peak).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    sup_deriv_norm: float
    l2_norm: float
    support_radius: float
    label: str = "f"

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (
                self.sup_norm, self.sup_deriv_norm, self.l2_norm,
                self.support_radius)):
            raise ConfigError(
                f"test function {self.label} needs finite norms and support "
                "radius")

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))

    @property
    def triple_norm(self) -> float:
        return self.sup_norm + self.sup_deriv_norm + self.l2_norm

    @property
    def is_zero(self) -> bool:
        return self.triple_norm == 0.0

    def scaled(self, c: float) -> "TestFunction":
        """The function c*f; norms scale exactly by |c|."""
        c = float(c)
        if c == 0.0:
            return zero_function()
        ev, dv = self.eval, self.deriv
        return TestFunction(
            eval=lambda x: c * ev(x),
            deriv=lambda x: c * dv(x),
            sup_norm=abs(c) * self.sup_norm,
            sup_deriv_norm=abs(c) * self.sup_deriv_norm,
            l2_norm=abs(c) * self.l2_norm,
            support_radius=self.support_radius,
            label=f"{c:g}*{self.label}")


def _measure(eval_fn, deriv_fn, radius: float, label: str) -> TestFunction:
    """Build a TestFunction computing all three norms numerically."""
    sup = _grid_sup(eval_fn, radius)
    supd = _grid_sup(deriv_fn, radius)
    l2sq = integrate_interval(lambda x: eval_fn(x) ** 2, -radius, radius,
                              tol=1e-13, order=24)
    return TestFunction(eval=eval_fn, deriv=deriv_fn, sup_norm=sup,
                        sup_deriv_norm=supd, l2_norm=math.sqrt(l2sq.value),
                        support_radius=radius, label=label)


def zero_function() -> TestFunction:
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return TestFunction(eval=z, deriv=z, sup_norm=0.0, sup_deriv_norm=0.0,
                        l2_norm=0.0, support_radius=1.0, label="0")


def _hermite_values(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized Hermite functions h_n and h_{n-1} by stable recurrence.

    h_0 = pi^(-1/4) exp(-x^2/2),  h_k = sqrt(2/k) x h_{k-1}
                                        - sqrt((k-1)/k) h_{k-2}.
    """
    h_prev = np.zeros_like(x)
    h = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    for k in range(1, n + 1):
        h, h_prev = (math.sqrt(2.0 / k) * x * h
                     - math.sqrt((k - 1.0) / k) * h_prev), h
    return h, h_prev


def hermite_function(n: int, shift: float = 0.0) -> TestFunction:
    """The n-th L2-normalized Hermite function, optionally recentered.

    Derivative uses h_n'(x) = sqrt(2n) h_{n-1}(x) - x h_n(x).
    """
    n = _integer("Hermite index", n, 0)
    root2n = math.sqrt(2.0 * n)

    def ev(x):
        x = np.asarray(x, dtype=float) - shift
        return _hermite_values(n, x)[0]

    def dv(x):
        x = np.asarray(x, dtype=float) - shift
        h, h_prev = _hermite_values(n, x)
        return root2n * h_prev - x * h

    radius = math.sqrt(2.0 * n + 1.0) + 9.0 + abs(shift)
    f = _measure(ev, dv, radius, label=f"h{n}" + (f"@{shift:g}" if shift else ""))
    # L2 norm is exactly 1 by construction; pin it to kill quadrature dust.
    return TestFunction(eval=f.eval, deriv=f.deriv, sup_norm=f.sup_norm,
                        sup_deriv_norm=f.sup_deriv_norm, l2_norm=1.0,
                        support_radius=radius, label=f.label)


def gaussian_bump(amplitude: float = 1.0, center: float = 0.0,
                  width: float = 1.0) -> TestFunction:
    """A e^{-(x-c)^2 / (2 w^2)} with closed-form norms."""
    a = _finite("amplitude", amplitude, -math.inf, strict=True)
    c = _finite("center", center, -math.inf, strict=True)
    w = _finite("width", width, 0.0, strict=True)
    if a == 0.0:
        return zero_function()

    def ev(x):
        x = np.asarray(x, dtype=float)
        return a * np.exp(-0.5 * ((x - c) / w) ** 2)

    def dv(x):
        x = np.asarray(x, dtype=float)
        return ev(x) * (c - x) / w ** 2

    sup = abs(a)
    supd = abs(a) * math.exp(-0.5) / w
    l2 = abs(a) * math.sqrt(w * math.sqrt(math.pi))
    radius = abs(c) + w * math.sqrt(2.0 * math.log(1e18)) + 1.0
    return TestFunction(eval=ev, deriv=dv, sup_norm=sup, sup_deriv_norm=supd,
                        l2_norm=l2, support_radius=radius,
                        label=f"g({a:g},{c:g},{w:g})")


def linear_combination(coeffs: Sequence[float],
                       funcs: Sequence[TestFunction]) -> TestFunction:
    """sum_k c_k f_k with norms recomputed numerically."""
    if len(coeffs) != len(funcs):
        raise ConfigError("one coefficient per function required")
    coeffs = [_finite("coefficient", c, -math.inf, strict=True)
              for c in coeffs]
    pairs = [(c, f) for c, f in zip(coeffs, funcs) if c != 0.0
             and not f.is_zero]
    if not pairs:
        return zero_function()

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, f in pairs:
            out += c * f.eval(x)
        return out

    def dv(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, f in pairs:
            out += c * f.deriv(x)
        return out

    radius = max(f.support_radius for _, f in pairs)
    label = "+".join(f"{c:g}*{f.label}" for c, f in pairs)
    return _measure(ev, dv, radius, label=label)


@dataclass(frozen=True)
class VectorTestFunction:
    """d-tuple of test functions, one component per spatial dimension."""

    components: tuple[TestFunction, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ConfigError("at least one component required")

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def norm(self) -> float:
        """sqrt(sum_i (sup|f_i| + sup|f_i'| + |f_i|_2)^2)."""
        return math.sqrt(sum(f.triple_norm ** 2 for f in self.components))

    @property
    def support_radius(self) -> float:
        return max(f.support_radius for f in self.components)

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.components)

    @property
    def label(self) -> str:
        return "(" + ",".join(f.label for f in self.components) + ")"

    def scaled(self, c: float) -> "VectorTestFunction":
        return VectorTestFunction(tuple(f.scaled(c) for f in self.components))

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> TestFunction:
        return self.components[i]


def _as_bundle(f, d: int | None = None) -> VectorTestFunction:
    """f as a ``VectorTestFunction``, a scalar one as its only component;
    with ``d`` given, its number of components must be d."""
    if isinstance(f, TestFunction):
        f = VectorTestFunction((f,))
    elif not isinstance(f, VectorTestFunction):
        raise ConfigError(f"not a test function: {f!r}")
    if d is not None and f.d != d:
        raise ConfigError(
            f"test function has {f.d} components, spec demands {d}")
    return f


def _require_finite(components, values: np.ndarray, what: str) -> None:
    """ConfigError naming the first component whose row of values is not
    finite everywhere."""
    for fj, row in zip(components, values):
        if not np.isfinite(row).all():
            raise ConfigError(f"test function {fj.label} has {what} that is "
                              "not finite")


def zero_bundle(d: int) -> VectorTestFunction:
    return VectorTestFunction(tuple(zero_function() for _ in range(d)))


def hermite_bundle(indices: Sequence[int]) -> VectorTestFunction:
    return VectorTestFunction(tuple(hermite_function(n) for n in indices))
