"""The fractional weighting operator pair behind fractional Brownian motion.

For Hurst parameter H in (0,1) write a = H - 1/2.  Fractional Brownian
motion is represented on the white noise space as B_H(t) = <omega, k_t>
where k_t is the image of the indicator 1_[0,t] under a fractional
integral (H > 1/2) or Marchaud-type derivative (H < 1/2).  On
indicators the image has the closed form

    (K 1_[s,t])(x) = c_H * ( (t-x)_+^a - (s-x)_+^a ),

with the scale c_H fixed so that |K 1_[0,1]|_L2 = 1, i.e.

    c_H = ( 1/(2H) + int_0^infty ((1+u)^a - u^a)^2 du )^(-1/2).

``normalization_constant`` returns K_H = Gamma(H + 1/2) * c_H, the
prefactor of the defining integral representations.

The dual operator acts on smooth functions:

    a > 0:  (K+ f)(x) = (K_H / Gamma(a)) int_0^inf f(x-u) u^(a-1) du
    a = 0:  identity
    a < 0:  (K+ f)(x) = (-a) c_H int_0^inf (f(x) - f(x-y)) y^(a-1) dy

and satisfies the duality  int f * (K 1_[s,t]) dx = int_s^t (K+ f)(x) dx,
which ``pairing_indicator`` exploits as a cross-check: the pairing is
computed both from the closed-form kernel and through the dual route and
the two must agree.

The elementary bound  |int f * (K 1_[s,t]) dx| <= C_H (t-s) |||f|||
(with |||f||| = sup|f| + sup|f'| + |f|_L2) is what makes the local time
constructions converge; ``bound_ratio`` measures the constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (AccuracyError, ConfigError, ConsistencyError,
                     SingularPointError)
from .quadrature import QuadratureResult, gauss_panels, integrate_interval
from .testfunctions import TestFunction, VectorTestFunction

__all__ = [
    "Hurst",
    "Interval",
    "normalization_constant",
    "increment_kernel",
    "dual_apply",
    "pairing_indicator",
    "pairing_closed_form",
    "bound_ratio",
    "PairingTable",
]


@dataclass(frozen=True)
class Hurst:
    """Validated Hurst parameter with the derived exponent a = H - 1/2."""

    h: float

    def __post_init__(self):
        if not (0.0 < self.h < 1.0) or not math.isfinite(self.h):
            raise ConfigError(
                f"Hurst parameter must lie strictly inside (0, 1), got {self.h}")

    @property
    def a(self) -> float:
        return self.h - 0.5

    @property
    def regime(self) -> str:
        if self.h < 0.5:
            return "antipersistent"
        if self.h == 0.5:
            return "brownian"
        return "persistent"


def _hurst(h) -> Hurst:
    return h if isinstance(h, Hurst) else Hurst(float(h))


@dataclass(frozen=True)
class Interval:
    """Time interval [s, t] with s < t."""

    s: float
    t: float

    def __post_init__(self):
        if not (self.t > self.s):
            raise ConfigError(
                f"degenerate interval: need s < t, got [{self.s}, {self.t}]")

    @property
    def tau(self) -> float:
        return self.t - self.s


def _interval(iv) -> Interval:
    if isinstance(iv, Interval):
        return iv
    s, t = iv
    return Interval(float(s), float(t))


@lru_cache(maxsize=None)
def _kernel_scale(h: float) -> float:
    """c_H = (1/(2H) + int_0^inf ((1+u)^a - u^a)^2 du)^(-1/2)."""
    a = h - 0.5
    if a == 0.0:
        return 1.0

    def body(u):
        return ((1.0 + u) ** a - u ** a) ** 2

    near = integrate_interval(body, 0.0, 1.0, tol=1e-13,
                              singular=[(0.0, 2.0 * a)] if a < 0 else [],
                              order=24)
    # Map [1, inf) to (0, 1]; the image integrand behaves like u^(-2a)
    # at the origin.  Written via expm1 because (1+s)^a - s^a loses all
    # precision to cancellation for large s.

    def far_body(u):
        return np.expm1(a * np.log1p(u)) ** 2 * u ** (-2.0 * a - 2.0)

    far = integrate_interval(far_body, 0.0, 1.0, tol=1e-13,
                             singular=[(0.0, -2.0 * a)] if a > 0 else [],
                             order=24)
    total_err = near.error_estimate + far.error_estimate
    if total_err > 1e-10:
        raise AccuracyError(
            f"normalization integral for H={h} did not converge",
            value=near.value + far.value, error_estimate=total_err)
    return (0.5 / h + near.value + far.value) ** -0.5


def normalization_constant(h) -> float:
    """K_H = Gamma(H + 1/2) * c_H; equals 1 at H = 1/2.

    The value makes the increment kernel of [0, 1] have unit L2 norm.
    """
    hu = _hurst(h)
    return math.gamma(hu.h + 0.5) * _kernel_scale(hu.h)


def _plus_power(u: np.ndarray, a: float) -> np.ndarray:
    """(u)_+^a with the a = 0 convention 1_{u > 0}."""
    if a == 0.0:
        return (u > 0.0).astype(float)
    out = np.zeros_like(u)
    pos = u > 0.0
    out[pos] = u[pos] ** a
    return out


def increment_kernel(h, iv, x) -> np.ndarray | float:
    """Closed form c_H ((t-x)_+^a - (s-x)_+^a), vectorized over x.

    For H < 1/2 the kernel diverges at x = s and x = t; evaluating
    exactly there raises ``SingularPointError``.
    """
    hu = _hurst(h)
    ivl = _interval(iv)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if hu.a < 0.0 and (np.any(xs == ivl.s) or np.any(xs == ivl.t)):
        raise SingularPointError(
            f"kernel for H={hu.h:g} < 1/2 diverges at the interval "
            f"endpoints; requested x hits {{{ivl.s:g}, {ivl.t:g}}}")
    c = _kernel_scale(hu.h)
    out = c * (_plus_power(ivl.t - xs, hu.a) - _plus_power(ivl.s - xs, hu.a))
    return float(out[0]) if scalar else out


def _halving_edges(lo: float, hi: float, levels: int) -> np.ndarray:
    """Increasing panel edges lo, ..., hi that halve toward lo.

    The panels resolve endpoint behaviour at lo: the one next to lo has
    width (hi - lo) / 2^levels.
    """
    edges = [hi]
    for _ in range(levels):
        edges.append(lo + 0.5 * (edges[-1] - lo))
    edges.append(lo)
    return np.array(edges[::-1])


def _dual_apply_many(hu: Hurst, f: TestFunction, xs: np.ndarray,
                     tol: float) -> np.ndarray:
    """Dual operator at many points sharing one quadrature grid."""
    a = hu.a
    xs = np.asarray(xs, dtype=float)
    if f.is_zero:
        return np.zeros_like(xs)
    if a == 0.0:
        return f.eval(xs)
    c = _kernel_scale(hu.h)
    R = f.support_radius
    x_max = float(np.max(xs))
    if x_max + R <= 0.0:
        return np.zeros_like(xs)

    if a > 0.0:
        # (K+ f)(x) = c_H a int_0^{x+R} f(x-u) u^(a-1) du.  Dyadic panels
        # toward u = 0 resolve the u^(a-1) weight; the head [0, delta0]
        # is taken analytically, f(x) delta0^a / a up to O(delta0^(1+a)).
        Y = x_max + R
        levels = 64
        delta0 = Y * 2.0 ** -levels
        u, uw = gauss_panels(_halving_edges(0.0, Y, levels)[1:], 24)
        uw = uw * u ** (a - 1.0)
        vals = f.eval(xs[:, None] - u[None, :])
        head = f.eval(xs) * (delta0 ** a) / a
        return c * a * ((vals @ uw) + head)

    # a < 0: Marchaud form with inner Taylor cutoff and analytic tail.
    supd = f.sup_deriv_norm
    Y = x_max + R
    # Inner segment [0, delta]: |f(x) - f(x-y)| <= y sup|f'| bounds the
    # dropped mass by (-a) c sup|f'| delta^(1+a)/(1+a) <= tol/2.
    if supd > 0.0:
        delta = (0.5 * tol * (1.0 + a) / ((-a) * c * supd)) ** (1.0 / (1.0 + a))
    else:
        delta = 0.25 * Y
    delta = min(delta, 0.25 * Y)
    nodes, weights = gauss_panels(_halving_edges(delta, Y, 60), 24)
    ya1 = nodes ** (a - 1.0)
    fx = f.eval(xs)
    diff = fx[:, None] - f.eval(xs[:, None] - nodes[None, :])
    outer = (diff * ya1[None, :]) @ weights
    # Tail y > Y: f(x-y) vanishes there, int_Y^inf y^(a-1) dy = Y^a/(-a).
    tail = fx * (Y ** a) / (-a)
    return (-a) * c * (outer + tail)


def dual_apply(h, f: TestFunction, x: float, tol: float = 1e-9) -> float:
    """Dual fractional operator applied to a smooth function at a point.

    Guarantees absolute error below ``tol`` for functions whose stated
    norms and support radius are honest.
    """
    hu = _hurst(h)
    return float(_dual_apply_many(hu, f, np.array([float(x)]), tol)[0])


def _pairing_component_closed(hu: Hurst, f: TestFunction, ivl: Interval,
                              tol: float) -> QuadratureResult:
    """Route 1: integrate f against the closed-form kernel."""
    if f.is_zero:
        return QuadratureResult(0.0, 0.0, 0)
    a = hu.a
    lo = min(-f.support_radius, ivl.s - 1.0)
    hi = min(ivl.t, f.support_radius)
    if hi <= lo:
        return QuadratureResult(0.0, 0.0, 0)
    # a = 0 gives indicator jumps at the endpoints, split-only marks.
    sing = [(ivl.s, a), (ivl.t, a)]

    def body(x):
        return f.eval(x) * increment_kernel(hu, ivl, x)

    return integrate_interval(body, lo, hi, tol=tol, singular=sing, order=16)


def _pairing_component_dual(hu: Hurst, f: TestFunction, ivl: Interval,
                            tol: float) -> float:
    """Route 2: int_s^t (K+ f)(x) dx through the dual operator."""
    if f.is_zero:
        return 0.0
    # Pointwise error e on the dual values integrates to at most e * tau.
    point_tol = tol / max(ivl.tau, 1e-6)
    nodes, weights = gauss_panels(np.linspace(ivl.s, ivl.t, 9), 32)
    vals = _dual_apply_many(hu, f, nodes, point_tol)
    return float(vals @ weights)


def pairing_indicator(h, f, iv, tol: float = 1e-8) -> np.ndarray:
    """Pairing vector v_j = int f_j(x) (K 1_[s,t])(x) dx, cross-checked.

    Both the closed-form route and the dual-operator route are computed;
    disagreement beyond 10x tolerance raises ``ConsistencyError``.
    Accepts a scalar ``TestFunction`` or a ``VectorTestFunction`` and
    returns a (d,) array either way (d = 1 for scalars).
    """
    hu = _hurst(h)
    ivl = _interval(iv)
    comps = f.components if isinstance(f, VectorTestFunction) else (f,)
    out = np.empty(len(comps))
    for j, fj in enumerate(comps):
        closed = _pairing_component_closed(hu, fj, ivl, tol)
        dual = _pairing_component_dual(hu, fj, ivl, tol)
        gap = abs(closed.value - dual)
        if gap > 10.0 * tol:
            raise ConsistencyError(
                f"pairing routes disagree for component {j}: closed-form "
                f"{closed.value:.12g} vs dual {dual:.12g} "
                f"(gap {gap:.3e} > 10*tol = {10 * tol:.3e})")
        out[j] = closed.value
    return out


def pairing_closed_form(h, f, iv, tol: float = 1e-10) -> np.ndarray:
    """Pairing vector by the closed-form route only (no cross-check)."""
    hu = _hurst(h)
    ivl = _interval(iv)
    comps = f.components if isinstance(f, VectorTestFunction) else (f,)
    return np.array([
        _pairing_component_closed(hu, fj, ivl, tol).value for fj in comps])


def bound_ratio(h, f, iv, tol: float = 1e-10) -> float:
    """|int f . (K 1_[s,t])| / (tau * |||f|||), the elementary-bound ratio.

    Stays bounded by a constant depending only on H; the constant is
    what the S-transform estimates rely on.
    """
    hu = _hurst(h)
    ivl = _interval(iv)
    comps = f.components if isinstance(f, VectorTestFunction) else (f,)
    norm = math.sqrt(sum(fj.triple_norm ** 2 for fj in comps))
    if norm == 0.0:
        raise ConfigError("bound ratio undefined for the zero function")
    v = np.array([
        _pairing_component_closed(hu, fj, ivl, tol).value for fj in comps])
    return float(np.linalg.norm(v) / (ivl.tau * norm))


# U(t) is splined on _GRID_POINTS times in [0, 1] and built in blocks of
# _BUILD_ROWS grid rows, whose temporaries (about 300 KiB) stay in cache.
_GRID_POINTS = 2049
_BUILD_ROWS = 32


class PairingTable:
    """Fast pairing evaluations v(t1, t2) for a fixed (H, f).

    Precomputes  U_j(t) = c_H int f_j(x) (t-x)_+^a dx  on a dense grid,
    ``_BUILD_ROWS`` grid rows at a time with the remainder folded into
    the last block (a 1-row block takes another BLAS path and can move U
    by an ulp), and interpolates all d components with one vector cubic
    spline, a zero component being a zero column; then
    v_j(t1, t2) = U_j(t2) - U_j(t1) exactly, because the closed-form
    kernel of [t1, t2] is the difference of the [0, t] kernels.

    Used by the S-transform and chaos-kernel quadratures where the
    pairing is needed at many thousands of (t1, t2) nodes.
    """

    def __init__(self, h, f):
        from scipy.interpolate import CubicSpline

        hu = _hurst(h)
        comps = f.components if isinstance(f, VectorTestFunction) else (f,)
        self.hurst = hu
        self.d = len(comps)
        self._zero = all(fj.is_zero for fj in comps)
        if self._zero:
            return
        a = hu.a
        c = _kernel_scale(hu.h)
        R = max(fj.support_radius for fj in comps)
        t_grid = np.linspace(0.0, 1.0, _GRID_POINTS)
        # U(t) = (c/(1+a)) int_0^W f(t - w^(1/(1+a))) dw after u^(1+a) = w;
        # the substitution removes the u^a weight exactly.
        q = 1.0 / (1.0 + a)
        W = (1.0 + R) ** (1.0 + a)
        w_nodes, w_weights = gauss_panels(_halving_edges(0.0, W, 48), 24)
        u = w_nodes ** q
        U = np.empty((_GRID_POINTS, self.d))
        edges = [*range(0, _GRID_POINTS - _BUILD_ROWS + 1, _BUILD_ROWS),
                 _GRID_POINTS]
        for lo, hi in zip(edges[:-1], edges[1:]):
            x = t_grid[lo:hi, None] - u[None, :]
            for j, fj in enumerate(comps):
                U[lo:hi, j] = (c * q) * (fj.eval(x) @ w_weights)
        self._spline = CubicSpline(t_grid, U, axis=0)
        self._deriv = self._spline.derivative()

    # Below this width, U(t1+tau) - U(t1) loses all significant digits
    # to cancellation; the midpoint-derivative form tau*U'(t1 + tau/2)
    # is exact to O(tau^2) relative and stays stable down to tau = 0.
    _LINEAR_TAU = 1e-7

    def v(self, t1, t2) -> np.ndarray:
        """Pairing vectors, shape (d,) + broadcast shape of (t1, t2)."""
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        if self._zero:
            return np.zeros((self.d,) + np.broadcast(t1, t2).shape)
        return np.moveaxis(self._spline(t2) - self._spline(t1), -1, 0)

    def v_norm_sq(self, t1, t2) -> np.ndarray:
        vv = self.v(t1, t2)
        return np.sum(vv * vv, axis=0)

    def v_tau(self, t1, tau) -> np.ndarray:
        """Pairing vectors for the intervals [t1, t1 + tau], stable in tau;
        ``tau`` is a scalar or an array of the shape of ``t1``."""
        t1, tau = np.broadcast_arrays(np.asarray(t1, dtype=float),
                                      np.asarray(tau, dtype=float))
        if self._zero:
            return np.zeros((self.d,) + t1.shape)
        low = tau < self._LINEAR_TAU
        if not low.any():
            return self.v(t1, t1 + tau)
        out = np.empty((self.d,) + t1.shape)
        big = ~low
        out[:, big] = self.v(t1[big], t1[big] + tau[big])
        out[:, low] = tau[low] * self.v_rate(t1[low] + 0.5 * tau[low])
        return out

    def v_norm_sq_tau(self, t1, tau) -> np.ndarray:
        vv = self.v_tau(t1, tau)
        return np.sum(vv * vv, axis=0)

    def v_quotient_sq(self, t1, tau) -> np.ndarray:
        """|v|^2 / tau^2 for the intervals [t1, t1 + tau], stable down to
        tau = 0 (the squared rate at the midpoint below _LINEAR_TAU);
        ``tau`` is a scalar or an array of the shape of ``t1``."""
        t1, tau = np.broadcast_arrays(np.asarray(t1, dtype=float),
                                      np.asarray(tau, dtype=float))
        if self._zero:
            return np.zeros(t1.shape)
        vt = self.v_tau(t1, tau) / tau
        low = tau < self._LINEAR_TAU
        if low.any():
            vt[:, low] = self.v_rate(t1[low] + 0.5 * tau[low])
        return np.sum(vt * vt, axis=0)

    def v_rate(self, t) -> np.ndarray:
        """d/dt2 of the pairing at t2 = t, the tau -> 0 rate of v/tau."""
        t = np.asarray(t, dtype=float)
        if self._zero:
            return np.zeros((self.d,) + t.shape)
        return np.moveaxis(self._deriv(t), -1, 0)
