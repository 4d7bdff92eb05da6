"""The fractional weighting operator pair behind fractional Brownian motion.

For Hurst parameter H in (0,1) write a = H - 1/2.  Fractional Brownian
motion is represented on the white noise space as B_H(t) = <omega, k_t>
where k_t is the image of the indicator 1_[0,t] under a fractional
integral (H > 1/2) or Marchaud-type derivative (H < 1/2).  On
indicators the image has the closed form

    (K 1_[s,t])(x) = c_H * ( (t-x)_+^a - (s-x)_+^a ),

with the scale c_H fixed so that |K 1_[0,1]|_L2 = 1, i.e.

    c_H = ( 1/(2H) + int_0^infty ((1+u)^a - u^a)^2 du )^(-1/2)
        = sqrt( Gamma(2H+1) sin(pi H) ) / Gamma(H + 1/2),

the closed form by the Mandelbrot-Van Ness (1968) identity, exact to a
few rounding errors with no quadrature.  ``normalization_constant``
returns K_H = Gamma(H + 1/2) * c_H, the prefactor of the defining
integral representations.

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

from .errors import ConfigError, ConsistencyError, SingularPointError, _finite
from .quadrature import QuadratureResult, gauss_panels, integrate_interval
from .testfunctions import TestFunction, _as_bundle, _require_finite

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
        h = _finite("Hurst parameter", self.h, 0.0, strict=True)
        if h >= 1.0:
            raise ConfigError(
                f"Hurst parameter must lie strictly inside (0, 1), got {h}")
        object.__setattr__(self, "h", h)

    @property
    def a(self) -> float:
        return self.h - 0.5


def _hurst(h) -> Hurst:
    return h if isinstance(h, Hurst) else Hurst(h)


@dataclass(frozen=True)
class Interval:
    """Time interval [s, t] with s < t."""

    s: float
    t: float

    def __post_init__(self):
        for end in ("s", "t"):
            object.__setattr__(self, end, _finite(
                f"interval end {end}", getattr(self, end), -math.inf,
                strict=True))
        if not (self.t > self.s):
            raise ConfigError(
                f"degenerate interval: need s < t, got [{self.s}, {self.t}]")

    @property
    def tau(self) -> float:
        return self.t - self.s


def _interval(iv) -> Interval:
    if isinstance(iv, Interval):
        return iv
    try:
        s, t = iv
    except (TypeError, ValueError):
        raise ConfigError(
            f"an interval must be a pair (s, t), got {iv!r}") from None
    return Interval(s, t)


def _kernel_scale(h: float) -> float:
    """c_H = sqrt(Gamma(2H+1) sin(pi H)) / Gamma(H+1/2), in closed form."""
    return (math.sqrt(math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h))
            / math.gamma(h + 0.5))


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
    x = _finite("point x", x, -math.inf, strict=True)
    tol = _finite("tolerance", tol, 0.0, strict=True)
    return float(_dual_apply_many(hu, f, np.array([x]), tol)[0])


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
    comps = _as_bundle(f).components
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
    comps = _as_bundle(f).components
    return np.array([
        _pairing_component_closed(hu, fj, ivl, tol).value for fj in comps])


def bound_ratio(h, f, iv, tol: float = 1e-10) -> float:
    """|int f . (K 1_[s,t])| / (tau * |||f|||), the elementary-bound ratio.

    Stays bounded by a constant depending only on H; the constant is
    what the S-transform estimates rely on.
    """
    norm = _as_bundle(f).norm
    if norm == 0.0:
        raise ConfigError("bound ratio undefined for the zero function")
    v = pairing_closed_form(h, f, iv, tol)
    return float(np.linalg.norm(v) / (_interval(iv).tau * norm))


# U(t) is splined on _GRID_POINTS knots in [0, 1].  _GRID_POINTS - 1 must
# be a power of two: the knots and the cells between them are then exact,
# and PairingTable.v_rate locates a time's piece and offset without
# rounding.  The build samples f at _CELL_NODES Gauss nodes per cell,
# weights the lags below _NEAR_LAGS by product integration and the rest
# by the Gauss rule, and correlates _BLOCK_CELLS cells at a time by FFT
# (length _BLOCK_CELLS + _GRID_POINTS - 1 = 4096).
_GRID_POINTS = 2049
_CELL_NODES = 6
_NEAR_LAGS = 16
_BLOCK_CELLS = 2048


def _near_weights(a: float, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Product-integration weights int_0^1 L_m(s) (l - s)^a ds of the
    Lagrange basis L_m at the Gauss nodes s (weights w) on [0, 1], for
    the lags l = 1, ..., _NEAR_LAGS - 1; shape (_NEAR_LAGS - 1, len(s)).

    With P_n the Legendre polynomials shifted to [0, 1], L_m = w_m
    sum_n (2n + 1) P_n(s_m) P_n, so a weight is a short sum of the
    moments mu_n(l) = int_0^1 P_n(s) (l - s)^a ds, with no Vandermonde
    matrix to invert.  At l = 1, where (1 - s)^a is singular, Rodrigues'
    formula gives mu_n(1) = (-1)^n prod_{i<n} (a - i) / prod_{i<=n}
    (a + 1 + i).  At l >= 2, (l - s)^a is analytic inside the Bernstein
    ellipse of [0, 1] through s = 2, and a 24-node Gauss rule takes its
    moments to rounding (its error is about 5.8^-48).
    """
    legvander = np.polynomial.legendre.legvander
    order = len(s)
    mu1 = np.empty(order)
    term = 1.0 / (a + 1.0)
    for n in range(order):
        mu1[n] = term
        term *= -(a - n) / (a + n + 2.0)
    sq, wq = gauss_panels(np.array([0.0, 1.0]), 24)
    lags = np.arange(2.0, _NEAR_LAGS)[:, None]
    mu = np.sum((wq * (lags - sq) ** a)[:, :, None]
                * legvander(2.0 * sq - 1.0, order - 1), axis=1)
    basis = (w[:, None] * (2.0 * np.arange(order) + 1.0)
             * legvander(2.0 * s - 1.0, order - 1))
    return np.sum(np.vstack([mu1, mu])[:, None, :] * basis, axis=2)


def _knot_values(a: float, comps) -> np.ndarray:
    """U_j(k / n) / c_H at the knots, shape (d, n + 1), n = _GRID_POINTS - 1.

    With h = 1 / n and x = (i + s) h on cell i, U(k h) / c_H = h^(1+a)
    sum_{l >= 1} int_0^1 f((k - l + s) h) (l - s)^a ds.  f is replaced on
    each cell by its interpolant at _CELL_NODES Gauss nodes, so the knot
    values are a correlation sum_l sum_m F[k - l, m] K[l, m] of the node
    values F with the lag weights K: product-integration weights for
    l < _NEAR_LAGS (``_near_weights``), Gauss weights w_m (l - s_m)^a
    beyond.  The cells span [-J h, 1], J h >= the largest support
    radius; each block of _BLOCK_CELLS cells and its window of
    _BLOCK_CELLS + n lags meet in one FFT of fixed length, and the
    blocks' products of spectra are summed before one inverse FFT per
    component.  No BLAS product is taken, so the bits do not depend on
    the BLAS thread setting.
    """
    # imported here: numpy.fft adds about 0.5 MiB to a process, and the
    # Monte Carlo and kernel paths, which build no table, never need it
    from numpy import fft

    n = _GRID_POINTS - 1
    h = 1.0 / n
    size = _BLOCK_CELLS + n
    s, w = gauss_panels(np.array([0.0, 1.0]), _CELL_NODES)
    near = _near_weights(a, s, w) * h ** (1.0 + a)
    scale = w * h ** (1.0 + a)
    J = math.ceil(max(fj.support_radius for fj in comps) * n)
    acc = np.zeros((len(comps), size // 2 + 1), complex)
    for lo in range(-J, n, _BLOCK_CELLS):
        # lag of the window's first entry: knot 0 against the block's
        # last cell lo + _BLOCK_CELLS - 1
        lag = np.arange(-lo - _BLOCK_CELLS + 1.0, -lo + n + 1.0)
        kern = np.zeros((_CELL_NODES, size))
        far = lag >= _NEAR_LAGS
        kern[:, far] = scale[:, None] * (lag[far] - s[:, None]) ** a
        hit = (lag >= 1.0) & ~far
        kern[:, hit] = near[lag[hit].astype(np.intp) - 1].T
        spec = fft.rfft(kern)
        x = (np.arange(lo, min(lo + _BLOCK_CELLS, n)) * h
             + (s * h)[:, None])
        for j, fj in enumerate(comps):
            if not fj.is_zero:
                acc[j] += np.sum(fft.rfft(fj.eval(x), size) * spec, axis=0)
    return fft.irfft(acc, size)[:, _BLOCK_CELLS - 1:]


@lru_cache(maxsize=1)
def _slope_elimination():
    """Multipliers, super-diagonal and pivots of the elimination of
    ``_not_a_knot``'s slope system, in LAPACK gtsv's order; the system
    needs no row exchange."""
    n = _GRID_POINTS - 1
    upper = (2.0,) + (1.0,) * (n - 1)
    lower = (1.0,) * (n - 1) + (2.0,)
    pivot = [1.0] + [4.0] * (n - 1) + [1.0]
    fact = []
    for i in range(n):
        fact.append(lower[i] / pivot[i])
        pivot[i + 1] -= fact[i] * upper[i]
    return tuple(fact), upper, tuple(pivot)


def _not_a_knot(U: np.ndarray) -> np.ndarray:
    """Pieces of the not-a-knot cubic spline through the rows of U,
    sampled at the knots k / n, n = _GRID_POINTS - 1; shape (3, d, n).

    The knot slopes s solve (de Boor, A Practical Guide to Splines,
    ch. IV) s0 + 2 s1 = (5 m0 + m1) / 2, s(i-1) + 4 s(i) + s(i+1) =
    3 (m(i-1) + m(i)) and 2 s(n-1) + s(n) = (m(n-2) + 5 m(n-1)) / 2,
    with m the secant slopes, by elimination with data-free factors
    computed at the first fit.  Piece i is c0 x^3 + c1 x^2 + c2 x +
    U(i / n) at x = t - i / n.  Each step is the arithmetic of scipy's
    CubicSpline, whose tridiagonal solve is LAPACK's gtsv, with the
    system divided by the knot spacing, a power of two; so the pieces
    equal scipy's to the bit unless that LAPACK fuses multiply-adds.
    """
    n = _GRID_POINTS - 1
    fact, upper, pivot = _slope_elimination()
    m = np.diff(U, axis=1) * n
    rhs = np.empty_like(U)
    rhs[:, 0] = 0.5 * (5.0 * m[:, 0] + m[:, 1])
    rhs[:, 1:-1] = 3.0 * (m[:, :-1] + m[:, 1:])
    rhs[:, -1] = 0.5 * (m[:, -2] + 5.0 * m[:, -1])
    s = np.empty_like(rhs)
    for j, r in enumerate(rhs.tolist()):
        for i in range(n):
            r[i + 1] -= fact[i] * r[i]
        p = r[n] = r[n] / pivot[n]
        for i in range(n - 1, -1, -1):
            p = r[i] = (r[i] - upper[i] * p) / pivot[i]
        s[j] = r
    t = (s[:, :-1] + s[:, 1:] - 2.0 * m) * n
    return np.stack([t * n, (m - s[:, :-1]) * n - t, s[:, :-1]])


def _piece(t):
    """x = t n, t's piece i (a float; the end pieces extend past [0, 1])
    and t's exact offset s = t - i / n in it, n = _GRID_POINTS - 1."""
    n = _GRID_POINTS - 1
    x = t * n
    i = np.clip(np.floor(x), 0.0, n - 1.0)
    return x, i, (x - i) / n


class PairingTable:
    """Fast pairing evaluations v(t1, t2) for a fixed (H, f).

    Precomputes  U_j(t) = c_H int f_j(x) (t-x)_+^a dx  on the grid of
    knots k / n, n = _GRID_POINTS - 1, and interpolates each of the d
    components with a not-a-knot cubic spline fitted in numpy
    (``_not_a_knot``), a zero component being a zero column; then
    v_j(t1, t2) = U_j(t2) - U_j(t1) exactly, because the closed-form
    kernel of [t1, t2] is the difference of the [0, t] kernels.

    U is a fractional integral of f, a convolution, and on the knots a
    Toeplitz sum (``_knot_values``; product integration after de Hoog
    and Weiss 1974).  The cells of the knot spacing over [-R, 1], R the
    largest support radius, carry _CELL_NODES Gauss nodes each, where f
    is evaluated once: 52,482 points for a bump of radius 3.3.  Each lag
    l between a knot and a cell gets its weights per node: exact
    product-integration weights of (l - s)^a against the cell's
    interpolant for l < _NEAR_LAGS, the singular cell l = 1 included,
    and Gauss weights beyond.  The sum over lags is one FFT correlation
    per block of _BLOCK_CELLS cells, so neither memory nor FFT length
    grows with R.  Against mpmath the knot values of unit bumps are
    within 4e-15 of max|U| at widths 0.2 and 0.01, the FFT's rounding,
    and within 9e-12 at width 0.003, where a cell is a sixth of the
    width and f's interpolant on it sets the error (H from 0.02 to 0.98).

    The quadratures need v over [t1, t1 + tau] down to tau far below
    the spacing of t1, where U(t1 + tau) - U(t1) is all cancellation.
    ``v_rate`` is the one evaluation they use: the mean rate v / tau
    taken from the spline's own pieces, exact to rounding for every tau.
    ``components`` keeps the test functions the table was built from, so
    that a caller handed a prebuilt table can check it is one of its f.
    """

    def __init__(self, h, f):
        hu = _hurst(h)
        comps = _as_bundle(f).components
        self.hurst = hu
        self.components = comps
        self.d = len(comps)
        self._zero = all(fj.is_zero for fj in comps)
        if self._zero:
            return
        U = _kernel_scale(hu.h) * _knot_values(hu.a, comps)
        _require_finite(comps, U, "a pairing-table knot value")
        # (3, d, n) and (d, n + 1), so a gather gives (d,) + shape.
        self._c = _not_a_knot(U)
        self._knots = U

    def _values(self, t) -> np.ndarray:
        """U(t), shape (d,) + t.shape, by Horner on t's piece."""
        _, i, s = _piece(t)
        i = i.astype(np.intp)
        c0, c1, c2 = np.take(self._c, i, axis=2)
        return ((c0 * s + c1) * s + c2) * s + np.take(self._knots, i, axis=1)

    def v(self, t1, t2) -> np.ndarray:
        """Pairing vectors, shape (d,) + broadcast shape of (t1, t2)."""
        t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float),
                                     np.asarray(t2, dtype=float))
        if self._zero:
            return np.zeros((self.d,) + t1.shape)
        return self._values(t2) - self._values(t1)

    def v_tau(self, t1, tau) -> np.ndarray:
        """Pairing vectors for the intervals [t1, t1 + tau], stable in tau."""
        return tau * self.v_rate(t1, tau)

    def v_quotient_sq(self, t1, tau) -> np.ndarray:
        """|v|^2 / tau^2 for the intervals [t1, t1 + tau], stable down to
        tau = 0."""
        vt = self.v_rate(t1, tau)
        return np.sum(vt * vt, axis=0)

    def v_rate(self, t, tau=0.0) -> np.ndarray:
        """Mean rate (U(t + tau) - U(t)) / tau over [t, t + tau], U'(t) at
        tau = 0; shape (d,) + broadcast shape of (t, tau).

        The length a of the interval inside t's piece, at offset s,
        contributes a (c0 (3s^2 + 3sa + a^2) + c1 (2s + a) + c2); the
        length b = tau - a past it contributes the knot values it crosses
        and its part r of the last piece, r (c0 r^2 + c1 r + c2).  Nothing
        cancels as tau -> 0.
        """
        t, tau = np.broadcast_arrays(np.asarray(t, dtype=float),
                                     np.asarray(tau, dtype=float))
        if self._zero:
            return np.zeros((self.d,) + t.shape)
        n = _GRID_POINTS - 1
        x, i, s = _piece(t)
        a = np.minimum(tau, (i + 1.0 - x) / n)
        b = tau - a
        j = np.minimum(i + 1.0 + np.floor(b * n), n - 1.0)
        r = b - (j - i - 1.0) / n
        i, j = i.astype(np.intp), j.astype(np.intp)
        c0, c1, c2 = np.take(self._c, i, axis=2)
        rate = c0 * (3.0 * s * (s + a) + a * a) + c1 * (2.0 * s + a) + c2
        c0, c1, c2 = np.take(self._c, j, axis=2)
        tail = (np.take(self._knots, j, axis=1)
                - np.take(self._knots, i + 1, axis=1)
                + r * ((c0 * r + c1) * r + c2))
        return np.divide(a * rate + tail, tau, out=rate, where=b > 0.0)
