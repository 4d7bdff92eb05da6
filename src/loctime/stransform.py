"""S-transforms of regularized and truncated Donsker delta functionals.

For d independent components with Hurst parameter H, the S-transform of
the delta functional delta(B(t2) - B(t1)) evaluated at a test function
f is the Gaussian expression

    (2 pi)^(-d/2) tau^(-dH) exp( -|v|^2 / (2 tau^(2H)) ),

where tau = t2 - t1 and v is the vector of pairings of f with the
increment kernel of [t1, t2].  Truncation removes the first N terms of
the exponential series,

    exp_N(x) = sum_{n >= N} x^n / n!,

and regularization replaces tau^(2H) by eps + tau^(2H).

Integrating over the triangle 0 < t1 < t2 < 1 yields the S-transform of
the (truncated, regularized) self-intersection local time.  The
integral exists for eps > 0 always, and for eps = 0 exactly when

    2 N (1 - H) - d H > -1,

the admissibility condition; ``minimal_truncation_level`` returns the
smallest valid N.  ``_order_term`` builds the order-n term
tau^alpha (2 pi w)^(-d/2) (-y)^n / n!, y = |v|^2 / (2 w).  The chaos
series sums these terms order by order, and the S-transform sums the
orders n >= N in closed form.  At eps = 0 the singular factor
tau^(-alpha), alpha = dH - 2n(1-H), goes to the quadrature engine with
every power of tau, and the rest is bounded because
|v| <= C_H tau |||f|||.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, AdmissibilityError, ConfigError,
                     _each, _finite, _floats, _instance, _integer, _order)
from .fracops import Hurst, Interval, PairingTable, _hurst, pairing_closed_form
from .quadrature import (QuadratureResult, gauss_panels,
                         integrate_triangle_singular)
from .testfunctions import _as_bundle

__all__ = [
    "AdmissibilityResult",
    "DeltaSpec",
    "admissibility",
    "minimal_truncation_level",
    "is_admissible",
    "exp_truncated",
    "s_char_exp",
    "s_delta",
    "s_local_time",
    "u_estimate_check",
    "UEstimateReport",
]

_TWO_PI = 2.0 * math.pi
# Most points of one call of a Gauss rule in ``_exp_tail_ratio``.
_TAIL_CHUNK = 256
# log(DBL_MAX): e^x is beyond the double range for larger x.
_LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    exponent: float
    minimal_n: int


def admissibility(h, d: int, n_trunc: int) -> AdmissibilityResult:
    """Gate 2N(1-H) - dH > -1 together with the smallest valid N."""
    hu = _hurst(h)
    d = _integer("dimension", d, 1)
    n_trunc = _integer("truncation level", n_trunc, 0)
    expo = 2.0 * n_trunc * (1.0 - hu.h) - d * hu.h
    q = (d * hu.h - 1.0) / (2.0 * (1.0 - hu.h))
    n_min = 0 if q < 0.0 else int(math.floor(q)) + 1
    return AdmissibilityResult(expo > -1.0, expo, n_min)


def _require_admissible(h, d: int, n_trunc: int) -> AdmissibilityResult:
    """The gate's result, or ``AdmissibilityError`` when it is closed."""
    gate = admissibility(h, d, n_trunc)
    if not gate.admissible:
        raise AdmissibilityError(
            f"(H={_hurst(h).h:g}, d={d}, N={n_trunc}) is not admissible: "
            f"2N(1-H) - dH = {gate.exponent:g} must exceed -1; "
            f"minimal N = {gate.minimal_n}", minimal_n=gate.minimal_n)
    return gate


def _order_weight(hurst, d: int, n: int, eps: float):
    """Time weight w^(-d/2) (tau^2 / w)^n of chaos order n, w = eps +
    tau^(2H), split as tau^(-alpha) * weight(tau); the chaos kernels'
    weight, and the gate of every order-n integrand.

    At eps = 0 the weight is the power tau^(-alpha), alpha = dH -
    2n(1-H), so the order must pass the admissibility gate and
    weight(tau) = 1.  At eps > 0 it is bounded: alpha = 0 and weight(tau)
    is the whole weight, formed as written: tau^2 <= tau^(2H) <= w, so
    (tau^2 / w)^n stays in [0, 1] at any order, where w^(-n-d/2) and
    tau^(2n) apart overflow and underflow.
    """
    if eps == 0.0:
        return -_require_admissible(hurst, d, n).exponent, lambda tau: 1.0
    two_h = 2.0 * _hurst(hurst).h

    def weight(tau):
        w = eps + tau ** two_h
        return w ** (-0.5 * d) * (tau ** 2 / w) ** n

    return 0.0, weight


def _order_term(hurst, d: int, n: int, eps: float):
    """alpha, gated by ``_order_weight``, and term(tau, r) -> (term, y):
    the order-n term tau^alpha (2 pi w)^(-d/2) (-y)^n / n!, y = |v|^2 /
    (2 w), w = eps + tau^(2H), from r = |v|^2 / tau^2.

    (-y)^n / n! is the product of x / k over k <= n, as in
    ``exp_truncated``, so it overflows only where the term does.  At
    eps > 0, x = -y.  At eps = 0, tau^(-alpha) = w^(-d/2) (tau^2 / w)^n
    goes to the engine and x = -r/2, so nothing is 0 * inf as tau -> 0.
    """
    alpha, _ = _order_weight(hurst, d, n, eps)
    pref = _TWO_PI ** (-0.5 * d)
    two_h = 2.0 * _hurst(hurst).h

    def term(tau, r):
        if eps == 0.0:
            x = -0.5 * r
            y = -x * tau ** (2.0 - two_h)
            scale = pref
        else:
            w = eps + tau ** two_h
            x = -0.5 * tau ** 2 * r / w
            y = -x
            scale = pref * w ** (-0.5 * d)
        lead = 1.0
        for k in range(1, n + 1):
            lead = lead * (x / k)
        return scale * lead, y

    return alpha, term


def is_admissible(h, d: int, n_trunc: int) -> bool:
    """True when tau^(2N(1-H) - dH) is integrable on the triangle."""
    return admissibility(h, d, n_trunc).admissible


def minimal_truncation_level(h, d: int) -> int:
    """Smallest N >= 0 making (H, d, N) admissible."""
    return admissibility(h, d, 0).minimal_n


@dataclass(frozen=True)
class DeltaSpec:
    """Parameters of a (truncated, regularized) delta functional."""

    hurst: Hurst
    d: int
    n_trunc: int = 0
    eps: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hurst", _hurst(self.hurst))
        object.__setattr__(self, "d", _integer("dimension", self.d, 1))
        object.__setattr__(self, "n_trunc",
                           _order("truncation level", self.n_trunc))
        object.__setattr__(self, "eps", _finite("regularization eps",
                                                self.eps, 0.0, strict=False))

    def require_admissible(self) -> None:
        if self.eps == 0.0:
            _require_admissible(self.hurst, self.d, self.n_trunc)


def _exp_tail_ratio(y, n: int):
    """exp_n(-y) * n! / (-y)^n, vectorized over y; e^(-y) at n = 0.

    For n >= 1 this is n * int_0^1 e^{-y u} (1-u)^(n-1) du, which tends
    to 1 as y -> 0+ and needs no powers of y, so callers can cancel the
    power of y analytically when y itself would underflow.  48-point
    Gauss panels that each span |y u| <= 50 keep 1e-12 relative
    accuracy.  For y < -50, [0, 1] is split into ceil(-y / 50) panels;
    for y > 50 only [0, 50 / y] is kept, beyond which the integrand is
    below e^-50 of its value at 0.  The rule is chosen for each y alone,
    so a value does not depend on the other points.
    """
    xs = -np.atleast_1d(np.asarray(y, dtype=float))
    if n == 0:
        return np.exp(xs)
    # 0 panels stands for the far rule.  The points of each rule go in
    # chunks of _TAIL_CHUNK, which bounds the (points x nodes) temporaries.
    n_panels = np.where(xs < -50.0, 0.0, np.ceil(xs / 50.0).clip(min=1.0))
    out = np.empty(xs.shape)
    for k in np.unique(n_panels):
        u, w = gauss_panels(np.linspace(0.0, 1.0, max(int(k), 1) + 1), 48)
        at = np.flatnonzero(n_panels == k)
        for start in range(0, at.size, _TAIL_CHUNK):
            chunk = at[start:start + _TAIL_CHUNK]
            x = xs[chunk, None]
            if k == 0.0:
                length = -50.0 / xs[chunk]
                s = length[:, None] * u
                out[chunk] = length * np.sum(
                    np.exp(x * s) * (1.0 - s) ** (n - 1) * w, axis=1)
            else:
                out[chunk] = np.sum(np.exp(x * u) * ((1.0 - u) ** (n - 1) * w),
                                    axis=1)
    return n * out


def exp_truncated(x, n: int):
    """Tail of the exponential series, exp_N(x) = sum_{k>=N} x^k / k!.

    Computed cancellation-free through the integral remainder

        exp_N(x) = x^N / (N-1)! * int_0^1 e^{x u} (1-u)^(N-1) du,

    that is x^N / N! times ``_exp_tail_ratio(-x, N)``, whose fixed Gauss
    rule keeps 1e-12 relative accuracy.  For N >= 1 it is formed once,
    as the product of x/k over k < N times the factor (x / N)
    ``_exp_tail_ratio(-x, N)``, which tends to -1 as x -> -inf; so it
    overflows only where exp_N(x) or x^(N-1) / (N-1)! does (x^N alone
    overflows at N = 170 once |x| > 65.05), and equals x^N / N! times
    the ratio bit for bit at N <= 1.  Vectorized over x.  For
    x > log(DBL_MAX) = 709.78, exp_N(x) > e^x (1 - 1e-100) is beyond the
    double range, and ``AccuracyError`` is raised before any work; so it
    is for a result, or its factor x^(N-1) / (N-1)!, beyond the double
    range at other x.
    """
    n = _order("series tail index", n)
    xs = _floats("exp_truncated's x", x)
    scalar = xs.ndim == 0
    # + 0.0 turns -0.0 into 0.0, so that exp_N(-0.0) = 0.0 for N >= 1.
    xs = np.atleast_1d(xs) + 0.0
    if not np.isfinite(xs).all():
        raise ConfigError("exp_truncated needs finite arguments")
    bad = xs > _LOG_DBL_MAX
    if not bad.any():
        lead = np.ones_like(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n):
                lead *= xs / k
            ratio = _exp_tail_ratio(-xs, n)
            out = lead * ((xs / n) * ratio) if n else ratio
            bad = ~np.isfinite(out)
    if bad.any():
        raise AccuracyError(
            f"exp_N(x) at N = {n}, x = {xs[bad][0]:.6g} is beyond the "
            "double range, or its factor x^(N-1) / (N-1)! is")
    return float(out[0]) if scalar else out


def s_char_exp(h, lam, s: float, t: float, f, tol: float = 1e-8) -> complex:
    """S-transform of exp(i lam . (B(t) - B(s))) at the test function f.

    Returns exp(-|lam|^2 |t-s|^(2H) / 2) * exp(+/- i lam . v) with the
    sign of (t - s); modulus is at most 1.
    """
    hu = _hurst(h)
    lam = np.array([_finite("lambda component", x, -math.inf, strict=True)
                    for x in np.atleast_1d(lam)])
    s = _finite("time s", s, -math.inf, strict=True)
    t = _finite("time t", t, -math.inf, strict=True)
    if s == t:
        raise ConfigError("degenerate time pair: s and t must differ")
    lo, hi = (s, t) if t > s else (t, s)
    sign = 1.0 if t > s else -1.0
    v = pairing_closed_form(hu, f, Interval(lo, hi), tol=tol)
    if lam.shape != v.shape:
        raise ConfigError(
            f"lambda has {lam.size} components but f has {v.size}")
    tau = hi - lo
    mag = math.exp(-0.5 * float(lam @ lam) * tau ** (2.0 * hu.h))
    return mag * complex(math.cos(float(lam @ v)),
                         sign * math.sin(float(lam @ v)))


def s_delta(spec: DeltaSpec, t1: float, t2: float, f,
            tol: float = 1e-10) -> float:
    """S-transform of the delta functional of ``spec`` at times (t1, t2).

    (2 pi w)^(-d/2) exp_N(-|v|^2 / (2 w)) with w = eps + tau^(2H); the
    bare delta is N = 0, eps = 0.  Coincident times need eps > 0.
    """
    spec = _instance("spec", spec, DeltaSpec)
    t1 = _finite("time t1", t1, -math.inf, strict=True)
    t2 = _finite("time t2", t2, -math.inf, strict=True)
    if t1 == t2 and spec.eps == 0.0:
        raise ConfigError("degenerate time pair: t1 = t2 requires eps > 0")
    bundle = _as_bundle(f, spec.d)
    v = (pairing_closed_form(spec.hurst, bundle,
                             Interval(min(t1, t2), max(t1, t2)), tol=tol)
         if t1 != t2 else np.zeros(spec.d))
    w = spec.eps + abs(t2 - t1) ** (2.0 * spec.hurst.h)
    return ((_TWO_PI * w) ** (-0.5 * spec.d)
            * float(exp_truncated(-0.5 * float(v @ v) / w, spec.n_trunc)))


def s_local_time(spec: DeltaSpec, f, tol: float = 1e-9, *,
                 pairing: PairingTable | None = None) -> QuadratureResult:
    """S-transform of the self-intersection local time over the triangle.

    The integrand is the sum of the ``_order_term`` terms of orders
    n >= N, and tau^(-alpha) goes to the singular quadrature engine.  At
    eps = 0, alpha = dH - 2N(1-H), behind the admissibility gate, and
    the sum is the order-N term times the tail ratio exp_N(-y) N! /
    (-y)^N.  For eps > 0 every order has alpha = 0 and x = -y, so the
    sum is the order-0 term times exp_N(-y), from ``exp_truncated``.

    A prebuilt ``pairing`` table of f saves its build; one for another
    H, d or f raises ``ConfigError``.
    """
    spec = _instance("spec", spec, DeltaSpec)
    h = spec.hurst.h
    d = spec.d
    n = spec.n_trunc
    alpha, term = _order_term(spec.hurst, d, n if spec.eps == 0.0 else 0,
                              spec.eps)
    bundle = _as_bundle(f, d)
    if pairing is None:
        pairing = PairingTable(spec.hurst, bundle)
    elif (pairing.hurst.h, pairing.d) != (h, d):
        raise ConfigError(f"pairing table for H = {pairing.hurst.h:g}, d = "
                          f"{pairing.d} given for H = {h:g}, d = {d}")
    elif pairing.components != bundle.components:
        raise ConfigError("pairing table built from another test function "
                          "than f")

    def g(t1, tau):
        value, y = term(tau, pairing.v_quotient_sq(t1, tau))
        if spec.eps == 0.0:
            return value * _exp_tail_ratio(y, n)
        return value * exp_truncated(-y, n)

    return integrate_triangle_singular(alpha, g, tol=tol)


@dataclass(frozen=True)
class UEstimateReport:
    """Empirical growth envelope of z -> S L(z f)."""

    z_values: tuple[float, ...]
    s_values: tuple[float, ...]
    k1: float
    k2: float
    envelope_holds: bool
    violations: tuple[int, ...]


def u_estimate_check(spec: DeltaSpec, f, z_values, tol: float = 1e-8) -> UEstimateReport:
    """Fit log|S L(z f)| <= log K1 + K2 |z|^2 |||f|||^2 over a z sample.

    The constants are empirical: K2 is the (floored) least-squares slope
    against |z|^2 |||f|||^2 and K1 closes the envelope over the sample.
    Sample points violating the fitted envelope (beyond tiny slack) are
    flagged; with a sane quadrature there should be none.
    """
    bundle = _as_bundle(f, _instance("spec", spec, DeltaSpec).d)
    zs = _each(_finite, "z sample", z_values, -math.inf, strict=True)
    if len(zs) < 2:
        raise ConfigError("need at least two z samples for an envelope")
    norm_sq = bundle.norm ** 2
    xs, ys = [], []
    for z in zs:
        res = s_local_time(spec, bundle.scaled(z), tol=tol)
        if res.value <= 0.0:
            raise ConfigError(
                "S-transform sample vanished; envelope fit undefined")
        xs.append(z * z * norm_sq)
        ys.append(math.log(res.value))
    xs_a = np.array(xs)
    ys_a = np.array(ys)
    if float(np.ptp(xs_a)) == 0.0:
        slope = 0.0
        icept = float(np.max(ys_a))
    else:
        slope, icept = np.polyfit(xs_a, ys_a, 1)
    k2 = max(float(slope), 1e-12)
    k1 = math.exp(float(np.max(ys_a - k2 * xs_a)))
    resid = ys_a - (math.log(k1) + k2 * xs_a)
    bad = tuple(int(i) for i in np.nonzero(resid > 1e-9)[0])
    return UEstimateReport(tuple(zs), tuple(float(math.exp(y)) for y in ys_a),
                           k1=k1, k2=k2, envelope_holds=not bad,
                           violations=bad)
