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
smallest valid N.  The singular factor extracted for quadrature is
tau^(-(dH - 2N(1-H))); the remaining factor

    tau^(-2N(1-H)) exp_N( -|v|^2 / (2 tau^(2H)) )

is bounded on the triangle because |v| <= C_H tau |||f||| and
|exp_N(-y)| <= y^N / N!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AdmissibilityError, ConfigError, _finite, _integer,
                     _order)
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
    tau^(2H), split as tau^(-alpha) * weight(tau).

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
    out = np.empty(xs.shape)
    far = xs < -50.0
    if far.any():
        u, w = gauss_panels((0.0, 1.0), 48)
        length = -50.0 / xs[far]
        s = length[:, None] * u
        out[far] = length * np.sum(
            np.exp(xs[far, None] * s) * (1.0 - s) ** (n - 1) * w, axis=1)
    n_panels = np.ceil(xs / 50.0).clip(min=1.0)
    for k in np.unique(n_panels[~far]):
        at = ~far & (n_panels == k)
        u, w = gauss_panels(np.linspace(0.0, 1.0, int(k) + 1), 48)
        out[at] = np.sum(np.exp(xs[at, None] * u) * ((1.0 - u) ** (n - 1) * w),
                         axis=1)
    return n * out


def exp_truncated(x, n: int):
    """Tail of the exponential series, exp_N(x) = sum_{k>=N} x^k / k!.

    Computed cancellation-free through the integral remainder

        exp_N(x) = x^N / (N-1)! * int_0^1 e^{x u} (1-u)^(N-1) du,

    that is x^N / N! times ``_exp_tail_ratio(-x, N)``, whose fixed Gauss
    rule keeps 1e-12 relative accuracy.  x^N / N! is formed as the
    product of x/k over k <= N, which overflows only where x^N / N!
    does (x^N alone overflows at N = 170 once |x| > 65.05) and equals
    x^N / N! bit for bit at N <= 2.  Vectorized over x.
    """
    n = _order("series tail index", n)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    # + 0.0 turns -0.0 into 0.0, so that exp_N(-0.0) = 0.0 for N >= 1.
    xs = np.atleast_1d(xs) + 0.0
    if not np.isfinite(xs).all():
        raise ConfigError("exp_truncated needs finite arguments")
    lead = np.ones_like(xs)
    for k in range(1, n + 1):
        lead *= xs / k
    out = lead * _exp_tail_ratio(-xs, n)
    return float(out[0]) if scalar else out


def s_char_exp(h, lam, s: float, t: float, f, tol: float = 1e-8) -> complex:
    """S-transform of exp(i lam . (B(t) - B(s))) at the test function f.

    Returns exp(-|lam|^2 |t-s|^(2H) / 2) * exp(+/- i lam . v) with the
    sign of (t - s); modulus is at most 1.
    """
    hu = _hurst(h)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
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

    alpha is the exponent of the order-N time weight: at eps = 0 it is
    dH - 2N(1-H), behind the admissibility gate, and the singular factor
    tau^(-alpha) is handed to the singular quadrature engine; the bounded
    remainder carries the truncated exponential.  For eps > 0 the
    integrand is bounded and alpha = 0.

    A prebuilt ``pairing`` table of f saves its build; one for another
    H, d or f raises ``ConfigError``.
    """
    h = spec.hurst.h
    d = spec.d
    n = spec.n_trunc
    alpha, _ = _order_weight(spec.hurst, d, n, spec.eps)
    bundle = _as_bundle(f, d)
    if pairing is None:
        pairing = PairingTable(spec.hurst, bundle)
    elif (pairing.hurst.h, pairing.d) != (h, d):
        raise ConfigError(f"pairing table for H = {pairing.hurst.h:g}, d = "
                          f"{pairing.d} given for H = {h:g}, d = {d}")
    elif pairing.components != bundle.components:
        raise ConfigError("pairing table built from another test function "
                          "than f")
    pref = _TWO_PI ** (-0.5 * d)
    two_h = 2.0 * h

    if spec.eps == 0.0:

        def g(t1, tau):
            # |v|^2 ~ tau^2 as tau -> 0, and tau^(-2N(1-H)) cancels
            # exactly against exp_N(-y) ~ y^N, y = |v|^2 / (2 tau^(2H)).
            # Written through r = |v|^2 / tau^2 and the tail ratio
            # exp_N(-y) N! / (-y)^N, nothing is 0 * inf or overflows.
            r = pairing.v_quotient_sq(t1, tau)
            y = 0.5 * r * tau ** (2.0 - two_h)
            return (pref * (-0.5 * r) ** n / math.factorial(n)
                    * _exp_tail_ratio(y, n))
    else:

        def g(t1, tau):
            w = spec.eps + tau ** two_h
            y = -0.5 * tau ** 2 * pairing.v_quotient_sq(t1, tau) / w
            return pref * w ** (-0.5 * d) * exp_truncated(y, n)

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
    bundle = _as_bundle(f, spec.d)
    zs = [float(z) for z in z_values]
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
