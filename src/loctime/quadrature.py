"""Quadrature for integrals with endpoint power-law singularities.

Two engines live here.

``integrate_interval`` handles one-dimensional integrals whose integrand
behaves like ``|x - p|^sigma`` (sigma > -1) near known points ``p``.  The
interval is split at the marked points and each singular endpoint is
removed exactly by the substitution ``x = p + w**(1/(1+sigma))``, which
maps ``(x-p)^sigma dx`` to a constant multiple of ``dw``.  Panels are then
refined adaptively with an embedded Gauss pair (order n vs 2n).

``integrate_triangle_singular`` computes

    I = int_{0 < t1 < t2 < 1} tau^(-alpha) * g(t1, t2) dt1 dt2,
    tau = t2 - t1,

for bounded g and alpha < 1 by reducing to the tau axis:

    I = int_0^1 tau^(-alpha) * G(tau) dtau,
    G(tau) = int_0^{1-tau} g(t1, t1 + tau) dt1.

The tau axis is covered by geometric panels shrinking toward tau = 0
(ratio 1/2) with fixed-order Gauss rules per panel; the innermost panel
is computed after the substitution tau = v**(1/(1-alpha)) which removes
the singularity exactly for constant G.  All rules are open, so g is
never evaluated at tau = 0 or at marked singular points.

Integrands must be vectorized over numpy arrays.  Panel results are
summed in a fixed order, so repeated runs give bit-identical values.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, NonIntegrableError

__all__ = [
    "QuadratureResult",
    "SingularIntegrandSpec",
    "gauss_panels",
    "integrate_interval",
    "integrate_triangle_singular",
    "triangle_power_moment",
    "divergence_probe",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with an error estimate.

    ``error_estimate`` sums the embedded-rule differences of all panels,
    plus any budgeted contribution of inner integrals; ``evaluations``
    counts integrand calls (points, not vector calls).
    """

    value: float
    error_estimate: float
    evaluations: int

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_panels(edges, order: int):
    """Composite Gauss-Legendre rule on the panels between ``edges``.

    ``edges`` are increasing panel boundaries; returns flat arrays of
    nodes and weights, ``order`` per panel, panel by panel.
    """
    gx, gw = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def _panel_eval(f, lo: float, hi: float, order: int) -> float:
    x, w = _leggauss(order)
    half = 0.5 * (hi - lo)
    nodes = lo + half * (x + 1.0)
    vals = np.asarray(f(nodes), dtype=float)
    return half * float(w @ vals)


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _wrap_counted(f, counter: _Counter):
    def g(x):
        counter.n += x.size
        return f(x)

    return g


def _substitute(f, p: float, sigma: float, side: float):
    """Transform away ``|x - p|^sigma`` behaviour at an endpoint.

    ``side`` is +1 for the left endpoint (x = p + w**q) and -1 for the
    right one (x = p - w**q).  Nodes whose offset ``w**q`` rounds
    ``p + side * w**q`` back to ``p`` exactly are dropped (contribute
    zero): the integrand cannot be evaluated at the mark itself, and
    everything inside one ulp of ``p`` is below the resolution of
    double-precision abscissae anyway.  Callers who need the mass of
    that sub-ulp neighbourhood must integrate the offending strip in
    exact distance coordinates themselves; for marks at ``p = 0`` the
    offset is exact and only the denormal range (mass around 1e-60) is
    lost.
    """
    q = 1.0 / (1.0 + sigma)

    def g(w):
        x = p + side * w ** q
        out = np.zeros_like(x)
        ok = x != p
        if np.any(ok):
            out[ok] = f(x[ok]) * (q * w[ok] ** (q - 1.0))
        return out

    return g


def _run_adaptive(branches, tol: float, order: int, max_panels: int,
                  strict: bool, context: str):
    """Shared adaptive loop.  ``branches`` is a list of (func, lo, hi)."""
    heap = []
    panels = {}
    serial = 0
    err_total = 0.0
    for bi, (fb, lo, hi) in enumerate(branches):
        if hi <= lo:
            continue
        coarse = _panel_eval(fb, lo, hi, order)
        fine = _panel_eval(fb, lo, hi, 2 * order)
        err = abs(fine - coarse)
        panels[serial] = (bi, lo, hi, fine, err)
        heapq.heappush(heap, (-err, bi, lo, serial))
        err_total += err
        serial += 1

    while err_total > tol and len(panels) < max_panels and heap:
        neg_err, bi, lo, key = heapq.heappop(heap)
        if key not in panels:
            continue
        _, plo, phi, pval, perr = panels.pop(key)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # Width at floating point resolution, keep as is.
            panels[key] = (bi, plo, phi, pval, perr)
            break
        err_total -= perr
        fb = branches[bi][0]
        for (a, b) in ((plo, mid), (mid, phi)):
            coarse = _panel_eval(fb, a, b, order)
            fine = _panel_eval(fb, a, b, 2 * order)
            err = abs(fine - coarse)
            panels[serial] = (bi, a, b, fine, err)
            heapq.heappush(heap, (-err, bi, a, serial))
            err_total += err
            serial += 1

    # Deterministic final reduction: sum panels by position, not by
    # refinement history.
    value = 0.0
    err_total = 0.0
    for key in sorted(panels, key=lambda k: (panels[k][0], panels[k][1])):
        value += panels[key][3]
        err_total += panels[key][4]

    if strict and err_total > tol:
        raise AccuracyError(
            f"{context}: requested tolerance {tol:.3e} not reached, "
            f"error estimate {err_total:.3e} with {len(panels)} panels",
            value=value, error_estimate=err_total)
    return value, err_total


def integrate_interval(f: Callable[[np.ndarray], np.ndarray],
                       lo: float, hi: float, *,
                       tol: float,
                       singular: Sequence[tuple[float, float]] = (),
                       order: int = 16,
                       max_panels: int = 4096,
                       strict: bool = True) -> QuadratureResult:
    """Integrate ``f`` over ``[lo, hi]`` with marked algebraic singularities.

    Parameters
    ----------
    f : callable
        Vectorized integrand; never called at marked points.
    singular : sequence of (point, sigma)
        Locations where the integrand behaves like ``|x - point|^sigma``
        with sigma > -1.  ``sigma == 0`` marks a plain breakpoint (jump
        or kink) where the interval is split without substitution.
    tol : float
        Absolute error target for the embedded-rule estimate.
    """
    if hi <= lo:
        return QuadratureResult(0.0, 0.0, 0)
    counter = _Counter()
    fc = _wrap_counted(f, counter)

    # Exponents of coincident marks add up (a product of factors that
    # are each singular at the same point).
    marks: dict[float, float] = {}
    for p, sigma in singular:
        p = float(p)
        if lo <= p <= hi:
            marks[p] = marks.get(p, 0.0) + float(sigma)
    for p, sigma in marks.items():
        if sigma <= -1.0:
            raise NonIntegrableError(
                f"combined exponent {sigma:g} at x={p:g} is not integrable "
                "(must exceed -1)")

    points = sorted(set([lo, hi]) | set(marks))
    branches = []
    for a, b in zip(points[:-1], points[1:]):
        sa = marks.get(a)
        sb = marks.get(b)
        # Substitute only at genuinely singular endpoints.  A positive
        # exponent is just a kink; substituting there would manufacture
        # a w^(q-1) blow-up from the smooth additive part.
        sub_a = sa is not None and sa < 0.0
        sub_b = sb is not None and sb < 0.0
        if not (sub_a or sub_b):
            branches.append((fc, a, b))
            continue
        # Both ends singular: split at the midpoint m, one branch each.
        m = 0.5 * (a + b) if sub_a and sub_b else (b if sub_a else a)
        if sub_a:
            branches.append((_substitute(fc, a, sa, 1.0), 0.0,
                             (m - a) ** (1.0 + sa)))
        if sub_b:
            branches.append((_substitute(fc, b, sb, -1.0), 0.0,
                             (b - m) ** (1.0 + sb)))

    value, err = _run_adaptive(branches, tol, order, max_panels, strict,
                               "integrate_interval")
    return QuadratureResult(value, err, counter.n)


def triangle_power_moment(alpha: float) -> float:
    """Exact value of ``int_Delta tau^(-alpha)`` over the unit triangle.

    Equals ``int_0^1 (1 - tau) tau^(-alpha) dtau = 1/((1-alpha)(2-alpha))``
    for alpha < 1; diverges otherwise.
    """
    if alpha >= 1.0:
        raise NonIntegrableError(
            f"tau^(-{alpha:g}) is not integrable on the triangle; "
            "the exponent must stay below 1")
    return 1.0 / ((1.0 - alpha) * (2.0 - alpha))


@dataclass
class SingularIntegrandSpec:
    """Description of a triangle integrand ``tau^(-alpha) * g(t1, tau)``.

    ``g`` must be bounded and vectorized in its first argument:
    ``g(t1_array, tau) -> array`` evaluates the bounded factor on the
    segment t2 = t1 + tau.  The separation tau is passed exactly rather
    than reconstructed from t2 - t1, which would round to zero once tau
    drops below the floating-point spacing of t1 (the singular engine
    probes tau many orders of magnitude below that).
    ``inner_singularities``, if given, maps tau to a list of
    ``(t1_location, sigma)`` marks for the inner integral at that tau.
    """

    alpha: float
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tol: float = 1e-9
    inner_singularities: Callable[[float], list[tuple[float, float]]] | None = None
    inner_order: int = 16

    @property
    def integrable(self) -> bool:
        return self.alpha < 1.0


def integrate_triangle_singular(spec: SingularIntegrandSpec) -> QuadratureResult:
    """Integrate ``tau^(-alpha) g(t1, t2)`` over ``0 < t1 < t2 < 1``."""
    alpha = spec.alpha
    if alpha >= 1.0:
        raise NonIntegrableError(
            f"alpha = {alpha:g} >= 1: the triangle integral diverges")
    tol = spec.tol
    counter = _Counter()

    moment = triangle_power_moment(alpha)
    inner_tol = 0.25 * tol / max(moment, 1.0)

    def G(tau: float) -> float:
        width = 1.0 - tau
        if width <= 0.0:
            return 0.0
        sings = []
        if spec.inner_singularities is not None:
            for p, sigma in spec.inner_singularities(tau):
                if 0.0 < p < width:
                    sings.append((p, sigma))

        def inner(t1):
            counter.n += t1.size
            return spec.g(t1, tau)

        res = integrate_interval(inner, 0.0, width, tol=inner_tol,
                                 singular=sings, order=spec.inner_order,
                                 strict=False)
        return res.value

    def outer_plain(taus):
        out = np.empty_like(taus)
        for i, tau in enumerate(taus):
            out[i] = tau ** (-alpha) * G(tau)
        return out

    n_geo = 18
    tau_inner = 2.0 ** (-n_geo)
    branches = []
    if alpha > 0.0:
        expo = 1.0 / (1.0 - alpha)

        def innermost(v):
            out = np.empty_like(v)
            for i, vi in enumerate(v):
                tau = vi ** expo
                # tau can underflow to exactly zero; that region carries
                # mass below 1e-300 and the inner integral degenerates
                # there, so drop it instead of evaluating.
                out[i] = G(tau) * expo if tau > 0.0 else 0.0
            return out

        branches.append((innermost, 0.0, tau_inner ** (1.0 - alpha)))
    else:
        branches.append((outer_plain, 0.0, tau_inner))
    edges = [tau_inner * 2.0 ** k for k in range(n_geo)] + [1.0]
    for a, b in zip(edges[:-1], edges[1:]):
        branches.append((outer_plain, a, b))

    value, outer_err = _run_adaptive(branches, 0.5 * tol, 16, 2048,
                                     False, "integrate_triangle_singular")
    err = outer_err + inner_tol * moment
    if err > tol:
        raise AccuracyError(
            f"triangle quadrature stalled at error {err:.3e} "
            f"(requested {tol:.3e})", value=value, error_estimate=err)
    return QuadratureResult(value, err, counter.n)


def divergence_probe(alpha: float,
                     g: Callable[[np.ndarray, float], np.ndarray],
                     cutoffs: Sequence[float], *,
                     tol: float = 1e-9) -> list[tuple[float, float]]:
    """Cutoff integrals ``int_{tau > kappa} tau^(-alpha) g`` on the triangle.

    ``g`` follows the ``SingularIntegrandSpec`` convention
    ``g(t1_array, tau)``.

    Returns ``[(kappa, value), ...]`` in the order given.  For alpha >= 1
    the values grow without bound as kappa -> 0; for alpha < 1 they
    converge to the full integral.  No integrability gate is applied.
    """
    results = []
    for kappa in cutoffs:
        if not 0.0 < kappa < 1.0:
            raise ValueError(f"cutoff {kappa} must lie in (0, 1)")
        counter = _Counter()

        def G(tau: float) -> float:
            def inner(t1):
                counter.n += t1.size
                return g(t1, tau)

            res = integrate_interval(inner, 0.0, 1.0 - tau,
                                     tol=0.1 * tol, order=16, strict=False)
            return res.value

        def outer(taus):
            out = np.empty_like(taus)
            for i, tau in enumerate(taus):
                out[i] = tau ** (-alpha) * G(tau)
            return out

        # Geometric panels toward the cutoff resolve the steep growth.
        edges = [kappa]
        while edges[-1] * 2.0 < 1.0:
            edges.append(edges[-1] * 2.0)
        edges.append(1.0)
        branches = [(outer, a, b) for a, b in zip(edges[:-1], edges[1:])]
        value, err = _run_adaptive(branches, 0.5 * tol, 16, 1024, False,
                                   "divergence_probe")
        results.append((kappa, value))
    return results
