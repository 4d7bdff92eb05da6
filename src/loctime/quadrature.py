"""Quadrature for integrals with endpoint power-law singularities.

``integrate_interval`` is the one adaptive engine.  It handles
one-dimensional integrals whose integrand behaves like ``|x - p|^sigma``
(sigma > -1) near known points ``p``.  The interval is split at the
marked points and each singular endpoint is removed exactly by the
substitution ``x = p + w**(1/(1+sigma))``, which maps ``(x-p)^sigma dx``
to a constant multiple of ``dw``.  Panels are then refined adaptively
with an embedded Gauss pair (order n vs 2n), by generations: each
generation evaluates all new panels in as few integrand calls as its
block size allows.  One call integrates a batch of intervals (arrays
``lo``, ``hi``, one mark list and one set of parameters ``args`` per
row); a row's result is bit-identical whether it is integrated alone or
in a batch, as long as the integrand is computed point by point.

``integrate_triangle_singular`` computes

    I = int_{0 < t1 < t2 < 1} tau^(-alpha) * g(t1, t2) dt1 dt2,
    tau = t2 - t1,

for bounded g and alpha < 1 by reducing to the tau axis:

    I = int_0^1 tau^(-alpha) * G(tau) dtau,
    G(tau) = int_0^{1-tau} g(t1, t1 + tau) dt1.

Both integrals run on ``integrate_interval``.  The outer one is split at
geometric edges shrinking toward tau = 0 (ratio 1/2) and at the
integrand's outer breakpoints; for alpha > 0 it is computed after the
substitution tau = v**(1/(1-alpha)), which removes the singularity
exactly for constant G.  The outer integrand gets G at its tau nodes
from batched inner calls, 48 tau (one outer panel) per call, so
``g(t1, tau)`` receives ``tau`` as an array of the shape of ``t1``.  All
rules are open, so g is never evaluated at tau = 0 or at marked
singular points.

Integrands must be vectorized over numpy arrays.  Panel results are
summed in a fixed order, so repeated runs give bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, ConfigError, NonIntegrableError, _finite

__all__ = [
    "QuadratureResult",
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
    plus any budgeted contribution of inner integrals (a batched
    ``integrate_interval`` gives one value and one error per row);
    ``evaluations`` counts integrand points, not vector calls.
    """

    value: float
    error_estimate: float
    evaluations: int

    def __float__(self) -> float:
        return self.value


# Most panels evaluated in one call of the integrand by
# ``integrate_interval``, and most tau in one batch of inner integrals
# of the triangle engine (the 48 Gauss nodes of one outer panel), and
# the Gauss order of the inner panels.
_BLOCK = 512
_TAU_BLOCK = 48
_INNER_ORDER = 16


@lru_cache(maxsize=None)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


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


def _branches(lo: float, hi: float, singular) -> list:
    """Substitution branches ``(p, side, q, w_hi)`` covering ``[lo, hi]``.

    A branch maps ``w`` in ``[0, w_hi]`` to ``x = p + side * w**q``; a
    plain branch is ``q = 1``.  Exponents of coincident marks add up (a
    product of factors that are each singular at the same point).
    """
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
    out = []
    for a, b in zip(points[:-1], points[1:]):
        sa = marks.get(a)
        sb = marks.get(b)
        # Substitute only at genuinely singular endpoints.  A positive
        # exponent is just a kink; substituting there would manufacture
        # a w^(q-1) blow-up from the smooth additive part.
        sub_a = sa is not None and sa < 0.0
        sub_b = sb is not None and sb < 0.0
        if not (sub_a or sub_b):
            out.append((a, 1.0, 1.0, b - a))
            continue
        # Both ends singular: split at the midpoint m, one branch each.
        m = 0.5 * (a + b) if sub_a and sub_b else (b if sub_a else a)
        if sub_a:
            out.append((a, 1.0, 1.0 / (1.0 + sa), (m - a) ** (1.0 + sa)))
        if sub_b:
            out.append((b, -1.0, 1.0 / (1.0 + sb), (b - m) ** (1.0 + sb)))
    return out


def integrate_interval(f: Callable[..., np.ndarray], lo, hi, *,
                       tol: float,
                       singular: Sequence = (),
                       order: int = 16,
                       max_panels: int = 4096,
                       strict: bool = True,
                       args: Sequence = ()) -> QuadratureResult:
    """Integrate ``f`` over ``[lo, hi]`` with marked algebraic singularities.

    Parameters
    ----------
    f : callable
        Vectorized integrand ``f(x, *args)``; never called at marked
        points.
    lo, hi : float, or arrays of shape (rows,) for a batch of intervals
    singular : sequence of (point, sigma)
        Locations where the integrand behaves like ``|x - point|^sigma``
        with sigma > -1.  ``sigma == 0`` marks a plain breakpoint (jump
        or kink) where the interval is split without substitution.  A
        batch takes one such sequence per row (or none at all).
    tol : float
        Absolute error target for the embedded-rule estimate, per row.
    args : sequence
        Integrand parameters, one value per row; ``f`` receives each
        repeated at every node of its row.

    A batch returns arrays of values and errors, one entry per row;
    ``evaluations`` is always the total number of integrand points.
    """
    tol = _finite("quadrature tolerance", tol, 0.0, strict=True)
    batch = np.ndim(lo) > 0 or np.ndim(hi) > 0
    los, his = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, float)),
                                   np.atleast_1d(np.asarray(hi, float)))
    if not (np.isfinite(los).all() and np.isfinite(his).all()):
        raise ConfigError(f"integration bounds must be finite, got "
                          f"[{lo}, {hi}]")
    n_rows = los.size
    if not batch:
        singular = (singular,)
    elif not singular:
        singular = ((),) * n_rows
    elif len(singular) != n_rows:
        raise ConfigError(
            f"{len(singular)} mark lists for a batch of {n_rows} intervals")
    params = [np.broadcast_to(np.asarray(a, float), (n_rows,)) for a in args]

    # One panel per branch: row, x = p + side * w**q for w in [w_lo, w_hi].
    panels = np.array([(r,) + br for r in range(n_rows) if his[r] > los[r]
                       for br in _branches(float(los[r]), float(his[r]),
                                           singular[r])]).reshape(-1, 5)
    rows = panels[:, 0].astype(np.intp)
    p, side, q, w_hi = panels[:, 1:].T
    w_lo, val, err = np.zeros((3, rows.size))
    fresh = np.ones(rows.size, dtype=bool)
    (gx_c, gw_c), (gx_f, gw_f) = _leggauss(order), _leggauss(2 * order)
    unit = np.concatenate([gx_c, gx_f])
    evaluations = 0
    while fresh.any():
        # At most _BLOCK panels per call of f bound its array sizes.
        todo = np.flatnonzero(fresh)
        for start in range(0, todo.size, _BLOCK):
            idx = todo[start:start + _BLOCK]
            half = 0.5 * (w_hi[idx] - w_lo[idx])
            w = (w_lo[idx] + half)[:, None] + half[:, None] * unit
            # A real array, not a broadcast view: numpy's power takes
            # another code path, with other rounding, for a stride-0
            # exponent.
            qi = np.repeat(q[idx], unit.size).reshape(w.shape)
            pi = np.broadcast_to(p[idx][:, None], w.shape)
            x = pi + side[idx][:, None] * w ** qi
            # Nodes whose offset w**q rounds x back to p contribute zero:
            # the integrand cannot be evaluated at a mark, and everything
            # inside one ulp of p is below the resolution of the abscissae
            # anyway.  For marks at p = 0 the offset is exact and only the
            # denormal range (mass around 1e-60) is lost.
            ok = x != pi
            vals = np.zeros_like(x)
            at = np.broadcast_to(rows[idx][:, None], w.shape)[ok]
            qo, wo = qi[ok], w[ok]
            vals[ok] = (f(x[ok], *(a[at] for a in params))
                        * (qo * wo ** (qo - 1.0)))
            evaluations += at.size
            val[idx] = half * np.sum(vals[:, order:] * gw_f, axis=1)
            err[idx] = np.abs(
                val[idx] - half * np.sum(vals[:, :order] * gw_c, axis=1))

        # Split, in every row above tol, the panels above the row's share
        # of tol, largest error first and no more than keep the row at
        # max_panels; one at floating-point resolution is retired.  A row
        # whose error is rounding noise, below 50 ulp of its panel sums
        # (QUADPACK's round-off test), stops too.  Children replace their
        # parent in place, so each row keeps its panels in position order.
        row_n = np.bincount(rows, minlength=n_rows)
        row_err = np.bincount(rows, weights=err, minlength=n_rows)
        noise = 1.1e-14 * np.bincount(rows, weights=np.abs(val),
                                      minlength=n_rows)
        live = row_err > np.maximum(tol, noise)
        mid = 0.5 * (w_lo + w_hi)
        split = (live[rows] & (err * row_n[rows] > tol)
                 & (w_lo < mid) & (mid < w_hi))
        cand = np.flatnonzero(split)
        cand = cand[np.lexsort((-err[cand], rows[cand]))]
        first = np.searchsorted(rows[cand], rows[cand])
        rank = np.arange(cand.size) - first
        split[cand[rank >= (max_panels - row_n)[rows[cand]]]] = False
        reps = 1 + split
        take = np.repeat(np.arange(rows.size), reps)
        left = (np.cumsum(reps) - reps)[split]
        rows, p, side, q = rows[take], p[take], side[take], q[take]
        w_lo, w_hi, val, err = w_lo[take], w_hi[take], val[take], err[take]
        w_hi[left] = w_lo[left + 1] = mid[split]
        fresh = np.zeros(rows.size, dtype=bool)
        fresh[left] = fresh[left + 1] = True

    value = np.bincount(rows, weights=val, minlength=n_rows)
    error = np.bincount(rows, weights=err, minlength=n_rows)
    if strict and np.any(error > tol):
        worst = int(np.argmax(error))
        raise AccuracyError(
            f"integrate_interval: requested tolerance {tol:.3e} not "
            f"reached, error estimate {error[worst]:.3e}",
            value=float(value[worst]), error_estimate=float(error[worst]))
    if batch:
        return QuadratureResult(value, error, evaluations)
    return QuadratureResult(float(value[0]), float(error[0]), evaluations)


def triangle_power_moment(alpha: float) -> float:
    """Exact value of ``int_Delta tau^(-alpha)`` over the unit triangle.

    Equals ``int_0^1 (1 - tau) tau^(-alpha) dtau = 1/((1-alpha)(2-alpha))``
    for alpha < 1; diverges otherwise.
    """
    alpha = _finite("singular exponent alpha", alpha, -math.inf, strict=True)
    if alpha >= 1.0:
        raise NonIntegrableError(
            f"tau^(-{alpha:g}) is not integrable on the triangle; "
            "the exponent must stay below 1")
    return 1.0 / ((1.0 - alpha) * (2.0 - alpha))


def _inner_integrals(g, tol: float, marks_of):
    """G(tau) = int_0^{1-tau} g(t1, tau) dt1 at an array of tau (zero for
    tau outside (0, 1)), and a one-element list counting the points where
    g was evaluated.  Each block of _TAU_BLOCK tau is one batched
    ``integrate_interval`` call; the block bounds the refinement state
    held at once, which grows with the number of rows."""
    evaluations = [0]

    def G(taus: np.ndarray) -> np.ndarray:
        out = np.empty_like(taus)
        for start in range(0, taus.size, _TAU_BLOCK):
            t = taus[start:start + _TAU_BLOCK]
            widths = np.where(t > 0.0, 1.0 - t, 0.0)
            marks = ()
            if marks_of is not None:
                marks = [[(p, s) for p, s in marks_of(tau) if 0.0 < p < w]
                         for tau, w in zip(t.tolist(), widths.tolist())]
            res = integrate_interval(g, np.zeros_like(t), widths, tol=tol,
                                     singular=marks, order=_INNER_ORDER,
                                     strict=False, args=(t,))
            evaluations[0] += res.evaluations
            out[start:start + _TAU_BLOCK] = res.value
        return out

    return G, evaluations


def integrate_triangle_singular(
        alpha: float, g: Callable[[np.ndarray, np.ndarray], np.ndarray], *,
        tol: float = 1e-9,
        inner_singularities: Callable[[float], list[tuple[float, float]]]
        | None = None,
        outer_breakpoints: Sequence[float] = ()) -> QuadratureResult:
    """Integrate ``tau^(-alpha) g(t1, t2)`` over ``0 < t1 < t2 < 1``.

    ``g`` must be bounded and vectorized: ``g(t1, tau) -> array`` takes
    ``t1`` and ``tau`` as arrays of one shape and evaluates the bounded
    factor at the points (t1, t1 + tau).  The separation tau is passed
    exactly rather than reconstructed from t2 - t1, which would round to
    zero once tau drops below the floating-point spacing of t1 (the
    engine probes tau many orders of magnitude below that).
    ``inner_singularities``, if given, maps tau to a list of
    ``(t1_location, sigma)`` marks for the inner integral at that tau.
    ``outer_breakpoints`` lists the tau at which G(tau) has a kink or a
    jump; they are added to the outer panel edges.  alpha >= 1 raises
    ``NonIntegrableError``.
    """
    moment = triangle_power_moment(alpha)
    inner_tol = 0.25 * tol / max(moment, 1.0)
    G, evaluations = _inner_integrals(g, inner_tol, inner_singularities)

    # Geometric edges toward tau = 0 (ratio 1/2) and the breakpoints of G
    # split the tau axis.
    n_geo = 18
    edges = sorted({2.0 ** (k - n_geo) for k in range(n_geo)}
                   | {float(b) for b in outer_breakpoints
                      if 0.0 < b < 1.0})
    if alpha > 0.0:
        # tau = v**expo turns tau^(-alpha) dtau into expo dv, a bounded
        # integrand; tau^(-alpha) itself overflows near tau = 1e-310 for
        # alpha close to 1.  tau can underflow to exactly zero, where G
        # gives zero.
        expo = 1.0 / (1.0 - alpha)
        edges = [e ** (1.0 - alpha) for e in edges]

        def outer(v):
            return expo * G(v ** expo)
    else:

        def outer(taus):
            return taus ** (-alpha) * G(taus)

    res = integrate_interval(outer, 0.0, 1.0, tol=0.5 * tol, max_panels=2048,
                             singular=[(e, 0.0) for e in edges], strict=False)
    value, outer_err = res.value, res.error_estimate
    err = outer_err + inner_tol * moment
    if err > tol:
        raise AccuracyError(
            f"triangle quadrature stalled at error {err:.3e} "
            f"(requested {tol:.3e})", value=value, error_estimate=err)
    return QuadratureResult(value, err, evaluations[0])


def divergence_probe(alpha: float,
                     g: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     cutoffs: Sequence[float], *,
                     tol: float = 1e-9) -> list[tuple[float, float]]:
    """Cutoff integrals ``int_{tau > kappa} tau^(-alpha) g`` on the triangle.

    ``g`` follows the ``integrate_triangle_singular`` convention
    ``g(t1, tau)`` with array ``tau``.

    Returns ``[(kappa, value), ...]`` in the order given.  For alpha >= 1
    the values grow without bound as kappa -> 0; for alpha < 1 they
    converge to the full integral.  No integrability gate is applied.
    """
    alpha = _finite("singular exponent alpha", alpha, -math.inf, strict=True)
    kappas = np.array(cutoffs, dtype=float)
    for kappa in kappas.tolist():
        if not 0.0 < kappa < 1.0:
            raise ConfigError(f"cutoff {kappa} must lie in (0, 1)")
    G, _ = _inner_integrals(g, 0.1 * tol, None)

    def outer(taus):
        return taus ** (-alpha) * G(taus)

    # Geometric panels toward each cutoff resolve the steep growth.
    marks = [[(k * 2.0 ** j, 0.0) for j in range(1, int(-math.log2(k)) + 1)]
             for k in kappas.tolist()]
    res = integrate_interval(outer, kappas, 1.0, tol=0.5 * tol,
                             singular=marks, max_panels=1024, strict=False)
    return list(zip(kappas.tolist(), res.value.tolist()))
