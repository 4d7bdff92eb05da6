"""Quadrature for integrals with endpoint power-law singularities.

``integrate_interval`` is the one adaptive engine.  It handles
one-dimensional integrals whose integrand behaves like ``|x - p|^sigma``
(sigma > -1) near known points ``p``.  The interval is split at the
marked points and each singular endpoint is removed exactly by the
substitution ``x = p + w**(1/(1+sigma))``, which maps ``(x-p)^sigma dx``
to a constant multiple of ``dw``.  Panels are then refined adaptively
with an embedded Gauss pair (_ORDER = 16 nodes vs 32), by generations:
each generation evaluates all new panels in calls of the integrand of at
most _MAX_POINTS points.  One call integrates a batch of intervals
(arrays ``lo``, ``hi``, one mark list and one set of parameters ``args``
per row); a row's result is bit-identical whether it is integrated alone
or in a batch, as long as the integrand is computed point by point.
The panels of all rows are set up at once, in numpy.  A row that stops
refining is summed and its panels dropped, and a batch holds at most
_MAX_PANELS panels beyond one row's ``max_panels``: splits past that
wait until earlier rows are done.

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
from batched inner calls, so ``g(t1, tau)`` receives ``tau`` as an array
of the shape of ``t1``.  The two caps, points per integrand call and
panels held per call, bound the memory the engine holds.  All rules are
open, so g is never evaluated at tau = 0 or at marked singular points.
The inner integrals of one triangle integral may use at most
_MAX_EVALUATIONS integrand points: each inner call takes only as many
tau as the rest of that budget covers in the worst case, and
``AccuracyError`` is raised once that is not one tau.

Integrands must be vectorized over numpy arrays.  Panel results are
summed in a fixed order, so repeated runs give bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (AccuracyError, ConfigError, NonIntegrableError, _each,
                     _finite, _floats)

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


# The engine's Gauss pair has _ORDER nodes against 2 * _ORDER, 3 * _ORDER
# points a panel.  The caps on its state: most integrand points in one
# call of the integrand (128 panels), and most panels held, all rows of
# a batch together, beyond one row's ``max_panels``.
_ORDER = 16
_MAX_POINTS = 128 * 3 * _ORDER
_MAX_PANELS = 65536
# Most integrand points the inner integrals of one triangle integral may
# use.
_MAX_EVALUATIONS = 200_000_000


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


def _marks(singular, n_rows: int):
    """Row, point and exponent arrays of a batch's marks: one sequence of
    (point, sigma) pairs per row (an array of shape (rows, k, 2) too), or
    none at all."""
    if len(singular) == 0:
        return np.zeros(0, np.intp), np.zeros(0), np.zeros(0)
    if len(singular) != n_rows:
        raise ConfigError(f"{len(singular)} mark lists for a batch of "
                          f"{n_rows} intervals")
    if isinstance(singular, np.ndarray):
        pairs = np.asarray(singular, float).reshape(-1, 2)
        sizes = singular.shape[1]
    else:
        sizes = [len(marks) for marks in singular]
        pairs = np.array([pair for marks in singular for pair in marks],
                         dtype=float).reshape(-1, 2)
    return np.repeat(np.arange(n_rows), sizes), pairs[:, 0], pairs[:, 1]


def _panels(los, his, mark_row, mark_p, mark_s):
    """Substitution panels covering each row's ``[lo, hi]``: arrays of
    row, p, side, q and w_hi, each row's panels in position order.

    A panel maps ``w`` in ``[0, w_hi]`` to ``x = p + side * w**q``; a
    plain panel has ``q = 1``.  A row without marks in ``[lo, hi]`` is one
    plain panel.  A marked row is split at its marks: exponents of
    coincident marks add up (a product of factors that are each singular
    at the same point), a combined exponent <= -1 raises
    ``NonIntegrableError``, a piece is substituted only at its singular
    (sigma < 0) ends, and a piece singular at both ends is split at its
    midpoint.  Empty rows (hi <= lo) get no panel.
    """
    live = his > los
    keep = (live[mark_row] & (los[mark_row] <= mark_p)
            & (mark_p <= his[mark_row]))
    mark_row, mark_p, mark_s = mark_row[keep], mark_p[keep], mark_s[keep]
    live = np.flatnonzero(live)

    # The points of the rows: lo, hi and the marks in the order given,
    # sorted stably by position, so that of coincident points lo or hi
    # comes first and the exponents add up in the order given (bincount
    # sums in array order).
    row = np.concatenate([live, live, mark_row])
    x = np.concatenate([los[live], his[live], mark_p])
    s = np.concatenate([np.zeros(2 * live.size), mark_s])
    is_mark = np.arange(row.size) >= 2 * live.size
    order = np.lexsort((x, row))
    row, x, s, is_mark = row[order], x[order], s[order], is_mark[order]
    head = np.ones(row.size, dtype=bool)
    head[1:] = (row[1:] != row[:-1]) | (x[1:] != x[:-1])
    group = np.cumsum(head) - 1
    sigma = np.bincount(group, weights=s)
    has_mark = np.bincount(group, weights=is_mark) > 0.0
    bad = np.flatnonzero(has_mark & (sigma <= -1.0))
    if bad.size:
        raise NonIntegrableError(
            f"combined exponent {sigma[bad[0]]:g} at x={x[head][bad[0]]:g} "
            "is not integrable (must exceed -1)")
    # Substitute only at genuinely singular ends.  A positive exponent is
    # just a kink; substituting there would manufacture a w^(q-1) blow-up
    # from the smooth additive part.
    sub = has_mark & (sigma < 0.0)

    g_row, g_x = row[head], x[head]
    seg = np.flatnonzero(g_row[1:] == g_row[:-1])
    a, b = g_x[seg], g_x[seg + 1]
    sub_a, sub_b = sub[seg], sub[seg + 1]
    e_a, e_b = 1.0 + sigma[seg], 1.0 + sigma[seg + 1]
    # Both ends singular: split at the midpoint m, one branch each.
    m = np.where(sub_a & sub_b, 0.5 * (a + b), np.where(sub_a, b, a))
    # Each piece has a branch at a (plain, or substituted at a) unless
    # only b is singular, and one at b if b is.
    at_a = ~sub_b | sub_a
    q_a, w_a = np.ones(seg.size), b - a
    q_a[sub_a] = 1.0 / e_a[sub_a]
    w_a[sub_a] = _pow(m[sub_a] - a[sub_a], e_a[sub_a])
    q_b, w_b = np.ones(seg.size), np.zeros(seg.size)
    q_b[sub_b] = 1.0 / e_b[sub_b]
    w_b[sub_b] = _pow(b[sub_b] - m[sub_b], e_b[sub_b])
    both = np.stack([at_a, sub_b], axis=1).ravel()
    ones = np.ones(seg.size)
    branches = ((g_row[seg], g_row[seg]), (a, b), (ones, -ones), (q_a, q_b),
                (w_a, w_b))
    return tuple(np.stack(on, axis=1).ravel()[both] for on in branches)


def _pow(base, expo):
    """base**expo rounded as the C library's pow (Python's float power)
    rounds it.  numpy's vectorized power differs from pow in the last bit
    for some arguments, and a panel edge that moves moves the value."""
    return np.power(base.astype(object), expo.astype(object)).astype(float)


def integrate_interval(f: Callable[..., np.ndarray], lo, hi, *,
                       tol: float,
                       singular: Sequence = (),
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
        A single interval needs lo <= hi, else ``ConfigError``; a batch
        row with hi <= lo is empty and integrates to 0.
    singular : sequence of (point, sigma)
        Locations where the integrand behaves like ``|x - point|^sigma``
        with sigma > -1.  ``sigma == 0`` marks a plain breakpoint (jump
        or kink) where the interval is split without substitution.  A
        batch takes one such sequence per row, an array of shape
        (rows, k, 2), or none at all.  Marks outside a row's interval,
        NaN points among them, do not count.
    tol : float
        Absolute error target for the embedded-rule estimate, per row.
        With ``strict``, a row that misses it, or whose integrand gave
        a value that is not finite, raises ``AccuracyError``.
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
    if not batch and his[0] < los[0]:
        raise ConfigError(f"integration bounds are reversed: [{lo}, {hi}]")
    n_rows = los.size
    if not batch:
        singular = (singular,)
    params = [_floats("integrand parameter", a, (n_rows,)) for a in args]

    # One panel per branch: row, x = p + side * w**q for w in [w_lo, w_hi].
    rows, p, side, q, w_hi = _panels(los, his, *_marks(singular, n_rows))
    w_lo, val, err = np.zeros((3, rows.size))
    value, error = np.zeros((2, n_rows))
    fresh = np.ones(rows.size, dtype=bool)
    (gx_c, gw_c), (gx_f, gw_f) = _leggauss(_ORDER), _leggauss(2 * _ORDER)
    unit = np.concatenate([gx_c, gx_f])
    block = max(1, _MAX_POINTS // unit.size)
    evaluations = 0
    while rows.size:
        # At most _MAX_POINTS points per call of f bound its array sizes.
        todo = np.flatnonzero(fresh)
        for start in range(0, todo.size, block):
            idx = todo[start:start + block]
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
            val[idx] = half * np.sum(vals[:, _ORDER:] * gw_f, axis=1)
            err[idx] = np.abs(
                val[idx] - half * np.sum(vals[:, :_ORDER] * gw_c, axis=1))

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
        # A row with nothing to split never changes again: its sums are
        # taken now, over its panels in order as bincount takes them, and
        # its panels dropped.  Splits that would take the panels held past
        # _MAX_PANELS wait, the later rows first, but the first row's
        # always go ahead; so at most _MAX_PANELS + max_panels panels are
        # held, and a row that waits refines as it would have, only later.
        grow = np.bincount(rows[split], minlength=n_rows)
        done = grow[rows] == 0
        value += np.bincount(rows[done], weights=val[done], minlength=n_rows)
        error += np.bincount(rows[done], weights=err[done], minlength=n_rows)
        held = np.cumsum(grow) + (rows.size - np.count_nonzero(done))
        room = max(_MAX_PANELS, held[np.argmax(grow > 0)])
        split &= (held <= room)[rows]
        reps = np.where(done, 0, 1 + split)
        take = np.repeat(np.arange(rows.size), reps)
        left = (np.cumsum(reps) - reps)[split]
        rows, p, side, q = rows[take], p[take], side[take], q[take]
        w_lo, w_hi, val, err = w_lo[take], w_hi[take], val[take], err[take]
        w_hi[left] = w_lo[left + 1] = mid[split]
        fresh = np.zeros(rows.size, dtype=bool)
        fresh[left] = fresh[left + 1] = True

    # A NaN error, from an integrand that is not finite, fails the test.
    if strict and not np.all(error <= tol):
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
    g was evaluated.  Each batched ``integrate_interval`` call takes as
    many tau as the rest of the _MAX_EVALUATIONS budget covers when every
    row refines to its last panel; once that is not one tau,
    ``AccuracyError`` is raised, so the budget is never overrun."""
    evaluations = [0]
    # A row ends with at most max_panels panels and each split evaluates
    # two new ones, 3 * _ORDER points each.
    max_panels = 4096
    row_points = 2 * max_panels * 3 * _ORDER

    def G(taus: np.ndarray) -> np.ndarray:
        out = np.empty_like(taus)
        start = 0
        while start < taus.size:
            n = (_MAX_EVALUATIONS - evaluations[0]) // row_points
            if n < 1:
                raise AccuracyError(
                    f"triangle quadrature stopped after {evaluations[0]:,} "
                    f"integrand evaluations: the rest of its budget of "
                    f"{_MAX_EVALUATIONS:,} does not cover another inner "
                    "integral")
            t = taus[start:start + n]
            widths = np.where(t > 0.0, 1.0 - t, 0.0)
            marks = () if marks_of is None else _marks_at(marks_of, t)
            res = integrate_interval(g, np.zeros_like(t), widths, tol=tol,
                                     singular=marks, max_panels=max_panels,
                                     strict=False, args=(t,))
            evaluations[0] += res.evaluations
            out[start:start + n] = res.value
            start += n
        return out

    return G, evaluations


def _marks_at(marks_of, t):
    """The marks ``marks_of`` gives at the array ``t``, as pairs of shape
    (t.size, k, 2)."""
    pairs = _floats("inner_singularities' (t1, sigma) pairs", marks_of(t))
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim == 2 and pairs.shape[1] == 2:
        return np.broadcast_to(pairs, t.shape + pairs.shape)
    if pairs.ndim == 3 and pairs.shape[0] == t.size and pairs.shape[2] == 2:
        return pairs
    raise ConfigError(f"inner_singularities gave pairs of shape "
                      f"{pairs.shape} at {t.size} tau; expected (k, 2) or "
                      f"({t.size}, k, 2)")


def integrate_triangle_singular(
        alpha: float, g: Callable[[np.ndarray, np.ndarray], np.ndarray], *,
        tol: float = 1e-9,
        inner_singularities: Callable[[np.ndarray], Sequence] | None = None,
        outer_breakpoints: Sequence[float] = ()) -> QuadratureResult:
    """Integrate ``tau^(-alpha) g(t1, t2)`` over ``0 < t1 < t2 < 1``.

    ``g`` must be bounded and vectorized: ``g(t1, tau) -> array`` takes
    ``t1`` and ``tau`` as arrays of one shape and evaluates the bounded
    factor at the points (t1, t1 + tau).  The separation tau is passed
    exactly rather than reconstructed from t2 - t1, which would round to
    zero once tau drops below the floating-point spacing of t1 (the
    engine probes tau many orders of magnitude below that).
    ``inner_singularities``, if given, maps an array of tau to the
    ``(t1_location, sigma)`` marks of the inner integrals there: pairs
    of shape (k, 2) shared by every tau, or (tau.size, k, 2).
    ``outer_breakpoints`` lists the tau at which G(tau) has a kink or a
    jump; they are added to the outer panel edges.  alpha >= 1 raises
    ``NonIntegrableError``.  ``AccuracyError`` is raised rather than let
    the inner integrals use more than 200 million integrand points.
    """
    tol = _finite("quadrature tolerance", tol, 0.0, strict=True)
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
    if not err <= tol:
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
    tol = _finite("quadrature tolerance", tol, 0.0, strict=True)
    kappas = np.array(_each(_finite, "cutoff", cutoffs, 0.0, strict=True))
    for kappa in kappas.tolist():
        if kappa >= 1.0:
            raise ConfigError(f"cutoff {kappa} must lie in (0, 1)")
    G, _ = _inner_integrals(g, 0.1 * tol, None)

    def outer(taus):
        return taus ** (-alpha) * G(taus)

    # Geometric panels toward each cutoff resolve the steep growth.
    marks = [[(k * 2.0 ** j, 0.0) for j in range(1, int(-math.log2(k)) + 1)]
             for k in kappas.tolist()]
    res = integrate_interval(outer, kappas, 1.0, tol=0.5 * tol,
                             singular=marks, max_panels=1024, strict=False)
    if not np.isfinite(res.value).all():
        raise AccuracyError(
            f"divergence probe: a cutoff integral is not finite, got "
            f"{res.value.tolist()}")
    return list(zip(kappas.tolist(), res.value.tolist()))
