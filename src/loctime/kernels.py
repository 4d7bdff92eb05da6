"""Chaos-expansion kernels of the self-intersection local time.

The local time expands over even Wick powers of white noise.  In
dimension d, the order-2n kernel attached to the half-index
(n_1,...,n_d), sum n_j = n, evaluated at 2n points (grouped in blocks
of 2n_j per component) is

    (1/n!) (2pi)^(-d/2) (-1/2)^n
        int_Delta tau^(-(dH + 2nH)) prod_i (K 1_[t1,t2])(u_i) dt1 dt2,

with n! the product of the block factorials and K the increment kernel
map.  Only even full orders occur; queries with an odd per-component
order short-circuit to the structural zero.  Each order is integrable
precisely when 2n(1-H) - dH > -1, the same gate as the truncated local
time at level n; the regularized family replaces tau^(-(2nH + dH)) by
(eps + tau^(2H))^(-(n + d/2)) and is defined for every order.

``series_reconstruction`` sums kernel pairings against a test function
order by order and reports the partial sum, reproducing the S-transform
computed analytically by ``s_local_time``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NonIntegrableError, _each, _finite,
                     _instance, _integer, _order)
from .fracops import Hurst, PairingTable, _hurst, _kernel_scale
from .quadrature import integrate_triangle_singular
from .stransform import (AdmissibilityResult, DeltaSpec, _order_term,
                         _order_weight, admissibility)
from .testfunctions import _as_bundle

__all__ = [
    "AdmissibilityResult",
    "admissibility",
    "odd_kernel_zero",
    "kernel_value",
    "kernel_value_regularized",
    "series_reconstruction",
    "SeriesReport",
]

_TWO_PI = 2.0 * math.pi


def _kernel_input(idx, arg=None):
    """Half-orders (n_1, ..., n_d) of ``idx`` as ints and, unless ``arg``
    is None, its d blocks of 2 n_j finite points, flattened in order."""
    orders = tuple(_each(_integer, "kernel index entry", idx, 0))
    if not orders:
        raise ConfigError("kernel index needs at least one component")
    if arg is None:
        return orders, None
    try:
        blocks = [[float(u) for u in b] for b in arg]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"kernel argument must be blocks of numbers, "
                          f"got {arg!r}") from None
    sizes = [len(b) for b in blocks]
    if sizes != [2 * n for n in orders]:
        raise ConfigError(
            f"argument blocks {sizes} do not match index {orders} "
            f"(need sizes {[2 * n for n in orders]})")
    points = tuple(u for b in blocks for u in b)
    if not all(map(math.isfinite, points)):
        raise ConfigError(
            f"kernel argument points must be finite, got {points}")
    return orders, points


def odd_kernel_zero(idx) -> float:
    """Structural zero for any index with an odd component order.

    The expansion produces only even orders per component, so kernels
    with an odd order vanish identically; calling this with an all-even
    index is a misuse and raises.
    """
    orders, _ = _kernel_input(idx)
    if all(n % 2 == 0 for n in orders):
        raise ConfigError(
            f"index {orders} has no odd component; its kernel is not "
            "a structural zero")
    return 0.0


def _product_factory(hu: Hurst, points: tuple[float, ...]):
    """Vectorized (t1, tau) -> prod_i (K 1_[t1,t1+tau])(u_i) / tau.

    Each factor is returned as a difference quotient (divided by tau),
    the form that stays bounded as tau -> 0: where both kernel terms are
    positive, ((b + tau)^a - b^a) / tau = b^a expm1(a log1p(tau / b)) / tau
    with b = t1 - u, exact to rounding for every tau; on the width-tau
    strip t1 in (u - tau, u) only one term is nonzero, so nothing cancels.

    Also returns the exponent gamma <= 0 such that the inner integral
    of the product grows like tau^gamma as tau -> 0 (each argument u >= 0
    of multiplicity m contributes a strip of mass tau^(m a - (m-1)); one
    below 0 has no strip in t1 >= 0); the caller multiplies by
    tau^(-gamma) and shifts the outer singularity by the same amount to
    keep the engine's bounded-factor contract; and the tau in (0, 1)
    where the inner integral has kinks, the engine's outer breakpoints.
    """
    c = _kernel_scale(hu.h)
    a = hu.a
    us = np.asarray(points, dtype=float)

    def factors(t1: np.ndarray, tau: np.ndarray) -> np.ndarray:
        out = np.full(t1.shape, 1.0)
        for u in us:
            b = t1 - u
            q = np.zeros_like(t1)
            pos = b > 0.0
            strip = ~pos & (b + tau > 0.0)
            # At H = 1/2 the general expressions below give these values
            # bit for bit, but more slowly: perfbench's chaos_kernels
            # reads wall_s 0.319 s and op_p50_s 0.0209 s with this
            # branch and 0.371 s and 0.0250 s without it (2-CPU host,
            # 36 s runs, worse in 5 of 5 pairs).
            if a == 0.0:
                q[strip] = 1.0 / tau[strip]
            else:
                bb, tp = b[pos], tau[pos]
                q[pos] = bb ** a * np.expm1(a * np.log1p(tp / bb)) / tp
                ts = tau[strip]
                q[strip] = (b[strip] + ts) ** a / ts
            out = out * (c * q)
        return out

    mults = Counter(points)
    distinct = np.array(list(mults), dtype=float)
    sigmas = np.repeat(a * np.array(list(mults.values()), dtype=float), 2)

    def marks(taus: np.ndarray) -> np.ndarray:
        # Marks (point, sigma) at u and u - tau for each distinct u, of
        # shape (tau.size, 2k, 2); the engine adds up the exponents of
        # coincident ones.
        at = np.stack(np.broadcast_arrays(distinct, distinct - taus[:, None]),
                      axis=-1)
        return np.stack([at.reshape(taus.size, -1),
                         np.broadcast_to(sigmas, (taus.size, sigmas.size))],
                        axis=-1)

    # A point u >= 0 repeated m times makes the product blow up like
    # |t1 - u|^(m a) on the triangle; for u < 0 every factor is smooth
    # there, since t1 - u >= -u > 0.
    gamma = 0.0
    for u, mult in mults.items():
        if u >= 0.0:
            if mult * a <= -1.0:
                raise NonIntegrableError(
                    f"kernel argument u = {u:g} repeated {mult} times gives "
                    f"a local exponent {mult * a:g} <= -1; the product is "
                    "not integrable")
            gamma = min(gamma, mult * a - (mult - 1.0))

    # Kinks where two marks cross, or a mark crosses an end of the inner
    # interval [0, 1 - tau].
    kinks = ({abs(u - v) for u in points for v in points}
             | {t for u in points for t in (u, 1.0 - u)})
    breaks = tuple(sorted(t for t in kinks if 0.0 < t < 1.0))
    return factors, marks, gamma, breaks


def kernel_value(h, idx, arg, tol: float = 1e-8) -> float:
    """Kernel of order 2n at block-grouped points, prefactor included."""
    return _kernel(h, idx, arg, 0.0, tol)


def kernel_value_regularized(h, idx, eps: float, arg,
                             tol: float = 1e-8) -> float:
    """Regularized kernel, defined for every order when eps > 0."""
    eps = _finite("regularized kernel eps", eps, 0.0, strict=True)
    return _kernel(h, idx, arg, eps, tol)


def _kernel(h, idx, arg, eps: float, tol: float) -> float:
    """(1/n!) (2pi)^(-d/2) (-1/2)^n int_Delta weight_n prod_i (K 1)(u_i),
    with the order-n time weight of ``_order_weight``."""
    hu = _hurst(h)
    if arg is None:
        raise ConfigError("a kernel value needs d blocks of 2 n_j points")
    orders, points = _kernel_input(idx, arg)
    d = len(orders)
    n = sum(orders)
    alpha, weight = _order_weight(hu, d, n, eps)
    if any(u >= 1.0 for u in points):
        return 0.0

    factors, marks, gamma, breaks = _product_factory(hu, points)
    if eps == 0.0 and gamma < 0.0:
        # Near coincident points the inner integral grows like tau^gamma;
        # at eps = 0, where the weight is 1, that growth moves to the
        # outer singularity.  At eps > 0 the weight's tau^(2n) bounds it.
        if alpha - gamma >= 1.0:
            raise NonIntegrableError(
                f"kernel at these points is not integrable in time: near "
                f"coincidence the inner integral grows like tau^({gamma:g}) "
                f"against the factor tau^(-{alpha:g})")
        alpha -= gamma

        def weight(tau):
            return tau ** (-gamma)

    def g(t1, tau):
        return weight(tau) * factors(t1, tau)

    res = integrate_triangle_singular(alpha, g, tol=tol,
                                      inner_singularities=marks,
                                      outer_breakpoints=breaks)
    pref = (_TWO_PI ** (-0.5 * d) * (-0.5) ** n
            / math.prod(math.factorial(k) for k in orders))
    return pref * res.value


@dataclass(frozen=True)
class SeriesReport:
    """Order-by-order reconstruction of the local-time S-transform."""

    spec: DeltaSpec
    orders: tuple[int, ...]
    contributions: tuple[float, ...]
    error_estimates: tuple[float, ...]
    partial_sum: float
    last_term: float
    tol: float

    @property
    def converged(self) -> bool:
        return abs(self.last_term) <= self.tol


def series_reconstruction(spec: DeltaSpec, f, max_order: int,
                          tol: float = 1e-8) -> SeriesReport:
    """Sum the chaos contributions of orders N..max_order paired with f.

    Each order n contributes

        (2pi)^(-d/2) (-1/2)^n / n!  int_Delta w_n(tau) |v(t1,t2)|^(2n)

    (the sum over half-indices |k| = n of prod_j v_j^(2 k_j) / k_j!
    collapses to |v|^(2n) / n! by the multinomial theorem), with
    w_n = tau^(-(dH+2nH)) (eps = 0) or (eps+tau^(2H))^(-(n+d/2)),
    and v the pairing vector of f with the increment kernel.  The
    integrand is the order-n term of ``_order_term``, whose orders
    n >= N ``s_local_time`` sums in closed form, so the sum converges to
    s_local_time(spec, f); an insufficient max_order is reported through
    ``converged``/``last_term`` rather than raised.
    """
    spec = _instance("spec", spec, DeltaSpec)
    max_order = _order("max_order", max_order, spec.n_trunc)
    orders = tuple(range(spec.n_trunc, max_order + 1))
    # The order terms open the gate at order N before the table is built.
    terms = [_order_term(spec.hurst, spec.d, n, spec.eps) for n in orders]
    bundle = _as_bundle(f, spec.d)
    table = PairingTable(spec.hurst, bundle)
    per_order_tol = tol / (2.0 * len(orders))

    contributions = []
    errors = []
    for alpha, term in terms:

        def g(t1, tau, term=term):
            return term(tau, table.v_quotient_sq(t1, tau))[0]

        res = integrate_triangle_singular(alpha, g, tol=per_order_tol)
        contributions.append(res.value)
        errors.append(res.error_estimate)

    total = float(np.sum(np.asarray(contributions)))
    return SeriesReport(spec=spec, orders=orders,
                        contributions=tuple(contributions),
                        error_estimates=tuple(errors),
                        partial_sum=total,
                        last_term=contributions[-1] if contributions else 0.0,
                        tol=tol)
