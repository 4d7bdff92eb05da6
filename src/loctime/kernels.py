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

from .errors import ConfigError, NonIntegrableError
from .fracops import Hurst, PairingTable, _hurst, _kernel_scale
from .quadrature import SingularIntegrandSpec, integrate_triangle_singular
from .stransform import (AdmissibilityResult, DeltaSpec, _as_bundle,
                         _require_admissible, admissibility)

__all__ = [
    "KernelIndex",
    "KernelArgument",
    "AdmissibilityResult",
    "admissibility",
    "odd_kernel_zero",
    "kernel_value",
    "kernel_value_regularized",
    "series_reconstruction",
    "SeriesReport",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class KernelIndex:
    """Multi-index over the d components of the expansion."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(n) for n in self.orders)
        if not orders:
            raise ConfigError("kernel index needs at least one component")
        if any(n < 0 for n in orders) or orders != tuple(self.orders):
            raise ConfigError(
                f"kernel index must be nonnegative integers, got {self.orders}")
        object.__setattr__(self, "orders", orders)

    @property
    def d(self) -> int:
        return len(self.orders)

    @property
    def total(self) -> int:
        return sum(self.orders)

    @property
    def factorial_weight(self) -> int:
        out = 1
        for n in self.orders:
            out *= math.factorial(n)
        return out


def _index(idx) -> KernelIndex:
    if isinstance(idx, KernelIndex):
        return idx
    return KernelIndex(tuple(idx))


@dataclass(frozen=True)
class KernelArgument:
    """Evaluation points grouped in d blocks of even sizes."""

    blocks: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(float(u) for u in b) for b in self.blocks)
        if any(len(b) % 2 for b in blocks):
            raise ConfigError("kernel argument blocks must have even sizes")
        object.__setattr__(self, "blocks", blocks)

    @property
    def points(self) -> tuple[float, ...]:
        return tuple(u for b in self.blocks for u in b)

    @property
    def count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def matches(self, idx: KernelIndex) -> bool:
        return (len(self.blocks) == idx.d
                and all(len(b) == 2 * n
                        for b, n in zip(self.blocks, idx.orders)))


def _argument(arg, idx: KernelIndex) -> KernelArgument:
    if not isinstance(arg, KernelArgument):
        arg = KernelArgument(tuple(tuple(b) for b in arg))
    if not arg.matches(idx):
        raise ConfigError(
            f"argument blocks {[len(b) for b in arg.blocks]} do not match "
            f"index {idx.orders} (need sizes {[2 * n for n in idx.orders]})")
    return arg


def odd_kernel_zero(idx) -> float:
    """Structural zero for any index with an odd component order.

    The expansion produces only even orders per component, so kernels
    with an odd order vanish identically; calling this with an all-even
    index is a misuse and raises.
    """
    idx = _index(idx)
    if all(n % 2 == 0 for n in idx.orders):
        raise ConfigError(
            f"index {idx.orders} has no odd component; its kernel is not "
            "a structural zero")
    return 0.0


def _check_multiplicities(points: tuple[float, ...], a: float) -> None:
    if a >= 0.0:
        return
    for u, mult in Counter(points).items():
        if mult * a <= -1.0:
            raise NonIntegrableError(
                f"kernel argument u = {u:g} repeated {mult} times gives a "
                f"local exponent {mult * a:g} <= -1; the product is not "
                "integrable")


def _product_factory(hu: Hurst, points: tuple[float, ...]):
    """Vectorized (t1, tau) -> prod_i (K 1_[t1,t1+tau])(u_i) / tau.

    Each factor is returned as a difference quotient (divided by tau),
    the form that stays bounded and cancellation-free as tau -> 0:
    where both kernel terms are positive the quotient switches to a
    midpoint Taylor expansion once tau is small against the distance
    from the singularity, and on the width-tau strip t1 in (u - tau, u)
    only one term is nonzero, so nothing cancels.

    Also returns the exponent gamma <= 0 such that the inner integral
    of the product grows like tau^gamma as tau -> 0 (each argument of
    multiplicity m contributes a strip of mass tau^(m a - (m-1))); the
    caller multiplies by tau^(-gamma) and shifts the outer singularity
    by the same amount to keep the engine's bounded-factor contract;
    and the tau in (0, 1) where the inner integral has kinks, the
    engine's outer breakpoints.
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
            if a == 0.0:
                q[strip] = 1.0 / tau[strip]
            else:
                bb, tp = b[pos], tau[pos]
                mid = bb + 0.5 * tp
                qq = np.empty_like(bb)
                tiny = tp < 1e-3 * mid
                m, r = mid[tiny], tp[tiny] / mid[tiny]
                qq[tiny] = (a * m ** (a - 1.0)
                            * (1.0 + (a - 1.0) * (a - 2.0) * r * r / 24.0))
                bb, tp = bb[~tiny], tp[~tiny]
                qq[~tiny] = ((bb + tp) ** a - bb ** a) / tp
                q[pos] = qq
                ts = tau[strip]
                q[strip] = (b[strip] + ts) ** a / ts
            out = out * (c * q)
        return out

    mults = Counter(points)

    def marks(tau: float) -> list[tuple[float, float]]:
        sig: dict[float, float] = {}
        for u, mult in mults.items():
            for p in (u, u - tau):
                sig[p] = sig.get(p, 0.0) + mult * a
        return sorted(sig.items())

    gamma = 0.0
    for mult in mults.values():
        gamma = min(gamma, mult * a - (mult - 1.0))

    # Kinks where two marks cross, or a mark crosses an end of the inner
    # interval [0, 1 - tau].
    kinks = ({abs(u - v) for u in points for v in points}
             | {t for u in points for t in (u, 1.0 - u)})
    breaks = tuple(sorted(t for t in kinks if 0.0 < t < 1.0))
    return factors, marks, gamma, breaks


def kernel_value(h, idx, arg, tol: float = 1e-8) -> float:
    """Kernel of order 2n at block-grouped points, prefactor included."""
    hu = _hurst(h)
    idx = _index(idx)
    arg = _argument(arg, idx)
    d = idx.d
    n = idx.total
    alpha = -_require_admissible(hu, d, n).exponent
    points = arg.points
    if any(u >= 1.0 for u in points):
        return 0.0
    _check_multiplicities(points, hu.a)

    pref = (_TWO_PI ** (-0.5 * d) * (-0.5) ** n / idx.factorial_weight)
    if n == 0:
        spec = SingularIntegrandSpec(alpha=alpha,
                                     g=lambda t1, tau: np.ones_like(t1),
                                     tol=tol)
        return pref * integrate_triangle_singular(spec).value

    factors, marks, gamma, breaks = _product_factory(hu, points)
    alpha_eff = alpha - gamma
    if alpha_eff >= 1.0:
        raise NonIntegrableError(
            f"kernel at these points is not integrable in time: near "
            f"coincidence the inner integral grows like tau^({gamma:g}) "
            f"against the factor tau^(-{alpha:g})")

    if gamma == 0.0:
        g = factors
    else:

        def g(t1, tau):
            return tau ** (-gamma) * factors(t1, tau)

    spec = SingularIntegrandSpec(alpha=alpha_eff, g=g, tol=tol,
                                 inner_singularities=marks,
                                 outer_breakpoints=breaks)
    return pref * integrate_triangle_singular(spec).value


def kernel_value_regularized(h, idx, eps: float, arg,
                             tol: float = 1e-8) -> float:
    """Regularized kernel, defined for every order when eps > 0."""
    hu = _hurst(h)
    idx = _index(idx)
    arg = _argument(arg, idx)
    if eps <= 0.0:
        raise ConfigError(f"regularized kernel needs eps > 0, got {eps}")
    d = idx.d
    n = idx.total
    points = arg.points
    if any(u >= 1.0 for u in points):
        return 0.0
    _check_multiplicities(points, hu.a)

    pref = (_TWO_PI ** (-0.5 * d) * (-0.5) ** n / idx.factorial_weight)
    two_h = 2.0 * hu.h
    power = -(n + 0.5 * d)
    if n == 0:
        spec = SingularIntegrandSpec(
            alpha=0.0,
            g=lambda t1, tau: (eps + tau ** two_h) ** power,
            tol=tol)
        return pref * integrate_triangle_singular(spec).value

    factors, marks, _, breaks = _product_factory(hu, points)

    def g(t1, tau):
        return (eps + tau ** two_h) ** power * tau ** (2 * n) * factors(t1, tau)

    spec = SingularIntegrandSpec(alpha=0.0, g=g, tol=tol,
                                 inner_singularities=marks,
                                 outer_breakpoints=breaks)
    return pref * integrate_triangle_singular(spec).value


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
    and v the pairing vector of f with the increment kernel.  The sum
    converges to s_local_time(spec, f); an insufficient max_order is
    reported through ``converged``/``last_term`` rather than raised.
    """
    if max_order < spec.n_trunc:
        raise ConfigError(
            f"max_order {max_order} is below the truncation level "
            f"{spec.n_trunc}")
    spec.require_admissible()
    bundle = _as_bundle(f, spec.d)
    table = PairingTable(spec.hurst, bundle)
    d = spec.d
    two_h = 2.0 * spec.hurst.h
    pref = _TWO_PI ** (-0.5 * d)
    orders = tuple(range(spec.n_trunc, max_order + 1))
    per_order_tol = tol / (2.0 * len(orders))

    contributions = []
    errors = []
    for n in orders:
        scale = pref * (-0.5) ** n / math.factorial(n)
        if spec.eps == 0.0:

            def g(t1, tau, scale=scale, n=n):
                return scale * table.v_quotient_sq(t1, tau) ** n

            alpha = -admissibility(spec.hurst, d, n).exponent
            sing = SingularIntegrandSpec(alpha=alpha, g=g, tol=per_order_tol)
        else:
            power = -(n + 0.5 * d)

            def g(t1, tau, scale=scale, n=n, power=power):
                return (scale * (spec.eps + tau ** two_h) ** power
                        * table.v_norm_sq_tau(t1, tau) ** n)

            sing = SingularIntegrandSpec(alpha=0.0, g=g, tol=per_order_tol)
        res = integrate_triangle_singular(sing)
        contributions.append(res.value)
        errors.append(res.error_estimate)

    total = float(np.sum(np.asarray(contributions)))
    return SeriesReport(spec=spec, orders=orders,
                        contributions=tuple(contributions),
                        error_estimates=tuple(errors),
                        partial_sum=total,
                        last_term=contributions[-1] if contributions else 0.0,
                        tol=tol)
