"""The benchmark's workloads: operations on loctime's public API.

Every operation calls loctime only through attributes of the ``loctime``
package, looked up at call time, so the tracer's wrappers see every
call.  Each operation carries a check that compares its value with a
reference from ``oracles`` or with a property the method must have.

Inputs come from the run's seed: the seed draws the Hurst indices of
the closed-form moments and every Monte Carlo stream.  Neither draw
changes the work an operation does, so the seed moves values but not
cost.  Inputs whose reference is stored (mpmath, see ``recompute.py``)
and the chaos kernels' points are fixed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

import loctime as L
import oracles as O
from checks import Check, close, honest, identical, within_sigma

# Relative rounding allowance for closed forms evaluated in double.
CLOSED_FORM_REL = 1e-14


@dataclass
class Op:
    """One timed call.  ``run`` gets the values of this round's earlier
    operations by name; ``check`` gets the value and the same mapping.

    ``known_fault`` names a fault of loctime that makes this operation's
    check fail on fixed inputs; such an operation counts as failed
    rather than making the run incorrect.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list[Check]]
    known_fault: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warm_up: Callable[[], object]


def build(name: str, seed: int, refs: dict) -> Workload:
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    return BUILDERS[name](rng, seed, refs)


def _bundle(bumps):
    return L.VectorTestFunction(tuple(L.gaussian_bump(*b) for b in bumps))


def _stored(refs: dict, key: str) -> tuple[float, float]:
    entry = refs[key]
    value = float(entry["value"])
    return value, float(entry["mpmath_error"]) + 2.3e-16 * abs(value)


def _closed(value: float) -> tuple[float, float]:
    return value, CLOSED_FORM_REL * max(1.0, abs(value))


def _quad_check(name, ref):
    value, ref_err = ref

    def check(res, _):
        return [honest(name, res.value, res.error_estimate, value, ref_err)]

    return check


# ---------------------------------------------------------------------------
# stransform_sweep

# (d, lo, hi): the seed draws H uniformly in each bin; every draw costs
# the same 43,776 integrand evaluations.
MOMENT_BINS = ((1, 0.02, 0.05), (1, 0.2, 0.35), (1, 0.45, 0.55),
               (1, 0.6, 0.75), (1, 0.95, 0.98), (2, 0.1, 0.25),
               (2, 0.35, 0.45), (3, 0.1, 0.3))
SWEEP_TOL = 1e-9


def _stransform_sweep(rng, seed, refs) -> Workload:
    f1, f2 = _bundle(O.BUMPS_1), _bundle(O.BUMPS_2)
    ops = []

    def s_op(name, spec, f, tol, check):
        ops.append(Op(name, lambda r: L.s_local_time(spec, f, tol=tol), check))

    for d, lo, hi in MOMENT_BINS:
        h = float(rng.uniform(lo, hi))
        name = f"s_local_time f=0 H={h:.4f} d={d} eps=0"
        s_op(name, L.DeltaSpec(h, d, 0, 0.0), L.zero_bundle(d), SWEEP_TOL,
             _quad_check(name, _closed(O.moment_f0(h, d))))

    for key in ("f0_eps:H=0.5,d=1,eps=1e-4", "f0_eps:H=0.3,d=2,eps=1e-6",
                "f0_eps:H=0.7,d=1,eps=1e-5"):
        _, h, d, eps = O.STORED_CASES[key]
        name = f"s_local_time f=0 H={h} d={d} eps={eps:g}"
        s_op(name, L.DeltaSpec(h, d, 0, eps), L.zero_bundle(d), SWEEP_TOL,
             _quad_check(name, _stored(refs, key)))

    # The stiff case: the kink of (eps + tau^(2H))^(-3/2) at tau ~ 1e-16
    # drives the outer refinement (about 4.5 M integrand evaluations).
    name = "s_local_time f=0 H=0.25 d=3 eps=1e-8 tol=1e-6"
    s_op(name, L.DeltaSpec(0.25, 3, 0, 1e-8), L.zero_bundle(3), 1e-6,
         _quad_check(name, _stored(refs, "f0_eps:H=0.25,d=3,eps=1e-8")))

    for key in ("bump_half:d=1,N=0,eps=0", "bump_half:d=1,N=1,eps=0",
                "bump_half:d=1,N=1,eps=0.01", "bump_half:d=2,N=1,eps=0"):
        _, d, n, eps = O.STORED_CASES[key]
        name = f"s_local_time bumps H=0.5 d={d} N={n} eps={eps:g}"
        s_op(name, L.DeltaSpec(0.5, d, n, eps), (f1, f2)[d - 1], SWEEP_TOL,
             _quad_check(name, _stored(refs, key)))

    # Series against the erf reference at H = 1/2 ...
    spec = L.DeltaSpec(0.5, 1, 1, 0.0)
    name = "series_reconstruction H=0.5 d=1 N=1 max_order=5"
    ops.append(Op(name,
                  lambda r: L.series_reconstruction(spec, f1, 5, tol=1e-9),
                  _series_check(name, _stored(refs, "bump_half:d=1,N=1,eps=0"))))

    # ... and the series closure at H = 0.7, where no independent
    # reference exists: the direct transform must match the re-summed
    # chaos expansion within both error budgets.
    spec7 = L.DeltaSpec(0.7, 2, 2, 0.0)
    series7 = "series_reconstruction H=0.7 d=2 N=2 max_order=5"
    ops.append(Op(series7,
                  lambda r: L.series_reconstruction(spec7, f2, 5, tol=1e-8),
                  lambda rep, r: [_converged(series7, rep)]))

    def closure(res, r):
        if series7 not in r:
            return []
        rep = r[series7]
        allowance = res.error_estimate + _series_error(rep)
        return [close("series closure H=0.7 d=2 N=2", res.value,
                      rep.partial_sum, allowance)]

    s_op("s_local_time bumps H=0.7 d=2 N=2 eps=0", spec7, f2, SWEEP_TOL,
         closure)

    return Workload("stransform_sweep", ops,
                    lambda: L.s_local_time(L.DeltaSpec(0.5, 1, 0, 0.0), f1,
                                           tol=1e-6))


def _series_error(rep) -> float:
    """Quadrature budget of all orders plus the last term, which bounds
    the remainder of the alternating, decreasing series."""
    return float(sum(rep.error_estimates)) + abs(rep.last_term)


def _converged(name, rep) -> Check:
    return close(f"{name} last term", rep.last_term, 0.0, rep.tol)


def _series_check(name, ref):
    value, ref_err = ref

    def check(rep, _):
        return [_converged(name, rep),
                honest(name, rep.partial_sum, _series_error(rep), value,
                       ref_err)]

    return check


# ---------------------------------------------------------------------------
# chaos_kernels

HALF_TOL = 1e-8
# At tol 1e-4 the H = 0.75 kernel still makes about 900 inner integrals
# of about 1,000 points each, in 2.5 to 4 s (8 to 18 s at 1e-8).
ROUGH_TOL = 1e-4
# kernel_value at H = 1/2 misses its tolerance at about one in ten
# generic point pairs (3 of 30 uniform draws); at this pair the true
# error is 4.4 times tol * prefactor, on every run.
STALLED_PAIR = (0.7633957272923777, 0.9459502550909533)


def _kernel_check(name, orders, tol, ref):
    value, ref_err = ref
    allowance = tol * O.kernel_prefactor(orders)

    def check(got, _):
        return [honest(name, got, allowance, value, ref_err)]

    return check


def _chaos_kernels(rng, seed, refs) -> Workload:
    """Fixed inputs: at generic H = 1/2 points the kernel's error check
    fails for some draws (see STALLED_PAIR), so drawing points from the
    seed would make the outcome depend on the seed."""
    ops = []

    def half(name, orders, blocks, eps=None, known_fault=""):
        ref = _closed(O.half_kernel(orders, blocks, eps or 0.0))
        if eps is None:
            run = (lambda r: L.kernel_value(0.5, orders, blocks,
                                            tol=HALF_TOL))
        else:
            run = (lambda r: L.kernel_value_regularized(0.5, orders, eps,
                                                        blocks, tol=HALF_TOL))
        ops.append(Op(name, run, _kernel_check(name, orders, HALF_TOL, ref),
                      known_fault))

    half("kernel_value H=0.5 (1,) u=(0.25,0.75)", (1,), ((0.25, 0.75),))
    half("kernel_value H=0.5 (1,) coincident u=0.3", (1,), ((0.3, 0.3),))
    half("kernel_value H=0.5 (1,1) u=((0.3,0.6),(0.4,0.7))", (1, 1),
         ((0.3, 0.6), (0.4, 0.7)))
    half("kernel_value H=0.5 (2,) u=(0.2,0.4,0.6,0.8)", (2,),
         ((0.2, 0.4, 0.6, 0.8),))
    half("kernel_value_regularized H=0.5 eps=0.01 u=(0.25,0.75)", (1,),
         ((0.25, 0.75),), eps=0.01)
    half(f"kernel_value H=0.5 (1,) u={_fmt(STALLED_PAIR)}", (1,),
         (STALLED_PAIR,),
         known_fault="error above tol * prefactor at a generic point pair")

    key = "kernel:H=0.75,u=(0.2,0.5)"
    _, h, pts = O.STORED_CASES[key]
    name = f"kernel_value H={h} (1,) u={pts} tol={ROUGH_TOL:g}"
    ops.append(Op(name,
                  lambda r: L.kernel_value(h, (1,), (pts,), tol=ROUGH_TOL),
                  _kernel_check(name, (1,), ROUGH_TOL, _stored(refs, key))))

    return Workload("chaos_kernels", ops,
                    lambda: L.kernel_value(0.5, (1,), ((0.25, 0.75),),
                                           tol=1e-4))


def _fmt(u) -> str:
    return "(" + ",".join(f"{x:.4f}" for x in u) + ")"


# ---------------------------------------------------------------------------
# mc_closure

MC_EPS = 0.01
CHOL_M = 256
CHOL_PATHS = 512
# Two path blocks, so the two-thread rerun really splits the work.
THREADS_PATHS = 1024
WN_H = 0.7
WN_M = 512
WN_PATHS = 256
BIAS_M = 128
BIAS_PATHS = 512


def _second_moment_check(name, ens, expected_var) -> Check:
    """E[B(t)^2] at the last grid time, over paths and components."""
    sq = (ens.paths[:, -1, :] ** 2).ravel()
    return within_sigma(f"{name} variance", float(sq.mean()),
                        float(sq.std(ddof=1) / np.sqrt(sq.size)),
                        expected_var)


def _mc_closure(rng, seed, refs) -> Workload:
    ops = []
    times = O.midpoint_times(CHOL_M)
    t_last = float(times[-1])

    for stream, (h, d) in enumerate(((0.3, 1), (0.3, 2), (0.7, 1), (0.7, 2))):
        n = THREADS_PATHS if (h, d) == (0.3, 1) else CHOL_PATHS
        gen = f"sample_paths_cholesky H={h} d={d} m={CHOL_M} n={n}"
        est = f"mc_local_time_regularized H={h} d={d} cholesky"
        expect = functools.cache(
            lambda h=h, d=d: O.pair_rule_expectation(h, d, MC_EPS, times))
        ops.append(Op(gen,
                      lambda r, h=h, d=d, n=n, s=stream: L.sample_paths_cholesky(
                          h, d, times, n, s, seed=seed),
                      lambda ens, r, gen=gen, h=h: [_second_moment_check(
                          gen, ens, t_last ** (2.0 * h))]))
        ops.append(Op(est,
                      lambda r, gen=gen: L.mc_local_time_regularized(
                          r[gen], MC_EPS),
                      lambda e, r, est=est, expect=expect: [within_sigma(
                          est, e.mean, e.stderr, expect())]))

    # Thread invariance: the first Cholesky case again on two threads.
    gen1 = f"sample_paths_cholesky H=0.3 d=1 m={CHOL_M} n={THREADS_PATHS}"
    est1 = "mc_local_time_regularized H=0.3 d=1 cholesky"
    gen2, est2 = gen1 + " threads=2", est1 + " threads=2"
    ops.append(Op(gen2,
                  lambda r: L.sample_paths_cholesky(0.3, 1, times,
                                                    THREADS_PATHS, 0,
                                                    seed=seed, n_threads=2),
                  lambda ens, r: [identical(gen2, ens, r[gen1])]
                  if gen1 in r else []))
    ops.append(Op(est2,
                  lambda r: L.mc_local_time_regularized(r[gen2], MC_EPS,
                                                        n_threads=2),
                  lambda e, r: [identical(est2, e, r[est1])]
                  if est1 in r else []))

    # White-noise paths: the Wick weights and the S-transform estimator
    # close exactly on the discrete model the benchmark rebuilds itself.
    wn_times = O.midpoint_times(WN_M)
    grid = L.WhiteNoiseGrid(seed=seed)
    x = O.noise_midpoints(grid.x_lo, grid.x_hi, grid.n_cells)
    dx = (grid.x_hi - grid.x_lo) / grid.n_cells
    f = L.gaussian_bump(*O.WICK_BUMP)
    fvals = O.gaussian(O.WICK_BUMP, x)[None, :]
    wn = f"sample_paths_whitenoise H={WN_H} d=1 m={WN_M} n={WN_PATHS}"
    wn_var = functools.cache(
        lambda: O.whitenoise_variance(WN_H, float(wn_times[-1]), x, dx))
    ops.append(Op(wn,
                  lambda r: L.sample_paths_whitenoise(WN_H, 1, wn_times, grid,
                                                      WN_PATHS, 0),
                  lambda ens, r: [_second_moment_check(wn, ens, wn_var())]))
    ops.append(Op("mc_weight_check",
                  lambda r: L.mc_weight_check(r[wn], f),
                  lambda e, r: [within_sigma("mc_weight_check", e.mean,
                                             e.stderr, 1.0)]))
    for n_trunc in (0, 1):
        name = f"mc_s_transform N={n_trunc}"
        expect = functools.cache(
            lambda n_trunc=n_trunc: O.whitenoise_expectation(
                WN_H, MC_EPS, n_trunc, wn_times, x, dx, fvals))
        ops.append(Op(name,
                      lambda r, n_trunc=n_trunc: L.mc_s_transform(
                          r[wn], f, MC_EPS, n_trunc),
                      lambda e, r, name=name, expect=expect: [within_sigma(
                          name, e.mean, e.stderr, expect())]))

    bias = f"mc_grid_bias H=0.5 d=1 m={BIAS_M} n={BIAS_PATHS}"
    bias_expect = functools.cache(lambda: [
        O.pair_rule_expectation(0.5, 1, MC_EPS, O.midpoint_times(m))
        for m in (BIAS_M, 2 * BIAS_M)])

    def bias_check(res, r):
        e1, e2, bias_hat = res
        want1, want2 = bias_expect()
        return [within_sigma(f"{bias} m", e1.mean, e1.stderr, want1),
                within_sigma(f"{bias} 2m", e2.mean, e2.stderr, want2),
                close(f"{bias} Richardson", bias_hat,
                      abs(e1.mean - e2.mean) / (1.0 - 2.0 ** -1.0),
                      CLOSED_FORM_REL * abs(bias_hat))]

    ops.append(Op(bias,
                  lambda r: L.mc_grid_bias(0.5, 1, MC_EPS, BIAS_M, BIAS_PATHS,
                                           stream=7, seed=seed),
                  bias_check))

    def warm_up():
        small = O.midpoint_times(16)
        ens = L.sample_paths_cholesky(0.5, 1, small, 8, seed=seed)
        L.mc_local_time_regularized(ens, MC_EPS)
        wgrid = L.WhiteNoiseGrid(n_cells=64, seed=seed)
        wens = L.sample_paths_whitenoise(WN_H, 1, small, wgrid, 8)
        return L.mc_s_transform(wens, f, MC_EPS, 1)

    return Workload("mc_closure", ops, warm_up)


BUILDERS = {"stransform_sweep": _stransform_sweep,
            "chaos_kernels": _chaos_kernels,
            "mc_closure": _mc_closure}
