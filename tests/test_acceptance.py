"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line with the measured figure of merit and
runtime.  Tests are independent and deterministic (fixed seeds); the
Monte Carlo criteria use the same seed and block structure regardless
of worker count, so the recorded margins are reproducible bit for bit.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from loctime.errors import AdmissibilityError
from loctime.fracops import (Interval, _hurst, _pairing_component_closed,
                             _pairing_component_dual, bound_ratio)
from loctime.kernels import (admissibility, kernel_value, odd_kernel_zero,
                             series_reconstruction)
from loctime.mc import (WhiteNoiseGrid, covariance_from_kernels,
                        fbm_covariance, make_midpoint_times, mc_grid_bias,
                        mc_local_time_regularized, mc_s_transform,
                        mc_weight_check, sample_paths_cholesky,
                        sample_paths_whitenoise)
from loctime.quadrature import (divergence_probe, integrate_triangle_singular,
                                triangle_power_moment)
from loctime.stransform import (DeltaSpec, minimal_truncation_level,
                                s_local_time)
from loctime.testfunctions import (VectorTestFunction, gaussian_bump,
                                   hermite_function, zero_bundle)


def _emit(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {detail} "
          f"({time.perf_counter() - t0:.1f} s)", flush=True)


def _ones(t1, tau):
    return np.ones_like(t1)


def test_criterion_01_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 10):
        h = round(0.1 * k, 1)
        for t in (0.25, 0.5, 1.0, 2.0):
            got = covariance_from_kernels(h, t, t, tol=1e-8)
            worst = max(worst, abs(got - t ** (2.0 * h)))
    ok = worst <= 1e-6
    _emit(1, ok, f"kernel normalization over 36 (H, t) pairs: "
                 f"max |deviation| = {worst:.2e} (tolerance 1e-06)", t0)
    assert ok


def test_criterion_02_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    h_pool = (0.15, 0.3, 0.45, 0.5, 0.6, 0.75, 0.9)
    f_pool = (gaussian_bump(0.7, 0.2, 0.4), gaussian_bump(1.0, 0.5, 0.15),
              gaussian_bump(0.5, -0.3, 0.25), gaussian_bump(0.3, 0.8, 0.6),
              hermite_function(0), hermite_function(1),
              hermite_function(2), hermite_function(1, 0.4))
    worst = 0.0
    for i in range(100):
        hu = _hurst(h_pool[i % len(h_pool)])
        f = f_pool[rng.integers(len(f_pool))]
        tau = 1e-4 * 1e4 ** rng.random()
        s = rng.random() * (1.0 - tau)
        ivl = Interval(s, s + tau)
        closed = _pairing_component_closed(hu, f, ivl, 1e-8).value
        dual = _pairing_component_dual(hu, f, ivl, 1e-8)
        dev = abs(closed - dual) / (1e-6 * max(1.0, abs(closed)))
        worst = max(worst, dev)
    ok = worst <= 1.0
    _emit(2, ok, f"pairing vs dual operator on 100 cases: worst deviation "
                 f"= {worst:.1e} of the 1e-06*max(1,|v|) budget", t0)
    assert ok


def test_criterion_03_bound_ratio_stability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250814)
    h_pool = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
    f_pool = (gaussian_bump(0.7, 0.2, 0.4), gaussian_bump(1.0, 0.5, 0.15),
              gaussian_bump(0.5, -0.3, 0.25), hermite_function(0),
              hermite_function(2), hermite_function(1, 0.4))
    decades = ((1e-1, 1.0), (1e-2, 1e-1), (1e-3, 1e-2))
    maxima = {}
    n_cases = 0
    all_finite = True
    for lo, hi in decades:
        for h in h_pool:
            m = 0.0
            for _ in range(139):
                f = f_pool[rng.integers(len(f_pool))]
                tau = lo * (hi / lo) ** rng.random()
                s = rng.random() * (1.0 - tau)
                r = bound_ratio(h, f, Interval(s, s + tau), tol=1e-8)
                all_finite &= math.isfinite(r)
                m = max(m, r)
                n_cases += 1
            maxima[(h, lo)] = m
    spreads = {}
    for h in h_pool:
        ms = [maxima[(h, lo)] for lo, _ in decades]
        spreads[h] = max(ms) / min(ms)
    worst_h = max(spreads, key=spreads.get)
    ok = all_finite and all(s <= 1.2 for s in spreads.values())
    _emit(3, ok, f"bound ratio over {n_cases} cases, 3 tau-decades: all "
                 f"finite, worst per-H decade-max spread = "
                 f"{spreads[worst_h]:.3f}x at H={worst_h:g} (limit 1.2x)",
          t0)
    assert ok


def test_criterion_04_quadrature_oracle():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for a in (-1.0, 0.0, 0.25, 0.5, 0.75, 0.9, 0.99):
        got = integrate_triangle_singular(a, _ones, tol=1e-10).value
        want = triangle_power_moment(a)
        worst_rel = max(worst_rel, abs(got - want) / abs(want))
    probe = divergence_probe(1.0, _ones, (1e-2, 1e-3, 1e-4, 1e-5), tol=1e-9)
    diffs = np.diff([v for _, v in probe])
    worst_log = max(abs(d / math.log(10.0) - 1.0) for d in diffs)
    ok = worst_rel <= 1e-8 and worst_log <= 0.02
    _emit(4, ok, f"triangle moments at 7 exponents: worst rel error "
                 f"{worst_rel:.1e} (tol 1e-08); alpha=1 decade increments "
                 f"within {worst_log:.2%} of ln 10 (tol 2%)", t0)
    assert ok


def _gate_raises(fn):
    try:
        fn()
    except AdmissibilityError as exc:
        return exc
    return None


def test_criterion_05_admissibility_gate(tmp_path):
    t0 = time.perf_counter()
    levels = {(0.5, 1): 0, (0.5, 2): 1, (0.5, 3): 1, (0.9, 2): 5}
    ok = all(minimal_truncation_level(h, d) == n
             for (h, d), n in levels.items())
    for (h, d), n_min in levels.items():
        gate = admissibility(h, d, n_min)
        ok &= gate.admissible and gate.minimal_n == n_min
        DeltaSpec(h, d, n_min, 0.0).require_admissible()
        if n_min == 0:
            continue
        exc = _gate_raises(lambda: s_local_time(
            DeltaSpec(h, d, n_min - 1, 0.0), zero_bundle(d)))
        ok &= exc is not None and exc.minimal_n == n_min
        idx = (n_min - 1,) + (0,) * (d - 1)
        arg = ((0.1,) * (2 * (n_min - 1)),) + ((),) * (d - 1)
        exc = _gate_raises(lambda: kernel_value(h, idx, arg))
        ok &= exc is not None and exc.minimal_n == n_min
    elapsed = time.perf_counter() - t0
    in_time = elapsed < 1.0
    proc = subprocess.run(
        [sys.executable, "-m", "loctime", "kernels", "--H", "0.5",
         "--d", "2", "--N", "0", "--out", str(tmp_path)],
        capture_output=True, text=True)
    cli_ok = proc.returncode == 4 and "minimal N = 1" in proc.stderr
    ok = ok and in_time and cli_ok
    _emit(5, ok, f"minimal truncation levels {{(0.5,1):0, (0.5,2):1, "
                 f"(0.5,3):1, (0.9,2):5}} verified; inadmissible "
                 f"s_local_time/kernel_value calls rejected; gate checks "
                 f"took {elapsed:.3f} s (< 1 s); CLI exit code "
                 f"{proc.returncode} (wanted 4, subprocess untimed)", t0)
    assert ok


def test_criterion_06_closed_form_constant():
    t0 = time.perf_counter()
    res = s_local_time(DeltaSpec(0.5, 1, 0, 0.0), zero_bundle(1), tol=1e-9)
    want = (2.0 * math.pi) ** -0.5 * 4.0 / 3.0
    dev = abs(res.value - want)
    ok = dev < 1e-8
    _emit(6, ok, f"s_local_time(H=0.5, d=1, N=0, eps=0, f=0) = "
                 f"{res.value:.16g} vs (2pi)^(-1/2)*4/3: |gap| = {dev:.1e} "
                 f"(tolerance 1e-08)", t0)
    assert ok


def test_criterion_07_mc_expectation_closure():
    t0 = time.perf_counter()
    times = make_midpoint_times(256)
    results = []
    for h in (0.3, 0.5, 0.7):
        for d in (1, 2):
            ens = sample_paths_cholesky(h, d, times, 20000, seed=0)
            est = mc_local_time_regularized(ens, 0.01)
            ref = s_local_time(DeltaSpec(h, d, 0, 0.01), zero_bundle(d),
                               tol=1e-9)
            _, _, bias = mc_grid_bias(h, d, 0.01, 256, 2000, seed=0,
                                      generator="cholesky")
            gap = abs(est.mean - ref.value)
            allow = 3.0 * est.stderr + bias
            results.append((h, d, gap, allow))
    worst = max(g / a for _, _, g, a in results)
    ok = worst <= 1.0
    _emit(7, ok, f"regularized local time vs analytic value at eps=0.01, "
                 f"m=256, n=20000, 6 (H, d) cases: worst gap = {worst:.2f} "
                 f"of the 3*stderr + grid-bias allowance", t0)
    for h, d, gap, allow in results:
        assert gap <= allow, (h, d, gap, allow)


def test_criterion_08_mc_s_transform_closure():
    t0 = time.perf_counter()
    fb = VectorTestFunction((gaussian_bump(0.13, 0.5, 0.3),))
    assert fb.norm <= 0.5
    grid = WhiteNoiseGrid(seed=0)
    times = make_midpoint_times(1024)
    closures = []
    wicks = []
    for h in (0.5, 0.7):
        ens = sample_paths_whitenoise(h, 1, times, grid, 2500)
        wick = mc_weight_check(ens, fb)
        wicks.append((h, abs(wick.mean - 1.0), 3.0 * wick.stderr))
        for n in (0, 1):
            sst = mc_s_transform(ens, fb, 0.01, n)
            ref = s_local_time(DeltaSpec(h, 1, n, 0.01), fb, tol=1e-9)
            closures.append((h, n, abs(sst.mean - ref.value),
                             3.0 * sst.stderr))
    worst_c = max(g / a for _, _, g, a in closures)
    worst_w = max(g / a for _, g, a in wicks)
    ok = worst_c <= 1.0 and worst_w <= 1.0
    _emit(8, ok, f"drift-shifted S-transform vs analytic at eps=0.01, "
                 f"m=1024, n=2500, H in {{0.5, 0.7}}, N in {{0, 1}}: "
                 f"worst gap = {worst_c:.2f} of 3*stderr; Wick unit-mean "
                 f"deviation = {worst_w:.2f} of 3*stderr", t0)
    for h, n, gap, allow in closures:
        assert gap <= allow, (h, n, gap, allow)
    for h, gap, allow in wicks:
        assert gap <= allow, (h, gap, allow)


def test_criterion_09_eps_convergence():
    t0 = time.perf_counter()
    f3 = VectorTestFunction((gaussian_bump(0.25, 0.3, 0.25),
                             gaussian_bump(-0.2, 0.6, 0.3)))
    cases = (((0.5, 1, 0), zero_bundle(1)),
             ((0.3, 2, 0), zero_bundle(2)),
             ((0.7, 2, 2), f3))
    schedule = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    rows = []
    for (h, d, n), f in cases:
        base = s_local_time(DeltaSpec(h, d, n, 0.0), f, tol=1e-8).value
        gaps = [abs(s_local_time(DeltaSpec(h, d, n, e), f, tol=1e-8).value
                    - base) for e in schedule]
        mono = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        rows.append((h, d, n, mono, gaps[-1] / abs(base)))
    all_mono = all(r[3] for r in rows)
    worst_rel = max(r[4] for r in rows)
    ok = all_mono and worst_rel < 1e-3
    detail = ", ".join(f"(H={h:g},d={d},N={n}) final {rel:.1e}"
                       for h, d, n, _, rel in rows)
    _emit(9, ok, f"eps -> 0 gaps monotone: {all_mono}; relative gap at "
                 f"eps=1e-05 vs 1e-03 target: {detail}", t0)
    assert all_mono
    # The eps -> 0 rate is eps^((1 + 2N(1-H) - dH)/(2H)) capped at
    # eps^1, so the schedule endpoint 1e-5 leaves relative gaps of a
    # few 1e-3 for these cases; the assertion records that shortfall.
    assert worst_rel < 1e-3, [r[4] for r in rows]


def test_criterion_10_chaos_series_closure():
    t0 = time.perf_counter()
    fb = VectorTestFunction((gaussian_bump(0.025, 0.5, 0.3),))
    assert fb.norm <= 0.1
    worst = 0.0
    for eps in (0.0, 0.01):
        spec = DeltaSpec(0.5, 1, 0, eps)
        rep = series_reconstruction(spec, fb, max_order=2, tol=1e-7)
        direct = s_local_time(spec, fb, tol=1e-9)
        assert rep.converged
        worst = max(worst, abs(rep.partial_sum - direct.value))
    odd = odd_kernel_zero((1,))
    ok = worst <= 1e-6 and odd == 0.0
    _emit(10, ok, f"chaos series through order 4 vs direct S-transform at "
                  f"eps in {{0, 0.01}}: worst |gap| = {worst:.1e} "
                  f"(tolerance 1e-06); odd-index kernel = {odd!r}", t0)
    assert ok


def test_criterion_11_divergence_demonstration():
    t0 = time.perf_counter()
    # H=0.6, d=2, N=0: the order-0 integrand is tau^(-dH) = tau^(-1.2).
    probe = divergence_probe(1.2, _ones, (1e-1, 1e-2, 1e-3, 1e-4),
                             tol=1e-9)
    values = [v for _, v in probe]
    inc = np.diff(values)
    growing = bool(np.all(inc > 0.0))
    ratios = inc[1:] / inc[:-1]
    ok = growing and bool(np.all(ratios >= 0.5))
    _emit(11, ok, f"cutoff integrals at kappa = 1e-1..1e-4: values "
                  f"{', '.join(f'{v:.3f}' for v in values)}; increment "
                  f"ratios {', '.join(f'{r:.2f}' for r in ratios)} "
                  f"(each >= 0.5)", t0)
    assert ok


def test_criterion_12_generator_fidelity():
    t0 = time.perf_counter()
    h = 0.75
    times = make_midpoint_times(64)
    grid = WhiteNoiseGrid(seed=0)
    ts = times[1:]
    true = np.array([[fbm_covariance(h, s, t) for t in ts] for s in ts])
    report = {}
    for gen in ("whitenoise", "cholesky"):
        if gen == "whitenoise":
            ens = sample_paths_whitenoise(h, 1, times, grid, 10000)
            budget = grid.tail_mass(h) + grid.dx
        else:
            ens = sample_paths_cholesky(h, 1, times, 10000, seed=0)
            budget = 0.0
        b = ens.paths[:, 1:, 0]
        n = b.shape[0]
        prod_mean = b.T @ b / n
        prod_sq = (b ** 2).T @ (b ** 2) / n
        se = np.sqrt(np.maximum(prod_sq - prod_mean ** 2, 0.0) / n)
        excess = float(np.max(np.abs(prod_mean - true) - 5.0 * se))
        report[gen] = (excess, budget)
    ok = all(excess <= budget for excess, budget in report.values())
    _emit(12, ok, f"empirical covariance at H=0.75, m=64, n=10000: "
                  f"whitenoise worst deviation beyond 5 SE = "
                  f"{report['whitenoise'][0]:.2e} (budget "
                  f"{report['whitenoise'][1]:.2e}); cholesky = "
                  f"{report['cholesky'][0]:.2e} (budget 0)", t0)
    for gen, (excess, budget) in report.items():
        assert excess <= budget, (gen, excess, budget)
