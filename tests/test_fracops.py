import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from loctime.errors import ConfigError, SingularPointError
from loctime.fracops import (_CELL_NODES, Hurst, Interval, PairingTable,
                             _kernel_scale, bound_ratio, dual_apply,
                             increment_kernel, normalization_constant,
                             pairing_closed_form, pairing_indicator)
from loctime.testfunctions import (VectorTestFunction, gaussian_bump,
                                   hermite_function, zero_function)


def bump():
    return gaussian_bump(0.7, 0.2, 0.4)


# (K+ f)(x) from its original forms, the Riemann-Liouville integral for
# H > 1/2 and Marchaud's for H < 1/2, as ``tests/dual_references.py``
# prints them: {(f, H, x): (value, mpmath's error estimate)}.
DUAL_REFERENCES = {
    ('bump(1, .45, .01)', 0.9, 0.9): (0.013136040065869134, 3.3e-43),
    ('bump(1, .45, .01)', 0.7, 0.9): (0.010371730713793175, 2.2e-43),
    ('bump(1, .45, .01)', 0.3, 0.9): (-0.0095507953474558711, 1.5e-43),
    ('bump(1, .45, .01)', 0.02, 0.9): (-0.0057048639823148304, 7.0e-44),
    ('bump(.7, .2, .4)', 0.02, -0.4): (0.11078094125353943, 7.0e-17),
    ('bump(.7, .2, .4)', 0.02, 0.0): (0.20539195558954189, 7.0e-16),
    ('h1@.4', 0.02, 0.9): (0.21206175994677254, 7.0e-16),
}
DUAL_FUNCTIONS = {
    'bump(1, .45, .01)': lambda: gaussian_bump(1.0, 0.45, 0.01),
    'bump(.7, .2, .4)': bump,
    'h1@.4': lambda: hermite_function(1, 0.4),
}


class TestValidation:
    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_hurst_range(self, h):
        with pytest.raises(ConfigError):
            Hurst(h)

    def test_hurst_exponent(self):
        assert Hurst(0.5).a == 0.0
        assert Hurst(0.75).a == 0.25
        assert abs(Hurst(0.1).a + 0.4) < 1e-15

    def test_interval_needs_positive_width(self):
        with pytest.raises(ConfigError):
            Interval(0.5, 0.5)
        with pytest.raises(ConfigError):
            Interval(0.7, 0.2)
        assert Interval(0.25, 0.75).tau == 0.5


class TestIncrementKernel:
    def test_brownian_kernel_is_indicator(self):
        iv = (0.2, 0.7)
        x = np.array([-1.0, 0.1, 0.2, 0.45, 0.69, 0.7, 0.9])
        k = increment_kernel(0.5, iv, x)
        # left-closed: jumps up at s, back to zero at t
        assert np.array_equal(k, [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.45])
    def test_rough_kernel_raises_at_endpoints(self, h):
        iv = (0.25, 1.0)
        with pytest.raises(SingularPointError):
            increment_kernel(h, iv, 0.25)
        with pytest.raises(SingularPointError):
            increment_kernel(h, iv, 1.0)
        with pytest.raises(SingularPointError):
            increment_kernel(h, iv, np.array([0.0, 0.25, 0.5]))

    def test_smooth_kernel_fine_at_endpoints(self):
        k = increment_kernel(0.75, (0.25, 1.0), np.array([0.25, 1.0]))
        assert k[1] == 0.0 and np.isfinite(k[0])

    def test_vanishes_right_of_interval(self):
        for h in (0.3, 0.5, 0.8):
            k = increment_kernel(h, (0.1, 0.6), np.array([0.61, 2.0, 10.0]))
            assert np.all(k == 0.0)

    def test_sign_left_of_interval(self):
        # x < s: negative for H < 1/2, positive for H > 1/2
        x = np.array([-2.0, -0.5, 0.05])
        assert np.all(increment_kernel(0.3, (0.1, 0.6), x) < 0.0)
        assert np.all(increment_kernel(0.8, (0.1, 0.6), x) > 0.0)

    def test_positive_inside_interval(self):
        x = np.linspace(0.11, 0.59, 9)
        for h in (0.3, 0.8):
            assert np.all(increment_kernel(h, (0.1, 0.6), x) > 0.0)

    def test_scalar_input_gives_float(self):
        out = increment_kernel(0.7, (0.0, 1.0), 0.5)
        assert isinstance(out, float)

    def test_additive_in_adjacent_intervals(self):
        x = np.linspace(-1.5, 0.9, 41)
        k1 = increment_kernel(0.65, (0.1, 0.4), x)
        k2 = increment_kernel(0.65, (0.4, 0.9), x)
        k12 = increment_kernel(0.65, (0.1, 0.9), x)
        assert np.allclose(k1 + k2, k12, atol=1e-14)


class TestNormalization:
    def test_brownian_value_is_one(self):
        assert normalization_constant(0.5) == 1.0

    @pytest.mark.parametrize("h", [0.25, 0.4, 0.6, 0.85])
    def test_matches_direct_quadrature(self, h):
        # c_H = (1/(2H) + int_0^inf ((1+u)^a - u^a)^2 du)^(-1/2)
        a = h - 0.5

        def body(u):
            return ((1.0 + u) ** a - u ** a) ** 2

        near, near_err = quad(body, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
        far, far_err = quad(body, 1.0, np.inf, epsabs=1e-11, epsrel=1e-10)
        c = (0.5 / h + near + far) ** -0.5
        want = math.gamma(h + 0.5) * c
        got = normalization_constant(h)
        assert abs(got - want) < 5e-9 + 20.0 * (near_err + far_err)

    @pytest.mark.parametrize("h", [0.02, 0.3, 0.51, 0.6, 0.75, 0.98])
    def test_scale_matches_defining_integral(self, h):
        # c_H^-2 = 1/(2H) + int_0^inf ((1+u)^a - u^a)^2 du at 40 digits,
        # with u = v^p on [0, 1] and u = v^(-q) beyond, which remove the
        # endpoint powers u^(2a) (a < 0) and u^(-2a-2) at infinity (a > 0)
        with mpmath.workdps(40):
            big_h = mpmath.mpf(h)
            a = big_h - mpmath.mpf(1) / 2
            p = 1 / (1 + 2 * min(a, 0))
            q = 1 / (1 - 2 * max(a, 0))

            def near(v):
                u = v ** p
                return p * v ** (p - 1) * ((1 + u) ** a - u ** a) ** 2

            def far(v):
                s = v ** q
                return (q * v ** (q - 1) * s ** (-2 * a - 2)
                        * mpmath.expm1(a * mpmath.log1p(s)) ** 2)

            total = 1 / (2 * big_h) + mpmath.quad(near, [0, 1]) \
                + mpmath.quad(far, [0, 1])
            want = float(total ** mpmath.mpf(-0.5))
        assert abs(_kernel_scale(h) / want - 1.0) <= 2e-15


class TestDualOperator:
    def test_identity_at_half(self):
        f = bump()
        for x in (-0.3, 0.2, 0.55):
            assert dual_apply(0.5, f, x) == f.eval(x)

    def test_zero_function_maps_to_zero(self):
        assert dual_apply(0.7, zero_function(), 0.3) == 0.0

    @pytest.mark.parametrize("key", list(DUAL_REFERENCES),
                             ids=lambda k: f"{k[0]}-H{k[1]}-x{k[2]}")
    def test_original_forms_by_mpmath(self, key):
        # A bump of width 0.01 and H near 0 are where panels sized in
        # advance miss tol; the references integrate the forms before
        # integration by parts.
        name, h, x = key
        value, err = DUAL_REFERENCES[key]
        got = dual_apply(h, DUAL_FUNCTIONS[name](), x, tol=1e-10)
        assert abs(got - value) <= 1e-10 + err

    @pytest.mark.parametrize("name", list(DUAL_FUNCTIONS))
    def test_continuous_through_half(self, name):
        # K+ f moves from f by O(a) on either side of a = 0, with one
        # slope, so the O(a) terms cancel in the mean of the two sides.
        # The a > 0 form fails here if it loses the mass near u = 0.
        f = DUAL_FUNCTIONS[name]()
        for x in (-0.3, 0.2, 0.45, 0.9):
            fx = float(f.eval(x))
            below, above = (dual_apply(0.5 + a, f, x, tol=1e-10)
                            for a in (-1e-9, 1e-9))
            assert abs(below - fx) <= 1e-8 and abs(above - fx) <= 1e-8
            assert abs(0.5 * (below + above) - fx) <= 2e-10

    @pytest.mark.parametrize("h,x", [(0.75, 0.3), (0.75, -0.1), (0.6, 0.5)])
    def test_smooth_branch_against_weighted_quad(self, h, x):
        # (K+ f)(x) = c_H a int_0^{x+R} f(x-u) u^(a-1) du for H > 1/2
        f = bump()
        a = h - 0.5
        c = normalization_constant(h) / math.gamma(h + 0.5)
        hi = x + f.support_radius
        val, err = quad(lambda u: f.eval(x - u), 0.0, hi,
                        weight="alg", wvar=(a - 1.0, 0.0),
                        epsabs=1e-12, limit=200)
        want = c * a * val
        assert abs(dual_apply(h, f, x, tol=1e-10) - want) < 1e-8 + 20.0 * err

    @pytest.mark.parametrize("h,x", [(0.3, 0.25), (0.3, -0.2), (0.45, 0.6),
                                     (0.15, 0.1)])
    def test_rough_branch_against_weighted_quad(self, h, x):
        # Marchaud form: (-a) c_H int_0^inf (f(x) - f(x-y)) y^(a-1) dy;
        # the integrand over y > x+R is f(x) y^(a-1), integrated exactly.
        f = bump()
        a = h - 0.5
        c = normalization_constant(h) / math.gamma(h + 0.5)
        fx = f.eval(x)
        Y = x + f.support_radius

        def ratio(y):
            if y == 0.0:
                return f.deriv(x)
            return (fx - f.eval(x - y)) / y

        val, err = quad(ratio, 0.0, Y, weight="alg", wvar=(a, 0.0),
                        epsabs=1e-12, limit=200)
        want = (-a) * c * (val + fx * Y ** a / (-a))
        assert abs(dual_apply(h, f, x, tol=1e-10) - want) < 1e-8 + 20.0 * err


class TestPairing:
    def test_brownian_pairing_is_plain_integral(self):
        f = bump()
        iv = (0.1, 0.8)
        want, err = quad(f.eval, iv[0], iv[1], epsabs=1e-13)
        got = pairing_indicator(0.5, f, iv)
        assert got.shape == (1,)
        assert abs(got[0] - want) < 1e-9 + 10.0 * err

    @pytest.mark.parametrize("h", [0.2, 0.35, 0.5, 0.65, 0.9])
    def test_dual_route_agrees(self, h):
        # pairing_indicator raises ConsistencyError internally if the
        # closed-form and dual-operator routes drift apart.
        f = bump()
        v = pairing_indicator(h, f, (0.2, 0.9), tol=1e-8)
        w = pairing_closed_form(h, f, (0.2, 0.9))
        assert abs(v[0] - w[0]) < 1e-7

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.7])
    def test_narrow_bump_routes_agree(self, h):
        # both routes must resolve a bump of width 0.01
        f = gaussian_bump(1.0, 0.45, 0.01)
        v = pairing_indicator(h, f, (0.2, 0.9), tol=1e-8)
        w = pairing_closed_form(h, f, (0.2, 0.9))
        assert abs(v[0] - w[0]) < 1e-7

    def test_adjoint_relation_against_quad(self):
        # <f, K 1_[s,t]> = int_s^t (K+ f)(x) dx
        f = bump()
        h, s, t = 0.7, 0.2, 0.9
        want, err = quad(lambda x: dual_apply(h, f, x, tol=1e-10), s, t,
                         epsabs=1e-11, limit=100)
        got = pairing_closed_form(h, f, (s, t))[0]
        assert abs(got - want) < 1e-8 + 10.0 * err

    def test_vector_components_are_independent(self):
        f1 = bump()
        f2 = gaussian_bump(-0.4, 0.6, 0.25)
        fv = VectorTestFunction((f1, f2))
        v = pairing_indicator(0.6, fv, (0.1, 0.7))
        assert v.shape == (2,)
        assert abs(v[0] - pairing_indicator(0.6, f1, (0.1, 0.7))[0]) < 1e-12
        assert abs(v[1] - pairing_indicator(0.6, f2, (0.1, 0.7))[0]) < 1e-12

    def test_zero_function_pairs_to_zero(self):
        v = pairing_indicator(0.3, zero_function(), (0.2, 0.8))
        assert v[0] == 0.0

    def test_additive_in_the_interval(self):
        f = bump()
        for h in (0.35, 0.75):
            v1 = pairing_closed_form(h, f, (0.1, 0.4))[0]
            v2 = pairing_closed_form(h, f, (0.4, 0.8))[0]
            v12 = pairing_closed_form(h, f, (0.1, 0.8))[0]
            assert abs((v1 + v2) - v12) < 1e-9


class TestBoundRatio:
    def test_zero_function_rejected(self):
        with pytest.raises(ConfigError):
            bound_ratio(0.6, zero_function(), (0.1, 0.2))

    @pytest.mark.parametrize("h", [0.25, 0.5, 0.75])
    def test_bounded_as_interval_shrinks(self, h):
        f = bump()
        ratios = [bound_ratio(h, f, (0.3, 0.3 + tau))
                  for tau in (0.5, 0.1, 0.01, 0.001)]
        assert all(0.0 <= r < 10.0 for r in ratios)
        # the ratio tends to |U'(0.3)| / |||f|||, so it cannot blow up
        assert abs(ratios[-1] - ratios[-2]) < 0.05

    def test_hermite_bundle_ratio(self):
        f = VectorTestFunction((hermite_function(0), hermite_function(2)))
        r = bound_ratio(0.4, f, (0.2, 0.5))
        assert 0.0 <= r < 10.0


class TestPairingTable:
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_matches_closed_form(self, h):
        f = bump()
        table = PairingTable(h, f)
        rng = np.random.default_rng(7)
        for _ in range(5):
            t1, t2 = np.sort(rng.uniform(0.05, 0.95, size=2))
            if t2 - t1 < 1e-3:
                continue
            want = pairing_closed_form(h, f, (t1, t2))[0]
            got = table.v(t1, t2)[0]
            assert abs(got - want) < 1e-7

    def test_small_tau_form_is_continuous(self):
        f = bump()
        table = PairingTable(0.35, f)
        t1 = 0.42
        below = table.v_tau(np.array([t1]), 0.99e-7)[0, 0]
        above = table.v_tau(np.array([t1]), 1.01e-7)[0, 0]
        # both forms approximate v(t1, t1+tau); crossing the switch must
        # not jump by more than the O(tau^2) linearization error
        assert abs(above - below) > 0.0
        assert abs(above - below) < 1e-12 + 0.1 * abs(above)

    def test_small_tau_matches_difference_form(self):
        f = bump()
        table = PairingTable(0.65, f)
        t1 = np.array([0.3])
        for tau in (1e-5, 1e-6):
            direct = table.v(t1, t1 + tau)[0, 0]
            stable = table.v_tau(t1, tau)[0, 0]
            assert abs(direct - stable) < 1e-9 * max(1.0, abs(direct))

    def test_array_tau_matches_scalar_tau(self):
        # tau straddling the switch to the linear form: each element is
        # bit-identical to a call with that tau as a scalar
        table = PairingTable(0.35, VectorTestFunction(
            (bump(), gaussian_bump(-0.3, 0.6, 0.25))))
        t1 = np.array([0.1, 0.42, 0.7])
        taus = np.array([5e-8, 0.99e-7, 1e-7, 1.01e-7, 1e-3])
        t1_grid, tau_grid = np.meshgrid(t1, taus)
        got = table.v_tau(t1_grid, tau_grid)
        assert got.shape == (2,) + t1_grid.shape
        for i, tau in enumerate(taus):
            assert np.array_equal(got[:, i], table.v_tau(t1, tau))

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("amp", [0.7, 100.0])
    def test_quotient_is_exact_divided_difference(self, h, amp):
        # |v|^2 / tau^2 against the divided difference of the table's
        # own pieces in 50-digit arithmetic, across a knot or not; a plain
        # difference of two spline values would be off by up to 1e-6 at
        # tau = 1e-7
        table = PairingTable(h, gaussian_bump(amp, 0.45, 0.2))
        t1 = np.random.default_rng(3).uniform(0.0, 0.98, 24)
        for tau in (1e-12, 1e-9, 1e-7, 1e-5, 4e-4, 1e-2):
            got = table.v_quotient_sq(t1, np.full_like(t1, tau))
            err = max(_quotient_error(table, t, tau, g)
                      for g, t in zip(got, t1))
            assert err < 2e-15, (tau, err)

    def test_rate_is_derivative(self):
        f = bump()
        table = PairingTable(0.55, f)
        t = np.array([0.37])
        e = 1e-6
        fd = (table.v(t - e, t + e) / (2.0 * e))[0, 0]
        assert abs(table.v_rate(t)[0, 0] - fd) < 1e-6

    def test_zero_bundle_short_circuits(self):
        table = PairingTable(0.4, zero_function())
        assert np.all(table.v(0.1, 0.9) == 0.0)
        assert np.all(table.v_tau(np.array([0.1, 0.5]), 1e-9) == 0.0)
        assert np.all(table.v_rate(np.array([0.3])) == 0.0)

    def test_build_memory_is_bounded(self):
        # the cells are correlated in blocks of _BLOCK_CELLS by FFTs of
        # one fixed length, so no temporary grows with the support radius:
        # a Hermite function shifted to 60 spans 147,940 cells (6.8 MiB of
        # node values alone) and peaks at 1.1 MiB, as the bumps do
        for f in (VectorTestFunction((bump(), gaussian_bump(-0.3, 0.6, 0.25))),
                  hermite_function(2, shift=60.0)):
            tracemalloc.start()
            try:
                PairingTable(0.35, f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20

    def test_build_samples_f_once_per_node(self):
        # _CELL_NODES points per cell of [-J h, 1], J h >= the support
        # radius: 52,482 points, against 2,049 x 1,176 = 2,409,624 for the
        # rule of fixed panels it replaced
        f = gaussian_bump(0.5, 0.45, 0.2)
        seen = []

        def counting(x):
            seen.append(np.size(x))
            return f.eval(x)

        PairingTable(0.7, dataclasses.replace(f, eval=counting))
        cells = math.ceil(f.support_radius * 2048) + 2048
        assert sum(seen) == _CELL_NODES * cells == 52_482

    @pytest.mark.parametrize("width", [0.2, 0.01, 0.003])
    def test_knot_values_match_mpmath(self, width, tmp_path):
        # U at knots around and away from the bump against mpmath's
        # integral in u = t - x; the rule of fixed panels this build
        # replaced was off by up to 0.1 and 0.4 of max|U| at widths 0.01
        # and 0.003.  The tables are built on one and on two BLAS threads
        # in fresh interpreters, and must match this one's to the bit.
        bound = 1e-10 if width == 0.003 else 1e-12
        hs = (0.02, 0.3, 0.5, 0.7, 0.98)
        f = gaussian_bump(1.0, 0.45, width)
        tables = {h: PairingTable(h, f) for h in hs}
        for threads in ("1", "2"):
            out = tmp_path / f"knots{threads}.npy"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", _KNOTS_SCRIPT, str(width), str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            got = np.load(out)
            for i, h in enumerate(hs):
                assert np.array_equal(got[i], tables[h]._knots[0]), (h,
                                                                     threads)
        for h, table in tables.items():
            U = table._knots[0]
            for k in (0, 600, 912, 922, 931, 1024, 2048):
                want = _mp_knot_value(h, 0.45, width, k / 2048)
                assert abs(U[k] - want) <= bound * np.max(np.abs(U)), (h, k)

    @pytest.mark.parametrize("h", [0.02, 0.3, 0.5, 0.7, 0.98])
    @pytest.mark.parametrize("amp", [0.7, 100.0])
    def test_fit_matches_scipy_not_a_knot(self, h, amp):
        # the in-house fit against scipy's CubicSpline through the same
        # knot values: U and U' at 10^4 uniform times
        from scipy.interpolate import CubicSpline

        table = PairingTable(h, gaussian_bump(amp, 0.45, 0.2))
        ref = CubicSpline(np.linspace(0.0, 1.0, 2049), table._knots[0])
        t = np.linspace(0.0, 1.0, 10_001)
        u, du = ref(t), ref(t, 1)
        assert (np.max(np.abs(table._values(t)[0] - u))
                <= 4e-16 * np.max(np.abs(u)))
        assert (np.max(np.abs(table.v_rate(t)[0] - du))
                <= 1.5e-15 * np.max(np.abs(du)))

    def test_analytic_path_imports_no_scipy(self):
        # the table fits its spline in numpy; importing scipy would cost
        # more than half a second of every S-transform's set-up
        code = (
            "import runpy, sys, tempfile\n"
            "from loctime import PairingTable, s_local_time\n"
            "from loctime.kernels import kernel_value, series_reconstruction\n"
            "from loctime.stransform import DeltaSpec\n"
            "from loctime.testfunctions import gaussian_bump\n"
            "f = gaussian_bump(0.7, 0.45, 0.2)\n"
            "spec = DeltaSpec(0.5, 1, 1)\n"
            "table = PairingTable(0.5, f)\n"
            "s_local_time(spec, f, tol=1e-7, pairing=table)\n"
            "series_reconstruction(spec, f, 2, tol=1e-6)\n"
            "kernel_value(0.5, (1,), ((0.25, 0.75),), tol=1e-6)\n"
            "sys.argv = ['loctime', 'kernels', '--f', 'gauss', '--tol',\n"
            "            '1e-6', '--out', tempfile.mkdtemp()]\n"
            "try:\n"
            "    runpy.run_module('loctime', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_only_table_builds_load_numpy_fft(self):
        # numpy.fft costs about 0.5 MiB of resident memory; the import, the
        # Monte Carlo estimators, a kernel and a zero table do not need it
        code = (
            "import sys\n"
            "import loctime as L\n"
            "def loaded():\n"
            "    return 'numpy.fft' in sys.modules\n"
            "times = L.make_midpoint_times(8)\n"
            "L.mc_local_time_regularized(\n"
            "    L.sample_paths_cholesky(0.6, 1, times, 64), 0.05)\n"
            "ens = L.sample_paths_whitenoise(0.6, 1, times,\n"
            "                                L.WhiteNoiseGrid(n_cells=256), 64)\n"
            "L.mc_s_transform(ens, L.gaussian_bump(0.3, 0.4, 0.3), 0.05)\n"
            "L.kernel_value(0.5, (1,), ((0.25, 0.75),), tol=1e-6)\n"
            "L.PairingTable(0.5, L.zero_function())\n"
            "before = loaded()\n"
            "L.PairingTable(0.5, L.gaussian_bump(0.7, 0.45, 0.2))\n"
            "print(before, loaded())\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_zero_component_is_an_exact_zero_column(self):
        g = gaussian_bump(-0.3, 0.6, 0.25)
        table = PairingTable(0.35, VectorTestFunction((zero_function(), g)))
        alone = PairingTable(0.35, g)
        t1 = np.array([0.1, 0.42, 0.7])
        for got, want in [
                (table.v(t1, t1 + 0.2), alone.v(t1, t1 + 0.2)),
                (table.v_tau(t1, 5e-8), alone.v_tau(t1, 5e-8)),
                (table.v_tau(t1, 2e-7), alone.v_tau(t1, 2e-7)),
                (table.v_rate(t1), alone.v_rate(t1))]:
            assert got.shape == (2, 3)
            assert np.all(got[0] == 0.0)
            assert np.array_equal(got[1], want[0])
        for tau in (5e-8, 2e-7):
            assert np.array_equal(table.v_quotient_sq(t1, tau),
                                  alone.v_quotient_sq(t1, tau))


@mpmath.workdps(50)
def _quotient_error(table, t, tau, got):
    """Relative error of ``got`` against |v|^2 / tau^2 over [t, t + tau]
    from the table's spline pieces in 50-digit arithmetic: in-piece
    differences of the pieces the interval meets at either end, and the
    knot values in between."""
    n = 2048
    c, knots = table._c, table._knots
    T, TAU = mpmath.mpf(t), mpmath.mpf(tau)
    i = min(int(mpmath.floor(T * n)), n - 1)
    s = T - mpmath.mpf(i) / n
    a = min(TAU, mpmath.mpf(i + 1) / n - T)
    b = TAU - a
    total = mpmath.mpf(0)
    for col in range(c.shape[1]):
        c0, c1, c2 = (mpmath.mpf(float(x)) for x in c[:, col, i])
        v = a * (c0 * (3 * s * s + 3 * s * a + a * a) + c1 * (2 * s + a) + c2)
        if b > 0:
            j = min(i + 1 + int(mpmath.floor(b * n)), n - 1)
            r = b - mpmath.mpf(j - i - 1) / n
            d0, d1, d2 = (mpmath.mpf(float(x)) for x in c[:, col, j])
            yj, yi = (mpmath.mpf(float(knots[col, k])) for k in (j, i + 1))
            v += yj - yi + r * (
                d0 * r * r + d1 * r + d2)
        total += (v / TAU) ** 2
    return float(abs(got / total - 1))


@mpmath.workdps(25)
def _mp_knot_value(h, center, width, t):
    """U(t) = c_H int_0^inf f(t - u) u^a du for the unit bump (center,
    width), split at u = t - center and 12 widths either side."""
    a = mpmath.mpf(h) - 0.5
    mid = mpmath.mpf(t) - center

    def body(u):
        return mpmath.exp(-((mid - u) / width) ** 2 / 2) * u ** a

    marks = [mid + k * width for k in (-12, -4, 0, 4, 12)]
    points = [0] + [p for p in marks if p > 0]
    if len(points) == 1:
        return 0.0
    return _kernel_scale(h) * float(mpmath.quad(body, points))


# Saves the knot values of the unit bump (0.45, argv[1]) at
# H = 0.02, 0.3, 0.5, 0.7 and 0.98 to argv[2].
_KNOTS_SCRIPT = """
import sys
import numpy as np
from loctime.fracops import PairingTable
from loctime.testfunctions import gaussian_bump

f = gaussian_bump(1.0, 0.45, float(sys.argv[1]))
np.save(sys.argv[2], np.stack([PairingTable(h, f)._knots[0]
                               for h in (0.02, 0.3, 0.5, 0.7, 0.98)]))
"""
