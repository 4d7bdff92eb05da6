import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from loctime.errors import ConfigError, SingularPointError
from loctime.fracops import (Hurst, Interval, PairingTable, bound_ratio,
                             dual_apply, increment_kernel,
                             normalization_constant, pairing_closed_form,
                             pairing_indicator)
from loctime.testfunctions import (VectorTestFunction, gaussian_bump,
                                   hermite_function, zero_function)


def bump():
    return gaussian_bump(0.7, 0.2, 0.4)


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


class TestDualOperator:
    def test_identity_at_half(self):
        f = bump()
        for x in (-0.3, 0.2, 0.55):
            assert dual_apply(0.5, f, x) == f.eval(x)

    def test_zero_function_maps_to_zero(self):
        assert dual_apply(0.7, zero_function(), 0.3) == 0.0

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

    def test_norm_squared_consistency(self):
        f = VectorTestFunction((bump(), gaussian_bump(0.4, 0.5, 0.3)))
        table = PairingTable(0.6, f)
        v = table.v(0.2, 0.7)
        assert abs(table.v_norm_sq(0.2, 0.7) - np.sum(v ** 2)) < 1e-15

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

    def test_quotient_matches_its_two_forms(self):
        # |v|^2 / tau^2 from the difference above the switch to the
        # linear form, from the midpoint rate below; array tau gives each
        # element bit-identical to a call with that tau as a scalar
        table = PairingTable(0.35, VectorTestFunction(
            (bump(), gaussian_bump(-0.3, 0.6, 0.25))))
        t1 = np.array([0.1, 0.42, 0.7])
        taus = np.array([5e-8, 0.99e-7, 1e-7, 1.01e-7, 1e-3])
        t1_grid, tau_grid = np.meshgrid(t1, taus)
        got = table.v_quotient_sq(t1_grid, tau_grid)
        assert got.shape == t1_grid.shape
        for i, tau in enumerate(taus):
            assert np.array_equal(got[i], table.v_quotient_sq(t1, tau))
            if tau >= 1e-7:
                want = np.sum((table.v_tau(t1, tau) / tau) ** 2, axis=0)
            else:
                want = np.sum(table.v_rate(t1 + 0.5 * tau) ** 2, axis=0)
            assert np.array_equal(got[i], want)

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
        # the grid is built in row blocks: each temporary is a block of
        # _BUILD_ROWS rows, not the whole 2,049 x 1,176 grid (73.7 MiB)
        f = VectorTestFunction((bump(), gaussian_bump(-0.3, 0.6, 0.25)))
        tracemalloc.start()
        try:
            PairingTable(0.35, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_row_blocks_match_one_shot_build(self, tmp_path):
        # The reference evaluates U on the whole grid at once.  That
        # one-shot product moves by an ulp with BLAS's thread split, so
        # it is taken on one BLAS thread; the row-block build must equal
        # it there and be the same on two BLAS threads.
        got = {}
        for threads in ("1", "2"):
            out = tmp_path / f"coeffs{threads}.npz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", _ONE_SHOT_SCRIPT,
                                   str(out)], env=env, capture_output=True,
                                  text=True)
            assert proc.returncode == 0, proc.stderr
            got[threads] = dict(np.load(out))
        one = got["1"]
        assert len(one) == 2 * 5 * 3
        for key in one:
            if key.startswith("table"):
                ref = one["one_shot" + key[len("table"):]]
                assert np.array_equal(one[key], ref), key
                assert np.array_equal(got["2"][key], one[key]), key

    def test_zero_component_is_an_exact_zero_column(self):
        g = gaussian_bump(-0.3, 0.6, 0.25)
        table = PairingTable(0.35, VectorTestFunction((zero_function(), g)))
        alone = PairingTable(0.35, g)
        t1 = np.array([0.1, 0.42, 0.7])
        tau = PairingTable._LINEAR_TAU
        for got, want in [
                (table.v(t1, t1 + 0.2), alone.v(t1, t1 + 0.2)),
                (table.v_tau(t1, 0.5 * tau), alone.v_tau(t1, 0.5 * tau)),
                (table.v_tau(t1, 2.0 * tau), alone.v_tau(t1, 2.0 * tau)),
                (table.v_rate(t1), alone.v_rate(t1))]:
            assert got.shape == (2, 3)
            assert np.all(got[0] == 0.0)
            assert np.array_equal(got[1], want[0])
        for s in (0.5, 2.0):
            assert np.array_equal(table.v_quotient_sq(t1, s * tau),
                                  alone.v_quotient_sq(t1, s * tau))


# Writes the spline coefficients of PairingTable and of a one-shot build
# of U on the whole grid (the formula the row blocks replace) to argv[1].
_ONE_SHOT_SCRIPT = """
import sys
import numpy as np
from scipy.interpolate import CubicSpline
from loctime.fracops import (PairingTable, _halving_edges, _kernel_scale,
                             gauss_panels)
from loctime.testfunctions import VectorTestFunction, gaussian_bump

def one_shot(h, comps):
    a = h - 0.5
    c = _kernel_scale(h)
    R = max(fj.support_radius for fj in comps)
    t_grid = np.linspace(0.0, 1.0, 2049)
    q = 1.0 / (1.0 + a)
    W = (1.0 + R) ** (1.0 + a)
    w_nodes, w_weights = gauss_panels(_halving_edges(0.0, W, 48), 24)
    u = w_nodes ** q
    return np.stack([
        CubicSpline(t_grid, (c * q) * (fj.eval(t_grid[:, None] - u[None, :])
                                       @ w_weights)).c
        for fj in comps], axis=-1)

bundles = {
    "d1": (gaussian_bump(0.7, 0.2, 0.4),),
    "d2": (gaussian_bump(0.7, 0.2, 0.4), gaussian_bump(-0.3, 0.6, 0.25)),
    "amp100": (gaussian_bump(100.0, 0.45, 0.2),),
}
out = {}
for h in (0.02, 0.3, 0.5, 0.7, 0.98):
    for name, comps in bundles.items():
        key = f"_{h}_{name}"
        table = PairingTable(h, VectorTestFunction(comps))
        out["table" + key] = table._spline.c
        out["one_shot" + key] = one_shot(h, comps)
np.savez(sys.argv[1], **out)
"""
