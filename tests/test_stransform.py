import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import erf

import loctime.stransform as stransform_module
from loctime.errors import AccuracyError, AdmissibilityError, ConfigError
from loctime.fracops import (PairingTable, bound_ratio, pairing_closed_form,
                             pairing_indicator)
from loctime.kernels import (kernel_value, kernel_value_regularized,
                             odd_kernel_zero, series_reconstruction)
from loctime.quadrature import (divergence_probe, integrate_interval,
                                triangle_power_moment)
from loctime.stransform import (DeltaSpec, _order_weight, admissibility,
                                exp_truncated, is_admissible,
                                minimal_truncation_level, s_char_exp,
                                s_delta, s_local_time, u_estimate_check)
from loctime.testfunctions import (VectorTestFunction, gaussian_bump,
                                   hermite_function, zero_bundle,
                                   zero_function)

TWO_PI = 2.0 * math.pi
# S-transforms at H = 1/2, d = 1, N = 0, eps = 0.01 of the bumps
# gaussian_bump(amp, 0.45, width): (amp, width) -> (value, quad's error),
# printed by ``python tests/bump_references.py``
BUMP_REFERENCES = {
    (30.0, 0.01): (0.3812245691163432, 1.2e-13),
    (1.0, 0.003): (0.4595874916904452, 1.4e-13),
    (1.0, 0.01): (0.45945801753920323, 9.6e-14),
}


def bump():
    return gaussian_bump(0.5, 0.45, 0.2)


class TestAdmissibility:
    def test_known_cases(self):
        assert is_admissible(0.5, 1, 0)
        assert not is_admissible(0.5, 2, 0)
        assert is_admissible(0.5, 2, 1)
        assert is_admissible(0.75, 1, 0)
        assert not is_admissible(0.75, 2, 0)
        assert not is_admissible(0.75, 2, 1)
        assert is_admissible(0.75, 2, 2)

    def test_minimal_levels(self):
        assert minimal_truncation_level(0.3, 1) == 0
        assert minimal_truncation_level(0.5, 1) == 0
        assert minimal_truncation_level(0.5, 2) == 1
        assert minimal_truncation_level(0.75, 2) == 2
        assert minimal_truncation_level(0.9, 3) == 9

    @pytest.mark.parametrize("h", [0.05, 0.2, 0.35, 0.5, 0.6, 0.75, 0.95])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_minimal_level_is_minimal(self, h, d):
        n = minimal_truncation_level(h, d)
        assert is_admissible(h, d, n)
        if n > 0:
            assert not is_admissible(h, d, n - 1)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            DeltaSpec(0.5, 0)
        with pytest.raises(ConfigError):
            DeltaSpec(0.5, 1, -1)
        with pytest.raises(ConfigError):
            DeltaSpec(0.5, 1, 0, -0.1)
        with pytest.raises(ConfigError):
            DeltaSpec(1.2, 1)

    def test_singular_exponent(self):
        # the order-N weight at eps = 0 is tau^(-alpha), alpha = dH - 2N(1-H)
        assert _order_weight(0.5, 1, 0, 0.0)[0] == 0.5
        assert _order_weight(0.5, 2, 1, 0.0)[0] == 0.0
        assert abs(_order_weight(0.75, 2, 2, 0.0)[0] - 0.5) < 1e-15

    def test_require_admissible(self):
        with pytest.raises(AdmissibilityError) as exc:
            DeltaSpec(0.5, 2, 0).require_admissible()
        assert exc.value.minimal_n == 1
        # regularization lifts the requirement
        DeltaSpec(0.5, 2, 0, eps=0.1).require_admissible()


class TestExpTruncated:
    def test_order_zero_is_exp(self):
        x = np.linspace(-5.0, 5.0, 11)
        assert np.allclose(exp_truncated(x, 0), np.exp(x), rtol=1e-14)

    def test_order_one_is_expm1(self):
        x = np.linspace(-30.0, 30.0, 13)
        got = exp_truncated(x, 1)
        assert np.allclose(got, np.expm1(x), rtol=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_peeling_one_term(self, n):
        # exp_n(x) - exp_{n+1}(x) = x^n / n!, whatever the sign of x
        for x in (-40.0, -3.0, -0.01, 0.7, 25.0):
            a = exp_truncated(x, n)
            b = exp_truncated(x, n + 1)
            want = x ** n / math.factorial(n)
            # the achievable accuracy of the difference is set by the
            # size of the operands, not of the result
            scale = max(1.0, abs(want), abs(a), abs(b))
            assert abs((a - b) - want) < 1e-11 * scale

    def test_zero_argument(self):
        assert exp_truncated(0.0, 1) == 0.0
        assert exp_truncated(0.0, 4) == 0.0
        assert np.all(exp_truncated(np.zeros(3), 2) == 0.0)
        # -0.0 gives +0.0 too, not the -0.0 of (-0.0)^N for odd N
        assert math.copysign(1.0, exp_truncated(-0.0, 1)) == 1.0
        assert math.copysign(1.0, exp_truncated(-0.0, 3)) == 1.0

    def test_sign_for_negative_argument(self):
        # exp_n(x) has the sign of x^n
        assert exp_truncated(-5.0, 2) > 0.0
        assert exp_truncated(-5.0, 3) < 0.0

    def test_small_argument_leading_term(self):
        # exp_n(-y) ~ (-y)^n / n! as y -> 0
        y = 1e-8
        for n in (1, 2, 3):
            ratio = exp_truncated(-y, n) * math.factorial(n) / (-y) ** n
            assert abs(ratio - 1.0) < 1e-6

    def test_negative_order_rejected(self):
        with pytest.raises(ConfigError):
            exp_truncated(1.0, -1)

    def test_largest_order(self):
        # 170! is the largest factorial that is a double; for x < 0 and
        # even N, exp_N(x) lies between 0 and its leading term x^N / N!
        lead = 3.0 ** 170 / math.factorial(170)
        assert 0.0 < exp_truncated(-3.0, 170) < lead

    @pytest.mark.parametrize("x, n", [(100.0, 170), (-800.0, 150),
                                      (200.0, 150)])
    def test_high_order_stays_finite(self, x, n):
        # x^N alone overflows here although exp_N(x) is a double; the
        # reference sums the series with 300 digits, past the largest
        # term and on until the terms are 1e-30 of the sum
        with mpmath.workdps(300):
            term = mpmath.mpf(x) ** n / mpmath.factorial(n)
            total, k = term, n
            while k < abs(x) or abs(term) > 1e-30 * abs(total):
                k += 1
                term *= mpmath.mpf(x) / k
                total += term
            want = float(total)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_truncated(x, n)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x, n", [(800.0, 0), (800.0, 2), (1e5, 1),
                                      (710.0, 170)])
    def test_overflow_raises_without_warning(self, x, n):
        # exp_N(x) > e^x (1 - 1e-100) lies beyond the double range here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError, match="double range"):
                exp_truncated(x, n)
            with pytest.raises(AccuracyError):
                exp_truncated(np.array([1.0, x]), n)
            assert math.isfinite(exp_truncated(700.0, 2))

    @pytest.mark.parametrize("x", [1e6, 1e300])
    def test_overflow_is_refused_before_the_rule_is_built(self, x,
                                                          monkeypatch):
        # 1e300 ended in numpy's "Maximum allowed size exceeded", and 1e6
        # built a rule of 20,000 panels first; just below log(DBL_MAX)
        # the value is a double
        for n in (0, 1, 2, 170):
            assert math.isfinite(exp_truncated(709.78, n))

        def no_rule(y, n):
            raise AssertionError("the tail rule was built")

        monkeypatch.setattr(stransform_module, "_exp_tail_ratio", no_rule)
        for arg in (x, np.array([1.0, x])):
            with pytest.raises(AccuracyError, match="double range"):
                exp_truncated(arg, 2)

    @pytest.mark.parametrize("x, n", [(-1e300, 2), (-1e160, 2), (-1e100, 4)])
    def test_large_negative_argument_stays_finite(self, x, n):
        # x^N / N! overflows here although exp_N(x), about x^(N-1)/(N-1)!,
        # is a double; a finite neighbour in the array keeps its bits
        with mpmath.workdps(50):
            want = float(mpmath.exp(x) - sum(
                mpmath.mpf(x) ** k / mpmath.factorial(k) for k in range(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_truncated(np.array([-3.0, x]), n)
        assert got[1] == pytest.approx(want, rel=1e-12)
        assert got[0] == exp_truncated(-3.0, n)
        with pytest.raises(AccuracyError, match="double range"):
            exp_truncated(-1e200, 3)  # about -5e399

    def test_scalar_in_float_out(self):
        assert isinstance(exp_truncated(0.3, 2), float)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_points_do_not_depend_on_the_array(self, n):
        # each value is bit-identical to a call on that point alone, also
        # next to arguments far beyond the 50 that one panel spans
        xs = np.array([-1.0, -3.7, -49.9, -50.1, -200.0, -1e4, 3.0, 60.0,
                       120.0, 0.0])
        got = exp_truncated(xs, n)
        for x, v in zip(xs, got):
            assert v == exp_truncated(x, n)
        # far below zero, exp_n(x) is minus the first n terms of the series
        want = -sum((-1e4) ** k / math.factorial(k) for k in range(n))
        assert abs(got[5] - want) < 1e-12 * abs(want)


class TestCharacteristicTransform:
    def test_brownian_zero_function(self):
        got = s_char_exp(0.5, [0.7], 0.2, 0.9, zero_bundle(1))
        want = math.exp(-0.5 * 0.49 * 0.7)
        assert abs(got - want) < 1e-12
        assert abs(got.imag) == 0.0

    def test_phase_at_half_is_plain_integral(self):
        f = bump()
        lam = 1.3
        s, t = 0.2, 0.9
        v, _ = quad(f.eval, s, t, epsabs=1e-13)
        mag = math.exp(-0.5 * lam * lam * (t - s))
        want = mag * complex(math.cos(lam * v), math.sin(lam * v))
        got = s_char_exp(0.5, [lam], s, t, f)
        assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.8])
    def test_modulus_bounded_by_one(self, h):
        f = bump()
        for lam in ([0.5], [2.0], [-3.0]):
            assert abs(s_char_exp(h, lam, 0.1, 0.6, f)) <= 1.0

    def test_time_reversal_conjugates(self):
        f = bump()
        fwd = s_char_exp(0.65, [1.1], 0.2, 0.8, f)
        bwd = s_char_exp(0.65, [1.1], 0.8, 0.2, f)
        assert abs(fwd - bwd.conjugate()) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            s_char_exp(0.5, [1.0, 2.0], 0.1, 0.5, bump())
        with pytest.raises(ConfigError):
            s_char_exp(0.5, [1.0], 0.5, 0.5, bump())


class TestPointwiseTransforms:
    def test_bare_delta_formula(self):
        f = bump()
        h, t1, t2 = 0.5, 0.3, 0.8
        tau = t2 - t1
        v, _ = quad(f.eval, t1, t2, epsabs=1e-13)
        want = ((TWO_PI) ** -0.5 * tau ** -0.5
                * math.exp(-0.5 * v * v / tau))
        got = s_delta(DeltaSpec(h, 1), t1, t2, f)
        assert abs(got - want) < 1e-10

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ConfigError):
            s_delta(DeltaSpec(0.5, 1), 0.4, 0.4, bump())
        with pytest.raises(ConfigError):
            s_delta(DeltaSpec(0.5, 1, 1), 0.4, 0.4, bump())

    def test_truncation_removes_constant_term(self):
        # exp(-y) - exp_1(-y) = 1, so the bare and once-truncated
        # transforms differ by the deterministic (2 pi tau^{2H})^{-d/2}
        f = bump()
        spec0 = DeltaSpec(0.6, 1, 0)
        spec1 = DeltaSpec(0.6, 1, 1)
        t1, t2 = 0.25, 0.65
        tau = t2 - t1
        diff = (s_delta(spec0, t1, t2, f)
                - s_delta(spec1, t1, t2, f))
        want = TWO_PI ** -0.5 * tau ** (-0.6)
        assert abs(diff - want) < 1e-10

    def test_regularized_limits(self):
        f = bump()
        spec = DeltaSpec(0.5, 1, 0, eps=1e-12)
        bare = s_delta(DeltaSpec(0.5, 1), 0.3, 0.7, f)
        reg = s_delta(spec, 0.3, 0.7, f)
        assert abs(reg - bare) < 1e-9 * bare
        # eps = 0 is the same formula, not a separate branch
        spec0 = DeltaSpec(0.5, 1, 0, eps=0.0)
        assert (s_delta(spec0, 0.3, 0.7, f)
                == s_delta(spec0, 0.3, 0.7, f))

    def test_regularized_coincident_times(self):
        f = bump()
        got = s_delta(DeltaSpec(0.5, 1, 0, eps=0.04), 0.4, 0.4, f)
        assert abs(got - (TWO_PI * 0.04) ** -0.5) < 1e-12
        # truncated at N >= 1: exp_N(0) = 0
        got1 = s_delta(DeltaSpec(0.5, 1, 1, eps=0.04), 0.4, 0.4, f)
        assert got1 == 0.0


class TestLocalTimeTransform:
    def test_inadmissible_raises(self):
        with pytest.raises(AdmissibilityError) as exc:
            s_local_time(DeltaSpec(0.5, 2, 0), zero_bundle(2))
        assert exc.value.minimal_n == 1

    def test_zero_function_closed_form(self):
        # f = 0 collapses to (2 pi)^{-d/2} int int tau^{-dH}
        for h, d in ((0.5, 1), (0.3, 1), (0.3, 3), (0.45, 2)):
            res = s_local_time(DeltaSpec(h, d), zero_bundle(d), tol=1e-11)
            want = TWO_PI ** (-0.5 * d) * triangle_power_moment(d * h)
            assert abs(res.value - want) < 1e-10
        assert s_local_time(DeltaSpec(0.5, 1), zero_bundle(1),
                            tol=1e-10).value == pytest.approx(
                                0.5319230405352436, abs=1e-12)

    def test_truncated_zero_function_vanishes(self):
        res = s_local_time(DeltaSpec(0.5, 2, 1), zero_bundle(2), tol=1e-10)
        assert res.value == 0.0

    @pytest.mark.parametrize("n, eps", [(0, 0.0), (1, 0.0), (1, 0.01),
                                        (2, 0.01)],
                             ids=["N0 eps0", "N1 eps0", "N1 eps0.01",
                                  "N2 eps0.01"])
    def test_brownian_bump_against_dblquad(self, n, eps):
        # independent oracle: tau = w^2 removes the singular factor, the
        # pairing reduces to a difference of erf antiderivatives, and
        # exp_N for N <= 2 is exp, expm1 or expm1(x) - x
        f = bump()
        amp, center, width = 0.5, 0.45, 0.2
        exp_n = (math.exp, math.expm1, lambda x: math.expm1(x) - x)[n]

        def F(x):
            return (amp * width * math.sqrt(math.pi / 2.0)
                    * erf((x - center) / (math.sqrt(2.0) * width)))

        def body(t1, w):
            # (2 pi (eps + tau))^(-1/2) exp_N(-dv^2 / (2 (eps + tau)))
            # times dtau = 2 w dw, with tau = w^2
            var = eps + w * w
            if var == 0.0:
                return 2.0 / math.sqrt(TWO_PI) * exp_n(0.0)
            dv = F(t1 + w * w) - F(t1)
            return (2.0 * w / math.sqrt(TWO_PI * var)
                    * exp_n(-0.5 * dv * dv / var))

        want, err = dblquad(body, 0.0, 1.0, 0.0, lambda w: 1.0 - w * w,
                            epsabs=1e-11)
        got = s_local_time(DeltaSpec(0.5, 1, n, eps), f, tol=1e-10)
        # relative: at N = 2 the value is 7e-5
        assert abs(got.value - want) < 1e-8 * abs(want) + 10.0 * err

    @pytest.mark.parametrize("amp, width", list(BUMP_REFERENCES))
    def test_narrow_bump_error_is_honest(self, amp, width):
        # the reported error must cover the true one; with the pairing
        # table on fixed panels the true errors were 4.5e-5, 4.9e-5 and
        # 5.3e-8 against reported errors near 1.3e-10
        value, ref_err = BUMP_REFERENCES[amp, width]
        res = s_local_time(DeltaSpec(0.5, 1, 0, 0.01),
                           gaussian_bump(amp, 0.45, width), tol=1e-9)
        assert abs(res.value - value) + ref_err <= res.error_estimate

    def test_regularized_zero_function_against_quad(self):
        frozen = {(0.5, 1, 0.1): 0.3445400149226766,
                  (0.5, 1, 0.01): 0.4596014210153303,
                  (0.5, 1, 0.001): 0.5074729784302722}
        for (h, d, eps), pinned in frozen.items():
            spec = DeltaSpec(h, d, 0, eps)
            res = s_local_time(spec, zero_bundle(d), tol=1e-11)
            want, err = quad(
                lambda tau: (1.0 - tau)
                * (TWO_PI * (eps + tau ** (2.0 * h))) ** (-0.5 * d),
                0.0, 1.0, epsabs=1e-12)
            assert abs(res.value - want) < 1e-9 + 10.0 * err
            assert res.value == pytest.approx(pinned, abs=1e-11)
        # a rough case with d = 2 against the same reduction
        spec = DeltaSpec(0.3, 2, 0, 0.05)
        res = s_local_time(spec, zero_bundle(2), tol=1e-11)
        want, err = quad(
            lambda tau: (1.0 - tau) / (TWO_PI * (0.05 + tau ** 0.6)),
            0.0, 1.0, epsabs=1e-12)
        assert abs(res.value - want) < 1e-9 + 10.0 * err

    def test_truncation_peels_deterministic_term(self):
        # SL_{N=0} - SL_{N=1} = (2 pi)^{-1/2} int int tau^{-H}, even for
        # a nonzero test function: the k = 0 chaos term is deterministic
        f = bump()
        sl0 = s_local_time(DeltaSpec(0.5, 1, 0), f, tol=1e-11).value
        sl1 = s_local_time(DeltaSpec(0.5, 1, 1), f, tol=1e-11).value
        want = TWO_PI ** -0.5 * triangle_power_moment(0.5)
        assert abs((sl0 - sl1) - want) < 1e-9

    def test_prebuilt_pairing_table_matches(self):
        f = bump()
        spec = DeltaSpec(0.6, 1, 0)
        table = PairingTable(spec.hurst, VectorTestFunction((f,)))
        a = s_local_time(spec, f, tol=1e-10)
        b = s_local_time(spec, f, tol=1e-10, pairing=table)
        assert a.value == b.value

    @pytest.mark.parametrize("h, g", [
        (0.5, VectorTestFunction((bump(), bump()))),  # a d = 2 table
        (0.7, VectorTestFunction((bump(),))),
    ])
    def test_mismatched_pairing_table_rejected(self, h, g):
        # used unchecked, these tables would give 0.52095 and 0.52738
        # against the true 0.52636
        with pytest.raises(ConfigError):
            s_local_time(DeltaSpec(0.5, 1, 0), bump(),
                         pairing=PairingTable(h, g))

    def test_table_of_another_f_rejected(self):
        # used unchecked, the other bump's table would give 0.470166
        # against the true 0.521161
        f = gaussian_bump(0.7, 0.45, 0.2)
        other = PairingTable(0.5, gaussian_bump(-2.0, 0.3, 0.2))
        with pytest.raises(ConfigError):
            s_local_time(DeltaSpec(0.5, 1, 0), f, pairing=other)

    @pytest.mark.parametrize("eps, pinned", [
        (0.1, 4.832025750337758e-16), (1e-3, 1.407457972664507e-4)])
    def test_high_order_values_pinned(self, eps, pinned):
        # At N = 170, y^N alone overflows for y > 65; (-y)^N / N! is a
        # running product of -y / k.  A 1,500^2 midpoint rule on the erf
        # pairing at H = 1/2 agrees to 2.1e-5 (eps = 0.1) and 7e-7.
        amp, center, width = 20.0, 0.5, 0.2
        res = s_local_time(DeltaSpec(0.5, 1, 170, eps),
                           gaussian_bump(amp, center, width), tol=1e-6)
        assert res.value == pytest.approx(pinned, rel=1e-12)
        n = 1500
        t = (np.arange(n) + 0.5) / n
        u = (amp * width * math.sqrt(0.5 * math.pi)
             * erf((t - center) / (width * math.sqrt(2.0))))
        total = 0.0
        for i in range(n - 1):
            v = u[i + 1:] - u[i]
            w = eps + (t[i + 1:] - t[i])
            total += np.sum((TWO_PI * w) ** -0.5
                            * exp_truncated(-0.5 * v * v / w, 170))
        assert res.value == pytest.approx(total / n ** 2, rel=3e-5)

    def test_error_estimate_within_tolerance(self):
        res = s_local_time(DeltaSpec(0.4, 1, 0), bump(), tol=1e-9)
        assert res.error_estimate <= 1e-9

    def test_bundle_dimension_checks(self):
        with pytest.raises(ConfigError):
            s_local_time(DeltaSpec(0.5, 2, 1), bump())
        with pytest.raises(ConfigError):
            s_local_time(DeltaSpec(0.5, 1, 0), zero_bundle(3))
        with pytest.raises(ConfigError):
            s_local_time(DeltaSpec(0.5, 1, 0), None)


def test_eps_zero_integrand_takes_array_tau(monkeypatch):
    # tau from 5e-8 to 1e-3: the integrand at an array of tau equals, bit
    # for bit, its values at one tau at a time
    integrands = []
    monkeypatch.setattr(stransform_module, "integrate_triangle_singular",
                        lambda alpha, g, **kwargs: integrands.append(g))
    s_local_time(DeltaSpec(0.5, 1, 0), bump())
    g = integrands[0]
    t1 = np.array([0.1, 0.42, 0.7])
    taus = np.array([5e-8, 0.99e-7, 1e-7, 1.01e-7, 1e-3])
    t1_grid, tau_grid = np.meshgrid(t1, taus)
    got = g(t1_grid.ravel(), tau_grid.ravel()).reshape(t1_grid.shape)
    for i, tau in enumerate(taus):
        assert np.array_equal(got[i], g(t1, np.full(t1.shape, tau)))


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("call", [
    lambda: s_local_time(DeltaSpec(0.5, 1, 0), bump(), tol=NAN),
    lambda: kernel_value(0.5, (1,), ((0.25, 0.75),), tol=NAN),
    lambda: series_reconstruction(DeltaSpec(0.5, 1, 0), bump(), 2, tol=NAN),
    lambda: integrate_interval(np.ones_like, 0.0, 1.0, tol=-1.0),
    lambda: integrate_interval(np.ones_like, 0.0, 1.0, tol=INF),
    lambda: kernel_value_regularized(0.5, (1,), NAN, ((0.25, 0.75),)),
    lambda: kernel_value_regularized(0.5, (1,), INF, ((0.25, 0.75),)),
    lambda: kernel_value(0.5, (1,), ((NAN, 0.75),)),
    lambda: exp_truncated(NAN, 2),
    lambda: exp_truncated(np.array([0.5, INF]), 2),
    lambda: exp_truncated(-INF, 2),
    lambda: gaussian_bump(NAN, 0.4, 0.2),
    lambda: gaussian_bump(1.0, 0.4, NAN),
    lambda: bump().scaled(NAN),
    lambda: hermite_function(0, shift=NAN),
    lambda: divergence_probe(0.5, lambda t1, tau: np.ones_like(t1), [1.5]),
    lambda: divergence_probe(0.5, lambda t1, tau: np.ones_like(t1), [NAN]),
    lambda: pairing_closed_form(0.5, None, (0.1, 0.2)),
    lambda: pairing_indicator(0.5, 3.0, (0.1, 0.2)),
    lambda: bound_ratio(0.5, None, (0.1, 0.2)),
    lambda: PairingTable(0.5, None),
    lambda: series_reconstruction(DeltaSpec(0.5, 1, 0), bump(), 1.5),
    lambda: series_reconstruction(DeltaSpec(0.5, 1, 0), bump(), "2"),
    lambda: admissibility(0.5, "2", 0),
    lambda: admissibility(0.5, NAN, 0),
    lambda: admissibility(0.5, INF, 0),
    lambda: admissibility(0.5, 1, "1"),
    lambda: DeltaSpec(0.5, 1, INF),
    lambda: exp_truncated(0.5, "2"),
    lambda: exp_truncated(0.5, INF),
    lambda: DeltaSpec(0.5, 1, 0, "0.1"),
    lambda: kernel_value_regularized(0.5, (1,), "0.1", ((0.25, 0.75),)),
    lambda: kernel_value(0.5, (INF,), ((0.25, 0.75),)),
    lambda: kernel_value(0.5, 5, ((0.25, 0.75),)),
    lambda: kernel_value(0.5, (1,), None),
    lambda: odd_kernel_zero(3),
    lambda: integrate_interval(np.ones_like, NAN, 1.0, tol=1e-9),
    lambda: integrate_interval(np.ones_like, 0.0, INF, tol=1e-9),
    lambda: integrate_interval(np.ones_like, np.array([0.0, NAN]), 1.0,
                               tol=1e-9),
    lambda: integrate_interval(np.ones_like, 0.0, np.array([1.0, -INF]),
                               tol=1e-9),
    lambda: triangle_power_moment(NAN),
    lambda: divergence_probe(NAN, lambda t1, tau: np.ones_like(t1), [0.1]),
    lambda: DeltaSpec(0.5, 1, 171, 0.1),
    lambda: exp_truncated(0.5, 171),
    lambda: series_reconstruction(DeltaSpec(0.5, 1, 0, 0.1), bump(), 171),
], ids=["s_local_time tol", "kernel tol", "series tol", "negative tol",
        "infinite tol", "eps nan", "eps inf", "kernel point",
        "exp_N nan", "exp_N inf", "exp_N -inf", "bump amplitude",
        "bump width", "scaled", "hermite shift", "probe cutoff",
        "probe cutoff nan", "closed-form pairing f", "pairing f",
        "bound ratio f", "pairing table f", "max_order 1.5",
        "max_order str", "dimension str", "dimension nan", "dimension inf",
        "truncation str", "spec truncation inf", "exp_N index str",
        "exp_N index inf", "spec eps str", "kernel eps str",
        "kernel index inf", "kernel index int", "kernel argument None",
        "odd zero int", "interval nan bound", "interval inf bound",
        "batch nan bound", "batch inf bound", "moment alpha nan",
        "probe alpha nan", "spec truncation 171", "exp_N index 171",
        "max_order 171"])
def test_bad_input_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_large_bump_keeps_memory_small():
    # |v|^2 / (2 tau) reaches thousands for an amplitude-100 bump; the
    # truncated exponential's rule costs the same for every such point
    spec = DeltaSpec(0.5, 1, 1)
    f = gaussian_bump(100.0, 0.45, 0.2)
    table = PairingTable(spec.hurst, VectorTestFunction((f,)))
    tracemalloc.start()
    try:
        res = s_local_time(spec, f, tol=1e-5, pairing=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(res.value)
    assert peak < 24 * 2 ** 20


def test_large_bump_work_is_bounded():
    # the pairing quotient v / tau is exact for every tau, so the inner
    # rule has no rounding noise to chase: 2.4M evaluations, against
    # 15.2M with the plain difference of two spline values
    spec = DeltaSpec(0.5, 1, 1)
    f = gaussian_bump(100.0, 0.45, 0.2)
    table = PairingTable(spec.hurst, VectorTestFunction((f,)))
    res = s_local_time(spec, f, tol=1e-8, pairing=table)
    assert res.error_estimate <= 1e-8
    assert res.evaluations <= 3_000_000


class TestGrowthEnvelope:
    def test_envelope_holds_on_sample(self):
        rep = u_estimate_check(DeltaSpec(0.5, 1, 0), bump(),
                               [0.25, 0.5, 1.0, 2.0], tol=1e-9)
        assert rep.envelope_holds
        assert rep.violations == ()
        assert rep.k1 > 0.0 and rep.k2 > 0.0
        assert len(rep.s_values) == 4
        # the transform shrinks as z grows: exp of a negative quadratic
        assert rep.s_values[0] > rep.s_values[-1]

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            u_estimate_check(DeltaSpec(0.5, 1, 0), bump(), [1.0])
