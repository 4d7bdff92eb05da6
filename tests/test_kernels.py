import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad

import loctime.kernels as kernels_module

from loctime.errors import (AdmissibilityError, ConfigError,
                            NonIntegrableError)
from loctime.kernels import (AdmissibilityResult, admissibility, kernel_value,
                             kernel_value_regularized, odd_kernel_zero,
                             series_reconstruction)
from loctime.cli import main
from loctime.fracops import Hurst, _kernel_scale
from loctime.quadrature import triangle_power_moment
from loctime.stransform import (DeltaSpec, is_admissible,
                                minimal_truncation_level, s_local_time)
from loctime.testfunctions import (VectorTestFunction, gaussian_bump,
                                   zero_bundle)

TWO_PI = 2.0 * math.pi


def pair_kernel_half(u1: float, u2: float) -> float:
    """Closed form of the order-2 kernel at H = 1/2, d = 1.

    The indicator product restricts (t1, t2) to t1 <= min(u), t2 > max(u)
    and the weight is tau^{-3/2}, which integrates to elementary square
    roots.
    """
    m, M = min(u1, u2), max(u1, u2)
    body = 4.0 * (math.sqrt(M) - math.sqrt(M - m) - 1.0 + math.sqrt(1.0 - m))
    return -0.5 * TWO_PI ** -0.5 * body


class TestIndexAndArgument:
    def test_index_validation(self):
        for idx in ((), (1, -2), (1.5,), ("1",), 5):
            with pytest.raises(ConfigError):
                odd_kernel_zero(idx)
            with pytest.raises(ConfigError):
                kernel_value(0.5, idx, ((0.1, 0.2),))

    def test_index_properties(self):
        orders, points = kernels_module._kernel_input((2.0, 0, 1))
        assert orders == (2, 0, 1) and points is None
        assert all(type(n) is int for n in orders)
        pts = ((0.2, 0.4, 0.6, 0.8),)
        assert kernel_value(0.5, (2.0,), pts) == kernel_value(0.5, (2,), pts)

    def test_argument_blocks_must_be_even(self):
        with pytest.raises(ConfigError):
            kernel_value(0.5, (1,), ((0.1, 0.2, 0.3),))
        assert kernels_module._kernel_input((1, 0), ((0.1, 0.2), ())) == (
            (1, 0), (0.1, 0.2))
        for arg in (None, (), ((0.1, "x"),), 0.1):
            with pytest.raises(ConfigError):
                kernel_value(0.5, (1,), arg)

    def test_value_rejects_mismatched_blocks(self):
        with pytest.raises(ConfigError):
            kernel_value(0.5, (1,), ((0.1, 0.2, 0.3, 0.4),))
        with pytest.raises(ConfigError):
            kernel_value(0.5, (1, 1), ((0.1, 0.2),))


class TestAdmissibilityGate:
    def test_fields(self):
        res = admissibility(0.5, 2, 0)
        assert res == AdmissibilityResult(False, -1.0, 1)
        assert admissibility(0.5, 2, 1).admissible
        assert admissibility(0.75, 2, 2).minimal_n == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            admissibility(0.5, 0, 0)
        with pytest.raises(ConfigError):
            admissibility(0.5, 1, -1)
        with pytest.raises(ConfigError):
            is_admissible(0.5, 0, 0)
        with pytest.raises(ConfigError):
            minimal_truncation_level(0.5, 0)
        with pytest.raises(ConfigError):
            admissibility(0.5, 1.5, 0)

    def test_one_message_everywhere(self, tmp_path, capsys):
        messages = []
        for call in (
                lambda: s_local_time(DeltaSpec(0.5, 2, 0), zero_bundle(2)),
                lambda: kernel_value(0.5, (0, 0), ((), ())),
                lambda: series_reconstruction(DeltaSpec(0.5, 2, 0),
                                              zero_bundle(2), 0)):
            with pytest.raises(AdmissibilityError) as exc:
                call()
            messages.append(str(exc.value))
        assert len(set(messages)) == 1
        assert "minimal N = 1" in messages[0]
        assert main(["kernels", "--H", "0.5", "--d", "2", "--N", "0",
                     "--out", str(tmp_path)]) == 4
        assert messages[0] in capsys.readouterr().err

    def test_inadmissible_order_raises(self):
        with pytest.raises(AdmissibilityError) as exc:
            kernel_value(0.75, (0, 0), ((), ()))
        assert exc.value.minimal_n == 2


class TestStructuralZeros:
    def test_odd_component_is_zero(self):
        assert odd_kernel_zero((1, 2)) == 0.0
        assert odd_kernel_zero((3,)) == 0.0

    def test_all_even_is_misuse(self):
        with pytest.raises(ConfigError):
            odd_kernel_zero((2, 0))
        with pytest.raises(ConfigError):
            odd_kernel_zero((0,))

    def test_support_boundary(self):
        assert kernel_value(0.5, (1,), ((1.0, 0.3),)) == 0.0
        assert kernel_value(0.7, (1,), ((1.2, 0.3),)) == 0.0
        assert kernel_value_regularized(0.5, (1,), 0.1, ((0.2, 1.0),)) == 0.0


class TestNonIntegrable:
    def test_deep_repetition_raises(self):
        # four copies of one point at H = 0.1: local exponent 4a = -1.6
        with pytest.raises(NonIntegrableError):
            kernel_value(0.1, (2,), ((0.4, 0.4, 0.4, 0.4),))

    def test_repeated_point_at_zero_raises(self):
        # every factor blows up like t1^a at t1 = 0: local exponent 4a = -1.2
        with pytest.raises(NonIntegrableError):
            kernel_value(0.2, (2,), ((0.0, 0.0, 0.0, 0.0),))

    def test_repeated_point_below_zero_is_smooth(self):
        # t1 - u >= 0.4 on the triangle, so no factor is singular; the
        # value is the kernel's defining integral by nested quadrature
        h = 0.2
        a, c = h - 0.5, _kernel_scale(h)

        def integrand(t2, t1):
            k = c * ((t2 + 0.4) ** a - (t1 + 0.4) ** a)
            return (t2 - t1) ** -(5 * h) * k ** 4

        inner, _ = dblquad(integrand, 0.0, 1.0, lambda t1: t1, 1.0,
                           epsabs=1e-15, epsrel=1e-12)
        want = TWO_PI ** -0.5 * 0.25 / 2.0 * inner
        got = kernel_value(h, (2,), ((-0.4, -0.4, -0.4, -0.4),))
        assert got == pytest.approx(want, rel=1e-9)

    def test_time_exponent_raises(self):
        # multiplicities pass (4a = -0.8) but the coincidence strip
        # leaves an outer exponent above 1
        with pytest.raises(NonIntegrableError):
            kernel_value(0.3, (2,), ((0.4, 0.4, 0.4, 0.4),))


class TestValues:
    def test_order_zero_is_pure_moment(self):
        got = kernel_value(0.5, (0,), ((),))
        want = TWO_PI ** -0.5 * triangle_power_moment(0.5)
        assert abs(got - want) < 1e-10

    def test_brownian_pair_kernel_distinct(self):
        got = kernel_value(0.5, (1,), ((0.25, 0.75),))
        assert abs(got - pair_kernel_half(0.25, 0.75)) < 1e-9
        got2 = kernel_value(0.5, (1,), ((0.2, 0.5),))
        assert abs(got2 - pair_kernel_half(0.2, 0.5)) < 1e-9

    def test_brownian_pair_kernel_generic_pairs(self):
        # G(tau) has kinks at |u1 - u2|, u_i and 1 - u_i; they are outer
        # panel edges, so generic pairs meet the tolerance too
        tol = 1e-8
        allowance = tol * 0.5 * TWO_PI ** -0.5
        for u1, u2 in np.random.default_rng(0).uniform(size=(30, 2)):
            got = kernel_value(0.5, (1,), ((u1, u2),), tol=tol)
            assert abs(got - pair_kernel_half(u1, u2)) <= allowance

    def test_integrand_calls_are_batched(self, monkeypatch):
        calls = []
        engine = kernels_module.integrate_triangle_singular

        def counted(alpha, g, **kwargs):
            def g_counted(t1, tau):
                calls.append(t1.size)
                return g(t1, tau)

            return engine(alpha, g_counted, **kwargs)

        monkeypatch.setattr(kernels_module, "integrate_triangle_singular",
                            counted)
        kernel_value(0.5, (1,), ((0.25, 0.75),))
        assert 0 < len(calls) <= 64

    @pytest.mark.parametrize("a", [-0.45, -0.2, 0.2, 0.45])
    def test_factor_is_exact_difference_quotient(self, a):
        # c ((b + tau)^a - b^a) / tau against 50-digit arithmetic, b from
        # 1e-6 to 1 and tau from 1e-12 to 1: exact to rounding for every
        # tau, with no switch to a truncated series
        hu = Hurst(a + 0.5)
        factors = kernels_module._product_factory(hu, (0.0,))[0]
        b, tau = (x.ravel() for x in np.meshgrid(np.logspace(-6, 0, 13),
                                                 np.logspace(-12, 0, 25)))
        got = factors(b, tau)

        def exact(y, x):
            y, x = mpmath.mpf(y), mpmath.mpf(x)
            return (mpmath.mpf(_kernel_scale(hu.h))
                    * ((y + x) ** hu.a - y ** hu.a) / x)

        with mpmath.workdps(50):
            err = max(float(abs(g / exact(y, x) - 1))
                      for g, y, x in zip(got, b, tau))
        assert err < 2e-15

    def test_brownian_pair_kernel_repeated(self):
        # coincident points: the strip contributes tau^(a-1) locally and
        # the closed form follows from the same square-root primitives
        got = kernel_value(0.5, (1,), ((0.3, 0.3),))
        want = -0.5 * TWO_PI ** -0.5 * 4.0 * (
            math.sqrt(0.3) + math.sqrt(0.7) - 1.0)
        assert abs(got - want) < 1e-9
        assert abs(want - -0.3066929292464) < 1e-12

    @pytest.mark.parametrize("h,pts,pinned", [
        (0.75, (0.2, 0.5), -0.12492904797970505),
        (0.60, (-0.4, 0.5), -0.012372866321491508),
        (0.30, (0.3, 0.6), -0.016632734374208293),
    ])
    def test_rough_pair_kernels_pinned(self, h, pts, pinned):
        # reference values from a tau = s^k substitution quadrature that
        # turns the fractional outer powers into integers; the absolute
        # allowance covers the engine budget at the default tolerance
        got = kernel_value(h, (1,), (pts,))
        assert abs(got - pinned) < 1e-7

    def test_point_order_within_block_is_symmetric(self):
        a = kernel_value(0.65, (1,), ((0.2, 0.6),), tol=1e-5)
        b = kernel_value(0.65, (1,), ((0.6, 0.2),), tol=1e-5)
        assert abs(a - b) < 1e-12

    def test_regularized_pinned(self):
        # the coincident pair's value is its closed form at H = 1/2; it
        # takes no shift of the outer singularity when eps > 0
        for h, eps, pts, want in (
                (0.75, 0.01, (0.2, 0.5), -0.09988418685443298),
                (0.5, 0.05, (0.3, 0.3), -0.16702237812208276)):
            got = kernel_value_regularized(h, (1,), eps, (pts,))
            assert abs(got - want) < 1e-7

    def test_regularized_needs_positive_eps(self):
        with pytest.raises(ConfigError):
            kernel_value_regularized(0.5, (1,), 0.0, ((0.2, 0.5),))
        with pytest.raises(ConfigError):
            kernel_value_regularized(0.5, (1,), -0.1, ((0.2, 0.5),))

    def test_regularized_order_zero_matches_transform(self):
        got = kernel_value_regularized(0.45, (0,), 0.05, ((),))
        want = s_local_time(DeltaSpec(0.45, 1, 0, 0.05), zero_bundle(1),
                            tol=1e-10).value
        assert abs(got - want) < 1e-9

    def test_regularized_approaches_bare(self):
        bare = kernel_value(0.5, (1,), ((0.25, 0.75),), tol=1e-10)
        gaps = [abs(kernel_value_regularized(0.5, (1,), eps,
                                             ((0.25, 0.75),), tol=1e-10)
                    - bare)
                for eps in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5


class TestSeries:
    def test_zero_function_terminates_at_order_zero(self):
        rep = series_reconstruction(DeltaSpec(0.5, 1), zero_bundle(1), 3,
                                    tol=1e-10)
        assert rep.orders == (0, 1, 2, 3)
        want = TWO_PI ** -0.5 * triangle_power_moment(0.5)
        assert abs(rep.contributions[0] - want) < 1e-10
        assert rep.contributions[1:] == (0.0, 0.0, 0.0)
        assert rep.partial_sum == rep.contributions[0]
        assert rep.converged

    def test_sums_to_transform(self):
        f = gaussian_bump(0.5, 0.45, 0.2)
        spec = DeltaSpec(0.5, 1, 0)
        rep = series_reconstruction(spec, f, 6, tol=1e-9)
        want = s_local_time(spec, f, tol=1e-10).value
        assert abs(rep.partial_sum - want) < 5e-9
        assert rep.converged
        assert abs(rep.last_term) < 1e-9
        # alternating-ish decay: the tail is dominated by its first term
        assert abs(rep.contributions[-1]) < abs(rep.contributions[1])

    def test_truncated_series_matches_truncated_transform(self):
        f = gaussian_bump(0.5, 0.45, 0.2)
        spec = DeltaSpec(0.5, 1, 1)
        rep = series_reconstruction(spec, f, 6, tol=1e-9)
        want = s_local_time(spec, f, tol=1e-10).value
        assert rep.orders[0] == 1
        assert abs(rep.partial_sum - want) < 5e-9

    def test_regularized_series_matches_transform(self):
        f = VectorTestFunction((gaussian_bump(0.5, 0.45, 0.2),
                                gaussian_bump(-0.3, 0.6, 0.25)))
        spec = DeltaSpec(0.5, 2, 0, eps=0.05)
        rep = series_reconstruction(spec, f, 6, tol=1e-9)
        want = s_local_time(spec, f, tol=1e-10).value
        assert abs(rep.partial_sum - want) < 5e-8

    def test_max_order_below_truncation_rejected(self):
        with pytest.raises(ConfigError):
            series_reconstruction(DeltaSpec(0.5, 1, 2), zero_bundle(1), 1)

    def test_integral_float_max_order_runs_as_int(self):
        spec = DeltaSpec(0.5, 1, 0)
        rep = series_reconstruction(spec, zero_bundle(1), 2.0)
        assert rep == series_reconstruction(spec, zero_bundle(1), 2)
        assert rep.orders == (0, 1, 2)

    def test_truncation_difference_is_low_order_sum(self):
        # removing the first N chaos orders subtracts exactly the sum of
        # the order 0..N-1 contributions
        f = gaussian_bump(0.5, 0.45, 0.2)
        eps = 0.05
        full = s_local_time(DeltaSpec(0.5, 1, 0, eps), f, tol=1e-10).value
        trunc = s_local_time(DeltaSpec(0.5, 1, 2, eps), f, tol=1e-10).value
        rep = series_reconstruction(DeltaSpec(0.5, 1, 0, eps), f, 1,
                                    tol=1e-10)
        assert abs((full - trunc) - rep.partial_sum) < 1e-8

    @pytest.mark.parametrize("h,d,eps", [
        (0.3, 1, 0.05), (0.5, 1, 0.05), (0.7, 1, 0.05), (0.9, 1, 0.05),
        (0.5, 2, 0.05), (0.6, 2, 0.05), (0.4, 2, 0.1), (0.75, 2, 0.1),
        (0.4, 3, 0.1), (0.55, 3, 0.1),
    ])
    def test_regularized_reconstruction_suite(self, h, d, eps):
        comps = tuple(gaussian_bump(0.3 - 0.1 * j, 0.3 + 0.15 * j, 0.25)
                      for j in range(d))
        f = VectorTestFunction(comps)
        spec = DeltaSpec(h, d, 0, eps)
        tol = 1e-7
        rep = series_reconstruction(spec, f, 5, tol=tol)
        want = s_local_time(spec, f, tol=1e-9).value
        assert rep.converged
        assert abs(rep.partial_sum - want) <= 10.0 * tol

    def test_high_order_regularized_series_stays_finite(self):
        # The order-n weight (eps + tau^(2H))^-(n+1/2) tau^(2n), formed as
        # two factors, overflowed at eps = 1e-3 long before n = 120 and
        # the partial sum read NaN.
        rep = series_reconstruction(DeltaSpec(0.5, 1, 0, 1e-3),
                                    gaussian_bump(0.5, 0.5, 0.3), 120,
                                    tol=1e-6)
        assert all(map(math.isfinite, rep.contributions))
        # The order-60 partial sum and its reported budget, 6.25e-8.
        budget = sum(rep.error_estimates) + 6.25e-8
        assert abs(rep.partial_sum - 0.4993174324790911) <= budget

    def test_unconverged_is_reported_not_raised(self):
        # an order-0 cutoff leaves the whole deterministic term as the
        # last one, far above tolerance
        f = gaussian_bump(0.5, 0.45, 0.2)
        rep = series_reconstruction(DeltaSpec(0.5, 1, 0), f, 0, tol=1e-9)
        assert not rep.converged
        assert rep.last_term == rep.contributions[-1]
        assert abs(rep.last_term) > 0.1
