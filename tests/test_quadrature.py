import math

import numpy as np
import pytest
from scipy.integrate import quad

from loctime import quadrature
from loctime.errors import AccuracyError, NonIntegrableError
from loctime.quadrature import (divergence_probe, integrate_interval,
                                integrate_triangle_singular,
                                triangle_power_moment)


def ones(t1, tau):
    return np.ones_like(t1)


class TestIntervalEngine:
    def test_smooth_polynomial(self):
        res = integrate_interval(lambda x: 3.0 * x ** 2, 0.0, 2.0, tol=1e-12)
        assert abs(res.value - 8.0) < 1e-11
        assert res.error_estimate <= 1e-12
        assert res.evaluations > 0

    def test_left_endpoint_power(self):
        res = integrate_interval(lambda x: x ** -0.5, 0.0, 1.0, tol=1e-12,
                                 singular=((0.0, -0.5),))
        assert abs(res.value - 2.0) < 1e-11

    def test_right_endpoint_power(self):
        res = integrate_interval(lambda x: (1.0 - x) ** -0.3, 0.0, 1.0,
                                 tol=1e-12, singular=((1.0, -0.3),))
        assert abs(res.value - 1.0 / 0.7) < 1e-11

    def test_interior_singularity_is_split(self):
        res = integrate_interval(lambda x: np.abs(x - 0.3) ** -0.5, 0.0, 1.0,
                                 tol=1e-11, singular=((0.3, -0.5),))
        exact = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
        assert abs(res.value - exact) < 1e-10

    def test_coincident_marks_merge_exponents(self):
        # x^-0.3 * x^-0.4 carries a combined x^-0.7 singularity.
        res = integrate_interval(lambda x: x ** -0.7, 0.0, 1.0, tol=1e-11,
                                 singular=((0.0, -0.3), (0.0, -0.4)))
        assert abs(res.value - 1.0 / 0.3) < 2e-10

    def test_merged_exponent_below_minus_one_diverges(self):
        with pytest.raises(NonIntegrableError):
            integrate_interval(lambda x: x ** -1.2, 0.0, 1.0, tol=1e-9,
                               singular=((0.0, -0.6), (0.0, -0.6)))

    def test_oscillatory_against_scipy(self):
        f = lambda x: np.cos(7.0 * x) * x ** -0.25
        res = integrate_interval(f, 0.0, 1.0, tol=1e-11,
                                 singular=((0.0, -0.25),))
        ref, _ = quad(lambda x: math.cos(7.0 * x) * x ** -0.25, 0.0, 1.0,
                      epsabs=1e-12, limit=200)
        assert abs(res.value - ref) < 1e-9

    def test_positive_mark_is_benign(self):
        res = integrate_interval(lambda x: x ** 0.5, 0.0, 1.0, tol=1e-11,
                                 singular=((0.0, 0.5),))
        assert abs(res.value - 2.0 / 3.0) < 1e-10

    def test_deterministic_reruns(self):
        f = lambda x: np.sin(3.0 * x) * (1.0 - x) ** -0.4
        marks = ((1.0, -0.4),)
        a = integrate_interval(f, 0.0, 1.0, tol=1e-10, singular=marks)
        b = integrate_interval(f, 0.0, 1.0, tol=1e-10, singular=marks)
        assert a.value == b.value
        assert a.evaluations == b.evaluations

    def test_rounding_noise_stops_refinement(self):
        # at 1e12 the embedded-rule difference of an exact panel is
        # rounding noise far above tol, which splitting cannot lower
        res = integrate_interval(lambda x: 1e12 * np.exp(x), 0.0, 1.0,
                                 tol=1e-9, strict=False)
        assert res.evaluations == 48
        assert abs(res.value - 1e12 * math.expm1(1.0)) <= 1e-3
        assert res.error_estimate < 1e-14 * res.value

    def test_budget_exhaustion_raises_when_strict(self):
        f = lambda x: np.abs(np.sin(40.0 / (x + 1e-3)))
        with pytest.raises(AccuracyError):
            integrate_interval(f, 0.0, 1.0, tol=1e-14, max_panels=8)
        res = integrate_interval(f, 0.0, 1.0, tol=1e-14, max_panels=8,
                                 strict=False)
        assert res.error_estimate > 1e-14


class TestBatchedIntervals:
    # (lo, hi, k, (c, s), (e, t)): the integrand cos(k x) |x-c|^s |x-e|^t,
    # marked at c and e.  An unmarked row, an interior mark, a singular
    # left end (sigma < 0), a kink (sigma > 0), both ends singular, and
    # an empty row.
    ROWS = [
        (0.0, 1.0, 3.0, (0.3, 0.0), (0.5, 0.0)),
        (0.0, 1.0, 5.0, (0.3, -0.4), (0.5, 0.0)),
        (0.0, 0.7, 1.0, (0.0, -0.5), (0.5, 0.0)),
        (0.2, 0.9, 2.0, (0.5, 0.5), (0.5, 0.0)),
        (0.0, 1.0, 4.0, (0.0, -0.3), (1.0, -0.6)),
        (0.5, 0.5, 1.0, (0.3, 0.0), (0.5, 0.0)),
    ]

    @staticmethod
    def f(x, k, c, s, e, t):
        return np.cos(k * x) * np.abs(x - c) ** s * np.abs(x - e) ** t

    @staticmethod
    def marks(row):
        return tuple(m for m in row[3:] if m[1] != 0.0)

    def batch(self, rows, counts=None):
        def f(x, r, *params):
            if counts is not None:
                np.add.at(counts, r.astype(int), 1)
            return self.f(x, *params)

        picked = [self.ROWS[r] for r in rows]
        lo, hi, k, cs, et = (np.array(col) for col in zip(*picked))
        return integrate_interval(
            f, lo, hi, tol=1e-10, singular=[self.marks(r) for r in picked],
            strict=False, args=(np.array(rows, float), k, cs[:, 0], cs[:, 1],
                                et[:, 0], et[:, 1]))

    def test_rows_match_scalar_calls(self):
        counts = np.zeros(len(self.ROWS), dtype=int)
        res = self.batch(range(len(self.ROWS)), counts)
        assert res.value.shape == res.error_estimate.shape == (6,)
        assert isinstance(res.evaluations, int)
        assert res.evaluations == counts.sum()
        for r, row in enumerate(self.ROWS):
            (lo, hi, k, (c, s), (e, t)) = row
            one = integrate_interval(self.f, lo, hi, tol=1e-10,
                                     singular=self.marks(row), strict=False,
                                     args=(k, c, s, e, t))
            assert isinstance(one.value, float)
            assert res.value[r] == one.value
            assert res.error_estimate[r] == one.error_estimate
            assert counts[r] == one.evaluations
        assert res.value[5] == 0.0 and counts[5] == 0

    def test_rows_do_not_depend_on_the_batch(self):
        full = self.batch(range(len(self.ROWS)))
        order = [4, 1, 1, 3]
        part = self.batch(order)
        for i, r in enumerate(order):
            assert part.value[i] == full.value[r]
            assert part.error_estimate[i] == full.error_estimate[r]

    def test_strict_batch_raises_for_any_row(self):
        f = lambda x, k: np.abs(np.sin(k / (x + 1e-3)))
        with pytest.raises(AccuracyError):
            integrate_interval(f, np.zeros(2), np.ones(2), tol=1e-14,
                               max_panels=8, args=(np.array([0.0, 40.0]),))

    def test_max_panels_caps_every_row(self):
        # Rows that never reach tol end at exactly max_panels panels: each
        # split adds 2 x 48 points to a row's first 48, so p panels cost
        # 48 (2p - 1).  Refining all panels of a row at once would have
        # gone from 512 to 1,024.  The 1,024 fresh panels of the two
        # oscillating rows also take two blocks of f calls.
        sizes = []
        counts = np.zeros(3, dtype=int)

        def f(x, r, k):
            sizes.append(x.size)
            np.add.at(counts, r.astype(int), 1)
            return np.sin(k * x)

        ks = np.array([1e5, 2e5, 1.0])
        res = integrate_interval(f, np.zeros(3), np.ones(3), tol=1e-13,
                                 max_panels=600, strict=False,
                                 args=(np.arange(3.0), ks))
        assert list((counts // 48 + 1) // 2) == [600, 600, 1]
        assert max(sizes) <= quadrature._BLOCK * 48
        for r, k in enumerate(ks):
            one = integrate_interval(lambda x, k: np.sin(k * x), 0.0, 1.0,
                                     tol=1e-13, max_panels=600, strict=False,
                                     args=(k,))
            assert res.value[r] == one.value
            assert counts[r] == one.evaluations


class TestTrianglePowerMoment:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.25, 0.5, 0.75, 0.9])
    def test_closed_form(self, alpha):
        assert abs(triangle_power_moment(alpha)
                   - 1.0 / ((1.0 - alpha) * (2.0 - alpha))) < 1e-15

    def test_divergent_exponent_rejected(self):
        with pytest.raises(NonIntegrableError):
            triangle_power_moment(1.0)


class TestTriangleEngine:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.25, 0.5, 0.75, 0.9, 0.99])
    def test_unit_g_matches_moment(self, alpha):
        res = integrate_triangle_singular(alpha, ones, tol=1e-10)
        exact = triangle_power_moment(alpha)
        assert abs(res.value - exact) <= 1e-8 * abs(exact)

    def test_alpha_at_one_rejected(self):
        with pytest.raises(NonIntegrableError):
            integrate_triangle_singular(1.0, ones, tol=1e-9)

    def test_t1_dependent_factor(self):
        # int_Delta tau^-1/2 t1 = (1/2) int (1-tau)^2 tau^-1/2 = 8/15.
        res = integrate_triangle_singular(0.5, lambda t1, tau: t1, tol=1e-10)
        assert abs(res.value - 8.0 / 15.0) < 1e-9

    def test_tau_dependent_factor(self):
        # g = sqrt(tau) turns tau^-0.75 into tau^-0.25.
        res = integrate_triangle_singular(
            0.75, lambda t1, tau: np.full_like(t1, np.sqrt(tau)), tol=1e-10)
        assert abs(res.value - triangle_power_moment(0.25)) < 1e-8

    def test_oscillatory_factor_against_reduction(self):
        res = integrate_triangle_singular(
            0.25, lambda t1, tau: np.cos(20.0 * t1), tol=1e-10)
        ref, _ = quad(lambda u: u ** -0.25 * math.sin(20.0 * (1.0 - u)) / 20.0,
                      0.0, 1.0, epsabs=1e-13, limit=200)
        assert abs(res.value - ref) < 1e-8

    def test_inner_marks_handle_t1_singularity(self):
        # g blows up like |t1 - 0.3|^-0.4 along the inner direction.
        def g(t1, tau):
            return np.abs(t1 - 0.3) ** -0.4

        res = integrate_triangle_singular(
            0.5, g, tol=1e-9, inner_singularities=lambda tau: [(0.3, -0.4)])

        def inner(upper):
            if upper <= 0.3:
                return (0.3 ** 0.6 - (0.3 - upper) ** 0.6) / 0.6
            return (0.3 ** 0.6 + (upper - 0.3) ** 0.6) / 0.6

        ref, _ = quad(lambda u: u ** -0.5 * inner(1.0 - u), 0.0, 1.0,
                      points=[0.7], epsabs=1e-12, limit=200)
        assert abs(res.value - ref) < 5e-8

    def test_error_estimate_brackets_truth(self):
        res = integrate_triangle_singular(0.9, ones, tol=1e-9)
        exact = triangle_power_moment(0.9)
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)


class TestDivergenceProbe:
    def test_log_divergence_at_alpha_one(self):
        cutoffs = (1e-2, 1e-3, 1e-4, 1e-5)
        table = divergence_probe(1.0, ones, cutoffs, tol=1e-10)
        values = [v for _, v in table]
        for kappa, v in table:
            exact = -math.log(kappa) - (1.0 - kappa)
            assert abs(v - exact) < 1e-8
        diffs = np.diff(values)
        for d in diffs:
            assert abs(d - math.log(10.0)) < 0.02 * math.log(10.0)

    def test_convergent_exponent_saturates(self):
        table = divergence_probe(0.5, ones, (1e-1, 1e-2, 1e-3), tol=1e-10)
        values = [v for _, v in table]
        limit = triangle_power_moment(0.5)
        assert values[-1] < limit
        assert limit - values[-1] < limit - values[0]

    def test_power_divergence_grows_geometrically(self):
        table = divergence_probe(1.2, ones, (1e-1, 1e-2, 1e-3, 1e-4),
                                 tol=1e-9)
        values = [v for _, v in table]
        incr = np.diff(values)
        assert np.all(incr > 0)
        # each decade multiplies the increment by about 10^0.2
        ratios = incr[1:] / incr[:-1]
        assert np.all(ratios > 1.5)
        assert np.all(np.abs(ratios - 10.0 ** 0.2) < 0.1)
