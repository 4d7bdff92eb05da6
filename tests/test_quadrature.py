import math

import numpy as np
import pytest
from scipy.integrate import quad

from loctime import (DeltaSpec, VectorTestFunction, gaussian_bump,
                     kernel_value, quadrature, s_local_time, zero_bundle)
from loctime.errors import AccuracyError, ConfigError, NonIntegrableError
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

    def test_nan_integrand_raises_when_strict(self):
        # NaN > tol is false: a NaN error must not count as met.
        with pytest.raises(AccuracyError, match="nan"):
            integrate_interval(lambda x: np.full_like(x, np.nan), 0.0, 1.0,
                               tol=1e-10)

    def test_reversed_interval_is_a_config_error(self):
        with pytest.raises(ConfigError, match="reversed"):
            integrate_interval(lambda x: x, 1.0, 0.0, tol=1e-10)
        assert integrate_interval(lambda x: x, 1.0, 1.0, tol=1e-10) == (
            quadrature.QuadratureResult(0.0, 0.0, 0))


class TestBatchedIntervals:
    # (lo, hi, k, (c, s), (e, t)): the integrand cos(k x) |x-c|^s |x-e|^t,
    # marked at c and e.  An unmarked row, an interior mark, a singular
    # left end (sigma < 0), a kink (sigma > 0), both ends singular, an
    # empty row, coincident marks whose exponents add, marks on lo and
    # hi, and an interior piece singular at both ends.
    ROWS = [
        (0.0, 1.0, 3.0, (0.3, 0.0), (0.5, 0.0)),
        (0.0, 1.0, 5.0, (0.3, -0.4), (0.5, 0.0)),
        (0.0, 0.7, 1.0, (0.0, -0.5), (0.5, 0.0)),
        (0.2, 0.9, 2.0, (0.5, 0.5), (0.5, 0.0)),
        (0.0, 1.0, 4.0, (0.0, -0.3), (1.0, -0.6)),
        (0.5, 0.5, 1.0, (0.3, 0.0), (0.5, 0.0)),
        (0.0, 1.0, 2.0, (0.3, -0.2), (0.3, -0.5)),
        (0.2, 0.9, 3.0, (0.2, -0.5), (0.9, -0.25)),
        (0.0, 1.0, 1.0, (0.4, -0.5), (0.6, -0.3)),
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
        assert res.value.shape == res.error_estimate.shape == (9,)
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
        # gone from 512 to 1,024.
        counts = np.zeros(3, dtype=int)

        def f(x, r, k):
            np.add.at(counts, r.astype(int), 1)
            return np.sin(k * x)

        ks = np.array([1e5, 2e5, 1.0])
        res = integrate_interval(f, np.zeros(3), np.ones(3), tol=1e-13,
                                 max_panels=600, strict=False,
                                 args=(np.arange(3.0), ks))
        assert list((counts // 48 + 1) // 2) == [600, 600, 1]
        for r, k in enumerate(ks):
            one = integrate_interval(lambda x, k: np.sin(k * x), 0.0, 1.0,
                                     tol=1e-13, max_panels=600, strict=False,
                                     args=(k,))
            assert res.value[r] == one.value
            assert counts[r] == one.evaluations


def branches(lo, hi, singular):
    """The panels of one row, rule by rule: the scalar reference for the
    engine's vectorized set-up.  Each is (p, side, q, w_hi)."""
    marks = {}
    for p, sigma in singular:
        if lo <= p <= hi:
            marks[p] = marks.get(p, 0.0) + sigma
    for p, sigma in marks.items():
        if sigma <= -1.0:
            raise NonIntegrableError(f"combined exponent {sigma} at {p}")
    points = sorted({lo, hi} | set(marks))
    out = []
    for a, b in zip(points[:-1], points[1:]):
        sub_a = marks.get(a, 0.0) < 0.0
        sub_b = marks.get(b, 0.0) < 0.0
        if not (sub_a or sub_b):
            out.append((a, 1.0, 1.0, b - a))
            continue
        m = 0.5 * (a + b) if sub_a and sub_b else (b if sub_a else a)
        if sub_a:
            sa = marks[a]
            out.append((a, 1.0, 1.0 / (1.0 + sa), (m - a) ** (1.0 + sa)))
        if sub_b:
            sb = marks[b]
            out.append((b, -1.0, 1.0 / (1.0 + sb), (b - m) ** (1.0 + sb)))
    return out


def reference_panels(los, his, singular):
    return np.array([(r,) + br for r, (lo, hi, marks)
                     in enumerate(zip(los, his, singular)) if hi > lo
                     for br in branches(lo, hi, marks)]).reshape(-1, 5)


def panels(los, his, singular):
    """The engine's panels, row by row; each row's come in position
    order, but the rows need not come in order."""
    los, his = np.asarray(los, float), np.asarray(his, float)
    got = np.stack(quadrature._panels(
        los, his, *quadrature._marks(singular, los.size)), axis=1)
    return got[np.argsort(got[:, 0], kind="stable")]


class TestVectorizedSetUp:
    # (lo, hi, marks): every rule of the panel set-up, rows with and
    # without marks in one batch.
    ROWS = [
        (0.0, 1.0, ()),
        (0.0, 1.0, ((0.3, -0.4),)),
        # coincident marks: the exponents add up to -0.4
        (0.0, 1.0, ((0.3, -0.2), (0.7, 0.0), (0.3, -0.3), (0.3, 0.1))),
        # marks on lo and hi
        (0.2, 0.9, ((0.2, -0.5), (0.9, -0.25))),
        # singular at both ends, and an interior piece singular at both
        (0.0, 1.0, ((0.0, -0.3), (1.0, -0.6))),
        (0.0, 2.0, ((0.5, -0.5), (1.0, -0.7), (1.5, 0.0))),
        # a positive exponent is a kink, split without substitution
        (0.1, 0.8, ((0.4, 0.5),)),
        # an empty row, and marks outside [lo, hi], which do not count
        (0.5, 0.5, ((0.5, -0.5),)),
        (0.0, 1.0, ((-1.0, -3.0), (1.5, -2.0), (0.25, 0.0))),
        (-1.0, 3.0, ()),
    ]

    def test_panels_follow_the_per_row_rule(self):
        los, his, marks = zip(*self.ROWS)
        got = panels(los, his, marks)
        assert np.array_equal(got, reference_panels(los, his, marks))
        # a plain row is one panel from lo to hi
        assert got[got[:, 0] == 9].tolist() == [[9.0, -1.0, 1.0, 1.0, 4.0]]
        assert 7 not in got[:, 0]

    def test_random_rows_follow_the_per_row_rule(self):
        # Marks on a coarse grid, so that coincident marks and marks on
        # the ends are common; rows whose combined exponent is not
        # integrable are left out.
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 5)
        sigmas = np.array([-0.7, -0.4, -0.2, 0.0, 0.3])
        rows = []
        while len(rows) < 300:
            lo, hi = np.sort(rng.choice(grid, 2))
            marks = tuple(zip(rng.choice(grid, rng.integers(0, 5)).tolist(),
                              rng.choice(sigmas, 5).tolist()))
            try:
                branches(float(lo), float(hi), marks)
            except NonIntegrableError:
                continue
            rows.append((float(lo), float(hi), marks))
        los, his, marks = zip(*rows)
        assert np.array_equal(panels(los, his, marks),
                              reference_panels(los, his, marks))

    def test_marks_as_an_array(self):
        # (rows, k, 2) marks, NaN points for the absent ones, give the
        # panels of the same marks as lists
        los, his = np.zeros(3), np.array([1.0, 0.8, 0.6])
        marks = np.array([[(0.3, -0.4), (0.5, 0.2)],
                          [(np.nan, np.nan), (0.8, -0.5)],
                          [(np.nan, np.nan), (np.nan, np.nan)]])
        lists = [((0.3, -0.4), (0.5, 0.2)), ((0.8, -0.5),), ()]
        assert np.array_equal(panels(los, his, marks),
                              reference_panels(los, his, lists))

    def test_non_integrable_combined_exponent_in_a_batch(self):
        marks = [(), ((0.4, -0.6), (0.4, -0.5)), ((0.2, -0.3),)]
        with pytest.raises(NonIntegrableError):
            integrate_interval(lambda x: np.ones_like(x), np.zeros(3),
                               np.ones(3), tol=1e-9, singular=marks)
        # on an empty row, or outside its interval, the same marks do not
        # count
        for hi, width in ((0.0, 0.0), (0.3, 0.3)):
            res = integrate_interval(lambda x: np.ones_like(x), np.zeros(3),
                                     np.array([1.0, hi, 1.0]), tol=1e-9,
                                     singular=marks)
            assert res.value[1] == pytest.approx(width, abs=1e-15)


class TestCaps:
    def test_no_integrand_call_exceeds_the_point_cap(self, monkeypatch):
        # 600 panels per row in three rows: every generation past the
        # first has more fresh panels than one call takes.  At order 5 a
        # panel's 15 points do not divide the cap.
        for order in (16, 5):
            monkeypatch.setattr(quadrature, "_ORDER", order)
            sizes = []

            def f(x, k):
                sizes.append(x.size)
                return np.sin(k * x)

            integrate_interval(f, np.zeros(3), np.ones(3), tol=1e-13,
                               max_panels=600, strict=False,
                               args=(np.array([1e5, 2e5, 3e5]),))
            assert max(sizes) <= quadrature._MAX_POINTS
            assert max(sizes) > quadrature._MAX_POINTS - 3 * order

    def test_held_panels_stay_under_the_panel_cap(self, monkeypatch):
        # Sixteen rows that never reach tol, each refined to 256 panels.
        # A row that is evaluated again later still holds every panel it
        # has made: a split adds one panel and evaluates two, so after
        # 48 e points it holds (e + 1) / 2 panels.  Summed over the rows
        # still to come, that is a lower bound on the panels held, which
        # without the cap would reach 16 x 256.
        calls = []

        def f(x, r, k):
            calls.append(np.bincount(r.astype(int), minlength=16) // 48)
            return np.sin(k * x)

        def run():
            calls.clear()
            return integrate_interval(
                f, np.zeros(16), np.ones(16), tol=1e-13, max_panels=256,
                strict=False, args=(np.arange(16.0), 1e5 + np.arange(16.0)))

        def held():
            seen = np.cumsum(calls, axis=0)
            assert seen[-1].tolist() == [2 * 256 - 1] * 16
            step = np.arange(len(calls))[:, None]
            later = step < np.max(step * (np.array(calls) > 0), axis=0)
            return np.sum(later * (seen + 1) // 2, axis=1).max()

        free = run()
        assert held() > 512 + 256
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 512)
        capped = run()
        assert held() <= 512 + 256
        # rows that wait refine as they would have: the same bits
        assert np.array_equal(capped.value, free.value)
        assert np.array_equal(capped.error_estimate, free.error_estimate)
        assert capped.evaluations == free.evaluations

    def test_inner_calls_fit_the_budget(self, monkeypatch):
        # Each inner call takes as many tau as the rest of the budget
        # covers if every row refines to 4,096 panels.
        rows, spent = [], [0]
        engine = quadrature.integrate_interval

        def counting(f, lo, hi, **kw):
            rows.append((np.size(lo), spent[0]))
            res = engine(f, lo, hi, **kw)
            spent[0] += res.evaluations
            return res

        def g(t1, tau):
            return np.cos(20.0 * t1) * np.cos(30.0 * tau)

        monkeypatch.setattr(quadrature, "integrate_interval", counting)
        integrate_triangle_singular(0.5, g, tol=1e-10)
        row_points = 2 * 4096 * 48
        inner = rows[:-1]  # the last call is the outer integral
        assert all(n * row_points <= quadrature._MAX_EVALUATIONS - used
                   for n, used in inner)
        assert max(n for n, _ in inner) == (quadrature._MAX_EVALUATIONS
                                            // row_points)


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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_is_named(self, alpha):
        # a NaN alpha once surfaced as a complaint about the tolerance
        with pytest.raises(ConfigError, match="alpha"):
            integrate_triangle_singular(alpha, ones, tol=1e-9)

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

    def test_marks_of_another_shape_are_a_config_error(self):
        for marks in (lambda tau: [(0.5 - tau, -0.3)],
                      lambda tau: np.zeros((tau.size + 1, 1, 2)),
                      lambda tau: [(0.3, -0.4, 0.0)]):
            with pytest.raises(ConfigError, match="inner_singularities"):
                integrate_triangle_singular(0.5, ones, tol=1e-9,
                                            inner_singularities=marks)

    def test_error_estimate_brackets_truth(self):
        res = integrate_triangle_singular(0.9, ones, tol=1e-9)
        exact = triangle_power_moment(0.9)
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)

    def test_nan_factor_raises(self):
        with pytest.raises(AccuracyError, match="nan"):
            integrate_triangle_singular(
                0.0, lambda t1, tau: np.full_like(t1, np.nan), tol=1e-6)

    def test_nan_reaches_the_cli_as_exit_3(self, monkeypatch, tmp_path,
                                            capsys):
        from loctime.cli import main
        from loctime.fracops import PairingTable

        monkeypatch.setattr(PairingTable, "v_quotient_sq",
                            lambda self, t1, tau: np.full_like(t1, np.nan))
        assert main(["stransform", "--H", "0.5", "--eps", "0", "--f",
                     "gauss", "--out", str(tmp_path)]) == 3
        assert "nan" in capsys.readouterr().err


class TestDivergenceProbe:
    def test_nan_factor_raises(self):
        with pytest.raises(AccuracyError, match="not finite"):
            divergence_probe(0.5, lambda t1, tau: np.full_like(t1, np.nan),
                             (0.1, 0.01))

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


class TestEvaluationBudget:
    def test_spent_budget_raises(self, monkeypatch):
        # An inner integrand that never converges: every row refines to
        # its 4,096th panel, 393,168 points.  A budget of one million
        # covers two such rows, and then no third.
        monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", 1_000_000)
        sizes = []

        def g(t1, tau):
            sizes.append(t1.size)
            return np.sin(1e9 * t1)

        with pytest.raises(AccuracyError, match="budget"):
            integrate_triangle_singular(0.5, g, tol=1e-9)
        assert sum(sizes) == 2 * 48 * (2 * 4096 - 1)

    def test_cli_exits_3(self, monkeypatch, tmp_path, capsys):
        from loctime.cli import main

        monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", 1_000)
        assert main(["stransform", "--H", "0.5", "--out",
                     str(tmp_path)]) == 3
        assert "budget" in capsys.readouterr().err


class TestPinnedBits:
    """Values, errors and evaluation counts recorded before the inner
    integrals were batched: batching and the panel set-up must not move a
    bit (the bump transform's value and error were re-recorded with the
    pairing table's build, see there).  ``interval_evals`` sums the points
    of every ``integrate_interval`` call, however the calls are cut."""

    @pytest.fixture
    def interval_evals(self, monkeypatch):
        total = [0]
        engine = quadrature.integrate_interval

        def counting(*args, **kwargs):
            res = engine(*args, **kwargs)
            total[0] += res.evaluations
            return res

        monkeypatch.setattr(quadrature, "integrate_interval", counting)
        return total

    @staticmethod
    def pin(res):
        return res.value.hex(), res.error_estimate.hex(), res.evaluations

    def test_stiff_regularized_moment(self, interval_evals):
        res = s_local_time(DeltaSpec(0.25, 3, 0, 1e-8), zero_bundle(3),
                           tol=1e-6)
        assert self.pin(res) == ("0x1.a001f57fb1544p-3",
                                 "0x1.3d53afc7887c3p-21", 168192)
        assert interval_evals[0] == 171696

    def test_truncated_transform_with_bumps(self, interval_evals):
        """Value and error re-recorded when the pairing table moved to
        product integration on knot cells: its knot values moved by
        rounding, the value by 4.6e-16 relative (from
        0x1.f233042593968p-13) and the error by 8.4e-11 relative (from
        0x1.7dc65ed2acbcdp-33).  The counts are the engine's and did not
        move."""
        f = VectorTestFunction((gaussian_bump(0.5, 0.45, 0.2),
                                gaussian_bump(-0.3, 0.6, 0.25)))
        res = s_local_time(DeltaSpec(0.7, 2, 2, 0.0), f, tol=1e-9)
        assert self.pin(res) == ("0x1.f23304259396cp-13",
                                 "0x1.7dc65ed335b0dp-33", 43776)
        assert interval_evals[0] == 44688

    def test_kernel_with_inner_marks(self, interval_evals):
        value = kernel_value(0.5, (1, 1), ((0.3, 0.6), (0.4, 0.7)))
        assert value.hex() == "0x1.a313e44036f84p-7"
        assert interval_evals[0] == 496141

    def test_divergence_probe(self, interval_evals):
        table = divergence_probe(1.0, lambda t1, tau: np.cos(3.0 * t1),
                                 (1e-2, 1e-3, 1e-4), tol=1e-10)
        assert [v.hex() for _, v in table] == [
            "0x1.7cb73da29ef27p-1", "0x1.b8ba86d13937cp-1",
            "0x1.f0a42daf046b9p-1"]
        assert interval_evals[0] == 72912
