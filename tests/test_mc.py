import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import hermite_e

import loctime.mc as mc
from loctime.errors import AccuracyError, ConfigError
from loctime.fracops import Hurst, Interval, increment_kernel
from loctime.mc import (BLOCK, McEstimate, PathEnsemble, WhiteNoiseGrid,
                        _horner, _pair_sums, _subtractor_coeffs,
                        covariance_from_kernels, fbm_covariance,
                        make_midpoint_times, mc_grid_bias,
                        mc_local_time_regularized, mc_s_transform,
                        mc_weight_check, resolve_threads,
                        sample_paths_cholesky, sample_paths_whitenoise)
from loctime.stransform import exp_truncated
from loctime.testfunctions import (VectorTestFunction, gaussian_bump,
                                   zero_bundle, zero_function)


class TestCovariance:
    def test_brownian_reduces_to_min(self):
        assert fbm_covariance(0.5, 0.3, 0.8) == pytest.approx(0.3, abs=1e-15)
        assert fbm_covariance(0.5, 0.9, 0.4) == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("h", [0.2, 0.5, 0.8])
    def test_variance_is_power_law(self, h):
        for t in (0.25, 0.7, 1.0):
            assert fbm_covariance(h, t, t) == pytest.approx(
                t ** (2 * h), rel=1e-14)

    def test_symmetry(self):
        assert fbm_covariance(0.35, 0.2, 0.9) == fbm_covariance(0.35, 0.9, 0.2)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            fbm_covariance(0.5, -0.1, 0.5)
        for bad in (math.nan, math.inf):
            for cov in (fbm_covariance, covariance_from_kernels):
                with pytest.raises(ConfigError):
                    cov(0.5, bad, 0.3)
                with pytest.raises(ConfigError):
                    cov(0.5, 0.3, bad)

    def test_zero_time_yields_zero(self):
        assert covariance_from_kernels(0.3, 0.0, 0.7) == 0.0
        assert covariance_from_kernels(0.8, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.65, 0.9])
    @pytest.mark.parametrize("st", [(0.5, 0.5), (0.25, 1.0), (0.8, 0.9)])
    def test_kernel_route_matches_closed_form(self, h, st):
        s, t = st
        want = fbm_covariance(h, s, t)
        got = covariance_from_kernels(h, s, t, tol=1e-9)
        assert abs(got - want) < 1e-7

    def test_kernel_route_tiny_gap(self):
        # Near-coincident times stress the overlap of the two kernel
        # singularities; the strip decomposition has to keep distances
        # exact where x-space doubles cannot.
        for h in (0.1, 0.4):
            s, t = 0.5, 0.5 + 1e-9
            want = fbm_covariance(h, s, t)
            got = covariance_from_kernels(h, s, t, tol=1e-9)
            assert abs(got - want) < 1e-7


class TestTimeGrids:
    def test_midpoint_times(self):
        times = make_midpoint_times(4)
        assert times[0] == 0.0
        assert np.allclose(times[1:], [0.125, 0.375, 0.625, 0.875])

    def test_midpoint_times_validation(self):
        with pytest.raises(ConfigError):
            make_midpoint_times(0)

    def test_nested_refinement_shares_no_midpoints(self):
        t1 = make_midpoint_times(8)[1:]
        t2 = make_midpoint_times(16)[1:]
        assert np.intersect1d(t1, t2).size == 0


class TestNoiseGrid:
    def test_defaults_are_valid(self):
        grid = WhiteNoiseGrid()
        assert grid.dx == pytest.approx(21.0 / 2048)
        assert grid.midpoints.size == 2048
        assert grid.midpoints[0] == pytest.approx(-20.0 + 0.5 * grid.dx)

    @pytest.mark.parametrize("kwargs", [
        dict(x_lo=0.0),
        dict(x_lo=2.0),
        dict(x_hi=0.5),
        dict(n_cells=4),
        dict(n_cells="64"),
        dict(tail_budget=0.0),
        dict(tail_budget=-1e-3),
    ])
    def test_invalid_configurations(self, kwargs):
        with pytest.raises(ConfigError):
            WhiteNoiseGrid(**kwargs)

    def test_tail_mass_vanishes_for_brownian(self):
        grid = WhiteNoiseGrid(x_lo=-5.0)
        assert grid.tail_mass(0.5) == 0.0
        assert grid.required_x_lo(0.5, 1e-8) == -1.0

    def test_tail_mass_decreases_with_longer_grid(self):
        short = WhiteNoiseGrid(x_lo=-5.0)
        long = WhiteNoiseGrid(x_lo=-50.0)
        for h in (0.2, 0.4, 0.75):
            assert long.tail_mass(h) < short.tail_mass(h)
            assert short.tail_mass(h) > 0.0

    @pytest.mark.parametrize("h", [0.25, 0.6, 0.9])
    def test_required_x_lo_hits_budget(self, h):
        budget = 1e-5
        grid = WhiteNoiseGrid()
        x_lo = grid.required_x_lo(h, budget)
        assert x_lo < 0.0
        tuned = WhiteNoiseGrid(x_lo=x_lo)
        assert tuned.tail_mass(h) == pytest.approx(budget, rel=1e-10)

    def test_required_x_lo_rejects_bad_budget(self):
        with pytest.raises(ConfigError):
            WhiteNoiseGrid().required_x_lo(0.3, 0.0)

    def test_budget_enforced_at_sampling(self):
        grid = WhiteNoiseGrid(x_lo=-3.0, tail_budget=1e-8)
        with pytest.raises(ConfigError, match="extend the grid"):
            sample_paths_whitenoise(0.25, 1, make_midpoint_times(2), grid, 4)

    def test_increments_are_keyed_by_block(self):
        grid = WhiteNoiseGrid(n_cells=64)
        a = grid.increments(2, 16, 0, 0)
        b = grid.increments(2, 16, 0, 0)
        c = grid.increments(2, 16, 0, 1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (16, 2, 64)


class TestEnsembleValidation:
    def _paths(self, times, n=2, d=1):
        p = np.ones((n, len(times), d))
        p[:, 0, :] = 0.0
        return p

    def test_time_grid_must_start_at_zero(self):
        times = np.array([0.1, 0.5])
        with pytest.raises(ConfigError):
            PathEnsemble(hurst=Hurst(0.5), times=times,
                         paths=self._paths(times))

    def test_time_grid_must_increase(self):
        times = np.array([0.0, 0.5, 0.4])
        with pytest.raises(ConfigError):
            PathEnsemble(hurst=Hurst(0.5), times=times,
                         paths=self._paths(times))

    def test_time_grid_stays_in_unit_interval(self):
        times = np.array([0.0, 0.5, 1.2])
        with pytest.raises(ConfigError):
            PathEnsemble(hurst=Hurst(0.5), times=times,
                         paths=self._paths(times))

    def test_paths_must_match_times(self):
        times = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ConfigError):
            PathEnsemble(hurst=Hurst(0.5), times=times,
                         paths=np.zeros((2, 2, 1)))

    def test_paths_must_anchor_at_zero(self):
        times = np.array([0.0, 0.5])
        paths = np.ones((2, 2, 1))
        with pytest.raises(ConfigError):
            PathEnsemble(hurst=Hurst(0.5), times=times, paths=paths)

    def test_restrict_times_keeps_anchor(self):
        ens = sample_paths_cholesky(0.5, 1, make_midpoint_times(4), 8)
        sub = ens.restrict_times([0, 2, 4])
        assert sub.times.size == 3
        assert np.array_equal(sub.paths, ens.paths[:, [0, 2, 4], :])
        assert sub.paths.flags.c_contiguous
        with pytest.raises(ConfigError):
            ens.restrict_times([1, 2])

    def test_float_hurst_and_path_list_are_coerced(self):
        # A float H was kept as given, and the S-transform estimator then
        # ended in AttributeError; a list of paths ended in one at once.
        ens = sample_paths_whitenoise(0.7, 1, make_midpoint_times(4),
                                      WhiteNoiseGrid(n_cells=64), 8)
        same = PathEnsemble(hurst=0.7, times=ens.times,
                            paths=ens.paths.tolist(), grid=ens.grid)
        assert same.hurst == Hurst(0.7)
        assert np.array_equal(same.paths, ens.paths)
        f = gaussian_bump(0.5, 0.5, 0.2)
        assert (mc_s_transform(same, f, 0.05, 1)
                == mc_s_transform(ens, f, 0.05, 1))


class TestSampling:
    def test_whitenoise_deterministic_across_threads(self):
        grid = WhiteNoiseGrid(n_cells=256)
        times = make_midpoint_times(4)
        a = sample_paths_whitenoise(0.7, 2, times, grid, 700, n_threads=1)
        b = sample_paths_whitenoise(0.7, 2, times, grid, 700, n_threads=4)
        assert np.array_equal(a.paths, b.paths)

    def test_cholesky_deterministic_across_threads(self):
        times = make_midpoint_times(6)
        a = sample_paths_cholesky(0.3, 1, times, 1100, n_threads=1)
        b = sample_paths_cholesky(0.3, 1, times, 1100, n_threads=3)
        assert np.array_equal(a.paths, b.paths)

    def test_streams_are_independent_draws(self):
        times = make_midpoint_times(3)
        a = sample_paths_cholesky(0.5, 1, times, 16, stream=0)
        b = sample_paths_cholesky(0.5, 1, times, 16, stream=1)
        assert not np.array_equal(a.paths, b.paths)

    def test_paths_start_at_zero(self):
        grid = WhiteNoiseGrid(n_cells=128)
        ens = sample_paths_whitenoise(0.4, 2, make_midpoint_times(3), grid, 8)
        assert np.all(ens.paths[:, 0, :] == 0.0)

    def test_invalid_dimensions_rejected(self):
        times = make_midpoint_times(2)
        with pytest.raises(ConfigError):
            sample_paths_cholesky(0.5, 0, times, 4)
        with pytest.raises(ConfigError):
            sample_paths_whitenoise(0.5, 1, times, WhiteNoiseGrid(), 0)
        with pytest.raises(ConfigError):
            sample_paths_cholesky(0.5, 1.5, times, 8)
        with pytest.raises(ConfigError):
            sample_paths_cholesky(0.5, 1, times, 8.5)
        with pytest.raises(ConfigError):
            sample_paths_whitenoise(0.5, "2", times, WhiteNoiseGrid(), 8)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cholesky_products_match_einsum(self, d):
        # The thread tests pass for any deterministic layout; this pins
        # row j d + c of a block's product to component c of path j, in
        # all three blocks of 1,100 paths.
        times = make_midpoint_times(64)
        n_paths, stream, seed = 1100, 2, 5
        chol = mc._covariance_factor(Hurst(0.3), times[1:])
        z = np.concatenate([
            np.random.Generator(np.random.Philox(
                np.random.SeedSequence((seed, stream, b))))
            .standard_normal(size=(hi - lo, d, 64))
            for b, (lo, hi) in enumerate(mc._tiles(0, n_paths, BLOCK))])
        want = np.einsum("jdm,km->jkd", z, chol)
        got = sample_paths_cholesky(0.3, d, times, n_paths, stream,
                                    seed=seed).paths
        assert not got[:, 0].any()
        assert (np.max(np.abs(got[:, 1:] - want))
                <= 1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_kernel_matrix_rows_are_increment_kernels(self, h):
        grid = WhiteNoiseGrid()
        times = make_midpoint_times(64)
        K = mc._kernel_matrix(Hurst(h), times, grid)
        assert not K[0].any()
        for k, t in enumerate(times[1:], 1):
            assert np.array_equal(
                K[k], increment_kernel(h, Interval(0.0, t), grid.midpoints))

    def test_kernel_matrix_nudges_singular_midpoints(self):
        # Cells of width 1/2 from -3 put noise midpoints exactly on the
        # times 1/4 and 3/4, where the H < 1/2 kernel is infinite; those
        # nodes move right by 1e-9 of a cell.
        grid = WhiteNoiseGrid(x_lo=-3.0, x_hi=1.0, n_cells=8)
        times = make_midpoint_times(2)
        hu = Hurst(0.3)
        x = grid.midpoints
        K = mc._kernel_matrix(hu, times, grid)
        assert not K[0].any()
        for k, t in enumerate(times[1:], 1):
            hit = (x == 0.0) | (x == t)
            assert hit.any()
            nudged = np.where(hit, x + 1e-9 * grid.dx, x)
            assert np.array_equal(
                K[k], increment_kernel(hu, Interval(0.0, t), nudged))
        ens = sample_paths_whitenoise(hu, 1, times, grid, 16)
        assert np.all(np.isfinite(ens.paths))
        est = mc_s_transform(ens, gaussian_bump(0.5, 0.4, 0.3), 0.05, 1)
        assert math.isfinite(est.mean) and est.stderr > 0.0

    def test_whitenoise_restriction_matches_direct_sampling(self):
        # Path values depend only on each time's kernel row, so sampling
        # on a union grid and restricting must reproduce the direct run
        # bit for bit, including the estimator built on top.
        grid = WhiteNoiseGrid(n_cells=512)
        t1 = make_midpoint_times(8)
        t2 = make_midpoint_times(16)
        union = np.unique(np.concatenate([t1, t2]))
        ens_union = sample_paths_whitenoise(0.6, 1, union, grid, 600)
        ens_direct = sample_paths_whitenoise(0.6, 1, t1, grid, 600)
        idx = np.searchsorted(union, t1)
        sub = ens_union.restrict_times(idx)
        assert np.array_equal(sub.paths, ens_direct.paths)
        est_sub = mc_local_time_regularized(sub, 0.05)
        est_direct = mc_local_time_regularized(ens_direct, 0.05)
        assert est_sub == est_direct

    def test_cholesky_moments(self):
        times = np.array([0.0, 0.5, 1.0])
        for h in (0.3, 0.7):
            ens = sample_paths_cholesky(h, 1, times, 8192)
            b = ens.paths[:, :, 0]
            n = ens.n_paths
            for k, t in ((1, 0.5), (2, 1.0)):
                var = t ** (2 * h)
                se_mean = math.sqrt(var / n)
                assert abs(np.mean(b[:, k])) < 5 * se_mean
                se_var = var * math.sqrt(2.0 / (n - 1))
                assert abs(np.var(b[:, k], ddof=1) - var) < 5 * se_var

    def test_brownian_increments_uncorrelated(self):
        times = np.array([0.0, 0.5, 1.0])
        ens = sample_paths_cholesky(0.5, 1, times, 8192)
        b = ens.paths[:, :, 0]
        d1 = b[:, 1] - b[:, 0]
        d2 = b[:, 2] - b[:, 1]
        n = ens.n_paths
        cov = np.mean(d1 * d2) - np.mean(d1) * np.mean(d2)
        assert abs(cov) < 5 * 0.5 / math.sqrt(n)

    def test_whitenoise_marginal_variance(self):
        # The discrete variance differs from t^{2H} by the cell
        # quantization of the kernel support, at most a couple of cells.
        grid = WhiteNoiseGrid()
        times = np.array([0.0, 1.0])
        ens = sample_paths_whitenoise(0.5, 1, times, grid, 4096)
        b1 = ens.paths[:, 1, 0]
        n = ens.n_paths
        se_var = math.sqrt(2.0 / (n - 1))
        allow = 5 * se_var + 2 * grid.dx
        assert abs(np.var(b1, ddof=1) - 1.0) < allow

    def test_whitenoise_cross_covariance(self):
        grid = WhiteNoiseGrid()
        times = np.array([0.0, 0.5, 1.0])
        ens = sample_paths_whitenoise(0.5, 1, times, grid, 4096)
        b = ens.paths[:, :, 0]
        n = ens.n_paths
        cov = float(np.mean(b[:, 1] * b[:, 2]))
        se = math.sqrt((fbm_covariance(0.5, 0.5, 0.5)
                        * fbm_covariance(0.5, 1.0, 1.0)
                        + fbm_covariance(0.5, 0.5, 1.0) ** 2) / n)
        assert abs(cov - 0.5) < 5 * se + 2 * grid.dx

    def test_components_are_independent(self):
        times = np.array([0.0, 1.0])
        ens = sample_paths_cholesky(0.5, 2, times, 8192)
        x = ens.paths[:, 1, 0]
        y = ens.paths[:, 1, 1]
        n = ens.n_paths
        assert abs(np.mean(x * y)) < 5 / math.sqrt(n)


def _voronoi_widths(times_pos):
    edges = np.concatenate([[0.0],
                            0.5 * (times_pos[:-1] + times_pos[1:]),
                            [1.0]])
    return np.diff(edges)


def _discrete_gram(ens):
    """Kernel matrix at the noise midpoints and its discrete Gram matrix."""
    grid = ens.grid
    K = np.zeros((ens.times.size, grid.n_cells))
    for k, t in enumerate(ens.times):
        if t > 0.0:
            K[k] = increment_kernel(ens.hurst, Interval(0.0, t),
                                    grid.midpoints)
    return K, (K * grid.dx) @ K.T


def _discrete_transform(ens, f, eps, n_trunc):
    """Pair-rule expectation of the S-transform estimator, computed directly.

    Conditional on the noise grid, each pair contributes
    w_j w_k (2 pi (eps + s))^{-d/2} exp_N(-|u|^2 / (2 (eps + s))) with
    s the discrete pair variance and u the discrete pairing of f.
    """
    grid = ens.grid
    x = grid.midpoints
    K, gram = _discrete_gram(ens)
    diag = np.diag(gram)
    fv = np.stack([fj.eval(x) for fj in f])
    proj = K @ fv.T * grid.dx
    w = _voronoi_widths(ens.times[1:])
    m = ens.times.size - 1
    total = 0.0
    for j in range(1, m + 1):
        for k in range(j + 1, m + 1):
            s_jk = diag[j] + diag[k] - 2.0 * gram[j, k]
            width = eps + s_jk
            arg = -0.5 * float(np.sum((proj[k] - proj[j]) ** 2)) / width
            if n_trunc == 0:
                e = math.exp(arg)
            else:
                e = exp_truncated(arg, n_trunc)
            total += (w[j - 1] * w[k - 1]
                      * (2.0 * math.pi * width) ** (-0.5 * ens.d) * e)
    return total


class TestEstimators:
    def test_pair_rule_matches_direct_loop(self):
        times = np.array([0.0, 0.2, 0.45, 0.7, 0.9])
        rng = np.random.default_rng(7)
        paths = rng.normal(size=(3, times.size, 2))
        paths[:, 0, :] = 0.0
        ens = PathEnsemble(hurst=Hurst(0.5), times=times, paths=paths)
        eps = 0.07
        est = mc_local_time_regularized(ens, eps)
        w = _voronoi_widths(times[1:])
        vals = []
        for p in range(3):
            total = 0.0
            for j in range(4):
                for k in range(j + 1, 4):
                    db = paths[p, k + 1] - paths[p, j + 1]
                    phi = ((2.0 * math.pi * eps) ** -1.0
                           * math.exp(-0.5 * float(db @ db) / eps))
                    total += w[j] * w[k] * phi
            vals.append(total)
        assert est.mean == pytest.approx(np.mean(vals), abs=1e-14)
        assert est.stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(3),
                                           abs=1e-14)
        assert est.n_samples == 3

    def test_estimator_validation(self):
        ens = sample_paths_cholesky(0.5, 1, make_midpoint_times(4), 8)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                mc_local_time_regularized(ens, bad)
        short = sample_paths_cholesky(0.5, 1, make_midpoint_times(1), 8)
        with pytest.raises(ConfigError):
            mc_local_time_regularized(short, 0.05)

    def test_pair_sums_stay_small(self):
        # Pairs are taken lag by lag on contiguous slices, so the
        # estimator's buffers scale with one path block, not with the
        # number of pairs.
        ens = sample_paths_cholesky(0.3, 2, make_midpoint_times(256), 512)
        tracemalloc.start()
        try:
            mc_local_time_regularized(ens, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_estimator_deterministic_across_threads(self):
        ens = sample_paths_cholesky(0.5, 2, make_midpoint_times(16), 1500)
        a = mc_local_time_regularized(ens, 0.02, n_threads=1)
        b = mc_local_time_regularized(ens, 0.02, n_threads=4)
        assert a == b

    def test_regularized_mean_tracks_analytic_value(self):
        # E sum w_j w_k p_eps(dB) integrates (2 pi)^{-d/2}
        # (eps + tau^{2H})^{-d/2} over the triangle; compare against the
        # pair-rule evaluation of that integrand, which removes the
        # time-discretization bias from the comparison.
        h, eps, m = 0.5, 0.05, 32
        times = make_midpoint_times(m)
        ens = sample_paths_cholesky(h, 1, times, 6000)
        est = mc_local_time_regularized(ens, eps)
        w = _voronoi_widths(times[1:])
        want = 0.0
        for j in range(m):
            for k in range(j + 1, m):
                tau = times[k + 1] - times[j + 1]
                want += (w[j] * w[k]
                         * (2.0 * math.pi * (eps + tau)) ** -0.5)
        assert abs(est.mean - want) < 5 * est.stderr

    def test_s_transform_requires_whitenoise(self):
        ens = sample_paths_cholesky(0.5, 1, make_midpoint_times(4), 8)
        with pytest.raises(ConfigError, match="white-noise"):
            mc_s_transform(ens, zero_bundle(1), 0.05)
        with pytest.raises(ConfigError, match="white-noise"):
            mc_weight_check(ens, zero_bundle(1))

    def test_s_transform_validation(self):
        grid = WhiteNoiseGrid(n_cells=64)
        ens = sample_paths_whitenoise(0.5, 1, make_midpoint_times(4), grid, 8)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ConfigError):
                mc_s_transform(ens, zero_bundle(1), bad)
        with pytest.raises(ConfigError):
            mc_s_transform(ens, zero_bundle(1), 0.05, n_trunc=-1)
        with pytest.raises(ConfigError):
            mc_s_transform(ens, zero_bundle(1), 0.05, n_trunc=1.5)
        # 171! is no double: the subtractor's 1/i! would overflow.
        with pytest.raises(ConfigError, match="at most 170"):
            mc_s_transform(ens, zero_bundle(1), 0.05, n_trunc=172)
        # An integral float is taken as the integer it equals.
        assert (mc_s_transform(ens, zero_bundle(1), 0.05, n_trunc=1.0)
                == mc_s_transform(ens, zero_bundle(1), 0.05, n_trunc=1))

    def test_high_truncation_order_is_typed(self):
        # C(k + d/2 - 1, k - i) once took gamma(k + d/2), beyond the
        # double range for n_trunc - 1 + d/2 > 171.6.
        ens = sample_paths_whitenoise(0.5, 8, make_midpoint_times(4),
                                      WhiteNoiseGrid(n_cells=64), 4)
        est = mc_s_transform(ens, zero_bundle(8), 0.05, 170)
        assert math.isfinite(est.mean) and math.isfinite(est.stderr)
        # No noise cell lies between the two times, so the pair variance
        # is 0 and (1 / (2 eps))^i / i! passes the double range.
        close = sample_paths_whitenoise(0.5, 1, [0.0, 0.3, 0.3 + 1e-9],
                                        WhiteNoiseGrid(n_cells=64), 4)
        with pytest.raises(AccuracyError, match="double range"):
            mc_s_transform(close, zero_bundle(1), 1e-6, 170)

    def test_zero_f_closes_onto_regularized_estimator(self):
        grid = WhiteNoiseGrid(n_cells=256)
        ens = sample_paths_whitenoise(0.6, 2, make_midpoint_times(8),
                                      grid, 600)
        a = mc_s_transform(ens, zero_bundle(2), 0.05)
        b = mc_local_time_regularized(ens, 0.05)
        assert a == b

    def test_weight_check_zero_f_is_exactly_one(self):
        grid = WhiteNoiseGrid(n_cells=128)
        ens = sample_paths_whitenoise(0.5, 1, make_midpoint_times(2),
                                      grid, 600)
        est = mc_weight_check(ens, zero_function())
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_weight_check_unit_mean(self):
        grid = WhiteNoiseGrid()
        ens = sample_paths_whitenoise(0.5, 1, make_midpoint_times(2),
                                      grid, 4096)
        est = mc_weight_check(ens, gaussian_bump(0.5, 0.3, 0.25))
        assert est.stderr > 0.0
        assert abs(est.mean - 1.0) < 5 * est.stderr

    def test_underflowing_weights_raise(self):
        # At amplitude 200 every weight exp(<dW, f> - |f|^2/2) is below
        # the smallest double, so the weight check's mean would read
        # 0 +- 0.  The S-transform estimator raises for another reason:
        # the drift K(f dx) moves the two times of the pair so far apart
        # that every shifted pair kernel exp(-|dB|^2 / (2 eps)) underflows.
        grid = WhiteNoiseGrid()
        ens = sample_paths_whitenoise(0.5, 1, make_midpoint_times(2),
                                      grid, 512)
        f = gaussian_bump(200.0, 0.3, 0.25)
        with pytest.raises(AccuracyError, match="underflowed"):
            mc_weight_check(ens, f)
        with pytest.raises(AccuracyError, match="underflowed"):
            mc_s_transform(ens, f, 0.05)

    def test_underflowing_pair_kernels_raise(self):
        # At eps = 1e-300 exp(-|dB|^2 / (2 eps)) is 0 at every pair; the
        # estimate read 0 +- 0 against an analytic value of 0.53.  At
        # d = 3 the constant (2 pi eps)^{-3/2} is beyond the double range
        # first; that ended in an OverflowError traceback.
        for d, match in ((1, "underflowed"), (3, "double range")):
            ens = sample_paths_cholesky(0.5, d, make_midpoint_times(4), 4)
            with pytest.raises(AccuracyError, match=match):
                mc_local_time_regularized(ens, 1e-300)

    def test_overflowing_shifted_pair_sums_raise(self):
        # At amplitude 1e160 the drift puts |dB|^2 beyond the double
        # range, so the order-2 subtractor's r^2 term is infinite; the
        # estimate read inf +- nan.
        ens = sample_paths_whitenoise(0.5, 1, make_midpoint_times(4),
                                      WhiteNoiseGrid(n_cells=64), 4)
        f = gaussian_bump(1e160, 0.5, 0.3)
        with pytest.raises(AccuracyError, match="double range"):
            mc_s_transform(ens, f, 0.05, 2)

    def test_truncated_pair_rule_matches_per_pair_loop(self):
        # Non-uniform times: every lag has its own weights and its own
        # pair variances, so a lag/diagonal mix-up changes the value.
        times = np.array([0.0, 0.1, 0.15, 0.4, 0.7, 0.95])
        grid = WhiteNoiseGrid(x_lo=-8.0, n_cells=256)
        ens = sample_paths_whitenoise(0.7, 2, times, grid, 40)
        f = VectorTestFunction((gaussian_bump(0.6, 0.3, 0.2),
                                gaussian_bump(-0.4, 0.6, 0.3)))
        eps, n_trunc = 0.05, 2
        est = mc_s_transform(ens, f, eps, n_trunc=n_trunc)

        K, gram = _discrete_gram(ens)
        fv = np.stack([fj.eval(grid.midpoints) for fj in f])
        drift = K @ fv.T * grid.dx
        w = _voronoi_widths(times[1:])
        m = times.size - 1
        vals = []
        for p in range(ens.n_paths):
            total = 0.0
            for j in range(1, m + 1):
                for k in range(j + 1, m + 1):
                    s_jk = gram[j, j] + gram[k, k] - 2.0 * gram[k, j]
                    db = ((ens.paths[p, k] + drift[k])
                          - (ens.paths[p, j] + drift[j]))
                    r_sq = float(db @ db)
                    # The subtractor is in units of (2 pi eps)^{-d/2}.
                    phi = ((2.0 * math.pi * eps) ** -1.0
                           * (math.exp(-0.5 * r_sq / eps)
                              - _subtract(n_trunc, 2, eps, s_jk, r_sq)))
                    total += w[j - 1] * w[k - 1] * phi
            vals.append(total)
        assert est.mean == pytest.approx(np.mean(vals), rel=1e-12)
        assert est.stderr == pytest.approx(
            np.std(vals, ddof=1) / math.sqrt(len(vals)), rel=1e-12)

    def test_weighted_estimator_matches_discrete_expectation(self):
        grid = WhiteNoiseGrid(x_lo=-12.0, n_cells=768)
        times = make_midpoint_times(6)
        ens = sample_paths_whitenoise(0.5, 1, times, grid, 3000)
        f = VectorTestFunction((gaussian_bump(0.4, 0.3, 0.2),))
        eps = 0.05
        est = mc_s_transform(ens, f, eps)
        want = _discrete_transform(ens, f, eps, 0)
        assert abs(est.mean - want) < 5 * est.stderr

    def test_weighted_estimator_rough_path(self):
        grid = WhiteNoiseGrid(x_lo=-12.0, n_cells=768)
        times = make_midpoint_times(6)
        ens = sample_paths_whitenoise(0.7, 2, times, grid, 3000)
        f = VectorTestFunction((gaussian_bump(0.3, 0.2, 0.2),
                                gaussian_bump(-0.2, 0.5, 0.3)))
        eps = 0.05
        est = mc_s_transform(ens, f, eps)
        want = _discrete_transform(ens, f, eps, 0)
        assert abs(est.mean - want) < 5 * est.stderr

    @pytest.mark.parametrize("n_trunc", [1, 2])
    def test_truncated_estimator_matches_discrete_expectation(self, n_trunc):
        grid = WhiteNoiseGrid(x_lo=-12.0, n_cells=768)
        times = make_midpoint_times(6)
        ens = sample_paths_whitenoise(0.5, 1, times, grid, 3000)
        f = VectorTestFunction((gaussian_bump(0.4, 0.3, 0.2),))
        eps = 0.05
        est = mc_s_transform(ens, f, eps, n_trunc=n_trunc)
        want = _discrete_transform(ens, f, eps, n_trunc)
        assert abs(est.mean - want) < 5 * est.stderr

    @pytest.mark.parametrize("h", [0.3, 0.7])
    @pytest.mark.parametrize("n_trunc", [0, 1])
    def test_shifted_paths_close_at_large_f(self, h, n_trunc):
        # |f|_2 = 2.9: a Wick weight of this f has variance e^8.5 - 1, so
        # reweighting unshifted paths cannot meet the stderr bound; the
        # shifted paths keep the spread of the unweighted functional.
        grid = WhiteNoiseGrid(x_lo=-12.0, n_cells=768)
        ens = sample_paths_whitenoise(h, 1, make_midpoint_times(32), grid,
                                      3000)
        f = VectorTestFunction((gaussian_bump(4.0, 0.5, 0.3),))
        eps = 0.01
        est = mc_s_transform(ens, f, eps, n_trunc)
        want = _discrete_transform(ens, f, eps, n_trunc)
        assert abs(est.mean - want) < 3 * est.stderr
        assert est.stderr <= 0.03 * abs(want)

    def test_truncation_removes_deterministic_term(self):
        # Subtracting the order-0 projection shifts every path value by
        # the same pair-rule constant, so the means differ by exactly
        # the discrete deterministic term and the spread is unchanged
        # up to that shift.
        grid = WhiteNoiseGrid(x_lo=-12.0, n_cells=768)
        times = make_midpoint_times(6)
        ens = sample_paths_whitenoise(0.5, 1, times, grid, 2000)
        eps = 0.05
        f = zero_bundle(1)
        full = mc_s_transform(ens, f, eps)
        trunc = mc_s_transform(ens, f, eps, n_trunc=1)
        const = (_discrete_transform(ens, f, eps, 0)
                 - _discrete_transform(ens, f, eps, 1))
        assert full.mean - trunc.mean == pytest.approx(const, rel=1e-10)


def _subtract(n_trunc, d, eps, sigma_sq, r_sq):
    """The truncation subtractor at pair variances ``sigma_sq``, evaluated
    at r^2 = ``r_sq``, in units of (2 pi eps)^{-d/2}."""
    coeffs = _subtractor_coeffs(n_trunc, d, eps, np.asarray(sigma_sq, float))
    return _horner(coeffs, r_sq)


def _pair_variances(ens):
    """The fBm pair variances |t_k - t_j|^{2H} of the positive times, the
    matrix _pair_sums takes."""
    times = ens.times[1:]
    return np.abs(times[:, None] - times[None, :]) ** (2.0 * ens.hurst.h)


def _pair_sums_by_loop(ens, eps, n_trunc):
    """Per-path pair sums taken pair by pair, and the sums of the
    magnitudes of their terms."""
    times = ens.times[1:]
    w = _voronoi_widths(times)
    pref = (2.0 * math.pi * eps) ** (-0.5 * ens.d)
    sums, sizes = [], []
    for p in range(ens.n_paths):
        total = size = 0.0
        for j in range(times.size):
            for k in range(j + 1, times.size):
                db = ens.paths[p, k + 1] - ens.paths[p, j + 1]
                r_sq = float(db @ db)
                gauss = math.exp(-0.5 * r_sq / eps)
                sub = 0.0
                if n_trunc:
                    s_jk = (times[k] - times[j]) ** (2.0 * ens.hurst.h)
                    sub = _subtract(n_trunc, ens.d, eps, s_jk, r_sq)
                total += w[j] * w[k] * pref * (gauss - sub)
                size += w[j] * w[k] * pref * (gauss + abs(sub))
        sums.append(total)
        sizes.append(size)
    return np.array(sums), np.array(sizes)


class TestPairSums:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_trunc", [0, 1, 2])
    @pytest.mark.parametrize("grid", ["uniform", "subset"])
    def test_matches_double_loop(self, d, n_trunc, grid):
        # The subset keeps unequal cells, so every lag has its own
        # weights; 1e-13 of the terms' magnitudes allows the change of
        # summation order and nothing else.
        ens = sample_paths_cholesky(0.4, d, make_midpoint_times(16), 5,
                                    seed=d)
        if grid == "subset":
            ens = ens.restrict_times([0, 1, 2, 4, 7, 8, 12, 16])
        eps = 0.03
        got = _pair_sums(ens, eps, n_trunc, _pair_variances(ens))
        want, size = _pair_sums_by_loop(ens, eps, n_trunc)
        assert np.all(np.abs(got - want) <= 1e-13 * size)


def _hermite_subtractor(n_trunc, d, eps, sigma_sq, db):
    """Composition-sum oracle for the truncation subtractor.

    Sums (2 pi w)^{-d/2} (-1/2)^k w^{-k} prod_j He_{2 m_j}^{s}(dB_j) / m_j!
    over k < n_trunc and every half-index |m| = k, with w = eps + s and
    He_n^{s}(x) = s^(n/2) He_n(x / sqrt(s)) (x^n at s = 0).  Returns the
    sum and the largest magnitude of a single term.
    """
    w = eps + sigma_sq
    base = (2.0 * math.pi * w) ** (-0.5 * d)
    sig = np.sqrt(sigma_sq)
    safe = np.where(sig == 0.0, 1.0, sig)
    out = np.zeros(db.shape[:2])
    largest = 0.0
    for k in range(n_trunc):
        for m in itertools.product(range(k + 1), repeat=d):
            if sum(m) != k:
                continue
            term = base * (-0.5) ** k * w ** (-k) * np.ones(db.shape[:2])
            for j, mj in enumerate(m):
                coeffs = np.zeros(2 * mj + 1)
                coeffs[-1] = 1.0
                x = db[:, :, j]
                he = np.where(sig == 0.0, x ** (2 * mj),
                              safe ** (2 * mj)
                              * hermite_e.hermeval(x / safe, coeffs))
                term = term * he / math.factorial(mj)
            out += term
            largest = max(largest, float(np.max(np.abs(term))))
    return out, largest


class TestTruncationSubtractor:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_trunc", [1, 2, 3, 4])
    def test_matches_hermite_composition_sum(self, d, n_trunc):
        rng = np.random.default_rng(10 * d + n_trunc)
        sigma_sq = rng.uniform(0.0, 0.5, 40)
        sigma_sq[::7] = 0.0
        db = rng.normal(size=(5, 40, d)) * np.sqrt(sigma_sq + 0.01)[:, None]
        eps = 0.05
        pref = (2.0 * math.pi * eps) ** (-0.5 * d)
        got = pref * _subtract(n_trunc, d, eps, sigma_sq,
                               np.sum(db * db, axis=2))
        want, largest = _hermite_subtractor(n_trunc, d, eps, sigma_sq, db)
        assert np.max(np.abs(got - want)) <= 1e-10 * largest

    @pytest.mark.parametrize("n_trunc, d", [(1, 1), (2, 1), (3, 2)])
    def test_lag_subtractors_match_per_lag_construction(self, n_trunc, d):
        # Non-uniform times, so every lag has its own pair variances.
        times = np.array([0.0, 0.05, 0.1, 0.15, 0.4, 0.7, 0.72, 0.95])
        grid = WhiteNoiseGrid(x_lo=-8.0, n_cells=256)
        K = mc._kernel_matrix(Hurst(0.7), times, grid) * math.sqrt(grid.dx)
        gram = K @ K.T
        diag = np.diag(gram)[1:]
        sigma_sq = diag[:, None] + diag[None, :] - 2.0 * gram[1:, 1:]
        rng = np.random.default_rng(n_trunc)
        paths = rng.normal(0.0, 0.3, (5, times.size, d))
        paths[:, 0, :] = 0.0
        ens = PathEnsemble(hurst=0.7, times=times, paths=paths)
        eps = 0.05
        got = _pair_sums(ens, eps, n_trunc, sigma_sq)

        # _pair_sums's arithmetic on all paths at once, lag by lag, with
        # each lag's coefficients computed on its own pair variances.
        B = paths[:, 1:, :]
        m = B.shape[1]
        w = mc._cell_widths(times[1:])
        vals = np.zeros(ens.n_paths)
        for lag in range(1, m):
            diff = B[:, lag:, :] - B[:, :-lag, :]
            sq = np.ascontiguousarray(np.square(diff[:, :, 0]).T)
            for c in range(1, d):
                sq += np.square(diff[:, :, c]).T
            coeffs = _subtractor_coeffs(n_trunc, d, eps,
                                        sigma_sq.diagonal(-lag)[:, None])
            poly = _horner(coeffs, sq)
            w_lag = w[:-lag] * w[lag:]
            vals += (np.einsum("ji,j->i", np.exp(sq * (-0.5 / eps)), w_lag)
                     - np.einsum("ji,j->i", poly, w_lag))
        want = (2.0 * math.pi * eps) ** (-0.5 * d) * vals
        assert np.array_equal(got, want)

    def test_truncated_estimator_imports_no_scipy(self):
        # Importing scipy costs more than the whole Monte Carlo setup.
        code = (
            "import sys\n"
            "from loctime.mc import (WhiteNoiseGrid, make_midpoint_times,\n"
            "                        mc_s_transform, sample_paths_whitenoise)\n"
            "from loctime.testfunctions import hermite_bundle\n"
            "ens = sample_paths_whitenoise(0.6, 2, make_midpoint_times(8),\n"
            "                              WhiteNoiseGrid(n_cells=256), 64)\n"
            "mc_s_transform(ens, hermite_bundle((0, 1)).scaled(0.5), 0.05,\n"
            "               n_trunc=2)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestGridBias:
    def test_richardson_factor(self):
        est1, est2, bias = mc_grid_bias(0.5, 1, 0.05, 8, 1200)
        assert est1.n_samples == 1200
        assert est2.n_samples == 1200
        assert bias == pytest.approx(2.0 * abs(est1.mean - est2.mean),
                                     rel=1e-12)

    def test_rough_rate_is_slower(self):
        est1, est2, bias = mc_grid_bias(0.3, 1, 0.05, 8, 800)
        gap = abs(est1.mean - est2.mean)
        assert bias == pytest.approx(gap / (1.0 - 2.0 ** -0.6), rel=1e-12)
        assert bias > gap

    def test_whitenoise_generator_path(self):
        grid = WhiteNoiseGrid(n_cells=256)
        est1, est2, bias = mc_grid_bias(0.5, 1, 0.1, 4, 600,
                                        grid=grid, generator="whitenoise")
        assert est1.n_samples == 600
        assert bias >= 0.0

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            mc_grid_bias(0.5, 1, 0.05, 4, 100, generator="euler")

    def test_non_finite_eps_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("paths sampled for a bad eps")

        monkeypatch.setattr(mc, "sample_paths_cholesky", no_sampling)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                mc_grid_bias(0.5, 1, bad, 4, 100)

    def test_bias_shrinks_with_refinement(self):
        _, _, coarse = mc_grid_bias(0.5, 1, 0.05, 4, 4000)
        _, _, fine = mc_grid_bias(0.5, 1, 0.05, 32, 4000)
        assert fine < coarse


THREAD_COUNTS = (1, 2, 3, None)
# (TILE_BYTES, TILE_FLOOR): the defaults, under which the calls below
# split into tiles only on two or more threads, and pair-sum tiles of
# 16 KiB (10 to 292 rows) with no floor on the samplers' thread shares.
TILE_SETTINGS = ((mc.TILE_BYTES, mc.TILE_FLOOR), (1 << 14, 1))


@pytest.fixture(params=TILE_SETTINGS, ids=("default_tiles", "tiny_tiles"))
def tiles(request, monkeypatch):
    monkeypatch.setattr(mc, "TILE_BYTES", request.param[0])
    monkeypatch.setattr(mc, "TILE_FLOOR", request.param[1])


def _pair_sums_across_threads(d):
    # 1,100 paths: a multiple of neither BLOCK nor any tile size.
    ens = sample_paths_cholesky(0.4, d, make_midpoint_times(64), 1100,
                                n_threads=1)
    sub = ens.restrict_times(np.arange(0, 65, 2))
    ref = [_pair_sums(e, 0.03, n_threads=1) for e in (ens, sub)]
    for n in THREAD_COUNTS:
        for e, want in zip((ens, sub), ref):
            assert np.array_equal(_pair_sums(e, 0.03, n_threads=n), want)
    # A path alone makes a one-path tile.
    for e, want in zip((ens, sub), ref):
        for p in (0, 537, 1099):
            alone = PathEnsemble(hurst=e.hurst, times=e.times,
                                 paths=e.paths[p:p + 1])
            assert _pair_sums(alone, 0.03)[0] == want[p]


def _s_transform_across_threads(d, n_trunc):
    grid = WhiteNoiseGrid(n_cells=128, seed=4)
    ens = sample_paths_whitenoise(0.6, d, make_midpoint_times(48), grid,
                                  700, n_threads=1)
    bumps = ((0.4, 0.3, 0.3), (0.2, 0.6, 0.3), (-0.3, 0.5, 0.25))
    f = VectorTestFunction(tuple(gaussian_bump(*b) for b in bumps[:d]))
    sub = ens.restrict_times([0, 2, 3, 5, 8, 12, 30, 48])
    for e in (ens, sub):
        ref = mc_s_transform(e, f, 0.05, n_trunc, n_threads=1)
        for n in THREAD_COUNTS:
            assert mc_s_transform(e, f, 0.05, n_trunc, n_threads=n) == ref


class TestRowTiles:
    """Every Monte Carlo output is the same for any tiling and threads."""

    def test_pair_sums_identical_across_threads(self, tiles):
        _pair_sums_across_threads(2)

    @pytest.mark.parametrize("d", [1, 3])
    def test_pair_sums_identical_across_threads_in_d(self, tiles, d):
        _pair_sums_across_threads(d)

    def test_truncated_s_transform_identical_across_threads(self, tiles):
        _s_transform_across_threads(2, 1)

    @pytest.mark.parametrize("d", [1, 3])
    def test_second_order_s_transform_identical_across_threads(self, tiles,
                                                               d):
        _s_transform_across_threads(d, 2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_samplers_identical_within_one_block(self, tiles, d):
        # At most one RNG block, so only the row tiles inside it differ.
        times = make_midpoint_times(128)
        grid = WhiteNoiseGrid(n_cells=256, seed=2)
        for n_paths in (BLOCK, 301):
            chol = sample_paths_cholesky(0.3, d, times, n_paths, n_threads=1)
            wn = sample_paths_whitenoise(0.7, d, times, grid, n_paths,
                                         n_threads=1)
            for n in THREAD_COUNTS:
                assert np.array_equal(
                    sample_paths_cholesky(0.3, d, times, n_paths,
                                          n_threads=n).paths, chol.paths)
                assert np.array_equal(
                    sample_paths_whitenoise(0.7, d, times, grid, n_paths,
                                            n_threads=n).paths, wn.paths)

    def test_identical_across_threads_with_one_blas_thread(self):
        # perfbench pins OpenBLAS to one thread; the suite otherwise runs
        # with OpenBLAS unpinned.
        code = (
            "import hashlib\n"
            "from loctime.mc import (WhiteNoiseGrid, make_midpoint_times,\n"
            "                        mc_s_transform, sample_paths_cholesky,\n"
            "                        sample_paths_whitenoise)\n"
            "from loctime.testfunctions import gaussian_bump\n"
            "times = make_midpoint_times(64)\n"
            "wn = sample_paths_whitenoise(0.7, 1, times,\n"
            "                             WhiteNoiseGrid(n_cells=256), 600)\n"
            "f = gaussian_bump(0.3, 0.4, 0.3)\n"
            "for n in (1, 3):\n"
            "    chol = sample_paths_cholesky(0.3, 2, times, 1100,\n"
            "                                 n_threads=n)\n"
            "    est = mc_s_transform(wn, f, 0.05, 1, n_threads=n)\n"
            "    print(hashlib.sha256(chol.paths.tobytes()).hexdigest(),\n"
            "          est.mean.hex(), est.stderr.hex())\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        one, three = proc.stdout.splitlines()
        assert one == three

    def test_small_calls_start_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        times = make_midpoint_times(16)
        grid = WhiteNoiseGrid(n_cells=64)
        f = VectorTestFunction((gaussian_bump(0.3, 0.5, 0.3),))
        ens = sample_paths_cholesky(0.5, 1, times, 8, n_threads=4)
        mc_local_time_regularized(ens, 0.05, n_threads=4)
        wn = sample_paths_whitenoise(0.7, 1, times, grid, 8, n_threads=4)
        mc_s_transform(wn, f, 0.05, 1, n_threads=4)
        mc_grid_bias(0.5, 1, 0.05, 8, 8, n_threads=4)

    def test_thread_count_validation(self, monkeypatch):
        monkeypatch.delenv("LOCTIME_THREADS", raising=False)
        assert 1 <= resolve_threads() <= 4
        assert resolve_threads(3) == 3
        assert resolve_threads(2.0) == 2
        ens = sample_paths_cholesky(0.5, 1, make_midpoint_times(4), 8)
        for bad in ("2", 0, -3, 2.5):
            with pytest.raises(ConfigError, match="n_threads"):
                mc_local_time_regularized(ens, 0.05, n_threads=bad)
        monkeypatch.setenv("LOCTIME_THREADS", "3")
        assert resolve_threads() == 3
        for bad in ("abc", "0", "-2", "2.5"):
            monkeypatch.setenv("LOCTIME_THREADS", bad)
            with pytest.raises(ConfigError, match="LOCTIME_THREADS"):
                mc_local_time_regularized(ens, 0.05)


class TestErrorScaling:
    def test_stderr_scales_as_inverse_sqrt(self):
        times = make_midpoint_times(16)
        eps = 0.05
        n1, n2 = 400, 4000
        se1 = mc_local_time_regularized(
            sample_paths_cholesky(0.5, 1, times, n1), eps).stderr
        se2 = mc_local_time_regularized(
            sample_paths_cholesky(0.5, 1, times, n2), eps).stderr
        slope = math.log(se1 / se2) / math.log(n2 / n1)
        assert 0.4 < slope < 0.6
