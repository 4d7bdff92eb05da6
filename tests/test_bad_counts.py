"""Property test: every count or order argument refuses what is not an
integer in its range with ``ConfigError``, before any heavy work."""

import dataclasses
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from loctime.errors import ConfigError
from loctime.fracops import Interval, bound_ratio, dual_apply, pairing_indicator
from loctime.kernels import kernel_value, series_reconstruction
from loctime.mc import (PathEnsemble, WhiteNoiseGrid, fbm_covariance,
                        make_midpoint_times, mc_local_time_regularized,
                        mc_s_transform, mc_weight_check, resolve_threads,
                        sample_paths_cholesky, sample_paths_whitenoise)
from loctime.quadrature import (divergence_probe, integrate_interval,
                                triangle_power_moment)
from loctime.stransform import (DeltaSpec, admissibility, exp_truncated,
                                s_char_exp, s_delta, s_local_time,
                                u_estimate_check)
from loctime.testfunctions import (VectorTestFunction, gaussian_bump,
                                   hermite_function, linear_combination)

TIMES = make_midpoint_times(4)
GRID = WhiteNoiseGrid(n_cells=64)
SPEC = DeltaSpec(0.5, 1, 1)
BUMP = gaussian_bump(0.5, 0.45, 0.2)
PATHS = np.zeros((2, TIMES.size, 1))
ENSEMBLE = PathEnsemble(hurst=0.5, times=TIMES, paths=PATHS)


def _ones(t1, tau):
    return np.ones_like(t1)

# (argument, smallest valid value, call with the value in its place)
COUNTS = [
    ("admissibility d", 1, lambda v: admissibility(0.5, v, 0)),
    ("admissibility N", 0, lambda v: admissibility(0.5, 1, v)),
    ("exp_truncated n", 0, lambda v: exp_truncated(0.5, v)),
    ("kernel index entry", 0,
     lambda v: kernel_value(0.5, (v,), ((0.25, 0.75),))),
    ("max_order", SPEC.n_trunc, lambda v: series_reconstruction(SPEC, BUMP, v)),
    ("make_midpoint_times m", 1, make_midpoint_times),
    ("whitenoise d", 1,
     lambda v: sample_paths_whitenoise(0.5, v, TIMES, GRID, 4)),
    ("whitenoise n_paths", 1,
     lambda v: sample_paths_whitenoise(0.5, 1, TIMES, GRID, v)),
    ("cholesky d", 1, lambda v: sample_paths_cholesky(0.5, v, TIMES, 4)),
    ("cholesky n_paths", 1, lambda v: sample_paths_cholesky(0.5, 1, TIMES, v)),
    ("resolve_threads", 1, resolve_threads),
    ("WhiteNoiseGrid n_cells", 8, lambda v: WhiteNoiseGrid(n_cells=v)),
]


def not_a_count(least):
    """Non-integers, NaN, +-inf, strings, booleans and integers below
    ``least``."""
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats().filter(lambda x: not (x >= least and x.is_integer())),
        st.text(),
        st.booleans(),
        st.integers(max_value=least - 1))


@pytest.mark.parametrize("least, call", [c[1:] for c in COUNTS],
                         ids=[c[0] for c in COUNTS])
def test_bad_count_is_a_config_error(least, call):
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(not_a_count(least))
    def check(value):
        with pytest.raises(ConfigError):
            call(value)

    check()


# Each of these ended in a ValueError, TypeError or OverflowError
# traceback, or (the NaN grid) in a NaN ensemble without an error.
BAD_VALUES = [
    ("cholesky seed", lambda: sample_paths_cholesky(0.5, 1, TIMES, 4,
                                                    seed=-1)),
    ("WhiteNoiseGrid seed", lambda: WhiteNoiseGrid(seed=-1)),
    ("cholesky stream", lambda: sample_paths_cholesky(0.5, 1, TIMES, 4,
                                                      stream=1.5)),
    ("whitenoise stream",
     lambda: sample_paths_whitenoise(0.5, 1, TIMES, GRID, 4, stream=1.5)),
    ("hermite_function float", lambda: hermite_function(1.5)),
    ("hermite_function string", lambda: hermite_function("2")),
    ("NaN time grid",
     lambda: sample_paths_cholesky(0.5, 1, [0.0, math.nan], 4)),
    ("integrate_interval tol", lambda: integrate_interval(
        lambda x: x, 0.0, 1.0, tol="x")),
    ("triangle_power_moment alpha", lambda: triangle_power_moment("x")),
    ("fbm_covariance time", lambda: fbm_covariance(0.5, "a", 0.2)),
    ("DeltaSpec eps beyond the double range",
     lambda: DeltaSpec(0.5, 1, 0, 10**400)),
    ("gaussian_bump amplitude", lambda: gaussian_bump("x")),
    ("WhiteNoiseGrid x_lo string", lambda: WhiteNoiseGrid(x_lo="a")),
    ("WhiteNoiseGrid x_lo -inf", lambda: WhiteNoiseGrid(x_lo=-math.inf)),
    ("pairing_indicator interval end string",
     lambda: pairing_indicator(0.5, BUMP, ("a", 1.0))),
    ("pairing_indicator interval of one end",
     lambda: pairing_indicator(0.5, BUMP, (0.2,))),
    ("bound_ratio interval strings",
     lambda: bound_ratio(0.5, BUMP, ("a", "b"))),
    ("s_char_exp lambda string",
     lambda: s_char_exp(0.5, ["a"], 0.2, 0.5, BUMP)),
    ("divergence_probe cutoff string",
     lambda: divergence_probe(0.5, _ones, ["a"])),
    ("linear_combination coefficient string",
     lambda: linear_combination(["a"], [BUMP])),
    ("u_estimate_check z string",
     lambda: u_estimate_check(SPEC, BUMP, [1.0, "a"])),
    ("s_delta time string", lambda: s_delta(SPEC, "a", 0.5, BUMP)),
    ("dual_apply negative tol", lambda: dual_apply(0.3, BUMP, 0.5, tol=-1)),
    ("s_local_time tol string", lambda: s_local_time(SPEC, BUMP, tol="x")),
    # These returned inf, NaN or (nan+nanj) without an error.
    ("Interval infinite ends", lambda: Interval(-math.inf, math.inf)),
    ("pairing_indicator infinite interval end",
     lambda: pairing_indicator(0.7, BUMP, (0.2, math.inf))),
    ("bound_ratio infinite interval end",
     lambda: bound_ratio(0.7, BUMP, (0.2, math.inf))),
    ("s_char_exp lambda NaN",
     lambda: s_char_exp(0.5, [math.nan], 0.2, 0.5, BUMP)),
    ("dual_apply point NaN", lambda: dual_apply(0.7, BUMP, math.nan)),
    # PathEnsemble kept a float H (the S-transform estimator then ended
    # in AttributeError) and a list of paths (AttributeError at once);
    # restrict_times ended in IndexError, or truncated 1.7 to 1.
    ("PathEnsemble Hurst parameter",
     lambda: PathEnsemble(hurst=1.5, times=TIMES, paths=PATHS)),
    ("PathEnsemble paths of strings",
     lambda: PathEnsemble(hurst=0.5, times=TIMES[:2],
                          paths=[[[0.0], ["a"]]])),
    ("restrict_times index out of range",
     lambda: ENSEMBLE.restrict_times([0, 9])),
    ("restrict_times fractional index",
     lambda: ENSEMBLE.restrict_times([0, 1.7, 2.2])),
    # A string stream or grid was kept until the weight check ended in
    # ValueError or AttributeError; a string tol ended in TypeError.
    ("PathEnsemble stream string",
     lambda: PathEnsemble(hurst=0.5, times=TIMES, paths=PATHS, stream="a")),
    ("PathEnsemble grid string",
     lambda: PathEnsemble(hurst=0.5, times=TIMES, paths=PATHS, grid="g")),
    ("divergence_probe tol string",
     lambda: divergence_probe(0.5, _ones, [0.1], tol="x")),
    # Arguments of the wrong type ended in AttributeError, TypeError or
    # ValueError, or (a vector f for dual_apply, a string component) were
    # taken.
    ("whitenoise grid None",
     lambda: sample_paths_whitenoise(0.5, 1, TIMES, None, 4)),
    ("whitenoise grid string",
     lambda: sample_paths_whitenoise(0.5, 1, TIMES, "g", 4)),
    ("mc_local_time_regularized ensemble string",
     lambda: mc_local_time_regularized("x", 0.1)),
    ("mc_s_transform ensemble string",
     lambda: mc_s_transform("x", BUMP, 0.1)),
    ("mc_weight_check ensemble string", lambda: mc_weight_check("x", BUMP)),
    ("s_local_time spec tuple",
     lambda: s_local_time((0.5, 1, 0, 0.0), BUMP)),
    ("series_reconstruction spec tuple",
     lambda: series_reconstruction((0.5, 1, 0, 0.0), BUMP, 3)),
    ("u_estimate_check z number", lambda: u_estimate_check(SPEC, BUMP, 5)),
    ("divergence_probe cutoff number",
     lambda: divergence_probe(0.5, _ones, 5)),
    ("dual_apply f string", lambda: dual_apply(0.3, "f", 0.1)),
    ("dual_apply vector f",
     lambda: dual_apply(0.3, VectorTestFunction((BUMP,)), 0.1)),
    ("linear_combination function string",
     lambda: linear_combination([1.0], ["x"])),
    ("VectorTestFunction component string",
     lambda: VectorTestFunction(("x",))),
    ("exp_truncated x string", lambda: exp_truncated("a", 1)),
    ("integrate_interval args of another length",
     lambda: integrate_interval(lambda x, k: x, np.zeros(3), np.ones(3),
                                tol=1e-9, args=(np.ones(2),))),
    # A zero sup|f| under a positive sup|f'| gave the dual operator no
    # panel length.
    ("dual_apply norms with no ratio",
     lambda: dual_apply(0.3, dataclasses.replace(BUMP, sup_norm=0.0), 0.1)),
]

# Bad time grids; each ended in an IndexError, ZeroDivisionError or
# ValueError traceback, or (negative times) in a RuntimeWarning first.
BAD_TIME_GRIDS = [
    ("empty", []),
    ("zero alone", [0.0]),
    ("2-D", [[0.0, 0.5]]),
    ("strings", ["0", "a"]),
    ("negative", [0.0, -0.5, -0.25]),
    ("ragged", [0.0, [0.5, 1.0]]),
]
BAD_VALUES += [
    (f"{name} {grid_name} time grid", functools.partial(call, grid))
    for grid_name, grid in BAD_TIME_GRIDS
    for name, call in (
        ("cholesky", lambda t: sample_paths_cholesky(0.5, 1, t, 4)),
        ("whitenoise", lambda t: sample_paths_whitenoise(0.5, 1, t, GRID, 4)))]


@pytest.mark.parametrize("call", [c[1] for c in BAD_VALUES],
                         ids=[c[0] for c in BAD_VALUES])
def test_bad_value_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()


def _holey(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x - 0.3) < 0.01, math.nan, BUMP.eval(x))


# BUMP but NaN on |x - 0.3| < 0.01.  These ended in AccuracyError, in
# ValueError, in an unrelated ConfigError, or in a nan +- nan estimate.
HOLEY = dataclasses.replace(BUMP, eval=_holey, label="holey")
WN = sample_paths_whitenoise(0.7, 1, TIMES, WhiteNoiseGrid(), 8)
NON_FINITE_F = [
    ("s_local_time eps 0", lambda: s_local_time(SPEC, HOLEY)),
    ("s_local_time eps 0.01",
     lambda: s_local_time(DeltaSpec(0.5, 1, 1, 0.01), HOLEY)),
    ("series_reconstruction",
     lambda: series_reconstruction(SPEC, HOLEY, 3)),
    ("mc_s_transform", lambda: mc_s_transform(WN, HOLEY, 0.05, 1)),
    ("mc_weight_check", lambda: mc_weight_check(WN, HOLEY)),
]


@pytest.mark.parametrize("call", [c[1] for c in NON_FINITE_F],
                         ids=[c[0] for c in NON_FINITE_F])
def test_non_finite_test_function_is_a_config_error(call):
    with pytest.raises(ConfigError, match="test function holey"):
        call()
