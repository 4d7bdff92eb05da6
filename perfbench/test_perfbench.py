"""Tests of the benchmark itself: checks, failure accounting, tracer, oracles.

    python3 -m pytest perfbench/test_perfbench.py -q

Not part of the library's test suite (``testpaths`` names ``tests``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import run

run.use_checkout_src()

import loctime as L  # noqa: E402
import oracles as O  # noqa: E402
import workloads  # noqa: E402
from checks import close, honest, identical, within_sigma, Z_MC  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return run.load_references()


# ---------------------------------------------------------------------------
# Each check rejects a value moved by 10x its allowance.


def test_close_and_honest_reject_ten_allowances():
    assert close("c", 1.0 + 0.5e-9, 1.0, 1e-9).ok
    assert not close("c", 1.0 + 1e-8, 1.0, 1e-9).ok
    assert not close("c", math.nan, 1.0, 1e-9).ok
    ok = honest("h", 2.0 + 1e-10, 1e-9, 2.0, 1e-15)
    assert ok.ok and ok.honesty == pytest.approx(0.1)
    assert not honest("h", 2.0 + 10 * (1e-9 + 1e-15), 1e-9, 2.0, 1e-15).ok


def test_within_sigma_rejects_ten_allowances():
    assert within_sigma("m", 1.0 + 5.0 * 0.01, 0.01, 1.0).ok
    assert not within_sigma("m", 1.0 + 10 * Z_MC * 0.01, 0.01, 1.0).ok
    # a degenerate sample (every weight underflowed) is never accepted
    assert not within_sigma("m", 0.0, 0.0, 0.0).ok


def test_identical_rejects_one_ulp():
    est = L.McEstimate(0.25, 0.01, 512)
    assert identical("t", est, L.McEstimate(0.25, 0.01, 512)).ok
    moved = dataclasses.replace(est, mean=math.nextafter(0.25, 1.0))
    assert not identical("t", moved, est).ok
    a = np.arange(6.0)
    b = a.copy()
    b[3] = math.nextafter(3.0, 4.0)
    assert not identical("t", a, b).ok


def _moved(value, amount):
    if isinstance(value, float):
        return value + amount
    if isinstance(value, L.QuadratureResult):
        return dataclasses.replace(value, value=value.value + amount)
    if isinstance(value, L.McEstimate):
        return dataclasses.replace(value, mean=value.mean + amount)
    raise TypeError(type(value))


def _pick(wl, prefix):
    return next(op for op in wl.ops if op.name.startswith(prefix))


@pytest.mark.parametrize("workload,prefixes", [
    ("stransform_sweep", ["s_local_time f=0 H=0.0", "s_local_time f=0 H=0.5 d=1"]),
    ("chaos_kernels", ["kernel_value H=0.5 (1,) coincident",
                       "kernel_value_regularized",
                       "kernel_value H=0.5 (1,) u=(0.25"]),
    ("mc_closure", ["sample_paths_whitenoise", "mc_weight_check"]),
])
def test_workload_checks_reject_moved_values(refs, workload, prefixes):
    wl = workloads.build(workload, 3, refs)
    results = {}
    for op in wl.ops:
        if not any(op.name.startswith(p) for p in prefixes):
            continue
        value = op.run(results)
        results[op.name] = value
        checks = op.check(value, results)
        assert checks and all(c.ok for c in checks), checks
        if isinstance(value, L.PathEnsemble):
            continue
        allowance = max(c.allowance for c in checks)
        for sign in (1.0, -1.0):
            moved = op.check(_moved(value, sign * 10.0 * allowance), results)
            assert not all(c.ok for c in moved), op.name


def test_thread_check_rejects_a_different_estimate(refs):
    wl = workloads.build("mc_closure", 0, refs)
    op = _pick(wl, "mc_local_time_regularized H=0.3 d=1 cholesky threads=2")
    one = L.McEstimate(0.5, 0.01, 1024)
    results = {"mc_local_time_regularized H=0.3 d=1 cholesky": one}
    assert all(c.ok for c in op.check(one, results))
    moved = dataclasses.replace(one, stderr=math.nextafter(0.01, 1.0))
    assert not any(c.ok for c in op.check(moved, results))


# ---------------------------------------------------------------------------
# Failed operations are counted and the round runs to its end.


def test_raising_operation_is_counted_and_run_continues(capsys):
    calls = []

    def boom(r):
        raise L.AccuracyError("stalled", value=0.0, error_estimate=1.0)

    ops = [workloads.Op("first", lambda r: calls.append(1) or 1.0,
                        lambda v, r: [close("first", v, 1.0, 0.0)]),
           workloads.Op("boom", boom, lambda v, r: []),
           workloads.Op("needs boom", lambda r: r["boom"], lambda v, r: []),
           workloads.Op("last", lambda r: calls.append(2) or 2.0,
                        lambda v, r: [close("last", v, 2.0, 0.0)])]
    rounds = run.run_rounds(ops, 0.0)
    assert calls == [1, 2]
    summary = run.summarize(workloads.Workload("toy", ops, None), rounds, [])
    assert summary == {"correct": True, "attempted": 4, "failed": 2}
    out = capsys.readouterr().out
    assert "failed operation: boom: AccuracyError" in out


def test_raising_check_marks_the_run_incorrect():
    def broken(v, r):
        raise KeyError("reference")

    ops = [workloads.Op("x", lambda r: 1.0, broken)]
    rounds = run.run_rounds(ops, 0.0)
    toy = workloads.Workload("toy", ops, None)
    assert not run.summarize(toy, rounds, [])["correct"]


def test_known_fault_counts_as_failed_operation():
    ops = [workloads.Op("stalls", lambda r: 1.5,
                        lambda v, r: [close("stalls", v, 1.0, 0.1)],
                        known_fault="misses its tolerance"),
           workloads.Op("fine", lambda r: 1.0,
                        lambda v, r: [close("fine", v, 1.0, 0.1)],
                        known_fault="misses its tolerance")]
    rounds = run.run_rounds(ops, 0.0, min_rounds=2)
    summary = run.summarize(workloads.Workload("toy", ops, None), rounds, [])
    assert summary == {"correct": True, "attempted": 4, "failed": 2}


# ---------------------------------------------------------------------------
# Tracer


def test_tracer_counts_and_leaves_values_and_bindings_alone():
    spec = L.DeltaSpec(0.5, 1, 0, 1e-2)
    f = L.gaussian_bump(0.5, 0.45, 0.2)
    plain = L.s_local_time(spec, f, tol=1e-8)
    originals = (L.s_local_time, L.stransform.integrate_triangle_singular,
                 L.quadrature.integrate_interval, L.PairingTable.v_tau)
    tracer = Tracer()
    tracer.install()
    try:
        traced = L.s_local_time(spec, f, tol=1e-8)
    finally:
        tracer.uninstall()
    assert identical("traced", traced, plain).ok
    assert (L.s_local_time, L.stransform.integrate_triangle_singular,
            L.quadrature.integrate_interval, L.PairingTable.v_tau) == originals
    assert not tracer.missing
    m = tracer.layer_metrics()
    assert set(m) == {name for name, _ in LAYER_METRICS}
    assert m["stransform.s_local_time_calls"] == 1
    assert m["quadrature.triangle_calls"] == 1
    assert m["quadrature.triangle_evals"] == traced.evaluations
    assert m["quadrature.interval_calls"] > 1
    assert m["fracops.pairing_table_builds"] == 1
    assert m["fracops.pairing_points"] >= traced.evaluations
    assert m["stransform.exp_truncated_points"] >= traced.evaluations
    assert 0.0 < m["quadrature.outer_self_s"] < m["quadrature.triangle_s"]
    assert m["mc.estimator_s"] == 0.0 and m["mc.pair_evals"] == 0


def test_tracer_counts_pair_evaluations():
    times = O.midpoint_times(32)
    tracer = Tracer()
    tracer.install()
    try:
        ens = L.sample_paths_cholesky(0.5, 1, times, 40, seed=1)
        L.mc_local_time_regularized(ens, 0.01)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["mc.cholesky_paths"] == 40
    assert m["mc.pair_evals"] == 40 * 32 * 31 // 2
    assert m["mc.pair_ns_per_eval"] > 0.0


# ---------------------------------------------------------------------------
# Oracles


def test_half_kernel_matches_square_root_form():
    m, big = 0.25, 0.75
    want = -0.5 * O.TWO_PI ** -0.5 * 4.0 * (
        math.sqrt(big) - math.sqrt(big - m) - 1.0 + math.sqrt(1.0 - m))
    assert O.half_kernel((1,), ((m, big),)) == pytest.approx(want, rel=1e-14)
    assert O.half_kernel((1,), ((0.3, 0.3),)) == pytest.approx(
        -0.3066929292464, abs=1e-12)
    # eps -> 0 continuity of the regularized form
    assert O.half_kernel((1,), ((m, big),), 1e-12) == pytest.approx(
        want, rel=1e-5)


def test_kernel_scale_and_moment():
    assert O.kernel_scale(0.5) == pytest.approx(1.0, rel=1e-15)
    for h in (0.3, 0.75):
        assert O.kernel_scale(h) == pytest.approx(
            L.normalization_constant(h) / math.gamma(h + 0.5), rel=1e-10)
    assert O.moment_f0(0.5, 1) == pytest.approx(
        O.TWO_PI ** -0.5 * L.triangle_power_moment(0.5), rel=1e-15)


def test_exp_tail_matches_direct_sums():
    x = np.array([-30.0, -2.0, -0.3, -1e-9, 0.0, 0.5, 3.0])
    assert np.allclose(O.exp_tail(x, 0), np.exp(x), rtol=1e-15, atol=0)
    assert np.allclose(O.exp_tail(x, 1), np.expm1(x), rtol=1e-14, atol=0)
    direct = np.exp(x) - 1.0 - x
    far = np.abs(x) > 0.1
    assert np.allclose(O.exp_tail(x, 2)[far], direct[far], rtol=1e-12)
    assert O.exp_tail(np.array([-1e-9]), 2)[0] == pytest.approx(0.5e-18,
                                                                rel=1e-8)


def test_repeat_check_flags_a_changed_value():
    def rnd(fp):
        return run.Round(1.0, [1.0], [1.0], None, [], fingerprints={"x": fp})

    first = rnd((1.0).hex())
    assert run.repeat_checks([rnd((1.0).hex())], first, "repeat") == []
    moved = rnd(math.nextafter(1.0, 2.0).hex())
    assert len(run.repeat_checks([moved], first, "repeat")) == 1
