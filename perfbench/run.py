"""loctime benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; loctime is imported from its
``src`` directory and from nowhere else.  The run repeats whole rounds
of the workload's operations until the next round would end after S
seconds, checks every value, and prints one JSON object as its last
line of output:

* ``--trace 0``: setup_s, wall_s, op_p50_s and peak_rss_mib, times at
  the reference speed (see ``reference_seconds``);
* ``--trace 1``: one untraced round, then traced rounds, and the
  per-layer metrics of ``tracer.LAYER_METRICS`` (counts per round, times
  as the median over traced rounds).

Diagnostic lines (failed operations and checks, the worst ratio of true
to reported error, tracing overhead) come before the JSON line.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so only loctime's own
# n_threads varies between operations.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Modules that load numpy (checks, workloads, tracer) are imported inside
# functions, so that a set-up probe's clock covers the numpy import too.
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 3
# Median of reference_seconds() on the 2-CPU machine the bounds were set
# on; times are reported at this reference speed (see reference_seconds).
REFERENCE_S = 0.0027


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on sys.path, or stop the run."""
    if not (SRC / "loctime" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no loctime sources at {SRC}")
    sys.path.insert(0, str(SRC))


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text())["references"]


def set_up(workload: str, seed: int):
    """Import loctime, build the inputs, make one warm-up call."""
    import workloads

    wl = workloads.build(workload, seed, load_references())
    wl.warm_up()
    return wl


def _reference_once(np, x) -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(240):
        acc += float(np.exp(-0.01 * k * x[:48]).sum())
    total = 0
    for i in range(12000):
        total += i * i
    acc += float(np.sum(np.exp(-x) * x))
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Time of a fixed computation that does not use loctime.

    Small numpy calls in a Python loop (the shape of the quadrature's
    work), interpreter arithmetic and one vector pass; median of three
    runs of about 3 ms.  On a shared host the speed of the same code
    drifts by up to 30 % for a minute at a time; an operation's time
    times REFERENCE_S / (reference time around it) cancels that drift.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 1 << 15)
    return statistics.median(_reference_once(np, x) for _ in range(3))


def at_reference_speed(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, imports included, at the
    reference speed measured right after it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr[-2000:]}")
    seconds, reference = map(float, out.stdout.split()[-2:])
    return at_reference_speed(seconds, reference)


@dataclass
class Round:
    seconds: float               # reference runs included
    op_seconds: list[float]      # one per operation, failed ones included
    op_reference: list[float]    # reference time around each operation
    values: dict
    failures: list[str]
    checks: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)

    @property
    def op_calibrated(self) -> list[float]:
        return [at_reference_speed(t, r)
                for t, r in zip(self.op_seconds, self.op_reference)]


def run_round(ops) -> Round:
    """Time each operation; an operation that raises counts as failed."""
    values, failures, op_seconds = {}, [], []
    start = time.perf_counter()
    refs = [reference_seconds()]
    for op in ops:
        t0 = time.perf_counter()
        try:
            values[op.name] = op.run(values)
        except Exception as exc:  # noqa: BLE001 - a failed op must not end the run
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        op_seconds.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
    op_reference = [0.5 * (a + b) for a, b in zip(refs[:-1], refs[1:])]
    return Round(time.perf_counter() - start, op_seconds, op_reference,
                 values, failures)


def check_round(ops, rnd: Round) -> None:
    """Check every value.  A failed check of an operation with a known
    fault counts that operation as failed instead of the run as wrong."""
    from checks import Check

    for op in ops:
        if op.name not in rnd.values:
            continue
        try:
            checks = op.check(rnd.values[op.name], rnd.values)
        except Exception as exc:  # noqa: BLE001 - a broken check is a failed check
            checks = [Check(f"{op.name} check raised "
                            f"{type(exc).__name__}: {exc}",
                            False, math.inf, 0.0)]
        if op.known_fault and not all(c.ok for c in checks):
            rnd.failures.append(f"{op.name}: known fault: {op.known_fault}")
        else:
            rnd.checks.extend(checks)


def run_rounds(ops, seconds: float, elapsed: float = 0.0, before=None,
               after=None, min_rounds: int = 1) -> list[Round]:
    """Whole rounds until the next one would end after ``seconds``."""
    rounds = []
    start = time.perf_counter() - elapsed
    while True:
        if before:
            before()
        rnd = run_round(ops)
        if after:
            after(rnd)
        check_round(ops, rnd)
        rnd.fingerprints = _fingerprints(rnd.values)
        rnd.values = None  # drop path ensembles before the next round
        rounds.append(rnd)
        typical = statistics.median(r.seconds for r in rounds)
        if (len(rounds) >= min_rounds
                and time.perf_counter() - start + typical > seconds):
            return rounds


def _fingerprints(values: dict) -> dict:
    from checks import fingerprint

    return {name: fingerprint(v) for name, v in values.items()}


def repeat_checks(rounds: list[Round], reference: Round, label: str):
    """Failed checks for values not bit-identical to the reference round's."""
    from checks import Check

    return [Check(f"{label} round {i}: {name}", False, math.inf, 0.0)
            for i, rnd in enumerate(rounds)
            for name, fp in rnd.fingerprints.items()
            if fp != reference.fingerprints.get(name, fp)]


def op_medians(rounds: list[Round], calibrated: bool = True) -> list[float]:
    """Median time of each operation over the rounds."""
    return [statistics.median(times) for times in zip(
        *(r.op_calibrated if calibrated else r.op_seconds for r in rounds))]


def summarize(wl, rounds: list[Round], extra_checks) -> dict:
    checks = [c for r in rounds for c in r.checks] + list(extra_checks)
    for failure in rounds[0].failures:
        print(f"failed operation: {failure}")
    bad = [c for c in checks if not c.ok]
    for c in bad[:20]:
        print(c.describe())
    ratios = [c.honesty for c in checks if c.honesty is not None]
    if ratios:
        print(f"{wl.name}: worst true/reported error ratio "
              f"{max(ratios):.3g} over {len(ratios)} checks "
              "(diagnostic; must stay <= 1)")
    raw, calibrated = op_medians(rounds, calibrated=False), op_medians(rounds)
    print(f"{wl.name}: {len(rounds)} rounds, {len(checks)} checks, "
          f"{len(bad)} failed checks; median time per operation, as "
          f"measured and at the reference speed (sums {math.fsum(raw):.3f} s "
          f"and {math.fsum(calibrated):.3f} s):")
    for op, t, c in zip(wl.ops, raw, calibrated):
        print(f"  {t:8.3f} s {c:8.3f} s  {op.name}")
    return {"correct": not bad,
            "attempted": len(wl.ops) * len(rounds),
            "failed": sum(len(r.failures) for r in rounds)}


def untraced_run(args, setup_seconds: list[float], wl) -> dict:
    # Two rounds at least, so that no operation's time is a single sample.
    rounds = run_rounds(wl.ops, args.seconds, min_rounds=2)
    result = summarize(wl, rounds,
                       repeat_checks(rounds[1:], rounds[0], "repeat"))
    per_op = op_medians(rounds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
        # One round at the reference speed, as the sum of per-operation
        # medians, so a slow spell during one round moves it less.
        "wall_s": {"value": math.fsum(per_op), "unit": "s"},
        "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }
    return result


def traced_run(args, wl) -> dict:
    from tracer import LAYER_METRICS, Tracer

    plain = run_rounds(wl.ops, 0.0)[0]
    tracer = Tracer()
    tracer.install()
    snapshots = []
    try:
        traced = run_rounds(wl.ops, args.seconds, elapsed=plain.seconds,
                            before=tracer.reset,
                            after=lambda rnd: snapshots.append(
                                tracer.layer_metrics()))
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print(f"tracer: {name} not found; its metrics read 0")

    result = summarize(wl, [plain] + traced,
                       repeat_checks(traced, plain, "traced vs untraced"))
    untraced_s = math.fsum(plain.op_calibrated)
    overhead = statistics.median(
        math.fsum(r.op_calibrated) for r in traced) - untraced_s
    print(f"{wl.name}: tracing overhead {overhead:+.3f} s per round at the "
          f"reference speed (untraced round {untraced_s:.3f} s)")

    metrics = {}
    for name, unit in LAYER_METRICS:
        series = [s[name] for s in snapshots]
        if unit == "count":
            if len(set(series)) > 1:
                print(f"note: {name} differs between rounds: {series}")
            value = series[0]
        else:
            value = statistics.median(series)
        metrics[name] = {"value": value, "unit": unit}
    mc_s = sum(metrics[f"mc.{n}_s"]["value"]
               for n in ("cholesky", "whitenoise", "estimator", "wick"))
    quad_s = (metrics["quadrature.outer_self_s"]["value"]
              + metrics["quadrature.interval_s"]["value"])
    traced_s = statistics.median(math.fsum(r.op_seconds) for r in traced)
    print(f"{wl.name}: layer separation: mc time {mc_s:.4f} s, quadrature "
          f"time {100.0 * quad_s / traced_s:.2f}% of a traced round")
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_src()

    if args.setup_probe:
        t0 = time.perf_counter()
        set_up(args.workload, args.seed)
        seconds = time.perf_counter() - t0
        print(repr(seconds), repr(reference_seconds()))
        return 0

    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.BUILDERS)}")

    setup_seconds = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = set_up(args.workload, args.seed)
    result = traced_run(args, wl) if args.trace else \
        untraced_run(args, setup_seconds, wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
