"""Command-line experiment front-end.

One invocation runs one experiment kind and persists its artifacts to
an output directory:

    results.csv    one row per named output, fixed header
    manifest.json  full config echo, run id, version, timestamps
    plot.svg       for schedule experiments (native SVG emitter)

Configuration comes from an optional JSON document (``--config``) with
command-line flags taking precedence over file fields, which take
precedence over defaults.  A manifest written by a previous run is
itself accepted as a config document, so any run can be reproduced from
its artifacts.  Exit codes: 0 success, 2 invalid configuration,
3 accuracy/consistency failure, 4 inadmissible or non-integrable
combination.  The Monte Carlo layer runs on LOCTIME_THREADS worker
threads, or by default on the usable CPUs (at most 4); its values are
bit-identical for every thread count, and the manifest records the
count used next to the CPU count and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (AccuracyError, AdmissibilityError, ConfigError,
                     ConsistencyError, NonIntegrableError,
                     SingularPointError, _finite, _integer, _order)
from .fracops import (Hurst, Interval, PairingTable, bound_ratio,
                      increment_kernel, normalization_constant,
                      pairing_closed_form, pairing_indicator)
from .kernels import odd_kernel_zero, series_reconstruction
from .mc import (GENERATORS, WhiteNoiseGrid, _sample_paths,
                 covariance_from_kernels, fbm_covariance, make_midpoint_times,
                 mc_grid_bias, mc_local_time_regularized, mc_s_transform,
                 mc_weight_check, resolve_threads, sample_paths_whitenoise)
from .quadrature import (integrate_interval, integrate_triangle_singular,
                         triangle_power_moment)
from .stransform import (DeltaSpec, exp_truncated, is_admissible,
                         minimal_truncation_level, s_local_time)
from .svg import loglog_plot
from .testfunctions import (VectorTestFunction, gaussian_bump,
                            hermite_bundle, zero_bundle)

__all__ = ["ExperimentConfig", "ResultRow", "ResultRecord", "run", "main"]

KINDS = ("ops", "stransform", "kernels", "mc", "convergence", "selftest")
FAMILIES = ("zero", "gauss", "hermite")

CSV_HEADER = ("experiment", "id", "H", "d", "N", "eps", "f", "tol", "m",
              "n_paths", "seed", "value", "err", "units")


def _from_text(value):
    """A JSON string that spells a number as that number (an int when
    it spells one), a list element by element; anything else as is."""
    if isinstance(value, list):
        return [_from_text(x) for x in value]
    if isinstance(value, str):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one experiment run, checked when it is built."""

    kind: str
    hurst: float = 0.5
    d: int = 1
    n_trunc: int = 0
    eps: float = 0.0
    eps_schedule: tuple[float, ...] = ()
    family: str = "zero"
    indices: tuple[int, ...] = ()
    scale: float = 0.1
    tol: float = 1e-8
    m: int = 128
    n_paths: int = 2048
    generator: str = GENERATORS[0]
    seed: int = 0
    out: str = "loctime-out"

    def __post_init__(self):
        for name, choices in (("kind", KINDS), ("family", FAMILIES),
                              ("generator", GENERATORS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"config field {name!r} must be one of "
                                  f"{choices}, got {getattr(self, name)!r}")
        for name in ("eps_schedule", "indices"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"config field {name!r} must be a list, "
                                  f"got {getattr(self, name)!r}")
        checked = {
            "hurst": Hurst(self.hurst).h,
            "d": _integer("d", self.d, 1),
            "n_trunc": _order("N", self.n_trunc),
            "eps": _finite("eps", self.eps, 0.0, strict=False),
            # The eps = 0 endpoint of a schedule is computed anyway.
            "eps_schedule": tuple(
                _finite("eps schedule entry", e, 0.0, strict=True)
                for e in self.eps_schedule),
            "indices": tuple(_integer("hermite index", i, 0)
                             for i in self.indices),
            "scale": _finite("scale", self.scale, -math.inf, strict=True),
            "tol": _finite("tol", self.tol, 0.0, strict=True),
            "m": _integer("m", self.m, 2),
            "n_paths": _integer("n_paths", self.n_paths, 1),
            "seed": _integer("seed", self.seed, 0),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.indices and self.family != "hermite":
            raise ConfigError("indices only apply to the hermite family")
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError(f"output directory must be a nonempty "
                              f"string, got {self.out!r}")

    @property
    def f_label(self) -> str:
        """Comma-free test-function tag used in the CSV f column."""
        if self.family == "zero":
            return "zero"
        if self.family == "hermite":
            idx = self.indices or tuple(range(self.d))
            return "hermite[{}]~{:g}".format(
                "+".join(str(i) for i in idx), self.scale)
        return f"gauss~{self.scale:g}"

    def to_dict(self) -> dict:
        # Tuples stay tuples; JSON writes them as lists.
        return dataclasses.asdict(self)

    def emit(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown config fields: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("config needs an experiment kind")
        # A JSON string in a text field is never a number.
        kw = {name: value if name in ("kind", "family", "generator", "out")
              else _from_text(value) for name, value in data.items()}
        return ExperimentConfig(**kw)

    @staticmethod
    def parse(text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]
        return ExperimentConfig.from_dict(data)


@dataclass(frozen=True)
class ResultRow:
    """One named output value of an experiment."""

    id: str
    value: float
    err: float = 0.0
    units: str = "dimensionless"
    eps: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "err", float(self.err))


@dataclass(frozen=True)
class ResultRecord:
    """Everything one run produced, as persisted in the manifest."""

    experiment: str
    run_id: str
    config: ExperimentConfig
    rows: tuple[ResultRow, ...]
    wall_time_s: float
    version: str
    created_utc: str
    threads: int
    cpu_count: int | None
    versions: dict[str, str]

    def csv_text(self) -> str:
        cfg = self.config
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            eps = cfg.eps if row.eps is None else row.eps
            writer.writerow([
                self.experiment, row.id, repr(cfg.hurst), cfg.d,
                cfg.n_trunc, repr(eps), cfg.f_label, repr(cfg.tol),
                cfg.m, cfg.n_paths, cfg.seed, repr(row.value),
                repr(row.err), row.units,
            ])
        return buf.getvalue()

    def manifest_dict(self) -> dict:
        return {**dataclasses.asdict(self),
                "csv_header": ",".join(CSV_HEADER)}


def _test_bundle(cfg: ExperimentConfig) -> VectorTestFunction:
    """Build the d-component test function the config describes."""
    if cfg.family == "zero":
        return zero_bundle(cfg.d)
    if cfg.family == "hermite":
        idx = cfg.indices or tuple(range(cfg.d))
        if len(idx) != cfg.d:
            raise ConfigError(
                f"hermite family needs one index per component: "
                f"d = {cfg.d} but {len(idx)} indices given")
        return hermite_bundle(idx).scaled(cfg.scale)
    comps = tuple(
        gaussian_bump(cfg.scale * 0.8 ** j,
                      0.2 + 0.6 * (j + 0.5) / cfg.d, 0.3)
        for j in range(cfg.d))
    return VectorTestFunction(comps)


def _delta_spec(cfg: ExperimentConfig, eps: float | None = None) -> DeltaSpec:
    return DeltaSpec(cfg.hurst, cfg.d, cfg.n_trunc,
                     cfg.eps if eps is None else eps)


def _run_ops(cfg):
    h, tol = cfg.hurst, cfg.tol
    rows = [ResultRow("K_H", normalization_constant(h))]
    for t in (0.25, 0.5, 1.0, 2.0):
        v = covariance_from_kernels(h, t, t, tol=min(tol, 1e-8))
        rows.append(ResultRow(f"norm_sq_t={t:g}", v,
                              abs(v - t ** (2.0 * h))))
    fb = _test_bundle(cfg)
    if fb.is_zero:
        fb = hermite_bundle(tuple(range(cfg.d))).scaled(0.5)
    iv = Interval(0.25, 0.75)
    vec = pairing_indicator(h, fb, iv, tol=tol)
    rows.extend(ResultRow(f"pairing_comp{j}", vj, tol)
                for j, vj in enumerate(vec))
    rows.append(ResultRow("bound_ratio", bound_ratio(h, fb, iv)))
    return rows, None


def _run_stransform(cfg):
    res = s_local_time(_delta_spec(cfg), _test_bundle(cfg), tol=cfg.tol)
    return [ResultRow("s_local_time", res.value, res.error_estimate)], None


def _run_kernels(cfg):
    spec = _delta_spec(cfg)
    # Gate before building the test function: exit code 4 comes first.
    spec.require_admissible()
    fb = _test_bundle(cfg)
    rep = series_reconstruction(spec, fb, max_order=cfg.n_trunc + 2,
                                tol=cfg.tol)
    rows = [ResultRow(f"order_{2 * n}", c, e)
            for n, c, e in zip(rep.orders, rep.contributions,
                               rep.error_estimates)]
    rows.append(ResultRow("partial_sum", rep.partial_sum,
                          sum(rep.error_estimates)))
    direct = s_local_time(spec, fb, tol=cfg.tol)
    rows.append(ResultRow("s_local_time", direct.value,
                          direct.error_estimate))
    rows.append(ResultRow("series_gap",
                          abs(rep.partial_sum - direct.value),
                          abs(rep.last_term) + sum(rep.error_estimates)))
    return rows, None


def _run_mc(cfg):
    # Only the regularized local time has a pathwise estimator.
    _finite("the mc experiment's eps", cfg.eps, 0.0, strict=True)
    times = make_midpoint_times(cfg.m)
    ens = _sample_paths(cfg.generator, cfg.hurst, cfg.d, times, cfg.n_paths,
                        seed=cfg.seed)
    est = mc_local_time_regularized(ens, cfg.eps)
    rows = [ResultRow("mc_local_time", est.mean, est.stderr)]
    limit = s_local_time(DeltaSpec(cfg.hurst, cfg.d, 0, cfg.eps),
                         zero_bundle(cfg.d), tol=min(cfg.tol, 1e-8))
    rows.append(ResultRow("analytic_limit", limit.value,
                          limit.error_estimate))
    n_bias = max(512, cfg.n_paths // 8)
    _, _, bias = mc_grid_bias(cfg.hurst, cfg.d, cfg.eps, cfg.m, n_bias,
                              stream=1, seed=cfg.seed,
                              generator=cfg.generator)
    rows.append(ResultRow("grid_bias", bias))
    fb = _test_bundle(cfg)
    # Only a white-noise ensemble carries the grid the S-transform needs.
    if not fb.is_zero and ens.grid is not None:
        wick = mc_weight_check(ens, fb)
        rows.append(ResultRow("wick_mean", wick.mean, wick.stderr))
        sst = mc_s_transform(ens, fb, cfg.eps, cfg.n_trunc)
        rows.append(ResultRow("mc_s_transform", sst.mean, sst.stderr))
        ref = s_local_time(_delta_spec(cfg), fb, tol=min(cfg.tol, 1e-8))
        rows.append(ResultRow("s_transform_limit", ref.value,
                              ref.error_estimate))
    return rows, None


def _run_convergence(cfg):
    schedule = cfg.eps_schedule or ((cfg.eps,) if cfg.eps > 0.0 else ())
    if not schedule:
        raise ConfigError(
            "convergence needs an eps schedule, e.g. --eps 1e-1,1e-2,1e-3")
    schedule = tuple(sorted(set(schedule), reverse=True))
    fb = _test_bundle(cfg)
    table = PairingTable(cfg.hurst, fb)
    base = s_local_time(_delta_spec(cfg, 0.0), fb, tol=cfg.tol, pairing=table)
    rows = [ResultRow("value_eps=0", base.value, base.error_estimate,
                      eps=0.0)]
    values = []
    for e in schedule:
        r = s_local_time(_delta_spec(cfg, e), fb, tol=cfg.tol, pairing=table)
        values.append(r.value)
        rows.append(ResultRow(f"value_eps={e:g}", r.value,
                              r.error_estimate, eps=e))
    for i in range(1, len(values)):
        rows.append(ResultRow(f"succ_diff_{i}",
                              abs(values[i] - values[i - 1]),
                              eps=schedule[i]))
    gaps = [abs(v - base.value) for v in values]
    for e, gap in zip(schedule, gaps):
        rows.append(ResultRow(f"gap_eps={e:g}", gap, eps=e))
    denom = max(abs(base.value), 1e-300)
    rows.append(ResultRow("final_gap_rel", gaps[-1] / denom,
                          eps=schedule[-1]))
    plot = None
    pos = [(e, g) for e, g in zip(schedule, gaps) if g > 0.0]
    if len(pos) >= 2:
        eps_pos, gap_pos = zip(*pos)
        plot = loglog_plot(
            "|SL_eps - SL_0|", eps_pos, gap_pos,
            title=(f"eps -> 0 convergence, H={cfg.hurst:g}, d={cfg.d}, "
                   f"N={cfg.n_trunc}"),
            xlabel="eps", ylabel="gap")
    return rows, plot


def _selftest_checks():
    """(name, deviation, allowance) triples covering every module."""
    out = []

    out.append(("indicator_kernel_h05",
                abs(float(increment_kernel(0.5, Interval(0.2, 0.7), 0.45))
                    - 1.0), 1e-12))
    out.append(("normalization_var1",
                abs(covariance_from_kernels(0.7, 1.0, 1.0, tol=1e-8) - 1.0),
                1e-6))

    fb, iv = hermite_bundle((0,)).scaled(0.5), Interval(0.2, 0.9)
    for h in (0.35, 0.75):
        gap = (pairing_indicator(h, fb, iv, tol=1e-8)
               - pairing_closed_form(h, fb, iv, tol=1e-12))
        out.append((f"pairing_dual_routes_h{h:g}",
                    float(np.max(np.abs(gap))), 1e-7))

    res = integrate_triangle_singular(0.75, lambda t1, tau: np.ones_like(t1),
                                      tol=1e-10)
    out.append(("triangle_moment_a075",
                abs(res.value - triangle_power_moment(0.75)), 1e-8))
    res = integrate_interval(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                             tol=1e-10, singular=((0.0, -0.5),))
    out.append(("interval_sqrt", abs(res.value - 2.0), 1e-9))

    out.append(("exp_truncated_tail",
                abs(float(exp_truncated(0.7, 2))
                    - (math.exp(0.7) - 1.0 - 0.7)), 1e-12))
    sl = s_local_time(DeltaSpec(0.5, 1, 0, 0.0), zero_bundle(1), tol=1e-9)
    out.append(("local_time_closed_form",
                abs(sl.value - (2.0 * math.pi) ** -0.5 * 4.0 / 3.0), 1e-7))
    gate_ok = (minimal_truncation_level(0.5, 2) == 1
               and not is_admissible(0.6, 2, 0)
               and is_admissible(0.5, 1, 0))
    out.append(("admissibility_gate", 0.0 if gate_ok else 1.0, 0.5))
    out.append(("odd_kernel_zero", abs(odd_kernel_zero((1,))), 0.0))

    out.append(("fbm_cov_h05",
                abs(fbm_covariance(0.5, 0.3, 0.8) - 0.3), 1e-12))
    grid = WhiteNoiseGrid(n_cells=512, seed=7)
    times = make_midpoint_times(16)
    # Two RNG blocks, so the two-thread run draws one on a worker thread.
    ens_a, ens_b = (sample_paths_whitenoise(0.6, 1, times, grid, 600,
                                            n_threads=n) for n in (1, 2))
    out.append(("mc_determinism",
                float(np.max(np.abs(ens_a.paths - ens_b.paths))), 0.0))
    fb = VectorTestFunction((gaussian_bump(0.3, 0.5, 0.3),))
    wick = mc_weight_check(ens_a, fb)
    out.append(("wick_unit_mean", abs(wick.mean - 1.0), 5.0 * wick.stderr))
    plain = mc_local_time_regularized(ens_a, 0.05)
    szero = mc_s_transform(ens_a, zero_bundle(1), 0.05)
    out.append(("s_transform_f0_reduction",
                abs(szero.mean - plain.mean), 0.0))
    return out


def _run_selftest(cfg):
    rows = []
    failed = []
    for name, dev, allow in _selftest_checks():
        rows.append(ResultRow(name, dev, allow))
        if dev > allow:
            failed.append(name)
    if failed:
        raise AccuracyError(
            "selftest checks failed: " + ", ".join(failed))
    return rows, None


_RUNNERS = {
    "ops": _run_ops,
    "stransform": _run_stransform,
    "kernels": _run_kernels,
    "mc": _run_mc,
    "convergence": _run_convergence,
    "selftest": _run_selftest,
}


def run(config: ExperimentConfig) -> ResultRecord:
    """Execute one experiment and persist its artifacts."""
    # These kinds compute at the one eps; only convergence runs a schedule.
    if config.eps_schedule and config.kind in ("stransform", "kernels", "mc"):
        raise ConfigError(
            f"the {config.kind} experiment takes one eps, got the schedule "
            f"{list(config.eps_schedule)}; a schedule is for convergence")
    threads = resolve_threads()
    start = time.perf_counter()
    rows, plot = _RUNNERS[config.kind](config)
    wall = time.perf_counter() - start
    run_id = hashlib.sha1(config.emit().encode()).hexdigest()[:12]
    record = ResultRecord(
        experiment=config.kind, run_id=run_id, config=config,
        rows=tuple(rows), wall_time_s=wall, version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        threads=threads, cpu_count=os.cpu_count(),
        versions={"python": platform.python_version(),
                  "numpy": np.__version__})
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(record.csv_text())
    (out_dir / "manifest.json").write_text(
        json.dumps(record.manifest_dict(), indent=2, sort_keys=True) + "\n")
    if plot is not None:
        (out_dir / "plot.svg").write_text(plot)
    return record


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loctime",
        description="Self-intersection local-time experiments: fractional "
                    "operators, S-transforms, chaos kernels, Monte Carlo.")
    p.add_argument("kind", choices=KINDS, help="experiment to run")
    p.add_argument("--config", metavar="PATH",
                   help="JSON config document (a manifest.json also works); "
                        "flags override file fields")
    p.add_argument("--H", dest="hurst", type=float, help="Hurst parameter")
    p.add_argument("--d", type=int, help="spatial dimension")
    p.add_argument("--N", dest="n_trunc", type=int,
                   help="chaos truncation level")
    p.add_argument("--eps", help="regularization, a float or a "
                                 "comma-separated schedule")
    p.add_argument("--f", dest="family",
                   help="test function: zero, gauss, or hermite[:i,j,...]")
    p.add_argument("--scale", type=float, help="test-function amplitude")
    p.add_argument("--tol", type=float, help="quadrature tolerance")
    p.add_argument("--m", type=int, help="time-grid size for Monte Carlo")
    p.add_argument("--paths", dest="n_paths", type=int,
                   help="Monte Carlo sample size")
    p.add_argument("--generator", choices=GENERATORS,
                   help="path generator for mc experiments")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--out", help="output directory")
    return p


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        data = ExperimentConfig.parse(path.read_text()).to_dict()
    data["kind"] = args.kind
    for name in ("hurst", "d", "n_trunc", "scale", "tol", "m", "n_paths",
                 "generator", "seed", "out"):
        val = getattr(args, name)
        if val is not None:
            data[name] = val
    if args.eps is not None:
        parts = [p for p in args.eps.split(",") if p]
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(
                f"--eps expects a float or a comma-separated list, "
                f"got {args.eps!r}") from None
        if not values:
            raise ConfigError("--eps got an empty schedule")
        if len(values) == 1:
            data["eps"] = values[0]
            data["eps_schedule"] = []
        else:
            data["eps_schedule"] = values
    if args.family is not None:
        name, _, idx = args.family.partition(":")
        data["family"] = name
        if idx:
            try:
                data["indices"] = [int(i) for i in idx.split(",")]
            except ValueError:
                raise ConfigError(
                    f"--f indices must be integers, got {idx!r}") from None
        else:
            data["indices"] = []
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        record = run(config)
    except (ConfigError, SingularPointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AdmissibilityError, NonIntegrableError) as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return 4
    except (AccuracyError, ConsistencyError) as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    for row in record.rows:
        print(f"{row.id:>28s}  value={row.value!r}  err={row.err!r}")
    artifacts = "results.csv, manifest.json"
    if (Path(record.config.out) / "plot.svg").is_file():
        artifacts += ", plot.svg"
    print(f"[{record.run_id}] wrote {artifacts} in {record.config.out} "
          f"({record.wall_time_s:.2f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
