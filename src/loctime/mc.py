"""Monte Carlo verification layer for the local-time analytics.

Paths of d-dimensional fractional Brownian motion are simulated two
ways: from the white-noise representation B_j(t) = sum_i K(t, x_i)
dW_{j,i} on a truncated x-grid (which also exposes the noise
coordinates needed for S-transform weighting), and from a Cholesky
factorization of the exact covariance (the oracle generator, used to
attribute discretization bias).

Regularized self-intersection local times are estimated per path by a
midpoint pair rule over the time triangle, and S-transforms by
reweighting each path with the Wick exponential of its own noise.  The
truncated functional subtracts, pair by pair, the low-order Hermite
projections of the Gaussian kernel, so its weighted expectation closes
in the discrete model exactly like the analytic truncated transform.

Everything is deterministic: path blocks draw from counter-based
generators keyed by (seed, stream, block), and reductions run in fixed
order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConfigError, ConsistencyError
from .fracops import Hurst, Interval, _hurst, _kernel_scale, increment_kernel
from .quadrature import integrate_interval
from .testfunctions import _as_bundle

__all__ = [
    "WhiteNoiseGrid",
    "PathEnsemble",
    "McEstimate",
    "fbm_covariance",
    "covariance_from_kernels",
    "make_midpoint_times",
    "sample_paths_whitenoise",
    "sample_paths_cholesky",
    "mc_local_time_regularized",
    "mc_s_transform",
    "mc_weight_check",
    "mc_grid_bias",
    "resolve_threads",
]

_TWO_PI = 2.0 * math.pi

# Paths are generated in blocks of this size; the RNG key of a block is
# (seed, stream, block index), so the ensemble is independent of how
# many blocks are processed concurrently.
BLOCK = 512

# Row tiles.  A pair-sum tile holds about TILE_BYTES of path data, which
# stays in cache through its whole lag loop.  No tile is cut below
# TILE_FLOOR bytes (of path data in the pair sums, of output in
# _map_blocks) to give more threads a share: with pair-sum tiles of
# 256 KiB, two threads ran slower than one on a 2-CPU host, because the
# short numpy calls of a small tile contend for the interpreter lock.
TILE_BYTES = 1 << 20
TILE_FLOOR = 1 << 19


def fbm_covariance(h, s: float, t: float) -> float:
    """Covariance of fractional Brownian motion per component.

    0.5 (s^{2H} + t^{2H} - |t-s|^{2H}); reduces to min(s, t) at H = 1/2
    and equals the L2 inner product of the increment kernels of [0, s]
    and [0, t].
    """
    hu = _hurst(h)
    if not (0.0 <= s < math.inf and 0.0 <= t < math.inf):
        raise ConfigError(
            f"times must be nonnegative and finite, got ({s}, {t})")
    two_h = 2.0 * hu.h
    return 0.5 * (s ** two_h + t ** two_h - abs(t - s) ** two_h)


def _endpoint_strip(a: float, c: float, gap: float, delta: float,
                    tol: float) -> float:
    """int_0^delta c^2 u^a (gap + u)^a du with distances exact in u.

    This is the kernel product near the singular endpoint x = min(s, t)
    rewritten in the offset u = min(s, t) - x (gap = |t - s|).  Working
    in u avoids the catastrophic loss that x-space evaluation suffers
    there: for a < 0 the one-ulp neighbourhood of the endpoint carries
    mass of order ulp^(1+2a), far above tight tolerances once 2a is
    close to -1.
    """
    ea = 2.0 * a + 1.0
    if gap == 0.0:
        return c * c * delta ** ea / ea
    # u below the gap: rescale by the gap so the smooth factor stays O(1).
    m1 = min(gap, delta)
    pref = c * c * gap ** ea

    def near(r):
        return pref * r ** a * (1.0 + r) ** a

    total = integrate_interval(near, 0.0, m1 / gap, tol=0.5 * tol,
                               singular=[(0.0, a)], order=16).value
    if delta > gap:
        # u above the gap: log coordinates u = gap * e^z tame the power
        # decay over what may be many decades; the exponent form never
        # overflows since (2a+1)(log gap + z) <= (2a+1) log delta.
        lg = math.log(gap)

        def far(z):
            return c * c * np.exp(ea * (lg + z) + a * np.log1p(np.exp(-z)))

        total += integrate_interval(far, 0.0, math.log(delta / gap),
                                    tol=0.5 * tol, order=16).value
    return total


def covariance_from_kernels(h, s: float, t: float, tol: float = 1e-8) -> float:
    """Covariance by integrating the two increment kernels directly.

    Independent quadrature route for cross-checking ``fbm_covariance``:
    int K1_[0,s](x) K1_[0,t](x) dx over the common support.  The core
    [-X0, min(s,t) - delta] is integrated with a mark at the kernel jump
    x = 0 (offsets from 0 are exact doubles); the strip of width delta
    at the singular endpoint is integrated in exact offset coordinates
    by ``_endpoint_strip``; and the far tail x < -X0 (which decays only
    like |x|^(2H-3)) is folded to a finite interval by x = -X0/v and
    evaluated through expm1/log1p, which keeps the kernel difference
    accurate where direct subtraction cancels.
    """
    hu = _hurst(h)
    if not (0.0 <= s < math.inf and 0.0 <= t < math.inf):
        raise ConfigError(
            f"times must be nonnegative and finite, got ({s}, {t})")
    if s == 0.0 or t == 0.0:
        return 0.0
    a = hu.a
    hi = min(s, t)
    c = _kernel_scale(hu.h)

    ivs = Interval(0.0, s)
    ivt = Interval(0.0, t)

    def body(x):
        return increment_kernel(hu, ivs, x) * increment_kernel(hu, ivt, x)

    if a == 0.0:
        res = integrate_interval(body, 0.0, hi, tol=tol,
                                 singular=[(s, 0.0), (t, 0.0)], order=16)
        return res.value

    x0 = max(8.0 * (1.0 + s + t), 16.0)
    if a > 0.0:
        # Kernels are bounded at their endpoints; marks only guide the
        # panel refinement.
        sing = [(0.0, 2.0 * a), (s, a), (t, a)]
        core = integrate_interval(body, -x0, hi, tol=tol / 3.0,
                                  singular=sing, order=16)
        core_val = core.value
    else:
        delta = 0.5 * hi
        strip = _endpoint_strip(a, c, abs(t - s), delta, tol / 3.0)
        core = integrate_interval(body, -x0, hi - delta, tol=tol / 3.0,
                                  singular=[(0.0, 2.0 * a)], order=16)
        core_val = core.value + strip

    def tail_body(v):
        w = x0 / v
        fs = np.expm1(a * np.log1p(s / w))
        ft = np.expm1(a * np.log1p(t / w))
        return c * c * w ** (2.0 * a) * fs * ft * x0 / v ** 2

    tail = integrate_interval(tail_body, 0.0, 1.0, tol=tol / 3.0,
                              singular=[(0.0, -2.0 * a)], order=16)
    return core_val + tail.value


def make_midpoint_times(m: int) -> np.ndarray:
    """Time grid {0} followed by the m cell midpoints (k + 1/2)/m."""
    m = _integer("m", m, 1)
    return np.concatenate([[0.0], (np.arange(m) + 0.5) / m])


def _cell_widths(times_pos: np.ndarray) -> np.ndarray:
    """Voronoi cell widths of the positive times within [0, 1]."""
    edges = np.concatenate([[0.0],
                            0.5 * (times_pos[:-1] + times_pos[1:]),
                            [1.0]])
    return np.diff(edges)


@dataclass(frozen=True)
class WhiteNoiseGrid:
    """Truncated, discretized noise axis for the white-noise sampler.

    Cells span [x_lo, x_hi] with x_hi = 1 covering the kernel supports
    of all times up to 1; per block, each component draws i.i.d.
    centered Gaussian cell increments of variance dx.  ``tail_budget``
    optionally enforces that the L2 mass of the [0,1] increment kernel
    lost below x_lo stays under the budget; left unset, the mass is
    only reported through ``tail_mass``.
    """

    x_lo: float = -20.0
    x_hi: float = 1.0
    n_cells: int = 2048
    seed: int = 0
    tail_budget: float | None = None

    def __post_init__(self):
        if not (self.x_lo < 0.0 < self.x_hi):
            raise ConfigError(
                f"grid must bracket the origin, got [{self.x_lo}, {self.x_hi}]")
        if self.x_hi < 1.0:
            raise ConfigError(
                f"grid must cover kernel supports up to x = 1, got "
                f"x_hi = {self.x_hi}")
        object.__setattr__(self, "n_cells",
                           _integer("n_cells", self.n_cells, 8))
        if self.tail_budget is not None and not self.tail_budget > 0.0:
            raise ConfigError(
                f"tail budget must be positive, got {self.tail_budget}")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def midpoints(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx

    def tail_mass(self, h) -> float:
        """Bound on the kernel L2 mass lost below x_lo (t = 1 kernel).

        int_{-inf}^{x_lo} K1_[0,1](x)^2 dx <= c^2 a^2 |x_lo|^(2H-2)/(2-2H),
        relative to the unit total mass; zero at H = 1/2 where the
        kernel has compact support.
        """
        hu = _hurst(h)
        a = hu.a
        if a == 0.0:
            return 0.0
        c = _kernel_scale(hu.h)
        return (c * c * a * a * abs(self.x_lo) ** (2.0 * hu.h - 2.0)
                / (2.0 - 2.0 * hu.h))

    def required_x_lo(self, h, budget: float) -> float:
        """Left truncation point that brings ``tail_mass`` under budget."""
        hu = _hurst(h)
        a = hu.a
        if a == 0.0:
            return -1.0
        if budget <= 0.0:
            raise ConfigError(f"budget must be positive, got {budget}")
        c = _kernel_scale(hu.h)
        return -((c * c * a * a / ((2.0 - 2.0 * hu.h) * budget))
                 ** (1.0 / (2.0 - 2.0 * hu.h)))

    def validate(self, h) -> None:
        """Raise when a set tail budget is violated, naming the fix."""
        if self.tail_budget is None:
            return
        mass = self.tail_mass(h)
        if mass > self.tail_budget:
            hu = _hurst(h)
            raise ConfigError(
                f"truncation tail mass {mass:.3e} exceeds the budget "
                f"{self.tail_budget:.3e} at H={hu.h:g}; extend the grid to "
                f"x_lo <= {self.required_x_lo(hu, self.tail_budget):.6g}")

    def increments(self, d: int, n_paths: int, stream: int,
                   block: int) -> np.ndarray:
        """Noise increments of one path block, shape (n_paths, d, n_cells).

        Keyed by (seed, stream, block): bit-identical across runs and
        independent of any other block.
        """
        ss = np.random.SeedSequence((self.seed, stream, block))
        rng = np.random.Generator(np.random.Philox(ss))
        return rng.normal(0.0, math.sqrt(self.dx),
                          size=(n_paths, d, self.n_cells))


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled fBm paths on a common time grid.

    ``paths`` has shape (n_paths, len(times), d) with B(0) = 0 exactly
    in every path and component.  White-noise ensembles carry their
    grid and stream so estimators can regenerate the underlying noise
    block by block.
    """

    hurst: Hurst
    times: np.ndarray
    paths: np.ndarray
    generator: str
    grid: WhiteNoiseGrid | None = None
    stream: int = 0
    seed: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ConfigError(
                "time grid must start at 0 and increase strictly")
        if times[-1] > 1.0:
            raise ConfigError("time grid must stay within [0, 1]")
        if self.paths.ndim != 3 or self.paths.shape[1] != times.size:
            raise ConfigError(
                f"paths shape {self.paths.shape} does not match "
                f"{times.size} times")
        if np.any(self.paths[:, 0, :] != 0.0):
            raise ConfigError("paths must start at B(0) = 0 exactly")
        object.__setattr__(self, "times", times)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def d(self) -> int:
        return self.paths.shape[2]

    def restrict_times(self, indices) -> "PathEnsemble":
        """The ensemble on a subset of its time columns.

        ``indices`` must keep index 0 (the anchor B(0) = 0).  The paths
        are copied in C order, so each path's columns stay contiguous;
        the noise coordinates stay those of the full ensemble.
        """
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0 or idx[0] != 0:
            raise ConfigError("time subset must keep the t = 0 anchor")
        return PathEnsemble(hurst=self.hurst, times=self.times[idx],
                            paths=np.take(self.paths, idx, axis=1),
                            generator=self.generator, grid=self.grid,
                            stream=self.stream, seed=self.seed)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    n_samples: int


def _mc_reduce(per_path: np.ndarray) -> McEstimate:
    n = per_path.size
    mean = float(np.mean(per_path))
    stderr = float(np.std(per_path, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, n_samples=n)


def resolve_threads(n_threads: int | None = None) -> int:
    """Worker threads of the Monte Carlo layer.

    An explicit count is validated and returned; None reads
    LOCTIME_THREADS, or else takes the usable CPUs, at most 4.  Values
    are bit-identical for every count, so the choice only sets speed.
    """
    if n_threads is not None:
        return _integer("n_threads", n_threads, 1)
    raw = os.environ.get("LOCTIME_THREADS", "").strip()
    if not raw:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            cpus = os.cpu_count() or 1
        return min(cpus, 4)
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"LOCTIME_THREADS must be an integer, got {raw!r}") from None
    return _integer("LOCTIME_THREADS", value, 1)


class _Pool:
    """Runs lists of tasks on up to ``n_threads`` threads.

    A list of one task runs inline.  The executor is made for the first
    list of two or more, so a call whose every list holds one task
    starts no thread, and importing loctime loads no thread pool.
    """

    def __init__(self, n_threads: int | None):
        self.n_threads = resolve_threads(n_threads)
        self._ex = None

    def run(self, tasks: list[Callable[[], object]]) -> list:
        if self.n_threads == 1 or len(tasks) == 1:
            return [task() for task in tasks]
        if self._ex is None:
            from concurrent.futures import ThreadPoolExecutor

            self._ex = ThreadPoolExecutor(max_workers=self.n_threads)
        return [f.result() for f in [self._ex.submit(t) for t in tasks]]

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc) -> None:
        if self._ex is not None:
            self._ex.shutdown()


def _tiles(lo: int, hi: int, rows: int) -> list[tuple[int, int]]:
    """Consecutive row ranges of at most ``rows`` rows covering [lo, hi)."""
    return [(a, min(a + rows, hi)) for a in range(lo, hi, rows)]


def _tile_rows(n_rows: int, row_bytes: int, n_threads: int,
               budget: int | None = None) -> int:
    """Rows per tile: a thread's share of ``n_rows``, capped at ``budget``
    bytes, but never split below TILE_FLOOR bytes for the sake of threads.
    """
    rows = max(-(-n_rows // n_threads), TILE_FLOOR // row_bytes)
    if budget is not None:
        rows = min(rows, budget // row_bytes)
    return max(rows, 1)


def _map_rows(fn: Callable[[int, int], np.ndarray],
              tiles: list[tuple[int, int]], pool: _Pool,
              out: np.ndarray) -> np.ndarray:
    """Fill out[lo:hi] with fn(lo, hi) for every tile (lo, hi).

    Each task writes its own rows, so ``out`` (or a view of it) is the
    same for any thread count.
    """
    def fill(lo: int, hi: int) -> None:
        out[lo:hi] = fn(lo, hi)

    pool.run([functools.partial(fill, lo, hi) for lo, hi in tiles])
    return out


def _map_blocks(draw: Callable[[int, int], np.ndarray],
                apply: Callable[[np.ndarray], np.ndarray], n_paths: int,
                n_threads: int | None, out: np.ndarray) -> np.ndarray:
    """Fill out with apply(draw(b, n)) over the RNG blocks b of n paths.

    Blocks hold BLOCK paths (the last one the rest) and ``draw`` keys its
    generator by b, so the draws do not depend on the thread count.
    Blocks go in waves of one per thread: the wave's draws run in
    parallel, then ``apply`` on row tiles of the drawn blocks, split so
    that every thread has a share even when there is a single block;
    the floor is counted in bytes of ``out``, which tracks the work of
    ``apply``.  ``apply`` must give each row the same bits in a tile of
    any size.
    """
    blocks = _tiles(0, n_paths, BLOCK)
    with _Pool(n_threads) as pool:
        width = pool.n_threads
        for w in range(0, len(blocks), width):
            wave = blocks[w:w + width]
            drawn = pool.run([functools.partial(draw, b, hi - lo)
                              for b, (lo, hi) in enumerate(wave, w)])

            def fn(lo: int, hi: int) -> np.ndarray:
                start = lo // BLOCK * BLOCK
                return apply(drawn[lo // BLOCK - w][lo - start:hi - start])

            rows = _tile_rows(wave[-1][1] - wave[0][0], out[:1].nbytes,
                              width)
            _map_rows(fn, [t for lo, hi in wave for t in _tiles(lo, hi, rows)],
                      pool, out)
    return out


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int >= least; integral floats are accepted."""
    try:
        if value >= least and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _kernel_matrix(hu: Hurst, times: np.ndarray,
                   grid: WhiteNoiseGrid) -> np.ndarray:
    """K[k, i] = (K1_[0, t_k])(x_i) at cell midpoints; row 0 is zero."""
    x = grid.midpoints
    K = np.zeros((times.size, x.size))
    for k, t in enumerate(times):
        if t == 0.0:
            continue
        xs = x
        if hu.a < 0.0:
            hit = (xs == 0.0) | (xs == t)
            if np.any(hit):
                # A midpoint landing exactly on a kernel singularity is a
                # measure-zero grid accident; nudge those nodes by a
                # deterministic fraction of a cell.
                xs = xs.copy()
                xs[hit] += 1e-9 * grid.dx
        K[k] = increment_kernel(hu, Interval(0.0, t), xs)
    return K


def sample_paths_whitenoise(h, d: int, times, grid: WhiteNoiseGrid,
                            n_paths: int, stream: int = 0, *,
                            n_threads: int | None = None) -> PathEnsemble:
    """Simulate fBm paths from discretized white noise.

    B_j(t_k) = sum_i K(t_k, x_i) dW_{j,i} with independent components
    sharing the kernel matrix.  Conditional on the grid, the covariance
    is the discrete kernel inner product; it approaches
    ``fbm_covariance`` as dx -> 0 and x_lo -> -inf.
    """
    hu = _hurst(h)
    d = _integer("d", d, 1)
    n_paths = _integer("n_paths", n_paths, 1)
    times = np.asarray(times, dtype=float)
    grid.validate(hu)
    K = _kernel_matrix(hu, times, grid)

    def draw(b: int, n: int) -> np.ndarray:
        return grid.increments(d, n, stream, b)

    def apply(dW: np.ndarray) -> np.ndarray:
        # (rows, d, cells) x (times, cells) -> (rows, times, d)
        return np.einsum("jdc,tc->jtd", dW, K, optimize=False)

    out = _map_blocks(draw, apply, n_paths, n_threads,
                      np.empty((n_paths, times.size, d)))
    out[:, times == 0.0, :] = 0.0
    return PathEnsemble(hurst=hu, times=times, paths=out,
                        generator="whitenoise", grid=grid, stream=stream,
                        seed=grid.seed)


def sample_paths_cholesky(h, d: int, times, n_paths: int, stream: int = 0, *,
                          seed: int = 0,
                          n_threads: int | None = None) -> PathEnsemble:
    """Simulate fBm paths with the exact covariance factorization.

    The reference generator: no x-truncation or cell-size bias, but
    also no noise coordinates (so it cannot drive the S-transform
    estimator).  Round-off can leave the covariance matrix marginally
    indefinite; an escalating diagonal jitter up to 1e-6 of the mean
    variance is applied before giving up.
    """
    hu = _hurst(h)
    d = _integer("d", d, 1)
    n_paths = _integer("n_paths", n_paths, 1)
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ConfigError("time grid must start at 0")
    pos = times[1:]
    mm = pos.size
    two_h = 2.0 * hu.h
    cov = 0.5 * (pos[:, None] ** two_h + pos[None, :] ** two_h
                 - np.abs(pos[:, None] - pos[None, :]) ** two_h)
    scale = float(np.mean(np.diag(cov)))
    chol = None
    for jit in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
        try:
            chol = np.linalg.cholesky(cov + jit * scale * np.eye(mm))
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise ConsistencyError(
            f"covariance factorization failed for H={hu.h:g} with {mm} "
            "times even with relative jitter 1e-6")

    out = np.empty((n_paths, times.size, d))

    def draw(b: int, n: int) -> np.ndarray:
        ss = np.random.SeedSequence((seed, stream, b))
        rng = np.random.Generator(np.random.Philox(ss))
        return rng.standard_normal(size=(n, d, mm))

    def apply(z: np.ndarray) -> np.ndarray:
        return np.einsum("jdm,km->jkd", z, chol, optimize=False)

    _map_blocks(draw, apply, n_paths, n_threads, out[:, 1:, :])
    out[:, 0, :] = 0.0
    return PathEnsemble(hurst=hu, times=times, paths=out,
                        generator="cholesky", grid=None, stream=stream,
                        seed=seed)


# ---------------------------------------------------------------------------
# Estimators


def _pair_sums(ens: PathEnsemble, eps: float, subtract=None,
               n_threads: int | None = None) -> np.ndarray:
    """Per-path weighted pair sums of the Gaussian kernel.

    Computes sum_{j<k} w_j w_k [p_eps(dB) - subtract(|dB|^2)] with
    dB = B_k - B_j over the positive-time columns for every path.  The
    pairs are taken lag by lag, l = k - j = 1, ..., m-1, each lag as the
    contiguous difference B[:, l:] - B[:, :-l] with weights
    w[:-l] * w[l:]; ``subtract``, when given, holds one function per lag
    in that order.  Paths go in row tiles of about TILE_BYTES, each with
    three buffers reused across its lags.  Each lag's row sums are added
    to the per-path totals in increasing lag order, without BLAS, so a
    path's sum is bit-identical for any tiling and thread count.
    """
    m = ens.times.size - 1
    if m < 2:
        raise ConfigError("need at least two positive times for pair sums")
    d = ens.d
    w = _cell_widths(ens.times[1:])
    pref = (_TWO_PI * eps) ** (-0.5 * d)
    B = ens.paths[:, 1:, :]

    def tile(lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        db_buf = np.empty(n * m * d)
        sq_buf = np.empty(n * m)
        phi_buf = np.empty(n * m)
        vals = np.zeros(n)
        for lag in range(1, m):
            k = m - lag
            db = db_buf[:n * k * d].reshape(n, k, d)
            sq = sq_buf[:n * k].reshape(n, k)
            phi = phi_buf[:n * k].reshape(n, k)
            np.subtract(B[lo:hi, lag:, :], B[lo:hi, :-lag, :], out=db)
            np.square(db[:, :, 0], out=sq)
            for c in range(1, d):
                sq += np.square(db[:, :, c], out=db[:, :, c])
            np.multiply(sq, -0.5, out=phi)
            phi /= eps
            np.exp(phi, out=phi)
            phi *= pref
            if subtract is not None:
                phi -= subtract[lag - 1](sq)
            phi *= w[:-lag] * w[lag:]
            vals += np.sum(phi, axis=1)
        return vals

    with _Pool(n_threads) as pool:
        rows = _tile_rows(ens.n_paths, m * d * B.itemsize, pool.n_threads,
                          TILE_BYTES)
        return _map_rows(tile, _tiles(0, ens.n_paths, rows), pool,
                         np.empty(ens.n_paths))


def _require_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise ConfigError(
            f"the estimator needs a finite eps > 0, got {eps}")


def mc_local_time_regularized(ens: PathEnsemble, eps: float, *,
                              n_threads: int | None = None) -> McEstimate:
    """Estimate the expected regularized self-intersection local time.

    Per path, the time triangle is integrated by the midpoint pair rule
    sum_{j<k} w_j w_k p_eps(B(t_k) - B(t_j)) over the positive-time
    cells; the estimate averages over paths.  Its deterministic m -> inf
    limit is the f = 0 S-transform value (2pi)^{-d/2}
    int_Delta (eps + tau^{2H})^{-d/2}, up to the grid truncation bias
    measured by ``mc_grid_bias``.
    """
    _require_eps(eps)
    return _mc_reduce(_pair_sums(ens, eps, n_threads=n_threads))


def _truncation_subtractor(n_trunc: int, d: int, eps: float,
                           sigma_sq: np.ndarray):
    """Per-pair function of r^2 = |dB|^2 removing chaos orders below n_trunc.

    The order-2k Hermite projection of p_eps(dB) for a centered
    Gaussian pair increment of per-component variance s = sigma^2 is

        (2 pi w)^{-d/2} (-1/2)^k w^{-k}
            sum_{|m| = k} prod_j He_{2 m_j}^{s}(dB_j) / m_j!,

    w = eps + s.  By the Hermite-Laguerre generating functions (DLMF
    18.12) the sum is (-2s)^k L_k^{(d/2-1)}(r^2 / (2s)), that is

        sum_{i<=k} (-1)^(k+i) 2^(k-i) C(k+d/2-1, k-i) s^(k-i) r^(2i) / i!,

    a polynomial that needs no division by s and equals r^(2k)/k! at
    s = 0 (pairs whose increment the noise grid does not resolve).
    Subtracting k < n_trunc makes the weighted estimator close exactly
    onto exp_N in the discrete model.  The orders are summed here into
    one polynomial in r^2 with per-pair coefficients.
    """
    alpha = 0.5 * d - 1.0
    w_tot = eps + sigma_sq
    base = (_TWO_PI * w_tot) ** (-0.5 * d)
    coeffs = []
    for i in range(n_trunc):
        acc = np.zeros_like(sigma_sq)
        for k in range(i, n_trunc):
            binom = math.gamma(k + alpha + 1.0) / (
                math.gamma(k - i + 1.0) * math.gamma(alpha + i + 1.0))
            acc = acc + binom * sigma_sq ** (k - i) * w_tot ** (-k)
        # (-1/2)^k (-1)^(k+i) 2^(k-i) = (-1/2)^i
        coeffs.append(base * (-0.5) ** i / math.factorial(i) * acc)

    def subtract(r_sq: np.ndarray) -> np.ndarray:
        out = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            out = out * r_sq + c
        return out

    return subtract


def _wick_weights(ens: PathEnsemble, fvals: np.ndarray, *,
                  n_threads: int | None = None) -> np.ndarray:
    """Per-path Wick exponential exp(<noise, f> - |f|^2/2), discretized.

    ``fvals`` holds f_j at the grid midpoints, shape (d, n_cells).  The
    discrete norm makes the weight's expectation exactly one for the
    generated noise.
    """
    grid = ens.grid
    half_norm = 0.5 * float(np.sum(fvals * fvals)) * grid.dx

    def draw(b: int, n: int) -> np.ndarray:
        return grid.increments(ens.d, n, ens.stream, b)

    def apply(dW: np.ndarray) -> np.ndarray:
        dot = np.sum(dW * fvals[None, :, :], axis=(1, 2))
        return np.exp(dot - half_norm)

    weights = _map_blocks(draw, apply, ens.n_paths, n_threads,
                          np.empty(ens.n_paths))
    if not np.any(weights):
        raise AccuracyError(
            f"every Wick weight underflowed to 0 over {ens.n_paths} paths "
            f"(|f|^2/2 = {half_norm:.3g}); the estimate would read 0 +- 0")
    return weights


def _require_whitenoise(ens: PathEnsemble, what: str) -> None:
    if ens.generator != "whitenoise" or ens.grid is None:
        raise ConfigError(
            f"{what} needs the white-noise generator (the ensemble must "
            f"carry its noise grid), got generator '{ens.generator}'")


def _f_values(ens: PathEnsemble, f) -> np.ndarray:
    bundle = _as_bundle(f, ens.d)
    x = ens.grid.midpoints
    return np.stack([fj.eval(x) for fj in bundle.components])


def mc_weight_check(ens: PathEnsemble, f, *,
                    n_threads: int | None = None) -> McEstimate:
    """Sample mean of the Wick weight; the exact expectation is 1."""
    _require_whitenoise(ens, "the weight check")
    fvals = _f_values(ens, f)
    return _mc_reduce(_wick_weights(ens, fvals, n_threads=n_threads))


def mc_s_transform(ens: PathEnsemble, f, eps: float, n_trunc: int = 0, *,
                   n_threads: int | None = None) -> McEstimate:
    """Estimate the S-transform of the (truncated) regularized local time.

    Each path's pair-rule functional is weighted by the Wick exponential
    of the path's own noise against f.  For n_trunc >= 1 the functional
    subtracts the Hermite projections of orders below n_trunc pair by
    pair; conditional on the grids, the estimator's expectation is then

        sum_{j<k} w_j w_k (2 pi (eps + s_jk))^{-d/2}
            exp_N(-|u_jk|^2 / (2 (eps + s_jk)))

    with s_jk the discrete pair variance and u_jk the discrete pairing,
    the exact pair-rule discretization of the analytic S-transform.
    With f = 0 and n_trunc = 0 the result is bit-identical to
    ``mc_local_time_regularized``.
    """
    _require_eps(eps)
    _require_whitenoise(ens, "the S-transform estimator")
    n_trunc = _integer("truncation level", n_trunc, 0)
    fvals = _f_values(ens, f)

    subtract = None
    if n_trunc >= 1:
        K = _kernel_matrix(ens.hurst, ens.times, ens.grid)
        gram = (K * ens.grid.dx) @ K.T
        diag = np.diag(gram)[1:]
        # Lag diagonals are read below the diagonal, from gram[k, j] with
        # k > j: the BLAS product is symmetric only up to rounding.
        sigma_sq = diag[:, None] + diag[None, :] - 2.0 * gram[1:, 1:]
        subtract = [_truncation_subtractor(n_trunc, ens.d, eps,
                                           np.diagonal(sigma_sq, -lag))
                    for lag in range(1, diag.size)]

    per_path = _pair_sums(ens, eps, subtract=subtract, n_threads=n_threads)
    if np.all(fvals == 0.0) and n_trunc == 0:
        return _mc_reduce(per_path)
    weights = _wick_weights(ens, fvals, n_threads=n_threads)
    return _mc_reduce(per_path * weights)


def mc_grid_bias(h, d: int, eps: float, m: int, n_paths: int,
                 grid: WhiteNoiseGrid | None = None, stream: int = 0, *,
                 seed: int = 0, generator: str = "cholesky",
                 n_threads: int | None = None
                 ) -> tuple[McEstimate, McEstimate, float]:
    """Time-grid bias of the pair rule, measured on shared paths.

    Paths are sampled once on the union of the m- and 2m-midpoint
    grids and the estimator is evaluated on both restrictions, so the
    difference isolates the grid effect from the sampling noise.
    Returns (estimate_m, estimate_2m, bias_hat) with the Richardson
    extrapolation bias_hat = |E_m - E_2m| / (1 - 2^(-p)).

    The rate p = min(2H, 1) is the leading exponent of the pair rule:
    the regularized integrand has a tau^(2H) kink at the diagonal, so
    rough paths converge like m^(-2H), while for H >= 1/2 the smooth
    midpoint error O(1/m) dominates.  Taking the min over-reports the
    bias slightly for H > 1/2, which keeps the estimate conservative.
    """
    _require_eps(eps)
    t1 = make_midpoint_times(m)
    t2 = make_midpoint_times(2 * m)
    union = np.unique(np.concatenate([t1, t2]))
    if generator == "whitenoise":
        if grid is None:
            grid = WhiteNoiseGrid(seed=seed)
        ens = sample_paths_whitenoise(h, d, union, grid, n_paths, stream,
                                      n_threads=n_threads)
    elif generator == "cholesky":
        ens = sample_paths_cholesky(h, d, union, n_paths, stream, seed=seed,
                                    n_threads=n_threads)
    else:
        raise ConfigError(f"unknown generator '{generator}'")
    idx1 = np.searchsorted(union, t1)
    idx2 = np.searchsorted(union, t2)
    est1 = mc_local_time_regularized(ens.restrict_times(idx1), eps,
                                     n_threads=n_threads)
    est2 = mc_local_time_regularized(ens.restrict_times(idx2), eps,
                                     n_threads=n_threads)
    rate = min(2.0 * _hurst(h).h, 1.0)
    bias_hat = abs(est1.mean - est2.mean) / (1.0 - 2.0 ** -rate)
    return est1, est2, bias_hat
