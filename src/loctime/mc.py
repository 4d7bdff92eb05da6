"""Monte Carlo verification layer for the local-time analytics.

Paths of d-dimensional fractional Brownian motion are simulated two
ways: from the white-noise representation B_j(t) = sum_i K(t, x_i)
dW_{j,i} on a truncated x-grid (whose kernel matrix K also maps a test
function to its Cameron-Martin drift), and from a Cholesky
factorization of the exact covariance (the oracle generator, used to
attribute discretization bias).

Regularized self-intersection local times are estimated per path by a
midpoint pair rule over the time triangle.  The S-transform
S F(f) = E[F(B + K(f dx))] is the same estimator on paths shifted by
the drift K(f dx).  The truncated functional subtracts, pair by pair,
the low-order Hermite projections of the Gaussian kernel, so its
expectation on the shifted paths closes in the discrete model exactly
like the analytic truncated transform.  Wick weights
exp(<dW, f> - |f|^2/2) serve only ``mc_weight_check``.

Everything is deterministic: every path block draws its noise through
``_noise``, the one counter-based generator, keyed by (seed, stream,
block); reductions run in fixed order, and every BLAS or LAPACK call
runs in the calling thread on operands whose shapes follow from the
inputs alone, so results are bit-identical for any worker count
(``n_threads``, LOCTIME_THREADS).  Values that pass through BLAS or
LAPACK (the Cholesky factor, the paths of both samplers, the Wick
weights, the S-transform's drift and Gram matrix) depend on the BLAS
build and its own thread setting, never on the worker count.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from .errors import (AccuracyError, ConfigError, ConsistencyError, _each,
                     _finite, _floats, _instance, _integer, _order)
from .fracops import (Hurst, Interval, _hurst, _kernel_scale, _plus_power,
                      increment_kernel)
from .quadrature import integrate_interval
from .testfunctions import _as_bundle, _require_finite

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
# TILE_FLOOR bytes of path data to give more threads a share: with
# pair-sum tiles of 256 KiB, two threads ran slower than one on a 2-CPU
# host, because the short numpy calls of a small tile contend for the
# interpreter lock.
TILE_BYTES = 1 << 20
TILE_FLOOR = 1 << 19

# The white-noise sampler multiplies a block's noise by the kernel rows
# of WINDOW times at once.  With the product's shape fixed, a time's
# path values keep their bits whichever other times are sampled; one
# product over all the times did not keep them.
WINDOW = 64

# The path generators by name, the default first: the Cholesky oracle,
# and the white-noise sampler on the default grid.
GENERATORS = ("cholesky", "whitenoise")


def fbm_covariance(h, s: float, t: float) -> float:
    """Covariance of fractional Brownian motion per component.

    0.5 (s^{2H} + t^{2H} - |t-s|^{2H}); reduces to min(s, t) at H = 1/2
    and equals the L2 inner product of the increment kernels of [0, s]
    and [0, t].
    """
    hu = _hurst(h)
    s = _finite("time s", s, 0.0, strict=False)
    t = _finite("time t", t, 0.0, strict=False)
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
                               singular=[(0.0, a)]).value
    if delta > gap:
        # u above the gap: log coordinates u = gap * e^z tame the power
        # decay over what may be many decades; the exponent form never
        # overflows since (2a+1)(log gap + z) <= (2a+1) log delta.
        lg = math.log(gap)

        def far(z):
            return c * c * np.exp(ea * (lg + z) + a * np.log1p(np.exp(-z)))

        total += integrate_interval(far, 0.0, math.log(delta / gap),
                                    tol=0.5 * tol).value
    return total


def covariance_from_kernels(h, s: float, t: float, tol: float = 1e-8) -> float:
    """Covariance by integrating the two increment kernels directly.

    Independent quadrature route for cross-checking ``fbm_covariance``:
    int K1_[0,s](x) K1_[0,t](x) dx over the common support.  The core
    [-X0, min(s,t) - delta] is integrated with a mark at the kernel jump
    x = 0 (offsets from 0 are exact doubles); the strip of width delta
    at the endpoint, singular for H < 1/2, is integrated in exact offset
    coordinates by ``_endpoint_strip``; and the far tail x < -X0 (which
    decays only like |x|^(2H-3)) is folded to a finite interval by
    x = -X0/v and evaluated through expm1/log1p, which keeps the kernel
    difference accurate where direct subtraction cancels.  One route
    serves every H; at H = 1/2 the tail is zero and the rest integrates
    constants.
    """
    hu = _hurst(h)
    s = _finite("time s", s, 0.0, strict=False)
    t = _finite("time t", t, 0.0, strict=False)
    if s == 0.0 or t == 0.0:
        return 0.0
    a = hu.a
    hi = min(s, t)
    c = _kernel_scale(hu.h)

    ivs = Interval(0.0, s)
    ivt = Interval(0.0, t)

    def body(x):
        return increment_kernel(hu, ivs, x) * increment_kernel(hu, ivt, x)

    x0 = max(8.0 * (1.0 + s + t), 16.0)
    delta = 0.5 * hi
    strip = _endpoint_strip(a, c, abs(t - s), delta, tol / 3.0)
    core = integrate_interval(body, -x0, hi - delta, tol=tol / 3.0,
                              singular=[(0.0, 2.0 * a)])

    def tail_body(v):
        w = x0 / v
        fs = np.expm1(a * np.log1p(s / w))
        ft = np.expm1(a * np.log1p(t / w))
        return c * c * w ** (2.0 * a) * fs * ft * x0 / v ** 2

    tail = integrate_interval(tail_body, 0.0, 1.0, tol=tol / 3.0,
                              singular=[(0.0, -2.0 * a)])
    return core.value + strip + tail.value


def make_midpoint_times(m: int) -> np.ndarray:
    """Time grid {0} followed by the m cell midpoints (k + 1/2)/m."""
    m = _integer("m", m, 1)
    return np.concatenate([[0.0], (np.arange(m) + 0.5) / m])


def _time_grid(times) -> np.ndarray:
    """``times`` as a float grid 0 = t_0 < t_1 < ... <= 1 with at least
    one positive time, or ConfigError; the check of both samplers and
    ``PathEnsemble``, made before any work on the grid."""
    try:
        raw = np.asarray(times)
    except (TypeError, ValueError):  # a ragged list
        raw = None
    if (raw is None or raw.dtype.kind not in "iuf" or raw.ndim != 1
            or raw.size < 2):
        raise ConfigError(
            "time grid must be a one-dimensional array of numbers that "
            "holds 0 and at least one positive time")
    t = raw.astype(float)
    if t[0] != 0.0 or not np.all(np.diff(t) > 0.0):
        raise ConfigError("time grid must start at 0 and increase strictly")
    if t[-1] > 1.0:
        raise ConfigError("time grid must stay within [0, 1]")
    return t


def _cell_widths(times_pos: np.ndarray) -> np.ndarray:
    """Voronoi cell widths of the positive times within [0, 1]."""
    edges = np.concatenate([[0.0],
                            0.5 * (times_pos[:-1] + times_pos[1:]),
                            [1.0]])
    return np.diff(edges)


@dataclass(frozen=True)
class WhiteNoiseGrid:
    """Truncated, discretized noise axis for the white-noise sampler.

    Cells span [x_lo, 1]: the kernel of [0, t] vanishes for x > t, so
    x = 1 covers the supports of all times up to 1.  Per block, each
    component draws i.i.d. centered Gaussian cell increments of variance
    dx from ``_noise`` keyed by (seed, stream, block).  The L2 mass of
    the [0, 1] increment kernel lost below x_lo is reported by
    ``tail_mass``.
    """

    x_hi: ClassVar[float] = 1.0

    x_lo: float = -20.0
    n_cells: int = 2048
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x_lo", _finite("x_lo", self.x_lo,
                                                 -math.inf, strict=True))
        if not self.x_lo < 0.0:
            raise ConfigError(
                f"grid must bracket the origin, got [{self.x_lo}, 1]")
        object.__setattr__(self, "n_cells",
                           _integer("n_cells", self.n_cells, 8))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))

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
        c = _kernel_scale(hu.h)
        return (c * c * a * a * abs(self.x_lo) ** (2.0 * hu.h - 2.0)
                / (2.0 - 2.0 * hu.h))


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled fBm paths on a common time grid.

    ``paths`` has shape (n_paths, len(times), d) with B(0) = 0 exactly
    in every path and component.  White-noise ensembles carry their
    grid and stream, from which the S-transform estimator rebuilds the
    kernel matrix and the weight check regenerates the noise block by
    block; Cholesky ensembles have no grid.  Either sampler forms the
    paths of an RNG block by BLAS products of fixed shape, so they are
    bit-identical for any worker count.
    """

    hurst: Hurst
    times: np.ndarray
    paths: np.ndarray
    grid: WhiteNoiseGrid | None = None
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hurst", _hurst(self.hurst))
        object.__setattr__(self, "stream", _integer("stream", self.stream, 0))
        if self.grid is not None:
            _instance("grid", self.grid, WhiteNoiseGrid)
        times = _time_grid(self.times)
        paths = _floats("paths", self.paths)
        if paths.ndim != 3 or paths.shape[1] != times.size:
            raise ConfigError(
                f"paths shape {paths.shape} does not match "
                f"{times.size} times")
        if np.any(paths[:, 0, :] != 0.0):
            raise ConfigError("paths must start at B(0) = 0 exactly")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "paths", paths)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def d(self) -> int:
        return self.paths.shape[2]

    def restrict_times(self, indices) -> "PathEnsemble":
        """The ensemble on a subset of its time columns.

        ``indices`` are integers below the number of times, increasing
        from 0 (the anchor B(0) = 0), else ``ConfigError``.  The paths
        are copied in C order, so each path's columns stay contiguous;
        the noise coordinates stay those of the full ensemble.
        """
        idx = _each(_integer, "time index", indices, 0)
        if not idx or idx[0] != 0:
            raise ConfigError("time subset must keep the t = 0 anchor")
        if max(idx) >= self.times.size:
            raise ConfigError(f"time index {max(idx)} is out of range for "
                              f"{self.times.size} times")
        idx = np.array(idx)
        return PathEnsemble(hurst=self.hurst, times=self.times[idx],
                            paths=np.take(self.paths, idx, axis=1),
                            grid=self.grid, stream=self.stream)


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


def _parallel(tasks: list[Callable[[], object]], n_threads: int) -> list:
    """The results of ``tasks`` run on up to ``n_threads`` threads; one
    task, or one thread, runs inline, and the thread pool is imported
    only when threads start, so importing loctime loads none."""
    if n_threads == 1 or len(tasks) == 1:
        return [task() for task in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n_threads) as ex:
        return [f.result() for f in [ex.submit(t) for t in tasks]]


def _tiles(lo: int, hi: int, rows: int) -> list[tuple[int, int]]:
    """Consecutive row ranges of at most ``rows`` rows covering [lo, hi)."""
    return [(a, min(a + rows, hi)) for a in range(lo, hi, rows)]


def _tile_rows(n_rows: int, row_bytes: int, n_threads: int) -> int:
    """Rows per pair-sum tile: a thread's share of ``n_rows``, capped at
    TILE_BYTES, but never split below TILE_FLOOR bytes for the sake of
    threads.
    """
    rows = max(-(-n_rows // n_threads), TILE_FLOOR // row_bytes)
    return max(min(rows, TILE_BYTES // row_bytes), 1)


def _noise(seed: int, stream: int, block: int, shape: tuple[int, ...],
           scale: float) -> np.ndarray:
    """I.i.d. N(0, scale^2) noise of ``shape`` for one RNG block: the one
    generator of the Monte Carlo layer, a Philox stream keyed by (seed,
    stream, block), independent of the other blocks and of the threads."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence((seed, stream, block))))
    return rng.normal(0.0, scale, size=shape)


def _fill_blocks(seed: int, stream: int, shape: tuple[int, ...],
                 scale: float, apply: Callable[[np.ndarray], np.ndarray],
                 n_threads: int | None, out: np.ndarray) -> np.ndarray:
    """Fill out[lo:hi] with apply(z) over the RNG blocks b of BLOCK paths
    (the last one the rest), z being ``_noise`` of block b and shape
    (hi - lo,) + shape.  The draws of a wave, one block per thread, run
    in parallel; ``apply`` runs in the calling thread on a whole block,
    so a BLAS product in it has shapes, and with them bits, that follow
    from the block layout alone.
    """
    n_threads = resolve_threads(n_threads)
    blocks = _tiles(0, out.shape[0], BLOCK)
    for w in range(0, len(blocks), n_threads):
        wave = blocks[w:w + n_threads]
        drawn = _parallel([functools.partial(_noise, seed, stream, b,
                                             (hi - lo,) + shape, scale)
                           for b, (lo, hi) in enumerate(wave, w)], n_threads)
        for (lo, hi), z in zip(wave, drawn):
            out[lo:hi] = apply(z)
    return out


def _kernel_matrix(hu: Hurst, times: np.ndarray,
                   grid: WhiteNoiseGrid) -> np.ndarray:
    """K[k, i] = (K1_[0, t_k])(x_i) at cell midpoints; row 0 is zero.

    Row k is ``increment_kernel(hu, Interval(0, t_k), x)`` bit for bit.
    The term (0 - x)_+^a that every row subtracts is formed once, and
    since the midpoints increase, a row's power (t_k - x)_+^a is taken
    on its prefix x < t_k alone; both terms vanish beyond it.
    """
    x = grid.midpoints
    if hu.a < 0.0:
        # A midpoint landing exactly on the kernel singularity x = 0 is a
        # measure-zero grid accident; nudge it by a deterministic
        # fraction of a cell.  One on x = t_k lies outside the prefix.
        x = np.where(x == 0.0, x + 1e-9 * grid.dx, x)
    c = _kernel_scale(hu.h)
    origin = _plus_power(0.0 - x, hu.a)
    K = np.zeros((times.size, x.size))
    for k, t in enumerate(times[1:], 1):
        n = np.searchsorted(x, t)
        K[k, :n] = c * ((t - x[:n]) ** hu.a - origin[:n])
    return K


def sample_paths_whitenoise(h, d: int, times, grid: WhiteNoiseGrid,
                            n_paths: int, stream: int = 0, *,
                            n_threads: int | None = None) -> PathEnsemble:
    """Simulate fBm paths from discretized white noise.

    B_j(t_k) = sum_i K(t_k, x_i) dW_{j,i} with independent components
    sharing the kernel matrix.  Conditional on the grid, the covariance
    is the discrete kernel inner product; it approaches
    ``fbm_covariance`` as dx -> 0 and x_lo -> -inf.

    Each RNG block's noise, as z of shape (n d, cells) with row j d + c
    for component c of path j, is multiplied by the kernel rows of
    WINDOW times at a time, z @ K[r:r + WINDOW].T, in the calling
    thread.  A window starts at min(r, T - WINDOW) for T times: the last
    one overlaps the one before it instead of being padded, so K is not
    copied; only below WINDOW times does K get zero rows up to WINDOW.
    Every product has one shape, so a time's values are the same bits in
    any time grid that holds it, and for any ``n_threads``; like the
    Cholesky paths, they depend on the BLAS build and its own thread
    setting.
    """
    hu = _hurst(h)
    d = _integer("d", d, 1)
    n_paths = _integer("n_paths", n_paths, 1)
    stream = _integer("stream", stream, 0)
    times = _time_grid(times)
    grid = _instance("grid", grid, WhiteNoiseGrid)
    K = _kernel_matrix(hu, times, grid)
    if times.size < WINDOW:
        K = np.concatenate([K, np.zeros((WINDOW - times.size, grid.n_cells))])
    n_rows = K.shape[0]

    def apply(dW: np.ndarray) -> np.ndarray:
        n = dW.shape[0]
        z = dW.reshape(n * d, grid.n_cells)
        rows = np.empty((n, n_rows, d))
        for r in range(0, n_rows, WINDOW):
            lo = min(r, n_rows - WINDOW)
            rows[:, lo:lo + WINDOW] = (z @ K[lo:lo + WINDOW].T).reshape(
                n, d, WINDOW).transpose(0, 2, 1)
        return rows[:, :times.size]

    out = _fill_blocks(grid.seed, stream, (d, grid.n_cells),
                       math.sqrt(grid.dx), apply, n_threads,
                       np.empty((n_paths, times.size, d)))
    out[:, 0] = 0.0
    return PathEnsemble(hurst=hu, times=times, paths=out, grid=grid,
                        stream=stream)


def _covariance_factor(hu: Hurst, pos: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the fBm covariance at the times ``pos``.

    Round-off can leave the covariance matrix marginally indefinite; an
    escalating diagonal jitter up to 1e-6 of the mean variance is
    applied before giving up.
    """
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
    return chol


def sample_paths_cholesky(h, d: int, times, n_paths: int, stream: int = 0, *,
                          seed: int = 0,
                          n_threads: int | None = None) -> PathEnsemble:
    """Simulate fBm paths with the exact covariance factorization.

    The reference generator: no x-truncation or cell-size bias, but
    also no noise grid (so it cannot drive the S-transform estimator).
    Each RNG block draws noise of shape (n, d, m), taken as z of shape
    (n d, m), row j d + c for component c of the block's path j, and its
    paths are the one BLAS product z @ chol.T.  The draws of a wave run
    on the threads; the products run in the calling thread, each on a
    whole block, so their shapes, and with them the bits, depend on the
    block layout only.  The paths thus depend on the BLAS build and its
    own thread setting, as the LAPACK factor does, but never on
    ``n_threads``.
    """
    hu = _hurst(h)
    d = _integer("d", d, 1)
    n_paths = _integer("n_paths", n_paths, 1)
    stream = _integer("stream", stream, 0)
    seed = _integer("seed", seed, 0)
    times = _time_grid(times)
    mm = times.size - 1
    chol_t = _covariance_factor(hu, times[1:]).T
    out = np.empty((n_paths, times.size, d))
    out[:, 0, :] = 0.0

    def apply(z: np.ndarray) -> np.ndarray:
        paths = z.reshape(-1, mm) @ chol_t
        return paths.reshape(-1, d, mm).transpose(0, 2, 1)

    _fill_blocks(seed, stream, (d, mm), 1.0, apply, n_threads, out[:, 1:])
    return PathEnsemble(hurst=hu, times=times, paths=out, stream=stream)


# ---------------------------------------------------------------------------
# Estimators


def _pair_sums(ens: PathEnsemble, eps: float, n_trunc: int = 0,
               sigma_sq: np.ndarray | None = None,
               n_threads: int | None = None) -> np.ndarray:
    """Per-path weighted pair sums of the Gaussian kernel.

    Computes sum_{j<k} w_j w_k [p_eps(dB) - q_jk(|dB|^2)] with
    dB = B_k - B_j over the positive-time columns for every path.  The
    pairs are taken lag by lag, l = k - j = 1, ..., m-1, with weights
    w[:-l] * w[l:].  q_jk is 0 at n_trunc = 0, else the truncation
    subtractor at the pair variance ``sigma_sq[k, j]``, an (m, m) matrix
    over the positive times: its coefficients are computed once on the
    diagonals of ``sigma_sq`` laid end to end, lag after lag, and each
    lag evaluates its slice on its |dB|^2 by Horner's rule.

    A row tile of about TILE_BYTES copies its paths to shape (d, m, n),
    so a lag's differences B[l:] - B[:-l] are contiguous blocks.  Per
    lag, the buffer ``sq`` gets |dB|^2 (a subtract and a square per
    component, the later ones through a second buffer), then in place
    exp(-|dB|^2 / (2 eps)).  einsum reduces it and the subtracted values
    against the lag weights with its own loop, not BLAS, summing each
    path's column pair by pair; a one-path tile gets a zero second
    column, since einsum sums a lone column by another loop.  The lag
    sums are added in increasing lag order, so a path's sum is
    bit-identical for any tiling and thread count, and (2 pi eps)^{-d/2}
    multiplies each total once, at the end.  If that constant overflows,
    a total is not finite, or every path's total is exactly 0 (the
    kernel underflowed at every pair), the sums raise AccuracyError.
    """
    m = ens.times.size - 1
    if m < 2:
        raise ConfigError("need at least two positive times for pair sums")
    d = ens.d
    w = _cell_widths(ens.times[1:])
    try:
        pref = (_TWO_PI * eps) ** (-0.5 * d)
    except OverflowError:
        raise AccuracyError(
            f"the Gaussian kernel's constant (2 pi eps)^(-d/2) is beyond "
            f"the double range at eps = {eps:.3g}, d = {d}") from None
    scale = -0.5 / eps
    B = ens.paths[:, 1:, :]
    if n_trunc:
        coeffs = _subtractor_coeffs(n_trunc, d, eps, np.concatenate(
            [sigma_sq.diagonal(-lag) for lag in range(1, m)])[:, None])
        starts = np.cumsum([0] + list(range(m - 1, 0, -1)))
        lag_coeffs = [[c[lo:hi] for c in coeffs]
                      for lo, hi in zip(starts[:-1], starts[1:])]

    sums = np.empty(ens.n_paths)

    def tile(lo: int, hi: int) -> None:
        n = hi - lo
        cols = max(n, 2)
        paths = np.zeros((d, m, cols))
        paths[:, :, :n] = np.transpose(B[lo:hi], (2, 1, 0))
        sq_buf = np.empty((m - 1) * cols)
        part_buf = np.empty((m - 1) * cols) if d > 1 else None
        row = np.empty(cols)
        vals = np.zeros(cols)
        # |dB|^2 may overflow to inf, where the kernel is 0; a total that
        # is not finite is refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            for lag in range(1, m):
                k = m - lag
                sq = sq_buf[:k * cols].reshape(k, cols)
                np.subtract(paths[0, lag:], paths[0, :-lag], out=sq)
                np.square(sq, out=sq)
                for c in range(1, d):
                    part = part_buf[:k * cols].reshape(k, cols)
                    np.subtract(paths[c, lag:], paths[c, :-lag], out=part)
                    np.square(part, out=part)
                    sq += part
                if n_trunc:
                    poly = _horner(lag_coeffs[lag - 1], sq)
                np.multiply(sq, scale, out=sq)
                np.exp(sq, out=sq)
                w_lag = w[:-lag] * w[lag:]
                np.einsum("ji,j->i", sq, w_lag, out=row)
                if n_trunc:
                    row -= np.einsum("ji,j->i", poly, w_lag)
                vals += row
        # Each tile writes only its own paths' sums.
        sums[lo:hi] = pref * vals[:n]

    n_threads = resolve_threads(n_threads)
    rows = _tile_rows(ens.n_paths, m * d * B.itemsize, n_threads)
    _parallel([functools.partial(tile, lo, hi)
               for lo, hi in _tiles(0, ens.n_paths, rows)], n_threads)
    if not np.any(sums):
        raise AccuracyError(
            f"every pair sum is exactly 0 over {ens.n_paths} paths at "
            f"eps = {eps:.3g}: the Gaussian kernel underflowed at every "
            "pair, and the estimate would read 0 +- 0")
    if not np.isfinite(sums).all():
        raise AccuracyError(
            f"a pair sum over {ens.n_paths} paths at eps = {eps:.3g} is "
            "beyond the double range: |dB|^2 or a subtracted Hermite term "
            "overflowed")
    return sums


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
    _finite("the estimator's eps", eps, 0.0, strict=True)
    ens = _instance("ensemble", ens, PathEnsemble)
    return _mc_reduce(_pair_sums(ens, eps, n_threads=n_threads))


def _subtractor_coeffs(n_trunc: int, d: int, eps: float,
                       sigma_sq: np.ndarray) -> list[np.ndarray]:
    """Coefficients, per pair, of the polynomial in r^2 = |dB|^2 that
    removes chaos orders below n_trunc (lowest order first).

    The order-2k Hermite projection of p_eps(dB) for a centered
    Gaussian pair increment of per-component variance s = sigma^2 is

        (2 pi w)^{-d/2} (-1/2)^k w^{-k}
            sum_{|m| = k} prod_j He_{2 m_j}^{s}(dB_j) / m_j!,

    w = eps + s.  By the Hermite-Laguerre generating functions (DLMF
    18.12) the sum is (-2s)^k L_k^{(d/2-1)}(r^2 / (2s)), that is

        sum_{i<=k} (-1)^(k+i) 2^(k-i) C(k+d/2-1, k-i) s^(k-i) r^(2i) / i!,

    a polynomial that needs no division by s and equals r^(2k)/k! at
    s = 0 (pairs whose increment the noise grid does not resolve).
    Subtracting k < n_trunc makes the estimator on drift-shifted paths
    close exactly onto exp_N in the discrete model.  The orders are
    summed here into one polynomial in r^2 with per-pair coefficients

        (eps/w)^{d/2} (-1/(2w))^i / i!
            sum_{i<=k<n_trunc} C(k+d/2-1, k-i) (s/w)^(k-i),

    in units of p_eps's constant (2 pi eps)^{-d/2}, which ``_pair_sums``
    applies to each path's total.  The coefficients are elementwise in
    ``sigma_sq``: ``_pair_sums`` computes them once on every lag's pair
    variances, laid end to end, and each value is the one that lag's
    variances alone give.  The binomials and (-1/(2w))^i / i!
    are running products, so no large gamma or power is formed; a
    coefficient that still overflows raises AccuracyError.
    """
    alpha = 0.5 * d - 1.0
    w_tot = eps + sigma_sq
    ratio = sigma_sq / w_tot
    lead = (eps / w_tot) ** (0.5 * d)
    coeffs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_trunc):
            if i > 0:
                lead = lead * (-0.5 / i) / w_tot
            acc = np.zeros_like(sigma_sq)
            binom = 1.0  # C(k + alpha, k - i) at k = i
            for k in range(i, n_trunc):
                acc = acc + binom * ratio ** (k - i)
                binom *= (k + 1.0 + alpha) / (k + 1.0 - i)
            coeffs.append(lead * acc)
    if not all(np.isfinite(c).all() for c in coeffs):
        raise AccuracyError(
            f"the truncation subtractor of order {n_trunc} at d = {d}, "
            f"eps = {eps:.3g} has coefficients beyond the double range")
    return coeffs


def _horner(coeffs: list[np.ndarray], r_sq: np.ndarray) -> np.ndarray:
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * r_sq + c
    return out


def _wick_weights(ens: PathEnsemble, fvals: np.ndarray, *,
                  n_threads: int | None = None) -> np.ndarray:
    """Per-path Wick exponential exp(<noise, f> - |f|^2/2), discretized.

    ``fvals`` holds f_j at the grid midpoints, shape (d, n_cells).  The
    discrete norm makes the weight's expectation exactly one for the
    generated noise.  <noise, f> is one BLAS product per RNG block.
    """
    grid = ens.grid
    half_norm = 0.5 * float(np.sum(fvals * fvals)) * grid.dx

    def apply(dW: np.ndarray) -> np.ndarray:
        return np.exp(dW.reshape(dW.shape[0], -1) @ fvals.ravel()
                      - half_norm)

    weights = _fill_blocks(grid.seed, ens.stream, (ens.d, grid.n_cells),
                           math.sqrt(grid.dx), apply, n_threads,
                           np.empty(ens.n_paths))
    if not np.any(weights):
        raise AccuracyError(
            f"every Wick weight underflowed to 0 over {ens.n_paths} paths "
            f"(|f|^2/2 = {half_norm:.3g}); the estimate would read 0 +- 0")
    return weights


def _require_whitenoise(ens, what: str) -> None:
    _instance("ensemble", ens, PathEnsemble)
    if ens.grid is None:
        raise ConfigError(
            f"{what} needs the white-noise generator: the ensemble must "
            "carry its noise grid, and a Cholesky ensemble has none")


def _f_values(ens: PathEnsemble, f) -> np.ndarray:
    bundle = _as_bundle(f, ens.d)
    x = ens.grid.midpoints
    fvals = np.stack([fj.eval(x) for fj in bundle.components])
    _require_finite(bundle.components, fvals,
                    "a value at a noise-grid midpoint")
    return fvals


def mc_weight_check(ens: PathEnsemble, f, *,
                    n_threads: int | None = None) -> McEstimate:
    """Sample mean of the Wick weight; the exact expectation is 1."""
    _require_whitenoise(ens, "the weight check")
    fvals = _f_values(ens, f)
    return _mc_reduce(_wick_weights(ens, fvals, n_threads=n_threads))


def mc_s_transform(ens: PathEnsemble, f, eps: float, n_trunc: int = 0, *,
                   n_threads: int | None = None) -> McEstimate:
    """Estimate the S-transform of the (truncated) regularized local time.

    S F(f) = E[F(B + K(f dx))]: every path is shifted by the discrete
    Cameron-Martin drift K (f dx), the kernel matrix applied to f at the
    noise midpoints, and the pair-rule functional is averaged over the
    shifted paths.  For n_trunc >= 1 the functional subtracts the
    Hermite projections of orders below n_trunc pair by pair, at the
    pair variances of the unshifted paths; conditional on the grids, the
    estimator's expectation is then

        sum_{j<k} w_j w_k (2 pi (eps + s_jk))^{-d/2}
            exp_N(-|u_jk|^2 / (2 (eps + s_jk)))

    with s_jk the discrete pair variance and u_jk the discrete pairing,
    the exact pair-rule discretization of the analytic S-transform.
    The pair variances s_jk = g_jj + g_kk - 2 g_jk come from the Gram
    matrix g of the kernel rows and go to ``_pair_sums`` with n_trunc.
    At f = 0 the drift is exactly zero, so with n_trunc = 0 the result
    is bit-identical to ``mc_local_time_regularized``.
    """
    _finite("the estimator's eps", eps, 0.0, strict=True)
    _require_whitenoise(ens, "the S-transform estimator")
    n_trunc = _order("truncation level", n_trunc)
    K = _kernel_matrix(ens.hurst, ens.times, ens.grid)
    drift = K @ (_f_values(ens, f).T * ens.grid.dx)

    sigma_sq = None
    if n_trunc >= 1:
        # K scaled in place by sqrt(dx): numpy takes K @ K.T as one
        # symmetric rank-k update, so the Gram matrix is exactly symmetric.
        K *= math.sqrt(ens.grid.dx)
        gram = K @ K.T
        diag = np.diag(gram)[1:]
        sigma_sq = diag[:, None] + diag[None, :] - 2.0 * gram[1:, 1:]
        del gram, diag
    # K and its Gram matrix would only add to the pair sums' peak memory.
    del K

    shifted = replace(ens, paths=ens.paths + drift)
    return _mc_reduce(_pair_sums(shifted, eps, n_trunc, sigma_sq,
                                 n_threads=n_threads))


def _sample_paths(generator: str, h, d: int, times, n_paths: int,
                  stream: int = 0, *, seed: int = 0,
                  n_threads: int | None = None) -> PathEnsemble:
    """Paths from the sampler named by ``generator``, one of GENERATORS;
    a white-noise ensemble runs on the default grid with ``seed``."""
    if generator == "whitenoise":
        return sample_paths_whitenoise(h, d, times, WhiteNoiseGrid(seed=seed),
                                       n_paths, stream, n_threads=n_threads)
    if generator == "cholesky":
        return sample_paths_cholesky(h, d, times, n_paths, stream, seed=seed,
                                     n_threads=n_threads)
    raise ConfigError(f"unknown generator '{generator}'")


def mc_grid_bias(h, d: int, eps: float, m: int, n_paths: int,
                 stream: int = 0, *, seed: int = 0,
                 generator: str = "cholesky", n_threads: int | None = None
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

    ``generator`` is one of GENERATORS, and ``seed`` seeds its paths.
    """
    _finite("the estimator's eps", eps, 0.0, strict=True)
    t1 = make_midpoint_times(m)
    t2 = make_midpoint_times(2 * m)
    union = np.unique(np.concatenate([t1, t2]))
    ens = _sample_paths(generator, h, d, union, n_paths, stream, seed=seed,
                        n_threads=n_threads)
    idx1 = np.searchsorted(union, t1)
    idx2 = np.searchsorted(union, t2)
    est1 = mc_local_time_regularized(ens.restrict_times(idx1), eps,
                                     n_threads=n_threads)
    est2 = mc_local_time_regularized(ens.restrict_times(idx2), eps,
                                     n_threads=n_threads)
    rate = min(2.0 * _hurst(h).h, 1.0)
    bias_hat = abs(est1.mean - est2.mean) / (1.0 - 2.0 ** -rate)
    return est1, est2, bias_hat
