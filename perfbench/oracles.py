"""References computed apart from loctime.

Nothing here imports loctime.  Three kinds of reference live in this
module:

* closed forms evaluated in double precision during a run (the f = 0
  moment, the H = 1/2 chaos kernels, the Mandelbrot-Van Ness constant);
* exact expectations of the Monte Carlo estimators, built from the run's
  own inputs (pair-rule sums over the time grid, and for white-noise
  paths the benchmark's own kernel matrix, its Gram matrix and exp_N);
* ``mpmath`` quadratures behind the stored references in
  ``references.json``, which ``recompute.py`` evaluates from scratch.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Gaussian bumps (amplitude, center, width) used as test functions.
BUMPS_1 = ((0.5, 0.45, 0.2),)
BUMPS_2 = ((0.5, 0.45, 0.2), (-0.3, 0.6, 0.25))
# White-noise S-transform test function: a small bump keeps the Wick
# weights' log-variance near 0.05, so the standard error is honest.
WICK_BUMP = (0.3, 0.4, 0.3)

# Stored references: key -> parameters.  ``recompute.py`` evaluates each
# with mpmath and writes ``references.json``.
STORED_CASES = {
    # f = 0, eps > 0: one-dimensional tau integral.
    "f0_eps:H=0.5,d=1,eps=1e-4": ("f0_eps", 0.5, 1, 1e-4),
    "f0_eps:H=0.3,d=2,eps=1e-6": ("f0_eps", 0.3, 2, 1e-6),
    "f0_eps:H=0.7,d=1,eps=1e-5": ("f0_eps", 0.7, 1, 1e-5),
    "f0_eps:H=0.25,d=3,eps=1e-8": ("f0_eps", 0.25, 3, 1e-8),
    # f != 0 at H = 1/2: two-dimensional integral of the erf pairing.
    "bump_half:d=1,N=0,eps=0": ("bump_half", 1, 0, 0.0),
    "bump_half:d=1,N=1,eps=0": ("bump_half", 1, 1, 0.0),
    "bump_half:d=1,N=1,eps=0.01": ("bump_half", 1, 1, 0.01),
    "bump_half:d=2,N=1,eps=0": ("bump_half", 2, 1, 0.0),
    # Order-2 kernel at H != 1/2, d = 1: nested quadrature of the
    # closed-form increment kernels.
    "kernel:H=0.75,u=(0.2,0.5)": ("kernel", 0.75, (0.2, 0.5)),
}


# ---------------------------------------------------------------------------
# Closed forms


def kernel_scale(h: float) -> float:
    """c_H with |K 1_[0,1]|_L2 = 1, from the Mandelbrot-Van Ness identity.

    1/(2H) + int_0^inf ((1+u)^a - u^a)^2 du = Gamma(H+1/2)^2 /
    (Gamma(2H+1) sin(pi H)).
    """
    return math.sqrt(math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h)) \
        / math.gamma(h + 0.5)


def moment_f0(h: float, d: int) -> float:
    """S-transform at f = 0, eps = 0, N = 0: (2pi)^(-d/2)/((1-dH)(2-dH))."""
    return TWO_PI ** (-0.5 * d) / ((1.0 - d * h) * (2.0 - d * h))


def half_kernel(orders, blocks, eps: float = 0.0) -> float:
    """Chaos kernel at H = 1/2 (regularized when eps > 0), closed form.

    At H = 1/2 the increment kernel of [t1, t2] is the indicator of
    [t1, t2), so the product over all points restricts the time triangle
    to t1 < m = min(u), t2 > M = max(u).  The weight is
    (eps + tau)^(-beta) with beta = n + d/2 in both the bare and the
    regularized kernel, and

        int_0^m int_M^1 (eps + t2 - t1)^(-beta) dt2 dt1
            = P(eps+M-m) - P(eps+M) - P(eps+1-m) + P(eps+1),
        P(x) = x^(2-beta) / ((1-beta)(2-beta)),

    valid for beta not in {1, 2}.
    """
    n = sum(orders)
    beta = n + 0.5 * len(orders)
    if beta in (1.0, 2.0):
        raise ValueError("closed form needs beta outside {1, 2}")
    pts = [u for b in blocks for u in b]
    m, big = min(pts), max(pts)

    def prim(x):
        if x == 0.0:
            if beta < 2.0:
                return 0.0
            raise ValueError("coincident extreme points diverge here")
        return x ** (2.0 - beta) / ((1.0 - beta) * (2.0 - beta))

    area = (prim(eps + big - m) - prim(eps + big) - prim(eps + 1.0 - m)
            + prim(eps + 1.0))
    return (-1) ** n * kernel_prefactor(orders) * area


def kernel_prefactor(orders) -> float:
    """|(2pi)^(-d/2) (-1/2)^n / prod n_j!|, the scale of a kernel's tol."""
    out = TWO_PI ** (-0.5 * len(orders)) * 0.5 ** sum(orders)
    for k in orders:
        out /= math.factorial(k)
    return out


def gaussian(params, x):
    amp, center, width = params
    return amp * np.exp(-0.5 * ((x - center) / width) ** 2)


def exp_tail(x, n: int):
    """exp_N(x) = sum_{k >= N} x^k / k!, vectorized, cancellation-free.

    |x| < 1 sums the series from k = N (40 terms reach 1e-48); larger
    |x| subtracts the head from exp(x), where nothing cancels badly.
    """
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.exp(x)
    small = np.abs(x) < 1.0
    out = np.empty_like(x)
    xs = x[small]
    term = xs ** n / math.factorial(n)
    acc = term.copy()
    for k in range(n + 1, n + 40):
        term = term * xs / k
        acc += term
    out[small] = acc
    xl = x[~small]
    head = np.zeros_like(xl)
    term = np.ones_like(xl)
    for k in range(n):
        head += term
        term = term * xl / (k + 1)
    out[~small] = np.exp(xl) - head
    return out


# ---------------------------------------------------------------------------
# Monte Carlo expectations


def midpoint_times(m: int) -> np.ndarray:
    return np.concatenate([[0.0], (np.arange(m) + 0.5) / m])


def cell_widths(times_pos: np.ndarray) -> np.ndarray:
    """Widths of the cells [mid_{k-1,k}, mid_{k,k+1}] within [0, 1]."""
    inner = 0.5 * (times_pos[:-1] + times_pos[1:])
    edges = np.concatenate([[0.0], inner, [1.0]])
    return edges[1:] - edges[:-1]


def pair_rule_expectation(h: float, d: int, eps: float,
                          times: np.ndarray) -> float:
    """E of the pair rule over exact fBm paths.

    sum_{j<k} w_j w_k (2pi (eps + (t_k - t_j)^(2H)))^(-d/2).
    """
    t = np.asarray(times[1:], dtype=float)
    w = cell_widths(t)
    total = 0.0
    for j in range(t.size - 1):
        var = (t[j + 1:] - t[j]) ** (2.0 * h)
        total += w[j] * float(np.sum(w[j + 1:]
                                     * (TWO_PI * (eps + var)) ** (-0.5 * d)))
    return total


def noise_midpoints(x_lo: float, x_hi: float, n_cells: int) -> np.ndarray:
    dx = (x_hi - x_lo) / n_cells
    return x_lo + (np.arange(n_cells) + 0.5) * dx


def kernel_matrix(h: float, times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K[k, i] = c_H ((t_k - x_i)_+^a - (-x_i)_+^a) for H > 1/2."""
    a = h - 0.5
    if a <= 0.0:
        raise ValueError("the white-noise oracle is written for H > 1/2")
    c = kernel_scale(h)
    minus_x = np.where(x < 0.0, -x, 0.0) ** a
    out = np.zeros((len(times), x.size))
    for k, t in enumerate(times):
        if t > 0.0:
            out[k] = c * (np.where(x < t, t - x, 0.0) ** a - minus_x)
    return out


def whitenoise_expectation(h: float, eps: float, n_trunc: int,
                           times: np.ndarray, x: np.ndarray, dx: float,
                           fvals: np.ndarray) -> float:
    """Exact expectation of the Wick-weighted pair rule in the discrete model.

    sum_{j<k} w_j w_k (2pi (eps + s_jk))^(-d/2)
        exp_N(-|u_jk|^2 / (2 (eps + s_jk)))

    with s_jk = G_kk + G_jj - 2 G_jk from the Gram matrix G = K K^T dx
    and u_jk = (K_k - K_j) . f dx; ``fvals`` has shape (d, cells).
    """
    kmat = kernel_matrix(h, times, x)[1:]
    d = fvals.shape[0]
    gram = (kmat * dx) @ kmat.T
    proj = (kmat * dx) @ fvals.T            # (times, d)
    diag = np.diag(gram)
    w = cell_widths(np.asarray(times[1:], dtype=float))
    total = 0.0
    for j in range(kmat.shape[0] - 1):
        s = diag[j + 1:] + diag[j] - 2.0 * gram[j, j + 1:]
        u = proj[j + 1:] - proj[j]
        wt = eps + s
        y = -0.5 * np.sum(u * u, axis=1) / wt
        total += w[j] * float(np.sum(w[j + 1:] * (TWO_PI * wt) ** (-0.5 * d)
                                     * exp_tail(y, n_trunc)))
    return total


def whitenoise_variance(h: float, t: float, x: np.ndarray, dx: float) -> float:
    """Var B(t) per component in the discrete white-noise model."""
    row = kernel_matrix(h, [t], x)[0]
    return float(np.sum(row * row) * dx)


# ---------------------------------------------------------------------------
# Stored references (mpmath)


def mp_f0_eps(h: float, d: int, eps: float, dps: int = 30):
    """(2pi)^(-d/2) int_0^1 (1 - tau) (eps + tau^(2H))^(-d/2) dtau.

    The integrand turns over at tau = eps^(1/2H); without breakpoints
    there, fixed-precision quadrature misses the peak.
    """
    import mpmath as mp

    mp.mp.dps = dps
    H, e = mp.mpf(h), mp.mpf(eps)
    knee = e ** (1 / (2 * H))
    pts = sorted({mp.mpf(0), mp.mpf(1)}
                 | {p for p in (knee / 100, knee / 10, knee, 10 * knee,
                                100 * knee) if 0 < p < 1})
    val, err = mp.quad(lambda t: (1 - t) * (e + t ** (2 * H)) ** (-mp.mpf(d) / 2),
                       pts, error=True)
    return float((2 * mp.pi) ** (-mp.mpf(d) / 2) * val), float(err)


def _mp_exp_tail(x, n: int):
    import mpmath as mp

    if n == 0:
        return mp.exp(x)
    if abs(x) < 1:
        term = x ** n / mp.factorial(n)
        acc = term
        k = n
        while abs(term) > mp.mpf(10) ** (-mp.mp.dps - 5) * max(abs(acc), 1e-300):
            k += 1
            term = term * x / k
            acc += term
        return acc
    return mp.exp(x) - sum(x ** k / mp.factorial(k) for k in range(n))


def mp_bump_half(d: int, n_trunc: int, eps: float, dps: int = 20):
    """S-transform at H = 1/2 for the Gaussian bumps of BUMPS_1 / BUMPS_2.

    At H = 1/2 the pairing of a bump with the indicator of [t1, t2] is
    an erf difference; the triangle integral of

        (2pi (eps + tau))^(-d/2) exp_N(-|v|^2 / (2 (eps + tau)))

    is taken as nested tanh-sinh quadrature over tau and t1.
    """
    import mpmath as mp

    mp.mp.dps = dps
    bumps = (BUMPS_1, BUMPS_2)[d - 1]
    e = mp.mpf(eps)
    consts = [(mp.mpf(a) * mp.mpf(w) * mp.sqrt(mp.pi / 2), mp.mpf(c),
               mp.sqrt(2) * mp.mpf(w)) for a, c, w in bumps]

    def inner(tau):
        wt = e + tau

        def body(t1):
            vv = 0
            for amp, c, s in consts:
                vv += (amp * (mp.erf((t1 + tau - c) / s)
                              - mp.erf((t1 - c) / s))) ** 2
            return _mp_exp_tail(-vv / (2 * wt), n_trunc)

        return ((2 * mp.pi * wt) ** (-mp.mpf(d) / 2)
                * mp.quad(body, [0, 1 - tau]))

    val, err = mp.quad(inner, [0, mp.mpf(1) / 1000, mp.mpf(1) / 10, 1],
                       error=True)
    return float(val), float(err)


def mp_kernel(h: float, points, dps: int = 30):
    """Order-2 kernel at d = 1 by nested quadrature of the closed form.

    pref * int_{0<t1<t2<1} tau^(-3H) prod_i c_H ((t2-u_i)_+^a - (t1-u_i)_+^a)
    with tau = t2 - t1 and pref = -(2pi)^(-1/2) / 2; breakpoints at the
    points u_i.
    """
    import mpmath as mp

    mp.mp.dps = dps
    H = mp.mpf(h)
    a = H - mp.mpf(1) / 2
    c = mp.sqrt(mp.gamma(2 * H + 1) * mp.sin(mp.pi * H)) / mp.gamma(H + mp.mpf(1) / 2)
    us = [mp.mpf(u) for u in points]

    def plus(x):
        return x ** a if x > 0 else mp.mpf(0)

    def inner(t1):
        # In tau = t2 - t1, so that tau^(-3H) never meets tau = 0 even
        # where t1 + tau rounds back to t1 (the product is 0 there).
        def body(tau):
            prod = tau ** (-3 * H)
            for u in us:
                prod *= c * (plus(t1 + tau - u) - plus(t1 - u))
            return prod

        pts = ([mp.mpf(0)] + sorted(u - t1 for u in us if t1 < u < 1)
               + [1 - t1])
        return mp.quad(body, pts)

    outer_pts = [mp.mpf(0)] + sorted(u for u in us if 0 < u < 1) + [mp.mpf(1)]
    val, err = mp.quad(inner, outer_pts, error=True)
    pref = -(2 * mp.pi) ** (-mp.mpf(1) / 2) / 2
    return float(pref * val), float(abs(pref) * err)


def compute_stored(key: str):
    """Evaluate one entry of STORED_CASES; returns (value, mpmath error)."""
    case = STORED_CASES[key]
    kind = case[0]
    if kind == "f0_eps":
        return mp_f0_eps(*case[1:])
    if kind == "bump_half":
        return mp_bump_half(*case[1:])
    if kind == "kernel":
        return mp_kernel(*case[1:])
    raise KeyError(key)
