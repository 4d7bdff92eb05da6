"""Reference S-transforms of narrow Gaussian bumps at H = 1/2.

Run as ``python tests/bump_references.py`` (scipy, about a minute); it
prints the constants ``BUMP_REFERENCES`` of ``tests/test_stransform.py``.

At H = 1/2 the pairing of A exp(-(x - c)^2 / (2 w^2)) with the indicator
of [t1, t1 + tau] is the erf difference

    v = A w sqrt(pi/2) (erf((t1 + tau - c) / (sqrt(2) w))
                        - erf((t1 - c) / (sqrt(2) w))),

so S L = int_0^1 (2 pi (eps + tau))^(-1/2) int_0^(1 - tau)
exp(-v^2 / (2 (eps + tau))) dt1 dtau at d = 1, N = 0 needs no pairing
table.  Both integrals are scipy's adaptive ``quad``, split where v
changes on the scale w: tau near 0 and w, t1 near c - tau and c.
"""

import math

from scipy.integrate import quad

EPS = 0.01
CENTER = 0.45
CASES = ((30.0, 0.01), (1.0, 0.003), (1.0, 0.01))


def s_transform(amp: float, width: float) -> tuple[float, float]:
    """Value and the sum of the outer and inner error estimates."""
    scale = amp * width * math.sqrt(math.pi / 2.0)
    root = math.sqrt(2.0) * width
    inner_err = [0.0]

    def inner(tau):
        wt = EPS + tau

        def body(t1):
            v = scale * (math.erf((t1 + tau - CENTER) / root)
                         - math.erf((t1 - CENTER) / root))
            return math.exp(-v * v / (2.0 * wt))

        top = 1.0 - tau
        marks = sorted({min(max(p, 0.0), top) for c in (CENTER - tau, CENTER)
                        for p in (c - 8.0 * width, c, c + 8.0 * width)}
                       - {0.0, top})
        val, err = quad(body, 0.0, top, points=marks or None, limit=400,
                        epsabs=1e-14, epsrel=1e-13)
        inner_err[0] = max(inner_err[0], err)
        return val / math.sqrt(2.0 * math.pi * wt)

    marks = [width * k for k in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    val, err = quad(inner, 0.0, 1.0, points=marks, limit=400, epsabs=1e-14,
                    epsrel=1e-13)
    return val, err + inner_err[0]


if __name__ == "__main__":
    for amp, width in CASES:
        val, err = s_transform(amp, width)
        print(f"    ({amp!r}, {width!r}): ({val!r}, {err:.1e}),")
