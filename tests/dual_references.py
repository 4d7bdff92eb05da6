"""Reference values of the dual operator K+ from its original forms.

Run as ``python tests/dual_references.py`` (mpmath at 30 digits, about
a second); it prints the constants ``DUAL_REFERENCES`` of
``tests/test_fracops.py``.

With a = H - 1/2 and c_H = sqrt(Gamma(2H + 1) sin(pi H)) / Gamma(H + 1/2),

    a > 0:  (K+ f)(x) = c_H a int_0^inf f(x - u) u^(a-1) du,
    a < 0:  (K+ f)(x) = c_H (-a) int_0^inf (f(x) - f(x - y)) y^(a-1) dy,

the second, Marchaud's form, cut at Y = x + 12, beyond which f(x - y)
is below 1e-30, and closed by its tail f(x) Y^a / (-a).  Neither is the
form ``dual_apply`` integrates, c_H int_0^inf f'(x - u) u^a du, so the
values check that identity too.  mpmath's tanh-sinh rule runs on pieces
split where x - u crosses the centre of f and a few widths either side.
"""

import mpmath

mpmath.mp.dps = 30


def bump(amp, centre, width):
    amp, centre, width = map(mpmath.mpf, (amp, centre, width))
    return (lambda x: amp * mpmath.exp(-((x - centre) / width) ** 2 / 2),
            centre, width)


def hermite1(shift):
    """h_1(x - shift) = sqrt(2) (x - shift) pi^(-1/4) e^(-(x - shift)^2/2)."""
    shift = mpmath.mpf(shift)

    def f(x):
        y = x - shift
        return mpmath.sqrt(2) * y * mpmath.pi ** -0.25 * mpmath.exp(-y * y / 2)

    return f, shift, mpmath.mpf(1)


# (label, function, H, x); label is the key the tests use.
CASES = (
    [(("bump(1, .45, .01)", h, 0.9), bump(1, 0.45, 0.01), h, 0.9)
     for h in (0.9, 0.7, 0.3, 0.02)]
    + [(("bump(.7, .2, .4)", 0.02, x), bump(0.7, 0.2, 0.4), 0.02, x)
       for x in (-0.4, 0.0)]
    + [(("h1@.4", 0.02, 0.9), hermite1(0.4), 0.02, 0.9)])


def dual(fcw, h, x):
    """(K+ f)(x) and the sum of mpmath's error estimates, scaled alike."""
    f, centre, width = fcw
    h, x = mpmath.mpf(h), mpmath.mpf(x)
    a = h - mpmath.mpf(0.5)
    c = mpmath.sqrt(mpmath.gamma(2 * h + 1) * mpmath.sin(mpmath.pi * h)) \
        / mpmath.gamma(h + mpmath.mpf(0.5))
    Y = x + 12
    cuts = sorted({x - centre + k * width for k in (-8, -2, -1, 0, 1, 2, 8)}
                  | {mpmath.mpf(0), Y})
    cuts = [u for u in cuts if 0 <= u <= Y]
    if a > 0:
        body = lambda u: f(x - u) * u ** (a - 1)
        val, err = mpmath.quad(body, cuts + [mpmath.inf], error=True)
        return c * a * val, c * a * err
    fx = f(x)
    body = lambda y: (fx - f(x - y)) * y ** (a - 1)
    val, err = mpmath.quad(body, cuts, error=True)
    return c * (-a) * (val + fx * Y ** a / (-a)), c * (-a) * err


if __name__ == "__main__":
    for key, fcw, h, x in CASES:
        val, err = dual(fcw, h, x)
        print(f"    {key!r}: ({mpmath.nstr(val, 17)}, "
              f"{mpmath.nstr(err, 2)}),")
