"""The Chebyshev coefficients behind `bslib.esseen1d._ndtr`, from mpmath.

For z >= 0 and t = (z - 4)/(z + 4) in [-1, 1), the tail factor

    g(t) = Phi(-z) exp(z^2 / 2) (z + 4) / 8

is the Mills ratio times (z + 4)/(8 sqrt(2 pi)): smooth on [-1, 1], with
g(-1) = 1/4 and g(1) = 1/(8 sqrt(2 pi)).  Its Chebyshev coefficients are
the discrete cosine transform of its values at NODES Chebyshev nodes,
taken with mpmath at DIGITS significant digits; the first TERMS are
rounded to floats.  The tests check that this reproduces the committed
tuple bit for bit; `python tests/ndtr_coefficients.py` prints it.
"""

import mpmath

DIGITS = 40
NODES = 64
TERMS = 24


def _g(t):
    z = 4 * (1 + t) / (1 - t)
    return mpmath.erfc(z / mpmath.sqrt(2)) / 2 * mpmath.exp(z * z / 2) * (z + 4) / 8


def coefficients() -> tuple[float, ...]:
    with mpmath.workdps(DIGITS):
        angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
        values = [_g(mpmath.cos(a)) for a in angles]
        out = []
        for k in range(TERMS):
            c = 2 * mpmath.fsum(v * mpmath.cos(k * a) for v, a in zip(values, angles)) / NODES
            out.append(float(c / 2 if k == 0 else c))
    return tuple(out)


if __name__ == "__main__":
    print("_NDTR_CHEB = (")
    for c in coefficients():
        print(f"    {c!r},")
    print(")")
