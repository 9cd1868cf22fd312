"""Extremal band-limited kernels.

Fejer kernel K, the sign-function majorant/minorant pair B/b, the odd
interpolation kernel W, the box majorant/minorant pair S_ell/sigma_ell,
the Fourier-side profile Q, and the smoothing constant lambda.

Evaluation strategy for W: a Taylor series in odd zeta values near the
origin, and a trigamma-based closed form elsewhere (upward shift
recurrence into a Bernoulli asymptotic series).  A direct-series oracle
with a certified sandwich tail bracket is kept alongside for
cross-checking; the two routes are never collapsed.  `fourier_W_check`
integrates the transforms of W, B = W + K and b = W - K on the Fourier
side, a third route for each.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal

import numpy as np

from .quadrature import integrate_panels

__all__ = [
    "TAYLOR_RADIUS",
    "TAYLOR_TERMS",
    "CROSSOVER_X0",
    "ASYMPTOTIC_PAIRS",
    "SERIES_TERMS",
    "bernoulli_numbers",
    "fejer_K",
    "trigamma",
    "W_eval",
    "B_eval",
    "b_eval",
    "S_eval",
    "sigma_eval",
    "Q_eval",
    "lambda_constant",
    "fourier_W_check",
]


# ---------------------------------------------------------------------------
# constants and cached tables


def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n as exact rationals (B_1 = -1/2), from the defining
    recurrence sum_j C(m+1,j) B_j = 0."""
    if not n >= 2:
        raise ValueError(f"n must be >= 2 (got {n!r})")
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(Fraction(math.comb(m + 1, j)) * vals[j] for j in range(m))
        vals.append(-s / (m + 1))
    return tuple(vals)


def _zeta_em(s: int, terms: int = 200) -> float:
    # the head summed correctly rounded (math.fsum), with the Euler-Maclaurin
    # tail sum_{n>N} n^-s = N^(1-s)/(s-1) - N^(-s)/2 + s N^(-s-1)/12
    #   - s(s+1)(s+2) N^(-s-3)/720 + ..., the next term 3.3e-20 at s = 3 and
    # smaller beyond: each of zeta(3) .. zeta(41) is then the double nearest it
    N = terms
    head = math.fsum(n ** (-float(s)) for n in range(1, N + 1))
    tail = (N ** (1.0 - s) / (s - 1.0) - 0.5 * N ** (-float(s)) + s * N ** (-s - 1.0) / 12.0
            - s * (s + 1) * (s + 2) * N ** (-s - 3.0) / 720.0)
    return head + tail


def odd_zeta_table(m_max: int = 20) -> tuple[float, ...]:
    """zeta(3), zeta(5), ..., zeta(2*m_max+1)."""
    return tuple(_zeta_em(2 * m + 1) for m in range(1, m_max + 1))


# W's fast route is the Taylor series for |x| <= TAYLOR_RADIUS and the
# trigamma closed form beyond; the oracle is the direct series.
TAYLOR_RADIUS = 0.4  # below it the trigamma form is 1 minus nearly 1 and loses digits
TAYLOR_TERMS = 20  # the first omitted term, 84 zeta(43) 0.4^43, is 7e-16
CROSSOVER_X0 = 8.0  # trigamma shifts x up to here; then B_22/x^23 <= 1e-17
ASYMPTOTIC_PAIRS = 10  # Bernoulli terms of trigamma's series: B_2 .. B_20, all of _B2K
SERIES_TERMS = 10**4  # W oracle terms; its tail needs T -+ x large, so |x| <= T/2

_B2K = [float(b) for b in bernoulli_numbers(2 * ASYMPTOTIC_PAIRS)[2::2]]  # B_2, B_4, ..., B_20
# W/K = 2x + sum_{m>=1} _TAYLOR[m-1] x^(2m+1), _TAYLOR[m-1] = 4 m zeta(2m+1)
_TAYLOR = [4.0 * m * z for m, z in enumerate(odd_zeta_table(TAYLOR_TERMS), start=1)]


# ---------------------------------------------------------------------------
# elementary pieces.  Every evaluator takes a float or an ndarray of any
# shape and returns that shape; a float is the 0-d case of the same code.
# np.float_power is libm's pow, as float ** int is; np.power's square is
# not, to the last bit.


def _piecewise(x: np.ndarray, conds: list, funcs: list):
    """np.piecewise with a last func for the rest; a 0-d x goes to its func
    unindexed, as indexing would make every operation on it an array operation."""
    if x.ndim:
        return np.piecewise(x, conds, funcs)
    f = next((f for c, f in zip(conds, funcs) if c), funcs[-1])
    return f(x) if callable(f) else np.float64(f)


# |x| at which fejer_K clamps x for np.sinc, past which pi x would overflow;
# every |x| >= 2^52 is an integer, where K is 0 anyway
_K_ZERO = 2.0**1000


def fejer_K(x):
    """(sin(pi x)/(pi x))^2; removable singularity at 0 handled by sinc; 0 at
    every other integer, +-inf included, where np.sinc's sin(pi x) leaves 3e-33."""
    x = np.asarray(x, dtype=float)
    k = np.float_power(np.sinc(np.clip(x, -_K_ZERO, _K_ZERO)), 2)
    return np.where((x == np.round(x)) & (x != 0.0), 0.0, k)[()]


def _sinpi_over_pi_sq(x):
    """(sin(pi x)/pi)^2, stable for all real x."""
    frac = x - np.round(x)
    return np.float_power(np.sin(np.pi * frac) / np.pi, 2)


@np.errstate(over="ignore")  # x^(2k+1) -> inf above x ~ 1e14, and B_2k / inf = 0 is the limit
def trigamma(x):
    """sum_{n>=0} 1/(x+n)^2 for x > 0.

    Upward shift recurrence until x >= crossover, then the Bernoulli
    asymptotic series 1/x + 1/(2x^2) + sum B_2k / x^(2k+1); the first
    omitted term bounds the remainder.
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    low = x < CROSSOVER_X0
    while low.any():  # a done element gains 0.0 in acc and in x, exactly
        acc = acc + 1.0 / (x * x) * low
        x = x + low
        low = x < CROSSOVER_X0
    s = 1.0 / x + 0.5 / (x * x)
    xp = np.float_power(x, 3)
    for b2k in _B2K:
        s = s + b2k / xp
        xp = xp * (x * x)
    return (acc + s)[()]


# ---------------------------------------------------------------------------
# W: fast route and direct-series oracle


def _w_taylor(x: np.ndarray) -> np.ndarray:
    s = 2.0 * x
    xp = np.float_power(x, 3)
    for c in _TAYLOR:
        s = s + c * xp
        xp = xp * (x * x)
    return fejer_K(x) * s


@np.errstate(over="ignore")
def _w_trigamma(x: np.ndarray) -> np.ndarray:
    bracket = 0.5 / (x * x) + trigamma(x + 1.0) - 1.0 / x
    return 1.0 - 2.0 * _sinpi_over_pi_sq(x) * bracket


def _w_oracle_pos(x: float) -> float:
    # the defining series summed directly to T = SERIES_TERMS, plus both
    # tails sum_{k>T} 1/(k -+ x)^2 = psi_1(w + 1), w = T -+ x, from
    # psi_1(w + 1) = 1/w - 1/(2w^2) + 1/(6w^3) - R with |R| <= 1/(30 w^5)
    if x == 0.0:
        return 0.0
    k0 = round(x)
    if abs(x - k0) < 1e-12 and k0 >= 1:
        return 1.0  # double-pole coefficient at positive integers
    def tail(w: float) -> float:
        return 1.0 / w - 0.5 / w**2 + 1.0 / (6.0 * w**3)

    k = np.arange(1.0, SERIES_TERMS + 1.0)
    s = 2.0 / x + float(np.sum(1.0 / (x - k) ** 2 - 1.0 / (x + k) ** 2))
    s += tail(SERIES_TERMS - x) - tail(SERIES_TERMS + x)
    return float(_sinpi_over_pi_sq(x)) * s


def W_eval(x, mode: Literal["fast", "oracle"] = "fast"):
    """The odd interpolation kernel W, with W(-0.0) = +0.0.

    The oracle route sums the direct series one point at a time:
    SERIES_TERMS = 10^4 terms plus a three-term tail, for |x| <=
    SERIES_TERMS/2 only, where the tail's remainder is below
    1/(15 pi^2 (SERIES_TERMS/2)^5) ~ 2e-21.
    """
    if mode not in ("fast", "oracle"):
        raise ValueError(f"mode must be fast or oracle (got {mode!r})")
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if mode == "oracle":
        if not np.all(a <= SERIES_TERMS / 2):
            raise ValueError(f"x must satisfy |x| <= {SERIES_TERMS // 2} for the oracle "
                             f"(got max |x| = {float(np.max(a))!r})")
        w = np.array([_w_oracle_pos(float(v)) for v in a.flat]).reshape(a.shape)
    else:
        # from 2^52 on, a is an integer, where W = 1; clamped there, a = inf gets it too
        a = np.minimum(a, 2.0**53)
        w = _piecewise(a, [a <= TAYLOR_RADIUS], [_w_taylor, _w_trigamma])
    return np.where(x < 0, -w, w)[()]


# ---------------------------------------------------------------------------
# the B / b / S_ell / sigma_ell family


def B_eval(x):
    return W_eval(x) + fejer_K(x)


def b_eval(x):
    return W_eval(x) - fejer_K(x)


@np.errstate(over="ignore")  # ell - x may overflow to +-inf, where B is +-1
def S_eval(ell: float, x):
    return 0.5 * (B_eval(x) + B_eval(ell - np.asarray(x, dtype=float)))


@np.errstate(over="ignore")  # and b is +-1
def sigma_eval(ell: float, x):
    return 0.5 * (b_eval(x) + b_eval(ell - np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# Fourier-side profile Q and the smoothing constant


def _pi_u_cot(u):
    """pi u cot(pi u) = 1 - (pi u)^2/3 - (pi u)^4/45 - ... for small |u|."""
    t = np.float_power(math.pi * u, 2)
    return 1.0 - t / 3.0 - t * t / 45.0


def _one_minus_absv_vcot(v):
    """(1-|v|) * v * cot(pi v) for 0 < |v| < 1, stably near both ends."""
    a = np.abs(np.asarray(v, dtype=float))
    near_0, near_1 = a < 1e-4, a > 1.0 - 1e-4
    return _piecewise(a, [near_0, near_1, (a > 0.5) & ~near_1], [
        lambda a: (1.0 - a) * _pi_u_cot(a) / math.pi,
        # with u = 1-|v|:  u*|v|*cot(pi|v|) = -|v|*u*cot(pi u)
        lambda a: -a * _pi_u_cot(1.0 - a) / math.pi,
        # cot(pi v) = -cot(pi u), evaluated away from the zero of sin
        lambda a: (1.0 - a) * a * (-np.cos(np.pi * (1.0 - a)) / np.sin(np.pi * (1.0 - a))),
        lambda a: (1.0 - a) * a * (np.cos(np.pi * a) / np.sin(np.pi * a)),
    ])[()]


def Q_eval(v):
    """|v|/pi + (1-|v|) v cot(pi v) on [-1,1]; 0 outside (even function)."""
    a = np.abs(np.asarray(v, dtype=float))
    funcs = [0.0, 1.0 / math.pi, lambda a: a / math.pi + _one_minus_absv_vcot(a)]
    return _piecewise(a, [a >= 1.0, a == 0.0], funcs)[()]


def lambda_constant() -> float:
    """sup over xi in [0,1] of sqrt(Q(xi)^2 + xi^2 (1-xi)^2): the maximum of a
    4001-point grid, zoomed in on the two steps around its best point (33
    points each time) until they span less than 5e-8 or stop shrinking."""
    xs = np.linspace(0.0, 1.0, 4001)
    best, width = -math.inf, math.inf
    while True:
        vals = np.hypot(Q_eval(xs), xs * (1.0 - xs))
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        if hi - lo < 5e-8 or hi - lo >= width:
            return best
        width = hi - lo
        xs = np.linspace(lo, hi, 33)


def fourier_W_check(x: float, k_coeff: float = 0.0) -> tuple[float, float]:
    """Evaluate W(x) + k_coeff K(x) through its Fourier representation.

    The transform is Q(v)/(i v) + k_coeff (1 - |v|) on [-1, 1]; its even
    part gives (Q(v)/v) sin(2 pi x v) + k_coeff (1 - v) cos(2 pi x v),
    integrated over [0, 1] and doubled.  k_coeff = +1 and -1 check B and b,
    whose transforms are Q(v)/(i v) +- (1 - |v|) (Vaaler 1985).  Returns
    (value, achieved error estimate).
    """

    def integrand(v: np.ndarray) -> np.ndarray:
        qv_over_v = 1.0 / math.pi + _one_minus_absv_vcot(v) / v
        y = 2.0 * math.pi * x * v
        return qv_over_v * np.sin(y) + k_coeff * (1.0 - v) * np.cos(y)

    # Q(v)/v -> 1/(pi v) as v -> 0, so the integrand tends to 2x + k_coeff; on
    # [0, eps] it is replaced by that limit.  The error of that in the W part: with
    # Q(v) - 1/pi = (1 - v)(v cot(pi v) - 1/pi) and 0 <= 1 - u cot u <= u^2/2
    # for 0 < u <= 1, Q(v)/v = 1/(pi v) + r(v) with |r(v)| <= pi v / 2; with
    # y = 2 pi x v, sin y = y - rho(y) and |rho(y)| <= |y|^3 / 6.  So
    #   |(Q(v)/v) sin y - 2x| <= |r| |y| + |rho| / (pi v) + |r| |rho|
    #                         <= pi^2 |x| v^2 + (4 pi^2 / 3) |x|^3 v^2 + (2 pi^4 / 3) |x|^3 v^4,
    # whose integral over [0, eps] is at most (pi^2 / 3)(|x| + 2 |x|^3) eps^3 for eps <= 1/pi.
    # In the K part, (1 - v) cos y - 1 = (cos y - 1) - v cos y and |cos y - 1| <= y^2/2, so
    #   |(1 - v) cos y - 1| <= v + 2 pi^2 x^2 v^2,
    # whose integral over [0, eps] is eps^2/2 + (2 pi^2 / 3) x^2 eps^3, times |k_coeff|.
    eps = 1e-8
    edges = np.linspace(eps, 1.0, 17)
    val, err = integrate_panels(integrand, edges[:-1], edges[1:])
    val = float(np.sum(val)) + (2.0 * x + k_coeff) * eps  # limit-value contribution of [0, eps]
    cut = (math.pi**2 / 3.0 * (abs(x) + 2.0 * abs(x) ** 3) * eps**3
           + abs(k_coeff) * (eps**2 / 2.0 + 2.0 * math.pi**2 / 3.0 * x * x * eps**3))
    return 2.0 * val, 2.0 * (float(np.sum(err)) + cut)
