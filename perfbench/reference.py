"""Reference computations made apart from bslib.

Nothing here imports bslib.  Kernel values come from mpmath at raised
precision, CDFs from scipy.stats / scipy.special or from exact rational
arithmetic, and Monte Carlo outputs are judged against sample-size bands.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special, stats
from scipy.spatial import ConvexHull, QhullError

# 40 digits: near x = k - 1e-9 the factor (sin pi x)^2 ~ 1e-17 multiplies a
# psi_1 pole of size ~1e18, so double precision loses every digit there.
mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# kernels


def _W_mp(x: float):
    """W(x) = (sin pi x / pi)^2 (psi_1(1-x) - psi_1(1+x) + 2/x)."""
    x = mpmath.mpf(x)
    if x == 0:
        return mpmath.mpf(0)
    s = mpmath.sin(mpmath.pi * x) / mpmath.pi
    return s * s * (mpmath.psi(1, 1 - x) - mpmath.psi(1, 1 + x) + 2 / x)


def _K_mp(x: float):
    x = mpmath.mpf(x)
    return mpmath.mpf(1) if x == 0 else (mpmath.sin(mpmath.pi * x) / (mpmath.pi * x)) ** 2


def K(x: float) -> float:
    return float(_K_mp(x))


def W(x: float) -> float:
    return float(_W_mp(x))


def B(x: float) -> float:
    return float(_W_mp(x) + _K_mp(x))


def b(x: float) -> float:
    return float(_W_mp(x) - _K_mp(x))


def S(ell: float, x: float) -> float:
    y = mpmath.mpf(ell) - mpmath.mpf(x)
    return float((_W_mp(x) + _K_mp(x) + _W_mp(y) + _K_mp(y)) / 2)


def sigma(ell: float, x: float) -> float:
    y = mpmath.mpf(ell) - mpmath.mpf(x)
    return float((_W_mp(x) - _K_mp(x) + _W_mp(y) - _K_mp(y)) / 2)


def Q(v: float) -> float:
    """|v|/pi + (1-|v|) v cot(pi v) on (-1, 1); 1/pi at 0; 0 outside."""
    a = abs(mpmath.mpf(v))
    if a >= 1:
        return 0.0
    if a == 0:
        return float(1 / mpmath.pi)
    return float(a / mpmath.pi + (1 - a) * a * mpmath.cot(mpmath.pi * a))


# ---------------------------------------------------------------------------
# one-variable laws


def binomial_atoms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atoms of (S - n/2)/(sqrt(n)/2), S ~ Binomial(n, 1/2), with F at each
    atom and its left limit."""
    j = np.arange(n + 1)
    x = (2.0 * j - n) / math.sqrt(n)
    return x, stats.binom.cdf(j, n, 0.5), stats.binom.cdf(j - 1, n, 0.5)


def binomial_sup(n: int) -> float:
    """sup_x |F(x) - Phi(x)|; attained at an atom or its left limit."""
    x, right, left = binomial_atoms(n)
    g = special.ndtr(x)
    return float(max(np.max(np.abs(right - g)), np.max(np.abs(left - g))))


def irwin_hall_cdf(n: int, t: float) -> float:
    """CDF of the standardized sum of n uniforms at t, in exact arithmetic.

    x = n/2 + t sqrt(n/12) is a binary float p/q, so each term of
    sum_j (-1)^j C(n,j) (x-j)^n / n! is an exact integer ratio; the final
    int/int division rounds once.
    """
    x = n / 2.0 + t * math.sqrt(n / 12.0)
    if x <= 0:
        return 0.0
    if x >= n:
        return 1.0
    p, q = x.as_integer_ratio()
    num = 0
    for j in range(math.floor(x) + 1):
        if p - j * q > 0:
            num += (-1) ** j * math.comb(n, j) * (p - j * q) ** n
    return num / (math.factorial(n) * q**n)


def irwin_hall_cdf_mp(n: int, t: float) -> float:
    """The same CDF through mpmath at 60 digits (cross-checks the exact sum)."""
    with mpmath.workdps(60):
        x = mpmath.mpf(n / 2.0 + t * math.sqrt(n / 12.0))
        if x <= 0:
            return 0.0
        if x >= n:
            return 1.0
        tot = mpmath.fsum(
            (-1) ** j * mpmath.binomial(n, j) * (x - j) ** n for j in range(int(mpmath.floor(x)) + 1)
        )
        return float(tot / mpmath.factorial(n))


def irwin_hall_sup(n: int, grid: np.ndarray) -> float:
    F = np.array([irwin_hall_cdf(n, float(t)) for t in grid])
    return float(np.max(np.abs(F - special.ndtr(grid))))


# ---------------------------------------------------------------------------
# products of standardized binomials against the standard normal on R^k


def _axis_candidates(n: int, reach: float = 6.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis points where sup |prod F_j - prod Phi_j| can be attained.

    Between atoms F is flat and Phi increases, so the sup sits at an atom
    (value or left limit); +inf (F = Phi = 1) covers the lower-dimensional
    marginals.  Atoms beyond `reach` change F by less than Phi(-6) ~ 1e-9.
    Returns (position, F, Phi).
    """
    x, right, left = binomial_atoms(n)
    keep = np.abs(x) <= reach
    x, right, left = x[keep], right[keep], left[keep]
    pos = np.concatenate([x, x, [np.inf]])
    F = np.concatenate([right, left, [1.0]])
    G = np.concatenate([special.ndtr(x), special.ndtr(x), [1.0]])
    return pos, F, G


def product_binomial_sup(n: int, k: int) -> float:
    _, F, G = _axis_candidates(n)
    best = 0.0
    for i in range(F.size):  # chunked over the first axis to keep memory flat
        Fi, Gi = F[i], G[i]
        if k == 2:
            d = np.abs(Fi * F - Gi * G)
        else:
            d = np.abs(Fi * np.multiply.outer(F, F) - Gi * np.multiply.outer(G, G))
        best = max(best, float(d.max()))
    return best


def product_binomial_pointwise(n: int, t: np.ndarray) -> float:
    x, right, _ = binomial_atoms(n)
    idx = np.searchsorted(x, t, side="right") - 1
    F = np.where(idx >= 0, right[np.maximum(idx, 0)], 0.0)
    return float(abs(np.prod(F) - np.prod(special.ndtr(t))))


def product_binomial_box_sup(n: int, extent: float) -> float:
    """sup over boxes (a, b] in R^2 with edges < extent of |F(box) - G(box)|.

    Per axis the interval masses (P, Q) under F and Phi are listed; for a
    fixed first interval |P1 P2 - Q1 Q2| is the larger of two linear
    functions of (P2, Q2), so its max over the list sits on the convex hull.
    """
    pos, F, G = _axis_candidates(n)
    pos, F, G = pos[:-1], F[:-1], G[:-1]
    m = pos.size // 2  # [:m] atom values, [m:] left limits at the same atoms
    lo, hi = np.meshgrid(np.arange(pos.size), np.arange(pos.size), indexing="ij")
    width = pos[hi] - pos[lo]
    # an atom's own mass: (x - 0, x]; otherwise b above a, edge below extent
    own = (width == 0) & (lo >= m) & (hi < m)
    ok = own | ((width > 0) & (width < extent * (1.0 - 1e-12)))
    P = (F[hi] - F[lo])[ok]
    Qm = (G[hi] - G[lo])[ok]
    pts = np.column_stack([P, Qm])
    try:
        verts = pts[ConvexHull(pts).vertices]
    except QhullError:
        verts = pts
    d = np.abs(np.multiply.outer(P, verts[:, 0]) - np.multiply.outer(Qm, verts[:, 1]))
    return float(d.max())


# ---------------------------------------------------------------------------
# Haar-circle CLT

# Shevtsova (2011): sup|F_n - Phi| <= 0.4748 E|X|^3 / (sigma^3 sqrt(n)) for
# iid summands.  Real (or imaginary) part of a uniform point on the circle:
# variance 1/2, third absolute moment 4/(3 pi).
_BE_CONST = 0.4748 * (4.0 / (3.0 * math.pi)) / 0.5**1.5
FALSE_ALARM = 1e-6


def berry_esseen(terms: int) -> float:
    return _BE_CONST / math.sqrt(terms)


def dkw_band(samples: int, tests: int = 1) -> float:
    """Deviation exceeded with probability <= FALSE_ALARM over `tests`
    Dvoretzky-Kiefer-Wolfowitz (or Hoeffding) statistics of `samples` draws."""
    return math.sqrt(math.log(2.0 * tests / FALSE_ALARM) / (2.0 * samples))


def log_cf_gap(N: int, xi: complex) -> float:
    """|log phi_N(xi) + |xi|^2/4| for the index scheme b_n = n, Haar law."""
    b = np.arange(1, N + 1, dtype=float)
    r = b * abs(xi) / math.sqrt(float(np.sum(b * b)))
    return abs(float(np.sum(np.log(special.j0(r)))) + 0.25 * abs(xi) ** 2)


def index_scheme_bound(N: int) -> tuple[float, float]:
    """(proof bound (2/3) rho^3 L with rho^3 = 1, admissibility value)."""
    b = np.arange(1, N + 1, dtype=float)
    s = math.sqrt(float(np.sum(b * b)))
    L = float(np.sum(b**3)) / s**3
    adm = 4.0 * 0.5 * (N / s) ** 2 + 2.0 * L
    return 2.0 / 3.0 * L, adm
