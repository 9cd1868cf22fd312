"""One-variable smoothing bounds for distribution comparison.

The a priori inequality
  sup|F - G| <= c1 * int_{|zeta| <= Omega} |phi - psi|/|zeta| + c2 * m / Omega
with admissible constants (c1, c2) = (1/4, pi), plus the supporting
machinery: Gaussian mollification, CDF distance measurement, and a
convergence harness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .quadrature import _panel_chunks

__all__ = [
    "Law",
    "normal_law",
    "standardized_binomial",
    "irwin_hall_standardized",
    "point_mass",
    "esseen_bound_1d",
    "BoundReport",
    "gaussian_mollify",
    "sup_cdf_distance",
    "convergence_harness_1d",
    "C1_DEFAULT",
    "C2_DEFAULT",
]

C1_DEFAULT = 0.25
C2_DEFAULT = math.pi

_IH_BLOCK = 1 << 15  # Irwin-Hall cdf: rows times points per block, 256 KiB of floats


@dataclass(frozen=True)
class Law:
    """A probability law on R^k for smoothing-bound work.

    `cdf` (float values) and `cf` (complex values) take, for k = 1, a float
    or an ndarray of any shape and return that shape; for k > 1, an (N, k)
    array and return (N,) values, or one k-vector and return a scalar.
    `moment` is (alpha, integral of (max_j |x_j|)^alpha).  `density_bounds`
    bounds each marginal density, one per axis, and is None when a marginal
    has atoms; `atoms` are where `sup_cdf_distance` takes one-sided limits.
    `factors` holds the k laws on R of a law with independent coordinates,
    or is empty.  Every k-variable bound of `esseen_multi` reads the cf on
    its tensor grids from the factors when there are any, so a copy with
    another `cf` must also set `factors` (or `factors=()`).
    """

    cdf: Callable[[ArrayLike], ArrayLike]
    cf: Callable[[ArrayLike], ArrayLike]
    moment: tuple[float, float]
    density_bounds: tuple[float, ...] | None = None
    atoms: tuple[float, ...] = ()
    k: int = 1
    factors: tuple["Law", ...] = ()

    def __post_init__(self):
        fs = self.factors
        if not isinstance(fs, tuple):
            raise ValueError(f"factors must be a tuple of laws on R (got {type(fs).__name__})")
        if fs and (len(fs) != self.k or not all(isinstance(f, Law) and f.k == 1 for f in fs)):
            got = [f.k if isinstance(f, Law) else type(f).__name__ for f in fs]
            raise ValueError(f"factors must be () or k = {self.k} laws on R (got k = {got})")


@dataclass(frozen=True)
class BoundReport:
    """A smoothing bound and the parts it adds up.

    `terms` maps each integral term's name to its value, already multiplied
    by its constant; `tail` is the c * sum_j m_j / Omega_j term; `slack`
    maps the name of every other part of the total (the excluded small
    frequencies, the quadrature error, the truncated moment) to its value.
    `total` is summed as the bound has always summed it and the parts are
    scaled copies, so math.fsum of terms, tail and slack is `total` only to
    a few ulps.  `omegas` has one cutoff per coordinate, `constants` the
    constants by name, and `detail` the route's remaining inputs.
    """

    total: float
    terms: dict
    tail: float
    slack: dict
    omegas: tuple
    constants: dict
    detail: dict


def _check_laws(F: Law, G: Law | None = None, k_max: int = 1, omegas=None, omega_floor=0.0) -> int:
    """The checks every bound makes on F, G and omegas; returns k = F.k."""
    k = F.k
    if not 1 <= k <= k_max:
        what = "F must be a law on R" if k_max == 1 else f"k must be in 1..{k_max}"
        raise ValueError(f"{what} (got F.k = {k})")
    if G is not None and (G.k != k or G.density_bounds is None):
        raise ValueError(f"G must be a law on R^{k}, as F is, with density bounds for the tail "
                         f"term (got k = {G.k}, density_bounds = {G.density_bounds})")
    if omegas is not None and len(omegas) != k:
        raise ValueError(f"omegas must have k = {k} entries (got {len(omegas)})")
    if omegas is not None and not all(omega_floor < om < math.inf for om in omegas):
        raise ValueError(f"omegas must all be finite and > {omega_floor:g} (got {tuple(omegas)})")
    return k


# Chebyshev coefficients of g(t) = Phi(-z) exp(z^2/2) (z + 4)/8 in
# t = (z - 4)/(z + 4), z >= 0: mpmath at 40 digits on 64 Chebyshev nodes,
# first 24 terms (tests/ndtr_coefficients.py derives them)
_NDTR_CHEB = (
    0.12130640057075957,
    -0.09396360210494632,
    0.02777419445940638,
    -0.006064719157555761,
    0.0008657400620303101,
    -4.0074809299768744e-05,
    -1.2568423954013348e-05,
    2.3629211274633706e-06,
    1.2629461068432887e-07,
    -7.68166843674728e-08,
    -4.2262751500864694e-10,
    2.585813507717854e-09,
    -1.4103254540586883e-11,
    -9.717519035485868e-11,
    -1.2426780239255885e-12,
    3.968103687322879e-12,
    2.3031008555881173e-13,
    -1.6410770583388706e-13,
    -2.1769203315818516e-14,
    6.1340925396305305e-15,
    1.616423040770697e-15,
    -1.5225829402157926e-16,
    -1.0065184215776166e-16,
    -3.575617680327027e-18,
)


# below z = _NDTR_SMALL, Phi(-z) = 1/2 - z s(z^2)/sqrt(2 pi) with the
# Taylor coefficients of s(y) = sum_k (-1)^k y^k / (2^k k! (2k + 1)), each
# int / int division correctly rounded; the first term left out is below
# 1e-20 there
_NDTR_SMALL = 0.75
_NDTR_TAYLOR = tuple((-1) ** k / (2**k * math.factorial(k) * (2 * k + 1)) for k in range(14))


def _ndtr(x: ArrayLike) -> np.ndarray:
    """The standard normal CDF, elementwise.

    For z = |x| and t = (z - 4)/(z + 4), Phi(-z) = exp(-z^2/2) (8/(z + 4))
    g(t), with g summed by Reinsch's form of the Clenshaw recurrence in
    u = 2(1 + t) = 4z/(z + 4), which keeps its precision as t nears -1.
    exp(-z^2/2) is exp(-zh^2/2) exp(-(z - zh)(z + zh)/2), with zh = z to
    12 fraction bits, so that zh^2 is exact and the far tail keeps its
    relative precision.  Below z = _NDTR_SMALL the Taylor series of
    Phi(-z) - 1/2 takes over, as Cody's erf does near 0, since it rounds
    less there than the product of factors does.  Phi(x) = 1 - Phi(-z)
    for x > 0.
    """
    x = np.asarray(x, dtype=float)
    z = np.minimum(np.abs(x), 40.0).reshape(-1)  # Phi(-40) underflows to 0
    w = 1.0 / (z + 4.0)
    u = 4.0 * z * w
    b, d, ub = np.zeros_like(u), np.zeros_like(u), np.empty_like(u)
    for c in _NDTR_CHEB[:0:-1]:
        # d <- c + u b - d, then b <- d - b, in place
        np.multiply(u, b, out=ub)
        ub += c
        np.subtract(ub, d, out=d)
        np.subtract(d, b, out=b)
    g = _NDTR_CHEB[0] + 0.5 * u * b - d
    zh = np.round(z * 4096.0) / 4096.0
    # exp(-zh^2/2) as a square, so that no factor is subnormal and only the
    # last product rounds to the subnormal grid
    e = np.exp(-0.25 * zh * zh)
    p = e * (e * (np.exp(-0.5 * (z - zh) * (z + zh)) * (8.0 * w * g)))
    small = z < _NDTR_SMALL
    zs = z[small]
    y, s = zs * zs, _NDTR_TAYLOR[-1]
    for a in _NDTR_TAYLOR[-2::-1]:
        s = s * y + a
    p[small] = 0.5 - zs * s / math.sqrt(2.0 * math.pi)
    p = p.reshape(x.shape)
    return np.where(x > 0, 1.0 - p, p)[()]


def _check_count(n) -> int:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1 (got {n!r})")
    return int(n)


def normal_law(mu: float = 0.0, sigma: float = 1.0) -> Law:
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite (got {mu!r})")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite (got {sigma!r})")
    m = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    second = mu * mu + sigma * sigma

    def cdf(x):
        return _ndtr((np.asarray(x, dtype=float) - mu) / sigma)

    if mu == 0:
        @np.errstate(over="ignore")  # (sigma t)^2 is inf past |sigma t| ~ 1.3e154, where the cf is 0
        def cf(t):
            # for finite t the phase factor below is 1 + 0j, and this is its
            # product to the bit, the +0 imaginary part included
            return np.exp(-0.5 * (sigma * np.asarray(t, dtype=float)) ** 2) + 0j
    else:
        @np.errstate(over="ignore")
        def cf(t):
            t = np.asarray(t, dtype=float)
            return (np.cos(mu * t) + 1j * np.sin(mu * t)) * np.exp(-0.5 * (sigma * t) ** 2)

    return Law(cdf, cf, (2.0, second), (m,))


# the largest n of standardized_binomial: its exact Pascal row costs O(n^2),
# 1 s at n = 10^5 on a 2-core VM (and 110 s at 10^6)
_MAX_BINOMIAL_N = 10**5


def standardized_binomial(n: int) -> Law:
    """(S - n/2)/(sqrt(n)/2) for S ~ Binomial(n, 1/2), n <= _MAX_BINOMIAL_N."""
    n = _check_count(n)
    if n > _MAX_BINOMIAL_N:
        raise ValueError(f"n must be at most {_MAX_BINOMIAL_N}, as the exact atoms take "
                         f"O(n^2) time (got {n!r})")
    # the exact Pascal row over 2^n, each atom correctly rounded by int / int;
    # the row is symmetric, so half of it is computed
    c, scale, half = 1, 1 << n, []
    for j in range(n // 2 + 1):
        half.append(c / scale)
        c = c * (n - j) // (j + 1)
    pmf = half + half[n - n // 2 - 1 :: -1]
    cum = np.concatenate([[0.0], np.cumsum(pmf)])
    xs = (2.0 * np.arange(n + 1) - n) / math.sqrt(n)

    def cdf(t):
        return cum[np.searchsorted(xs, t, side="right")]

    def cf(t):
        # float_power calls libm's pow, as the scalar float ** int did;
        # np.power's vectorised pow differs in the last bit for ~2.5% of
        # values, and the slab bound's finite differences magnify that
        return np.float_power(np.cos(np.asarray(t, dtype=float) / math.sqrt(n)), n) + 0j

    return Law(cdf, cf, (2.0, 1.0), atoms=tuple(xs))


def irwin_hall_standardized(n: int) -> Law:
    """Standardized sum of n independent uniforms on [-1/2, 1/2]."""
    n = _check_count(n)
    s = math.sqrt(n / 12.0)
    block = max(1, _IH_BLOCK // n)  # points per block

    def rows(x):
        # F_m(x) = [x F_{m-1}(x) + (m - x) F_{m-1}(x - 1)] / m for the sum of
        # m uniforms on [0, 1]: a convex combination for 0 <= x <= m, so no
        # cancellation (the alternating sum of (x - j)^n / n! loses every
        # digit by n = 32).  Row j holds F_m(x - j); clipping the weight's
        # x - j to [0, m] keeps F_m exactly 0 below 0 and 1 above m.  So
        # step m updates only the rows j <= n - m, which F_n(x) still needs,
        # with x - j in [0, m] for some x: the rows below it hold 1 and the
        # rows above it 0 for every x, as they have since step 1.
        y = x.reshape(1, -1) - np.arange(n, dtype=float).reshape(-1, 1)
        f = np.minimum(np.maximum(y, 0.0), 1.0)  # np.clip, as no -0.0 arises, with less overhead
        # the extreme x, clamped to [-1, n + 1]; a NaN keeps every row
        lo, hi = x.min(), x.max()
        lo = math.ceil(min(lo, n + 1.0)) if lo >= -1.0 else -1
        hi = math.floor(max(hi, -1.0)) if hi <= n + 1.0 else n + 1
        for m in range(2, n + 1):
            a, b = max(0, lo - m), min(n - m, hi)
            if a <= b:
                # (w f[j] + (m - w) f[j + 1]) / m, in place and in that order
                w = np.clip(y[a : b + 1], 0.0, m)
                g = w * f[a : b + 1]
                np.multiply(np.subtract(m, w, out=w), f[a + 1 : b + 2], out=w)
                np.divide(np.add(g, w, out=g), m, out=f[a : b + 1])
        return f[0]

    def cdf(t):
        # blocks of points keep the n rows in cache and their x-range narrow
        x = n / 2.0 + np.asarray(t, dtype=float) * s
        flat = x.reshape(-1)
        f = np.empty(flat.size)
        for i in range(0, flat.size, block):
            f[i : i + block] = rows(flat[i : i + block])
        return np.minimum(np.maximum(f, 0.0), 1.0).reshape(x.shape)[()]

    def cf(t):
        u = np.asarray(t, dtype=float) / (2.0 * s)
        return np.float_power(np.sinc(u / math.pi), n) + 0j

    return Law(cdf, cf, (2.0, 1.0))


def point_mass(x0: float = 0.0) -> Law:
    if not math.isfinite(x0 * x0):  # the moment, x0^2
        raise ValueError(f"x0 must be finite, and so must x0^2 (got {x0!r})")

    def cdf(t):
        return np.where(np.asarray(t) >= x0, 1.0, 0.0)[()]

    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.cos(x0 * t) + 1j * np.sin(x0 * t)

    return Law(cdf, cf, (2.0, x0 * x0), atoms=(x0,))


# ---------------------------------------------------------------------------
# the Omega sweep


# the largest Omega of the one-variable bounds: the sweep cuts a panel every
# 4 units up to it, and one Omega takes 0.65 s at 2^22 and 1.3 s at 2^23 on
# a 2-core VM, the time doubling with Omega
_MAX_OMEGA = 2.0**23


def _omega_array(omegas, name: str) -> np.ndarray:
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    if om.size == 0 or not np.all(np.isfinite(om) & (om > 0)):
        raise ValueError(f"{name} must be positive and finite, got {omegas!r}")
    if np.any(om > _MAX_OMEGA):
        raise ValueError(f"{name} must be at most 2^23 = {_MAX_OMEGA:.0f}, as the sweep cuts a "
                         f"panel every 4 units up to it (got {omegas!r})")
    return om


_EXCLUSION_TOL = 1e-8  # sets the cut eps: the exclusion term 4 m eps^alpha is a tenth of it


def _sweep(
    F: Law,
    G: Law,
    omegas: np.ndarray,
    constants: tuple[float, float] = (C1_DEFAULT, C2_DEFAULT),
) -> BoundReport:
    """The smallest smoothing bound over omegas from one pass of quadrature.

    The integrand |phi - psi|/zeta does not depend on Omega.  Panel edges
    are each Omega's lower cut eps, the cuts 1, 5, 9, ... and every Omega,
    so one Omega alone gets exactly the panels [eps, 1], [1, 5], ...,
    [., Omega].  The panels are integrated once, in the chunks of
    `integrate_panels`; prefix sums of the panel integrals and error
    estimates give each Omega's integral term and quadrature error.

    Omega are visited in ascending order, and the sweep stops at the first
    one whose cut is the full eps and whose c1 term c1 * (integral +
    exclusion + 2 quad_err) exceeds the smallest total so far; the panels
    past it are not integrated.  No larger Omega can then be the minimum:
    qk21's Kronrod weights are all positive and |phi - psi|/zeta >= 0, so
    every panel integral and error estimate is >= 0, their prefix sums are
    nondecreasing, and round-to-nearest is monotone, so a larger Omega with
    the same cut has a c1 term at least as large, and its tail is >= 0.
    Its total is therefore above the minimum, not tied with it, and the
    report returned is the first smallest in the order of omegas, as a
    minimum over all of them would be.  This takes c1, c2 >= 0, as
    `best_esseen_bound`'s constants are; a single Omega has nothing past
    it.  Past the stop, Omega are not checked against the quadrature
    budget either.
    """
    _check_laws(F, G)
    c1, c2 = constants
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError(f"constants must be finite (got {constants!r})")
    alpha = min(F.moment[0], G.moment[0])
    a_t = min(alpha, 1.0)
    msum = F.moment[1] + G.moment[1]
    eps = (_EXCLUSION_TOL / (40.0 * max(msum, 1e-300))) ** (1.0 / a_t)
    epss = np.minimum(eps, omegas / 4.0)
    # sorted, repeats dropped: np.unique would import numpy.ma on its first call
    edges = np.sort(np.concatenate([epss, np.arange(1.0, omegas.max(), 4.0), omegas]))
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]

    def integrand(z: np.ndarray) -> np.ndarray:
        return np.abs(F.cf(z) - G.cf(z)) / z

    # panels keep the quadrature honest on the kinked |phi - psi| profile;
    # the achieved quadrature error is added into the bound as slack.
    chunks = _panel_chunks(integrand, edges[:-1], edges[1:])
    cum_val, cum_err = np.zeros(edges.size), np.zeros(edges.size)
    summed = 0  # panels in the prefix sums so far
    om, cuts = omegas.tolist(), epss.tolist()
    reports, best = {}, math.inf
    for i in sorted(range(len(om)), key=om.__getitem__):
        omega, cut = om[i], cuts[i]
        lo, hi = np.searchsorted(edges, [cut, omega])
        while summed < hi:
            val, err = next(chunks)
            # the running sums carried on, in the order of one cumsum of all panels
            for cum, part in ((cum_val, val), (cum_err, err)):
                run = cum[summed : summed + part.size + 1]
                run[1:] = part
                np.cumsum(run, out=run)
            summed += val.size
        v = float(cum_val[hi] - cum_val[lo])
        quad_err = float(cum_err[hi] - cum_err[lo])
        integral = 2.0 * v  # Hermitian symmetry: |diff(-z)| = |diff(z)|
        exclusion = 2.0 * 2.0 * msum * cut**a_t  # excluded mass, both signs
        if quad_err > 1e-3 * max(1.0, v):
            raise ArithmeticError(f"quadrature error {quad_err:g} exceeds budget")
        c1_term = c1 * (integral + exclusion + 2.0 * quad_err)
        if cut == eps and c1_term > best:
            break
        tail = c2 * G.density_bounds[0] / omega
        total = c1_term + tail
        best = min(best, total)
        slack = {"exclusion": c1 * exclusion, "quadrature": c1 * (2.0 * quad_err)}
        reports[i] = BoundReport(total, {"integral": c1 * integral}, tail, slack, (omega,),
                                 {"c1": c1, "c2": c2}, {})
    return min((reports[i] for i in sorted(reports)), key=lambda r: r.total)


def esseen_bound_1d(
    F: Law,
    G: Law,
    omega: float,
    constants: tuple[float, float] = (C1_DEFAULT, C2_DEFAULT),
) -> BoundReport:
    """c1 * int_{|zeta|<=Omega} |phi - psi|/|zeta| + c2 * m / Omega.

    The small-|zeta| exclusion is certified by the Holder bound
    |phi(w) - psi(w)| <= 2 |w|^alpha~ * (moment sum), alpha~ = min(alpha, 1).
    It is the one-Omega case of the sweep behind `best_esseen_bound`.
    """
    return _sweep(F, G, _omega_array(omega, "omega"), constants)


def gaussian_mollify(F: Law, eps: float) -> Law:
    """Convolve the law F on R with a centered Gaussian of standard deviation eps.

    F's moment (a, m), m >= E|X|^a, becomes a bound on E|X + eps Z|^a, Z
    standard normal and independent of X.  For a <= 2 it is m + 2 eps^a:
    E|Z|^a <= (E Z^2)^(a/2) = 1, and |x + y|^a <= |x|^a + |y|^a for a <= 1
    (subadditivity), while for 1 <= a <= 2, |x + y|^a + |x - y|^a <= 2 |x|^a
    + 2 |y|^a and Z is symmetric, so E|X + eps Z|^a <= m + eps^a E|Z|^a in
    both cases.  For a > 2 it is Minkowski's (m^(1/a) + eps ||Z||_a)^a,
    with E|Z|^a = 2^(a/2) Gamma((a+1)/2) / sqrt(pi).
    """
    _check_laws(F)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0 (got {eps!r})")
    a, mom = F.moment
    try:
        if a <= 2.0:
            mom += math.pow(eps, a) * 2.0
        else:
            log_z = 0.5 * a * math.log(2.0) + math.lgamma(0.5 * (a + 1.0)) - 0.5 * math.log(math.pi)
            mom = math.pow(math.pow(mom, 1.0 / a) + eps * math.exp(log_z / a), a)
    except OverflowError:
        mom = math.inf
    m = 1.0 / (eps * math.sqrt(2.0 * math.pi))
    if F.density_bounds is not None:
        m = min(m, F.density_bounds[0])
    if not math.isfinite(mom + m):
        raise ValueError(f"eps = {eps!r} leaves the mollified law no finite moment of order {a:g} "
                         f"or density bound")
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    w = weights / math.sqrt(2.0 * math.pi)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return F.cdf(t[..., None] - eps * nodes) @ w

    @np.errstate(over="ignore")  # and its Gaussian factor 0
    def cf(z):
        z = np.asarray(z, dtype=float)
        return F.cf(z) * np.exp(-0.5 * (eps * z) ** 2)

    return Law(cdf, cf, (a, mom), (m,))


def sup_cdf_distance(
    F: Callable[[np.ndarray], np.ndarray],
    G: Callable[[np.ndarray], np.ndarray],
    grid: Sequence[float],
    atoms: Sequence[float] = (),
) -> float:
    """max |F - G| over the grid, with one-sided limits at declared atoms.

    F and G are array CDFs, each called once: F on the grid, the atoms and
    just left of them, G on the grid and the atoms.
    """
    grid, a = np.asarray(grid, dtype=float), np.asarray(atoms, dtype=float)
    Fv = F(np.concatenate([grid, a, a - 1e-9]))
    Gv = G(np.concatenate([grid, a]))
    return float(np.max(np.abs(Fv - np.concatenate([Gv, Gv[grid.size :]])), initial=0.0))


OMEGA_GRID = tuple(2.0**j for j in range(0, 15))


def best_esseen_bound(
    F: Law, G: Law, omegas: Sequence[float] = OMEGA_GRID
) -> BoundReport:
    """The smallest `esseen_bound_1d` report over omegas, from one sweep
    that stops where no larger Omega can give a smaller one."""
    return _sweep(F, G, _omega_array(omegas, "omegas"))


@dataclass(frozen=True)
class HarnessRow:
    index: int
    sup_distance: float
    bound: float
    omega: float
    cf_increment: float


def convergence_harness_1d(
    family: Callable[[int], Law],
    G: Law,
    indices: Sequence[int],
    grid: Sequence[float] | None = None,
) -> list[HarnessRow]:
    if grid is None:
        grid = np.linspace(-8, 8, 2001)
    rows = []
    zs = np.linspace(-5, 5, 101)
    for n in indices:
        F = family(n)
        d = sup_cdf_distance(F.cdf, G.cdf, grid, F.atoms)
        rep = best_esseen_bound(F, G)
        inc = float(np.max(np.abs(F.cf(zs) - G.cf(zs))))
        rows.append(HarnessRow(n, d, rep.total, rep.omegas[0], inc))
    return rows
