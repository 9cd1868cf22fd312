"""One-variable smoothing bounds for distribution comparison.

The a priori inequality  sup|F - G| <= c1 * pv-int |phi - psi|/|zeta| +
c2 * m / Omega  with admissible constants (c1, c2) = (1/4, pi), plus the
supporting machinery: principal-value integration, Gaussian
mollification, CDF distance measurement, and a convergence harness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy import integrate
from scipy.special import gammaln, ndtr

from .kernels import Q_eval

__all__ = [
    "Law",
    "normal_law",
    "standardized_binomial",
    "irwin_hall_standardized",
    "point_mass",
    "pv_integral",
    "esseen_bound_1d",
    "EsseenReport",
    "gaussian_mollify",
    "sup_cdf_distance",
    "convergence_harness_1d",
    "representation_residual",
    "C1_DEFAULT",
    "C2_DEFAULT",
]

C1_DEFAULT = 0.25
C2_DEFAULT = math.pi


@dataclass(frozen=True)
class Law:
    """A probability law on R^k for smoothing-bound work.

    `cdf` (float values) and `cf` (complex values) take, for k = 1, a float
    or an ndarray of any shape and return that shape; for k > 1, an (N, k)
    array and return (N,) values, or one k-vector and return a scalar.
    `moment` is (alpha, integral of (max_j |x_j|)^alpha).  `density_bounds`
    bounds each marginal density, one per axis, and is None when a marginal
    has atoms; `atoms` are where `sup_cdf_distance` takes one-sided limits.
    """

    cdf: Callable[[ArrayLike], ArrayLike]
    cf: Callable[[ArrayLike], ArrayLike]
    moment: tuple[float, float]
    density_bounds: tuple[float, ...] | None = None
    atoms: tuple[float, ...] = ()
    k: int = 1


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


def normal_law(mu: float = 0.0, sigma: float = 1.0) -> Law:
    m = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    second = mu * mu + sigma * sigma

    def cdf(x):
        return ndtr((np.asarray(x, dtype=float) - mu) / sigma)

    def cf(t):
        t = np.asarray(t, dtype=float)
        return (np.cos(mu * t) + 1j * np.sin(mu * t)) * np.exp(-0.5 * (sigma * t) ** 2)

    return Law(cdf, cf, (2.0, second), (m,))


def standardized_binomial(n: int, p: float = 0.5) -> Law:
    """(S - n/2)/(sqrt(n)/2) for S ~ Binomial(n, 1/2)."""
    if p != 0.5:
        raise ValueError(f"p must be 0.5 (only the symmetric case is wired up), got {p!r}")
    logp = n * math.log(0.5)
    j = np.arange(n + 1)
    log_pmf = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1) + logp
    cum = np.concatenate([[0.0], np.cumsum(np.exp(log_pmf))])
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
    s = math.sqrt(n / 12.0)

    def cdf(t):
        # F_m(x) = [x F_{m-1}(x) + (m - x) F_{m-1}(x - 1)] / m for the sum of
        # m uniforms on [0, 1]: a convex combination for 0 <= x <= m, so no
        # cancellation (the alternating sum of (x - j)^n / n! loses every
        # digit by n = 32).  Row j holds F_m(x - j); clipping the weight's
        # x - j to [0, m] keeps F_m exactly 0 below 0 and 1 above m.
        x = n / 2.0 + np.asarray(t, dtype=float) * s
        y = x.reshape(1, -1) - np.arange(n).reshape(-1, 1)
        f = np.clip(y, 0.0, 1.0)
        for m in range(2, n + 1):
            w = np.clip(y[: n - m + 1], 0.0, m)
            f = (w * f[:-1] + (m - w) * f[1:]) / m
        return np.clip(f[0], 0.0, 1.0).reshape(x.shape)[()]

    def cf(t):
        u = np.asarray(t, dtype=float) / (2.0 * s)
        return np.float_power(np.sinc(u / math.pi), n) + 0j

    return Law(cdf, cf, (2.0, 1.0))


def point_mass(x0: float = 0.0) -> Law:
    def cdf(t):
        return np.where(np.asarray(t) >= x0, 1.0, 0.0)[()]

    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.cos(x0 * t) + 1j * np.sin(x0 * t)

    return Law(cdf, cf, (2.0, x0 * x0), atoms=(x0,))


# ---------------------------------------------------------------------------


def pv_integral(h: Callable[[float], complex], A: float, tol: float = 1e-9) -> tuple[complex, float]:
    """Principal value of int_{-A}^{A} h, paired-node with eps refinement.

    Returns (value, achieved-error estimate).  Raises if the symmetric
    partial integrals fail to Cauchy-converge.
    """
    if not A > 0:
        raise ValueError(f"A must be positive, got {A!r}")

    def paired_re(v: float) -> float:
        return (h(v) + h(-v)).real

    def paired_im(v: float) -> float:
        return (h(v) + h(-v)).imag

    prev = None
    for j in range(6, 40):
        eps = A * 2.0 ** (-j)
        re, re_err = integrate.quad(paired_re, eps, A, limit=400)
        im, im_err = integrate.quad(paired_im, eps, A, limit=400)
        cur = complex(re, im)
        if prev is not None and abs(cur - prev) < tol:
            return cur, abs(cur - prev) + re_err + im_err
        prev = cur
    raise ArithmeticError("principal-value refinement did not converge")


@dataclass(frozen=True)
class EsseenReport:
    total: float
    integral_term: float
    tail_term: float
    exclusion_bound: float
    omega: float
    constants: tuple[float, float]


# QUADPACK's qk21 (Piessens et al. 1983): the 21-point Kronrod rule on
# [-1, 1] and its embedded 10-point Gauss rule, exact for polynomials of
# degree 31 and 19.  Nodes run from -1 to 1; the Gauss weights are zero on
# the Kronrod-only nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525793155, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
])
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_KRONROD_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS_WEIGHTS = np.concatenate([_WG, _WG[-2::-1]])


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# Pieces are bisected until each error estimate is below _PANEL_TOL (or at
# its round-off floor), so that the estimates added as slack are far below
# the bound and barely depend on how the panels were cut: the bound at one
# Omega is the same, to about 1e-13 relative, alone or within a sweep.
# The tolerance is per piece and not split between halves: near zeta = 0,
# |phi - psi| is rounding noise whose estimate shrinks only in proportion
# to the width, so a split tolerance would never be met.
_PANEL_TOL = 1e-15
_MAX_BISECTIONS = 30
# Panels integrated together.  At 512 panels a first round's (panels x 21)
# arrays are 86 KB, under glibc's default 128 KiB mmap threshold, so they
# are recycled from the heap; larger ones are mapped, faulted in page by
# page and unmapped on every call.  Per-panel results do not depend on the
# chunk size.
_CHUNK = 1 << 9
_MAX_PIECES = 1 << 12  # open pieces of one chunk; bounds the memory in use


def _gk21(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """qk21 on every panel [a_i, b_i] with one call of the array function f.

    Returns the Kronrod integrals, QUADPACK's error estimates (the
    Kronrod-Gauss difference scaled by (200 |K - G| / resasc)^1.5, and at
    least its round-off floor) and that floor, 50 machine epsilons times
    the integral of |f|.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    y = f(c[:, None] + h[:, None] * _GK_NODES)
    resk = y @ _GK_KRONROD_WEIGHTS
    err = np.abs(resk - y @ _GK_GAUSS_WEIGHTS) * h
    resasc = np.abs(y - 0.5 * resk[:, None]) @ _GK_KRONROD_WEIGHTS * h
    floor = 50.0 * np.finfo(float).eps * (np.abs(y) @ _GK_KRONROD_WEIGHTS * h)
    ok = (resasc != 0) & (err != 0)
    err[ok] = resasc[ok] * np.minimum(1.0, (200.0 * err[ok] / resasc[ok]) ** 1.5)
    return resk * h, np.maximum(err, floor), floor


def _integrate_panels(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integral of f over each panel [a_i, b_i] and its error estimate.

    The pieces of _CHUNK panels at a time are integrated together by
    `_gk21`; a piece whose estimate exceeds both _PANEL_TOL and its
    round-off floor is bisected.  After _MAX_BISECTIONS rounds, or once
    more than _MAX_PIECES pieces would be open, the open pieces are
    accepted as they are; their estimates still count in the returned
    error.
    """
    P = a.size
    val, err = np.zeros(P), np.zeros(P)
    for start in range(0, P, _CHUNK):
        lo, hi = a[start : start + _CHUNK], b[start : start + _CHUNK]
        owner = np.arange(start, start + lo.size)
        for depth in range(_MAX_BISECTIONS + 1):
            r, e, floor = _gk21(f, lo, hi)
            done = e <= np.maximum(_PANEL_TOL, floor)
            if depth == _MAX_BISECTIONS or 2 * np.count_nonzero(~done) > _MAX_PIECES:
                done[:] = True
            val += np.bincount(owner[done], r[done], P)
            err += np.bincount(owner[done], e[done], P)
            if done.all():
                break
            lo, hi, owner = lo[~done], hi[~done], owner[~done]
            mid = 0.5 * (lo + hi)
            lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)
    return val, err


def _omega_array(omegas, name: str) -> np.ndarray:
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    if om.size == 0 or not np.all(np.isfinite(om) & (om > 0)):
        raise ValueError(f"{name} must be positive and finite, got {omegas!r}")
    return om


def _sweep(
    F: Law,
    G: Law,
    omegas: np.ndarray,
    constants: tuple[float, float] = (C1_DEFAULT, C2_DEFAULT),
    tol: float = 1e-8,
) -> list[EsseenReport]:
    """The smoothing bound at every Omega from one pass of quadrature.

    The integrand |phi - psi|/zeta does not depend on Omega.  Panel edges
    are each Omega's lower cut eps, the cuts 1, 5, 9, ... and every Omega,
    so one Omega alone gets exactly the panels [eps, 1], [1, 5], ...,
    [., Omega].  The panels are integrated once; prefix sums of the panel
    integrals and error estimates give each Omega's integral term and
    quadrature error.
    """
    _check_laws(F, G)
    c1, c2 = constants
    alpha = min(F.moment[0], G.moment[0])
    a_t = min(alpha, 1.0)
    msum = F.moment[1] + G.moment[1]
    eps = (tol / (40.0 * max(msum, 1e-300))) ** (1.0 / a_t)
    epss = np.minimum(eps, omegas / 4.0)
    edges = np.unique(np.concatenate([epss, np.arange(1.0, omegas.max(), 4.0), omegas]))

    def integrand(z: np.ndarray) -> np.ndarray:
        return np.abs(F.cf(z) - G.cf(z)) / z

    # panels keep the quadrature honest on the kinked |phi - psi| profile;
    # the achieved quadrature error is added into the bound as slack.
    val, err = _integrate_panels(integrand, edges[:-1], edges[1:])
    cum_val = np.concatenate([[0.0], np.cumsum(val)])
    cum_err = np.concatenate([[0.0], np.cumsum(err)])
    reports = []
    for omega, eps in zip(omegas.tolist(), epss.tolist()):
        lo, hi = np.searchsorted(edges, [eps, omega])
        v = float(cum_val[hi] - cum_val[lo])
        quad_err = float(cum_err[hi] - cum_err[lo])
        integral = 2.0 * v  # Hermitian symmetry: |diff(-z)| = |diff(z)|
        exclusion = 2.0 * 2.0 * msum * eps**a_t  # excluded mass, both signs
        if quad_err > 1e-3 * max(1.0, v):
            raise ArithmeticError(f"quadrature error {quad_err:g} exceeds budget")
        tail = c2 * G.density_bounds[0] / omega
        total = c1 * (integral + exclusion + 2.0 * quad_err) + tail
        reports.append(EsseenReport(total, c1 * integral, tail, c1 * exclusion, omega, (c1, c2)))
    return reports


def esseen_bound_1d(
    F: Law,
    G: Law,
    omega: float,
    constants: tuple[float, float] = (C1_DEFAULT, C2_DEFAULT),
    tol: float = 1e-8,
) -> EsseenReport:
    """c1 * int_{|zeta|<=Omega} |phi - psi|/|zeta| + c2 * m / Omega.

    The small-|zeta| exclusion is certified by the Holder bound
    |phi(w) - psi(w)| <= 2 |w|^alpha~ * (moment sum), alpha~ = min(alpha, 1).
    It is the one-Omega case of the sweep behind `best_esseen_bound`.
    """
    return _sweep(F, G, _omega_array(omega, "omega"), constants, tol)[0]


def gaussian_mollify(F: Law, eps: float) -> Law:
    """Convolve the law F on R with a centered Gaussian of standard deviation eps."""
    _check_laws(F)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    w = weights / math.sqrt(2.0 * math.pi)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return F.cdf(t[..., None] - eps * nodes) @ w

    def cf(z):
        z = np.asarray(z, dtype=float)
        return F.cf(z) * np.exp(-0.5 * (eps * z) ** 2)

    m = 1.0 / (eps * math.sqrt(2.0 * math.pi))
    if F.density_bounds is not None:
        m = min(m, F.density_bounds[0])
    a, mom = F.moment
    return Law(cdf, cf, (a, mom + eps**a * 2.0), (m,))


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
) -> EsseenReport:
    """The smallest `esseen_bound_1d` report over omegas, from one sweep."""
    return min(_sweep(F, G, _omega_array(omegas, "omegas")), key=lambda r: r.total)


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
        rows.append(HarnessRow(n, d, rep.total, rep.omega, inc))
    return rows


# ---------------------------------------------------------------------------
# Fourier-side representations of the extremal pair


def representation_residual(which: str, x: float, tol: float = 1e-8) -> float:
    """|pv-int_{-1}^{1} [1/(pi i v) + R(v)] e^{2 pi i x v} dv  -  target(x)|

    with R = T/i + (1-|v|) for the majorant and T/i - (1-|v|) for the
    minorant, T(v) = (Q(v) - Q(0))/v.
    """
    from .kernels import B_eval, b_eval

    q0 = Q_eval(0.0)
    sign = {"B": 1.0, "b": -1.0}[which]

    def h(v: float) -> complex:
        T = (Q_eval(v) - q0) / v
        R = T / 1j + sign * (1.0 - abs(v))
        return (1.0 / (math.pi * 1j * v) + R) * np.exp(2j * math.pi * x * v)

    val, _ = pv_integral(h, 1.0, tol)
    target = B_eval(x) if which == "B" else b_eval(x)
    return abs(val - target)
