"""Central-limit-theorem variants with quantitative log-CF gap bounds.

The vector 'twist' T_N = sigma_N^{-1} sum X_n (b_{n,j}), of which the
complex scalar statistic s_N^{-1} sum b_n X_n is the J = 1 case, together
with the elementary inequalities used in the proofs (one function each,
named by what it bounds and numbered as in the paper in its docstring),
the Haar-circle example law, and a reproducible Monte Carlo engine built
on counter-based (Philox) random streams.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .esseen1d import normal_law
from .quadrature import leggauss

__all__ = [
    "ComplexLawSpec",
    "CoefficientScheme",
    "MonteCarloConfig",
    "ToolboxResult",
    "taylor_remainder",
    "taylor_remainder_min",
    "principal_log",
    "power_mean_chain",
    "third_moment_chain",
    "fractional_remainder",
    "norm_ratios",
    "stretched_exp_max",
    "power_sum_pinch",
    "haar_circle_law",
    "lyapunov_normalizer",
    "NormalizerStats",
    "gaussian_limit_gap",
    "GapReport",
    "vector_statistic",
    "StatReport",
    "ks_distance",
    "constant_scheme",
    "index_scheme",
    "alternating_vector_scheme",
    "bessel_j0",
]


# ---------------------------------------------------------------------------
# the elementary inequalities of the proofs: each evaluates one at the given
# point and reports whether it holds, with its slack


@dataclass(frozen=True)
class ToolboxResult:
    holds: bool
    slack: float
    lhs: float
    rhs: float


def _exp_taylor_remainder(t: float, n: int) -> float:
    """|e^{it} - sum_{k<=n} (it)^k/k!|.

    Where n + 1 > |t| the partial sum nearly cancels e^{it}, and the tail
    terms (it)^k/k!, k > n, decrease: they are summed exactly in rationals,
    the real and the imaginary parts apart, until the next term is below
    2^-64 of each part.  Each part is an alternating series, so its
    remainder is below its next term, and each is rounded once."""
    if not n + 1 > abs(t):  # NaN t included
        partial = sum((1j * t) ** k / math.factorial(k) for k in range(n + 1))
        return abs(cmath.exp(1j * t) - partial)
    x, k = Fraction(t), n + 1
    term, parts = x**k / math.factorial(k), [Fraction(0), Fraction(0)]
    while True:
        # (it)^k is i^k t^k: real for even k, negative for k = 2, 3 mod 4
        parts[k % 2] += term if k % 4 < 2 else -term
        k += 1
        term = term * x / k
        if all(abs(term) <= abs(p) / 2**64 for p in parts):
            return math.hypot(float(parts[0]), float(parts[1]))


def taylor_remainder(t: float, n: int) -> ToolboxResult:
    """5.1: |e^{it} - sum_{k<=n} (it)^k/k!| <= |t|^{n+1}/(n+1)!."""
    t, n = float(t), int(n)
    lhs = _exp_taylor_remainder(t, n)
    rhs = abs(t) ** (n + 1) / math.factorial(n + 1)
    return ToolboxResult(lhs <= rhs + 1e-15, rhs - lhs, lhs, rhs)


def taylor_remainder_min(t: float, n: int) -> ToolboxResult:
    """5.1bis: the same remainder <= min(|t|^{n+1}/(n+1)!, 2 |t|^n/n!)."""
    t, n = float(t), int(n)
    lhs = _exp_taylor_remainder(t, n)
    rhs = min(abs(t) ** (n + 1) / math.factorial(n + 1), 2.0 * abs(t) ** n / math.factorial(n))
    return ToolboxResult(lhs <= rhs + 1e-15, rhs - lhs, lhs, rhs)


def principal_log(z: complex) -> ToolboxResult:
    """5.2: |log(1 + z) - z| <= |z|^2 for |z| <= 1/2, principal branch."""
    z = complex(z)
    if abs(z) > 0.5:
        raise ValueError("principal-log bound needs |z| <= 1/2")
    lhs = abs(cmath.log(1.0 + z) - z)
    rhs = abs(z) ** 2
    return ToolboxResult(lhs <= rhs + 1e-15, rhs - lhs, lhs, rhs)


def power_mean_chain(x, lam: float) -> ToolboxResult:
    """5.3: max x <= ||x||_lam <= ||x||_1 <= m^(1-1/lam) ||x||_lam <= m max x, x >= 0 in R^m."""
    x = np.asarray(x, dtype=float)
    lam = float(lam)
    if np.any(x < 0) or lam < 1.0:
        raise ValueError("needs nonnegative entries and lam >= 1")
    m = x.size
    a = float(np.max(x)) if m else 0.0
    b = float(np.sum(x**lam)) ** (1.0 / lam)
    c = float(np.sum(x))
    d = m ** (1.0 - 1.0 / lam) * b
    e = m * a
    slack = min(b - a, c - b, d - c, e - d)
    return ToolboxResult(slack >= -1e-12, slack, a, e)


def third_moment_chain(x) -> ToolboxResult:
    """5.4: (B/s)^3 <= sum x^3 / s^3 <= B/s for x >= 0, B = max x, s = ||x||_2 != 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("needs nonnegative entries")
    s = math.sqrt(float(np.sum(x**2)))
    if s == 0.0:
        raise ValueError("needs s_N != 0")
    B = float(np.max(x))
    mid = float(np.sum(x**3)) / s**3
    lhs, rhs = (B / s) ** 3, B / s
    slack = min(mid - lhs, rhs - mid)
    return ToolboxResult(slack >= -1e-12, slack, lhs, rhs)


def fractional_remainder(t: float, n: int, omega: float) -> ToolboxResult:
    """5.5: the remainder of 5.1 <= 2^(1-omega) |t|^(n+omega) / prod_{k<=n} (k + omega), 0 <= omega < 1."""
    t, n, omega = float(t), int(n), float(omega)
    if not 0.0 <= omega < 1.0:
        raise ValueError("needs omega in [0, 1)")
    lhs = _exp_taylor_remainder(t, n)
    denom = 1.0
    for k in range(1, n + 1):
        denom *= k + omega
    rhs = 2.0 ** (1.0 - omega) * abs(t) ** (n + omega) / denom
    return ToolboxResult(lhs <= rhs + 1e-15, rhs - lhs, lhs, rhs)


def norm_ratios(w, lam: float) -> ToolboxResult:
    """5.15: 1/J <= ||w||_inf/||w||_1 <= ||w||_lam/||w||_1 <= 1 for w in C^J, lam >= 1."""
    w = np.asarray(w, dtype=complex)
    lam = float(lam)
    if lam < 1.0 or w.size == 0:
        raise ValueError("needs lam >= 1 and a nonempty vector")
    J = w.size
    mags = np.abs(w)
    if float(np.max(mags)) == 0.0:
        return ToolboxResult(True, 0.0, 1.0 / J, 1.0)
    mags = mags / float(np.max(mags))  # scale-invariant; avoids underflow
    n1 = float(np.sum(mags))
    r_inf = float(np.max(mags)) / n1
    r_lam = float(np.sum(mags**lam)) ** (1.0 / lam) / n1
    slack = min(r_inf - 1.0 / J, r_lam - r_inf, 1.0 - r_lam)
    return ToolboxResult(slack >= -1e-12, slack, 1.0 / J, 1.0)


def stretched_exp_max(n: int, beta: float, q: float) -> ToolboxResult:
    """5.19: the max of t^n exp(-beta t^gamma / 2), gamma = 2/(q-1), on [0, 1e4] <= its closed form."""
    n, beta, q = int(n), float(beta), float(q)
    if beta <= 0 or q <= 1:
        raise ValueError("needs beta > 0 and q > 1")
    gamma = 2.0 / (q - 1.0)
    ts = np.linspace(0.0, 1e4, 200001)
    lhs = float(np.max(ts**n * np.exp(-0.5 * beta * ts**gamma)))
    if n == 0:
        rhs = 1.0
    else:  # maximize n*log t - beta/2 * t^gamma in closed form
        tstar = (2.0 * n / (beta * gamma)) ** (1.0 / gamma)
        rhs = tstar**n * math.exp(-0.5 * beta * tstar**gamma)
    return ToolboxResult(lhs <= rhs * (1.0 + 1e-12), rhs - lhs, lhs, rhs)


def power_sum_pinch(t, n: int, psi: float) -> ToolboxResult:
    """5.20: (sum a)^psi / sum a^psi, a = |t|^n, lies between 1 and k^(psi-1) for t != 0 in R^k."""
    t = np.asarray(t, dtype=float)
    n, psi = int(n), float(psi)
    if psi <= 0 or t.size == 0:
        raise ValueError("needs psi > 0 and a nonempty vector")
    k = t.size
    a = np.abs(t) ** n
    if np.sum(a) == 0.0:
        raise ValueError("needs a nonzero vector")
    ratio = float(np.sum(a)) ** psi / float(np.sum(a**psi))
    lo = min(1.0, float(k) ** (psi - 1.0))
    hi = max(1.0, float(k) ** (psi - 1.0))
    slack = min(ratio - lo, hi - ratio)
    return ToolboxResult(slack >= -1e-12, slack, lo, hi)


# ---------------------------------------------------------------------------
# laws


@dataclass(frozen=True)
class ComplexLawSpec:
    """A complex law F with cf phi(xi) = E exp[i Re(conj(xi) z)].

    Moment contract: mean 0, E|z|^2 = 2 beta^2, E z^2 = 0, E|z|^3 = rho3,
    with beta <= rho by Holder.
    """

    name: str
    sampler: Callable  # (rng, size) -> complex ndarray
    cf: Callable[[np.ndarray], np.ndarray]  # complex array -> complex array, same shape
    beta2: float  # beta^2, half the absolute second moment
    rho3: float

    @property
    def beta(self) -> float:
        return math.sqrt(self.beta2)

    @property
    def rho(self) -> float:
        return self.rho3 ** (1.0 / 3.0)


# elements of one (rows, nodes) block in the J0 quadrature
_J0_BLOCK = 1 << 16


def _j0(r: np.ndarray) -> np.ndarray:
    """J0(|r|) = (1/pi) int_0^pi cos(r cos theta) dtheta for every element
    of r.  Each element starts at 64 Gauss nodes, doubled until two
    successive levels agree to 1e-12; a row of nodes is summed as one 1-D
    array, so every value is the one a single-point quadrature gives."""
    r = np.abs(np.asarray(r, dtype=float))
    out = np.empty(r.shape)
    rs, flat = r.reshape(-1), out.reshape(-1)  # flat is a view of out
    todo, prev, n = np.arange(r.size), None, 64
    for _ in range(6):
        x, w = leggauss(n)
        c = np.cos(0.5 * math.pi * (x + 1.0))
        val = np.empty(todo.size)
        step = max(1, _J0_BLOCK // n)
        for i in range(0, todo.size, step):
            val[i:i + step] = np.sum(w * np.cos(rs[todo[i:i + step], None] * c), axis=1) * 0.5
        if prev is not None:
            done = np.abs(val - prev) < 1e-12
            flat[todo[done]] = val[done]
            todo, val = todo[~done], val[~done]
            if todo.size == 0:
                return out
        prev = val
        n *= 2
    raise ArithmeticError("angular quadrature for J0 did not settle")


# The cache saves nothing on bslib's own paths, which call _j0 on whole
# arrays; it stays because perfbench reads bessel_j0.cache_info() for its
# clt.j0_cache_hit_ratio metric.
@functools.lru_cache(maxsize=1 << 16)
def bessel_j0(r: float) -> float:
    """J0(r) at one point: the array quadrature _j0 on a single element."""
    return float(_j0(float(r)))


# a turn is split into 2^_TURN_BITS table steps
_TURN_BITS = 12


def _turn_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi j / 2^_TURN_BITS for every j, each within 1.2e-16.

    Only the first octant calls np.cos and np.sin, and its end is
    sqrt(1/2) in both.  The rest follows by exact symmetries: the swap
    about pi/4, then quarter turns."""
    q = 1 << (_TURN_BITS - 2)  # steps per quarter turn
    x = (2.0 * math.pi / (1 << _TURN_BITS)) * np.arange(q // 2 + 1)
    c, s = np.cos(x), np.sin(x)
    c[-1] = s[-1] = math.sqrt(0.5)
    c, s = np.concatenate([c, s[-2:0:-1]]), np.concatenate([s, c[-2:0:-1]])
    cos, sin = np.concatenate([c, -s, -c, s]), np.concatenate([s, c, -s, -c])
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


_TURN_COS, _TURN_SIN = _turn_table()
# the bits of a raw word below the table index that k = word >> 11 keeps,
# and the radians per unit of them: 2 pi 2^-53 per unit of k
_DELTA_BITS = ((1 << (53 - _TURN_BITS)) - 1) << 11
_RADIANS_PER_UNIT = 2.0 * math.pi * 2.0**-64


def haar_circle_law() -> ComplexLawSpec:
    """Uniform law on the unit circle: cf = J0(|xi|), beta^2 = 1/2, rho3 = 1.

    The sampler draws e^{2 pi i u} for the u = k 2^-53 that rng.random
    draws from the same raw 64-bit words (k = word >> 11), and leaves rng
    where rng.random(size) leaves it.  The top _TURN_BITS bits of k pick
    a step of the turn table.  The other bits give an angle
    delta < 2 pi / 2^_TURN_BITS, whose 1 - cos and sin are short series
    truncated below 2e-20.  The rotation by delta is made of separate real
    ufunc calls, so no CPU-dependent fused multiply-add enters, and each
    component is within 2.5e-16 of e^{2 pi i u}."""

    def sampler(rng, size):
        bitgen = rng.bit_generator
        if isinstance(bitgen, np.random.MT19937):
            raise ValueError("rng must draw 64-bit words, and MT19937 draws 32-bit ones")
        words = np.asarray(bitgen.random_raw(size), dtype=np.uint64)
        z = np.empty(words.shape, dtype=complex)
        w, re, im = words.reshape(-1), z.reshape(-1).real, z.reshape(-1).imag
        # every temporary of the draw is a row of one block: one array per
        # temporary makes the heaps of the drawing threads shrink and regrow
        idx, d, d2, t, c, s = np.empty((6, w.size))
        idx = idx.view(np.int64)
        np.right_shift(w, 64 - _TURN_BITS, out=idx)
        np.take(_TURN_COS, idx, out=c, mode="clip")
        np.take(_TURN_SIN, idx, out=s, mode="clip")
        np.bitwise_and(w, _DELTA_BITS, out=w)  # below 2^53, so exact as a float
        np.multiply(w, _RADIANS_PER_UNIT, out=d)
        np.multiply(d, d, out=d2)
        # sin delta = delta (1 + delta^2 (delta^2/120 - 1/6)), into d
        np.multiply(d2, 1.0 / 120.0, out=t)
        np.subtract(t, 1.0 / 6.0, out=t)
        np.multiply(t, d2, out=t)
        np.add(t, 1.0, out=t)
        np.multiply(d, t, out=d)
        # 1 - cos delta = delta^2 (1/2 - delta^2/24), into d2
        np.multiply(d2, -1.0 / 24.0, out=t)
        np.add(t, 0.5, out=t)
        np.multiply(d2, t, out=d2)
        # re = c - (c (1 - cos delta) + s sin delta)
        tmp = idx.view(float)  # idx's row is free once the table is read
        np.multiply(c, d2, out=t)
        np.multiply(s, d, out=tmp)
        np.add(t, tmp, out=t)
        np.subtract(c, t, out=re)
        # im = s + (c sin delta - s (1 - cos delta))
        np.multiply(c, d, out=t)
        np.multiply(s, d2, out=tmp)
        np.subtract(t, tmp, out=t)
        np.add(s, t, out=im)
        return z

    def cf(xi):
        # hypot, not np.abs: numpy's vector loop for complex abs can round
        # |xi| differently from abs() of a single complex value
        xi = np.asarray(xi, dtype=complex)
        return _j0(np.hypot(xi.real, xi.imag)).astype(complex)

    return ComplexLawSpec("haar_circle", sampler, cf, 0.5, 1.0)


# ---------------------------------------------------------------------------
# coefficient schemes


@dataclass(frozen=True)
class CoefficientScheme:
    """Weights b_n in C^J with the normalizer sigma_N and targets beta_j.

    coeffs(N) returns the first N rows, shape (N, J).  A scalar statistic
    s_N^{-1} sum b_n X_n is the J = 1 scheme: there sigma = None means
    s_N = (sum |b_n|^2)^(1/2) and betas = None means (1,).  For J > 1 both
    are required.  The diagonal targets beta_j are declared, with the
    actual residual of the normalization matrix reported by
    lyapunov_normalizer.
    """

    coeffs: Callable[[int], np.ndarray]
    sigma: Callable[[int], float] | None = None
    betas: tuple[float, ...] | None = None


def constant_scheme() -> CoefficientScheme:
    return CoefficientScheme(lambda N: np.ones((N, 1), dtype=complex))


def index_scheme() -> CoefficientScheme:
    return CoefficientScheme(lambda N: np.arange(1, N + 1, dtype=complex)[:, None])


def alternating_vector_scheme(J: int = 2) -> CoefficientScheme:
    """Row n is the standard basis vector e_{n mod J}; sigma_N = sqrt(N),
    so the normalization matrix tends to diag(1/J)."""
    if not isinstance(J, (int, np.integer)) or isinstance(J, bool) or J < 1:
        raise ValueError(f"J must be an integer >= 1 (got {J!r})")

    def coeffs(N: int) -> np.ndarray:
        rows = np.zeros((N, J), dtype=complex)
        rows[np.arange(N), np.arange(N) % J] = 1.0
        return rows

    return CoefficientScheme(coeffs, lambda N: math.sqrt(N), tuple([1.0 / J] * J))


def _weights(scheme: CoefficientScheme, N: int):
    """(b, |b|, sigma, e, betas): the rows b_n, their moduli and sigma_N,
    each times 2^-e for the binade 2^e of max |b_nj|.  Scaling by a power
    of two is exact, and it keeps the squares and cubes of |b| finite."""
    b = np.asarray(scheme.coeffs(N))
    mags = np.abs(b)
    J = b.shape[-1]
    if b.shape != (N, J) or not np.all(np.isfinite(mags)) or not np.any(mags > 0):
        raise ValueError(f"scheme coefficients must be N = {N} finite rows, not all zero "
                         f"(got shape {b.shape}, max |b| = {float(np.max(mags, initial=0.0))!r})")
    if J > 1 and (scheme.sigma is None or scheme.betas is None):
        raise ValueError(f"scheme must have sigma and betas for J = {J} > 1")
    e = int(np.frexp(np.max(mags))[1])
    mags = np.ldexp(mags, -e)
    sigma = math.sqrt(np.sum(mags**2)) if scheme.sigma is None else math.ldexp(scheme.sigma(N), -e)
    if not sigma > 0:
        raise ValueError(f"scheme sigma must be > 0 (got {math.ldexp(sigma, e)!r} at N = {N})")
    return b * math.ldexp(1.0, -e), mags, sigma, e, scheme.betas or (1.0,)


@dataclass(frozen=True)
class NormalizerStats:
    scale: float  # sigma_N (s_N for J = 1)
    lyapunov_sum: float  # sum |b_nj|^3 / sigma_N^3
    max_ratio: float  # D_N / sigma_N, D_N the largest row 1-norm (B_N / s_N for J = 1)
    matrix_residual: float  # max-entry norm of sum conj(b_n) b_n^T / sigma_N^2 - diag(beta)


def lyapunov_normalizer(scheme: CoefficientScheme, N: int) -> NormalizerStats:
    b, mags, sigma, e, betas = _weights(scheme, N)
    M = (b.conj().T @ b) / sigma**2
    resid = float(np.max(np.abs(M - np.diag(betas))))
    max_ratio = float(np.max(np.sum(mags, axis=1))) / sigma
    return NormalizerStats(math.ldexp(sigma, e), float(np.sum(mags**3)) / sigma**3, max_ratio, resid)


# ---------------------------------------------------------------------------
# quantitative gap


@dataclass(frozen=True)
class GapReport:
    gap: float
    proof_bound: float
    admissible: bool
    holds: bool
    admissibility_value: float
    branch_ok: bool


def gaussian_limit_gap(
    law: ComplexLawSpec, scheme: CoefficientScheme, N: int, xi, A: float = 1.0
) -> GapReport:
    """|log phi_N + beta^2/2 * sum |U_n|^2| against the proof bound (2/3) rho^3 A^3 L.

    U_n = conj(b_n) . xi / sigma_N are the factor arguments; for J = 1, xi
    is a complex number and the quadratic form equals beta^2 |xi|^2 / 2.
    L is the Lyapunov sum of the row 1-norms, sum_n (sum_j |b_nj|)^3 /
    sigma_N^3.  The branch of log phi_N is the sum of principal logs of the
    individual factors, each of which stays inside the unit disk about 1
    under the admissibility condition.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    if not np.all(np.isfinite(xi)):
        raise ValueError(f"xi must be finite (got {xi!r})")
    b, mags, sigma, _, _ = _weights(scheme, N)
    U = (np.conj(b) @ xi) / sigma
    rows = np.sum(mags, axis=1)
    max_ratio = float(np.max(rows)) / sigma
    L = float(np.sum(rows**3)) / sigma**3
    adm_value = 4.0 * law.beta2 * (A * max_ratio) ** 2 + 2.0 * (law.rho * A) ** 3 * L
    admissible = adm_value < 1.0

    factors = law.cf(U)
    branch_ok = bool(np.all(np.abs(1.0 - factors) < 1.0))
    if not branch_ok and admissible:
        raise ArithmeticError("principal-log branch failed inside the admissible range")
    log_phi = complex(np.sum(np.log(factors))) if branch_ok else complex("nan")

    gap = abs(log_phi + 0.5 * law.beta2 * float(np.sum(np.abs(U) ** 2)))
    bound = (2.0 / 3.0) * law.rho3 * A**3 * L
    holds = bool(gap <= bound) if admissible else True
    return GapReport(gap, bound, admissible, holds, adm_value, branch_ok)


# ---------------------------------------------------------------------------
# Monte Carlo engine


@dataclass(frozen=True)
class MonteCarloConfig:
    seed: int
    samples: int
    N: int

    def __post_init__(self):
        for name in ("seed", "samples", "N"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer (got {value!r})")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128) (got {self.seed!r})")
        if not self.samples >= 10**3:
            raise ValueError(f"samples must be >= 1000 (got {self.samples!r})")
        if not self.N >= 1:
            raise ValueError(f"N must be >= 1 (got {self.N!r})")


def _stream(seed: int, index: int) -> np.random.Generator:
    # counter-based streams: one Philox stream per coefficient index, the
    # state Philox(key=seed).jumped(index) reaches, set without the jumps
    counter = [0, 0, index % 2**64, index >> 64]
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


# the most threads that draw streams at once
_MAX_DRAW_WORKERS = 4


def _draw_workers(N: int) -> int:
    """Threads for drawing N streams: the usable CPUs, at most _MAX_DRAW_WORKERS and N."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, _MAX_DRAW_WORKERS, N))


def ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """max_i max(i/n - F(x_i), F(x_i) - (i-1)/n) for sorted samples; one cdf call on them all."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    if not np.all(np.diff(x) >= 0):
        raise ValueError("samples must be sorted ascending")
    F = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - F, F - (i - 1) / n)))


@dataclass(frozen=True)
class StatReport:
    ks_real: tuple[float, ...]
    ks_imag: tuple[float, ...]
    covariance: np.ndarray  # empirical E(w_j conj(w_l))
    covariance_target: np.ndarray
    covariance_stderr: float
    rectangle_max_gap: float
    analytic_second_moment: complex  # E(T_1^2) diagnostic, first component
    samples: int


def vector_statistic(
    law: ComplexLawSpec,
    scheme: CoefficientScheme,
    N: int,
    mc: MonteCarloConfig,
) -> StatReport:
    """Monte Carlo replicas of T_N with marginal / covariance / rectangle checks.

    The limit has independent components, so rectangle probabilities on
    the grid {-1.5, -0.5, 0, 0.5, 1.5}^2 are compared against products of
    1-D normal CDFs with variances beta_j beta^2 per real coordinate.
    """
    if N != mc.N:
        raise ValueError(f"N = {N!r} differs from the Monte Carlo config's N = {mc.N!r}")
    b, _, sigma, _, betas = _weights(scheme, N)
    J = b.shape[1]

    # Streams n + 1, ... are drawn on worker threads while stream n is
    # added here, in index order, so T does not depend on the thread count.
    # One queued draw per worker keeps each busy while this thread adds.
    def draw(n):
        return law.sampler(_stream(mc.seed, n), mc.samples)

    workers = _draw_workers(N)
    depth = 2 * workers
    Tt = np.zeros((J, mc.samples), dtype=complex)
    pool = ThreadPoolExecutor(workers)
    try:
        ahead = deque(pool.submit(draw, n) for n in range(min(depth, N)))
        for n in range(N):
            X = ahead.popleft().result()
            if n + depth < N:
                ahead.append(pool.submit(draw, n + depth))
            for j in range(J):
                if b[n, j].imag:
                    # a complex multiply may fuse a multiply-add on one CPU
                    # and not on another; a real coefficient's rounds as
                    # x c and y c on every CPU
                    br, bi, re, im = b[n, j].real, b[n, j].imag, Tt[j].real, Tt[j].imag
                    re += X.real * br - X.imag * bi
                    im += X.real * bi + X.imag * br
                elif b[n, j]:
                    Tt[j] += X * b[n, j]
    finally:
        pool.shutdown(cancel_futures=True)
    Tt /= sigma

    # component variances of the limit: each real coordinate ~ N(0, beta_j beta^2)
    var = [bj * law.beta2 for bj in betas]
    limits = [normal_law(0.0, math.sqrt(v)).cdf for v in var]
    ks_re = tuple(ks_distance(np.sort(Tt[j].real), limits[j]) for j in range(J))
    ks_im = tuple(ks_distance(np.sort(Tt[j].imag), limits[j]) for j in range(J))

    # E(w_j conj(w_l)) from real products, summed along the rows by numpy:
    # a BLAS product rounds by its thread count, and a complex multiply may
    # fuse a multiply-add on one CPU and not on another
    re, im = Tt.real, Tt.imag
    cov = np.empty((J, J), dtype=complex)
    cov.real = (re[:, None] * re + im[:, None] * im).sum(axis=-1) / mc.samples
    cov.imag = (im[:, None] * re - re[:, None] * im).sum(axis=-1) / mc.samples
    cov_target = np.diag([2.0 * v for v in var]).astype(complex)
    cov_stderr = float(np.max(np.abs(Tt) ** 2)) / math.sqrt(mc.samples)
    cov_stderr = max(cov_stderr, 4.0 * max(var) / math.sqrt(mc.samples))

    grid = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    worst = 0.0
    for j in range(J):
        # the share of samples with Re <= grid[a] and Im <= grid[b], at [a, b]
        re, im = Tt[j, :, None, None].real, Tt[j, :, None, None].imag
        emp = np.mean((re <= grid[:, None]) & (im <= grid), axis=0)
        p = limits[j](grid)
        worst = max(worst, float(np.max(np.abs(emp - np.outer(p, p)))))

    second = complex(np.mean(Tt[0] ** 2))
    return StatReport(ks_re, ks_im, cov, cov_target, cov_stderr, worst, second, mc.samples)
