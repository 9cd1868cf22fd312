"""Central-limit-theorem variants with quantitative log-CF gap bounds.

Complex scalar statistics T_N = s_N^{-1} sum b_j X_j, their real-scalar
reduction, and the vector 'twist' T_N = sigma_N^{-1} sum X_n (b_{n,j}),
together with the elementary inequality toolbox used in the proofs, the
Haar-circle example law, and a reproducible Monte Carlo engine built on
counter-based (Philox) random streams.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .esseen1d import normal_law
from .quadrature import leggauss

__all__ = [
    "ComplexLawSpec",
    "CoefficientScheme",
    "MonteCarloConfig",
    "inequality_toolbox",
    "ToolboxResult",
    "haar_circle_law",
    "rademacher_product_law",
    "lyapunov_normalizer",
    "NormalizerStats",
    "gaussian_limit_gap",
    "GapReport",
    "vector_statistic",
    "StatReport",
    "ks_distance",
    "constant_scheme",
    "index_scheme",
    "geometric_scheme",
    "alternating_vector_scheme",
    "bessel_j0",
]


# ---------------------------------------------------------------------------
# inequality toolbox


@dataclass(frozen=True)
class ToolboxResult:
    ineq_id: str
    holds: bool
    slack: float
    lhs: float
    rhs: float


def _exp_taylor_remainder(t: float, n: int) -> float:
    partial = sum((1j * t) ** k / math.factorial(k) for k in range(n + 1))
    return abs(cmath.exp(1j * t) - partial)


def inequality_toolbox(ineq_id: str, **kw) -> ToolboxResult:
    """Evaluate one of the elementary inequalities; returns holds + slack.

    ids: 5.1 (Taylor remainder of e^{it}), 5.1bis (min-form remainder),
    5.2 (principal log vs z), 5.3 (power-mean chain), 5.4 (third-moment
    ratio chain), 5.5 (fractional-order remainder), 5.15 (norm ratios),
    5.19 (polynomial times stretched exponential is bounded), 5.20
    (power-sum ratio pinched between positive constants).
    """
    if ineq_id == "5.1":
        t, n = float(kw["t"]), int(kw["n"])
        lhs = _exp_taylor_remainder(t, n)
        rhs = abs(t) ** (n + 1) / math.factorial(n + 1)
    elif ineq_id == "5.1bis":
        t, n = float(kw["t"]), int(kw["n"])
        lhs = _exp_taylor_remainder(t, n)
        rhs = min(abs(t) ** (n + 1) / math.factorial(n + 1), 2.0 * abs(t) ** n / math.factorial(n))
    elif ineq_id == "5.2":
        z = complex(kw["z"])
        if abs(z) > 0.5:
            raise ValueError("principal-log bound needs |z| <= 1/2")
        lhs = abs(cmath.log(1.0 + z) - z)
        rhs = abs(z) ** 2
    elif ineq_id == "5.3":
        x = np.asarray(kw["x"], dtype=float)
        lam = float(kw["lam"])
        if np.any(x < 0) or lam < 1.0:
            raise ValueError("needs nonnegative entries and lam >= 1")
        m = x.size
        a = float(np.max(x)) if m else 0.0
        b = float(np.sum(x**lam)) ** (1.0 / lam)
        c = float(np.sum(x))
        d = m ** (1.0 - 1.0 / lam) * b
        e = m * a
        lhs, rhs = a, e
        slack = min(b - a, c - b, d - c, e - d)
        return ToolboxResult(ineq_id, slack >= -1e-12, slack, lhs, rhs)
    elif ineq_id == "5.4":
        x = np.asarray(kw["x"], dtype=float)
        if np.any(x < 0):
            raise ValueError("needs nonnegative entries")
        s = math.sqrt(float(np.sum(x**2)))
        if s == 0.0:
            raise ValueError("needs s_N != 0")
        B = float(np.max(x))
        mid = float(np.sum(x**3)) / s**3
        lhs, rhs = (B / s) ** 3, B / s
        slack = min(mid - lhs, rhs - mid)
        return ToolboxResult(ineq_id, slack >= -1e-12, slack, lhs, rhs)
    elif ineq_id == "5.5":
        t, n, omega = float(kw["t"]), int(kw["n"]), float(kw["omega"])
        if not 0.0 <= omega < 1.0:
            raise ValueError("needs omega in [0, 1)")
        lhs = _exp_taylor_remainder(t, n)
        denom = 1.0
        for k in range(1, n + 1):
            denom *= k + omega
        rhs = 2.0 ** (1.0 - omega) * abs(t) ** (n + omega) / denom
    elif ineq_id == "5.15":
        w = np.asarray(kw["w"], dtype=complex)
        lam = float(kw["lam"])
        if lam < 1.0 or w.size == 0:
            raise ValueError("needs lam >= 1 and a nonempty vector")
        J = w.size
        mags = np.abs(w)
        if float(np.max(mags)) == 0.0:
            return ToolboxResult(ineq_id, True, 0.0, 1.0 / J, 1.0)
        mags = mags / float(np.max(mags))  # scale-invariant; avoids underflow
        n1 = float(np.sum(mags))
        r_inf = float(np.max(mags)) / n1
        r_lam = float(np.sum(mags**lam)) ** (1.0 / lam) / n1
        slack = min(r_inf - 1.0 / J, r_lam - r_inf, 1.0 - r_lam)
        return ToolboxResult(ineq_id, slack >= -1e-12, slack, 1.0 / J, 1.0)
    elif ineq_id == "5.19":
        n, beta, q = int(kw["n"]), float(kw["beta"]), float(kw["q"])
        if beta <= 0 or q <= 1:
            raise ValueError("needs beta > 0 and q > 1")
        gamma = 2.0 / (q - 1.0)
        ts = np.linspace(0.0, kw.get("t_max", 1e4), 200001)
        lhs = float(np.max(ts**n * np.exp(-0.5 * beta * ts**gamma)))
        if n == 0:
            rhs = 1.0
        else:  # maximize n*log t - beta/2 * t^gamma in closed form
            tstar = (2.0 * n / (beta * gamma)) ** (1.0 / gamma)
            rhs = tstar**n * math.exp(-0.5 * beta * tstar**gamma)
        return ToolboxResult(ineq_id, lhs <= rhs * (1.0 + 1e-12), rhs - lhs, lhs, rhs)
    elif ineq_id == "5.20":
        t = np.asarray(kw["t"], dtype=float)
        n, psi = int(kw["n"]), float(kw["psi"])
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
        return ToolboxResult(ineq_id, slack >= -1e-12, slack, lo, hi)
    else:
        raise ValueError(f"unknown inequality id {ineq_id!r}")
    return ToolboxResult(ineq_id, lhs <= rhs + 1e-15, rhs - lhs, lhs, rhs)


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
    cf: Callable[[complex], complex]
    beta2: float  # beta^2, half the absolute second moment
    rho3: float

    @property
    def beta(self) -> float:
        return math.sqrt(self.beta2)

    @property
    def rho(self) -> float:
        return self.rho3 ** (1.0 / 3.0)


@functools.lru_cache(maxsize=1 << 16)
def bessel_j0(r: float, nodes: int = 64, tol: float = 1e-12) -> float:
    """J0(r) = (1/pi) int_0^pi cos(r cos theta) dtheta, Gauss nodes doubled
    until two successive levels agree to tol."""
    r = abs(float(r))
    prev = None
    n = nodes
    for _ in range(6):
        x, w = leggauss(n)
        theta = 0.5 * math.pi * (x + 1.0)
        val = float(np.sum(w * np.cos(r * np.cos(theta)))) * 0.5
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        n *= 2
    raise ArithmeticError("angular quadrature for J0 did not settle")


def haar_circle_law() -> ComplexLawSpec:
    """Uniform law on the unit circle: cf = J0(|xi|), beta^2 = 1/2, rho3 = 1."""

    def sampler(rng, size):
        return np.exp(2j * math.pi * rng.random(size))

    return ComplexLawSpec("haar_circle", sampler, lambda xi: complex(bessel_j0(abs(xi))), 0.5, 1.0)


def rademacher_product_law(scale: float = 1.0) -> ComplexLawSpec:
    """z = scale*(eps1 + i*eps2) with independent signs: a product law dE x dE.

    beta^2 = scale^2, rho3 = (sqrt(2)*scale)^3, cf = cos(scale*Re xi) *
    cos(scale*Im xi).  Its real marginal feeds the real-scalar CLT path.
    """

    def sampler(rng, size):
        return scale * (
            rng.choice([-1.0, 1.0], size=size) + 1j * rng.choice([-1.0, 1.0], size=size)
        )

    def cf(xi: complex) -> complex:
        return complex(math.cos(scale * xi.real) * math.cos(scale * xi.imag))

    return ComplexLawSpec("rademacher_product", sampler, cf, scale**2, (math.sqrt(2.0) * scale) ** 3)


# ---------------------------------------------------------------------------
# coefficient schemes


@dataclass(frozen=True)
class CoefficientScheme:
    """Scalar (b_j, s_N) or vector (rows b_n in C^J, sigma_N, beta_j) weights.

    coeffs(N) returns the first N coefficients: shape (N,) in scalar mode,
    (N, J) in vector mode.  sigma(N) must be supplied in vector mode; the
    diagonal targets beta_j are declared, with the actual residual of the
    normalization matrix reported by lyapunov_normalizer.
    """

    mode: Literal["scalar", "vector"]
    coeffs: Callable[[int], np.ndarray]
    sigma: Callable[[int], float] | None = None
    betas: tuple[float, ...] | None = None


def constant_scheme() -> CoefficientScheme:
    return CoefficientScheme("scalar", lambda N: np.ones(N, dtype=complex))


def index_scheme() -> CoefficientScheme:
    return CoefficientScheme("scalar", lambda N: np.arange(1, N + 1, dtype=complex))


def geometric_scheme(ratio: float = 2.0) -> CoefficientScheme:
    return CoefficientScheme("scalar", lambda N: ratio ** np.arange(1, N + 1, dtype=complex))


def alternating_vector_scheme(J: int = 2) -> CoefficientScheme:
    """Row n is the standard basis vector e_{n mod J}; sigma_N = sqrt(N),
    so the normalization matrix tends to diag(1/J)."""

    def coeffs(N: int) -> np.ndarray:
        rows = np.zeros((N, J), dtype=complex)
        rows[np.arange(N), np.arange(N) % J] = 1.0
        return rows

    return CoefficientScheme("vector", coeffs, lambda N: math.sqrt(N), tuple([1.0 / J] * J))


@dataclass(frozen=True)
class NormalizerStats:
    mode: str
    scale: float  # s_N or sigma_N
    lyapunov_sum: float
    max_ratio: float  # B_N/s_N or D_N/sigma_N
    matrix_residual: float | None = None  # vector mode, max-entry norm


def lyapunov_normalizer(scheme: CoefficientScheme, N: int) -> NormalizerStats:
    b = scheme.coeffs(N)
    if scheme.mode == "scalar":
        mags = np.abs(b)
        if not np.any(mags > 0):
            raise ValueError("all coefficients vanish")
        s = float(np.sqrt(np.sum(mags**2)))
        return NormalizerStats("scalar", s, float(np.sum(mags**3)) / s**3, float(np.max(mags)) / s)
    if scheme.sigma is None or scheme.betas is None:
        raise ValueError("scheme must have sigma and betas in vector mode")
    sigma = scheme.sigma(N)
    if not np.any(np.abs(b) > 0) or sigma <= 0:
        raise ValueError("degenerate vector scheme")
    lyap = float(np.sum(np.abs(b) ** 3)) / sigma**3
    C = np.sum(np.abs(b), axis=1)  # row 1-norms
    M = (b.conj().T @ b) / sigma**2
    resid = float(np.max(np.abs(M - np.diag(scheme.betas))))
    return NormalizerStats("vector", sigma, lyap, float(np.max(C)) / sigma, resid)


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


def _factor_arguments(scheme: CoefficientScheme, N: int, xi) -> np.ndarray:
    b = scheme.coeffs(N)
    if scheme.mode == "scalar":
        return np.conj(b) * complex(xi) / float(np.sqrt(np.sum(np.abs(b) ** 2)))
    xi = np.asarray(xi, dtype=complex)
    return (np.conj(b) @ xi) / scheme.sigma(N)


def gaussian_limit_gap(
    law: ComplexLawSpec, scheme: CoefficientScheme, N: int, xi, A: float = 1.0
) -> GapReport:
    """|log phi_N + (quadratic form)| against the proof bound (2/3) rho^3 A^3 L.

    Scalar mode compares against beta^2 |xi|^2 / 2; vector mode against the
    exact quadratic form beta^2/2 * sum |U_n|^2.  L is the Lyapunov sum of
    the scheme (row 1-norms in vector mode).  The branch of log phi_N is
    the sum of principal logs of the individual factors, each of which
    stays inside the unit disk about 1 under the admissibility condition.
    """
    U = _factor_arguments(scheme, N, xi)
    stats = lyapunov_normalizer(scheme, N)
    adm_value = 4.0 * law.beta2 * (A * stats.max_ratio) ** 2 + 2.0 * (law.rho * A) ** 3 * (
        stats.lyapunov_sum if scheme.mode == "scalar" else float(
            np.sum(np.sum(np.abs(scheme.coeffs(N)), axis=1) ** 3)
        ) / stats.scale**3
    )
    admissible = adm_value < 1.0

    factors = np.array([law.cf(u) for u in U])
    branch_ok = bool(np.all(np.abs(1.0 - factors) < 1.0))
    if not branch_ok and admissible:
        raise ArithmeticError("principal-log branch failed inside the admissible range")
    log_phi = complex(np.sum(np.log(factors))) if branch_ok else complex("nan")

    if scheme.mode == "scalar":
        quad = 0.5 * law.beta2 * abs(complex(xi)) ** 2
        L = stats.lyapunov_sum
    else:
        quad = 0.5 * law.beta2 * float(np.sum(np.abs(U) ** 2))
        C = np.sum(np.abs(scheme.coeffs(N)), axis=1)
        L = float(np.sum(C**3)) / stats.scale**3
    gap = abs(log_phi + quad)
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
        if not self.samples >= 10**3:
            raise ValueError(f"samples must be >= 1000 (got {self.samples!r})")
        if not self.N >= 1:
            raise ValueError(f"N must be >= 1 (got {self.N!r})")


def _stream(seed: int, index: int) -> np.random.Generator:
    # counter-based streams: one Philox stream per coefficient index
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


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
    analytic_second_moment: complex  # E(T^2) diagnostic, scalar mode
    samples: int


def vector_statistic(
    law: ComplexLawSpec,
    scheme: CoefficientScheme,
    N: int,
    mc: MonteCarloConfig,
    rect_grid: Sequence[float] = (-1.5, -0.5, 0.0, 0.5, 1.5),
) -> StatReport:
    """Monte Carlo replicas of T_N with marginal / covariance / rectangle checks.

    The limit has independent components, so rectangle probabilities are
    compared against products of 1-D normal CDFs with variances beta_j
    beta^2 per real coordinate.
    """
    b = scheme.coeffs(N)
    if scheme.mode == "scalar":
        scale = float(np.sqrt(np.sum(np.abs(b) ** 2)))
        b = b[:, None]
        J = 1
        betas = (1.0,)
    else:
        scale = scheme.sigma(N)
        J = b.shape[1]
        betas = scheme.betas
    T = np.zeros((mc.samples, J), dtype=complex)
    for n in range(N):
        X = law.sampler(_stream(mc.seed, n), mc.samples)
        T += np.outer(X, b[n])
    T /= scale

    # component variances of the limit: each real coordinate ~ N(0, beta_j beta^2)
    var = [bj * law.beta2 for bj in betas]
    limits = [normal_law(0.0, math.sqrt(v)).cdf for v in var]
    ks_re = tuple(ks_distance(np.sort(T[:, j].real), limits[j]) for j in range(J))
    ks_im = tuple(ks_distance(np.sort(T[:, j].imag), limits[j]) for j in range(J))

    cov = (T.T @ T.conj()) / mc.samples
    cov_target = np.diag([2.0 * v for v in var]).astype(complex)
    cov_stderr = float(np.max(np.abs(T) ** 2)) / math.sqrt(mc.samples)
    cov_stderr = max(cov_stderr, 4.0 * max(var) / math.sqrt(mc.samples))

    grid = np.asarray(rect_grid, dtype=float)
    worst = 0.0
    for j in range(J):
        # the share of samples with Re <= grid[a] and Im <= grid[b], at [a, b]
        re, im = T[:, j, None, None].real, T[:, j, None, None].imag
        emp = np.mean((re <= grid[:, None]) & (im <= grid), axis=0)
        p = limits[j](grid)
        worst = max(worst, float(np.max(np.abs(emp - np.outer(p, p)))))

    second = complex(np.mean(T[:, 0] ** 2))
    return StatReport(ks_re, ks_im, cov, cov_target, cov_stderr, worst, second, mc.samples)
