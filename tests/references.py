"""Routes, laws and schemes that only the tests read.

The direct finite-sum form of the interval majorant, the non-uniqueness
family around S_ell with the box indicator it is measured against, the
box measure of a k-variable cdf, the Rademacher product law and the
geometric coefficient scheme.  The library's own routes, its CLI and its
benchmark never call them, so they live here beside their readers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from bslib.clt import CoefficientScheme, ComplexLawSpec
from bslib.kernels import S_eval, _piecewise, _sinpi_over_pi_sq
from bslib.quadrature import integrate_panels


# ---------------------------------------------------------------------------
# the interval majorant and the non-uniqueness family around S_ell


def interval_majorant_direct(ell: int, x: float) -> float:
    """Direct finite-sum form of the interval majorant for integer ell.

    (sin(pi z)/pi)^2 { sum_{k=0}^{ell} 1/(z-k)^2 + 1/z + 1/(ell-z) };
    S_ell must reduce to this when ell is a positive integer.
    """
    if not (ell >= 1 and float(ell).is_integer()):
        raise ValueError(f"ell must be a positive integer (got {ell!r})")
    k0 = round(x)
    if abs(x - k0) < 1e-12:
        # nodal values: 1 on {0..ell}, 0 outside
        return 1.0 if 0 <= k0 <= ell else 0.0
    s = sum(1.0 / (x - k) ** 2 for k in range(int(ell) + 1))
    s += 1.0 / x + 1.0 / (ell - x)
    return float(_sinpi_over_pi_sq(x)) * s


def chi_box(x, ell: float):
    """Indicator of [0, ell], endpoints included."""
    x = np.asarray(x, dtype=float)
    return np.where((0.0 <= x) & (x <= ell), 1.0, 0.0)[()]


@dataclass(frozen=True)
class FamilyReport:
    ell: int
    eta: float
    majorant_ok: bool
    min_gap: float
    extra_integrals: tuple[tuple[float, float], ...]  # (R, integral over [-R,R])
    extra_errors: tuple[float, ...]  # the integrals' quadrature error estimates


def _family_extra(ell: int, eta: float, x):
    x = np.asarray(x, dtype=float)
    # removable zeros of the extra term for integer ell
    zero = (np.abs(x) < 1e-9) | (np.abs(x - ell) < 1e-9)
    return _piecewise(x, [zero], [0.0, lambda x: eta * _sinpi_over_pi_sq(x) * ell / (x * (ell - x))])[()]


def extremal_family_check(ell: int, eta: float, grid: Sequence[float]) -> FamilyReport:
    """Check that S_ell + eta * (sin pi x/pi)^2 ell/(x(ell-x)) majorizes chi_[0,ell],
    and integrate the extra term over [-R, R] for R = 10.5, 20.5, 40.5."""
    if not (ell >= 1 and float(ell).is_integer()):
        raise ValueError(f"ell must be a positive integer (got {ell!r})")
    grid = np.asarray(grid, dtype=float)
    gaps = S_eval(ell, grid) + _family_extra(ell, eta, grid) - chi_box(grid, ell)
    min_gap = np.min(gaps)

    def extra_integrand(x: np.ndarray) -> np.ndarray:
        return _family_extra(ell, 1.0, x) if eta == 0 else _family_extra(ell, eta, x) / eta

    integrals, errors = [], []
    for R in (10.5, 20.5, 40.5):
        edges = np.union1d([-R, R], np.arange(math.ceil(-R), math.floor(R) + 1))
        val, err = integrate_panels(extra_integrand, edges[:-1], edges[1:])
        integrals.append((float(R), float(np.sum(val))))
        errors.append(float(np.sum(err)))
    return FamilyReport(int(ell), eta, min_gap >= -1e-10, float(min_gap), tuple(integrals), tuple(errors))


# ---------------------------------------------------------------------------
# box measures of a k-variable cdf


def box_probability(cdf: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray) -> float:
    """Measure of the half-open box (a, b] by inclusion-exclusion of the cdf.

    The cdf is called once, on the (2^k, k) array of corners.
    """
    k = len(a)
    picks = np.array(list(itertools.product((0, 1), repeat=k)))
    values = np.ravel(cdf(np.where(picks == 1, b, a)))
    total = 0.0
    for sign, v in zip((-1.0) ** (k - picks.sum(axis=1)), values):
        total += sign * v
    return total


# ---------------------------------------------------------------------------
# a complex law with a product cf, and a scheme outside the admissible range


def rademacher_product_law(scale: float = 1.0) -> ComplexLawSpec:
    """z = scale*(eps1 + i*eps2) with independent signs: a product law dE x dE.

    beta^2 = scale^2, rho3 = (sqrt(2)*scale)^3, cf = cos(scale*Re xi) *
    cos(scale*Im xi).
    """
    r = math.sqrt(2.0) * scale
    if not (scale > 0 and math.isfinite(r * r * r)):
        raise ValueError(f"scale must be > 0, with (sqrt(2) scale)^3 finite (got {scale!r})")

    def sampler(rng, size):
        return scale * (
            rng.choice([-1.0, 1.0], size=size) + 1j * rng.choice([-1.0, 1.0], size=size)
        )

    def cf(xi):
        xi = np.asarray(xi, dtype=complex)
        return (np.cos(scale * xi.real) * np.cos(scale * xi.imag)).astype(complex)

    return ComplexLawSpec("rademacher_product", sampler, cf, scale**2, (math.sqrt(2.0) * scale) ** 3)


def geometric_scheme(ratio: float = 2.0) -> CoefficientScheme:
    def coeffs(N: int) -> np.ndarray:
        # a power past the float range is inf, which _weights rejects naming scheme
        with np.errstate(over="ignore"):
            return ratio ** np.arange(1, N + 1, dtype=complex)[:, None]

    return CoefficientScheme(coeffs)
