"""Band-limited interpolation.

Cardinal-series reconstruction from equally spaced samples, the
value+derivative interpolation formula on the coarser integer-spaced
lattice, and residual checks for the classical identities underlying
both (cosecant partial fractions, the quadratic-kernel partition of
unity, sandwich tail bounds, Poisson summation, Parseval sampling, and a
Bernstein-type derivative bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .kernels import fejer_K, trigamma
from .quadrature import integrate_panels

__all__ = [
    "SampleSet",
    "cardinal_series",
    "vaaler_interpolation",
    "classical_identity_residual",
    "ResidualReport",
    "sample_function",
]

_NODE_WINDOW = 1e-6


@dataclass(frozen=True)
class SampleSet:
    """Nodal data of a band-limited function of exponential type 2*pi*alpha.

    values[i] holds f at node index k = i - M, with node spacing 1/(2*alpha)
    (cardinal modes) or 1/alpha (value+derivative mode, where derivatives
    must be supplied).  decay_const / decay_exponent describe the model
    |f(x)| <= decay_const / (1 + |x|)^decay_exponent used for certified
    truncation-error estimates.
    """

    alpha: float
    M: int
    values: tuple[float, ...]
    derivatives: tuple[float, ...] | None = None
    origin_data: tuple[float, float] | None = None  # (f(0), f'(0))
    decay_const: float = 1.0
    decay_exponent: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0 (got {self.alpha!r})")
        if not self.M >= 1:
            raise ValueError(f"M must be >= 1 (got {self.M!r})")
        if len(self.values) != 2 * self.M + 1:
            raise ValueError(f"values must have 2 M + 1 = {2 * self.M + 1} entries (got {len(self.values)})")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("values must be finite")
        if self.derivatives is not None and len(self.derivatives) != len(self.values):
            raise ValueError(f"derivatives must have {len(self.values)} entries (got {len(self.derivatives)})")

    def value(self, k: int) -> float:
        return self.values[k + self.M]

    def derivative(self, k: int) -> float:
        if self.derivatives is None:
            raise ValueError("derivatives were not sampled (got None)")
        return self.derivatives[k + self.M]


def sample_function(f, alpha: float, M: int, spacing: float, fprime=None, **decay) -> SampleSet:
    """Convenience: tabulate f (and optionally f') on k*spacing, |k| <= M."""
    ks = range(-M, M + 1)
    vals = tuple(float(f(k * spacing)) for k in ks)
    derivs = tuple(float(fprime(k * spacing)) for k in ks) if fprime else None
    origin = (float(f(0.0)), float(fprime(0.0))) if fprime else None
    return SampleSet(alpha, M, vals, derivs, origin, **decay)


def _tail_estimate(samples: SampleSet, z: float, spacing: float) -> float:
    # sum_{|k|>M} |f(k*spacing)| / |z - k*spacing|, bounded via the decay model
    # by a finite sum plus an integral tail.
    C, p = samples.decay_const, samples.decay_exponent
    M = samples.M
    if p <= 1.0:
        return math.inf
    k = np.arange(M + 1, M + 5001, dtype=float)
    xs = k * spacing
    per = C / (1.0 + xs) ** p
    s = float(np.sum(per / np.abs(z - xs) + per / np.abs(z + xs)))
    X = (M + 5000) * spacing
    s += 2.0 * C / ((p - 1.0) * (1.0 + X) ** (p - 1.0) * max(X - abs(z), spacing)) / spacing
    return s


def cardinal_series(
    samples: SampleSet,
    z: float,
    mode: Literal["basic", "extended"] = "basic",
) -> tuple[float, float]:
    """Reconstruct f(z) from samples at k/(2*alpha); returns (value, err_est)."""
    a = samples.alpha
    h = 1.0 / (2.0 * a)
    M = samples.M

    k_near = round(z / h)
    if abs(z - k_near * h) < _NODE_WINDOW and abs(k_near) <= M:
        return samples.value(int(k_near)), 0.0

    front = math.sin(2.0 * math.pi * a * z) / (2.0 * math.pi * a)
    if mode == "basic":
        ks = np.arange(-M, M + 1)
        vals = np.asarray(samples.values)
        s = float(np.sum(np.where(ks % 2 == 0, 1.0, -1.0) * vals / (z - ks * h)))
        err = abs(front) * _tail_estimate(samples, z, h)
        return front * s, err

    # extended mode: f'(0) and f(0)/z terms plus the compensated bracket
    if samples.origin_data is None:
        raise ValueError("origin_data (f(0), f'(0)) is needed in extended mode (got None)")
    f0, fp0 = samples.origin_data
    s = fp0 + f0 / z
    ks = np.arange(-M, M + 1)
    ks = ks[ks != 0]
    vals = np.array([samples.value(int(k)) for k in ks])
    sign = np.where(ks % 2 == 0, 1.0, -1.0)
    s += float(np.sum(sign * vals * (1.0 / (z - ks * h) + 1.0 / (ks * h))))
    err = abs(front) * 2.0 * _tail_estimate(samples, z, h)
    return front * s, err


def vaaler_interpolation(samples: SampleSet, z: float) -> tuple[float, float]:
    """Value+derivative reconstruction from data at k/alpha; (value, err_est)."""
    if samples.derivatives is None:
        raise ValueError("derivatives are needed for value+derivative interpolation (got None)")
    a = samples.alpha
    h = 1.0 / a
    M = samples.M

    k_near = round(z / h)
    if abs(z - k_near * h) < _NODE_WINDOW and abs(k_near) <= M:
        k = int(k_near)
        return samples.value(k) + samples.derivative(k) * (z - k * h), 0.0

    ks = np.arange(-M, M + 1)
    nodes = ks * h
    vals = np.asarray(samples.values)
    ders = np.asarray(samples.derivatives)
    s = float(np.sum(vals / (z - nodes) ** 2 + ders / (z - nodes)))
    front = (math.sin(math.pi * a * z) / (math.pi * a)) ** 2
    err = front * 2.0 * _tail_estimate(samples, z, h) / max((M * h - abs(z)), h)
    return front * s, err


# ---------------------------------------------------------------------------
# classical identity checks


@dataclass(frozen=True)
class ResidualReport:
    which: str
    residual: float
    tail_bound: float
    ok: bool
    detail: dict


def _csc_residual(w: float, M: int = 10**5) -> ResidualReport:
    lhs = math.pi / math.sin(math.pi * w)
    k = np.arange(1, M + 1, dtype=float)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    s = 1.0 / w
    s += float(np.sum(sign * (1.0 / (w - k) + 1.0 / k)))
    s += float(np.sum(sign * (1.0 / (w + k) - 1.0 / k)))
    # alternating series: the tail is bounded by the first omitted pair
    tail = abs(1.0 / (w - M - 1) + 1.0 / (M + 1)) + abs(1.0 / (w + M + 1) - 1.0 / (M + 1))
    res = abs(lhs - s)
    return ResidualReport("csc", res, tail, res <= tail + 1e-12, {"w": w, "M": M})


def _fejer_residual(x: float, M: int = 10**4) -> ResidualReport:
    n = np.arange(-M, M + 1, dtype=float)
    s = float(np.sum(1.0 / (x - n) ** 2))
    # both tails via the sandwich midpoint 1/w - 1/(2w^2), certified width 1/(2w^2)
    wm, wp = M - x, M + x
    s += (1.0 / wm - 0.5 / wm**2) + (1.0 / wp - 0.5 / wp**2)
    frac = x - round(x)
    front = (math.sin(math.pi * frac) / math.pi) ** 2
    val = front * s
    tail = front * (0.5 / wm**2 + 0.5 / wp**2)
    res = abs(1.0 - val)
    return ResidualReport("fejer", res, tail, res <= tail, {"x": x, "M": M})


def _sandwich(omega: float, refined: bool) -> ResidualReport:
    s = trigamma(omega + 1.0)
    lo = 1.0 / omega - (0.5 if refined else 1.0) / omega**2
    hi = 1.0 / omega
    ok = lo < s < hi
    which = "refined_sandwich" if refined else "sandwich"
    return ResidualReport(which, 0.0, hi - lo, ok, {"omega": omega, "middle": s, "lo": lo, "hi": hi})


def _poisson_residual(a: float = 2.0, M: int = 50) -> ResidualReport:
    k = np.arange(-M, M + 1, dtype=float)
    lhs = float(np.sum(np.exp(-math.pi * a * k**2)))
    rhs = a ** (-0.5) * float(np.sum(np.exp(-math.pi * k**2 / a)))
    tail = 2.0 * math.exp(-math.pi * a * M**2) + 2.0 * a ** (-0.5) * math.exp(-math.pi * M**2 / a)
    res = abs(lhs - rhs)
    return ResidualReport("poisson", res, max(tail, 1e-15), res <= 1e-12, {"a": a})


def _parseval_residual(M: int = 10**5) -> ResidualReport:
    # f = K, alpha = 1: (1/2) sum |K(k/2)|^2 vs integral of K^2 (= 2/3)
    k = np.arange(-M, M + 1)
    lhs = 0.5 * float(np.sum(np.asarray(fejer_K(k / 2.0)) ** 2))
    edges = np.arange(-200.0, 201.0)
    val, err = integrate_panels(lambda x: fejer_K(x) ** 2, edges[:-1], edges[1:])
    rhs = float(np.sum(val)) + 2.0 * (4.0 / math.pi**4) / (3.0 * 200**3)  # crude tail of K^2 ~ (1/pi^2 x^2)^2
    res = abs(lhs - rhs)
    detail = {"lhs": lhs, "rhs": rhs, "rhs_quad_err": float(np.sum(err)), "exact": 2.0 / 3.0}
    return ResidualReport("parseval_sampling", res, 1e-8, res <= 1e-8, detail)


def _bernstein_residual(m: int = 1, npts: int = 1000) -> ResidualReport:
    # |K'(x)| <= sqrt(2*alpha) (2*pi*alpha)^m / sqrt(1+2m) * ||K||_2, alpha = 1
    alpha = 1.0
    norm2 = math.sqrt(2.0 / 3.0)
    bound = math.sqrt(2.0 * alpha) * (2.0 * math.pi * alpha) ** m / math.sqrt(1.0 + 2.0 * m) * norm2
    xs = np.linspace(-10, 10, npts)
    h = 1e-6
    deriv = (np.asarray(fejer_K(xs + h)) - np.asarray(fejer_K(xs - h))) / (2 * h)
    worst = float(np.max(np.abs(deriv)))
    return ResidualReport(
        "bernstein", max(worst - bound, 0.0), 0.0, worst <= bound, {"sup_deriv": worst, "bound": bound}
    )


def classical_identity_residual(which: str, arg: float | None = None) -> ResidualReport:
    """Residual report for a named classical identity.

    which: csc | fejer | sandwich | refined_sandwich | poisson |
           parseval_sampling | bernstein
    """
    if which == "csc":
        return _csc_residual(0.5 if arg is None else arg)
    if which == "fejer":
        return _fejer_residual(0.37 if arg is None else arg)
    if which == "sandwich":
        return _sandwich(2.0 if arg is None else arg, refined=False)
    if which == "refined_sandwich":
        return _sandwich(2.0 if arg is None else arg, refined=True)
    if which == "poisson":
        return _poisson_residual(2.0 if arg is None else arg)
    if which == "parseval_sampling":
        return _parseval_residual()
    if which == "bernstein":
        return _bernstein_residual()
    raise ValueError(f"unknown identity {which!r}")
