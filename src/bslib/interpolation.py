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
    "ResidualReport",
    "csc_residual",
    "fejer_residual",
    "sandwich_residual",
    "refined_sandwich_residual",
    "poisson_residual",
    "parseval_residual",
    "bernstein_residual",
    "sample_function",
]

_NODE_WINDOW = 1e-6
# Points reconstructed together: a block's tail-sum temporaries hold
# _BLOCK x 5000 floats (2.6 MB), however many points there are.  Per-point
# results do not depend on the block size.
_BLOCK = 64


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Nodal data of a band-limited function of exponential type 2*pi*alpha.

    values[i] holds f at node index k = i - M, with node spacing 1/(2*alpha)
    (cardinal modes) or 1/alpha (value+derivative mode); derivatives, which
    that mode and the extended cardinal mode need, hold f' likewise.  Both
    are kept as read-only float arrays.  decay_const / decay_exponent
    describe the model |f(x)| <= decay_const / (1 + |x|)^decay_exponent
    used for certified truncation-error estimates.
    """

    alpha: float
    M: int
    values: np.ndarray
    derivatives: np.ndarray | None = None
    decay_const: float = 1.0
    decay_exponent: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0 (got {self.alpha!r})")
        if not self.M >= 1:
            raise ValueError(f"M must be >= 1 (got {self.M!r})")
        n = 2 * self.M + 1
        for name in ("values",) if self.derivatives is None else ("values", "derivatives"):
            x = np.array(getattr(self, name), dtype=float)
            x.flags.writeable = False
            object.__setattr__(self, name, x)
            if x.shape != (n,):
                raise ValueError(f"{name} must have 2 M + 1 = {n} entries (got shape {x.shape})")
            if not np.isfinite(x).all():
                raise ValueError(f"{name} must be finite")

    def value(self, k: int) -> float:
        return self.values[k + self.M]

    def derivative(self, k: int) -> float:
        if self.derivatives is None:
            raise ValueError("derivatives were not sampled (got None)")
        return self.derivatives[k + self.M]


def sample_function(f, alpha: float, M: int, spacing: float, fprime=None, **decay) -> SampleSet:
    """Tabulate the array functions f (and optionally f') on the nodes
    k*spacing, |k| <= M, with one call of each on the node array."""
    nodes = np.arange(-M, M + 1) * spacing
    return SampleSet(alpha, M, f(nodes), None if fprime is None else fprime(nodes), **decay)


def _tail_estimate(samples: SampleSet, z: np.ndarray, spacing: float, sine: np.ndarray) -> np.ndarray:
    # sum_{|k|>M} |f(k*spacing)| / max(|z - k*spacing|, sine), bounded via the
    # decay model by a finite sum plus an integral tail.  The caller's sine
    # factor is at most |z - k*spacing|, so sine times a term is at most the
    # decay-model value: finite at an unsampled lattice point z = k*spacing.
    C, p, M = samples.decay_const, samples.decay_exponent, samples.M
    if p <= 1.0:
        return np.full(z.shape, math.inf)
    xs = np.arange(M + 1, M + 5001, dtype=float) * spacing
    per = C / (1.0 + xs) ** p
    near = sine[:, None]
    s = np.sum(
        per / np.maximum(np.abs(z[:, None] - xs), near) + per / np.maximum(np.abs(z[:, None] + xs), near), axis=-1
    )
    X = (M + 5000) * spacing
    return s + 2.0 * C / ((p - 1.0) * (1.0 + X) ** (p - 1.0) * np.maximum(X - np.abs(z), spacing)) / spacing


def _reconstruct(samples: SampleSet, z, h: float, phase: float, slope, series):
    """(values, err_est) at the float or array z, in z's shape (floats for
    a float z).  A point within _NODE_WINDOW of a sampled node k*h takes
    that sample, plus slope times the offset when slope is not None, and
    err_est 0; the other points take series(z), _BLOCK points at a time."""
    zs = np.asarray(z, dtype=float)
    z1 = zs.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        bad = z1[~np.isfinite(phase * z1)]  # series takes sin(phase * z)
    if bad.size:
        raise ValueError(f"z must be finite, and so must the sine phase {phase!r} z (got {float(bad[0])!r})")
    k = np.round(z1 / h)
    node = (np.abs(z1 - k * h) < _NODE_WINDOW) & (np.abs(k) <= samples.M)
    val, err = np.zeros(z1.size), np.zeros(z1.size)
    i = k[node].astype(int) + samples.M
    val[node] = samples.values[i] if slope is None else samples.values[i] + slope[i] * (z1[node] - k[node] * h)
    rest = np.flatnonzero(~node)
    for start in range(0, rest.size, _BLOCK):
        j = rest[start : start + _BLOCK]
        val[j], err[j] = series(z1[j])
    if zs.ndim == 0:
        return float(val[0]), float(err[0])
    return val.reshape(zs.shape), err.reshape(zs.shape)


def cardinal_series(samples: SampleSet, z, mode: Literal["basic", "extended"] = "basic"):
    """Reconstruct f at the float or array z from samples at k/(2*alpha);
    returns (values, err_est) in z's shape.  The extended mode needs the
    derivatives, for f'(0)."""
    a, M = samples.alpha, samples.M
    h, phase = 1.0 / (2.0 * a), 2.0 * math.pi * a
    ks = np.arange(-M, M + 1)
    signed = np.where(ks % 2 == 0, 1.0, -1.0) * samples.values
    if mode != "basic":
        if samples.derivatives is None:
            raise ValueError("derivatives (f'(0)) are needed in extended mode (got None)")
        f0, fp0 = samples.values[M], samples.derivatives[M]
        ks, signed = ks[ks != 0], signed[ks != 0]

    def series(zb):
        front = np.sin(phase * zb) / phase
        tail = _tail_estimate(samples, zb, h, np.abs(front))
        d = zb[:, None] - ks * h
        if mode == "basic":
            return front * np.sum(signed / d, axis=-1), np.abs(front) * tail
        # extended mode: f'(0) and f(0)/z terms plus the compensated bracket
        s = fp0 + f0 / zb + np.sum(signed * (1.0 / d + 1.0 / (ks * h)), axis=-1)
        return front * s, np.abs(front) * 2.0 * tail

    return _reconstruct(samples, z, h, phase, None, series)


def vaaler_interpolation(samples: SampleSet, z):
    """Value+derivative reconstruction at the float or array z from data at
    k/alpha; returns (values, err_est) in z's shape."""
    if samples.derivatives is None:
        raise ValueError("derivatives are needed for value+derivative interpolation (got None)")
    a, M = samples.alpha, samples.M
    h, phase = 1.0 / a, math.pi * a
    nodes = np.arange(-M, M + 1) * h

    @np.errstate(over="ignore")  # d**2 is inf past |z| ~ 1.3e154, where values / d**2 -> 0
    def series(zb):
        d = zb[:, None] - nodes
        s = np.sum(samples.values / d**2 + samples.derivatives / d, axis=-1)
        sine = np.sin(phase * zb) / phase
        front = np.float_power(sine, 2)
        tail = _tail_estimate(samples, zb, h, np.abs(sine))
        return front * s, front * 2.0 * tail / np.maximum(M * h - np.abs(zb), h)

    return _reconstruct(samples, z, h, phase, samples.derivatives, series)


# ---------------------------------------------------------------------------
# classical identity checks


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    tail_bound: float
    ok: bool
    detail: dict


def csc_residual(w: float = 0.5) -> ResidualReport:
    """pi / sin(pi w) = 1/w + sum_{k>=1} (-1)^k (1/(w - k) + 1/(w + k)), to k = 10^5."""
    M = 10**5
    lhs = math.pi / math.sin(math.pi * w)
    k = np.arange(1, M + 1, dtype=float)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    s = 1.0 / w
    s += float(np.sum(sign * (1.0 / (w - k) + 1.0 / k)))
    s += float(np.sum(sign * (1.0 / (w + k) - 1.0 / k)))
    # alternating series: the tail is bounded by the first omitted pair
    tail = abs(1.0 / (w - M - 1) + 1.0 / (M + 1)) + abs(1.0 / (w + M + 1) - 1.0 / (M + 1))
    res = abs(lhs - s)
    return ResidualReport(res, tail, res <= tail + 1e-12, {"w": w, "M": M})


def fejer_residual(x: float = 0.37) -> ResidualReport:
    """The quadratic-kernel partition of unity (sin(pi x)/pi)^2 sum_n 1/(x - n)^2 = 1."""
    M = 10**4
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
    return ResidualReport(res, tail, res <= tail, {"x": x, "M": M})


def _sandwich(omega: float, lo_coeff: float) -> ResidualReport:
    s = trigamma(omega + 1.0)
    lo = 1.0 / omega - lo_coeff / omega**2
    hi = 1.0 / omega
    return ResidualReport(0.0, hi - lo, lo < s < hi, {"omega": omega, "middle": s, "lo": lo, "hi": hi})


def sandwich_residual(omega: float = 2.0) -> ResidualReport:
    """1/omega - 1/omega^2 < psi_1(omega + 1) = sum_{k>=1} 1/(omega + k)^2 < 1/omega."""
    return _sandwich(omega, 1.0)


def refined_sandwich_residual(omega: float = 2.0) -> ResidualReport:
    """The sandwich of psi_1(omega + 1) with the lower bound 1/omega - 1/(2 omega^2)."""
    return _sandwich(omega, 0.5)


def poisson_residual(a: float = 2.0) -> ResidualReport:
    """Poisson summation sum_k e^{-pi a k^2} = a^(-1/2) sum_k e^{-pi k^2 / a}."""
    M = 50
    k = np.arange(-M, M + 1, dtype=float)
    lhs = float(np.sum(np.exp(-math.pi * a * k**2)))
    rhs = a ** (-0.5) * float(np.sum(np.exp(-math.pi * k**2 / a)))
    tail = 2.0 * math.exp(-math.pi * a * M**2) + 2.0 * a ** (-0.5) * math.exp(-math.pi * M**2 / a)
    res = abs(lhs - rhs)
    return ResidualReport(res, max(tail, 1e-15), res <= 1e-12, {"a": a})


def parseval_residual() -> ResidualReport:
    """Parseval sampling for f = K, alpha = 1: (1/2) sum |K(k/2)|^2 against
    the integral of K^2 (= 2/3)."""
    M = 10**5
    k = np.arange(-M, M + 1)
    lhs = 0.5 * float(np.sum(np.asarray(fejer_K(k / 2.0)) ** 2))
    edges = np.arange(-200.0, 201.0)
    val, err = integrate_panels(lambda x: fejer_K(x) ** 2, edges[:-1], edges[1:])
    rhs = float(np.sum(val)) + 2.0 * (4.0 / math.pi**4) / (3.0 * 200**3)  # crude tail of K^2 ~ (1/pi^2 x^2)^2
    res = abs(lhs - rhs)
    detail = {"lhs": lhs, "rhs": rhs, "rhs_quad_err": float(np.sum(err)), "exact": 2.0 / 3.0}
    return ResidualReport(res, 1e-8, res <= 1e-8, detail)


def bernstein_residual() -> ResidualReport:
    """The Bernstein-type bound |K'(x)| <= sqrt(2 alpha) (2 pi alpha)^m /
    sqrt(1 + 2m) ||K||_2 for m = 1, alpha = 1, on a grid of [-10, 10]."""
    alpha, m, npts = 1.0, 1, 1000
    norm2 = math.sqrt(2.0 / 3.0)
    bound = math.sqrt(2.0 * alpha) * (2.0 * math.pi * alpha) ** m / math.sqrt(1.0 + 2.0 * m) * norm2
    xs = np.linspace(-10, 10, npts)
    h = 1e-6
    deriv = (np.asarray(fejer_K(xs + h)) - np.asarray(fejer_K(xs - h))) / (2 * h)
    worst = float(np.max(np.abs(deriv)))
    return ResidualReport(max(worst - bound, 0.0), 0.0, worst <= bound, {"sup_deriv": worst, "bound": bound})
