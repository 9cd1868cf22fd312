"""k-variable smoothing machinery.

Ring expansion of the majorant/minorant product trick, the commuting
difference-operator algebra (D, E, P, Delta), integral factorizations
and derivative bounds, and four bound variants for |F - G| over R^k:
the partition-sum bound, two truncated t-free bounds (pointwise and
box-measure), and the slab-norm bound.  Desk-scale targets: k <= 3 for
the first three variants, k <= 2 for the slab variant.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .esseen1d import Law, _check_laws, normal_law
from .quadrature import gauss_legendre

__all__ = [
    "Monomial",
    "BoundConstants",
    "selberg_ring_expansion",
    "apply_operator",
    "operator_terms",
    "factorization_residual",
    "derivative_bound_check",
    "esseen_bound_k",
    "esseen_bound_truncated",
    "slab_norm",
    "slab_norms",
    "esseen_bound_slab",
    "convergence_harness_k",
    "partitions",
    "product_law",
    "product_normal_target",
    "box_probability",
    "KBoundReport",
]


# ---------------------------------------------------------------------------
# ring expansion


Monomial = tuple[str, ...]  # per-index symbol in {"chi", "delta", "eps"}


def _expand(factors: Sequence[dict[str, int]]) -> Counter:
    """Multiply out prod_j (sum_tag c_tag * tag_j) into a Counter over tag tuples."""
    out: Counter = Counter()
    for choice in itertools.product(*(f.items() for f in factors)):
        out[tuple(tag for tag, _ in choice)] += math.prod(c for _, c in choice)
    return out


def selberg_ring_expansion(k: int) -> tuple[Counter, Counter]:
    """Expand (1-k) g_1..g_k + sum_j f_j prod_{i != j} g_i in exact integers.

    With f_j = chi_j - delta_j and g_j = chi_j + eps_j the expansion
    equals chi_1..chi_k - S; returns (S, S_tilde) where S and S_tilde are
    Counters over per-index symbol tuples (nonzero terms only) and
    S_tilde collects g_1..g_k - chi_1..chi_k.
    """
    if not 2 <= k <= 6:
        raise ValueError(f"k must satisfy 2 <= k <= 6 (got {k})")
    f = {"chi": 1, "delta": -1}
    g = {"chi": 1, "eps": 1}
    chi_prod = ("chi",) * k
    prod_g = _expand([g] * k)
    S = Counter({chi_prod: 1})
    for mono, c in prod_g.items():
        S[mono] += (k - 1) * c
    for j in range(k):
        S.subtract(_expand([f if i == j else g for i in range(k)]))
    S_tilde = prod_g - Counter({chi_prod: 1})
    S = Counter({mono: c for mono, c in S.items() if c != 0})
    assert all(c > 0 for c in S.values())
    return S, S_tilde


# ---------------------------------------------------------------------------
# operator algebra

# a composite operator is a linear combination of coordinate transforms;
# each transform acts per coordinate as keep (+1), negate (-1) or zero (0).


def operator_terms(word: Sequence[tuple[str, int]], k: int) -> dict[tuple[int, ...], float]:
    """Reduce a word over {D_j, E_j, P_j, Delta_j} to transform/coefficient form."""
    terms: dict[tuple[int, ...], float] = {tuple([1] * k): 1.0}
    for op, j in word:
        new: dict[tuple[int, ...], float] = {}

        def add(t, c):
            if c != 0.0:
                new[t] = new.get(t, 0.0) + c

        for t, c in terms.items():
            tj = t[j]
            t_neg = t[:j] + (-tj,) + t[j + 1 :]
            t_zero = t[:j] + (0,) + t[j + 1 :]
            if op == "D":
                add(t, 0.5 * c)
                add(t_neg, -0.5 * c)
            elif op == "E":
                add(t, 0.5 * c)
                add(t_neg, 0.5 * c)
            elif op == "P":
                add(t_zero, c)
            elif op == "Delta":
                add(t, c)
                add(t_zero, -c)
            else:
                raise ValueError(f"unknown operator {op!r}")
        terms = {t: c for t, c in new.items() if c != 0.0}
    return terms


def apply_operator(word: Sequence[tuple[str, int]], f: Callable, v) -> complex | np.ndarray:
    """Evaluate the composite operator word applied to f at v.

    f takes (..., k) points to (...) values (the `Law` contract); v is one
    k-vector or an (N, k) array of rows, and the result is a complex number
    or (N,) complex values.
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1], dtype=complex)
    for t, c in operator_terms(word, v.shape[-1]).items():
        # column-major points: numpy then multiplies whole columns, not rows of k
        out += c * np.asarray(f(np.multiply(v, t, order="F")), dtype=complex)
    return complex(out) if v.ndim == 1 else out


# ---------------------------------------------------------------------------
# factorizations and derivative bounds


def factorization_residual(
    f: Callable,
    deriv: Callable,
    m: int,
    which: Literal["mixed", "delta", "e_delta"],
    v: Sequence[float],
    nodes: int = 24,
) -> float:
    """|operator form - factorized integral form| at the point v.

    mixed:   (D_1..D_m) f = (v_1..v_m / 2^m) int_{[-1,1]^m} D^[m] f(v*u) du
    delta:   (Delta_1..Delta_m) f = (v_1..v_m) int_{[0,1]^m} D^[m] f(v*u) du
    e_delta: (E_1 Delta_1 .. E_m Delta_m) f
             = (v_1^2..v_m^2 / 2^m) int_{[-1,1]^m} prod(1-|u_j|) D^[2m] f(v*u) du

    f and deriv take (N, k) points to (N,) values (the `Law` contract);
    deriv is the mixed partial of total order m (or 2m for e_delta), called
    once, on all the tensor nodes.
    """
    v = np.asarray(v, dtype=float)
    k = v.size
    if not 1 <= m <= k:
        raise ValueError(f"m must satisfy 1 <= m <= {k} = len(v) (got {m})")
    if which == "mixed":
        word, lo, front = [("D", j) for j in range(m)], -1.0, float(np.prod(v[:m])) / 2.0**m
    elif which == "delta":
        word, lo, front = [("Delta", j) for j in range(m)], 0.0, float(np.prod(v[:m]))
    elif which == "e_delta":
        word = [("E", j) for j in range(m)] + [("Delta", j) for j in range(m)]
        lo, front = -1.0, float(np.prod(v[:m] ** 2)) / 2.0**m
    else:
        raise ValueError(f"which must be mixed, delta or e_delta (got {which!r})")

    lhs = complex(apply_operator(word, f, v[None])[0])

    cuts = [lo, 0.0, 1.0] if lo < 0.0 else [lo, 1.0]  # split at 0: (1 - |u|) is smooth per panel
    axes = [gauss_legendre(cuts[:-1], cuts[1:], nodes)] * m
    u = _grid_points([x for x, _ in axes])  # (N, m), the last coordinate fastest
    pts = np.tile(v, (u.shape[0], 1))
    pts[:, :m] = v[:m] * u
    vals = np.asarray(deriv(pts), dtype=complex)
    if which == "e_delta":
        vals = vals * np.prod(1.0 - np.abs(u), axis=-1)
    rhs = front * _grid_integral(axes, vals.reshape([x.size for x, _ in axes]))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    slack: float
    inconclusive: bool
    lhs: float
    rhs: float


# central-difference (offset, weight) stencils of orders 1 and 2; the weights
# of order 1 carry its 1/2, so each coordinate divides by the step or its square
_STENCILS = {
    1: ((-1.0, -0.5), (1.0, 0.5)),
    2: ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)),
}

# the factor on a sup estimated from grid values, for the sup between grid points
_SUP_SAFETY = 1.5


def _sup_estimate(
    f: Callable,
    v: np.ndarray,
    sigma: list[int],
    orders: list[int],
    others: list[int],
    pools: list[tuple[float, ...]],
) -> float:
    """Estimate an M_sigma / N_sigma style sup on refinement grids.

    The sup is over the central-difference mixed partial of the given
    orders in the sigma coordinates, taken where those are u * v for u on a
    grid of [-1, 1]^|sigma| and the `others` are eps * v for eps in the
    product of `pools`; the remaining coordinates stay at v.  Each level
    calls f once, on every (eps pattern, u-grid point, stencil offset) point.
    """
    step = 1e-3
    stencil = list(itertools.product(*[_STENCILS[o] for o in orders]))
    offsets = np.array([[off * step for off, _ in combo] for combo in stencil])
    weights = [math.prod(w for _, w in combo) for combo in stencil]
    scale = math.prod(step if o == 1 else step * step for o in orders)
    eps = np.array(list(itertools.product(*pools)), dtype=float) * v[others]
    best_prev = None
    for npts in (5, 9, 17):
        u = np.linspace(-1.0, 1.0, npts)
        grid = np.array(list(itertools.product(u, repeat=len(sigma)))) * v[sigma]
        pts = np.empty((len(eps), len(grid), len(stencil), v.size))
        pts[...] = v
        pts[..., others] = eps[:, None, None, :]
        pts[..., sigma] = grid[:, None, :] + offsets
        vals = np.asarray(f(pts.reshape(-1, v.size)), dtype=complex).reshape(-1, len(stencil))
        acc = np.zeros(vals.shape[0], dtype=complex)
        for j, w in enumerate(weights):  # in stencil order: a matrix product sums in another
            acc += w * vals[:, j]
        best = float(np.max(np.hypot(acc.real / scale, acc.imag / scale)))
        if best_prev is not None and best <= best_prev * 1.1:
            break
        best_prev = best
    return _SUP_SAFETY * best


def derivative_bound_check(f: Callable, spec: dict, v: Sequence[float]) -> BoundCheck:
    """Check one of the mixed-difference derivative bounds at a point.

    spec keys: which in {"4.24", "4.26", "4.27", "4.28"}, h, ell, m, and
    for the Delta-variants n and delta (L = ell + delta).  4.24 is the
    D-only case (ell, n, delta) = (0, 0, ell) of 4.26, with front factor 1
    in place of 2^(m - h).  f takes (N, k) points to (N,) values (the `Law`
    contract); it is called once per operator term for the lhs and once per
    refinement level of each sigma-subset's sup.  The sups carry the
    _SUP_SAFETY Lipschitz factor; the check is reported inconclusive when
    the bound holds only with that factor.
    """
    v = np.asarray(v, dtype=float)
    which, h, m = spec["which"], spec["h"], spec["m"]
    if which not in ("4.24", "4.26", "4.27", "4.28"):
        raise ValueError(f"spec['which'] must be 4.24, 4.26, 4.27 or 4.28 (got {which!r})")
    if which == "4.24":
        ell, n, delta, front = 0, 0, spec["ell"], 1.0
    else:
        ell, n, delta, front = spec["ell"], spec["n"], spec["delta"], 2.0 ** (m - h)
    L = ell + delta
    if not (ell <= n and n + delta <= m and 1 <= h <= L):
        raise ValueError(
            "spec must satisfy ell <= n, n + delta <= m and 1 <= h <= ell + delta, "
            f"or 1 <= h <= ell <= m for 4.24 (got {spec})"
        )
    word = [("Delta", j) for j in range(n)] + [("D", j) for j in range(n, m)]
    if which in ("4.27", "4.28"):  # the product of E_j Delta_j over the first block
        word = [("E", j) for j in range(n)] + word
    lhs = abs(complex(apply_operator(word, f, v[None])[0]))

    # sigma lives in the first ell coordinates plus the D-block slice n..n+delta
    prod = 1.0
    for s in itertools.combinations(list(range(ell)) + list(range(n, n + delta)), h):
        # derivative orders are squared only in 4.28's first block, and eps = 0
        # is admitted only for first-block coordinates
        orders = [2 if (which == "4.28" and j < n) else 1 for j in s]
        others = [j for j in range(m) if j not in s]
        pools = [(1.0, -1.0, 0.0) if j < n else (1.0, -1.0) for j in others]
        prod *= _sup_estimate(f, v, list(s), orders, others, pools)
    exponent = 2 if which == "4.28" else 1
    base = float(np.prod(np.abs(v[:ell]) ** exponent) * np.prod(np.abs(v[n : n + delta])))
    rhs = front * base ** (h / L) * prod ** (1.0 / math.comb(L, h))
    return BoundCheck(lhs <= rhs, rhs - lhs, rhs / _SUP_SAFETY < lhs <= rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# laws, targets, constants


def product_law(components: Sequence[Law]) -> Law:
    """The law on R^k of independent coordinates with the given laws on R.

    Its cdf and cf multiply the components' values column by column, and
    its `factors` are the components.  Its density bounds are the
    components' bounds, or None if one has none.  One component gives that
    law, which keeps the k = 1 array contract.
    """
    for j, c in enumerate(components):
        if c.k != 1:
            raise ValueError(f"components[{j}] must be a law on R (got k = {c.k})")
    k = len(components)
    # E max|x_j|^2 <= sum E x_j^2 for alpha = 2 components
    moment = (2.0, sum(c.moment[1] for c in components))
    if k == 1:
        return dataclasses.replace(components[0], moment=moment)
    bounds = [c.density_bounds for c in components]
    bounds = None if None in bounds else sum(bounds, ())

    def cdf(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.ones(pts.shape[:-1])
        for j, c in enumerate(components):
            out = out * c.cdf(pts[..., j])
        return out[()]

    def cf(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.ones(pts.shape[:-1], dtype=complex)
        for j, c in enumerate(components):
            out *= c.cf(pts[..., j])  # in place: numpy's complex product (FMA) is not symmetric
        return out[()]

    return Law(cdf, cf, moment, bounds, k=k, factors=tuple(components))


def product_normal_target(k: int) -> Law:
    """The standard normal law on R^k, with the closed-form joint cf (one exp
    per point) and the k normal factors, which the tensor-grid bounds read."""

    def cf(pts: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1)) + 0.0j

    law = product_law([normal_law()] * k)
    return law if k == 1 else dataclasses.replace(law, cf=cf)


@dataclass(frozen=True)
class BoundConstants:
    """Pinned values for the 'explicitly computable' constants.

    Conservative defaults (valid for any values at least as large as the
    proof-path ones); echoed in every bound report.
    """

    c1: float
    c2: float
    c5: float
    c6: float
    c8: float
    c9: float
    c_hat1: float

    @staticmethod
    def for_k(k: int) -> "BoundConstants":
        c5 = 2.0**k
        return BoundConstants(
            c1=1.0,
            c2=math.pi,
            c5=c5,
            c6=math.pi,
            c8=2.0**k * c5,
            c9=2.0**k * math.pi,
            c_hat1=2.0**k,
        )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class KBoundReport:
    total: float
    integral_terms: dict
    tail_term: float
    extra_term: float
    constants: dict
    detail: dict


def partitions(k: int):
    """All 3^k partitions of {0..k-1} into (B, C, D) index tuples."""
    for tags in itertools.product("BCD", repeat=k):
        B = tuple(j for j in range(k) if tags[j] == "B")
        C = tuple(j for j in range(k) if tags[j] == "C")
        D = tuple(j for j in range(k) if tags[j] == "D")
        yield B, C, D


def _axis_nodes(omega: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric nodes/weights on [-omega, omega], dyadically refined at 0."""
    edges = np.append(omega * np.exp2(-np.arange(panels + 1.0)), 0.0)
    x, w = gauss_legendre(edges[1:], edges[:-1], order)
    return np.concatenate([-x, x]), np.concatenate([w, w])


# a coordinate held at 0, as the B-coordinates of a partition are: the one-node rule
_ZERO_AXIS = (np.zeros(1), np.ones(1))


def _along(x: np.ndarray, j: int, k: int) -> np.ndarray:
    """The 1-D array x shaped to run along axis j of a k-axis grid."""
    return np.reshape(x, (-1,) + (1,) * (k - 1 - j))


def _grid_points(xs: Sequence[np.ndarray]) -> np.ndarray:
    """The (N, k) points of the tensor grid of the axis arrays xs, the last
    coordinate varying fastest, stored column by column."""
    return np.array([g.ravel() for g in np.meshgrid(*xs, indexing="ij")]).T


def _cf_grid(law: Law, xs: Sequence[np.ndarray]) -> np.ndarray:
    """law.cf on the tensor grid of the axis arrays xs, in the grid's shape.

    A law with factors calls each factor's cf once, on its own axis, and
    multiplies the values by broadcasting in the order of the factors, as
    its joint cf multiplies them; any other law's cf gets the grid's points.
    """
    k = len(xs)
    if law.factors:
        out = np.ones((), dtype=complex)
        for j, (c, x) in enumerate(zip(law.factors, xs)):
            out = out * _along(c.cf(x), j, k)
        return out
    return np.reshape(law.cf(_grid_points(xs)), [x.size for x in xs])


def _gap_grid(F: Law, G: Law, xs: Sequence[np.ndarray], C: Sequence[int] = ()) -> np.ndarray:
    """D_C (phi - psi) on the tensor grid of xs: the sum over operator_terms
    of c_t (phi - psi)(t o x), the transforms acting on the axes."""
    out = np.zeros([x.size for x in xs], dtype=complex)
    for t, c in operator_terms([("D", j) for j in C], len(xs)).items():
        txs = [tj * x for tj, x in zip(t, xs)]
        out += c * (_cf_grid(F, txs) - _cf_grid(G, txs))
    return out


def _grid_integral(axes: Sequence[tuple[np.ndarray, np.ndarray]], values: np.ndarray) -> float | complex:
    """The product of the 1-D rules axes = [(nodes, weights), ...] applied
    to values on their tensor grid: a float, or a complex for complex values."""
    wt = np.ones(())
    for j, (_, w) in enumerate(axes):
        wt = wt * _along(w, j, len(axes))
    return np.sum(wt * values).item()


def _grid(panels, order, default: tuple[int, int]) -> tuple[int, int]:
    """(panels, order) of the tensor rule, None taking the default's entry."""
    for name, value, fallback in zip(("panels", "order"), (panels, order), default):
        if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                                  or value < 1):
            raise ValueError(f"{name} must be an integer >= 1, or None for {fallback} (got {value!r})")
    return (default[0] if panels is None else panels, default[1] if order is None else order)


def _partition_terms(omegas, panels, order, integrand) -> dict[str, float]:
    """The tensor integral of integrand(xs, C, D) over the grid of the axis
    arrays xs for each partition (B, C, D), the B-axes the one node 0."""
    rules = [_axis_nodes(om, panels, order) for om in omegas]
    terms = {}
    for B, C, D in partitions(len(omegas)):
        axes = [_ZERO_AXIS if j in B else rule for j, rule in enumerate(rules)]
        terms[f"B={B} C={C} D={D}"] = _grid_integral(axes, integrand([x for x, _ in axes], C, D))
    return terms


def esseen_bound_k(
    F: Law,
    G: Law,
    omegas: Sequence[float],
    t: Sequence[float],
    *,
    constants: BoundConstants | None = None,
    panels: int | None = None,
    order: int | None = None,
) -> KBoundReport:
    """Partition-sum smoothing bound for |F(t) - G(t)|."""
    k = _check_laws(F, G, 3, omegas)
    consts = constants or BoundConstants.for_k(k)
    panels, order = _grid(panels, order, (12, 8) if k <= 2 else (7, 5))
    t = np.asarray(t, dtype=float)
    if t.shape != (k,) or not np.all(np.isfinite(t)):
        raise ValueError(f"t must be k = {k} finite numbers (got {tuple(t.ravel().tolist())})")

    def integrand(xs, C, D) -> np.ndarray:
        val = np.abs(_gap_grid(F, G, xs, C))
        for j in C:
            val = val / _along(np.abs(xs[j]), j, k)
        for j in D:
            val = val * _along(1.0 / omegas[j] + np.abs(np.sin(t[j] * xs[j])) / np.abs(xs[j]), j, k)
        return val

    terms = _partition_terms(omegas, panels, order, integrand)
    tail = consts.c2 * sum(m / om for m, om in zip(G.density_bounds, omegas))
    total = consts.c1 * sum(terms.values()) + tail
    return KBoundReport(total, terms, tail, 0.0, consts.as_dict(), {"t": tuple(t), "omegas": tuple(omegas)})


def esseen_bound_truncated(
    F: Law,
    G: Law,
    omegas: Sequence[float],
    *,
    delta: float,
    mode: Literal["A", "B"] = "A",
    alpha: float | None = None,
    box_extent: float | None = None,
    constants: BoundConstants | None = None,
    panels: int | None = None,
    order: int | None = None,
    use_triangle_replacement: bool = False,
) -> KBoundReport:
    """t-free truncated bound (pointwise mode A; box-measure mode B).

    Mode A requires delta > 1; mode B requires delta = 1 + D, where D > 0
    bounds the box edge lengths (box_extent).  With use_triangle_replacement the
    factor 1/|v_bullet| is replaced by the larger delta/|v_triangle|.
    """
    k = _check_laws(F, G, 3, omegas, 1.0)
    consts = constants or BoundConstants.for_k(k)
    panels, order = _grid(panels, order, (12, 8) if k <= 2 else (7, 5))
    if mode == "B":
        if box_extent is None or not box_extent > 0:
            raise ValueError(f"box_extent must be > 0 in mode 'B' (got {box_extent})")
        if delta != 1.0 + box_extent:
            raise ValueError(f"delta must be 1 + box_extent = {1.0 + box_extent!r} in mode 'B' "
                             f"(got {delta!r})")
    elif box_extent is not None:
        raise ValueError(f"box_extent is read only in mode 'B' (got {box_extent!r} in mode {mode!r})")
    if not delta > 1.0:
        raise ValueError(f"delta must be > 1 (got {delta})")
    a_max = min(F.moment[0], G.moment[0])
    if alpha is not None and not 0.0 < alpha <= a_max:
        raise ValueError(f"alpha must be in (0, {a_max:g}], the moment exponent of F and G (got {alpha!r})")
    a = a_max if alpha is None else alpha
    axes = [_axis_nodes(om, panels, order) for om in omegas]
    val = np.abs(_gap_grid(F, G, [x for x, _ in axes]))
    for j, (x, _) in enumerate(axes):
        if use_triangle_replacement:
            # delta / |v_triangle| >= 1/|v_bullet| pointwise
            val = val * delta / _along(np.maximum(np.abs(x), 1.0), j, k)
        else:
            val = val * _along(np.minimum(delta, 1.0 / np.abs(x)), j, k)  # 1/|v_bullet|
    I = _grid_integral(axes, val)
    tail = (consts.c6 if mode == "A" else consts.c9) * sum(
        m / om for m, om in zip(G.density_bounds, omegas)
    )
    cint = consts.c5 if mode == "A" else consts.c8
    extra = 0.0
    if mode == "A":
        extra = (k + 1.0) * delta ** (-a) * (F.moment[1] + G.moment[1])
    total = cint * I + tail + extra
    return KBoundReport(
        total,
        {"truncated_integral": I},
        tail,
        extra,
        consts.as_dict(),
        {"mode": mode, "delta": delta, "alpha": a, "omegas": tuple(omegas)},
    )


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
# slab norms and the slab-variant bound


_SLAB_CHUNK = 256  # rows per batched slab-norm evaluation; bounds the candidate arrays


def _check_tau(tau) -> None:
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0 (got {tau!r})")


def slab_norm(
    f: Callable[[np.ndarray], np.ndarray],
    C: Sequence[int],
    v: Sequence[float],
    tau: float = 1.0,
    flavor: Literal["bar", "double_bar"] = "double_bar",
    grid: int = 7,
) -> float:
    """Slab-wise sup quantity |f|_C (bar) or ||f||_C (double_bar) at v.

    The one-point form of `slab_norms`, which documents the computation
    and the checks on the parameters.
    """
    return float(slab_norms(f, C, [v], tau, flavor, grid)[0])


def slab_norms(
    f: Callable[[np.ndarray], np.ndarray],
    C: Sequence[int],
    V: np.ndarray,
    tau: float = 1.0,
    flavor: Literal["bar", "double_bar"] = "double_bar",
    grid: int = 7,
) -> np.ndarray:
    """|f|_C (bar) or ||f||_C (double_bar) at every row v of the (N, k) array V.

    Coordinates of C with |v_j| >= tau contribute sign flips; if none is
    small the value is the exact max of |f| over the flips.  Coordinates
    with |v_j| < tau are 'small': the value becomes _SUP_SAFETY = 1.5
    times the max of central-difference first partials |S_j f| (j small)
    over the flips crossed with a (2 grid + 1)-point grid per small
    coordinate on the short-circuit set (|xi_j| <= |v_j| for bar,
    |xi_j| <= tau for double_bar).  Empty C returns |f(v)|.  Rows are grouped by which
    coordinates of C are small and evaluated in chunks of _SLAB_CHUNK rows.

    This is the per-row route: `esseen_bound_slab` takes the double-bar
    norms on its tensor grids by `_slab_grid` instead, which is tested
    against this function row by row.  C must hold distinct coordinates
    0..k-1 of the k columns of V, tau must be finite and > 0, flavor one of
    "bar" and "double_bar", and grid an integer >= 1; otherwise a
    ValueError names the parameter.
    """
    V = np.asarray(V, dtype=float)
    C = list(C)
    k = V.shape[-1]
    if not all(isinstance(j, numbers.Integral) and not isinstance(j, bool) and 0 <= j < k for j in C) \
            or len(set(C)) != len(C):
        raise ValueError(f"C must hold distinct coordinates in 0..{k - 1} (got {C!r})")
    _check_tau(tau)
    if flavor not in ("bar", "double_bar"):
        raise ValueError(f"flavor must be 'bar' or 'double_bar' (got {flavor!r})")
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral) or grid < 1:
        raise ValueError(f"grid must be an integer >= 1 (got {grid!r})")
    if not C:
        # hypot rounds as abs() of one complex value does; np.abs on a
        # complex array can differ from it in the last bit
        z = np.asarray(f(V))
        return np.hypot(z.real, z.imag)
    out = np.empty(V.shape[0])
    small = np.abs(V[:, C]) < tau
    for pattern in itertools.product((False, True), repeat=len(C)):
        rows = np.flatnonzero(np.all(small == pattern, axis=1))
        Cb = [j for j, s in zip(C, pattern) if not s]
        Cs = [j for j, s in zip(C, pattern) if s]
        for lo in range(0, rows.size, _SLAB_CHUNK):
            r = rows[lo : lo + _SLAB_CHUNK]
            out[r] = _slab_group(f, V[r], Cb, Cs, tau, flavor, 2 * grid + 1)
    return out


def _slab_group(f, V, Cb, Cs, tau, flavor, npts) -> np.ndarray:
    """slab_norms for rows of V whose big/small split of C is (Cb, Cs)."""
    n, k = V.shape
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(Cb))))
    signs = signs.reshape(2 ** len(Cb), len(Cb))
    cand = np.repeat(V[:, None, :], len(signs), axis=1)  # (n, flips, k)
    cand[:, :, Cb] = signs * V[:, None, Cb]
    if not Cs:
        # exact finite max, no safety needed
        return np.max(np.abs(np.asarray(f(cand.reshape(-1, k)))).reshape(n, -1), axis=1)
    half = (np.abs(V[:, Cs]) if flavor == "bar" else np.full((n, len(Cs)), tau)) * (1 - 1e-9)
    # np.linspace(-half, half, npts) per row and coordinate, in the same arithmetic
    axis = np.arange(npts) * (2 * half / (npts - 1))[..., None] - half[..., None]
    axis[..., -1] = half
    idx = np.indices((npts,) * len(Cs)).reshape(len(Cs), -1)  # grid multi-indices
    pts = np.repeat(cand[:, :, None, :], idx.shape[1], axis=2)  # (n, flips, grid, k)
    for i, j in enumerate(Cs):
        pts[..., j] = axis[:, i, idx[i]][:, None, :]
    pts = pts.reshape(-1, k)
    # sup of first partials over the candidate set
    h = 1e-4
    best = np.zeros(n)
    for j in Cs:
        up, dn = pts.copy(), pts.copy()
        up[:, j] += h
        dn[:, j] -= h
        d = np.abs(np.asarray(f(up)) - np.asarray(f(dn))) / (2 * h)
        best = np.maximum(best, d.reshape(n, -1).max(axis=1))
    return _SUP_SAFETY * best


def _slab_grid(F: Law, G: Law, xs: Sequence[np.ndarray], C: Sequence[int], tau: float) -> np.ndarray:
    """slab_norms(phi - psi, C, _grid_points(xs), tau, "double_bar", grid=5)
    in the grid's shape, phi - psi taken once per candidate grid, not per row.

    A double-bar candidate set depends on a point only through its non-C
    coordinates and its big C-coordinates (|v_j| >= tau), each taken with
    both signs; each small one runs over the same grid on [-tau, tau].  So
    the points with one big/small pattern of C form a tensor sub-grid, and
    their candidates under one sign flip form one tensor grid: its small
    axes are the slab grid, and phi - psi, from the joint cfs, is taken
    there once.  The max over the flips and the small axes is broadcast
    along the small axes.
    """
    shape = [x.size for x in xs]

    def gap(axes):
        pts = _grid_points(axes)
        return np.ravel(F.cf(pts) - G.cf(pts)).reshape([x.size for x in axes])

    if not C:
        z = gap(xs)
        return np.hypot(z.real, z.imag)
    npts, h = 11, 1e-4
    half = tau * (1 - 1e-9)
    slab = np.arange(npts) * (2 * half / (npts - 1)) - half  # slab_norms' arithmetic
    slab[-1] = half
    small = {j: np.abs(xs[j]) < tau for j in C}
    out = np.empty(shape)
    for pattern in itertools.product((False, True), repeat=len(C)):
        rows = [np.arange(n) for n in shape]
        for j, s in zip(C, pattern):
            rows[j] = np.flatnonzero(small[j] == s)
        if any(r.size == 0 for r in rows):
            continue
        Cb = [j for j, s in zip(C, pattern) if not s]
        Cs = [j for j, s in zip(C, pattern) if s]
        best = np.zeros(())
        for signs in itertools.product((1.0, -1.0), repeat=len(Cb)):
            axes = [x[r] for x, r in zip(xs, rows)]
            for sg, j in zip(signs, Cb):
                axes[j] = sg * axes[j]
            if not Cs:
                best = np.maximum(best, np.abs(gap(axes)))
                continue
            for j in Cs:
                axes[j] = slab
            for j in Cs:
                up, dn = list(axes), list(axes)
                up[j], dn[j] = slab + h, slab - h
                d = np.abs(gap(up) - gap(dn)) / (2 * h)
                best = np.maximum(best, d.max(axis=tuple(Cs), keepdims=True))
        out[np.ix_(*rows)] = _SUP_SAFETY * best if Cs else best
    return out


def esseen_bound_slab(
    F: Law,
    G: Law,
    omegas: Sequence[float],
    *,
    constants: BoundConstants | None = None,
    tau: float = 1.0,
    panels: int | None = None,
    order: int | None = None,
) -> KBoundReport:
    """Slab-norm smoothing bound (t-free), k <= 2."""
    k = _check_laws(F, G, 2, omegas, 1.0)
    _check_tau(tau)
    consts = constants or BoundConstants.for_k(k)
    panels, order = _grid(panels, order, (6, 4))

    def integrand(xs, C, D) -> np.ndarray:
        out = _slab_grid(F, G, xs, C, tau)
        for j in C:
            out = out / _along(np.maximum(np.abs(xs[j]), 1.0), j, k)  # |v_triangle|
        for j in D:
            out = out / omegas[j]
        return out

    terms = _partition_terms(omegas, panels, order, integrand)
    tail = consts.c2 * sum(m / om for m, om in zip(G.density_bounds, omegas))
    total = consts.c_hat1 * sum(terms.values()) + tail
    return KBoundReport(total, terms, tail, 0.0, consts.as_dict(), {"tau": tau, "omegas": tuple(omegas)})


# ---------------------------------------------------------------------------
# convergence harness


@dataclass(frozen=True)
class KHarnessRow:
    index: int
    sup_distance: float
    bound: float
    omegas: tuple[float, ...]
    moment_diag: float


def convergence_harness_k(
    family: Callable[[int], Law],
    G: Law,
    indices: Sequence[int],
    variant: Literal["plain", "A", "B", "C"] = "A",
    t_grid: np.ndarray | None = None,
) -> list[KHarnessRow]:
    k = G.k
    if t_grid is None:
        side = np.linspace(-3, 3, 9)
        t_grid = np.array(list(itertools.product(*[side] * k)))
    omega_candidates = [tuple([2.0**j] * k) for j in range(1, 6)]
    rows = []
    h = 1e-3
    for n in indices:
        F = family(n)
        d = float(np.max(np.abs(F.cdf(t_grid) - G.cdf(t_grid))))
        best = math.inf
        best_om = omega_candidates[0]
        for oms in omega_candidates:
            if variant == "plain":
                rep = esseen_bound_k(F, G, oms, [0.0] * k, panels=8, order=6)
            elif variant == "A":
                rep = esseen_bound_truncated(F, G, oms, delta=8.0, mode="A", panels=8, order=6)
            elif variant == "B":
                rep = esseen_bound_truncated(F, G, oms, delta=5.0, mode="B", box_extent=4.0,
                                             panels=8, order=6)
            else:
                rep = esseen_bound_slab(F, G, oms)
            if rep.total < best:
                best, best_om = rep.total, oms

        # post-corollary diagnostic: mixed first partials of the cf at 0
        def mixed(cf):
            pts = np.array(list(itertools.product(*[(-h, h)] * k)))
            signs = np.prod(np.sign(pts), axis=1)
            return complex(np.sum(signs * np.ravel(cf(pts))) / (2 * h) ** k)

        diag = abs(mixed(F.cf) - mixed(G.cf))
        rows.append(KHarnessRow(n, d, best, best_om, diag))
    return rows
