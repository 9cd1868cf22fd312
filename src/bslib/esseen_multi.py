"""k-variable smoothing machinery.

Ring expansion of the majorant/minorant product trick, the commuting
difference-operator algebra (D, E, P, Delta), integral factorizations
and derivative bounds, and four bound variants for |F - G| over R^k:
the partition-sum bound, two truncated t-free bounds (pointwise and
box-measure), and the slab-norm bound.  Desk-scale targets: k <= 4 for
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

from .esseen1d import BoundReport, Law, _check_laws, normal_law
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
    "esseen_bound_slab",
    "partitions",
    "product_law",
    "product_normal_target",
    "box_probability",
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
    for mono, c in S.items():
        if c <= 0:
            raise ArithmeticError(f"ring expansion monomial {mono} has coefficient {c} <= 0")
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
    vals = np.asarray(deriv(pts), dtype=complex).reshape([x.size for x, _ in axes])
    weights = [w * (1.0 - np.abs(x)) if which == "e_delta" else w for x, w in axes]
    return abs(lhs - front * _contract(vals, weights))


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
    """The standard normal law on R^k: the product of k standard normal laws."""
    return product_law([normal_law()] * k)


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
            out = out * np.reshape(c.cf(x), (-1,) + (1,) * (k - 1 - j))  # along axis j
        return out
    return np.reshape(law.cf(_grid_points(xs)), [x.size for x in xs])


def _contract(values: np.ndarray, weights: Sequence[np.ndarray]) -> float | complex:
    """The tensor rule with the per-axis weight vectors applied to values on
    their grid, one axis at a time, the last first: a float, or a complex for
    complex values.  Every separable factor of an integrand belongs in its
    axis's weights, so that no factor multiplies the whole grid."""
    for w in reversed(weights):
        values = values @ w
    return values.item()


def _grid(panels, order, default: tuple[int, int]) -> tuple[int, int]:
    """(panels, order) of the tensor rule, None taking the default's entry."""
    for name, value, fallback in zip(("panels", "order"), (panels, order), default):
        if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                                  or value < 1):
            raise ValueError(f"{name} must be an integer >= 1, or None for {fallback} (got {value!r})")
    return (default[0] if panels is None else panels, default[1] if order is None else order)


# the default (panels, order) of the partition and truncated bounds by k; at
# k = 4 the (7, 5) grid of k = 3 would hold 70^4 complex values, 384 MB
_DEFAULT_GRID = {1: (12, 8), 2: (12, 8), 3: (7, 5), 4: (4, 3)}


def _partition_terms(F: Law, G: Law, rules, c_weights, d_weights, values) -> dict[str, float]:
    """The integral term of each partition (B, C, D) of the axes of rules,
    [(nodes, weights), ...] each symmetric: values(z, xs, C) on the grid of
    the axis arrays xs, where a B-axis is the one node 0 and every other
    axis its rule's nodes, contracted with the weight 1 on the B-axes,
    c_weights on the C-axes and d_weights on the D-axes.  z, phi - psi on
    that grid, is taken once for each of the grids that the B-sets fix."""
    terms, gaps = {}, {}
    for B, C, D in partitions(len(rules)):
        xs = [_ZERO_AXIS[0] if j in B else x for j, (x, _) in enumerate(rules)]
        if B not in gaps:
            gaps[B] = _cf_grid(F, xs) - _cf_grid(G, xs)
        weights = [_ZERO_AXIS[1] if j in B else c_weights[j] if j in C else d_weights[j]
                   for j in range(len(rules))]
        terms[f"B={B} C={C} D={D}"] = _contract(values(gaps[B], xs, C), weights)
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
) -> BoundReport:
    """Partition-sum smoothing bound for |F(t) - G(t)|: phi - psi once on
    each grid that a B-set fixes, and D_C on the positive halves of the
    symmetric C-axes."""
    k = _check_laws(F, G, 4, omegas)
    consts = constants or BoundConstants.for_k(k)
    panels, order = _grid(panels, order, _DEFAULT_GRID[k])
    t = np.asarray(t, dtype=float)
    if t.shape != (k,) or not np.all(np.isfinite(t)):
        raise ValueError(f"t must be k = {k} finite numbers (got {tuple(t.ravel().tolist())})")

    rules = [_axis_nodes(om, panels, order) for om in omegas]
    # D_j g is odd in x_j, so |D_C g| is even in every C-axis: a C-axis keeps
    # its positive half, with the weights doubled and the 1/|x_j| folded in
    c_weights = [2.0 * w[w.size // 2 :] / x[x.size // 2 :] for x, w in rules]
    d_weights = [w * (1.0 / om + np.abs(np.sin(tj * x)) / np.abs(x))
                 for (x, w), om, tj in zip(rules, omegas, t)]

    def values(z, xs, C) -> np.ndarray:
        for j in C:  # D_j z on the positive half of axis j, whose negative half holds z at -x
            neg, pos = np.split(z, 2, axis=j)
            z = 0.5 * (pos - neg)
        return np.abs(z)

    terms = _partition_terms(F, G, rules, c_weights, d_weights, values)
    tail = consts.c2 * sum(m / om for m, om in zip(G.density_bounds, omegas))
    total = consts.c1 * sum(terms.values()) + tail
    terms = {name: consts.c1 * v for name, v in terms.items()}
    return BoundReport(total, terms, tail, {}, tuple(omegas), consts.as_dict(), {"t": tuple(t)})


def esseen_bound_truncated(
    F: Law,
    G: Law,
    omegas: Sequence[float],
    *,
    delta: float,
    mode: Literal["A", "B"] = "A",
    box_extent: float | None = None,
    constants: BoundConstants | None = None,
    panels: int | None = None,
    order: int | None = None,
    use_triangle_replacement: bool = False,
) -> BoundReport:
    """t-free truncated bound (pointwise mode A; box-measure mode B).

    Mode A requires delta > 1; mode B requires delta = 1 + D, where D > 0
    bounds the box edge lengths (box_extent).  With use_triangle_replacement the
    factor 1/|v_bullet| is replaced by the larger delta/|v_triangle|.  Mode
    A's moment slack takes the smaller moment exponent of F and G, which
    `detail["alpha"]` reports.
    """
    k = _check_laws(F, G, 4, omegas, 1.0)
    consts = constants or BoundConstants.for_k(k)
    panels, order = _grid(panels, order, _DEFAULT_GRID[k])
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
    a = min(F.moment[0], G.moment[0])
    rules = [_axis_nodes(om, panels, order) for om in omegas]
    xs = [x for x, _ in rules]
    if use_triangle_replacement:  # delta / |v_triangle| >= 1/|v_bullet| pointwise
        weights = [w * delta / np.maximum(np.abs(x), 1.0) for x, w in rules]
    else:
        weights = [w * np.minimum(delta, 1.0 / np.abs(x)) for x, w in rules]  # 1/|v_bullet|
    I = _contract(np.abs(_cf_grid(F, xs) - _cf_grid(G, xs)), weights)
    tail = (consts.c6 if mode == "A" else consts.c9) * sum(
        m / om for m, om in zip(G.density_bounds, omegas)
    )
    cint = consts.c5 if mode == "A" else consts.c8
    total, slack = cint * I + tail, {}
    if mode == "A":
        slack["moment"] = (k + 1.0) * delta ** (-a) * (F.moment[1] + G.moment[1])
        total += slack["moment"]
    return BoundReport(total, {"truncated_integral": cint * I}, tail, slack, tuple(omegas),
                       consts.as_dict(), {"mode": mode, "delta": delta, "alpha": a})


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


def _check_tau(tau) -> None:
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0 (got {tau!r})")


def _slab_grid(F: Law, G: Law, xs: Sequence[np.ndarray], C: Sequence[int], tau: float,
               z: np.ndarray | None = None) -> np.ndarray:
    """The double-bar slab norm ||phi - psi||_C at every point of the tensor
    grid of xs, in the grid's shape; z is phi - psi on that grid, taken
    here when not given.

    At a point v, a C-coordinate is big if |v_j| >= tau and small otherwise.
    The candidates are v with each big coordinate taken with both signs and
    each small one run over the 11-point grid on [-tau, tau] shrunk by
    1 - 1e-9.  With no small coordinate the norm is the max of |phi - psi|
    over the candidates; otherwise it is _SUP_SAFETY times the max over the
    candidates and the small j of the central difference
    |f(. + h e_j) - f(. - h e_j)| / (2 h), h = 1e-4.  Empty C gives
    |phi - psi| at v.

    A candidate set depends on a point only through its non-C
    coordinates and its big C-coordinates (|v_j| >= tau), each taken with
    both signs; each small one runs over the same grid on [-tau, tau].  So
    the points with one big/small pattern of C form a tensor sub-grid; with
    its small axes replaced by the slab grid, phi - psi, through `_cf_grid`,
    is taken there once; a pattern with no small axis indexes z.  The
    C-axes must be symmetric, [-y, y] as `_axis_nodes` builds them, and so
    are their big rows: a sign flip of a big axis is a roll by half of it,
    and the max over the flips a max with that roll.  The max over the small
    axes is broadcast along them.
    """
    shape = [x.size for x in xs]
    if z is None:
        z = _cf_grid(F, xs) - _cf_grid(G, xs)
    if not C:
        return np.hypot(z.real, z.imag)
    npts, h = 11, 1e-4
    half = tau * (1 - 1e-9)
    slab = np.linspace(-half, half, npts)
    small = {j: np.abs(xs[j]) < tau for j in C}
    out = np.empty(shape)
    for pattern in itertools.product((False, True), repeat=len(C)):
        rows = [np.arange(n) for n in shape]
        for j, s in zip(C, pattern):
            rows[j] = np.flatnonzero(small[j] == s)
        if any(r.size == 0 for r in rows):
            continue
        axes = [x[r] for x, r in zip(xs, rows)]
        Cs = [j for j, s in zip(C, pattern) if s]
        best = np.zeros(()) if Cs else np.abs(z[np.ix_(*rows)])
        for j in Cs:
            axes[j] = slab
        for j in Cs:
            up, dn = list(axes), list(axes)
            up[j], dn[j] = slab + h, slab - h
            d = np.abs(_cf_grid(F, up) - _cf_grid(G, up) - (_cf_grid(F, dn) - _cf_grid(G, dn))) / (2 * h)
            best = np.maximum(best, d.max(axis=tuple(Cs), keepdims=True))
        for j, s in zip(C, pattern):
            if not s:  # the flip of a big axis
                best = np.maximum(best, np.roll(best, best.shape[j] // 2, axis=j))
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
) -> BoundReport:
    """Slab-norm smoothing bound (t-free), k <= 2."""
    k = _check_laws(F, G, 2, omegas, 1.0)
    _check_tau(tau)
    consts = constants or BoundConstants.for_k(k)
    panels, order = _grid(panels, order, (6, 4))
    rules = [_axis_nodes(om, panels, order) for om in omegas]
    c_weights = [w / np.maximum(np.abs(x), 1.0) for x, w in rules]  # 1/|v_triangle|
    d_weights = [w / om for (_, w), om in zip(rules, omegas)]
    terms = _partition_terms(F, G, rules, c_weights, d_weights,
                             lambda z, xs, C: _slab_grid(F, G, xs, C, tau, z))
    tail = consts.c2 * sum(m / om for m, om in zip(G.density_bounds, omegas))
    total = consts.c_hat1 * sum(terms.values()) + tail
    terms = {name: consts.c_hat1 * v for name, v in terms.items()}
    return BoundReport(total, terms, tail, {}, tuple(omegas), consts.as_dict(), {"tau": tau})
