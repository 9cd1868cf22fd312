"""k-variable smoothing machinery: ring expansion, operator algebra, bounds."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from bslib import esseen1d as e1
from bslib import esseen_multi as em


# ---------------------------------------------------------------------------
# ring expansion


def _sympy_ring(k):
    """Symbols and the product-trick expression, built in sympy as the reference."""
    sym = {
        "chi": sp.symbols(f"chi1:{k + 1}"),
        "delta": sp.symbols(f"delta1:{k + 1}"),
        "eps": sp.symbols(f"eps1:{k + 1}"),
    }
    chi, dlt, eps = sym["chi"], sym["delta"], sym["eps"]
    f = [chi[j] - dlt[j] for j in range(k)]
    g = [chi[j] + eps[j] for j in range(k)]
    lhs = (1 - k) * sp.prod(g) + sum(
        f[j] * sp.prod([g[i] for i in range(k) if i != j]) for j in range(k)
    )
    return sym, lhs, sp.prod(g)


def _poly(sym, counter):
    return sum(c * sp.prod(sym[tag][j] for j, tag in enumerate(mono)) for mono, c in counter.items())


class TestRingExpansion:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_identity_under_random_rational_substitution(self, k):
        S, _ = em.selberg_ring_expansion(k)
        sym, lhs, _ = _sympy_ring(k)
        rhs = sp.prod(sym["chi"]) - _poly(sym, S)
        rng = np.random.default_rng(42)
        for _ in range(100):
            subs = {}
            for s in (*sym["chi"], *sym["delta"], *sym["eps"]):
                subs[s] = sp.Rational(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            # exact rational arithmetic: the residual must be identically zero
            assert sp.simplify(lhs.xreplace(subs) - rhs.xreplace(subs)) == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_sympy_expansion(self, k):
        S, S_tilde = em.selberg_ring_expansion(k)
        sym, lhs, prod_g = _sympy_ring(k)
        chi_prod = sp.prod(sym["chi"])
        assert sp.expand(chi_prod - lhs - _poly(sym, S)) == 0
        assert sp.expand(prod_g - chi_prod - _poly(sym, S_tilde)) == 0
        assert all(isinstance(c, int) for c in (*S.values(), *S_tilde.values()))

    def test_k2_error_monomials(self):
        S, _ = em.selberg_ring_expansion(2)
        expect = {
            ("delta", "chi"): 1,
            ("chi", "delta"): 1,
            ("delta", "eps"): 1,
            ("eps", "delta"): 1,
            ("eps", "eps"): 1,
        }
        assert dict(S) == expect

    def test_k3_multiplicities(self):
        S, _ = em.selberg_ring_expansion(3)
        assert S[("eps", "eps", "eps")] == 2
        assert sum(S.values()) == 17
        # every error monomial touches a delta or an eps in each... at least one index
        assert all(any(tag != "chi" for tag in mono) for mono in S)

    def test_error_terms_positive(self):
        for k in (2, 3, 4):
            S, S_tilde = em.selberg_ring_expansion(k)
            assert all(c > 0 for c in S.values())
            assert all(c > 0 for c in S_tilde.values())


# ---------------------------------------------------------------------------
# operator algebra


def _terms_equal(a, b, tol=0.0):
    keys = set(a) | set(b)
    return all(abs(a.get(t, 0.0) - b.get(t, 0.0)) <= tol for t in keys)


class TestOperatorAlgebra:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_annihilations(self, k):
        for j in range(k):
            assert em.operator_terms([("D", j), ("E", j)], k) == {}
            assert em.operator_terms([("D", j), ("P", j)], k) == {}
            assert em.operator_terms([("P", j), ("Delta", j)], k) == {}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_absorptions(self, k):
        for j in range(k):
            d = em.operator_terms([("D", j)], k)
            assert _terms_equal(em.operator_terms([("D", j), ("Delta", j)], k), d)
            p = em.operator_terms([("P", j)], k)
            assert _terms_equal(em.operator_terms([("E", j), ("P", j)], k), p)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_resolution_of_identity(self, k):
        # I = P_j + D_j + E_j Delta_j, exactly
        for j in range(k):
            combined = {}
            for word in ([("P", j)], [("D", j)], [("E", j), ("Delta", j)]):
                for t, c in em.operator_terms(word, k).items():
                    combined[t] = combined.get(t, 0.0) + c
            combined = {t: c for t, c in combined.items() if c != 0.0}
            assert combined == {tuple([1] * k): 1.0}

    def test_idempotents_and_commutation(self):
        k = 2
        for j in range(k):
            e = em.operator_terms([("E", j)], k)
            assert _terms_equal(em.operator_terms([("E", j), ("E", j)], k), e)
            p = em.operator_terms([("P", j)], k)
            assert _terms_equal(em.operator_terms([("P", j), ("P", j)], k), p)
        # operators on distinct coordinates commute
        ab = em.operator_terms([("D", 0), ("Delta", 1)], k)
        ba = em.operator_terms([("Delta", 1), ("D", 0)], k)
        assert _terms_equal(ab, ba)

    def test_hermitian_preservation(self):
        # Hermitian input (f(-v) = conj f(v)) stays Hermitian under any word
        def f(p):
            return np.exp(1j * (0.7 * p[..., 0] - 1.3 * p[..., 1])) * np.exp(-0.1 * np.sum(p**2, axis=-1))

        words = [
            [("D", 0)],
            [("E", 1), ("Delta", 1)],
            [("D", 0), ("Delta", 1)],
            [("P", 0), ("D", 1)],
        ]
        rng = np.random.default_rng(3)
        for word in words:
            for _ in range(20):
                v = rng.uniform(-2, 2, 2)
                a = em.apply_operator(word, f, v)
                b = em.apply_operator(word, f, -v)
                assert abs(a - b.conjugate()) <= 1e-14


    def test_rows_equal_one_point_calls(self):
        # the (N, k) form is the one-point form row by row, to the last bit
        def f(p):
            return np.exp(1j * (0.7 * p[..., 0] - 1.3 * p[..., 1] + 0.4 * p[..., 2])) * (1.0 + p[..., 0] ** 2)

        def hexes(z):
            return [(float(c.real).hex(), float(c.imag).hex()) for c in np.atleast_1d(z)]

        V = np.random.default_rng(5).uniform(-2, 2, (40, 3))
        words = [[("D", 0), ("D", 2)], [("E", 1)], [("P", 0), ("P", 2)], [("Delta", 1)],
                 [("E", 0), ("Delta", 0), ("D", 1), ("P", 2)]]
        for word in words:
            rows = em.apply_operator(word, f, V)
            assert rows.shape == (40,)
            assert hexes(rows) == [h for v in V for h in hexes(em.apply_operator(word, f, v))]

    def test_cancelling_word_gives_zeros(self):
        def f(p):
            return np.exp(1j * p[..., 0]) + p[..., 1]

        V = np.random.default_rng(6).uniform(-2, 2, (7, 2))
        assert em.operator_terms([("D", 0), ("E", 0)], 2) == {}
        assert np.array_equal(em.apply_operator([("D", 0), ("E", 0)], f, V), np.zeros(7, dtype=complex))
        assert em.apply_operator([("D", 1), ("P", 1)], f, V[0]) == 0j


# ---------------------------------------------------------------------------
# factorizations and derivative bounds


class TestFactorizations:
    @pytest.mark.parametrize("which", ["mixed", "delta", "e_delta"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_exponential_residuals(self, which, m):
        a = np.array([0.7, -1.3, 0.4])[:2]

        def f(p):
            return np.exp(1j * (p @ a))

        coef = np.prod((1j * a[:m]) ** (2 if which == "e_delta" else 1))

        def deriv(p):
            return coef * f(p)

        res = em.factorization_residual(f, deriv, m, which, (0.8, 1.1))
        assert res <= 1e-10

    def test_product_cosine_residual(self):
        # real product-cosine profile, full mixed factorization
        a = np.array([1.2, 0.6])

        def f(p):
            return np.cos(a[0] * p[..., 0]) * np.sin(a[1] * p[..., 1])

        def deriv(p):
            return a[0] * a[1] * (-np.sin(a[0] * p[..., 0])) * np.cos(a[1] * p[..., 1])

        res = em.factorization_residual(f, deriv, 2, "mixed", (0.9, 1.4))
        assert res <= 1e-8

    def test_three_variable_mixed(self):
        a = np.array([0.5, -0.8, 1.1])

        def f(p):
            return np.exp(1j * (p @ a))

        def deriv(p):
            return np.prod(1j * a) * f(p)

        res = em.factorization_residual(f, deriv, 3, "mixed", (0.7, 0.9, 0.5), nodes=12)
        assert res <= 1e-9

    @pytest.mark.parametrize("which, per_axis", [("mixed", 48), ("delta", 24), ("e_delta", 48)])
    def test_one_deriv_call_on_all_nodes(self, which, per_axis):
        a = np.array([0.7, -1.3, 0.4])
        coef = np.prod((1j * a[:2]) ** (2 if which == "e_delta" else 1))
        shapes = []

        def deriv(p):
            shapes.append(p.shape)
            return coef * np.exp(1j * (p @ a))

        res = em.factorization_residual(lambda p: np.exp(1j * (p @ a)), deriv, 2, which, (0.8, 1.1, -0.6))
        assert shapes == [(per_axis**2, 3)]
        assert res <= 1e-10


def _bound_spec(which, h):
    if which == "4.24":
        return {"which": which, "h": h, "ell": 2, "m": 2}
    return {"which": which, "h": h, "ell": 2, "m": 3, "n": 2, "delta": 1}


class TestDerivativeBounds:
    def _f(self, p):
        return np.sin(1.1 * p[..., 0] + 0.2) * np.sin(0.9 * p[..., 1] - 0.4) * np.cos(0.5 * p[..., 2])

    # the values of the one-point implementation that this one replaced
    @pytest.mark.parametrize(
        "which, h, lhs, rhs",
        [
            ("4.24", 1, "0x1.3067fe6912027p-1", 1.3221264666960761),
            ("4.24", 2, "0x1.3067fe6912027p-1", 1.3693517707614145),
            ("4.26", 1, "0x0.0p+0", 2.089005988903354),
            ("4.26", 2, "0x0.0p+0", 0.42732510946552704),
            ("4.27", 1, "0x0.0p+0", 2.089005988903354),
            ("4.27", 2, "0x0.0p+0", 0.42732510946552704),
            ("4.28", 1, "0x0.0p+0", 1.9726464718088723),
            ("4.28", 2, "0x0.0p+0", 0.3811178533229238),
        ],
    )
    def test_pinned_values(self, which, h, lhs, rhs):
        chk = em.derivative_bound_check(self._f, _bound_spec(which, h), (0.8, 1.2, 0.5))
        assert chk.lhs.hex() == lhs
        assert chk.rhs == pytest.approx(rhs, rel=1e-15, abs=0.0)
        assert chk.holds and not chk.inconclusive

    @pytest.mark.parametrize("which", ["4.24", "4.26", "4.27", "4.28"])
    @pytest.mark.parametrize("h", [1, 2])
    def test_one_call_per_term_and_level(self, which, h):
        # one call per operator term for the lhs, and at most three
        # refinement levels per sigma-subset, each one call on an (N, k) array
        spec = _bound_spec(which, h)
        m, n = spec["m"], spec.get("n", 0)
        word = [("Delta", j) for j in range(n)] + [("D", j) for j in range(n, m)]
        if which in ("4.27", "4.28"):
            word = [("E", j) for j in range(n)] + word
        L = spec["ell"] + spec.get("delta", 0)
        shapes = []

        def f(p):
            shapes.append(p.shape)
            return self._f(p)

        em.derivative_bound_check(f, spec, (0.8, 1.2, 0.5))
        assert len(shapes) <= len(em.operator_terms(word, 3)) + 3 * math.comb(L, h)
        assert all(len(s) == 2 and s[1] == 3 for s in shapes)

    def test_mixed_difference_bound(self):
        for h in (1, 2):
            chk = em.derivative_bound_check(
                self._f, {"which": "4.24", "h": h, "ell": 2, "m": 2},
                (0.8, 1.2, 0.5),
            )
            assert chk.holds
            assert not chk.inconclusive
            assert chk.slack >= 0.0

    @pytest.mark.parametrize("which", ["4.26", "4.27", "4.28"])
    def test_truncation_variants(self, which):
        chk = em.derivative_bound_check(
            self._f,
            {"which": which, "h": 1, "ell": 2, "m": 3, "n": 2, "delta": 1},
            (0.8, 1.2, 0.5),
        )
        assert chk.holds

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="^spec"):
            em.derivative_bound_check(
                self._f, {"which": "4.24", "h": 3, "ell": 2, "m": 2}, (0.5, 0.5, 0.5)
            )
        with pytest.raises(ValueError, match="^spec"):
            em.derivative_bound_check(
                self._f,
                {"which": "4.26", "h": 1, "ell": 2, "m": 3, "n": 2, "delta": 2},
                (0.8, 1.2, 0.5),
            )
        with pytest.raises(ValueError, match="^spec"):
            em.derivative_bound_check(self._f, _bound_spec("4.25", 1), (0.8, 1.2, 0.5))


# ---------------------------------------------------------------------------
# laws, partitions, bounds


def _k2_pair(n=25):
    F = em.product_law([e1.standardized_binomial(n), e1.standardized_binomial(n)])
    G = em.product_normal_target(2)
    return F, G


class TestLawsAndPartitions:
    def test_partition_count_and_disjointness(self):
        for k in (1, 2, 3):
            parts = list(em.partitions(k))
            assert len(parts) == 3**k
            for B, C, D in parts:
                assert set(B) | set(C) | set(D) == set(range(k))
                assert not (set(B) & set(C) or set(B) & set(D) or set(C) & set(D))

    def test_product_law_cf_and_cdf(self):
        F, G = _k2_pair()
        pts = np.array([[0.3, -0.7], [1.1, 0.2]])
        vals = F.cf(pts)
        comp = e1.standardized_binomial(25)
        for i, p in enumerate(pts):
            assert vals[i] == pytest.approx(comp.cf(p[0]) * comp.cf(p[1]), abs=1e-14)
        assert F.cdf(np.array([50.0, 50.0])) == pytest.approx(1.0, abs=1e-12)
        assert G.cdf(np.array([0.0, 0.0])) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("k", [2, 3])
    def test_product_law_array_cdf_and_cf(self, k):
        comps = [e1.standardized_binomial(9), e1.irwin_hall_standardized(3), e1.normal_law(0.2)][:k]
        F = em.product_law(comps)
        assert F.k == k
        pts = np.random.default_rng(k).uniform(-3.0, 3.0, (200, k))
        # the per-point product, in the component order
        looped = [float(np.prod([c.cdf(float(p[j])) for j, c in enumerate(comps)])) for p in pts]
        assert np.array_equal(F.cdf(pts), looped)
        # one k-vector gives a scalar
        assert np.ndim(F.cdf(pts[0])) == 0 and F.cdf(pts[0]) == looped[0]
        assert np.ndim(F.cf(pts[0])) == 0 and F.cf(pts[0]) == F.cf(pts)[0]

    def test_product_law_density_bounds(self):
        a, b = e1.normal_law(0.0, 2.0), e1.normal_law(1.0, 0.5)
        assert em.product_law([a, b]).density_bounds == a.density_bounds + b.density_bounds
        assert em.product_law([a, e1.standardized_binomial(9), b]).density_bounds is None
        assert em.product_normal_target(3).density_bounds == e1.normal_law().density_bounds * 3

    def test_box_probability(self):
        G = em.product_normal_target(2)
        a, b = np.array([-1.0, -0.5]), np.array([1.0, 0.5])
        Phi = e1.normal_law().cdf
        p1 = Phi(1.0) - Phi(-1.0)
        p2 = Phi(0.5) - Phi(-0.5)
        assert em.box_probability(G.cdf, a, b) == pytest.approx(p1 * p2, abs=1e-12)

    def test_dirac_collapse_consistency(self):
        # a coordinate held at 0 by the one-node axis (node 0, weight 1) in
        # the tensor integral equals the lower-dimensional integral of the
        # zero-section
        rule = em._axis_nodes(4.0, 8, 6)

        def g(x0, x1):
            return np.exp(-0.3 * (x0**2 + x1**2))

        zero, one = em._ZERO_AXIS
        collapsed = em._contract(g(zero[:, None], rule[0]), [one, rule[1]])
        direct = em._contract(g(0.0, rule[0]), [rule[1]])
        assert collapsed == pytest.approx(direct, rel=1e-10)


class TestConstants:
    def test_defaults_scale_with_k(self):
        for k in (1, 2, 3):
            c = em.BoundConstants.for_k(k)
            assert c.c1 == 1.0
            assert c.c2 == math.pi
            assert c.c5 == 2.0**k
            assert c.c8 == 4.0**k
            assert c.c_hat1 == 2.0**k
            d = c.as_dict()
            assert set(d) == {"c1", "c2", "c5", "c6", "c8", "c9", "c_hat1"}


class TestBounds:
    def test_partition_bound_dominates_pointwise_gap(self):
        F, G = _k2_pair()
        for t in ([0.0, 0.0], [0.5, -0.3], [1.2, 1.2], [-2.0, 0.7], [0.1, -1.8]):
            rep = em.esseen_bound_k(F, G, (8.0, 8.0), t)
            gap = abs(F.cdf(np.asarray(t)) - G.cdf(np.asarray(t)))
            assert rep.total >= gap
            assert rep.constants["c1"] == 1.0

    def test_truncated_bound_dominates_sup(self):
        F, G = _k2_pair()
        rep = em.esseen_bound_truncated(F, G, (8.0, 8.0), delta=8.0, mode="A")
        side = np.linspace(-3, 3, 13)
        sup = max(
            abs(F.cdf(np.array(t)) - G.cdf(np.array(t)))
            for t in itertools.product(side, side)
        )
        assert rep.total >= sup
        assert rep.slack["moment"] > 0.0

    def test_box_measure_bound_dominates_boxes(self):
        F, G = _k2_pair()
        rep = em.esseen_bound_truncated(
            F, G, (8.0, 8.0), delta=5.0, mode="B", box_extent=4.0
        )
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.uniform(-3, 0, 2)
            b = a + rng.uniform(0.1, 4.0, 2)
            gap = abs(em.box_probability(F.cdf, a, b) - em.box_probability(G.cdf, a, b))
            assert rep.total >= gap

    def test_dominance_chain(self):
        # the partition bound at t = 0 is never above the truncated bound
        # once the smaller per-coordinate factor is replaced by the larger
        # delta / max(|v|, 1) one
        F, G = _k2_pair()
        plain = em.esseen_bound_k(F, G, (8.0, 8.0), (0.0, 0.0))
        relaxed = em.esseen_bound_truncated(
            F, G, (8.0, 8.0), delta=8.0, mode="A", use_triangle_replacement=True
        )
        assert plain.total <= relaxed.total

    def test_triangle_replacement_never_smaller(self):
        F, G = _k2_pair()
        base = em.esseen_bound_truncated(F, G, (8.0, 8.0), delta=8.0, mode="A")
        relaxed = em.esseen_bound_truncated(
            F, G, (8.0, 8.0), delta=8.0, mode="A", use_triangle_replacement=True
        )
        assert relaxed.terms["truncated_integral"] >= base.terms["truncated_integral"]

    def test_truncation_moves_little_mass(self):
        # clamping the evaluation point to [-delta, delta]^k changes the cdf
        # by at most k * delta^-alpha * moment
        F, _ = _k2_pair(100)
        alpha, mom = F.moment
        for delta in (3.0, 5.0):
            for t in ([5.0, 0.5], [-4.0, 7.0], [6.0, -6.0]):
                t = np.asarray(t)
                t_star = np.clip(t, -delta, delta)
                lhs = abs(F.cdf(t) - F.cdf(t_star))
                assert lhs <= len(t) * delta ** (-alpha) * mom + 1e-12

    def test_k4_bounds_dominate(self):
        # four binomials, n = 64, at Omega = 12 on the (4, 3) default grid.
        # The product law's cdf is the product of the 1-D cdfs, so its
        # discrepancy is exact at every point
        comp, normal = e1.standardized_binomial(64), e1.normal_law()
        F, G = em.product_law([comp] * 4), em.product_normal_target(4)
        for t in np.random.default_rng(4).uniform(-1.5, 1.5, (3, 4)):
            assert em.esseen_bound_k(F, G, (12.0,) * 4, t).total >= abs(F.cdf(t) - G.cdf(t))
        # the sup over a grid plus the atoms and their left limits on each
        # axis, +inf standing for the lower-dimensional marginals
        atoms = np.array([a for a in comp.atoms if abs(a) <= 2.0])
        x = np.concatenate([np.linspace(-2.0, 2.0, 9), atoms, [np.inf]])
        Fx = np.concatenate([comp.cdf(x), comp.cdf(atoms - 1e-9)])
        Gx = np.concatenate([normal.cdf(x), normal.cdf(atoms)])
        F3 = np.multiply.outer(np.multiply.outer(Fx, Fx), Fx)
        G3 = np.multiply.outer(np.multiply.outer(Gx, Gx), Gx)
        sup = max(float(np.max(np.abs(f * F3 - g * G3))) for f, g in zip(Fx, Gx))
        assert sup > 0.0
        assert em.esseen_bound_truncated(F, G, (12.0,) * 4, delta=8.0, mode="A").total >= sup

    def test_mode_b_requires_box_extent(self):
        F, G = _k2_pair()
        with pytest.raises(ValueError, match="box_extent"):
            em.esseen_bound_truncated(F, G, (8.0, 8.0), delta=2.0, mode="B")


class TestSlabNorm:
    def test_empty_set_is_plain_value(self):
        F, G = _k2_pair()
        v = np.array([0.7, -1.3])
        norm = em._slab_grid(F, G, [v[:1], v[1:]], (), 1.0)
        assert norm.shape == (1, 1)
        assert norm[0, 0] == pytest.approx(abs(complex(F.cf(v) - G.cf(v))), abs=1e-15)

    def test_large_coordinate_sign_flips(self):
        # a profile that is not even, so |f| differs between the sign patterns
        def f(pts):
            return np.cos(pts[..., 0] + 0.5) * np.cos(pts[..., 1] - 0.2) + 0j

        uneven = e1.Law(None, f, (2.0, 1.0), k=2)
        zero = e1.Law(None, lambda pts: np.zeros(np.shape(pts)[:-1], dtype=complex), (2.0, 1.0), k=2)
        xs = [np.array([-2.0, 2.0]), np.array([-3.0, 3.0])]
        mag = np.abs(f(em._grid_points(xs))).reshape(2, 2)  # |f| at (+-2, +-3)
        assert len(set(mag.ravel().tolist())) == 4
        norm = em._slab_grid(uneven, zero, xs, (0, 1), 1.0)
        assert np.array_equal(norm, np.full((2, 2), mag.max()))
        # one big C-axis: each point takes the max over the flips of x_0 alone
        norm = em._slab_grid(uneven, zero, xs, (0,), 1.0)
        assert np.array_equal(norm, np.maximum(mag, mag[::-1]))

    def test_slab_bound_dominates_sup(self):
        F, G = _k2_pair()
        rep = em.esseen_bound_slab(F, G, (8.0, 8.0))
        side = np.linspace(-3, 3, 13)
        sup = max(
            abs(F.cdf(np.array(t)) - G.cdf(np.array(t)))
            for t in itertools.product(side, side)
        )
        assert rep.total >= sup


class TestHarness:
    def test_rows_shrink_with_n(self):
        # the best partition bound at t = 0 over Omega = 2, 4, ..., 32 against
        # the sup of |F - G| on a 9 x 9 grid of [-3, 3]^2
        G = em.product_normal_target(2)
        side = np.linspace(-3, 3, 9)
        grid = np.array(list(itertools.product(side, side)))
        sups, bounds = [], []
        for n in (16, 64):
            F = em.product_law([e1.standardized_binomial(n)] * 2)
            sups.append(float(np.max(np.abs(F.cdf(grid) - G.cdf(grid)))))
            bounds.append(min(em.esseen_bound_k(F, G, (2.0**j,) * 2, (0.0, 0.0), panels=8, order=6).total
                              for j in range(1, 6)))
        assert sups[1] < sups[0]
        for sup, bound in zip(sups, bounds):
            assert bound >= sup


# ---------------------------------------------------------------------------
# input validation (explicit exceptions, so it survives python -O)


def _binomial_law(k, n=25):
    return em.product_law([e1.standardized_binomial(n)] * k)


class TestValidation:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: em.esseen_bound_k(_binomial_law(5), em.product_normal_target(5),
                                       (8.0,) * 5, (0.0,) * 5), "^k must"),
            (lambda: em.esseen_bound_k(*_k2_pair(), (8.0,) * 3, (0.0, 0.0)), "^omegas"),
            # a non-positive or NaN Omega made a negative or NaN "bound"
            (lambda: em.esseen_bound_k(*_k2_pair(), (-12.0, -12.0), (0.3, -0.4)), "^omegas"),
            (lambda: em.esseen_bound_truncated(*_k2_pair(), (12.0, math.nan), delta=8.0), "^omegas"),
            (lambda: em.esseen_bound_truncated(_binomial_law(5), em.product_normal_target(5),
                                               (8.0,) * 5, delta=8.0), "^k must"),
            (lambda: em.esseen_bound_truncated(*_k2_pair(), (8.0, 1.0), delta=8.0), "^omegas"),
            (lambda: em.esseen_bound_truncated(*_k2_pair(), (8.0,) * 3, delta=8.0), "^omegas"),
            (lambda: em.esseen_bound_truncated(*_k2_pair(), (8.0, 8.0), delta=1.0), "^delta"),
            (lambda: em.esseen_bound_truncated(*_k2_pair(), (8.0, 8.0), delta=2.0, mode="B",
                                               box_extent=-1.0), "^box_extent"),
            (lambda: em.esseen_bound_truncated(*_k2_pair(), (8.0, 8.0), delta=2.0, mode="B",
                                               box_extent=4.0), r"^delta must be 1 \+ box_extent"),
            (lambda: em.esseen_bound_truncated(*_k2_pair(), (8.0, 8.0), delta=4.0,
                                               box_extent=3.0), "^box_extent is read only in mode 'B'"),
            (lambda: em.esseen_bound_slab(_binomial_law(3), em.product_normal_target(3),
                                          (8.0,) * 3), "^k must"),
            (lambda: em.esseen_bound_slab(*_k2_pair(), (0.5, 8.0)), "^omegas"),
            (lambda: em.esseen_bound_slab(*_k2_pair(), (8.0,)), "^omegas"),
            # F and G must live in one dimension, and G needs density bounds
            (lambda: em.esseen_bound_k(_binomial_law(2), em.product_normal_target(1),
                                       (12.0, 12.0), (0.3, -0.4)), "^G"),
            (lambda: em.esseen_bound_k(_binomial_law(1), em.product_normal_target(2),
                                       (12.0,), (0.3,)), "^G"),
            (lambda: em.esseen_bound_truncated(_binomial_law(2), em.product_normal_target(1),
                                               (8.0, 8.0), delta=8.0), "^G"),
            (lambda: em.esseen_bound_truncated(_binomial_law(1), em.product_normal_target(2),
                                               (8.0,), delta=8.0), "^G"),
            (lambda: em.esseen_bound_slab(_binomial_law(2), em.product_normal_target(1),
                                          (8.0, 8.0)), "^G"),
            (lambda: em.esseen_bound_slab(_binomial_law(1), em.product_normal_target(2),
                                          (8.0,)), "^G"),
            (lambda: em.esseen_bound_k(_binomial_law(2), _binomial_law(2),
                                       (8.0, 8.0), (0.0, 0.0)), "^G"),
            (lambda: em.product_law([e1.normal_law(), em.product_normal_target(2)]),
             r"^components\[1\]"),
            (lambda: em.selberg_ring_expansion(1), "^k must"),
            (lambda: em.selberg_ring_expansion(7), "^k must"),
            (lambda: em.factorization_residual(abs, abs, 0, "mixed", (0.5, 0.5)), "^m must"),
            (lambda: em.factorization_residual(abs, abs, 3, "mixed", (0.5, 0.5)), "^m must"),
            (lambda: em.factorization_residual(abs, abs, 1, "mixed ", (0.5, 0.5)), "^which"),
        ],
    )
    def test_bad_parameter_named(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


# ---------------------------------------------------------------------------
# tensor-quadrature evaluation: distinct-node joint cf calls, separable grids,
# batched slab norms


def _shifted_gaussian(mu):
    """A law with a non-even cf, so that sign and scatter errors show."""
    def cf(t):
        t = np.asarray(t, dtype=float)
        return (np.cos(mu * t) + 1j * np.sin(mu * t)) * np.exp(-0.5 * t * t)

    return e1.Law(e1.normal_law(mu).cdf, cf, (2.0, 1.0 + mu * mu))


def _counting(comp, calls):
    def cf(t):
        calls.append(np.array(t))
        return comp.cf(t)

    return dataclasses.replace(comp, cf=cf)


class TestProductLawCf:
    def test_one_call_per_column(self):
        comps = [_shifted_gaussian(0.4), e1.standardized_binomial(25), _shifted_gaussian(-1.3)]
        calls = [[], [], []]
        F = em.product_law([_counting(c, log) for c, log in zip(comps, calls)])
        x, _ = em._axis_nodes(6.0, 3, 4)
        axis = np.concatenate([x, [0.0]])  # symmetric, with a zero
        pts = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")], axis=-1)
        pts = np.concatenate([pts, pts * [1.0, 0.0, -1.0]])  # plus a zero slice (B-set)
        vals = F.cf(pts)
        for j, log in enumerate(calls):
            assert len(log) == 1
            assert np.array_equal(log[0], pts[:, j])
        # each component's cf on the full column, multiplied in the same order
        expect = np.ones(pts.shape[0], dtype=complex)
        for j, c in enumerate(comps):
            expect *= c.cf(pts[:, j])
        assert np.array_equal(vals, expect)


def _no_joint_cf(law):
    """The law with a joint cf that fails the test when called: a bound must
    read the law's factors instead."""
    def cf(pts):
        raise AssertionError("joint cf called")

    return dataclasses.replace(law, cf=cf)


def _generic(law):
    """The same law without factors: the bounds then call its joint cf on grid points."""
    return dataclasses.replace(law, factors=())


def _separable_pair(k):
    F = em.product_law([_shifted_gaussian(0.4), e1.standardized_binomial(25), _shifted_gaussian(-1.3)][:k])
    G = em.product_law([e1.normal_law(0.0), e1.normal_law(0.3, 1.2), e1.normal_law(-0.2, 0.8)][:k])
    return F, G


def _transform_route_terms(F, G, omegas, t, panels, order, absolute=False):
    """The partition terms on the full grid of every partition: D_C (phi -
    psi) as the sum over operator_terms of c_t (phi - psi)(t o x), phi and
    psi evaluated on every transformed grid, the per-axis factors multiplied
    into the grid and its outer-product weights summed exactly (math.fsum):
    the route that the half-axis contractions replace.  With absolute, the
    sum is of the |c_t (phi - psi)(t o x)|, the scale of its rounding."""
    k = len(omegas)
    rules = [em._axis_nodes(om, panels, order) for om in omegas]

    def along(v, j):
        return np.reshape(v, (-1,) + (1,) * (k - 1 - j))

    terms = {}
    for B, C, D in em.partitions(k):
        axes = [em._ZERO_AXIS if j in B else rule for j, rule in enumerate(rules)]
        xs = [x for x, _ in axes]
        val = np.zeros([x.size for x in xs], dtype=float if absolute else complex)
        for tr, c in em.operator_terms([("D", j) for j in C], k).items():
            txs = [s * x for s, x in zip(tr, xs)]
            z = c * (em._cf_grid(F, txs) - em._cf_grid(G, txs))
            val += np.abs(z) if absolute else z
        val = np.abs(val)
        for j in C:
            val = val / along(np.abs(xs[j]), j)
        for j in D:
            val = val * along(1.0 / omegas[j] + np.abs(np.sin(t[j] * xs[j])) / np.abs(xs[j]), j)
        for j, (_, w) in enumerate(axes):
            val = val * along(w, j)
        terms[f"B={B} C={C} D={D}"] = math.fsum(val.ravel())
    return terms


class TestSeparableGrid:
    @pytest.mark.parametrize("k", [2, 3])
    def test_cf_grid_equals_joint_cf(self, k):
        F, _ = _separable_pair(k)
        x, _ = em._axis_nodes(6.0, 3, 4)
        xs = [x, -x[::2], np.zeros(1)][:k]  # signs flipped, and a one-node axis at 0
        grid = em._cf_grid(F, xs)
        assert grid.shape == tuple(a.size for a in xs)
        assert np.array_equal(grid.ravel(), F.cf(em._grid_points(xs)))
        assert np.array_equal(em._cf_grid(_generic(F), xs), grid)

    def test_one_factor_call_per_axis(self):
        calls = [[], [], []]
        F, G = _separable_pair(3)
        F = em.product_law([_counting(c, log) for c, log in zip(F.factors, calls)])
        em.esseen_bound_truncated(_no_joint_cf(F), _no_joint_cf(G), (9.0,) * 3, delta=4.0, panels=3, order=4)
        x, _ = em._axis_nodes(9.0, 3, 4)
        for log in calls:
            assert len(log) == 1 and np.array_equal(log[0], x)

    @pytest.mark.parametrize("k, slab", [(2, False), (3, False), (2, True)], ids=["2", "3", "slab"])
    def test_partition_bound_routes_identical(self, k, slab):
        F, G = _separable_pair(k)
        om, t = (11.0, 9.0, 10.0)[:k], (0.3, -0.7, 0.45)[:k]
        grid = dict(panels=4, order=5) if k == 2 else dict(panels=3, order=4)

        def bound(F, G):
            if slab:
                return em.esseen_bound_slab(F, G, om, tau=0.7, **grid)
            return em.esseen_bound_k(F, G, om, t, **grid)

        sep, gen = bound(F, G), bound(_generic(F), _generic(G))
        assert {key: v.hex() for key, v in sep.terms.items()} == {
            key: v.hex() for key, v in gen.terms.items()}
        assert sep.total.hex() == gen.total.hex()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("generic", [False, True])
    def test_partition_terms_match_transform_route(self, k, generic):
        # the half-axis contractions against D_C expanded through
        # operator_terms on the full grid, on laws with no even factor (so
        # that no term is 0 by symmetry).  The nested halvings associate the
        # 2^|C| values otherwise than the transform sum; each of the two sums
        # rounds by at most 2^|C| eps times the sum of the magnitudes, and
        # the bound doubles that once more for the weights: 2^(|C|+2) eps.
        # The contraction then sums nonnegative values one axis at a time,
        # n_j of them on axis j (1 on a B-axis, the positive half on a
        # C-axis, every node on a D-axis).  A sum of m nonnegative values in
        # any order lies within (m - 1) u of the exact sum, relative to it,
        # and each axis's product with its partial sums rounds once more, so
        # the contraction adds at most sum_j n_j u <= sum_j n_j eps; the
        # reference's math.fsum rounds once
        F = em.product_law([_shifted_gaussian(0.15 * (j + 1)) for j in range(k)])
        G = em.product_law([e1.normal_law(-0.2, 1.1), e1.normal_law(0.25, 0.9), e1.normal_law(0.1, 1.05)][:k])
        if generic:
            F, G = _generic(F), _generic(G)
        om, t = (11.0, 9.0, 10.0)[:k], (0.3, -0.7, 0.45)[:k]
        grid = dict(panels=4, order=5) if k <= 2 else dict(panels=3, order=4)
        rep = em.esseen_bound_k(F, G, om, t, **grid)
        ref = _transform_route_terms(F, G, om, t, **grid)
        scale = _transform_route_terms(F, G, om, t, **grid, absolute=True)
        size = em._axis_nodes(om[0], **grid)[0].size
        assert rep.terms.keys() == ref.keys()
        for (B, C, D), (name, value) in zip(em.partitions(k), ref.items()):
            summed = len(B) + len(C) * size // 2 + len(D) * size
            tol = (2 ** (len(C) + 2) + summed) * np.finfo(float).eps * scale[name]
            assert abs(rep.terms[name] - value) <= tol, name

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_factor_call_per_axis_and_grid(self, k):
        # phi is taken once on each of the 2^k grids that the B-sets fix
        calls = [[] for _ in range(k)]
        F, G = _separable_pair(k)
        F = em.product_law([_counting(c, log) for c, log in zip(F.factors, calls)])
        em.esseen_bound_k(_no_joint_cf(F), _no_joint_cf(G), (9.0,) * k, (0.3, -0.7, 0.45)[:k],
                          panels=3, order=4)
        assert [len(log) for log in calls] == [2**k] * k

    @pytest.mark.parametrize("panels, order", [(12, 8), (7, 5), (6, 4), (8, 6), (3, 4), (4, 5), (1, 1)])
    def test_axis_nodes_symmetric(self, panels, order):
        # the rolls rest on this: negating an axis rolls it by half its length
        for omega in (1.5, 9.0, 12.0):
            x, w = em._axis_nodes(omega, panels, order)
            assert (-x).tobytes() == np.roll(x, x.size // 2).tobytes()
            assert w.tobytes() == np.roll(w, w.size // 2).tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("triangle", [False, True])
    def test_truncated_integrals_routes_identical(self, k, triangle):
        F, G = _separable_pair(k)
        om = (11.0, 9.0, 10.0)[:k]
        grid = dict(panels=4, order=5) if k == 2 else dict(panels=3, order=4)
        for mode_kw in (dict(mode="A", delta=6.0), dict(mode="B", delta=4.0, box_extent=3.0)):
            kw = dict(use_triangle_replacement=triangle, **mode_kw, **grid)
            sep = em.esseen_bound_truncated(F, G, om, **kw)
            gen = em.esseen_bound_truncated(_generic(F), _generic(G), om, **kw)
            assert sep.terms["truncated_integral"].hex() == gen.terms["truncated_integral"].hex()
            assert sep.total.hex() == gen.total.hex()


def _pointwise_slab_norm(f, C, v, tau, grid, safety=1.5):
    """Per-point double-bar slab norm as first written: a loop over candidate
    points on the (2 grid + 1)-point grid."""
    v = np.asarray(v, dtype=float)
    if not C:
        return float(abs(np.asarray(f(v[None, :]))[0]))
    Cb = [j for j in C if abs(v[j]) >= tau]
    Cs = [j for j in C if abs(v[j]) < tau]
    npts = 2 * grid + 1
    cand = []
    for signs in itertools.product((1.0, -1.0), repeat=len(Cb)):
        base = v.copy()
        for s, j in zip(signs, Cb):
            base[j] = s * v[j]
        if not Cs:
            cand.append(base)
            continue
        ranges = [np.linspace(-tau * (1 - 1e-9), tau * (1 - 1e-9), npts) for j in Cs]
        for combo in itertools.product(*ranges):
            p = base.copy()
            for x, j in zip(combo, Cs):
                p[j] = x
            cand.append(p)
    pts = np.asarray(cand)
    if not Cs:
        return float(np.max(np.abs(np.asarray(f(pts)))))
    h = 1e-4
    best = 0.0
    for j in Cs:
        up, dn = pts.copy(), pts.copy()
        up[:, j] += h
        dn[:, j] -= h
        best = max(best, float(np.max(np.abs(f(up) - f(dn)) / (2 * h))))
    return safety * best


def _batched_slab_norm(f, C, V, tau, grid, safety=1.5):
    """The double-bar slab norm at every row of the (N, k) array V: the rows
    grouped by which coordinates of C are small (|v_j| < tau), and each
    group's candidates, as `_pointwise_slab_norm` builds them, taken in one
    f call per central difference."""
    C = list(C)
    if not C:
        z = np.asarray(f(V))
        return np.hypot(z.real, z.imag)  # rounds as abs() of one complex value does
    k = V.shape[1]
    slab = np.linspace(-tau * (1 - 1e-9), tau * (1 - 1e-9), 2 * grid + 1)
    out = np.empty(V.shape[0])
    for pattern in itertools.product((False, True), repeat=len(C)):
        rows = np.flatnonzero(np.all((np.abs(V[:, C]) < tau) == pattern, axis=1))
        if not rows.size:
            continue
        Cb = [j for j, s in zip(C, pattern) if not s]
        Cs = [j for j, s in zip(C, pattern) if s]
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(Cb)))).reshape(2 ** len(Cb), len(Cb))
        cand = np.repeat(V[rows, None, :], len(signs), axis=1)  # (rows, flips, k)
        cand[:, :, Cb] = signs * V[rows, None][:, :, Cb]
        if not Cs:
            out[rows] = np.max(np.abs(np.asarray(f(cand.reshape(-1, k)))).reshape(rows.size, -1), axis=1)
            continue
        small = np.array(list(itertools.product(slab, repeat=len(Cs))))  # (grid points, |Cs|)
        pts = np.repeat(cand[:, :, None, :], len(small), axis=2)  # (rows, flips, grid points, k)
        pts[..., Cs] = small
        pts = pts.reshape(-1, k)
        h, best = 1e-4, np.zeros(rows.size)
        for j in Cs:
            up, dn = pts.copy(), pts.copy()
            up[:, j] += h
            dn[:, j] -= h
            d = np.abs(np.asarray(f(up)) - np.asarray(f(dn))) / (2 * h)
            best = np.maximum(best, d.reshape(rows.size, -1).max(axis=1))
        out[rows] = safety * best
    return out


class TestBatchedSlabNorm:
    @pytest.mark.parametrize("tau", [pytest.param(tau, id=f"double_bar-{tau}") for tau in (0.7, 1.0)])
    def test_batched_equals_pointwise(self, tau):
        F = em.product_law([_shifted_gaussian(0.4), e1.standardized_binomial(25)])
        G = em.product_normal_target(2)

        def f(pts):
            return F.cf(pts) - G.cf(pts)

        rng = np.random.default_rng(11)
        edge = [tau * (1 - 1e-12), tau, tau * (1 + 1e-12), 0.3, 2.0]
        edge = edge + [-e for e in edge]  # either side of |v_j| = tau
        V = np.concatenate([rng.uniform(-3.0, 3.0, (24, 2)),
                            np.array(list(itertools.product(edge, edge)))])
        for C in ((), (0,), (1,), (0, 1)):
            batched = _batched_slab_norm(f, C, V, tau, grid=3)
            pointwise = [_pointwise_slab_norm(f, C, v, tau, grid=3) for v in V]
            assert np.array_equal(batched, pointwise)


def _slab_pairs():
    F, G = _separable_pair(2)
    comp = e1.standardized_binomial(100)
    return {
        "product": (em.product_law([comp] * 2), em.product_normal_target(2)),
        "generic": (_generic(F), _generic(G)),
    }


class TestSlabGrid:
    """The bound's tensor-grid slab norms against the per-row `_batched_slab_norm`."""

    @staticmethod
    def _per_row(F, G, xs, C, tau):
        def f(pts):
            return np.ravel(F.cf(pts) - G.cf(pts))

        return _batched_slab_norm(f, C, em._grid_points(xs), tau, grid=5)

    @pytest.mark.parametrize("pair", ["product", "generic"])
    @pytest.mark.parametrize("tau", [1.0, 0.7])
    @pytest.mark.parametrize("omega", [9.0, 12.0, 15.0])
    def test_equals_per_row_on_every_partition(self, pair, tau, omega):
        F, G = _slab_pairs()[pair]
        rule = em._axis_nodes(omega, 6, 4)  # the bound's default grid
        for B, C, D in em.partitions(2):
            xs = [em._ZERO_AXIS[0] if j in B else rule[0] for j in range(2)]
            grid = em._slab_grid(F, G, xs, C, tau)
            assert grid.shape == tuple(x.size for x in xs)
            assert np.array_equal(grid.ravel(), self._per_row(F, G, xs, C, tau))

    @pytest.mark.parametrize("tau", [1.0, 0.7])
    def test_hand_made_axes(self, tau):
        # symmetric axes [-y, y], as the bound's are, with y unsorted
        F, G = _slab_pairs()["generic"]
        y = np.array([tau * (1 - 1e-12), tau, tau * (1 + 1e-12), 0.0, 0.3, 2.0])
        axis = np.concatenate([-y, y])
        big = np.array([-2.5, 1.5, -3.0, 2.5, -1.5, 3.0])  # no small node: that pattern's sub-grid is empty
        for xs in ([axis, axis], [axis, big], [big, axis[::-1]], [np.zeros(1), axis]):
            for C in ((), (0,), (1,), (0, 1)):
                grid = em._slab_grid(F, G, xs, C, tau)
                assert np.array_equal(grid.ravel(), self._per_row(F, G, xs, C, tau))

    def test_law_on_R(self):
        F, G = e1.standardized_binomial(30), e1.normal_law()
        y = np.array([2.0, 1.0, 0.5, 0.0, 0.4, 3.0])
        axis = np.concatenate([-y, y])
        for C in ((), (0,)):
            grid = em._slab_grid(F, G, [axis], C, 1.0)
            assert np.array_equal(grid, self._per_row(F, G, [axis], C, 1.0))

    def test_cf_points_per_bound(self):
        # phi - psi once on each grid that a B-set fixes, which the patterns
        # with no small axis index, and once per shifted slab grid, the sign
        # flips taken by rolls; each through the factors, one cf call per
        # axis and none of the joint cf: 788 factor-cf points in 40 calls
        # per law at panels 6, order 4
        def laws(factors):
            calls = [[] for _ in factors]
            return _no_joint_cf(em.product_law([_counting(c, log) for c, log in zip(factors, calls)])), calls

        (F, f_calls), (G, g_calls) = laws([e1.standardized_binomial(100)] * 2), laws([e1.normal_law()] * 2)
        em.esseen_bound_slab(F, G, (12.0, 12.0))
        for calls in (f_calls, g_calls):
            assert sum(len(log) for log in calls) == 40
            assert sum(t.size for log in calls for t in log) == 788


class TestPinnedTotals:
    # totals recorded from the per-point implementation (a scalar cf call
    # per grid point, one slab norm per quadrature point); the separable
    # grid and batched paths must reproduce them
    @pytest.mark.parametrize(
        "name, expect",
        [
            ("k2_partition", 0.21612302871514547),
            ("k2_truncated_A", 0.5638529342153961),
            ("k2_truncated_B", 1.405362697808188),
            ("k2_slab", 0.389623907528592),
            ("k3_partition", 0.3409382589984436),
            ("k3_truncated_A", 4.396230957798474),
        ],
    )
    def test_total(self, name, expect):
        comp = e1.standardized_binomial(100)
        F2, G2 = em.product_law([comp] * 2), em.product_normal_target(2)
        F3, G3 = em.product_law([comp] * 3), em.product_normal_target(3)
        om2, om3 = (12.0,) * 2, (12.0,) * 3
        bounds = {
            "k2_partition": lambda: em.esseen_bound_k(F2, G2, om2, (0.3, -0.2), panels=8, order=6),
            "k2_truncated_A": lambda: em.esseen_bound_truncated(
                F2, G2, om2, delta=8.0, mode="A", panels=8, order=6),
            "k2_truncated_B": lambda: em.esseen_bound_truncated(
                F2, G2, om2, delta=5.0, mode="B", box_extent=4.0, panels=8, order=6),
            "k2_slab": lambda: em.esseen_bound_slab(F2, G2, om2),
            "k3_partition": lambda: em.esseen_bound_k(
                F3, G3, om3, (0.3, -0.2, 0.5), panels=3, order=4),
            "k3_truncated_A": lambda: em.esseen_bound_truncated(
                F3, G3, om3, delta=8.0, mode="A", panels=3, order=4),
        }
        assert bounds[name]().total == pytest.approx(expect, rel=1e-12)


def _report_routes(seed):
    """(name, report, the omegas passed in) for every bound route, on laws
    drawn from the seed."""
    rng = np.random.default_rng(seed)
    n1, n2, n3 = (int(n) for n in rng.integers(16, 200, 3))
    mu = float(rng.uniform(-1.0, 1.0))
    om1 = float(rng.uniform(6.0, 40.0))
    om2 = tuple(float(om) for om in rng.uniform(6.0, 15.0, 2))
    om3 = tuple(float(om) for om in rng.uniform(6.0, 15.0, 3))
    delta = float(rng.uniform(2.0, 9.0))
    F1 = e1.standardized_binomial(n1) if seed % 2 else e1.irwin_hall_standardized(n1 % 7 + 2)
    G1 = e1.normal_law()
    F2 = em.product_law([e1.standardized_binomial(n2), _shifted_gaussian(mu)])
    G2 = em.product_law([e1.normal_law(), e1.normal_law(0.1, 1.1)])
    F3 = em.product_law([e1.standardized_binomial(n) for n in (n1, n2, n3)])
    G3 = em.product_normal_target(3)
    t2, t3 = tuple(rng.uniform(-2.0, 2.0, 2)), tuple(rng.uniform(-2.0, 2.0, 3))
    best = e1.best_esseen_bound(F1, G1)
    small = dict(panels=3, order=4)
    routes = [
        ("1d_single", e1.esseen_bound_1d(F1, G1, om1), (om1,)),
        ("1d_best", best, (min(e1.OMEGA_GRID, key=lambda om: e1.esseen_bound_1d(F1, G1, om).total),)),
        ("partition_k2", em.esseen_bound_k(F2, G2, om2, t2, **small), om2),
        ("partition_k3", em.esseen_bound_k(F3, G3, om3, t3, **small), om3),
        ("slab_k2", em.esseen_bound_slab(F2, G2, om2, **small), om2),
    ]
    for tri in (False, True):
        kw = dict(use_triangle_replacement=tri, **small)
        routes.append((f"truncated_A_{tri}", em.esseen_bound_truncated(F2, G2, om2, delta=delta, **kw), om2))
        routes.append((f"truncated_B_{tri}", em.esseen_bound_truncated(
            F2, G2, om2, delta=delta, mode="B", box_extent=delta - 1.0, **kw), om2))
    return routes


class TestBoundReport:
    @pytest.mark.parametrize("seed", [3, 22])
    def test_parts_add_up_to_total(self, seed):
        for name, rep, omegas in _report_routes(seed):
            parts = math.fsum([*rep.terms.values(), rep.tail, *rep.slack.values()])
            assert abs(parts - rep.total) <= 4 * math.ulp(rep.total), name
            assert rep.omegas == omegas, name
            assert isinstance(rep.omegas, tuple) and isinstance(rep.constants, dict), name
            assert all(v >= 0.0 for v in (*rep.terms.values(), rep.tail, *rep.slack.values())), name

    def test_route_parts(self):
        routes = {name: rep for name, rep, _ in _report_routes(22)}
        assert set(routes["1d_single"].terms) == {"integral"}
        assert set(routes["1d_single"].slack) == {"exclusion", "quadrature"}
        assert set(routes["1d_best"].constants) == {"c1", "c2"}
        assert len(routes["partition_k2"].terms) == 9 and len(routes["partition_k3"].terms) == 27
        assert len(routes["slab_k2"].terms) == 9
        for tri in (False, True):
            assert set(routes[f"truncated_A_{tri}"].slack) == {"moment"}
            assert routes[f"truncated_B_{tri}"].slack == {}
        assert routes["partition_k2"].slack == routes["slab_k2"].slack == {}
        assert set(routes["truncated_A_False"].detail) == {"mode", "delta", "alpha"}
        assert set(routes["partition_k3"].detail) == {"t"}
        assert set(routes["slab_k2"].detail) == {"tau"}
        assert routes["1d_single"].detail == {}

    def test_frozen(self):
        rep = e1.esseen_bound_1d(e1.standardized_binomial(25), e1.normal_law(), 8.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.total = 0.0
