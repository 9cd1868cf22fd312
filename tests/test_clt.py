"""Quantitative CLT machinery: toolbox, gap bounds, Monte Carlo engine."""

import cmath
import hashlib
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from bslib import clt
from bslib.esseen1d import normal_law
from bslib.quadrature import leggauss


class TestBesselJ0:
    def test_against_scipy(self):
        for r in np.concatenate([np.linspace(0, 5, 41), np.linspace(5, 60, 30)]):
            assert clt.bessel_j0(float(r)) == pytest.approx(float(special.j0(r)), abs=1e-12)

    def test_evenness_and_anchor(self):
        assert clt.bessel_j0(0.0) == pytest.approx(1.0, abs=1e-15)
        assert clt.bessel_j0(-2.3) == clt.bessel_j0(2.3)


class TestToolbox:
    @pytest.mark.parametrize("t", [0.1, 1.0, 3.7, -2.2])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_taylor_remainders(self, t, n):
        assert clt.inequality_toolbox("5.1", t=t, n=n).holds
        assert clt.inequality_toolbox("5.1bis", t=t, n=n).holds

    def test_min_form_tighter_for_large_t(self):
        a = clt.inequality_toolbox("5.1", t=10.0, n=2)
        b = clt.inequality_toolbox("5.1bis", t=10.0, n=2)
        assert b.rhs < a.rhs

    def test_principal_log(self):
        for z in (0.3, -0.25 + 0.3j, 0.5j, -0.4):
            assert clt.inequality_toolbox("5.2", z=z).holds
        with pytest.raises(ValueError):
            clt.inequality_toolbox("5.2", z=0.9)

    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=8),
        st.floats(min_value=1.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_mean_chain(self, x, lam):
        assert clt.inequality_toolbox("5.3", x=x, lam=lam).holds

    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_third_moment_ratio_chain(self, x):
        if not any(v > 0 for v in x):
            with pytest.raises(ValueError):
                clt.inequality_toolbox("5.4", x=x)
        else:
            assert clt.inequality_toolbox("5.4", x=x).holds

    @pytest.mark.parametrize("omega", [0.0, 0.3, 0.99])
    def test_fractional_remainder(self, omega):
        for t in (0.2, 1.5, 4.0):
            for n in (1, 2):
                assert clt.inequality_toolbox("5.5", t=t, n=n, omega=omega).holds

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_ratios(self, w, lam):
        assert clt.inequality_toolbox("5.15", w=w, lam=lam).holds

    @pytest.mark.parametrize("n,beta,q", [(1, 1.0, 2.0), (3, 0.5, 3.0), (0, 2.0, 1.5)])
    def test_stretched_exponential_max(self, n, beta, q):
        res = clt.inequality_toolbox("5.19", n=n, beta=beta, q=q)
        assert res.holds
        # the grid sup should nearly attain the closed-form maximum
        assert res.lhs == pytest.approx(res.rhs, rel=1e-3)

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-3),
            min_size=1,
            max_size=5,
        ),
        st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_sum_pinch(self, t, psi):
        assert clt.inequality_toolbox("5.20", t=t, n=2, psi=psi).holds

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            clt.inequality_toolbox("9.9")


class TestLawMoments:
    @pytest.mark.parametrize(
        "law", [clt.haar_circle_law(), clt.rademacher_product_law(0.7)], ids=lambda l: l.name
    )
    def test_moment_contract_monte_carlo(self, law):
        rng = np.random.default_rng(1234)
        z = law.sampler(rng, 10**6)
        n = z.size
        # E z = 0, E z^2 = 0, E |z|^2 = 2 beta^2, E |z|^3 = rho3; 4-sigma gates
        mean = np.mean(z)
        se1 = np.std(np.abs(z)) / math.sqrt(n) + np.max(np.abs(z)) * 1e-6
        assert abs(mean) <= 4 * max(se1, np.std(z.real) / math.sqrt(n) * 2)
        sq = np.mean(z**2)
        se_sq = max(np.std((z**2).real), np.std((z**2).imag)) / math.sqrt(n)
        assert abs(sq) <= 4 * 2 * max(se_sq, 1e-12)
        a2 = np.abs(z) ** 2
        assert abs(np.mean(a2) - 2 * law.beta2) <= 4 * max(np.std(a2) / math.sqrt(n), 1e-9)
        a3 = np.abs(z) ** 3
        assert abs(np.mean(a3) - law.rho3) <= 4 * max(np.std(a3) / math.sqrt(n), 1e-9)
        assert law.beta <= law.rho + 1e-12

    def test_haar_cf_is_radial_bessel(self):
        law = clt.haar_circle_law()
        for xi in (0.5, 0.5j, 0.3 - 0.4j, cmath.exp(1.2j)):
            assert law.cf(complex(xi)) == pytest.approx(
                clt.bessel_j0(abs(xi)), abs=1e-12
            )

    def test_rademacher_cf_closed_form(self):
        law = clt.rademacher_product_law(0.7)
        for xi in (0.5 + 0.2j, 1.0, 2.0j):
            expect = math.cos(0.7 * xi.real) * math.cos(0.7 * xi.imag)
            assert law.cf(complex(xi)) == pytest.approx(expect, abs=1e-15)


class TestNormalizers:
    def test_constant_scheme_closed_forms(self):
        st_ = clt.lyapunov_normalizer(clt.constant_scheme(), 100)
        assert st_.scale == pytest.approx(10.0, abs=1e-12)
        assert st_.lyapunov_sum == pytest.approx(0.1, abs=1e-12)
        assert st_.max_ratio == pytest.approx(0.1, abs=1e-12)

    def test_index_scheme_closed_forms(self):
        N = 50
        st_ = clt.lyapunov_normalizer(clt.index_scheme(), N)
        s2 = N * (N + 1) * (2 * N + 1) / 6.0
        assert st_.scale == pytest.approx(math.sqrt(s2), rel=1e-12)
        assert st_.max_ratio == pytest.approx(N / math.sqrt(s2), rel=1e-12)

    def test_geometric_ratio_limit(self):
        # B_N / s_N -> sqrt(1 - 1/r^2) = sqrt(3)/2 for ratio 2
        st_ = clt.lyapunov_normalizer(clt.geometric_scheme(2.0), 40)
        assert st_.max_ratio == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-9)

    def test_geometric_ratio_two_without_overflow(self):
        # |b_n| = 2^n: squares and cubes overflow from N = 342 unless scaled
        st_ = clt.lyapunov_normalizer(clt.geometric_scheme(2.0), 400)
        assert st_.max_ratio == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        assert st_.lyapunov_sum == pytest.approx((8.0 / 7.0) * 0.75**1.5, abs=1e-12)
        st_ = clt.lyapunov_normalizer(clt.geometric_scheme(2.0), 1000)
        assert st_.scale == pytest.approx(2.0**1000 * math.sqrt(4.0 / 3.0), rel=1e-12)
        rep = clt.gaussian_limit_gap(clt.haar_circle_law(), clt.geometric_scheme(2.0), 1000, 1.0)
        assert not rep.admissible and rep.holds and rep.branch_ok
        # 2^1024 is not a float: the ValueError is the only signal, no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^scheme "):
                clt.lyapunov_normalizer(clt.geometric_scheme(2.0), 1100)

    @pytest.mark.parametrize("scheme, N", [(clt.constant_scheme(), 100), (clt.constant_scheme(), 1001),
                                           (clt.index_scheme(), 50), (clt.index_scheme(), 1600)])
    def test_one_column_residual(self, scheme, N):
        assert clt.lyapunov_normalizer(scheme, N).matrix_residual <= 1e-15

    def test_alternating_vector_residual(self):
        scheme = clt.alternating_vector_scheme(2)
        # exact diagonalization when J divides N
        assert clt.lyapunov_normalizer(scheme, 100).matrix_residual == pytest.approx(
            0.0, abs=1e-15
        )
        # otherwise the residual decays like 1/N
        resid = [clt.lyapunov_normalizer(scheme, N).matrix_residual for N in (3, 11, 101, 1001)]
        assert all(a > b for a, b in zip(resid, resid[1:]))
        assert resid[-1] < 1e-3

    def test_degenerate_rejected(self):
        zero = clt.CoefficientScheme(lambda N: np.zeros((N, 1), dtype=complex))
        with pytest.raises(ValueError):
            clt.lyapunov_normalizer(zero, 5)


class TestGapBound:
    def test_haar_gap_holds_and_scales(self):
        law = clt.haar_circle_law()
        scheme = clt.constant_scheme()
        gaps, bounds = [], []
        for N in (100, 400, 1600):
            worst_gap = 0.0
            for xi in np.exp(1j * np.linspace(0, 2 * math.pi, 8, endpoint=False)):
                rep = clt.gaussian_limit_gap(law, scheme, N, xi)
                assert rep.admissible
                assert rep.branch_ok
                assert rep.holds
                worst_gap = max(worst_gap, rep.gap)
            rep = clt.gaussian_limit_gap(law, scheme, N, 1.0)
            gaps.append(worst_gap)
            bounds.append(rep.proof_bound)
        # the proof bound is exactly (2/3) N^{-1/2} here
        for N, b in zip((100, 400, 1600), bounds):
            assert b == pytest.approx((2.0 / 3.0) / math.sqrt(N), rel=1e-12)
        # quadrupling N halves the bound and (roughly) quarters the gap
        assert bounds[1] == pytest.approx(bounds[0] / 2.0, rel=1e-12)
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_phase_invariance(self):
        law = clt.haar_circle_law()
        scheme = clt.constant_scheme()
        base = clt.gaussian_limit_gap(law, scheme, 400, 0.8).gap
        for theta in (0.7, 2.1, -1.3):
            rot = clt.gaussian_limit_gap(law, scheme, 400, 0.8 * cmath.exp(1j * theta)).gap
            assert rot == pytest.approx(base, abs=1e-12)

    def test_admissibility_monotone_in_N(self):
        law = clt.haar_circle_law()
        scheme = clt.constant_scheme()
        vals = [
            clt.gaussian_limit_gap(law, scheme, N, 0.5).admissibility_value
            for N in (10, 100, 1000, 10000)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_geometric_scheme_inadmissible(self):
        law = clt.haar_circle_law()
        rep = clt.gaussian_limit_gap(law, clt.geometric_scheme(2.0), 40, 1.0)
        assert not rep.admissible
        assert rep.holds  # vacuous by convention

    @pytest.mark.parametrize("N", [400, 1600])
    @pytest.mark.parametrize("scheme", [clt.constant_scheme(), clt.index_scheme()], ids=["constant", "index"])
    @pytest.mark.parametrize("law", [clt.haar_circle_law(), clt.rademacher_product_law(1.0)],
                             ids=lambda l: l.name)
    def test_one_column_gap_against_direct_sum(self, law, scheme, N):
        xi = 0.6 - 0.3j
        b = scheme.coeffs(N)[:, 0]
        U = np.conj(b) * xi / math.sqrt(float(np.sum(np.abs(b) ** 2)))
        if law.name == "haar_circle":
            factors = special.j0(np.abs(U))
        else:
            factors = np.cos(U.real) * np.cos(U.imag)
        logs = [cmath.log(complex(z)) for z in factors]
        log_phi = complex(math.fsum(z.real for z in logs), math.fsum(z.imag for z in logs))
        expect = abs(log_phi + 0.5 * law.beta2 * abs(xi) ** 2)
        assert abs(clt.gaussian_limit_gap(law, scheme, N, xi).gap - expect) <= 1e-13 * N

    def test_vector_gap_holds(self):
        law = clt.haar_circle_law()
        scheme = clt.alternating_vector_scheme(2)
        for N in (100, 400):
            for xi in ([0.5, 0.5], [1.0, 0.0], [0.3, -0.9]):
                rep = clt.gaussian_limit_gap(law, scheme, N, np.asarray(xi, dtype=complex))
                assert rep.admissible and rep.holds

    @pytest.mark.parametrize("xi", [math.nan, complex(1.0, math.inf), [0.5, math.nan]])
    def test_non_finite_xi_rejected(self, xi):
        with pytest.raises(ValueError, match="^xi "):
            clt.gaussian_limit_gap(clt.haar_circle_law(), clt.constant_scheme(), 50, xi)

    def test_product_law_gap_holds(self):
        law = clt.rademacher_product_law(1.0)
        scheme = clt.constant_scheme()
        rep = clt.gaussian_limit_gap(law, scheme, 400, 0.7 + 0.2j)
        assert rep.admissible and rep.holds


class TestMonteCarlo:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="^samples"):
            clt.MonteCarloConfig(seed=1, samples=10, N=5)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 2**128), ("seed", 1.5), ("seed", None), ("seed", True),
        ("samples", 1000.0), ("samples", "2000"), ("N", 5.0), ("N", False),
    ])
    def test_config_names_the_field(self, field, value):
        kw = {"seed": 1, "samples": 1000, "N": 5, field: value}
        with pytest.raises(ValueError, match=f"^{field} "):
            clt.MonteCarloConfig(**kw)

    def test_config_seed_range_ends(self):
        clt.MonteCarloConfig(seed=0, samples=1000, N=1)
        clt.MonteCarloConfig(seed=2**128 - 1, samples=1000, N=1)

    def test_N_must_match_config(self):
        mc = clt.MonteCarloConfig(seed=1, samples=1000, N=400)
        with pytest.raises(ValueError, match="^N "):
            clt.vector_statistic(clt.haar_circle_law(), clt.constant_scheme(), 50, mc)

    def test_ks_distance_spot_checks(self):
        # a single sample at the median of the limit law scores exactly 1/2
        assert clt.ks_distance(np.array([0.0]), normal_law().cdf) == pytest.approx(0.5)
        u = np.sort(np.linspace(0.005, 0.995, 100))
        assert clt.ks_distance(u, lambda x: np.clip(x, 0.0, 1.0)) <= 0.01
        with pytest.raises(ValueError):
            clt.ks_distance(np.array([]), normal_law().cdf)

    def test_marginals_and_covariance(self):
        law = clt.haar_circle_law()
        mc = clt.MonteCarloConfig(seed=7, samples=20000, N=100)
        rep = clt.vector_statistic(law, clt.constant_scheme(), 100, mc)
        assert max(rep.ks_real + rep.ks_imag) <= 0.02
        diag = np.real(np.diag(rep.covariance))
        target = np.real(np.diag(rep.covariance_target))
        assert np.all(np.abs(diag - target) <= 4.0 * rep.covariance_stderr)
        assert rep.rectangle_max_gap <= 0.02
        # E(T^2) -> 0 for the rotation-invariant law
        assert abs(rep.analytic_second_moment) <= 4.0 * rep.covariance_stderr

    def test_determinism(self):
        law = clt.haar_circle_law()
        mc = clt.MonteCarloConfig(seed=11, samples=5000, N=50)
        a = clt.vector_statistic(law, clt.constant_scheme(), 50, mc)
        b = clt.vector_statistic(law, clt.constant_scheme(), 50, mc)
        assert a.ks_real == b.ks_real
        assert np.array_equal(a.covariance, b.covariance)

    def test_seed_sensitivity(self):
        law = clt.haar_circle_law()
        a = clt.vector_statistic(
            law, clt.constant_scheme(), 50, clt.MonteCarloConfig(seed=11, samples=5000, N=50)
        )
        c = clt.vector_statistic(
            law, clt.constant_scheme(), 50, clt.MonteCarloConfig(seed=12, samples=5000, N=50)
        )
        assert not np.array_equal(a.covariance, c.covariance)

    def test_vector_mode_components(self):
        law = clt.haar_circle_law()
        scheme = clt.alternating_vector_scheme(2)
        mc = clt.MonteCarloConfig(seed=3, samples=20000, N=200)
        rep = clt.vector_statistic(law, scheme, 200, mc)
        assert len(rep.ks_real) == 2
        assert max(rep.ks_real + rep.ks_imag) <= 0.03
        # off-diagonal covariance stays at noise level
        assert abs(rep.covariance[0, 1]) <= 4.0 * rep.covariance_stderr


def _j0_one_point(r):
    """The single-point J0 quadrature as first written: 64 Gauss nodes,
    doubled until two levels agree to 1e-12."""
    prev, n = None, 64
    while True:
        x, w = leggauss(n)
        val = float(np.sum(w * np.cos(abs(r) * np.cos(0.5 * math.pi * (x + 1.0))))) * 0.5
        if prev is not None and abs(val - prev) < 1e-12:
            return val
        prev, n = val, 2 * n


def _stat_key(r):
    return [r.covariance.tobytes().hex(), r.covariance_target.tobytes().hex(),
            *map(float.hex, r.ks_real), *map(float.hex, r.ks_imag), float.hex(r.covariance_stderr),
            float.hex(r.rectangle_max_gap), float.hex(r.analytic_second_moment.real),
            float.hex(r.analytic_second_moment.imag), str(r.samples)]


def _gap_key(g):
    return [float.hex(g.gap), float.hex(g.proof_bound), float.hex(g.admissibility_value),
            str(g.admissible), str(g.holds), str(g.branch_ok)]


def _digest(key):
    return hashlib.sha256("|".join(key).encode()).hexdigest()[:16]


_LAWS = {"haar_circle": clt.haar_circle_law(), "rademacher_product": clt.rademacher_product_law(0.7)}
_SCHEMES = {"constant": clt.constant_scheme(), "index": clt.index_scheme(),
            "geometric": clt.geometric_scheme(1.5), "alternating": clt.alternating_vector_scheme(2)}

# sha256 prefixes of every report field (covariance bytes, float.hex of
# the rest) as the serial implementation with np.exp draws, np.outer
# sums and one scalar cf call per factor computed them: seed 5, 2000
# samples; gaps at N = 50
_PINNED = {
    "stat haar_circle constant 1": "c34fc3413898ffb6",
    "stat haar_circle constant 7": "c027e72a7c5e44cf",
    "stat haar_circle constant 50": "be1e99e4a9fa9d77",
    "gap haar_circle constant 50": "e9a0124f89c5bd23",
    "stat haar_circle index 1": "c34fc3413898ffb6",
    "stat haar_circle index 7": "8d510eb4b035ad7e",
    "stat haar_circle index 50": "4bec42a5c8f95265",
    "gap haar_circle index 50": "52e7a328fd2bf747",
    "stat haar_circle geometric 1": "ec111f5ff1e72625",
    "stat haar_circle geometric 7": "50639c7558fd870d",
    "stat haar_circle geometric 50": "f97b6da4a2a83406",
    "gap haar_circle geometric 50": "85c6626f5ad30df9",
    "stat haar_circle alternating 1": "8b0ac3d8e81ce21f",
    "stat haar_circle alternating 7": "1bcff52fd1c2c36c",
    "stat haar_circle alternating 50": "31d9559a13d26688",
    "gap haar_circle alternating 50": "a2b8a31b813c179b",
    "stat rademacher_product constant 1": "bbe9442c09878102",
    "stat rademacher_product constant 7": "96f9d7c15fa346a3",
    "stat rademacher_product constant 50": "4a1d0aac2f62dbde",
    "gap rademacher_product constant 50": "c08bb8f7987c1d15",
    "stat rademacher_product index 1": "bbe9442c09878102",
    "stat rademacher_product index 7": "4eb3bfc7f6296708",
    "stat rademacher_product index 50": "06ae10bf72821704",
    "gap rademacher_product index 50": "c124c4f2996d089a",
    "stat rademacher_product geometric 1": "3abc5ea844c27565",
    "stat rademacher_product geometric 7": "bd4587043eab60b4",
    "stat rademacher_product geometric 50": "4cbc3b2fd5ec7552",
    "gap rademacher_product geometric 50": "a6ca380e1bb563bf",
    "stat rademacher_product alternating 1": "4536b425f49cd48a",
    "stat rademacher_product alternating 7": "0dc9a43d364ef754",
    "stat rademacher_product alternating 50": "369e3b4792154735",
    "gap rademacher_product alternating 50": "387bb0edba629eea",
}


class TestArrayPath:
    @pytest.mark.parametrize("hi", [0.1, 3.0, 30.0])
    def test_array_j0_matches_one_point_route(self, hi):
        r = np.random.default_rng(17).uniform(0.0, hi, 1500)
        r[0] = 0.0
        got = clt._j0(r)
        want = np.array([_j0_one_point(x) for x in r])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert clt.bessel_j0(0.0) == _j0_one_point(0.0) == got[0]

    def test_array_j0_keeps_shape_and_rejects_non_finite(self):
        r = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        assert np.array_equal(clt._j0(r), np.vectorize(_j0_one_point)(r))
        with pytest.raises(ArithmeticError), np.errstate(invalid="ignore"):
            clt._j0(np.array([1.0, math.inf]))

    def test_haar_sampler_bits_match_exp(self):
        u = np.random.default_rng(9).random(10**6)
        z = clt.haar_circle_law().sampler(np.random.default_rng(9), 10**6)
        assert np.array_equal(z.view(np.uint64), np.exp(2j * math.pi * u).view(np.uint64))

    def test_cf_array_contract(self):
        xi = (np.random.default_rng(4).normal(size=(3, 5)) * 2.0).astype(complex)
        xi.imag = np.random.default_rng(5).normal(size=(3, 5))
        haar, rad = clt.haar_circle_law(), clt.rademacher_product_law(0.7)
        for law, one in ((haar, lambda z: complex(_j0_one_point(abs(z)))),
                         (rad, lambda z: complex(math.cos(0.7 * z.real) * math.cos(0.7 * z.imag)))):
            got = law.cf(xi)
            assert got.shape == xi.shape and got.dtype == complex
            want = np.array([[one(complex(z)) for z in row] for row in xi])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_reports_pinned(self):
        got = {}
        for lname, law in _LAWS.items():
            for sname, scheme in _SCHEMES.items():
                for N in (1, 7, 50):
                    mc = clt.MonteCarloConfig(seed=5, samples=2000, N=N)
                    got[f"stat {lname} {sname} {N}"] = _digest(
                        _stat_key(clt.vector_statistic(law, scheme, N, mc)))
                xi = np.array([0.6 - 0.3j, 0.2 + 0.1j]) if sname == "alternating" else 0.6 - 0.3j
                got[f"gap {lname} {sname} 50"] = _digest(
                    _gap_key(clt.gaussian_limit_gap(law, scheme, 50, xi)))
        assert got == _PINNED

    def test_reports_independent_of_cpu_count(self, monkeypatch):
        def reports():
            out = []
            for law in _LAWS.values():
                for scheme in (_SCHEMES["constant"], _SCHEMES["alternating"]):
                    mc = clt.MonteCarloConfig(seed=3, samples=2000, N=30)
                    out.append(_stat_key(clt.vector_statistic(law, scheme, 30, mc)))
            return out

        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            for cpus in (1, 4):
                monkeypatch.setattr(clt.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                    raising=False)
                assert clt._draw_workers(30) == cpus
                runs[cpus] = reports()
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[4]

    def test_sampler_error_propagates_and_threads_end(self, monkeypatch):
        monkeypatch.setattr(clt.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        law = clt.haar_circle_law()
        bad = str(clt._stream(8, 13).bit_generator.state)

        def sampler(rng, size):
            if str(rng.bit_generator.state) == bad:
                raise RuntimeError("stream 13")
            return law.sampler(rng, size)

        broken = clt.ComplexLawSpec("broken", sampler, law.cf, law.beta2, law.rho3)
        before = threading.active_count()
        mc = clt.MonteCarloConfig(seed=8, samples=1000, N=40)
        with pytest.raises(RuntimeError, match="stream 13"):
            clt.vector_statistic(broken, clt.constant_scheme(), 40, mc)
        assert threading.active_count() == before
        clt.vector_statistic(law, clt.constant_scheme(), 40, mc)
        assert threading.active_count() == before
