"""Quantitative CLT machinery: elementary inequalities, gap bounds, Monte Carlo engine."""

import cmath
import hashlib
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from bslib import clt
from bslib.esseen1d import normal_law
from bslib.quadrature import leggauss
from references import geometric_scheme, rademacher_product_law


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
        assert clt.taylor_remainder(t, n).holds
        assert clt.taylor_remainder_min(t, n).holds

    def test_min_form_tighter_for_large_t(self):
        a = clt.taylor_remainder(10.0, 2)
        b = clt.taylor_remainder_min(10.0, 2)
        assert b.rhs < a.rhs

    def test_principal_log(self):
        for z in (0.3, -0.25 + 0.3j, 0.5j, -0.4):
            assert clt.principal_log(z).holds
        with pytest.raises(ValueError):
            clt.principal_log(0.9)

    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=8),
        st.floats(min_value=1.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_mean_chain(self, x, lam):
        assert clt.power_mean_chain(x, lam).holds

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
                clt.third_moment_chain(x)
        else:
            assert clt.third_moment_chain(x).holds

    @pytest.mark.parametrize("omega", [0.0, 0.3, 0.99])
    def test_fractional_remainder(self, omega):
        for t in (0.2, 1.5, 4.0):
            for n in (1, 2):
                assert clt.fractional_remainder(t, n, omega).holds

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
        assert clt.norm_ratios(w, lam).holds

    @pytest.mark.parametrize("n,beta,q", [(1, 1.0, 2.0), (3, 0.5, 3.0), (0, 2.0, 1.5)])
    def test_stretched_exponential_max(self, n, beta, q):
        res = clt.stretched_exp_max(n, beta, q)
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
        assert clt.power_sum_pinch(t, 2, psi).holds

    @pytest.mark.parametrize("t, n", [(30.0, 100), (40.0, 150), (0.1, 3), (2.0, 2), (math.pi, 0)])
    def test_taylor_remainder_against_mpmath(self, t, n):
        # where n + 1 > |t| the partial sum cancels e^{it} to the remainder
        with mpmath.workdps(120):
            x = mpmath.mpf(t)
            ref = float(abs(mpmath.expj(x) - sum((1j * x) ** k / mpmath.factorial(k) for k in range(n + 1))))
        assert abs(clt._exp_taylor_remainder(t, n) - ref) <= 4 * math.ulp(ref)

    def test_taylor_bounds_hold_where_the_partial_sum_cancels(self):
        # the remainder at (30, 100) is 1.57e-11, under the bound 1.64e-11
        for r in (clt.taylor_remainder(30.0, 100), clt.taylor_remainder_min(30.0, 100),
                  clt.fractional_remainder(30.0, 100, 0.5)):
            assert r.holds and r.lhs == pytest.approx(1.5746754676233684e-11, rel=1e-15)


class TestLawMoments:
    @pytest.mark.parametrize(
        "law", [clt.haar_circle_law(), rademacher_product_law(0.7)], ids=lambda l: l.name
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
        law = rademacher_product_law(0.7)
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
        st_ = clt.lyapunov_normalizer(geometric_scheme(2.0), 40)
        assert st_.max_ratio == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-9)

    def test_geometric_ratio_two_without_overflow(self):
        # |b_n| = 2^n: squares and cubes overflow from N = 342 unless scaled
        st_ = clt.lyapunov_normalizer(geometric_scheme(2.0), 400)
        assert st_.max_ratio == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        assert st_.lyapunov_sum == pytest.approx((8.0 / 7.0) * 0.75**1.5, abs=1e-12)
        st_ = clt.lyapunov_normalizer(geometric_scheme(2.0), 1000)
        assert st_.scale == pytest.approx(2.0**1000 * math.sqrt(4.0 / 3.0), rel=1e-12)
        rep = clt.gaussian_limit_gap(clt.haar_circle_law(), geometric_scheme(2.0), 1000, 1.0)
        assert not rep.admissible and rep.holds and rep.branch_ok
        # 2^1024 is not a float: the ValueError is the only signal, no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^scheme "):
                clt.lyapunov_normalizer(geometric_scheme(2.0), 1100)

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
        rep = clt.gaussian_limit_gap(law, geometric_scheme(2.0), 40, 1.0)
        assert not rep.admissible
        assert rep.holds  # vacuous by convention

    @pytest.mark.parametrize("N", [400, 1600])
    @pytest.mark.parametrize("scheme", [clt.constant_scheme(), clt.index_scheme()], ids=["constant", "index"])
    @pytest.mark.parametrize("law", [clt.haar_circle_law(), rademacher_product_law(1.0)],
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
        law = rademacher_product_law(1.0)
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
        # Hermitian bit for bit, with a real diagonal
        assert np.array_equal(rep.covariance, rep.covariance.conj().T)
        assert not np.any(np.diag(rep.covariance).imag)

    def test_covariance_independent_of_blas_threads(self):
        # a BLAS product's covariance bytes differed between these two
        # settings at this seed and size
        code = (
            "from bslib import clt\n"
            "mc = clt.MonteCarloConfig(seed=3, samples=20000, N=400)\n"
            "rep = clt.vector_statistic(clt.haar_circle_law(), clt.constant_scheme(), 400, mc)\n"
            "print(rep.covariance.tobytes().hex())\n"
        )
        src = str(Path(clt.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            out[threads] = run.stdout
        assert out["1"] == out["2"]


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


_LAWS = {"haar_circle": clt.haar_circle_law(), "rademacher_product": rademacher_product_law(0.7)}
_SCHEMES = {"constant": clt.constant_scheme(), "index": clt.index_scheme(),
            "geometric": geometric_scheme(1.5), "alternating": clt.alternating_vector_scheme(2)}

# sha256 prefixes of every report field (covariance bytes, float.hex of
# the rest): seed 5, 2000 samples; gaps at N = 50.  The gaps are as the
# serial implementation with one scalar cf call per factor computed them;
# the statistics are as that implementation's sums give them with the
# numpy normal CDF and the covariance summed by numpy, not by BLAS, on
# Haar draws from the turn table and the series, not from cos and sin
_PINNED = {
    "stat haar_circle constant 1": "69bdd8217b928fbf",
    "stat haar_circle constant 7": "54d6cfd997e3a749",
    "stat haar_circle constant 50": "a422368d667eceb1",
    "gap haar_circle constant 50": "e9a0124f89c5bd23",
    "stat haar_circle index 1": "69bdd8217b928fbf",
    "stat haar_circle index 7": "292b3451e76b72ef",
    "stat haar_circle index 50": "23452430f42937ad",
    "gap haar_circle index 50": "52e7a328fd2bf747",
    "stat haar_circle geometric 1": "2b1f400b7aa9f950",
    "stat haar_circle geometric 7": "cca6eefc3113e0ec",
    "stat haar_circle geometric 50": "4b8fac40aa6ee039",
    "gap haar_circle geometric 50": "85c6626f5ad30df9",
    "stat haar_circle alternating 1": "b4b433a49169e2f8",
    "stat haar_circle alternating 7": "d9aed1cc520f13f3",
    "stat haar_circle alternating 50": "1b68ed523fdd0899",
    "gap haar_circle alternating 50": "a2b8a31b813c179b",
    "stat rademacher_product constant 1": "887d07d1c7df4c12",
    "stat rademacher_product constant 7": "2b8ad2693d1a0b66",
    "stat rademacher_product constant 50": "4a1d0aac2f62dbde",
    "gap rademacher_product constant 50": "c08bb8f7987c1d15",
    "stat rademacher_product index 1": "887d07d1c7df4c12",
    "stat rademacher_product index 7": "02cfed6a0cf7c3c8",
    "stat rademacher_product index 50": "56d68ea825e0ad0d",
    "gap rademacher_product index 50": "c124c4f2996d089a",
    "stat rademacher_product geometric 1": "9347e87073d09515",
    "stat rademacher_product geometric 7": "8d8ef65db30d93cb",
    "stat rademacher_product geometric 50": "0dc7c224ac11e109",
    "gap rademacher_product geometric 50": "a6ca380e1bb563bf",
    "stat rademacher_product alternating 1": "19f1667fb5fcf266",
    "stat rademacher_product alternating 7": "a087c916f2ddef04",
    "stat rademacher_product alternating 50": "ccd6cc512fcfb011",
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

    @pytest.mark.parametrize("size", [0, 1, 1000, (3, 5)])
    def test_haar_sampler_draws_the_same_u(self, size):
        # the same raw words as rng.random(size), so the stream ends where it does
        rng, ref = clt._stream(4, 2), clt._stream(4, 2)
        z = clt.haar_circle_law().sampler(rng, size)
        assert z.shape == ref.random(size).shape and z.dtype == complex
        assert str(rng.bit_generator.state) == str(ref.bit_generator.state)

    def test_haar_sampler_within_2p5e_16_of_exp(self):
        k = clt._stream(6, 1).bit_generator.random_raw(10**4) >> 11
        q, step = 1 << 51, 1 << 41  # quarter turn and table step, in units of 2^-53 turns
        hand = [0, 1, 2**53 - 1] + [e + d for e in (q, 2 * q, 3 * q) for d in (-1, 0, 1)]
        hand += [j * step + d for j in (1, 511, 512, 513, 1023, 1025, 2047, 4095) for d in (-1, 0)]
        k = np.concatenate([k, np.array(hand, dtype=np.uint64)])
        words = (k << np.uint64(11)) | np.uint64(0x5A5)  # the low 11 bits are not read
        rng = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda size: words.copy()))
        z = clt.haar_circle_law().sampler(rng, k.size)
        worst = 0.0
        with mpmath.workprec(120):
            for kk, zz in zip(k.tolist(), z.tolist()):
                e = mpmath.expjpi(mpmath.ldexp(kk, -52))
                worst = max(worst, abs(zz.real - e.real), abs(zz.imag - e.imag))
        assert worst <= 2.5e-16

    def test_turn_table(self):
        cos, sin = clt._TURN_COS, clt._TURN_SIN
        n = cos.size
        assert n == sin.size == 1 << clt._TURN_BITS
        with mpmath.workprec(120):
            for j in range(n):
                x = 2 * mpmath.pi * j / n
                assert abs(cos[j] - mpmath.cos(x)) <= 1.2e-16 and abs(sin[j] - mpmath.sin(x)) <= 1.2e-16
        quarter = n // 4
        assert np.array_equal(cos[quarter:], -sin[:-quarter])
        assert np.array_equal(sin[quarter:], cos[:-quarter])

    def test_haar_sampler_rejects_32_bit_words(self):
        with pytest.raises(ValueError, match="^rng "):
            clt.haar_circle_law().sampler(np.random.Generator(np.random.MT19937(1)), 10)

    @pytest.mark.parametrize("seed", [0, 5, 2**64 + 3, 2**128 - 1])
    @pytest.mark.parametrize("index", [0, 1, 7, 399, 2**64 + 5])
    def test_stream_is_philox_jumped(self, seed, index):
        got, want = clt._stream(seed, index), np.random.Generator(np.random.Philox(key=seed).jumped(index))
        assert str(got.bit_generator.state) == str(want.bit_generator.state)
        assert got.random(1001).tolist() == want.random(1001).tolist()
        assert str(got.bit_generator.state) == str(want.bit_generator.state)

    def test_complex_coefficients_summed_in_real_arithmetic(self, monkeypatch):
        # a phase-twisted column beside a real one that is 0 on every other row
        phases = np.exp(1j * np.random.default_rng(2).uniform(0, 2 * math.pi, 9))
        n = np.arange(1, 10)
        scheme = clt.CoefficientScheme(
            lambda N: np.stack([phases[:N] * n[:N], np.where(n[:N] % 2, 0.0, n[:N])], axis=1),
            lambda N: math.sqrt(N), (0.5, 0.5))
        law = clt.haar_circle_law()
        mc = clt.MonteCarloConfig(seed=21, samples=1000, N=9)
        seen = []
        ks = clt.ks_distance
        monkeypatch.setattr(clt, "ks_distance", lambda x, cdf: seen.append(x) or ks(x, cdf))
        clt.vector_statistic(law, scheme, 9, mc)

        b, _, sigma, _, _ = clt._weights(scheme, 9)
        T = [[[0.0, 0.0] for _ in range(mc.samples)] for _ in range(2)]
        for i in range(9):
            X = law.sampler(clt._stream(mc.seed, i), mc.samples).tolist()
            for j in range(2):
                br, bi = b[i, j].real, b[i, j].imag
                for t, x in zip(T[j], X):
                    t[0] += x.real * br - x.imag * bi
                    t[1] += x.real * bi + x.imag * br
        want = []
        for j in range(2):
            Tj = np.array([complex(*t) for t in T[j]])
            Tj /= sigma  # as vector_statistic scales its sum
            want.append(np.sort(Tj.real))
            want.append(np.sort(Tj.imag))
        got = [seen[0], seen[2], seen[1], seen[3]]  # the real KS passes come first
        assert [list(map(float.hex, g.tolist())) for g in got] == \
            [list(map(float.hex, w.tolist())) for w in want]

    def test_cf_array_contract(self):
        xi = (np.random.default_rng(4).normal(size=(3, 5)) * 2.0).astype(complex)
        xi.imag = np.random.default_rng(5).normal(size=(3, 5))
        haar, rad = clt.haar_circle_law(), rademacher_product_law(0.7)
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
