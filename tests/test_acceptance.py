"""End-to-end acceptance gate: one test (and one pass/fail line) per criterion."""

import itertools
import math
import time

import numpy as np
import pytest
import sympy as sp
from scipy import integrate

from bslib import clt
from bslib import esseen1d as e1
from bslib import esseen_multi as em
from bslib import interpolation as ip
from bslib import kernels as kr
from references import box_probability, chi_box


def test_criterion_01_lambda_constant():
    t0 = time.perf_counter()
    lam = kr.lambda_constant()
    elapsed = time.perf_counter() - t0
    assert abs(lam - 0.3263598) <= 5e-8
    assert elapsed < 1.0


def test_criterion_02_l1_brackets():
    t0 = time.perf_counter()
    tail = 4.0 / (math.pi**2 * 50.0)

    def bracket(func, cuts):
        body = err = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            v, e = integrate.quad(func, a, b, limit=400)
            body += v
            err += e
        assert err <= 1e-6
        assert body - err <= 1.0 <= body + tail + err

    bracket(lambda x: kr.B_eval(x) - np.sign(x), [-50.0, 0.0, 50.0])
    bracket(lambda x: np.sign(x) - kr.b_eval(x), [-50.0, 0.0, 50.0])
    for ell in (1.0, 2.0, 7.5):
        bracket(
            lambda x, ell=ell: kr.S_eval(ell, x) - chi_box(x, ell),
            [-50.0, 0.0, ell, ell + 50.0],
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0


def test_criterion_03_w_consistency():
    rng = np.random.default_rng(20)
    xs = rng.uniform(-30, 30, 1000)
    gap = np.abs(kr.W_eval(xs) - kr.W_eval(xs, mode="oracle"))
    assert np.all(gap <= 1e-10), xs[~(gap <= 1e-10)]
    pts = np.concatenate([[-0.5, 0.5], rng.uniform(-3, 3, 23)])
    assert len(pts) == 25
    for x in pts:
        val, _err = kr.fourier_W_check(float(x))
        assert abs(val - kr.W_eval(float(x))) <= 1e-8
    assert kr.W_eval(0.5) == pytest.approx(8.0 / math.pi**2, abs=1e-12)


def test_criterion_04_majorant_suites():
    rng = np.random.default_rng(21)
    xs = rng.uniform(-40, 40, 100000)
    k2 = 2.0 * kr.fejer_K(xs)
    s = np.sign(xs)
    B, b = kr.B_eval(xs), kr.b_eval(xs)
    w = kr.W_eval(xs)
    pos, neg = xs > 0, xs < 0
    ok = (b - 1e-12 <= s) & (s <= B + 1e-12) & (np.abs(B - s) <= k2 + 1e-12)
    ok &= ~pos | ((1.0 - 0.5 * k2 - 1e-12 <= w) & (w <= 1.0 + 1e-12))
    ok &= ~neg | ((-1.0 - 1e-12 <= w) & (w <= -1.0 + 0.5 * k2 + 1e-12))
    assert ok.all(), xs[~ok]
    for ell in (1.0, 2.0, 7.5):
        x = rng.uniform(-20, 20, 20000)
        chi = chi_box(x, ell)
        ok = (kr.sigma_eval(ell, x) - 1e-12 <= chi) & (chi <= kr.S_eval(ell, x) + 1e-12)
        assert ok.all(), (ell, x[~ok])
    off = rng.uniform(-40, 40, 1500)
    off = off[np.abs(off - np.round(off)) > 1e-3][:1000]
    assert len(off) == 1000
    ok = (kr.b_eval(off) < np.sign(off)) & (np.sign(off) < kr.B_eval(off))
    assert ok.all(), off[~ok]


def test_criterion_05_identity_suite():
    assert ip.csc_residual(0.37).residual <= 1e-8
    assert ip.fejer_residual(0.37).residual <= 1e-8
    par = ip.parseval_residual()
    assert par.residual <= 1e-8
    assert abs(par.detail["lhs"] - 2.0 / 3.0) <= 1e-8
    assert abs(par.detail["rhs"] - 2.0 / 3.0) <= 1e-7
    assert ip.poisson_residual(2.0).residual <= 1e-12
    vs = np.linspace(0.0, 1.0, 501)
    gap = np.abs(kr.Q_eval(vs) + kr.Q_eval(1.0 - vs) - 1.0 / math.pi)
    assert np.all(gap <= 1e-12), vs[~(gap <= 1e-12)]


def test_criterion_06_scalar_smoothing_bound():
    t0 = time.perf_counter()
    G = e1.normal_law()
    grid = np.linspace(-8, 8, 2001)
    totals = []
    for n in (25, 100, 400):
        F = e1.standardized_binomial(n)
        rep = e1.best_esseen_bound(F, G)
        sup = e1.sup_cdf_distance(F.cdf, G.cdf, grid, F.atoms)
        assert rep.total >= sup
        totals.append(rep.total)
    assert totals[0] > totals[1] > totals[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0


def test_criterion_07_ring_expansion():
    for k in (2, 3, 4):
        S, _ = em.selberg_ring_expansion(k)
        chi = sp.symbols(f"chi1:{k + 1}")
        dlt = sp.symbols(f"delta1:{k + 1}")
        eps = sp.symbols(f"eps1:{k + 1}")
        sym = {"chi": chi, "delta": dlt, "eps": eps}
        # the product trick, built here in sympy as the independent reference
        f = [chi[j] - dlt[j] for j in range(k)]
        g = [chi[j] + eps[j] for j in range(k)]
        lhs = (1 - k) * sp.prod(g) + sum(
            f[j] * sp.prod([g[i] for i in range(k) if i != j]) for j in range(k)
        )
        rng = np.random.default_rng(100 + k)
        for _ in range(100):
            subs = {
                s: sp.Rational(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                for s in (*chi, *dlt, *eps)
            }
            rhs = sp.prod(chi) - sum(
                c * sp.prod(sym[tag][j] for j, tag in enumerate(mono))
                for mono, c in S.items()
            )
            assert sp.simplify(lhs.xreplace(subs) - rhs.xreplace(subs)) == 0  # exact
    S2, _ = em.selberg_ring_expansion(2)
    assert dict(S2) == {
        ("chi", "delta"): 1,
        ("delta", "chi"): 1,
        ("delta", "eps"): 1,
        ("eps", "delta"): 1,
        ("eps", "eps"): 1,
    }


def test_criterion_08_operator_algebra():
    for k in (1, 2, 3):
        for j in range(k):
            assert em.operator_terms([("D", j), ("E", j)], k) == {}
            assert em.operator_terms([("D", j), ("P", j)], k) == {}
            assert em.operator_terms([("P", j), ("Delta", j)], k) == {}
            for w1, w2 in (
                ([("D", j), ("Delta", j)], [("D", j)]),
                ([("E", j), ("P", j)], [("P", j)]),
            ):
                t1, t2 = em.operator_terms(w1, k), em.operator_terms(w2, k)
                assert all(
                    abs(t1.get(t, 0.0) - t2.get(t, 0.0)) <= 1e-12 for t in set(t1) | set(t2)
                )
            combined: dict = {}
            for w in ([("P", j)], [("D", j)], [("E", j), ("Delta", j)]):
                for t, c in em.operator_terms(w, k).items():
                    combined[t] = combined.get(t, 0.0) + c
            combined = {t: c for t, c in combined.items() if abs(c) > 1e-12}
            assert combined == {tuple([1] * k): 1.0}
    # factorization residual on product cosines
    a = np.array([1.3, 0.7])
    f = lambda p: np.cos(a[0] * p[..., 0]) * np.cos(a[1] * p[..., 1])
    d2 = lambda p: a[0] * a[1] * np.sin(a[0] * p[..., 0]) * np.sin(a[1] * p[..., 1])
    for v in ((0.7, -0.3), (1.1, 0.9), (0.4, 1.6)):
        assert em.factorization_residual(f, d2, 2, "mixed", v) <= 1e-8


def test_criterion_09_multivariate_bounds():
    t0 = time.perf_counter()
    F = em.product_law([e1.standardized_binomial(25)] * 2)
    G = em.product_normal_target(2)
    omegas = (8.0, 8.0)
    for t in ([0.0, 0.0], [0.5, -0.3], [1.2, 1.2], [-2.0, 0.7], [0.1, -1.8]):
        rep = em.esseen_bound_k(F, G, omegas, t)
        gap = abs(F.cdf(np.asarray(t)) - G.cdf(np.asarray(t)))
        assert math.isfinite(rep.total) and rep.total >= gap
    side = np.linspace(-3, 3, 13)
    sup = max(
        abs(F.cdf(np.array(p)) - G.cdf(np.array(p)))
        for p in itertools.product(side, side)
    )
    repA = em.esseen_bound_truncated(F, G, omegas, delta=8.0, mode="A")
    assert math.isfinite(repA.total) and repA.total >= sup
    repB = em.esseen_bound_truncated(F, G, omegas, delta=5.0, mode="B", box_extent=4.0)
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.uniform(-3, 0, 2)
        b = a + rng.uniform(0.1, 4.0, 2)
        gap = abs(box_probability(F.cdf, a, b) - box_probability(G.cdf, a, b))
        assert math.isfinite(repB.total) and repB.total >= gap
    repS = em.esseen_bound_slab(F, G, omegas)
    assert math.isfinite(repS.total) and repS.total >= sup
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0


def test_criterion_10_clt_haar():
    t0 = time.perf_counter()
    law = clt.haar_circle_law()
    scheme = clt.constant_scheme()
    rng = np.random.default_rng(30)
    r = np.sqrt(rng.random(20))
    theta = rng.uniform(0, 2 * math.pi, 20)
    xis = r * np.exp(1j * theta)  # 20 points in the unit disk
    for N in (100, 400, 1600):
        bound = (2.0 / 3.0) / math.sqrt(N)
        for xi in xis:
            rep = clt.gaussian_limit_gap(law, scheme, N, complex(xi), A=1.0)
            assert rep.admissible and rep.branch_ok
            # gap target is |log phi_N + |xi|^2 / 4| since beta^2 = 1/2
            assert rep.gap <= bound
            assert rep.proof_bound == pytest.approx(bound, rel=1e-12)
    mc = clt.MonteCarloConfig(seed=7, samples=10**5, N=400)
    rep = clt.vector_statistic(law, scheme, 400, mc)
    assert rep.ks_real[0] <= 0.01
    assert rep.ks_imag[0] <= 0.01
    diag = np.real(np.diag(rep.covariance))
    target = np.real(np.diag(rep.covariance_target))
    assert np.all(np.abs(diag - target) <= 4.0 * rep.covariance_stderr)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


def test_criterion_11_vector_clt():
    law = clt.haar_circle_law()
    scheme = clt.alternating_vector_scheme(2)
    # normalization-matrix residual -> 0 along N not divisible by J
    resid = [clt.lyapunov_normalizer(scheme, N).matrix_residual for N in (3, 11, 101, 1001)]
    assert all(a > b for a, b in zip(resid, resid[1:]))
    assert resid[-1] <= 1e-3
    # Lyapunov sum -> 0
    lyap = [clt.lyapunov_normalizer(scheme, N).lyapunov_sum for N in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(lyap, lyap[1:]))
    assert lyap[-1] <= 0.02
    for N in (100, 400, 1001):
        for xi in ([1.0, 0.0], [0.5, 0.5], [0.3, -0.9], [0.2 + 0.4j, -0.6]):
            rep = clt.gaussian_limit_gap(law, scheme, N, np.asarray(xi, dtype=complex))
            assert rep.admissible
            assert rep.gap <= rep.proof_bound
