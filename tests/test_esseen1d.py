"""One-variable smoothing bound: oracles, dominance, and representation checks."""

import cmath
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

import ndtr_coefficients
from bslib import esseen1d as e1
from bslib import esseen_multi as em
from bslib import quadrature


class TestLawConstructors:
    def test_binomial_cdf_matches_scipy(self):
        n = 100
        F = e1.standardized_binomial(n)
        for t in np.linspace(-4, 4, 81):
            j = math.floor((t * math.sqrt(n) + n) / 2.0)
            expect = float(stats.binom.cdf(j, n, 0.5))
            assert F.cdf(float(t)) == pytest.approx(expect, abs=1e-12)

    def test_binomial_cf_matches_empirical(self):
        F = e1.standardized_binomial(25)
        pmf = stats.binom.pmf(np.arange(26), 25, 0.5)
        xs = (2.0 * np.arange(26) - 25) / math.sqrt(25)
        for t in (0.3, 1.7, -2.4):
            direct = complex(np.sum(pmf * np.exp(1j * t * xs)))
            assert F.cf(t) == pytest.approx(direct, abs=1e-12)

    def test_irwin_hall_moments(self):
        F = e1.irwin_hall_standardized(4)
        mean, _ = integrate.quad(lambda x: 1.0 - F.cdf(x) - F.cdf(-x), 0, 10, limit=200)
        assert mean == pytest.approx(0.0, abs=1e-8)
        second, _ = integrate.quad(lambda x: 2.0 * x * (1.0 - F.cdf(x) + F.cdf(-x)), 0, 10, limit=200)
        assert second == pytest.approx(1.0, abs=1e-6)

    def test_point_mass(self):
        F = e1.point_mass(1.5)
        assert F.cdf(1.5) == 1.0
        assert F.cdf(1.49) == 0.0
        assert F.cf(2.0) == pytest.approx(cmath.exp(3.0j), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 255, 1024, 2000])
    def test_binomial_pmf_exact(self, n):
        # the cdf at the atoms is the running sum of C(n, j)/2^n, each correctly rounded
        F = e1.standardized_binomial(n)
        pmf = [float(Fraction(math.comb(n, j), 2**n)) for j in range(n + 1)]
        assert F.cdf(np.array(F.atoms)).tolist() == np.cumsum(pmf).tolist()


def _ncdf_mp(x):
    with mpmath.workdps(50):
        return float(mpmath.ncdf(mpmath.mpf(float(x))))


class TestNdtr:
    """`_ndtr` against mpmath at 50 digits, and scipy's ndtr as a second opinion."""

    # [-37.5, 8.3], the far tail beyond it, and the body near 0 densely
    XS = np.concatenate([np.linspace(-37.5, 8.3, 6001),
                         np.random.default_rng(2).uniform(-38.5, 9.0, 3000),
                         np.random.default_rng(3).uniform(-1.5, 1.5, 3000)])

    def test_coefficients_derive_from_mpmath(self):
        got = tuple(map(float.hex, ndtr_coefficients.coefficients()))
        assert got == tuple(map(float.hex, e1._NDTR_CHEB))

    def test_against_mpmath(self):
        ref = np.array([_ncdf_mp(x) for x in self.XS])
        got = e1._ndtr(self.XS)
        err = np.abs(got - ref)
        normal = ref >= 2.3e-308
        assert np.max(err[normal] / ref[normal]) <= 1e-14
        assert np.max(err) <= 2.3e-16

    def test_close_to_scipy(self):
        want = special.ndtr(self.XS)
        normal = want >= 2.3e-308
        assert np.max(np.abs(e1._ndtr(self.XS) - want)[normal] / want[normal]) <= 3e-13

    def test_special_values(self):
        x = np.array([-math.inf, -0.0, 0.0, math.inf, math.nan, -1e300, 1e300, -5e-324])
        got = e1._ndtr(x)
        assert got[:4].tolist() == [0.0, 0.5, 0.5, 1.0]
        assert math.isnan(got[4])
        assert got[5:].tolist() == [0.0, 1.0, 0.5]
        assert isinstance(e1._ndtr(0.3), np.float64)
        assert e1._ndtr(np.zeros((2, 3))).shape == (2, 3)

    def test_monotone(self):
        # the whole range, then the subnormal tail and the switch to the
        # Taylor series at z = 3/4 more densely
        for x in (np.linspace(-39.0, 9.0, 204001), np.linspace(-38.6, -37.4, 200001),
                  np.linspace(-0.76, -0.74, 200001), np.linspace(0.74, 0.76, 200001)):
            assert np.all(np.diff(e1._ndtr(x)) >= 0.0)

    def test_normal_law_cdf(self):
        law = e1.normal_law(1.5, 2.0)
        x = np.linspace(-6.0, 9.0, 31)
        assert np.array_equal(law.cdf(x), e1._ndtr((x - 1.5) / 2.0))


def _irwin_hall_cdf_exact(n, t):
    """Irwin-Hall CDF at the float x = n/2 + t sqrt(n/12), in exact rationals:
    x = p/q, so sum_j (-1)^j C(n, j) (x - j)^n / n! is an integer ratio."""
    x = n / 2.0 + t * math.sqrt(n / 12.0)
    if x <= 0:
        return 0.0
    if x >= n:
        return 1.0
    p, q = x.as_integer_ratio()
    num = sum((-1) ** j * math.comb(n, j) * (p - j * q) ** n for j in range(n + 1) if p > j * q)
    return float(Fraction(num, q**n * math.factorial(n)))


LAWS = {
    "normal": lambda: e1.normal_law(0.3, 1.2),
    "binomial": lambda: e1.standardized_binomial(25),
    "irwin_hall": lambda: e1.irwin_hall_standardized(5),
    "point_mass": lambda: e1.point_mass(0.5),
    "mollified": lambda: e1.gaussian_mollify(e1.standardized_binomial(9), 0.3),
}


class TestArrayLaws:
    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("attr", ["cdf", "cf"])
    def test_array_call_matches_scalar_calls(self, name, attr):
        fn = getattr(LAWS[name](), attr)
        pts = np.array([[-3.1, -0.5, 0.0], [0.5, 1.0, 2.75]])
        vals = fn(pts)
        assert vals.shape == pts.shape
        scalars = np.array([[fn(float(t)) for t in row] for row in pts])
        assert np.allclose(vals, scalars, rtol=0.0, atol=1e-15)
        assert np.ndim(fn(0.5)) == 0

    @pytest.mark.parametrize("n", [12, 24, 32])
    def test_irwin_hall_cdf_exact(self, n):
        grid = np.linspace(-8, 8, 2001)
        got = e1.irwin_hall_standardized(n).cdf(grid)
        exact = np.array([_irwin_hall_cdf_exact(n, float(t)) for t in grid])
        assert np.max(np.abs(got - exact)) <= 1e-15

    def test_irwin_hall_cdf_blocks_and_bands(self):
        # n = 128 takes 256 points per block, so the grid spans two blocks;
        # each point alone has the narrowest band of rows
        n, grid = 128, np.linspace(-8, 8, 401)
        F = e1.irwin_hall_standardized(n)
        got = F.cdf(grid)
        exact = np.array([_irwin_hall_cdf_exact(n, float(t)) for t in grid])
        assert np.max(np.abs(got - exact)) <= 1e-15
        assert np.array_equal(got, [F.cdf(float(t)) for t in grid])
        edge = F.cdf(np.array([[math.nan, -math.inf], [math.inf, 0.0]]))
        assert np.isnan(edge[0, 0]) and edge[0, 1] == 0.0 and edge[1, 0] == 1.0
        assert edge[1, 1] == F.cdf(0.0) and F.cdf(np.zeros(0)).shape == (0,)

    def test_irwin_hall_sup_distance_n32(self):
        F, G = e1.irwin_hall_standardized(32), e1.normal_law()
        sup = e1.sup_cdf_distance(F.cdf, G.cdf, np.linspace(-8, 8, 2001), F.atoms)
        assert sup == pytest.approx(0.000866145615, abs=1e-11)


class TestPvIntegral:
    def test_odd_singularity_oracle(self):
        # pv int_{-1}^{1} e^v / v dv = 2 * int_0^1 sinh(v)/v dv
        val, err = e1.pv_integral(lambda v: np.exp(v) / v, 1.0)
        oracle, _ = integrate.quad(lambda v: 2.0 * math.sinh(v) / v, 0, 1)
        assert abs(val.real - oracle) <= max(err, 1e-8)
        assert val.imag == pytest.approx(0.0, abs=1e-10)

    def test_smooth_integrand_matches_quad(self):
        val, err = e1.pv_integral(np.cos, 2.0)
        oracle = 2.0 * math.sin(2.0)
        assert abs(val.real - oracle) <= max(err, 1e-8)

    def test_divergent_rejected(self):
        with pytest.raises(ArithmeticError):
            e1.pv_integral(lambda v: 1.0 / np.abs(v), 1.0)


class TestRepresentationResiduals:
    @pytest.mark.parametrize("which", ["B", "b"])
    @pytest.mark.parametrize("x", [0.3, 1.7, -2.4])
    def test_fourier_representation(self, which, x):
        assert e1.representation_residual(which, x) <= 1e-6


class TestBound:
    def test_bound_dominates_measured_distance(self):
        G = e1.normal_law()
        grid = np.linspace(-8, 8, 2001)
        for n in (25, 100, 400):
            F = e1.standardized_binomial(n)
            rep = e1.best_esseen_bound(F, G)
            measured = e1.sup_cdf_distance(F.cdf, G.cdf, grid, F.atoms)
            assert rep.total >= measured
            assert rep.total > 0

    def test_bound_scales_with_n(self):
        G = e1.normal_law()
        totals = [e1.best_esseen_bound(e1.standardized_binomial(n), G).total for n in (25, 100, 400)]
        assert totals[0] > totals[1] > totals[2]

    def test_tail_term_monotone_in_omega(self):
        F = e1.standardized_binomial(25)
        G = e1.normal_law()
        r1 = e1.esseen_bound_1d(F, G, 8.0)
        r2 = e1.esseen_bound_1d(F, G, 16.0)
        assert r2.tail <= r1.tail
        assert r1.tail == pytest.approx(2.0 * r2.tail, rel=1e-12)

    def test_constants_echoed(self):
        rep = e1.esseen_bound_1d(e1.standardized_binomial(25), e1.normal_law(), 8.0)
        assert rep.constants == {"c1": 0.25, "c2": math.pi}
        custom = e1.esseen_bound_1d(
            e1.standardized_binomial(25), e1.normal_law(), 8.0, constants=(0.5, 4.0)
        )
        assert custom.constants == {"c1": 0.5, "c2": 4.0}
        assert custom.total > rep.total


def _quad_reference(F, G, omega, eps):
    """Per-panel scipy quad of |phi - psi|/zeta over [eps, 1], [1, 5], ...,
    [., omega]: (integral, summed error estimate)."""
    cuts = [eps] + list(np.arange(1.0, omega, 4.0)) + [omega]
    val = err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v, e = integrate.quad(lambda z: abs(complex(F.cf(z) - G.cf(z))) / z, a, b, limit=300)
        val += v
        err += e
    return val, err


class TestSweep:
    @pytest.mark.parametrize("F", [e1.standardized_binomial(25), e1.irwin_hall_standardized(3)],
                             ids=["binomial25", "irwin_hall3"])
    def test_best_is_min_of_single_bounds(self, F):
        G = e1.normal_law()
        best = e1.best_esseen_bound(F, G)
        singles = [e1.esseen_bound_1d(F, G, om) for om in e1.OMEGA_GRID]
        low = min(singles, key=lambda r: r.total)
        assert best.omegas == low.omegas
        assert best.total == pytest.approx(low.total, rel=1e-12)

    @pytest.mark.parametrize("F", [e1.standardized_binomial(25), e1.irwin_hall_standardized(3)],
                             ids=["binomial25", "irwin_hall3"])
    @pytest.mark.parametrize("omega", [8.0, 64.0, 1024.0])
    def test_integral_matches_per_panel_quad(self, F, omega):
        G = e1.normal_law()
        c1 = e1.C1_DEFAULT
        rep = e1.esseen_bound_1d(F, G, omega)
        half_integral = rep.terms["integral"] / (2.0 * c1)
        quad_err = rep.slack["quadrature"] / (2.0 * c1)
        eps = 1e-8 / (40.0 * (F.moment[1] + G.moment[1]))  # the bound's exclusion cut
        ref, ref_err = _quad_reference(F, G, omega, eps)
        assert abs(half_integral - ref) <= quad_err + ref_err + 1e-12

    @pytest.mark.parametrize("chunk", [37, 1 << 10])
    def test_chunk_size_does_not_change_bounds(self, monkeypatch, chunk):
        G = e1.normal_law()
        laws = [e1.standardized_binomial(300), e1.irwin_hall_standardized(6)]
        default = [e1.best_esseen_bound(F, G).total for F in laws]
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        assert [e1.best_esseen_bound(F, G).total.hex() for F in laws] == [t.hex() for t in default]

    def test_kronrod_rule_degrees(self):
        x = quadrature._GK_NODES
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(quadrature._GK_KRONROD_WEIGHTS @ x**k - exact) <= 1e-15
            if k < 20:
                assert abs(quadrature._GK_GAUSS_WEIGHTS @ x**k - exact) <= 1e-15


def test_bound_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, 10-20 ms in a fresh
    # interpreter; the sweep's panel edges need only a sort
    code = (
        "import sys\n"
        "from bslib import esseen1d as e1\n"
        "e1.esseen_bound_1d(e1.standardized_binomial(100), e1.normal_law(), 20.0)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(e1.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


class TestValidation:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: e1.esseen_bound_1d(e1.standardized_binomial(9), e1.normal_law(), 0.0), "omega"),
            (lambda: e1.esseen_bound_1d(e1.standardized_binomial(9), e1.normal_law(), -2.0), "omega"),
            (lambda: e1.esseen_bound_1d(e1.standardized_binomial(9), e1.normal_law(), math.nan), "omega"),
            (lambda: e1.best_esseen_bound(e1.standardized_binomial(9), e1.normal_law(), ()), "omegas"),
            (lambda: e1.best_esseen_bound(e1.standardized_binomial(9), e1.normal_law(), (8.0, 0.0)),
             "omegas"),
            (lambda: e1.pv_integral(np.cos, 0.0), "A"),
            (lambda: e1.gaussian_mollify(e1.point_mass(0.0), 0.0), "eps"),
            # a law on R^2, or a G without a density bound, is not a 1-D pair
            (lambda: e1.esseen_bound_1d(em.product_normal_target(2), e1.normal_law(), 8.0), "^F"),
            (lambda: e1.best_esseen_bound(e1.normal_law(), em.product_normal_target(2)), "^G"),
            (lambda: e1.esseen_bound_1d(e1.normal_law(), e1.standardized_binomial(9), 8.0), "^G"),
            (lambda: e1.gaussian_mollify(em.product_normal_target(2), 0.5), "^F"),
        ],
    )
    def test_bad_parameter_named(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestMollification:
    def test_contraction(self):
        # mollifying both sides never increases the measured sup distance much
        F = e1.standardized_binomial(25)
        G = e1.normal_law()
        grid = np.linspace(-8, 8, 1201)
        raw = e1.sup_cdf_distance(F.cdf, G.cdf, grid, F.atoms)
        Fm = e1.gaussian_mollify(F, 0.25)
        Gm = e1.gaussian_mollify(G, 0.25)
        smoothed = e1.sup_cdf_distance(Fm.cdf, Gm.cdf, grid)
        assert smoothed <= raw + 1e-9

    def test_cf_damping(self):
        F = e1.standardized_binomial(25)
        Fm = e1.gaussian_mollify(F, 0.5)
        for z in (0.7, 2.0, 5.0):
            assert Fm.cf(z) == pytest.approx(F.cf(z) * math.exp(-0.125 * z * z), abs=1e-15)
            assert abs(Fm.cf(z)) <= abs(F.cf(z))

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 3.0, 4.5])
    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.5])
    def test_moment_bounds_mollified_moment(self, a, eps):
        # X = +-1 declares E|X|^a = 1; E|X + eps Z|^a = E|1 + eps Z|^a by symmetry,
        # 4.1826 at a = 3, eps = 1, where m + 2 eps^a would declare 3
        F = e1.gaussian_mollify(dataclasses.replace(e1.standardized_binomial(1), moment=(a, 1.0)), eps)
        exact, err = integrate.quad(lambda z: abs(1.0 + eps * z) ** a * stats.norm.pdf(z),
                                    -40.0, 40.0, points=[-1.0 / eps])
        assert F.moment[0] == a
        assert F.moment[1] >= exact + err
        if a <= 2.0:
            assert F.moment[1] == 1.0 + 2.0 * eps**a

    def test_density_bound_set(self):
        Fm = e1.gaussian_mollify(e1.point_mass(0.0), 0.1)
        assert Fm.density_bounds == pytest.approx((1.0 / (0.1 * math.sqrt(2 * math.pi)),))

    def test_gaussian_cf_is_zero_past_the_square_overflow(self):
        # (sigma t)^2 overflows past |sigma t| ~ 1.3e154; RuntimeWarnings are errors here
        for law in (e1.normal_law(), e1.normal_law(0.3, 2.0), e1.gaussian_mollify(e1.point_mass(0.0), 0.5),
                    e1.gaussian_mollify(e1.standardized_binomial(25), 0.5)):
            assert law.cf(1e200) == 0.0
            assert np.array_equal(law.cf(np.array([-1e200, 1e155, 1e200])), np.zeros(3))
            assert law.cf(1.5) != 0.0


@given(st.floats(min_value=-20, max_value=20))
@settings(max_examples=60, deadline=None)
def test_hermitian_cf_symmetry(z):
    for F in (e1.standardized_binomial(25), e1.irwin_hall_standardized(3)):
        assert abs(F.cf(z) - F.cf(-z).conjugate()) <= 1e-14
    G = e1.normal_law(0.3, 1.2)
    assert abs(G.cf(z) - G.cf(-z).conjugate()) <= 1e-14


def test_convergence_harness_rows():
    rows = e1.convergence_harness_1d(
        e1.standardized_binomial, e1.normal_law(), (25, 100), grid=np.linspace(-6, 6, 601)
    )
    assert [r.index for r in rows] == [25, 100]
    for r in rows:
        assert r.bound >= r.sup_distance
    assert rows[1].sup_distance < rows[0].sup_distance
    assert rows[1].cf_increment < rows[0].cf_increment
