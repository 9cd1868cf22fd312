"""Kernel evaluators: oracle comparisons and majorant/minorant invariants."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from bslib import kernels as kr
from references import _family_extra, chi_box, extremal_family_check, interval_majorant_direct


# branch switches, singular points of the closed forms, integers, large
# |x| and points where libm's pow(s, 2) and s * s differ in the last bit
# for s = sinc(x) or sin(pi x)/pi, each with both signs; then a dense and
# a random sweep
_EDGES = [0.0, 1e-300, 1e-9, 1e-4 - 1e-12, 1e-4, 1e-4 + 1e-12, 0.4 - 1e-12, 0.4, 0.4 + 1e-12,
          0.5, 1.0 - 1e-4, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 7.5, 8.0, 123.456, 1e6, 1e9, 1e14, 1e100,
          0.025197, 0.349253, 0.51848, 0.832936, 12.452007]
SWEEP = np.concatenate([_EDGES, np.negative(_EDGES), np.arange(-40.0, 41.0),
                        np.linspace(-3.0, 3.0, 601), np.random.default_rng(4).uniform(-50, 50, 400)])

ARRAY_KERNELS = {
    "fejer_K": kr.fejer_K,
    "trigamma": lambda x: kr.trigamma(np.abs(x) + 0.01),
    "W_eval": kr.W_eval,
    "B_eval": kr.B_eval,
    "b_eval": kr.b_eval,
    "S_eval": lambda x: kr.S_eval(2.0, x),
    "sigma_eval": lambda x: kr.sigma_eval(7.5, x),
    "Q_eval": kr.Q_eval,
    "one_minus_absv_vcot": lambda v: kr._one_minus_absv_vcot(np.fmod(v, 1.0)),  # |v| < 1
    "chi_box": lambda x: chi_box(x, 2.0),
    "family_extra": lambda x: _family_extra(2, 0.05, x),
}


# The scalar loops the array code replaced, operation for operation (the
# old Q used math.cos/math.sin, which agree with numpy's here): the array
# code must match them to the last bit.
_B2K = [float(b) for b in kr.bernoulli_numbers(62)[2:21:2]]
_ZETA = kr.odd_zeta_table(20)


def _loop_trigamma(x):
    acc = 0.0
    while x < 8.0:
        acc += 1.0 / (x * x)
        x += 1.0
    s, xp = 1.0 / x + 0.5 / (x * x), x**3
    for b in _B2K:
        s += b / xp
        xp *= x * x
    return acc + s


def _loop_W(x):
    if x == 0 or x < 0:
        return 0.0 if x == 0 else -_loop_W(-x)
    if x <= 0.4:
        s, xp = 2.0 * x, x**3
        for m in range(1, 21):
            s += 4.0 * m * _ZETA[m - 1] * xp
            xp *= x * x
        return np.sinc(x) ** 2 * s
    sin2 = (np.sin(np.pi * (x - np.round(x))) / np.pi) ** 2
    return 1.0 - 2.0 * sin2 * (0.5 / (x * x) + _loop_trigamma(x + 1.0) - 1.0 / x)


def _loop_Q(v):
    a = abs(v)
    if a >= 1.0 or a == 0.0:
        return 0.0 if a >= 1.0 else 1.0 / math.pi
    u = 1.0 - a if a > 0.5 else a
    t = (math.pi * u) ** 2
    if a < 1e-4:
        rest = (1.0 - a) * (1.0 - t / 3.0 - t * t / 45.0) / math.pi
    elif a > 1.0 - 1e-4:
        rest = -a * (1.0 - t / 3.0 - t * t / 45.0) / math.pi
    else:
        cot = np.cos(np.pi * u) / np.sin(np.pi * u)
        rest = (1.0 - a) * a * (-cot if a > 0.5 else cot)
    return a / math.pi + rest


class TestArrayContract:
    """Every kernel takes a float or an ndarray of any shape and returns
    that shape; a float is the 0-d case of the same code."""

    @pytest.mark.parametrize("name", ARRAY_KERNELS)
    def test_array_call_equals_scalar_calls(self, name):
        f = ARRAY_KERNELS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f(SWEEP)
            scalars = [f(float(x)) for x in SWEEP]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert [float(v).hex() for v in values] == [float(v).hex() for v in scalars]

    @pytest.mark.parametrize("array, loop", [
        (lambda x: kr.trigamma(np.abs(x) + 0.01), lambda x: _loop_trigamma(abs(x) + 0.01)),
        (kr.W_eval, _loop_W),
        (kr.Q_eval, _loop_Q),
    ])
    def test_array_call_equals_the_replaced_scalar_loop(self, array, loop):
        assert [float(v).hex() for v in array(SWEEP)] == [float(loop(float(x))).hex() for x in SWEEP]

    @pytest.mark.parametrize("name", ARRAY_KERNELS)
    def test_shapes_kept(self, name):
        f = ARRAY_KERNELS[name]
        grid = SWEEP[:12]
        assert np.shape(f(0.3)) == ()
        assert f(np.empty(0)).shape == (0,)
        assert f(grid).shape == (12,)
        assert np.array_equal(f(grid.reshape(3, 4)), f(grid).reshape(3, 4))

    def test_odd_symmetry_gives_positive_zero(self):
        for x in (0.0, -0.0, np.array([-0.0, 0.0])):
            assert not np.any(np.signbit(kr.W_eval(x)))

    def test_huge_x_overflows_quietly_to_the_limit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kr.W_eval(np.array([1e155, -1e200])).tolist() == [1.0, -1.0]
            assert kr.trigamma(1e200) == 1e-200

    def test_oracle_on_an_array_is_the_per_point_oracle(self):
        xs = np.array([[-1.5, 0.0], [2.0, 0.3]])
        w = kr.W_eval(xs, mode="oracle")
        assert w.shape == (2, 2)
        assert w.tolist() == [[kr.W_eval(float(x), mode="oracle") for x in row] for row in xs]

    @pytest.mark.parametrize("xs", [[1.0, 0.0, 2.0], [[3.0], [-1.0]]])
    def test_trigamma_rejects_any_nonpositive_element(self, xs):
        with pytest.raises(ValueError):
            kr.trigamma(np.array(xs))


class TestTables:
    def test_bernoulli_recurrence_values(self):
        table = kr.bernoulli_numbers(12)
        from fractions import Fraction

        assert table[0] == 1
        assert table[1] == Fraction(-1, 2)
        assert table[2] == Fraction(1, 6)
        assert table[3] == 0
        assert table[4] == Fraction(-1, 30)
        assert table[12] == Fraction(-691, 2730)

    def test_bernoulli_odd_vanish_and_sign_alternation(self):
        table = kr.bernoulli_numbers(30)
        for j in range(3, 31, 2):
            assert table[j] == 0
        signs = [1 if table[2 * j] > 0 else -1 for j in range(1, 15)]
        assert all(a == -b for a, b in zip(signs, signs[1:]))

    def test_odd_zeta_against_scipy(self):
        table = kr.odd_zeta_table(20)
        for m, val in enumerate(table, start=1):
            assert val == pytest.approx(float(special.zeta(2 * m + 1)), abs=1e-13)

    def test_odd_zeta_correctly_rounded(self):
        # each value is mpmath's zeta rounded to the nearest double
        with mpmath.workdps(50):
            expect = [float(mpmath.zeta(2 * m + 1)).hex() for m in range(1, 21)]
        assert [v.hex() for v in kr.odd_zeta_table(20)] == expect

    def test_odd_zeta_window_and_monotonicity(self):
        vals = kr.odd_zeta_table(20)
        assert all(1.0 < v < 1.21 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTrigamma:
    def test_against_scipy_polygamma(self):
        for x in np.concatenate([np.linspace(0.05, 3, 40), np.linspace(3, 200, 40)]):
            assert kr.trigamma(float(x)) == pytest.approx(
                float(special.polygamma(1, x)), rel=1e-13, abs=1e-13
            )

    def test_against_mpmath(self):
        # across the shift recurrence, the crossover at 8 and the asymptotic
        # series: 4.28e-16 relative at worst on these points (about 2 ulps)
        rng = np.random.default_rng(5)
        xs = np.concatenate([np.geomspace(1e-3, 1e5, 200), rng.uniform(1e-3, 20.0, 100),
                             [np.nextafter(8.0, 0.0), 8.0, 0.5, 1.0]])
        with mpmath.workdps(40):
            rel = [abs((mpmath.mpf(float(v)) - mpmath.psi(1, float(x))) / mpmath.psi(1, float(x)))
                   for x, v in zip(xs, kr.trigamma(xs))]
        assert float(max(rel)) <= 4.3e-16

    def test_closed_forms(self):
        assert kr.trigamma(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-13)
        assert kr.trigamma(0.5) == pytest.approx(math.pi**2 / 2, abs=1e-13)

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_shift_recurrence(self, x):
        assert kr.trigamma(x) - kr.trigamma(x + 1.0) == pytest.approx(1.0 / x**2, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kr.trigamma(-1.0)


class TestFejerK:
    def test_anchor_values(self):
        assert kr.fejer_K(0.0) == 1.0
        assert kr.fejer_K(1.0) == pytest.approx(0.0, abs=1e-30)
        assert kr.fejer_K(0.5) == pytest.approx(4.0 / math.pi**2, rel=1e-15)

    @given(st.floats(min_value=-100, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_range(self, x):
        assert 0.0 <= float(kr.fejer_K(x)) <= 1.0

    def test_exactly_zero_at_nonzero_integers(self):
        # np.sinc's sin(pi x) leaves up to 3e-33 there
        ints = np.arange(1.0, 41.0)
        x = np.concatenate([ints, -ints, [2.0**52, -(2.0**52), 4.6e15, math.inf, -math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = kr.fejer_K(x)
            scalars = [kr.fejer_K(float(v)) for v in x]
        assert np.array_equal(k, np.zeros(x.size)) and not np.signbit(k).any()
        assert all(v == 0.0 and not math.copysign(1.0, v) < 0 for v in scalars)

    def test_other_points_keep_the_sinc_bits(self):
        ints = np.arange(-40.0, 41.0)
        x = np.concatenate([ints + 1e-12, ints - 1e-12, ints + 0.5, [0.0, -0.0, 5e-324, 2.0**51 + 0.5, -(2.0**51) - 0.5],
                            np.random.default_rng(9).uniform(-1e6, 1e6, 2000)])
        assert np.array_equal(kr.fejer_K(x), np.float_power(np.sinc(x), 2))
        assert np.isnan(kr.fejer_K(math.nan))


class TestW:
    def test_closed_forms(self):
        assert kr.W_eval(0.0) == 0.0
        assert kr.W_eval(0.5) == pytest.approx(8.0 / math.pi**2, abs=1e-13)
        for k in (1, 2, 5, 17):
            assert kr.W_eval(float(k)) == pytest.approx(1.0, abs=1e-13)

    def test_fast_vs_oracle(self):
        xs = np.linspace(-30, 30, 101)
        gap = np.abs(kr.W_eval(xs) - kr.W_eval(xs, mode="oracle"))
        assert np.all(gap <= 1e-10), xs[~(gap <= 1e-10)]

    def test_oracle_far_out_against_mpmath(self):
        # W = (sin pi x / pi)^2 (psi_1(1 - x) - psi_1(1 + x) + 2/x), at 40 digits
        with mpmath.workdps(40):
            for x in (99.7, 512.25, 999.3, 3000.4, -4999.9):
                m = mpmath.mpf(x)
                ref = (mpmath.sin(mpmath.pi * m) / mpmath.pi) ** 2 * (
                    mpmath.psi(1, 1 - m) - mpmath.psi(1, 1 + m) + 2 / m)
                assert abs(kr.W_eval(x, mode="oracle") - float(ref)) <= 1e-14

    def test_oracle_rejects_x_beyond_its_tail_bracket(self):
        # the tail expansion needs SERIES_TERMS -+ x large; at |x| >= SERIES_TERMS
        # it would be evaluated at w <= 0
        for x in (kr.SERIES_TERMS / 2 + 0.5, -1e6 - 0.5, 1e6 + 0.5, math.nan):
            with pytest.raises(ValueError, match="^x "):
                kr.W_eval(np.array([0.3, x]), mode="oracle")

    @given(st.floats(min_value=-40, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_oddness(self, x):
        assert kr.W_eval(x) + kr.W_eval(-x) == pytest.approx(0.0, abs=1e-12)

    def test_one_sided_window(self):
        # for x > 0: 1 - K(x) <= W(x) <= 1, mirrored for x < 0
        rng = np.random.default_rng(11)
        xs = rng.uniform(1e-6, 50, 2000)
        k, w, w_neg = kr.fejer_K(xs), kr.W_eval(xs), kr.W_eval(-xs)
        ok = (1.0 - k - 1e-12 <= w) & (w <= 1.0 + 1e-12)
        ok &= (-1.0 - 1e-12 <= w_neg) & (w_neg <= -1.0 + k + 1e-12)
        assert ok.all(), xs[~ok]

    def test_taylor_identity_small_x(self):
        # W/K - 2x - sum of odd-zeta terms bounded by the first omitted term
        zs = kr.odd_zeta_table(20)
        for x in np.linspace(-0.4, 0.4, 41):
            if x == 0:
                continue
            series = 2.0 * x + sum(
                4 * m * zs[m - 1] * x ** (2 * m + 1) for m in range(1, 21)
            )
            lhs = kr.W_eval(float(x)) / float(kr.fejer_K(x))
            omitted = 4 * 21 * 1.0000000002 * abs(x) ** 43
            assert abs(lhs - series) <= omitted + 1e-13

    def test_decay_diagnostic(self):
        # |W - sgn| * x^3 stays bounded on [5, 100]
        worst = max(
            abs(kr.W_eval(float(x)) - np.sign(float(x))) * x**3
            for x in np.linspace(5, 100, 400)
        )
        assert worst < 10.0


class TestFamily:
    def test_anchor_values(self):
        assert kr.B_eval(0.0) == pytest.approx(1.0, abs=1e-13)
        assert kr.b_eval(0.0) == pytest.approx(-1.0, abs=1e-13)
        assert kr.B_eval(0.5) == pytest.approx(12.0 / math.pi**2, abs=1e-13)
        assert kr.b_eval(0.5) == pytest.approx(4.0 / math.pi**2, abs=1e-13)
        assert kr.S_eval(1.0, 0.5) == pytest.approx(12.0 / math.pi**2, abs=1e-13)

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_majorant_sandwich(self, x):
        assert kr.b_eval(x) - 1e-12 <= np.sign(x) <= kr.B_eval(x) + 1e-12

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_reflection_and_distance(self, x):
        k = float(kr.fejer_K(x))
        assert kr.B_eval(x) + kr.B_eval(-x) == pytest.approx(2.0 * k, abs=1e-12)
        assert abs(kr.B_eval(x) - np.sign(x)) <= 2.0 * k + 1e-12
        assert abs(kr.b_eval(x) - np.sign(x)) <= 2.0 * k + 1e-12

    def test_strictness_off_integers(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-50, 50, 2000)
        xs = xs[np.abs(xs - np.round(xs)) > 1e-3][:1000]
        ok = (kr.b_eval(xs) < np.sign(xs)) & (np.sign(xs) < kr.B_eval(xs))
        assert ok.all(), xs[~ok]

    def test_interval_sandwich(self):
        rng = np.random.default_rng(7)
        for ell in (0.5, 1.0, 2.0, 7.5):
            xs = rng.uniform(-20, 20, 3000)
            lo, hi = kr.sigma_eval(ell, xs), kr.S_eval(ell, xs)
            chi = chi_box(xs, ell)
            gap = kr.fejer_K(xs) + kr.fejer_K(ell - xs)
            ok = (lo - 1e-12 <= chi) & (chi <= hi + 1e-12) & (hi - lo <= 2.0 * gap + 1e-12)
            assert ok.all(), (ell, xs[~ok])

    def test_integer_ell_matches_direct_series(self):
        for ell in (1, 2, 3):
            for x in np.linspace(-5, ell + 5, 41):
                direct = interval_majorant_direct(ell, float(x))
                assert kr.S_eval(float(ell), float(x)) == pytest.approx(direct, abs=1e-9)


class TestQAndLambda:
    def test_anchors(self):
        assert kr.Q_eval(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
        assert kr.Q_eval(1.0) == pytest.approx(0.0, abs=1e-13)
        assert kr.Q_eval(0.5) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
        assert kr.Q_eval(1.7) == 0.0

    @given(st.floats(min_value=-1, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_evenness(self, v):
        assert kr.Q_eval(v) == pytest.approx(kr.Q_eval(-v), abs=1e-14)

    def test_reflection_sum(self):
        vs = np.linspace(0, 1, 201)
        assert kr.Q_eval(vs) + kr.Q_eval(1.0 - vs) == pytest.approx(
            np.full(vs.shape, 1.0 / math.pi), abs=1e-12
        )

    def test_lambda_value_and_brackets(self):
        lam = kr.lambda_constant()
        assert lam == pytest.approx(0.3263598, abs=5e-8)
        assert lam >= 1.0 / math.pi
        assert lam < 0.5

    def test_fourier_side_profile(self):
        for x in (0.5, -0.5, 0.3, 1.7):
            val, err = kr.fourier_W_check(x)
            assert abs(val - kr.W_eval(x)) <= max(err, 1e-8)
        val0, _ = kr.fourier_W_check(0.0)
        assert val0 == pytest.approx(0.0, abs=1e-12)

    # the values and estimates of the W-only integrand, before it took k_coeff K
    @pytest.mark.parametrize(
        "x, val, err",
        [
            (0.5, "0x1.9f02f6222c71fp-1", "0x1.443a4fc7769bbp-47"),
            (-0.3, "-0x1.1c12411a93aa3p-1", "0x1.bbdc851b47e6cp-48"),
            (1.7, "0x1.fdd3ed8c79e22p-1", "0x1.09605a39c65a5p-46"),
            (10.0, "0x1.fffffffffffffp-1", "0x1.99b906a5cc5a4p-46"),
            (1e-9, "0x1.12e0be826d695p-29", "0x1.ad7f291dd0171p-76"),
        ],
    )
    def test_fourier_side_W_pinned(self, x, val, err):
        assert tuple(v.hex() for v in kr.fourier_W_check(x)) == (val, err)


class TestExtremalFamily:
    def test_eta_zero_majorant(self):
        rep = extremal_family_check(1, 0.0, np.linspace(-10, 10, 1001))
        assert rep.majorant_ok

    def test_small_eta_majorant_and_vanishing_extra(self):
        rep = extremal_family_check(1, 0.05, np.linspace(-10, 10, 10001))
        assert rep.majorant_ok
        # the extra term's integral stays small as the cutoff radius grows
        vals = [abs(v) for _, v in rep.extra_integrals]
        assert vals[-1] < vals[0] + 1e-9
        assert vals[-1] < 0.05


class TestBracketIntegrals:
    def test_majorant_l1_bracket(self):
        # integral of (B - sgn) over [-50, 50] plus tail bracket contains 1
        for func in (
            lambda x: kr.B_eval(x) - np.sign(x),
            lambda x: np.sign(x) - kr.b_eval(x),
        ):
            lo, e1 = integrate.quad(func, -50, 0, limit=400)
            hi, e2 = integrate.quad(func, 0, 50, limit=400)
            body = lo + hi
            tail = 4.0 / (math.pi**2 * 50)
            assert e1 + e2 <= 1e-6
            assert body - 1e-6 <= 1.0 <= body + tail + 1e-6
