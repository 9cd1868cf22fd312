"""Band-limited interpolation: reconstruction accuracy and identity residuals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bslib import interpolation as ip
from bslib.kernels import fejer_K


def _fejer(x):
    return fejer_K(x)


def _fejer_prime(x):
    h = 1e-6
    return (fejer_K(x + h) - fejer_K(x - h)) / (2 * h)


class TestCardinalSeries:
    def test_reconstructs_band_limited_function(self):
        # K has exponential type 2*pi, i.e. alpha = 1: samples at k/2
        samples = ip.sample_function(_fejer, 1.0, 400, 0.5, decay_const=0.2, decay_exponent=2.0)
        for z in (0.17, -1.3, 2.71, 0.49):
            val, err = ip.cardinal_series(samples, z)
            assert abs(val - _fejer(z)) <= err + 1e-9
            assert abs(val - _fejer(z)) <= 5e-4

    def test_exact_at_nodes(self):
        samples = ip.sample_function(_fejer, 1.0, 50, 0.5)
        for k in (-3, 0, 7):
            val, err = ip.cardinal_series(samples, k * 0.5)
            assert val == samples.values[k + samples.M]
            assert err == 0.0

    def test_idempotence(self):
        # reconstruct, resample the reconstruction, reconstruct again
        samples = ip.sample_function(_fejer, 1.0, 300, 0.5, decay_const=0.2)

        def recon(z):
            return ip.cardinal_series(samples, z)[0]

        samples2 = ip.sample_function(recon, 1.0, 300, 0.5, decay_const=0.2)
        for z in (0.13, -0.77, 1.9):
            v1, _ = ip.cardinal_series(samples, z)
            v2, _ = ip.cardinal_series(samples2, z)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_extended_mode_on_z_times_f(self):
        # extended reconstruction of g(z) = z * f(z) from the same lattice
        # matches basic reconstruction of g
        def g(z):
            return z * _fejer(z)

        def gprime(z):
            return _fejer(z) + z * _fejer_prime(z)

        basic = ip.sample_function(g, 1.0, 400, 0.5, decay_const=0.5, decay_exponent=1.5)
        extended = ip.sample_function(
            g, 1.0, 400, 0.5, fprime=gprime, decay_const=0.5, decay_exponent=1.5
        )
        for z in (0.23, -1.11, 3.4):
            vb, eb = ip.cardinal_series(basic, z, mode="basic")
            ve, ee = ip.cardinal_series(extended, z, mode="extended")
            assert abs(vb - ve) <= eb + ee + 1e-9
            assert abs(ve - g(z)) <= ee + 1e-9
            # the compensated form converges faster than the plain series
            assert abs(ve - g(z)) <= max(abs(vb - g(z)), 1e-9)

    def test_extended_requires_derivatives(self):
        samples = ip.sample_function(_fejer, 1.0, 10, 0.5)
        with pytest.raises(ValueError, match="^derivatives"):
            ip.cardinal_series(samples, 0.3, mode="extended")


class TestValueDerivativeFormula:
    def test_reconstructs_from_integer_lattice(self):
        samples = ip.sample_function(
            _fejer, 1.0, 400, 1.0, fprime=_fejer_prime, decay_const=0.2, decay_exponent=2.0
        )
        for z in (0.37, -2.2, 5.5):
            val, err = ip.vaaler_interpolation(samples, z)
            assert abs(val - _fejer(z)) <= err + 1e-5

    def test_node_short_circuit(self):
        samples = ip.sample_function(_fejer, 1.0, 20, 1.0, fprime=_fejer_prime)
        val, err = ip.vaaler_interpolation(samples, 3.0)
        assert val == samples.values[3 + samples.M]
        assert err == 0.0


def _formulas():
    """Reconstruct-at-z functions of the basic, extended and value+derivative formulas."""
    basic = ip.sample_function(_fejer, 1.0, 60, 0.5, decay_const=0.2)
    g = lambda z: z * fejer_K(z)
    gp = lambda z: fejer_K(z) + z * _fejer_prime(z)
    ext = ip.sample_function(g, 1.0, 60, 0.5, fprime=gp, decay_const=0.5, decay_exponent=1.5)
    vd = ip.sample_function(_fejer, 1.0, 30, 1.0, fprime=_fejer_prime, decay_const=0.2)
    return [
        lambda z: ip.cardinal_series(basic, z),
        lambda z: ip.cardinal_series(ext, z, mode="extended"),
        lambda z: ip.vaaler_interpolation(vd, z),
    ]


# nodes of both lattices, points within the node window, beyond the sampled
# range (|z| > 30), and points between
_TABLE = np.concatenate([np.arange(-3.0, 3.01, 0.25), [1.0 + 1e-13, -2.0 - 5e-7, 0.4 + 1e-12,
                                                      31.3, -45.7, 0.5 + 2e-6, -7.3, 12.5]])


def _hex(arr):
    return [float(v).hex() for v in np.ravel(arr)]


class TestPhaseReach:
    # past the largest |z| whose sine phase is finite, 2 pi z for the
    # cardinal series at alpha = 1 and pi z for the value+derivative
    # formula, each raises; below it both give finite cells, quietly
    @pytest.mark.parametrize("which, reach", [("cardinal", 2.86e307), ("vaaler", 5.72e307)])
    def test_raises_past_the_reach_and_is_finite_below(self, which, reach):
        if which == "cardinal":
            samples = ip.sample_function(fejer_K, 1.0, 20, 0.5)
            formula = ip.cardinal_series
        else:
            samples = ip.sample_function(fejer_K, 1.0, 20, 1.0, lambda t: 0.0 * t)
            formula = ip.vaaler_interpolation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, err = formula(samples, np.array([1e154, 1e200, reach, -reach]))
            assert np.isfinite(val).all() and np.isfinite(err).all()
            for z in (1.001 * reach, -1e308, np.array([0.3, 1.7976931348623157e308])):
                with pytest.raises(ValueError, match="^z must be finite, and so must the sine phase"):
                    formula(samples, z)


class TestArrayContract:
    def test_sample_function_calls_once_on_the_node_array(self):
        calls = {"f": [], "fprime": []}

        def f(x):
            calls["f"].append(np.array(x))
            return fejer_K(x)

        def fprime(x):
            calls["fprime"].append(np.array(x))
            return _fejer_prime(x)

        samples = ip.sample_function(f, 1.0, 7, 1.0, fprime=fprime)
        nodes = np.arange(-7, 8) * 1.0
        for name in ("f", "fprime"):
            assert len(calls[name]) == 1
            assert np.array_equal(calls[name][0], nodes)
        assert np.array_equal(samples.values, fejer_K(nodes))
        assert not samples.values.flags.writeable
        assert not samples.derivatives.flags.writeable

    @pytest.mark.parametrize("which", range(3))
    def test_array_equals_pointwise(self, which):
        recon = _formulas()[which]
        values, errs = recon(_TABLE)
        rows = [recon(float(z)) for z in _TABLE]
        assert all(isinstance(v, float) and isinstance(e, float) for v, e in rows)
        assert _hex(values) == [v.hex() for v, _ in rows]
        assert _hex(errs) == [e.hex() for _, e in rows]
        # z's shape comes back, and the node rows give no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid_v, grid_e = recon(_TABLE[:24].reshape(4, 6))
        assert grid_v.shape == grid_e.shape == (4, 6)
        assert _hex(grid_v) == _hex(values[:24])

    @pytest.mark.parametrize("block", [1, 7])
    def test_rows_do_not_depend_on_block_size(self, monkeypatch, block):
        expect = [(_hex(v), _hex(e)) for v, e in (recon(_TABLE) for recon in _formulas())]
        monkeypatch.setattr(ip, "_BLOCK", block)
        got = [(_hex(v), _hex(e)) for v, e in (recon(_TABLE) for recon in _formulas())]
        assert got == expect


class TestClassicalIdentities:
    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_cosecant_partial_fractions(self, w):
        rep = ip.csc_residual(w)
        assert rep.ok
        assert rep.residual <= rep.tail_bound + 1e-12

    def test_quadratic_partition_of_unity(self):
        for x in (0.37, -0.2, 1.9, 0.5):
            rep = ip.fejer_residual(x)
            assert rep.ok

    def test_sandwich_bounds(self):
        for omega in (1.0, 2.0, 5.0, 20.0):
            assert ip.sandwich_residual(omega).ok
            assert ip.refined_sandwich_residual(omega).ok

    def test_poisson_summation(self):
        rep = ip.poisson_residual(2.0)
        assert rep.ok
        assert rep.residual <= 1e-12

    def test_parseval_sampling(self):
        rep = ip.parseval_residual()
        assert rep.ok
        assert rep.residual <= 1e-8
        assert rep.detail["lhs"] == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_derivative_bound(self):
        rep = ip.bernstein_residual()
        assert rep.ok


class TestSampleSetValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^values"):
            ip.SampleSet(1.0, 2, (0.0, 1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="^values"):
            ip.SampleSet(1.0, 1, (0.0, math.nan, 0.0))
