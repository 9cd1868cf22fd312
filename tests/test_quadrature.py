"""The one integrator: every site that uses it against SciPy quad or a closed form."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from bslib import esseen1d as e1
from bslib import interpolation as ip
from bslib import kernels as kr
from references import extremal_family_check


def _pv_exp():
    # pv int_{-1}^{1} e^v / v dv = 2 * int_0^1 sinh(v)/v dv
    val, err = e1.pv_integral(lambda v: np.exp(v) / v, 1.0)
    ref, ref_err = integrate.quad(lambda v: 2.0 * math.sinh(v) / v, 0, 1)
    return val, err, ref, ref_err


def _pv_cos():
    val, err = e1.pv_integral(np.cos, 2.0)
    return val, err, 2.0 * math.sin(2.0), 0.0


def _fourier_w(x):
    # W(x) = 2 int_0^1 (Q(v)/v) sin(2 pi x v) dv; W(1/2) = 8/pi^2 in closed form
    val, err = kr.fourier_W_check(x)
    if x == 0.5:
        return val, err, 8.0 / math.pi**2, 0.0
    ref, ref_err = integrate.quad(lambda v: float(kr.Q_eval(v)) / v * math.sin(2.0 * math.pi * x * v),
                                  0.0, 1.0, limit=200)
    return val, err, 2.0 * ref, 2.0 * ref_err


def _family(ell, eta, i):
    rep = extremal_family_check(ell, eta, np.linspace(-10, 10, 101))
    R, val = rep.extra_integrals[i]

    def extra(x):
        if x == 0.0 or x == ell:
            return 0.0
        return (math.sin(math.pi * x) / math.pi) ** 2 * ell / (x * (ell - x))

    ref, ref_err = integrate.quad(extra, -R, R, points=[0.0, float(ell)], limit=400)
    return val, rep.extra_errors[i], ref, ref_err


def _parseval_rhs():
    detail = ip.parseval_residual().detail
    val = detail["rhs"] - 2.0 * (4.0 / math.pi**4) / (3.0 * 200**3)  # less the tail term
    ref = ref_err = 0.0
    for a in range(-200, 200):  # quad of K^2 one unit panel at a time
        v, e = integrate.quad(lambda x: (math.sin(math.pi * x) / (math.pi * x)) ** 4, a, a + 1)
        ref, ref_err = ref + v, ref_err + e
    return val, detail["rhs_quad_err"], ref, ref_err


@pytest.mark.parametrize(
    "site",
    [
        _pv_exp,
        _pv_cos,
        lambda: _fourier_w(0.5),
        lambda: _fourier_w(-0.3),
        lambda: _fourier_w(1.7),
        lambda: _fourier_w(2.9),
        lambda: _family(1, 0.0, 0),
        lambda: _family(1, 0.05, 2),
        lambda: _family(3, 0.2, 1),
        _parseval_rhs,
    ],
    ids=["pv_exp", "pv_cos", "fourier_W_half", "fourier_W_-0.3", "fourier_W_1.7", "fourier_W_2.9",
         "family_1_R10.5", "family_1_R40.5", "family_3_R20.5", "parseval_rhs"],
)
def test_site_matches_reference_within_its_error(site):
    val, err, ref, ref_err = site()
    assert abs(val - ref) <= err + ref_err


@pytest.mark.parametrize("site", [_pv_exp, _pv_cos], ids=["pv_exp", "pv_cos"])
def test_pv_estimate_covers_excluded_piece(site):
    # the paired integrands 2 sinh(v)/v and 2 cos(v) fall away from 0, so a
    # Cauchy step alone is short of the excluded [-eps, eps] piece
    val, err, ref, ref_err = site()
    assert err >= 1.01 * abs(val - ref) + ref_err


@pytest.mark.parametrize("x", [0.5, -0.3, 2.9, 10.0])
def test_fourier_W_estimate_not_padded(x):
    # the replaced [0, 1e-8] piece adds O((|x| + |x|^3) 1e-24) to the
    # estimate, so the panels' own estimates make it up
    assert kr.fourier_W_check(x)[1] <= 1e-12


def test_runtime_imports_no_scipy_integrate_or_optimize():
    # the runtime needs numpy alone: no scipy module at all, after every
    # bslib module is imported and the CLI has run its lazy imports
    code = (
        "import sys, io, contextlib, importlib, pkgutil\n"
        "import bslib, bslib.cli\n"
        "for m in pkgutil.iter_modules(bslib.__path__):\n"
        "    importlib.import_module('bslib.' + m.name)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    bslib.cli.main(['eval', '--fn', 'W', '--x', '0.5'])\n"
        "    bslib.cli.main(['verify', '--suite', 'all'])\n"
        "    bslib.cli.main(['demo', '--scenario', 'esseen1d-binomial'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(kr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
