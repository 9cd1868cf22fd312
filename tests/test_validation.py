"""Validation raises ValueError naming the parameter, also under python -O.

`python -O` strips `assert` statements, so every check must raise
explicitly.  The lint below keeps asserts out of the modules altogether,
the checks of the tables they compute themselves included.
"""

import ast
import dataclasses
import importlib
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bslib import clt
from bslib import esseen1d as e1
from bslib import esseen_multi as em
from bslib import interpolation as ip
from bslib import kernels as kr

SRC = Path(kr.__file__).parent

def _asserts(path: Path) -> list[tuple[str, str, int]]:
    """(file, enclosing qualified name, line) of every assert in the file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((path.name, ".".join(scope), child.lineno))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, (*scope, child.name) if named else scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_asserts_only_guard_internal_invariants(tmp_path):
    found = [a for p in sorted(SRC.glob("*.py")) for a in _asserts(p)]
    assert not found, f"check by assert (stripped by python -O): {found}"
    probe = tmp_path / "probe.py"
    probe.write_text("class T:\n    def f(self):\n        assert self\n")
    assert _asserts(probe) == [("probe.py", "T.f", 3)]  # the lint sees them


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_public_names_resolve(module):
    mod = importlib.import_module(f"bslib.{module}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"bslib.{module}.__all__ names what it does not define: {missing}"


_SAMPLES = ip.sample_function(np.cos, 1.0, 3, 0.5)
_VD = ip.sample_function(np.cos, 1.0, 3, 1.0, lambda t: -np.sin(t))
_F2 = em.product_law([e1.standardized_binomial(16)] * 2)
_G2 = em.product_normal_target(2)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: kr.bernoulli_numbers(1), "n"),
        (lambda: kr.interval_majorant_direct(1.5, 0.3), "ell"),
        (lambda: kr.interval_majorant_direct(0, 0.3), "ell"),
        (lambda: kr.interval_majorant_direct(math.inf, 0.3), "ell"),
        (lambda: kr.extremal_family_check(2.5, 0.1, [0.5]), "ell"),
        (lambda: kr.extremal_family_check(math.nan, 0.1, [0.5]), "ell"),
        (lambda: ip.SampleSet(0.0, 1, (0.0, 1.0, 0.0)), "alpha"),
        (lambda: ip.SampleSet(1.0, 0, (0.0,)), "M"),
        (lambda: ip.SampleSet(1.0, 1, (0.0, 1.0, 0.0), derivatives=(0.0,)), "derivatives"),
        (lambda: ip.SampleSet(1.0, 1, (0.0, 1.0, 0.0), derivatives=(0.0, math.nan, 0.0)), "derivatives"),
        (lambda: _SAMPLES.derivative(0), "derivatives"),
        (lambda: ip.vaaler_interpolation(_SAMPLES, 0.3), "derivatives"),
        (lambda: ip.cardinal_series(_SAMPLES, 0.3, mode="extended"), "derivatives"),
        (lambda: ip.cardinal_series(_SAMPLES, math.nan), "z"),
        (lambda: ip.cardinal_series(_SAMPLES, math.inf), "z"),
        (lambda: ip.cardinal_series(_SAMPLES, np.array([0.3, -math.inf])), "z"),
        (lambda: ip.vaaler_interpolation(_VD, math.nan), "z"),
        (lambda: ip.vaaler_interpolation(_VD, math.inf), "z"),
        (lambda: ip.vaaler_interpolation(_VD, np.array([0.3, -math.inf])), "z"),
        # a z whose sine phase, 2 pi z or pi z, overflows
        pytest.param(lambda: ip.cardinal_series(_SAMPLES, 1e308), "z", id="cardinal-z-phase-overflow"),
        pytest.param(lambda: ip.cardinal_series(_SAMPLES, np.array([0.3, -2.9e307])), "z",
                     id="cardinal-z-array-phase-overflow"),
        pytest.param(lambda: ip.vaaler_interpolation(_VD, -5.8e307), "z", id="vaaler-z-phase-overflow"),
        (lambda: clt.MonteCarloConfig(seed=1, samples=10**3, N=0), "N"),
        (lambda: clt.lyapunov_normalizer(
            clt.CoefficientScheme(lambda N: np.ones((N, 2))), 4), "scheme"),
        (lambda: clt.ks_distance(np.array([0.5, 0.1]), lambda x: x), "samples"),
        (lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (0.3, -0.4), panels=0, order=0), "panels"),
        (lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (0.3, -0.4), panels=-2), "panels"),
        (lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (0.3, -0.4), order=0), "order"),
        (lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (0.3, -0.4), panels=2.5), "panels"),
        (lambda: em.esseen_bound_truncated(_F2, _G2, (12, 12), delta=8.0, panels=0), "panels"),
        (lambda: em.esseen_bound_truncated(_F2, _G2, (12, 12), delta=8.0, order=-1), "order"),
        (lambda: em.esseen_bound_slab(_F2, _G2, (12, 12), panels=0), "panels"),
        (lambda: em.esseen_bound_slab(_F2, _G2, (12, 12), order=True), "order"),
        # a law's factors are k laws on R, held in a tuple
        (lambda: e1.Law(_G2.cdf, _G2.cf, (2.0, 2.0), k=2, factors=(e1.normal_law(),)), "factors"),
        (lambda: e1.Law(_G2.cdf, _G2.cf, (2.0, 2.0), k=2, factors=(e1.normal_law(), _G2)), "factors"),
        (lambda: e1.Law(_G2.cdf, _G2.cf, (2.0, 2.0), k=2, factors=(e1.normal_law(), "N")), "factors"),
        (lambda: e1.Law(_G2.cdf, _G2.cf, (2.0, 2.0), k=2, factors=[e1.normal_law()] * 2), "factors"),
        (lambda: dataclasses.replace(_F2, k=3), "factors"),
        # law constructors, with their own ids so that the ones above keep theirs
        pytest.param(lambda: e1.normal_law(0.0, -1.0), "sigma", id="normal-sigma-negative"),
        pytest.param(lambda: e1.normal_law(0.0, 0.0), "sigma", id="normal-sigma-zero"),
        pytest.param(lambda: e1.normal_law(0.0, math.nan), "sigma", id="normal-sigma-nan"),
        pytest.param(lambda: e1.normal_law(0.0, math.inf), "sigma", id="normal-sigma-inf"),
        pytest.param(lambda: e1.normal_law(math.nan), "mu", id="normal-mu-nan"),
        pytest.param(lambda: e1.normal_law(-math.inf, 1.0), "mu", id="normal-mu-inf"),
        pytest.param(lambda: e1.standardized_binomial(0), "n", id="binomial-n-zero"),
        pytest.param(lambda: e1.standardized_binomial(-4), "n", id="binomial-n-negative"),
        pytest.param(lambda: e1.standardized_binomial(2.5), "n", id="binomial-n-fraction"),
        pytest.param(lambda: e1.standardized_binomial(16.0), "n", id="binomial-n-float"),
        pytest.param(lambda: e1.standardized_binomial(True), "n", id="binomial-n-bool"),
        pytest.param(lambda: e1.irwin_hall_standardized(0), "n", id="irwin-hall-n-zero"),
        pytest.param(lambda: e1.irwin_hall_standardized(1.5), "n", id="irwin-hall-n-fraction"),
        pytest.param(lambda: e1.irwin_hall_standardized(True), "n", id="irwin-hall-n-bool"),
        # a law whose moment or density bound would be NaN, infinite or zero
        pytest.param(lambda: e1.gaussian_mollify(e1.point_mass(0.0), math.inf), "eps", id="mollify-eps-inf"),
        pytest.param(lambda: e1.gaussian_mollify(e1.point_mass(0.0), 1e300), "eps",
                     id="mollify-eps-moment-overflow"),
        pytest.param(lambda: e1.gaussian_mollify(e1.point_mass(0.0), 1e-320), "eps",
                     id="mollify-eps-density-overflow"),
        pytest.param(lambda: e1.point_mass(math.nan), "x0", id="point-mass-nan"),
        pytest.param(lambda: e1.point_mass(math.inf), "x0", id="point-mass-inf"),
        pytest.param(lambda: clt.alternating_vector_scheme(0), "J", id="alternating-J-zero"),
        pytest.param(lambda: clt.alternating_vector_scheme(-1), "J", id="alternating-J-negative"),
        pytest.param(lambda: clt.rademacher_product_law(0.0), "scale", id="rademacher-scale-zero"),
        pytest.param(lambda: clt.rademacher_product_law(math.nan), "scale", id="rademacher-scale-nan"),
        # the tables kernels computes for itself
        pytest.param(lambda: kr.BernoulliTable(()), "values", id="bernoulli-empty"),
        pytest.param(lambda: kr.BernoulliTable((Fraction(2),)), "values", id="bernoulli-b0"),
        pytest.param(lambda: kr.BernoulliTable((1, Fraction(1, 2))), "values", id="bernoulli-b1"),
        pytest.param(lambda: kr.OddZetaTable((1.2, 1.0)), "values", id="odd-zeta-one"),
        pytest.param(lambda: kr.OddZetaTable((1.3,)), "values", id="odd-zeta-large"),
        pytest.param(lambda: kr.OddZetaTable((math.nan,)), "values", id="odd-zeta-nan"),
    ],
)
def test_bad_parameter_named(call, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


def test_ring_expansion_rejects_non_positive_monomial(monkeypatch):
    # every product expands to one monomial, so S = 1 + (k - 1)*5 - k*5 < 0 on it
    monkeypatch.setattr(em, "_expand", lambda factors: Counter({("chi", "chi"): 5}))
    with pytest.raises(ArithmeticError, match=r"monomial \('chi', 'chi'\) has coefficient -4 "):
        em.selberg_ring_expansion(2)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (0.3, -0.4, 0.2)), "t"),
        (lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (0.3,)), "t"),
        (lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (math.nan, 0.1)), "t"),
        (lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (math.inf, 0.0)), "t"),
        (lambda: em.esseen_bound_slab(_F2, _G2, (12, 12), tau=0.0), "tau"),
        (lambda: em.esseen_bound_slab(_F2, _G2, (12, 12), tau=-1.0), "tau"),
        (lambda: em.esseen_bound_slab(_F2, _G2, (12, 12), tau=math.nan), "tau"),
        (lambda: em.esseen_bound_slab(_F2, _G2, (12, 12), tau=math.inf), "tau"),
    ],
)
def test_bad_k_bound_argument_named(call, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: em.esseen_bound_k(_F2, _G2, (12, 12), (0.3, -0.4), None),
        lambda: em.esseen_bound_truncated(_F2, _G2, (12, 12), 8.0),
        lambda: em.esseen_bound_slab(_F2, _G2, (12, 12), (0.3, -0.4)),
    ],
)
def test_k_bound_options_keyword_only(call):
    with pytest.raises(TypeError):
        call()
