"""Batch command-line front door.

Subcommands: `eval` (single kernel/function values), `table` (CSV sweeps),
`verify` (module invariant suites), and `demo` (smoothing-bound and CLT
scenarios).  Every run emits its manifest beside the results; JSON output
uses the fixed key set {manifest, checks, bounds, measurements, verdicts,
runtime_ms} and CSV rows carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import interpolation as ip
from . import kernels as kr

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

CONFIG_ENV_VAR = "BSLIB_CONFIG"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _is_tol(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 < v < math.inf


# what each BSLIB_CONFIG value must satisfy; other keys are ignored
_CONFIG_KEYS = {
    "tol": (_is_tol, "a finite number > 0"),
    "seed": (lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool)), "an integer"),
    "format": (lambda v: v in ("csv", "json"), "csv or json"),
}


def _load_config() -> dict:
    """The checked JSON object in the file that BSLIB_CONFIG names; {} if it is unset."""
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{CONFIG_ENV_VAR} {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{CONFIG_ENV_VAR} {path}: must hold a JSON object")
    for key, (valid, need) in _CONFIG_KEYS.items():
        if key in config and not valid(config[key]):
            raise ValueError(f"{CONFIG_ENV_VAR} {path}: {key} must be {need} (got {config[key]!r})")
    return config


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    tolerances: dict
    constant_overrides: dict
    output: str | None
    format: str


def _constant_floors(args) -> dict:
    """The bound constants the command reads, each with its validity floor:
    the bound module's default.  Overrides below a floor need --unsafe,
    since they can make the reported bound unsound."""
    if args.command != "demo" or args.scenario not in ("esseen1d-binomial", "esseen-k"):
        return {}
    from . import esseen1d as e1

    k = 1 if args.scenario == "esseen1d-binomial" else _demo_param(args, "k")
    if k == 1:
        return {"c1": e1.C1_DEFAULT, "c2": e1.C2_DEFAULT}
    from . import esseen_multi as em

    return {name: getattr(em.BoundConstants.for_k(k), name) for name in ("c1", "c2", "c5", "c6")}


def _parse_overrides(pairs: list[str], unsafe: bool, floors: dict) -> dict:
    out = {}
    for pair in pairs:
        name, _, text = pair.partition("=")
        if name not in floors:
            raise ValueError(
                f"--const {pair}: this command does not read {name!r} "
                f"(it reads {', '.join(floors) or 'none'})"
            )
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise ValueError(f"--const {pair}: the value must be a finite number")
        floor = floors[name]
        if v < floor and not unsafe:
            raise ValueError(
                f"--const {name}={v:g} is below the validity floor {floor:g}; "
                "pass --unsafe to force it"
            )
        out[name] = v
    return out


def _json_value(obj):
    """json.dumps hook: numpy scalars become Python scalars; anything else raises."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_value)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# eval / table


# KERNELS maps each --fn name to a table function (xs, ell, tol) ->
# (values, err_ests); `eval` is the one-row table.  Array kernels are looked
# up on their module at call time and called once per table, as is the
# set-up all rows share (a sample set, the lambda optimisation).


def _array_table(kernel, err=None):
    """Table of kernel(xs, ell) over the array xs; err_est is err, or echoes --tol if None."""

    def table(xs, ell, tol):
        xs = np.asarray(xs, dtype=float)
        return kernel(xs, ell), np.full(xs.shape, tol if err is None else err)

    return table


def _box_length(ell: float) -> float:
    """--ell for S and sigma, which need a finite ell > 0."""
    if not 0.0 < ell < math.inf:
        raise ValueError(f"--ell must be finite and > 0 for S and sigma (got {ell!r})")
    return ell


# the sampling-formula demos reconstruct the unit quadratic kernel
def _fejer_prime(t: np.ndarray) -> np.ndarray:
    return (kr.fejer_K(t + 1e-6) - kr.fejer_K(t - 1e-6)) / 2e-6


def _cardinal_table(xs, ell, tol):
    samples = ip.sample_function(kr.fejer_K, 1.0, 400, 0.5, decay_const=1.0, decay_exponent=2.0)
    return ip.cardinal_series(samples, xs)


def _vaaler_table(xs, ell, tol):
    samples = ip.sample_function(kr.fejer_K, 1.0, 400, 1.0, _fejer_prime, decay_const=1.0,
                                 decay_exponent=2.0)
    return ip.vaaler_interpolation(samples, xs)


KERNELS = {
    "K": _array_table(lambda xs, ell: kr.fejer_K(xs), 1e-15),
    "W": _array_table(lambda xs, ell: kr.W_eval(xs)),
    "B": _array_table(lambda xs, ell: kr.B_eval(xs)),
    "b": _array_table(lambda xs, ell: kr.b_eval(xs)),
    "S": _array_table(lambda xs, ell: kr.S_eval(_box_length(ell), xs)),
    "sigma": _array_table(lambda xs, ell: kr.sigma_eval(_box_length(ell), xs)),
    "Q": _array_table(lambda xs, ell: kr.Q_eval(xs), 1e-14),
    "lambda": _array_table(lambda xs, ell: np.full(xs.shape, kr.lambda_constant()), 5e-8),
    "cardinal": _cardinal_table,
    "vaaler": _vaaler_table,
}


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"--{flag} must be finite (got {value!r})")


def _write_lines(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tabulate(args, manifest: RunManifest, xs: list[float]) -> int:
    t0 = time.monotonic()
    values, errs = KERNELS[args.fn](xs, args.ell, args.tol)
    rows = list(zip(xs, values, errs))
    if args.format == "json":
        payload = {
            "manifest": asdict(manifest),
            "checks": [],
            "bounds": [],
            "measurements": [
                {"name": args.fn, "x": x, "value": _fmt(v), "err_est": _fmt(e)}
                for x, v, e in rows
            ],
            "verdicts": [],
            "runtime_ms": int((time.monotonic() - t0) * 1000),
        }
        _emit(payload, args.out)
    else:
        lines = ["x,value,err_est"] + [f"{_fmt(x)},{_fmt(v)},{_fmt(e)}" for x, v, e in rows]
        _write_lines(lines, args.out)
    return EXIT_OK


def cmd_eval(args, manifest: RunManifest) -> int:
    _require_finite("x", args.x)
    return _tabulate(args, manifest, [args.x])


def cmd_table(args, manifest: RunManifest) -> int:
    lo, hi, step = args.frm, args.to, args.step
    for flag, value in (("from", lo), ("to", hi), ("step", step)):
        _require_finite(flag, value)
    if step <= 0:
        raise ValueError(f"--step must be > 0 (got {step!r})")
    if hi < lo:
        raise ValueError(f"--to must be >= --from (got --from {lo!r} --to {hi!r})")
    xs = [float(x) for x in np.arange(lo, hi + step * 0.5, step)]
    return _tabulate(args, manifest, xs)


# ---------------------------------------------------------------------------
# verify suites


def _check(name: str, residual: float, tol: float) -> dict:
    return {"name": name, "residual": _fmt(residual), "tol": _fmt(tol), "pass": bool(residual <= tol)}


def _flag(name: str, ok: bool, detail: float = 0.0) -> dict:
    return {"name": name, "residual": _fmt(detail), "tol": "condition", "pass": bool(ok)}


def _suite_kernels(tol: float) -> list[dict]:
    checks = []
    lam = kr.lambda_constant()
    checks.append(_check("lambda_constant", abs(lam - 0.3263598), 5e-8))
    checks.append(_check("W_half_closed_form", abs(kr.W_eval(0.5) - 8.0 / math.pi**2), tol))
    checks.append(_check("B_at_zero", abs(kr.B_eval(0.0) - 1.0), tol))
    checks.append(_check("b_at_zero", abs(kr.b_eval(0.0) + 1.0), tol))
    checks.append(_check("Q_at_zero", abs(kr.Q_eval(0.0) - 1.0 / math.pi), 1e-14))
    vs = np.linspace(0.0, 1.0, 101)
    worst = np.max(np.abs(kr.Q_eval(vs) + kr.Q_eval(1.0 - vs) - 1.0 / math.pi))
    checks.append(_check("Q_reflection_sum", worst, 1e-12))
    xs = np.linspace(-20, 20, 81)
    worst = np.max(np.abs(kr.W_eval(xs) - kr.W_eval(xs, mode="oracle")))
    checks.append(_check("W_fast_vs_oracle", worst, 1e-10))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-40, 40, 4000)
    B, sgn = kr.B_eval(pts), np.sign(pts)
    viol = np.count_nonzero(~((kr.b_eval(pts) - 1e-12 <= sgn) & (sgn <= B + 1e-12)))
    checks.append(_check("majorant_sandwich_violations", float(viol), 0.0))
    worst = np.max(np.abs(B - sgn) - 2.0 * kr.fejer_K(pts))
    checks.append(_check("distance_le_2K", max(worst, 0.0), 1e-12))
    val, _err = kr.fourier_W_check(0.5)
    checks.append(_check("fourier_side_W_half", abs(val - 8.0 / math.pi**2), 1e-8))
    return checks


def _suite_interpolation(tol: float) -> list[dict]:
    checks = []
    for which, cap in [
        ("csc", 1e-8),
        ("fejer", 1e-8),
        ("poisson", 1e-12),
        ("parseval_sampling", 1e-8),
    ]:
        rep = ip.classical_identity_residual(which)
        checks.append(_check(f"identity_{which}", rep.residual, cap))
    for which in ("sandwich", "refined_sandwich", "bernstein"):
        rep = ip.classical_identity_residual(which)
        checks.append(_flag(f"identity_{which}", rep.ok))
    f = kr.fejer_K
    samples = ip.sample_function(f, 1.0, 300, 0.5, decay_const=1.0, decay_exponent=2.0)
    zs = np.array([0.3, -1.7, 2.25])
    val, err = ip.cardinal_series(samples, zs)
    worst = np.max(np.abs(val - f(zs)) - err)
    checks.append(_check("cardinal_reconstruction", max(worst, 0.0), tol))
    vd = ip.sample_function(f, 1.0, 300, 1.0, _fejer_prime, decay_const=1.0, decay_exponent=2.0)
    val, err = ip.vaaler_interpolation(vd, 0.3)
    checks.append(_check("value_derivative_reconstruction", abs(val - f(0.3)), max(err, 1e-6)))
    return checks


def _suite_esseen1d(tol: float) -> list[dict]:
    from . import esseen1d as e1

    checks = []
    G = e1.normal_law()
    grid = np.linspace(-8, 8, 2001)
    for n in (25, 100):
        F = e1.standardized_binomial(n)
        rep = e1.best_esseen_bound(F, G)
        sup = e1.sup_cdf_distance(F.cdf, G.cdf, grid, F.atoms)
        checks.append(_flag(f"binomial_{n}_bound_dominates", rep.total >= sup, rep.total - sup))
    for which in ("B", "b"):
        res = e1.representation_residual(which, 0.3)
        checks.append(_check(f"fourier_representation_{which}", res, 1e-7))
    F = e1.point_mass(0.0)
    mol = e1.gaussian_mollify(F, 0.5)
    checks.append(_check("mollified_median", abs(mol.cdf(0.0) - 0.5), 1e-12))
    rows = e1.convergence_harness_1d(e1.irwin_hall_standardized, G, [2, 4, 8])
    mono = all(a.bound > b.bound for a, b in zip(rows, rows[1:]))
    checks.append(_flag("harness_bounds_decrease", mono))
    return checks


def _suite_esseen_k(tol: float) -> list[dict]:
    import itertools as it

    from . import esseen_multi as em
    from . import esseen1d as e1

    checks = []
    S, _ = em.selberg_ring_expansion(2)
    expected = {
        ("chi", "delta"): 1, ("delta", "chi"): 1, ("delta", "eps"): 1,
        ("eps", "delta"): 1, ("eps", "eps"): 1,
    }
    checks.append(_flag("ring_expansion_k2_monomials", dict(S) == expected))
    S3, _ = em.selberg_ring_expansion(3)
    checks.append(_flag("ring_expansion_k3_multiplicity", S3[("eps", "eps", "eps")] > 1))

    # operator identities in transform/coefficient form
    def word_residual(w1, w2):
        t1 = em.operator_terms(w1, 2)
        t2 = em.operator_terms(w2, 2) if w2 else {}
        keys = set(t1) | set(t2)
        return max((abs(t1.get(t, 0.0) - t2.get(t, 0.0)) for t in keys), default=0.0)

    worst = max(
        word_residual([("D", 0), ("E", 0)], None),
        word_residual([("D", 0), ("P", 0)], None),
        word_residual([("D", 0), ("Delta", 0)], [("D", 0)]),
        word_residual([("E", 0), ("P", 0)], [("P", 0)]),
        word_residual([("P", 0), ("Delta", 0)], None),
    )
    checks.append(_check("operator_identities", worst, 1e-12))
    tsum: dict = {}
    for w in ([("P", 0)], [("D", 0)], [("E", 0), ("Delta", 0)]):
        for t, c in em.operator_terms(w, 2).items():
            tsum[t] = tsum.get(t, 0.0) + c
    ident = em.operator_terms([], 2)
    resid = max(abs(tsum.get(t, 0.0) - ident.get(t, 0.0)) for t in set(tsum) | set(ident))
    checks.append(_check("operator_resolution_of_identity", resid, 1e-12))

    a = np.array([1.3, 0.7])
    f = lambda v: np.cos(v @ a + 0.3)
    d2 = lambda v: -a[0] * a[1] * np.cos(v @ a + 0.3)
    d4 = lambda v: a[0] ** 2 * a[1] ** 2 * np.cos(v @ a + 0.3)
    v = np.array([0.7, -0.3])
    for which, dv in (("mixed", d2), ("delta", d2), ("e_delta", d4)):
        res = em.factorization_residual(f, dv, 2, which, v)
        checks.append(_check(f"factorization_{which}", res, 1e-8))

    g = lambda w: np.sin(1.1 * w[..., 0] + 0.2) * np.sin(0.9 * w[..., 1] - 0.4)
    bc = em.derivative_bound_check(g, {"which": "4.24", "h": 1, "ell": 2, "m": 2}, v)
    checks.append(_flag("difference_derivative_bound", bc.holds and not bc.inconclusive, bc.slack))

    F = em.product_law([e1.standardized_binomial(64)] * 2)
    G = em.product_normal_target(2)
    t = np.array([0.3, -0.4])
    rep = em.esseen_bound_k(F, G, (10.0, 10.0), t, panels=8, order=6)
    meas = abs(F.cdf(t) - G.cdf(t))
    checks.append(_flag("k2_partition_bound_dominates", rep.total >= meas, rep.total - meas))
    repA = em.esseen_bound_truncated(F, G, (10.0, 10.0), delta=8.0, mode="A", panels=8, order=6)
    side = np.linspace(-3, 3, 9)
    grid = np.array(list(it.product(side, side)))
    sup = float(np.max(np.abs(F.cdf(grid) - G.cdf(grid))))
    checks.append(_flag("k2_truncated_bound_dominates", repA.total >= sup, repA.total - sup))
    return checks


def _suite_clt(tol: float) -> list[dict]:
    from . import clt

    checks = []
    cases = [
        ("5.1", dict(t=math.pi, n=0)),
        ("5.1bis", dict(t=10.0, n=3)),
        ("5.2", dict(z=0.3)),
        ("5.3", dict(x=[1, 1], lam=2)),
        ("5.4", dict(x=[1, 2, 3])),
        ("5.5", dict(t=2.0, n=2, omega=0.5)),
        ("5.15", dict(w=[1 + 1j, -2, 0.3], lam=3)),
        ("5.19", dict(n=2, beta=1.0, q=3.0)),
        ("5.20", dict(t=[0.5, 2, 3], n=2, psi=0.7)),
    ]
    for ineq_id, kw in cases:
        r = clt.inequality_toolbox(ineq_id, **kw)
        checks.append(_flag(f"inequality_{ineq_id}", r.holds, r.slack))
    checks.append(_check("J0_first_zero", abs(clt.bessel_j0(2.404825557695773)), 1e-10))
    law = clt.haar_circle_law()
    worst_gap = 0.0
    ok = True
    for xi in (1.0, 0.5 + 0.5j, -0.9j):
        g = clt.gaussian_limit_gap(law, clt.constant_scheme(), 400, xi)
        ok = ok and g.admissible and g.holds
        worst_gap = max(worst_gap, g.gap)
    checks.append(_flag("gap_dominance_N400", ok, worst_gap))
    st = clt.lyapunov_normalizer(clt.alternating_vector_scheme(2), 400)
    checks.append(_check("vector_normalization_residual", st.matrix_residual, 1e-12))
    # phase invariance of the scalar normalizer
    rng = np.random.default_rng(5)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 50))
    base = clt.index_scheme()
    twist = clt.CoefficientScheme(lambda N: (phases[:N] * np.arange(1, N + 1))[:, None])
    s0, s1 = clt.lyapunov_normalizer(base, 50), clt.lyapunov_normalizer(twist, 50)
    resid = max(
        abs(s0.scale - s1.scale), abs(s0.lyapunov_sum - s1.lyapunov_sum),
        abs(s0.max_ratio - s1.max_ratio),
    )
    checks.append(_check("phase_invariance", resid, 1e-12))
    return checks


_SUITES = {
    "kernels": _suite_kernels,
    "interpolation": _suite_interpolation,
    "esseen1d": _suite_esseen1d,
    "esseen_k": _suite_esseen_k,
    "clt": _suite_clt,
}


def cmd_verify(args, manifest: RunManifest) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    t0 = time.monotonic()
    checks = []
    for name in names:
        for entry in _SUITES[name](args.tol):
            entry["suite"] = name
            checks.append(entry)
    payload = {
        "manifest": asdict(manifest),
        "checks": checks,
        "bounds": [],
        "measurements": [],
        "verdicts": [
            {"name": "all_checks_pass", "pass": all(c["pass"] for c in checks)},
        ],
        "runtime_ms": int((time.monotonic() - t0) * 1000),
    }
    _emit(payload, args.out)
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# demo scenarios


# the flags each demo scenario reads, with their defaults; any other
# scenario flag is a usage error.  --seed, which every command takes, is
# recorded only where it is read.
_DEMO_FLAGS = {
    "esseen1d-binomial": {"n": 100, "omega": 20.0},
    "esseen-k": {"k": 2, "n": 64, "omega": 12.0, "delta": 8.0},
    "clt-haar": {"N": 400, "samples": 10**5, "seed": 7},
    "clt-vector": {"N": 400, "samples": 2 * 10**4, "seed": 11},
}

# what an explicit value of each demo flag must satisfy; --samples and
# --seed are checked by clt.MonteCarloConfig
_DEMO_LIMITS = {
    "k": (lambda v: 1 <= v <= 3, "1, 2 or 3"),
    "n": (lambda v: v >= 1, ">= 1"),
    "N": (lambda v: v >= 1, ">= 1"),
    "omega": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "delta": (lambda v: 1.0 < v < math.inf, "finite and > 1"),
}


def _demo_param(args, flag: str):
    """The value of --flag, or the scenario's default when the flag is absent."""
    value = getattr(args, flag)
    if value is not None and flag in _DEMO_LIMITS:
        valid, need = _DEMO_LIMITS[flag]
        if not valid(value):
            raise ValueError(f"--{flag} must be {need} (got {value!r})")
    return _DEMO_FLAGS[args.scenario][flag] if value is None else value


def _demo_params(args) -> dict:
    """Every flag the scenario reads, resolved; a scenario flag it does not read raises."""
    reads = list(_DEMO_FLAGS[args.scenario])
    if args.scenario == "esseen-k" and args.k == 1:
        reads.remove("delta")  # k = 1 runs the one-variable bound
    for flag in ("k", "n", "N", "omega", "delta", "samples"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"--{flag} is not read by scenario {args.scenario} "
                             f"(it reads {', '.join('--' + f for f in reads)})")
    return {flag: _demo_param(args, flag) for flag in reads}


def _binomial_bound_1d(p: dict, ov: dict) -> tuple[list, list, list]:
    """The one-variable bound for Binomial(n) against N(0, 1) and its measured sup."""
    from . import esseen1d as e1

    n, omega = p["n"], p["omega"]
    constants = (ov.get("c1", e1.C1_DEFAULT), ov.get("c2", e1.C2_DEFAULT))
    F = e1.standardized_binomial(n)
    G = e1.normal_law()
    rep = e1.esseen_bound_1d(F, G, omega, constants=constants)
    sup = e1.sup_cdf_distance(F.cdf, G.cdf, np.linspace(-8, 8, 2001), F.atoms)
    bounds = [{"name": "smoothing_bound", "omega": omega, "value": _fmt(rep.total)}]
    meas = [{"name": "sup_cdf_distance", "value": _fmt(sup)}]
    verdicts = [{"name": "bound_dominates", "pass": rep.total >= sup}]
    return bounds, meas, verdicts


def _demo_esseen_k(p: dict, ov: dict) -> tuple[list, list, list]:
    from . import esseen1d as e1
    from . import esseen_multi as em

    k, n, omega = p["k"], p["n"], p["omega"]
    if k == 1:
        return _binomial_bound_1d(p, ov)
    delta = p["delta"]
    F = em.product_law([e1.standardized_binomial(n)] * k)
    G = em.product_normal_target(k)
    constants = replace(em.BoundConstants.for_k(k), **ov)
    t = np.array([0.3, -0.4, 0.2][:k])
    grid = dict(constants=constants, panels=8 if k == 2 else 6, order=6 if k == 2 else 4)
    rep = em.esseen_bound_k(F, G, (omega,) * k, t, **grid)
    meas_t = abs(F.cdf(t) - G.cdf(t))
    repA = em.esseen_bound_truncated(F, G, (omega,) * k, delta=delta, mode="A", **grid)
    bounds = [
        {"name": "partition_bound", "t": [float(x) for x in t], "value": _fmt(rep.total)},
        {"name": "truncated_bound_A", "delta": delta, "value": _fmt(repA.total)},
    ]
    meas = [{"name": "pointwise_discrepancy", "value": _fmt(meas_t)}]
    verdicts = [
        {"name": "partition_bound_dominates", "pass": rep.total >= meas_t},
        {"name": "truncated_bound_dominates", "pass": repA.total >= meas_t},
    ]
    return bounds, meas, verdicts


def _ks_limit(floor: float, samples: int) -> float:
    """KS pass threshold: floor, widened to the DKW band at false-alarm rate 1e-6."""
    return max(floor, math.sqrt(math.log(2.0 / 1e-6) / (2.0 * samples)))


def _demo_clt_haar(p: dict, ov: dict) -> tuple[list, list, list]:
    from . import clt

    N = p["N"]
    mc = clt.MonteCarloConfig(seed=p["seed"], samples=p["samples"], N=N)
    law = clt.haar_circle_law()
    g = clt.gaussian_limit_gap(law, clt.constant_scheme(), N, 1.0)
    rep = clt.vector_statistic(law, clt.constant_scheme(), N, mc)
    bounds = [{"name": "log_cf_gap_bound", "value": _fmt(g.proof_bound)}]
    meas = [
        {"name": "log_cf_gap", "value": _fmt(g.gap)},
        {"name": "ks_real", "value": _fmt(rep.ks_real[0])},
        {"name": "ks_imag", "value": _fmt(rep.ks_imag[0])},
    ]
    verdicts = [
        {"name": "gap_le_bound", "pass": g.admissible and g.holds},
        {"name": "ks_small",
         "pass": max(rep.ks_real[0], rep.ks_imag[0]) <= _ks_limit(0.01, mc.samples)},
    ]
    return bounds, meas, verdicts


def _demo_clt_vector(p: dict, ov: dict) -> tuple[list, list, list]:
    from . import clt

    N = p["N"]
    mc = clt.MonteCarloConfig(seed=p["seed"], samples=p["samples"], N=N)
    law = clt.haar_circle_law()
    scheme = clt.alternating_vector_scheme(2)
    stats = clt.lyapunov_normalizer(scheme, N)
    g = clt.gaussian_limit_gap(law, scheme, N, np.array([1.0, 0.5 + 0.2j]), A=1.2)
    rep = clt.vector_statistic(law, scheme, N, mc)
    bounds = [{"name": "log_cf_gap_bound", "value": _fmt(g.proof_bound)}]
    meas = [
        {"name": "normalization_residual", "value": _fmt(stats.matrix_residual)},
        {"name": "log_cf_gap", "value": _fmt(g.gap)},
        {"name": "worst_ks", "value": _fmt(max(max(rep.ks_real), max(rep.ks_imag)))},
    ]
    verdicts = [
        {"name": "gap_le_bound", "pass": g.admissible and g.holds},
        {"name": "ks_small",
         "pass": max(max(rep.ks_real), max(rep.ks_imag)) <= _ks_limit(0.02, mc.samples)},
    ]
    return bounds, meas, verdicts


_SCENARIOS = {
    "esseen1d-binomial": _binomial_bound_1d,
    "esseen-k": _demo_esseen_k,
    "clt-haar": _demo_clt_haar,
    "clt-vector": _demo_clt_vector,
}


def cmd_demo(args, manifest: RunManifest) -> int:
    t0 = time.monotonic()
    params = _demo_params(args)
    shown = {flag: v for flag, v in params.items() if flag != "seed"}
    manifest = replace(manifest, parameters={"scenario": args.scenario, **shown},
                       seed=params.get("seed", manifest.seed))
    bounds, meas, verdicts = _SCENARIOS[args.scenario](params, manifest.constant_overrides)
    payload = {
        "manifest": asdict(manifest),
        "checks": [],
        "bounds": bounds,
        "measurements": meas,
        "verdicts": verdicts,
        "runtime_ms": int((time.monotonic() - t0) * 1000),
    }
    _emit(payload, args.out)
    return EXIT_OK if all(v["pass"] for v in verdicts) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bslib", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.add_argument("--const", action="append", default=[], metavar="NAME=VALUE")
        sp.add_argument("--unsafe", action="store_true")

    pe = sub.add_parser("eval", help="evaluate one kernel/function at a point")
    pe.add_argument("--fn", "--kernel", dest="fn", choices=tuple(KERNELS), required=True)
    pe.add_argument("--x", type=float, default=0.0)
    pe.add_argument("--ell", type=float, default=1.0)
    common(pe)

    pt = sub.add_parser("table", help="tabulate a kernel/function over a range")
    pt.add_argument("--fn", "--kernel", dest="fn", choices=tuple(KERNELS), required=True)
    pt.add_argument("--from", dest="frm", type=float, required=True)
    pt.add_argument("--to", dest="to", type=float, required=True)
    pt.add_argument("--step", type=float, required=True)
    pt.add_argument("--ell", type=float, default=1.0)
    common(pt)

    pv = sub.add_parser("verify", help="run a module invariant suite")
    pv.add_argument("--suite", choices=tuple(_SUITES) + ("all",), required=True)
    common(pv)

    pd = sub.add_parser("demo", help="run a bound-vs-measurement scenario")
    pd.add_argument("--scenario", choices=tuple(_SCENARIOS), required=True)
    pd.add_argument("--n", type=int, default=None)
    pd.add_argument("--N", type=int, default=None)
    pd.add_argument("--k", type=int, default=None)
    pd.add_argument("--omega", type=float, default=None)
    pd.add_argument("--delta", type=float, default=None)
    pd.add_argument("--samples", type=int, default=None)
    common(pd)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    handler = {"eval": cmd_eval, "table": cmd_table, "verify": cmd_verify, "demo": cmd_demo}
    try:
        config = _load_config()
        if args.tol is None:
            args.tol = float(config.get("tol", 1e-10))
        if not _is_tol(args.tol):
            raise ValueError(f"--tol must be a finite number > 0 (got {args.tol!r})")
        if args.seed is None:
            args.seed = config.get("seed")
        if args.format is None:
            args.format = config.get("format", "json" if args.command in ("verify", "demo") else "csv")
        params = {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "seed", "tol", "out", "format", "const", "unsafe")
            and v is not None
        }
        manifest = RunManifest(
            command=args.command,
            parameters=params,
            seed=args.seed,
            tolerances={"tol": args.tol},
            constant_overrides=_parse_overrides(args.const, args.unsafe, _constant_floors(args)),
            output=args.out,
            format=args.format,
        )
        return handler[args.command](args, manifest)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
