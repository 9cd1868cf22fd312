"""Batch command-line front door.

Subcommands: `eval` (single kernel/function values), `table` (CSV sweeps),
`verify` (module invariant suites), and `demo` (smoothing-bound and CLT
scenarios).  Each takes only the flags it reads, and its manifest records
only the values it read.  Every run emits its manifest beside the results;
JSON output uses the fixed key set {manifest, checks, bounds, measurements,
verdicts, runtime_ms} and CSV rows carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import interpolation as ip
from . import kernels as kr

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

CONFIG_ENV_VAR = "BSLIB_CONFIG"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# each flag of verify and demo, in the order the parser lists them: its
# type, and what an explicit value must satisfy (--samples and --seed are
# checked by clt.MonteCarloConfig).  A command takes the flags its suites or
# scenarios read; _SUITES and _SCENARIOS say which.
_FLAGS = {
    "tol": (float, (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                    and 0.0 < v < math.inf, "a finite number > 0")),
    "k": (int, (lambda v: 1 <= v <= 3, "1, 2 or 3")),
    "n": (int, (lambda v: v >= 1, ">= 1")),
    "N": (int, (lambda v: v >= 1, ">= 1")),
    "omega": (float, (lambda v: 0.0 < v < math.inf, "finite and > 0")),
    "delta": (float, (lambda v: 1.0 < v < math.inf, "finite and > 1")),
    "samples": (int, None),
    "seed": (int, None),
}

# what each BSLIB_CONFIG value must satisfy, whatever the command; other keys
# are ignored.  A key is the default of its flag where that is read.
_CONFIG_KEYS = {
    "tol": _FLAGS["tol"][1],
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
    output: str | None
    format: str = "json"
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)
    constant_overrides: dict = field(default_factory=dict)


def _constant_floors(args) -> dict:
    """The bound constants the demo scenario reads, each with its validity
    floor: the bound module's default.  Overrides below a floor need
    --unsafe, since they can make the reported bound unsound."""
    if args.scenario not in ("esseen1d-binomial", "esseen-k"):
        return {}
    from . import esseen1d as e1

    k = _SCENARIOS["esseen-k"][2]["k"] if args.k is None else args.k
    if args.scenario == "esseen1d-binomial" or k == 1:
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


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out_path: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2, default=_json_value) + "\n", out_path)


def _emit_run(manifest: RunManifest, t0: float, checks=(), bounds=(), measurements=(), verdicts=()):
    """The six-key JSON of a run whose computation started at t0."""
    _emit({"manifest": asdict(manifest), "checks": list(checks), "bounds": list(bounds),
           "measurements": list(measurements), "verdicts": list(verdicts),
           "runtime_ms": int((time.monotonic() - t0) * 1000)}, manifest.output)


# ---------------------------------------------------------------------------
# eval / table


# KERNELS maps each --fn name to a table function (xs, ell) -> arrays
# (values, err_ests); `eval` is the one-row table.  Array kernels are looked
# up on their module at call time and called once per table, as is the
# set-up all rows share (a sample set, the lambda optimisation).
# The err_est of W, B and S (b and sigma alike) bounds |value - exact| at
# every finite x.  W: the larger truncation term of its routes, 84 zeta(43)
# 0.4^43 ~ 7e-16 (Taylor, times K <= 1) or B_22/x^23 <= 1e-17 (trigamma),
# plus a rounding floor of 4 ulps of 1 (8.9e-16), 2e-15 rounded up.  B = W
# + K: the two bounds (K's 1e-15) and half an ulp of 2 for the sum, 4e-15.
# S, the mean of B(x) and B(ell - x): B's bound, half of |B'| <= 3.2 times
# the rounding of ell - x (<= 1.5e-16) and the mean's rounding, 5e-15.
# mpmath measures at most 9e-16 for each, near integers and 0.4 included.
# W's Taylor coefficients 4 m zeta(2m+1) hold each zeta correctly rounded.
# Below, u = 2^-53, and numpy's sin and cos and libm's pow are taken to be
# within 1 ulp (2u relative); mpmath measures sin and cos within 0.51 ulp.
# K = sinc^2, 0 exactly at the other integers: np.sinc takes sin(y)/y at
# y = pi x rounded (1.35u relative, pi's rounding included), which moves
# sin(y)/y by at most 1.35u |cos y - sinc y|; sin and the quotient add 3u
# |sinc| and the square 2u sinc^2, so |K - exact| <= u (2.7 |sinc| |cos y -
# sinc| + 8 sinc^2) <= 8u = 8.9e-16, the bound's sup being at y = 0; 1e-15.
# Q = |v|/pi + (1 - |v|) v cot(pi v): within 1e-4 of 0 and of 1 it is the
# series of pi u cot(pi u), u = |v| or 1 - |v| (exact), whose omitted terms
# are below 2 (pi 1e-4)^6 / 945 ~ 2e-24; elsewhere cot is cos/sin at y =
# pi u <= pi/2, y's rounding moving (1 - |v|)|v| cot by at most 1.35u y^2 /
# (pi sin^2 y) <= 1.1u, and the cot term, at most 1/pi, gains 7u relative
# from cos, sin, the quotient and the two products; with |v|/pi (1.35u) and
# the sum (u of Q <= 1/pi), |Q - exact| <= 4.1u ~ 4.6e-16, under 1e-14.
# lambda is the largest grid value of f = hypot(Q, xi (1 - xi)), which
# rises to its one maximum and falls, so the maximiser lies in the last
# bracket around the best point, under 5e-8 wide; with |f'| <= 1 on [0, 1]
# the sup exceeds the returned value by at most 5e-8, and f's rounding
# (Q's bound) is far smaller.
_W_ERR, _B_ERR, _S_ERR = 2e-15, 4e-15, 5e-15


def _array_table(kernel, err: float):
    """Table of kernel(xs, ell) over the array xs, with err_est err on every row."""

    def table(xs, ell):
        xs = np.asarray(xs, dtype=float)
        return kernel(xs, ell), np.full(xs.shape, err)

    return table


def _box_length(ell: float) -> float:
    """--ell for S and sigma, which need a finite ell > 0."""
    if not 0.0 < ell < math.inf:
        raise ValueError(f"--ell must be finite and > 0 for S and sigma (got {ell!r})")
    return ell


# the sampling-formula demos reconstruct the unit quadratic kernel
def _fejer_prime(t: np.ndarray) -> np.ndarray:
    return (kr.fejer_K(t + 1e-6) - kr.fejer_K(t - 1e-6)) / 2e-6


def _cardinal_table(xs, ell):
    samples = ip.sample_function(kr.fejer_K, 1.0, 400, 0.5, decay_const=1.0, decay_exponent=2.0)
    return ip.cardinal_series(samples, xs)


def _vaaler_table(xs, ell):
    samples = ip.sample_function(kr.fejer_K, 1.0, 400, 1.0, _fejer_prime, decay_const=1.0,
                                 decay_exponent=2.0)
    return ip.vaaler_interpolation(samples, xs)


KERNELS = {
    "K": _array_table(lambda xs, ell: kr.fejer_K(xs), 1e-15),
    "W": _array_table(lambda xs, ell: kr.W_eval(xs), _W_ERR),
    "B": _array_table(lambda xs, ell: kr.B_eval(xs), _B_ERR),
    "b": _array_table(lambda xs, ell: kr.b_eval(xs), _B_ERR),
    "S": _array_table(lambda xs, ell: kr.S_eval(_box_length(ell), xs), _S_ERR),
    "sigma": _array_table(lambda xs, ell: kr.sigma_eval(_box_length(ell), xs), _S_ERR),
    "Q": _array_table(lambda xs, ell: kr.Q_eval(xs), 1e-14),
    "lambda": _array_table(lambda xs, ell: np.full(xs.shape, kr.lambda_constant()), 5e-8),
    "cardinal": _cardinal_table,
    "vaaler": _vaaler_table,
}


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"--{flag} must be finite (got {value!r})")


def _rows(xs: list[float], values: np.ndarray, errs: np.ndarray) -> list[str]:
    """Each row 'x,value,err_est' at 17 significant digits, one % on a row
    template; an err_est column of one value (bit for bit) is formatted once,
    into the template (a %.17g string holds no '%')."""
    if errs.size and errs[1:].tobytes() == errs[:-1].tobytes():
        return list(map(f"%.17g,%.17g,{_fmt(errs[0])}".__mod__, zip(xs, values.tolist())))
    return list(map("%.17g,%.17g,%.17g".__mod__, zip(xs, values.tolist(), errs.tolist())))


def _tabulate(args, config: dict, xs: list[float]) -> int:
    fmt = args.format or config.get("format", "csv")
    # --ell is taken for every --fn, and read by S and sigma alone
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "out", "format") and (k != "ell" or args.fn in ("S", "sigma"))}
    manifest = RunManifest(args.command, params, args.out, fmt)
    flag = "--x" if args.command == "eval" else "--from/--to"
    t0 = time.monotonic()
    try:
        values, errs = KERNELS[args.fn](xs, args.ell)
    except ValueError as exc:
        if args.fn not in ("cardinal", "vaaler"):  # S and sigma name --ell themselves
            raise
        raise ValueError(f"{flag} is out of reach of {args.fn}: {exc}") from None
    bad = ~(np.isfinite(values) & np.isfinite(errs))
    if bad.any():
        raise ValueError(f"{flag} reaches x = {xs[np.argmax(bad)]!r}, where {args.fn} has no finite "
                         "value or err_est")
    rows = _rows(xs, values, errs)
    if fmt == "json":
        _emit_run(manifest, t0, measurements=({"name": args.fn, "x": x, "value": v, "err_est": e}
                                              for x, (_, v, e) in zip(xs, (r.split(",") for r in rows))))
    else:
        _write("\n".join(["x,value,err_est", *rows]) + "\n", args.out)
    return EXIT_OK


def cmd_eval(args, config: dict) -> int:
    _require_finite("x", args.x)
    return _tabulate(args, config, [args.x])


_MAX_ROWS = 10**7  # the most rows of one table, about 0.6 GB of CSV


def cmd_table(args, config: dict) -> int:
    lo, hi, step = args.frm, args.to, args.step
    for flag, value in (("from", lo), ("to", hi), ("step", step)):
        _require_finite(flag, value)
    if step <= 0:
        raise ValueError(f"--step must be > 0 (got {step!r})")
    if hi < lo:
        raise ValueError(f"--to must be >= --from (got --from {lo!r} --to {hi!r})")
    if not math.isfinite(hi + step * 0.5 - lo):
        raise ValueError(f"--from/--to range from {lo!r} to {hi!r} with --step {step!r} "
                         "is too wide for float arithmetic")
    span = (hi + step * 0.5 - lo) / step  # np.arange makes ceil(span) rows
    if span > _MAX_ROWS:
        raise ValueError(f"--step {step!r} makes about {span:.3g} rows from --from {lo!r} to --to {hi!r}, "
                         f"more than the {_MAX_ROWS} a table holds")
    xs = np.arange(lo, hi + step * 0.5, step)
    stuck = np.flatnonzero(xs[1:] <= xs[:-1])
    if not xs.size or stuck.size:
        x = float(xs[stuck[0]]) if stuck.size else lo
        raise ValueError(f"--step {step!r} cannot advance x past {x!r}")
    return _tabulate(args, config, xs.tolist())


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
    for which, check, cap in [
        ("csc", ip.csc_residual, 1e-8),
        ("fejer", ip.fejer_residual, 1e-8),
        ("poisson", ip.poisson_residual, 1e-12),
        ("parseval_sampling", ip.parseval_residual, 1e-8),
    ]:
        checks.append(_check(f"identity_{which}", check().residual, cap))
    for which, check in [
        ("sandwich", ip.sandwich_residual),
        ("refined_sandwich", ip.refined_sandwich_residual),
        ("bernstein", ip.bernstein_residual),
    ]:
        checks.append(_flag(f"identity_{which}", check().ok))
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


def _suite_esseen1d() -> list[dict]:
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


def _suite_esseen_k() -> list[dict]:
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


def _suite_clt() -> list[dict]:
    from . import clt

    checks = []
    for number, r in [
        ("5.1", clt.taylor_remainder(math.pi, 0)),
        ("5.1bis", clt.taylor_remainder_min(10.0, 3)),
        ("5.2", clt.principal_log(0.3)),
        ("5.3", clt.power_mean_chain([1, 1], 2)),
        ("5.4", clt.third_moment_chain([1, 2, 3])),
        ("5.5", clt.fractional_remainder(2.0, 2, 0.5)),
        ("5.15", clt.norm_ratios([1 + 1j, -2, 0.3], 3)),
        ("5.19", clt.stretched_exp_max(2, 1.0, 3.0)),
        ("5.20", clt.power_sum_pinch([0.5, 2, 3], 2, 0.7)),
    ]:
        checks.append(_flag(f"inequality_{number}", r.holds, r.slack))
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


# each verify suite and demo scenario: the module it needs (the commands
# import it before the clock starts, so that runtime_ms times the
# computation and not the imports), its function, and the flags it reads
# with their defaults.  Another flag of the command is a usage error;
# --const and --unsafe are read where _constant_floors names constants.
_SUITES = {
    "kernels": ("kernels", _suite_kernels, {"tol": 1e-10}),
    "interpolation": ("interpolation", _suite_interpolation, {"tol": 1e-10}),
    "esseen1d": ("esseen1d", _suite_esseen1d, {}),
    "esseen_k": ("esseen_multi", _suite_esseen_k, {}),
    "clt": ("clt", _suite_clt, {}),
}


def _resolve(args, entries: list[tuple], config: dict) -> dict:
    """Every flag that the suites or scenario `entries` read: its value, else
    BSLIB_CONFIG's (tol and seed), else the default.  A flag given that none
    of them reads raises, and so does an explicit value out of range.  Then
    it imports the entries' modules."""
    reads = {}
    for _, _, flags in entries:
        reads.update(flags)
    if getattr(args, "scenario", None) == "esseen-k" and args.k == 1:
        del reads["delta"]  # k = 1 runs the one-variable bound
    for flag in _FLAGS:
        if getattr(args, flag, None) is not None and flag not in reads:
            what = f"suite {args.suite}" if args.command == "verify" else f"scenario {args.scenario}"
            raise ValueError(f"--{flag} is not read by {what} "
                             f"(it reads {', '.join('--' + f for f in reads) or 'none'})")
    params = {}
    for flag, default in reads.items():
        kind, limit = _FLAGS[flag]
        value = getattr(args, flag)
        if value is not None and limit is not None:
            valid, need = limit
            if not valid(value):
                raise ValueError(f"--{flag} must be {need} (got {value!r})")
        elif value is None and flag in _CONFIG_KEYS and config.get(flag) is not None:
            value = kind(config[flag])  # a JSON tol of 1 is the float 1.0
        params[flag] = default if value is None else value
    for module, _, _ in entries:
        importlib.import_module(f".{module}", __package__)
    return params


def cmd_verify(args, config: dict) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    params = _resolve(args, [_SUITES[name] for name in names], config)  # tol, where a suite reads it
    manifest = RunManifest("verify", {"suite": args.suite}, args.out, tolerances=params)
    t0 = time.monotonic()
    checks = []
    for name in names:
        _, suite, reads = _SUITES[name]
        for check in suite(**{flag: params[flag] for flag in reads}):
            check["suite"] = name
            checks.append(check)
    ok = all(c["pass"] for c in checks)
    _emit_run(manifest, t0, checks, verdicts=[{"name": "all_checks_pass", "pass": ok}])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# demo scenarios


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
    if not omega > 1.0:  # the k-variable bounds need Omega > 1
        raise ValueError(f"--omega must be > 1 with --k {k} (got {omega!r})")
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
    "esseen1d-binomial": ("esseen1d", _binomial_bound_1d, {"n": 100, "omega": 20.0}),
    "esseen-k": ("esseen_multi", _demo_esseen_k, {"k": 2, "n": 64, "omega": 12.0, "delta": 8.0}),
    "clt-haar": ("clt", _demo_clt_haar, {"N": 400, "samples": 10**5, "seed": 7}),
    "clt-vector": ("clt", _demo_clt_vector, {"N": 400, "samples": 2 * 10**4, "seed": 11}),
}


def cmd_demo(args, config: dict) -> int:
    entry = _SCENARIOS[args.scenario]
    params = _resolve(args, [entry], config)
    floors = _constant_floors(args)
    if args.unsafe and not floors:
        raise ValueError(f"--unsafe is not read by scenario {args.scenario} (it reads no constant)")
    overrides = _parse_overrides(args.const or [], bool(args.unsafe), floors)
    shown = {flag: v for flag, v in params.items() if flag != "seed"}
    manifest = RunManifest("demo", {"scenario": args.scenario, **shown}, args.out,
                           seed=params.get("seed"), constant_overrides=overrides)
    t0 = time.monotonic()
    bounds, meas, verdicts = entry[1](params, overrides)
    _emit_run(manifest, t0, bounds=bounds, measurements=meas, verdicts=verdicts)
    return EXIT_OK if all(v["pass"] for v in verdicts) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose errors raise ValueError, for main to print as one line
    (its subparsers are of this class too)."""

    commands: dict  # the top-level parser's: each command's parser

    def error(self, message):
        raise ValueError(message.removeprefix("argument "))

    def untaken(self, extra: list[str]) -> ValueError:
        """The error for the first argument left over when this command's
        parser took the rest (one it takes was given before the command)."""
        name = extra[0].partition("=")[0]
        flags = [a.option_strings for a in self._actions if a.option_strings and a.dest != "help"]
        command = self.prog.split()[-1]
        if not name.startswith("-"):
            what = f"{command} takes no argument {name!r}"
        elif any(name in names for names in flags):
            what = f"{name} must follow the command {command}"
        else:
            what = f"{name} is not a flag of {command}"
        return ValueError(f"{what} (it takes {', '.join(names[0] for names in flags)})")


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process; argparse keeps no state between
    parse_args calls, and callers must not add to it.  Each command takes only
    the flags it reads, by full name alone (--k would be --kernel in eval)."""
    p = _Parser(prog="bslib", description=__doc__, allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    pe = sub.add_parser("eval", help="evaluate one kernel/function at a point", allow_abbrev=False)
    pe.add_argument("--fn", "--kernel", dest="fn", choices=tuple(KERNELS), required=True)
    pe.add_argument("--x", type=float, default=0.0)

    pt = sub.add_parser("table", help="tabulate a kernel/function over a range", allow_abbrev=False)
    pt.add_argument("--fn", "--kernel", dest="fn", choices=tuple(KERNELS), required=True)
    pt.add_argument("--from", dest="frm", type=float, required=True)
    pt.add_argument("--to", dest="to", type=float, required=True)
    pt.add_argument("--step", type=float, required=True)
    for sp in (pe, pt):
        sp.add_argument("--ell", type=float, default=1.0)
        sp.add_argument("--format", choices=("csv", "json"), default=None)

    pv = sub.add_parser("verify", help="run a module invariant suite (JSON)", allow_abbrev=False)
    pv.add_argument("--suite", choices=tuple(_SUITES) + ("all",), required=True)
    pd = sub.add_parser("demo", help="run a bound-vs-measurement scenario (JSON)",
                        allow_abbrev=False)
    pd.add_argument("--scenario", choices=tuple(_SCENARIOS), required=True)
    for sp, entries in ((pv, _SUITES), (pd, _SCENARIOS)):
        for flag, (kind, _) in _FLAGS.items():
            if any(flag in reads for _, _, reads in entries.values()):
                sp.add_argument(f"--{flag}", type=kind, default=None)
    pd.add_argument("--const", action="append", default=None, metavar="NAME=VALUE")
    pd.add_argument("--unsafe", action="store_true", default=None)

    for sp in (pe, pt, pv, pd):
        sp.add_argument("--out", default=None)
    return p


def main(argv: list[str] | None = None) -> int:
    handler = {"eval": cmd_eval, "table": cmd_table, "verify": cmd_verify, "demo": cmd_demo}
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            raise parser.commands[args.command].untaken(extra)
        return handler[args.command](args, _load_config())
    except SystemExit as exc:  # -h and --help
        return exc.code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
