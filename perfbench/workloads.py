"""The four workloads: case inputs, the calls into bslib, and the checks.

A workload hands out cases in rounds.  Every case of a round is the same
bundle of calls on freshly seeded inputs; the seeded parameters of a
round are stratified (one draw per stratum, strata shuffled), so a round
covers each parameter range evenly and the per-round mean of a
seed-dependent quantity such as bound_ratio barely moves with the seed.

`run` makes only bslib calls and is what the benchmark times; `check`
compares its outputs with `reference` and returns (failures, log-ratios).
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
from bslib import cli, clt, esseen1d, esseen_multi, interpolation, kernels

import reference as ref


def _strata(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points in [0, 1), one in each of m equal strata, in shuffled order."""
    return (rng.permutation(m) + rng.random(m)) / m


def _log_uniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


def _cli(tr, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _rows(text: str) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "x,value,err_est":
        raise ValueError("missing CSV header")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _log_ratio(bound: float, discrepancy: float) -> float:
    return math.log(bound / discrepancy)


# ---------------------------------------------------------------------------


class KernelTable:
    """`bslib table` sweeps of every kernel, the interpolation formulas and
    the direct-series W oracle: the workload in which kernels,
    interpolation and the CLI dispatch do the work."""

    name = "kernel-table"
    round_size = 3  # one case per ell in {1, 2, 7.5}
    STEP = 0.04
    ROWS = 2001  # [-40, 40] at STEP, shifted by a seeded offset
    FNS = ("K", "W", "B", "b", "S", "sigma")
    CHECK_ROWS = 12  # rows per table compared with mpmath (~1 ms per psi_1)
    TOL = 1e-12  # absolute, kernel value against mpmath
    ORACLE_TOL = 1e-10

    def cases(self, rng: np.random.Generator) -> list[dict]:
        ells = rng.permutation([1.0, 2.0, 7.5])
        # the interpolation rows sit at a stratified offset within one row
        # step of a fixed window: err_est / error varies along x
        u = _strata(rng, self.round_size)
        return [
            dict(
                lo=-40.0 + rng.uniform(0.0, self.STEP),
                ell=float(ell),
                q_lo=-1.0 + rng.uniform(0.0, 0.01),
                interp_lo=float(-0.5 + 0.1 * u[i]),
                oracle_x=rng.uniform(-40.0, 40.0, 3).tolist(),
                check_rows=rng.choice(self.ROWS, self.CHECK_ROWS, replace=False),
            )
            for i, ell in enumerate(ells)
        ]

    def run(self, c: dict, tr) -> dict:
        lo, hi = c["lo"], c["lo"] + (self.ROWS - 1) * self.STEP
        out = {}
        for fn in self.FNS:
            out[fn] = _cli(tr, ["table", "--fn", fn, "--from", repr(lo), "--to", repr(hi),
                                "--step", repr(self.STEP), "--ell", repr(c["ell"])])
        out["Q"] = _cli(tr, ["table", "--fn", "Q", "--from", repr(c["q_lo"]),
                             "--to", repr(c["q_lo"] + 1.99), "--step", "0.01"])
        for fn in ("cardinal", "vaaler"):
            out[fn] = _cli(tr, ["table", "--fn", fn, "--from", repr(c["interp_lo"]),
                                "--to", repr(c["interp_lo"] + 1.0), "--step", "0.1"])
        with tr.span("kernels.oracle"):
            out["oracle"] = [kernels.W_eval(x, mode="oracle") for x in c["oracle_x"]]
        tr.count("kernels.oracle_points", len(c["oracle_x"]))
        return out

    def check(self, c: dict, out: dict) -> tuple[list[str], list[float]]:
        fails, ratios = [], []
        tables = {}
        for fn in self.FNS + ("Q", "cardinal", "vaaler"):
            code, text = out[fn]
            if code != 0:
                fails.append(f"{fn}: exit code {code}")
                continue
            tables[fn] = _rows(text)
        ell = c["ell"]
        slack = 1e-13
        for fn in self.FNS:
            if fn not in tables:
                continue
            t = tables[fn]
            x, v = t[:, 0], t[:, 1]
            expect_x = c["lo"] + self.STEP * np.arange(self.ROWS)
            if t.shape[0] != self.ROWS or np.max(np.abs(x - expect_x)) > 1e-9:
                fails.append(f"{fn}: rows do not cover the requested grid")
                continue
            if fn == "K":
                bad = (v < -slack) | (v > 1 + slack)
            elif fn == "B":
                bad = v < np.sign(x) - slack
            elif fn == "b":
                bad = v > np.sign(x) + slack
            elif fn in ("S", "sigma"):
                chi = ((x >= 0) & (x <= ell)).astype(float)
                bad = v < chi - slack if fn == "S" else v > chi + slack
            else:
                bad = np.zeros(x.size, bool)
            if bad.any():
                fails.append(f"{fn}: extremal property broken at x={float(x[bad][0])!r}")
            # seeded rows plus the row nearest an integer, where closed
            # forms in double precision break down
            rows = set(c["check_rows"].tolist()) | {int(np.argmin(np.abs(x - np.round(x))))}
            for i in sorted(rows):
                xi, vi = float(x[i]), float(v[i])
                r = self._ref(fn, xi, ell)
                if not abs(vi - r) <= self.TOL:
                    fails.append(f"{fn}({xi!r}) = {vi!r}, reference {r!r}")
        if "Q" in tables:
            t = tables["Q"]
            for x, v, _ in t[np.linspace(0, t.shape[0] - 1, self.CHECK_ROWS).astype(int)].tolist():
                r = ref.Q(x)
                if not abs(v - r) <= self.TOL:
                    fails.append(f"Q({x!r}) = {v!r}, reference {r!r}")
        for fn in ("cardinal", "vaaler"):
            if fn not in tables:
                continue
            for x, v, err in tables[fn].tolist():
                k = ref.K(x)
                gap = abs(v - k)
                if not gap <= err + 1e-15:
                    fails.append(f"{fn}({x!r}): |value - K| = {gap:.3g} exceeds err_est {err:.3g}")
                if err > 0:
                    ratios.append(_log_ratio(err, max(gap, 1e-17)))
        for x, w in zip(c["oracle_x"], out["oracle"]):
            r = ref.W(x)
            if not abs(w - r) <= self.ORACLE_TOL:
                fails.append(f"W oracle({x!r}) = {w!r}, reference {r!r}")
        return fails, ratios

    def hooks(self, tr) -> contextlib.ExitStack:
        stack = contextlib.ExitStack()
        stack.enter_context(tr.patched(kernels, ("fejer_K", "W_eval", "B_eval", "b_eval", "S_eval",
                                                 "sigma_eval", "Q_eval")))
        sample_function = getattr(interpolation, "sample_function", None)
        if sample_function is not None:  # a missing one is reported by patched()
            def counting(*args, **kwargs):
                samples = sample_function(*args, **kwargs)
                tr.count("interpolation.nodes", len(samples.values))
                return samples

            interpolation.sample_function = counting
            stack.callback(setattr, interpolation, "sample_function", sample_function)
        stack.enter_context(tr.patched(interpolation, ("sample_function", "cardinal_series",
                                                       "vaaler_interpolation")))
        return stack

    @staticmethod
    def _ref(fn: str, x: float, ell: float) -> float:
        if fn in ("S", "sigma"):
            return getattr(ref, fn)(ell, x)
        return getattr(ref, fn)(x)


# ---------------------------------------------------------------------------


class Smoothing1D:
    """Omega sweeps, single-Omega bounds and sup distances for a binomial
    and an Irwin-Hall law: scalar quad panels and scalar cf calls."""

    name = "smoothing-1d"
    round_size = 8
    GRID = np.linspace(-8.0, 8.0, 2001)
    SUP_TOL = 1e-11
    # Case 0 of every round: fixed inputs on which the Irwin-Hall CDF is
    # known to fail (double-precision alternating sum, error ~1 at n >= 32).
    KNOWN_FAULT = dict(binom_n=128, ih_n=32, omegas=(16.0, 32.0), known_fault=True)

    known_fault_prefix = "ih:"

    def hooks(self, tr):
        return contextlib.nullcontext()

    def cases(self, rng: np.random.Generator) -> list[dict]:
        m = self.round_size - 1
        ub, ui, u1, u2 = (_strata(rng, m) for _ in range(4))
        cases = [dict(self.KNOWN_FAULT)]
        for i in range(m):
            cases.append(dict(
                binom_n=int(round(_log_uniform(ub[i], 16, 1024))),
                ih_n=2 + int(ui[i] * 11),
                omegas=(float(_log_uniform(u1[i], 8.0, 64.0)), float(_log_uniform(u2[i], 8.0, 64.0))),
                known_fault=False,
            ))
        return cases

    def run(self, c: dict, tr) -> dict:
        G = tr.law(esseen1d.normal_law(), cf="esseen1d.cf", cdf="esseen1d.cdf")
        out = {}
        for key, make, n in (("binom", esseen1d.standardized_binomial, c["binom_n"]),
                             ("ih", esseen1d.irwin_hall_standardized, c["ih_n"])):
            F = tr.law(make(n), cf="esseen1d.cf", cdf="esseen1d.cdf")
            with tr.span("esseen1d.sweep"):
                sweep = esseen1d.best_esseen_bound(F, G)
            singles = []
            for om in c["omegas"]:
                with tr.span("esseen1d.single_bound"):
                    singles.append(esseen1d.esseen_bound_1d(F, G, om))
            with tr.span("esseen1d.sup"):
                sup = esseen1d.sup_cdf_distance(F.cdf, G.cdf, self.GRID, F.atoms)
            out[key] = dict(bounds=[sweep.total] + [r.total for r in singles], sup=sup)
        return out

    def check(self, c: dict, out: dict) -> tuple[list[str], list[float]]:
        fails, ratios = [], []
        n, m = c["binom_n"], c["ih_n"]
        ref_sup = {"binom": ref.binomial_sup(n), "ih": ref.irwin_hall_sup(m, self.GRID)}
        # the exact Irwin-Hall sum is itself cross-checked against mpmath
        for t in (-0.5, 0.75):
            a, b = ref.irwin_hall_cdf(m, t), ref.irwin_hall_cdf_mp(m, t)
            if abs(a - b) > 1e-15:
                raise RuntimeError(f"Irwin-Hall references disagree at n={m}, t={t}: {a!r} vs {b!r}")
        for key, label in (("binom", f"binomial n={n}"), ("ih", f"irwin-hall n={m}")):
            r, o = ref_sup[key], out[key]
            if not abs(o["sup"] - r) <= self.SUP_TOL:
                fails.append(f"{key}: sup_cdf_distance {o['sup']!r} for {label}, reference {r!r}")
            for bnd in o["bounds"]:
                if not bnd >= r:
                    fails.append(f"{key}: bound {bnd!r} below reference discrepancy {r!r} ({label})")
                ratios.append(_log_ratio(bnd, r))
        return fails, ratios


# ---------------------------------------------------------------------------


class SmoothingK:
    """Partition, truncated and slab bounds for products of binomials at
    k = 2 and k = 3: tensor quadrature over scalar component cf calls."""

    name = "smoothing-k"
    round_size = 4
    K3_PANELS, K3_ORDER = 3, 4
    DELTA_A = 8.0
    BOX_EXTENT = 4.0
    PW_TOL = 1e-12

    def hooks(self, tr):
        return contextlib.nullcontext()

    def cases(self, rng: np.random.Generator) -> list[dict]:
        m = self.round_size
        un = _strata(rng, m)
        # Omega: the stratum midpoints of [8, 16] in seeded order.  The slab
        # bound's cost steps with the number of axis nodes inside |v| < tau,
        # so a seeded Omega would make the round's latency a lottery.
        omegas = 8.0 + 8.0 * (rng.permutation(m) + 0.5) / m
        return [
            dict(
                n=int(round(_log_uniform(un[i], 32, 256))),
                omega=float(omegas[i]),
                t2=rng.uniform(-1.0, 1.0, 2),
                t3=rng.uniform(-1.0, 1.0, 3),
            )
            for i in range(m)
        ]

    def run(self, c: dict, tr) -> dict:
        em = esseen_multi
        comp = tr.law(esseen1d.standardized_binomial(c["n"]), cf="esseen_multi.component_cf")
        om2, om3 = (c["omega"],) * 2, (c["omega"],) * 3
        bound = lambda span, fn, *a, **kw: self._bound(tr, span, fn, *a, **kw)
        F, G = self._traced(tr, em.product_law([comp] * 2)), em.product_normal_target(2)
        out = {
            "part2": bound("partition", em.esseen_bound_k, F, G, om2, c["t2"], panels=8, order=6),
            "A2": bound("truncated", em.esseen_bound_truncated, F, G, om2, delta=self.DELTA_A,
                        mode="A", panels=8, order=6),
            "B2": bound("truncated", em.esseen_bound_truncated, F, G, om2,
                        delta=1.0 + self.BOX_EXTENT, mode="B", box_extent=self.BOX_EXTENT,
                        panels=8, order=6),
            "slab2": bound("slab", em.esseen_bound_slab, F, G, om2),
            "pw2": abs(F.cdf(c["t2"]) - G.cdf(c["t2"])),
        }
        F, G = self._traced(tr, em.product_law([comp] * 3)), em.product_normal_target(3)
        out["part3"] = bound("partition", em.esseen_bound_k, F, G, om3, c["t3"],
                             panels=self.K3_PANELS, order=self.K3_ORDER)
        out["A3"] = bound("truncated", em.esseen_bound_truncated, F, G, om3, delta=self.DELTA_A,
                          mode="A", panels=self.K3_PANELS, order=self.K3_ORDER)
        out["pw3"] = abs(F.cdf(c["t3"]) - G.cdf(c["t3"]))
        return out

    @staticmethod
    def _bound(tr, span: str, fn, *args, **kwargs) -> float:
        with tr.span(f"esseen_multi.{span}"):
            total = fn(*args, **kwargs).total
        if tr.enabled and tr.cf_batches:
            pts = np.concatenate(tr.cf_batches)
            tr.count("esseen_multi.cf_distinct", np.unique(pts, axis=0).shape[0])
            tr.cf_batches.clear()
        return total

    @staticmethod
    def _traced(tr, law):
        """Count the points handed to the joint cf and keep them, so that
        distinct points can be told from re-evaluated ones."""
        if not tr.enabled:
            return law

        def make(cf):
            def wrapped(pts):
                pts = np.atleast_2d(pts)
                tr.count("esseen_multi.cf_points", pts.shape[0])
                tr.cf_batches.append(pts.copy())
                return cf(pts)
            return wrapped

        return tr.law(law, cf=("esseen_multi.cf_points", make))

    def check(self, c: dict, out: dict) -> tuple[list[str], list[float]]:
        n = c["n"]
        sup2, sup3 = ref.product_binomial_sup(n, 2), ref.product_binomial_sup(n, 3)
        box2 = ref.product_binomial_box_sup(n, self.BOX_EXTENT)
        pw2 = ref.product_binomial_pointwise(n, c["t2"])
        pw3 = ref.product_binomial_pointwise(n, c["t3"])
        fails = []
        for key, r in (("pw2", pw2), ("pw3", pw3)):
            if not abs(out[key] - r) <= self.PW_TOL:
                fails.append(f"{key}: pointwise discrepancy {out[key]!r}, reference {r!r}")
        # (bound, the reference it must dominate, the sup it is scaled by)
        table = {
            "part2": (pw2, sup2), "A2": (sup2, sup2), "B2": (box2, box2), "slab2": (sup2, sup2),
            "part3": (pw3, sup3), "A3": (sup3, sup3),
        }
        ratios = []
        for key, (must, scale) in table.items():
            if not out[key] >= must:
                fails.append(f"{key}: bound {out[key]!r} below reference {must!r} (n={n})")
            ratios.append(_log_ratio(out[key], scale))
        return fails, ratios


# ---------------------------------------------------------------------------


class CltMonteCarlo:
    """Haar-circle Monte Carlo (constant and alternating vector schemes) and
    log-cf gaps under the index scheme: Philox sampling, KS passes and
    the J0 quadrature."""

    name = "clt-montecarlo"
    round_size = 4
    N_MC = 400
    SAMPLES = 2 * 10**4
    GAP_NS = (400, 1600)
    N_XI = 8
    # |xi| >= 1/4: the gap shrinks like |xi|^4, so a draw near 0 would
    # dominate the geometric mean of bound / gap.
    XI_R2_MIN = 1.0 / 16.0

    def cases(self, rng: np.random.Generator) -> list[dict]:
        m = self.round_size * self.N_XI  # |xi|^2 stratified over the whole round
        r2 = (self.XI_R2_MIN + (1.0 - self.XI_R2_MIN) * _strata(rng, m)).reshape(self.round_size, -1)
        theta = rng.uniform(0.0, 2.0 * math.pi, r2.shape)
        seeds = rng.integers(1, 2**31, self.round_size)
        return [dict(mc_seed=int(seeds[i]), xis=np.sqrt(r2[i]) * np.exp(1j * theta[i]))
                for i in range(self.round_size)]

    def hooks(self, tr):
        return tr.patched(clt, ("ks_distance",))

    def run(self, c: dict, tr) -> dict:
        law = clt.haar_circle_law()
        law = tr.law(law, sampler=("clt.sampler", lambda f: self._traced_sampler(tr, f)),
                     cf="clt.j0_evals")
        out = {}
        for key, scheme, seed in (("const", clt.constant_scheme(), c["mc_seed"]),
                                  ("vector", clt.alternating_vector_scheme(2), c["mc_seed"] + 1)):
            mc = clt.MonteCarloConfig(seed=seed, samples=self.SAMPLES, N=self.N_MC)
            with tr.span("clt.vector_statistic"):
                out[key] = clt.vector_statistic(law, scheme, self.N_MC, mc)
        cache = getattr(clt.bessel_j0, "cache_info", None) if tr.enabled else None
        before = cache() if cache else None
        out["gaps"] = []
        for N in self.GAP_NS:
            for xi in c["xis"]:
                with tr.span("clt.gap"):
                    out["gaps"].append((N, xi, clt.gaussian_limit_gap(law, clt.index_scheme(), N, complex(xi))))
        if cache:
            after = cache()
            tr.count("clt.j0_cache_hits", after.hits - before.hits)
            tr.count("clt.j0_cache_misses", after.misses - before.misses)
        elif tr.enabled:
            tr.missing["clt.j0_cache"] = "bessel_j0 has no LRU cache"
        return out

    @staticmethod
    def _traced_sampler(tr, sampler):
        def wrapped(rng, size):
            with tr.span("clt.sampler"):
                x = sampler(rng, size)
            tr.count("clt.draws", int(np.size(x)))
            return x
        return wrapped

    def check(self, c: dict, out: dict) -> tuple[list[str], list[float]]:
        fails, ratios = [], []
        n = self.SAMPLES
        for key, J in (("const", 1), ("vector", 2)):
            st = out[key]
            var = 0.5 / J  # per real coordinate of each component
            be = ref.berry_esseen(self.N_MC // J)
            ks_band = ref.dkw_band(n, 2 * J) + be
            rect_band = ref.dkw_band(n, 25 * J) + 2.0 * be
            cov_band = 6.0 * 2.0 * var / math.sqrt(n)
            worst_ks = max(max(st.ks_real), max(st.ks_imag))
            if st.samples != n or len(st.ks_real) != J or len(st.ks_imag) != J:
                fails.append(f"{key}: report shape")
            if not worst_ks <= ks_band:
                fails.append(f"{key}: KS {worst_ks:.4g} outside band {ks_band:.4g}")
            if not st.rectangle_max_gap <= rect_band:
                fails.append(f"{key}: rectangle gap {st.rectangle_max_gap:.4g} outside band {rect_band:.4g}")
            target = np.eye(J) * 2.0 * var
            if not np.allclose(st.covariance_target, target, rtol=0, atol=1e-15):
                fails.append(f"{key}: covariance target {st.covariance_target!r}")
            dev = float(np.max(np.abs(np.asarray(st.covariance) - target)))
            if not dev <= cov_band:
                fails.append(f"{key}: covariance off target by {dev:.4g} > {cov_band:.4g}")
            if not abs(st.analytic_second_moment) <= cov_band:
                fails.append(f"{key}: E T^2 = {st.analytic_second_moment!r}")
        for N, xi, g in out["gaps"]:
            gap = ref.log_cf_gap(N, xi)
            bound, adm = ref.index_scheme_bound(N)
            if not abs(g.gap - gap) <= 1e-13 * N:
                fails.append(f"gap N={N} xi={xi!r}: {g.gap!r}, reference {gap!r}")
            if not abs(g.proof_bound - bound) <= 1e-12 * bound:
                fails.append(f"bound N={N}: {g.proof_bound!r}, reference {bound!r}")
            if g.admissible != (adm < 1.0) or not g.holds or not g.branch_ok:
                fails.append(f"gap N={N} xi={xi!r}: verdict flags {g!r}")
            if not g.proof_bound >= gap:
                fails.append(f"gap N={N} xi={xi!r}: bound {g.proof_bound!r} below reference gap {gap!r}")
            ratios.append(_log_ratio(g.proof_bound, gap))
        return fails, ratios


WORKLOADS = {w.name: w for w in (KernelTable(), Smoothing1D(), SmoothingK(), CltMonteCarlo())}
