"""bslib benchmark: four workloads timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --smoke

Run from the repository root; bslib is imported from ./src.  A run
repeats whole rounds of cases until another round would end after
--seconds.  Each case's bslib calls are timed; its outputs are then
checked against perfbench/reference.py (outside the timed region).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120


def _program_on_path() -> None:
    if not os.path.isfile(os.path.join(SRC, "bslib", "__init__.py")):
        sys.exit(f"perfbench: no bslib sources in {SRC}; run from the root of a bslib checkout")
    sys.path[:0] = [SRC, HERE]


def measure_setup() -> float:
    """Median wall time of fresh interpreters that import bslib and warm up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import warmup; warmup.warm_up()"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(wl, seed: int, seconds: float, tr, smoke: bool) -> dict:
    latencies, first_round, unexpected = [], [], []
    attempted = failed = rounds = 0
    t_start = time.perf_counter()
    hooks = wl.hooks(tr) if tr.enabled else contextlib.nullcontext()
    with hooks:
        while True:
            r0 = time.perf_counter()
            cases = wl.cases(np.random.default_rng([seed, zlib.crc32(wl.name.encode()), rounds]))
            for c in cases[-1:] if smoke else cases:
                attempted += 1
                with tr.span("case"):
                    t0 = time.perf_counter()
                    try:
                        out = wl.run(c, tr)
                    except Exception as exc:  # a raising call is a failed case, not a crash
                        out, fails = None, [f"raised {type(exc).__name__}: {exc}"]
                    dt = time.perf_counter() - t0
                if out is not None:
                    latencies.append(dt)
                    fails, ratios = wl.check(c, out)
                    if rounds == 0 and ratios:
                        first_round.append(statistics.fmean(ratios))
                if fails:
                    failed += 1
                    if not (c.get("known_fault") and all(f.startswith(wl.known_fault_prefix) for f in fails)):
                        unexpected.extend(fails)
            rounds += 1
            now = time.perf_counter()
            if smoke or (now - t_start) + (now - r0) > seconds:
                break
    return dict(
        attempted=attempted,
        failed=failed,
        rounds=rounds,
        unexpected=unexpected,
        latencies=latencies,
        # over the first round only, so it depends on the seed and not on
        # how many rounds fit into the run
        bound_ratio=math.exp(statistics.fmean(first_round)) if first_round else None,
        wall_s=time.perf_counter() - t_start,
    )


def end_to_end(res: dict, setup_s: float | None) -> dict:
    lat = res["latencies"]
    m = {
        "ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "cases/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3 if lat else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "bound_ratio": (res["bound_ratio"], "ratio"),
    }
    if setup_s is not None:
        m["setup_s"] = (setup_s, "s")
    return m


# per-layer metric -> the hooks (exact names, or "layer." prefixes) it is fed by
NEEDS = {
    "kernels.points_per_s": ("kernels.",),
    "kernels.busy_s": ("kernels.",),
    "kernels.oracle_points_per_s": ("kernels.",),
    "interpolation.busy_s": ("interpolation.",),
    "interpolation.nodes_per_value": ("interpolation.",),
    "cli.self_s": ("kernels.", "interpolation."),
    "esseen1d.cf_evals": ("esseen1d.cf",),
    "esseen1d.cf_evals_per_s": ("esseen1d.cf",),
    "esseen1d.cdf_evals": ("esseen1d.cdf",),
    "esseen_multi.cf_points": ("esseen_multi.cf_points",),
    "esseen_multi.cf_reuse": ("esseen_multi.cf_points",),
    "esseen_multi.component_cf_calls": ("esseen_multi.component_cf",),
    "clt.mc_busy_s": ("clt.sampler",),
    "clt.mc_draws_per_s": ("clt.sampler",),
    "clt.ks_busy_s": ("clt.ks_distance",),
    "clt.j0_evals": ("clt.j0_evals",),
    "clt.j0_cache_hit_ratio": ("clt.j0_cache",),
}


def per_layer(tr, cases: int) -> dict:
    """Per-layer metrics of a traced run; times and counts are per case."""
    tot, cnt, lt, lc = tr.total, tr.counts, tr.layer_total, tr.layer_calls

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_names = [n for n in lt if n.startswith("kernels.") and n != "kernels.oracle"]
    kernel_busy = sum(lt[n] for n in kernel_names)
    values_made = tr.calls["interpolation.cardinal_series"] + tr.calls["interpolation.vaaler_interpolation"]
    hits, misses = cnt["clt.j0_cache_hits"], cnt["clt.j0_cache_misses"]
    m = {
        "kernels.points_per_s": (ratio(sum(lc[n] for n in kernel_names), kernel_busy), "pts/s"),
        "kernels.busy_s": (kernel_busy / cases, "s"),
        "kernels.oracle_points_per_s": (ratio(cnt["kernels.oracle_points"], tot["kernels.oracle"]), "pts/s"),
        "interpolation.busy_s": (sum(v for n, v in lt.items() if n.startswith("interpolation.")) / cases, "s"),
        "interpolation.nodes_per_value": (ratio(cnt["interpolation.nodes"], values_made), "count"),
        "cli.self_s": (tr.self_time["cli.main"] / cases, "s"),
        "esseen1d.sweep_busy_s": (tot["esseen1d.sweep"] / cases, "s"),
        "esseen1d.single_bound_busy_s": (tot["esseen1d.single_bound"] / cases, "s"),
        "esseen1d.cf_evals": (cnt["esseen1d.cf"] / cases, "count"),
        "esseen1d.cf_evals_per_s": (ratio(cnt["esseen1d.cf"], tot["esseen1d.sweep"] + tot["esseen1d.single_bound"]), "1/s"),
        "esseen1d.sup_busy_s": (tot["esseen1d.sup"] / cases, "s"),
        "esseen1d.cdf_evals": (cnt["esseen1d.cdf"] / cases, "count"),
        "esseen_multi.partition_busy_s": (tot["esseen_multi.partition"] / cases, "s"),
        "esseen_multi.truncated_busy_s": (tot["esseen_multi.truncated"] / cases, "s"),
        "esseen_multi.slab_busy_s": (tot["esseen_multi.slab"] / cases, "s"),
        "esseen_multi.cf_points": (cnt["esseen_multi.cf_points"] / cases, "count"),
        "esseen_multi.component_cf_calls": (cnt["esseen_multi.component_cf"] / cases, "count"),
        "esseen_multi.cf_reuse": (ratio(cnt["esseen_multi.cf_points"], cnt["esseen_multi.cf_distinct"]), "ratio"),
        "clt.mc_busy_s": (tot["clt.sampler"] / cases, "s"),
        "clt.mc_draws_per_s": (ratio(cnt["clt.draws"], tot["clt.sampler"]), "draws/s"),
        "clt.ks_busy_s": (tot["clt.ks_distance"] / cases, "s"),
        "clt.gap_busy_s": (tot["clt.gap"] / cases, "s"),
        "clt.j0_evals": (cnt["clt.j0_evals"] / cases, "count"),
        "clt.j0_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
    }
    # a hook that could not be installed leaves the metrics fed by it unmeasured
    for k, prefixes in NEEDS.items():
        if any(h == p or (p.endswith(".") and h.startswith(p)) for h in tr.missing for p in prefixes):
            m[k] = (None, m[k][1])
    return m


def _fmt_metrics(m: dict, prefix: str = "") -> dict:
    out = {}
    for k, (v, unit) in m.items():
        out[prefix + k] = {"value": v, "unit": unit}
        if v is None:
            out[prefix + k]["missing"] = True
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one case per workload, every check on")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    _program_on_path()
    import warmup
    import workloads
    from tracing import NullTracer, Tracer

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    warmup.warm_up()
    setup_s = None if (args.trace or args.smoke) else measure_setup()

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        tr = Tracer() if args.trace else NullTracer()
        res = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, tr, args.smoke)
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            tr.write(os.path.join(OUT_DIR, f"trace-{name}-seed{args.seed}.json"),
                     {"workload": name, "seed": args.seed, "cases": res["attempted"]})
            m = per_layer(tr, max(res["attempted"], 1))
        else:
            m = end_to_end(res, setup_s)
        lat = res["latencies"]
        print(f"# {name}: {res['attempted']} cases in {res['rounds']} rounds, {res['failed']} failed, "
              f"p50 {statistics.median(lat) * 1e3 if lat else float('nan'):.1f} ms, "
              f"wall {res['wall_s']:.1f} s{' (traced)' if args.trace else ''}")
        for k, (v, unit) in m.items():
            print(f"#   {k:34s} {v!s:>24} {unit}")
        for f in res["unexpected"][:20]:
            print(f"perfbench: {name}: unexpected failure: {f}", file=sys.stderr)
        correct = correct and not res["unexpected"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update(_fmt_metrics(m, "" if len(names) == 1 else f"{name}."))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
