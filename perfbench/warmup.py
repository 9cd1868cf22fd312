"""Program set-up that every bslib run pays: the imports (numpy, scipy,
sympy) and one small call into each layer, which triggers the CLI's lazy
imports and first-call set-up.  `python3 -c "import warmup;
warmup.warm_up()"` with src/ and perfbench/ on the path is what setup_s
times."""

import contextlib
import io

from bslib import cli, clt, esseen1d, esseen_multi


def warm_up() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["eval", "--fn", "W", "--x", "0.5"])
        cli.main(["eval", "--fn", "cardinal", "--x", "0.3"])
    G = esseen1d.normal_law()
    F = esseen1d.standardized_binomial(16)
    esseen1d.esseen_bound_1d(F, G, 8.0)
    esseen_multi.esseen_bound_k(esseen_multi.product_law([F, F]), esseen_multi.product_normal_target(2),
                                (8.0, 8.0), (0.0, 0.0), panels=1, order=2)
    law = clt.haar_circle_law()
    clt.gaussian_limit_gap(law, clt.index_scheme(), 16, 0.5)
    clt.vector_statistic(law, clt.constant_scheme(), 4, clt.MonteCarloConfig(seed=1, samples=1000, N=4))
