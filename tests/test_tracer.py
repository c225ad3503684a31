"""The benchmark's span tracer binds selbergkit names and parameters.

`perfbench/tracer.py` wraps functions by name and reads parameters such as
`npts` by name.  Installing it, then calling each function whose
parameters it reads, fails loudly if a change deletes or renames one.
The test only imports `perfbench/`; it writes nothing there.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACED_RUN = """
import tracer
from selbergkit import P, quadrature

t = tracer.Tracer()
tracer.install(t)
quadrature.aflt_lhs(1, P(1), P(1), 1.2, 1.3, 0.5, npts=8)
# aflt_lhs evaluates its Jack pair through macdonald.jack_eval: two spans
# of the macdonald.jack layer open directly inside its quadrature.chain
# span, and each holds one more, its jack_P; a route around jack_eval that
# reads jack_P itself leaves the inner two out
jack, chain = t.layer_id("macdonald.jack"), t.layer_id("quadrature.chain")
under = [t.span_layer[p] for layer, p in zip(t.span_layer, t.span_parent)
         if layer == jack]
assert under.count(chain) == under.count(jack) == 2, under
quadrature.an_selberg_lhs(1, [1], [1.2], 1.3, 0.5,
                          spec=quadrature.QuadratureSpec(points=8))
quadrature.torus_integral(1, lambda z: z * 0 + 1, npts=8)
for counter in ("quadrature.chain.nodes", "quadrature.chain.refinements",
                "quadrature.torus.nodes"):
    assert counter in t.counters, counter
before = t.counters["quadrature.chain.nodes"]
# the rank-2 chain rule counts npts^3 nodes per region and level, whatever
# slabs integrate_region evaluates them in
quadrature.an_selberg_lhs(2, [1, 2], [1.2, 1.4], 1.3, 0.4,
                          spec=quadrature.QuadratureSpec(points=8, tol=0,
                                                         max_refine=1))
regions = len(quadrature.enumerate_chain(2, [1, 2], 0.4))
assert regions == 2, regions
got = t.counters["quadrature.chain.nodes"]
# aflt_lhs at 8 points, then the n = 1 chain refines 8 -> 64 until two
# tanh-sinh levels agree to the default 1e-8
assert before == 8 + 8 + 16 + 32 + 64, before
assert got == before + regions * (8 ** 3 + 16 ** 3), got
"""

_TRACED_ELLIPTIC = """
import tracer
from selbergkit import elliptic

t = tracer.Tracer()
tracer.install(t)
ts, q = [0.4, 0.15, 0.4, 0.35, 0.4, 0.2], 0.45
p = 0.4 * 0.15 * 0.4 * 0.35 * 0.4 * 0.2 / q
elliptic.elliptic_beta_lhs(ts, 0.4, p, q, npts=160)
# 17 rings of 64 scan points and 160 torus nodes; the weight is one
# kernels.ellgamma_product call per array of points and calls no
# ellgamma_arr, so kernels.ellgamma counts only the one point Gamma(t) of
# the normalisation kappa_1
scan = 17 * 64
assert t.counters["elliptic.pole_scan.points"] == scan, t.counters
assert t.counters["quadrature.torus.nodes"] == 160, t.counters
assert t.counters["kernels.ellgamma.points"] == 1, t.counters
# so does a weight at p = 0.2, which the stacked route used to take
weight = elliptic._gamma_weight_factory([0.4, 0.1, 0.4, 0.35, 0.4, 0.1],
                                        0.2, 0.25)
elliptic.contour_pole_scan(weight)
got = t.counters["kernels.ellgamma.points"]
assert got == 1, got
"""


def _run_traced(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script],
                          cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_tracer_installs_and_reads_its_parameters():
    _run_traced(_TRACED_RUN)


def test_elliptic_gamma_points_are_counted_once():
    _run_traced(_TRACED_ELLIPTIC)
