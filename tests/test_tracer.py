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
assert before == 8 + 8 + 16, before
assert got == before + regions * (8 ** 3 + 16 ** 3), got
"""


def test_tracer_installs_and_reads_its_parameters():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN],
                          cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
