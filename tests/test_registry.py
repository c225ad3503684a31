"""The suite registry: its names and pairs, and what running a suite loads.

`suites.SUITES` holds one deferred (cases, runner) pair per suite; the
cases and runners live in the family modules `suites_exact`,
`suites_elliptic` and `suites_numeric`, imported the first time one of
their suites is called.  The benchmark (`perfbench/worker.py`) wraps the
cases of each pair and reassigns the pair, and its tracer wraps
`suites.run_case`; both must keep working.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selbergkit import cli, suites
from selbergkit.cli import main

ROOT = Path(__file__).resolve().parents[1]

ORDER = [
    "cauchy", "skew-sum", "eval-sym", "an-cauchy", "zbifund", "aflt",
    "an-selberg", "an-aflt", "an-alt", "complex-schur", "beta-schur",
    "nplusone", "mac-limit", "ortho", "elliptic-beta", "thm92",
    "elliptic-aflt", "jackson", "connection", "skew-limit", "recursion",
    "guess", "hyper", "forms", "properties",
]


def _cold(script, cwd=ROOT):
    """Run ``script`` in a fresh interpreter on ``src``; its last line of
    stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()[-1]


_LOADED_AFTER = """
import contextlib, json, os, sys
from selbergkit import cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for argv in {plan!r}:
        assert cli.main(["verify", *argv, "--seed", "7", "--jobs", "1"]) == 0
print(json.dumps(sorted(sys.modules)))
"""

ELLIPTIC_TORUS = [["elliptic-beta"], ["thm92"], ["elliptic-aflt"],
                  ["jackson"], ["connection"], ["skew-limit"]]
EXACT_ALGEBRA = [["cauchy"], ["skew-sum", "--max-size", "2"], ["eval-sym"],
                 ["an-cauchy"]]


@pytest.mark.parametrize("plan, family, unloaded", [
    (ELLIPTIC_TORUS, "suites_elliptic",
     ["selbergkit.closedform", "selbergkit.macdonald",
      "selbergkit.quadrature", "selbergkit.suites_exact",
      "selbergkit.suites_numeric", "selbergkit.symfunc"]),
    (EXACT_ALGEBRA, "suites_exact",
     ["numpy", "selbergkit.suites_elliptic", "selbergkit.suites_numeric"]),
], ids=["elliptic-torus", "exact-algebra"])
def test_a_workload_loads_only_what_its_cases_run(plan, family, unloaded):
    # a cold process compiles every module it imports, so a module the
    # cases never call costs every run its compile time
    loaded = set(json.loads(_cold(_LOADED_AFTER.format(plan=plan))))
    assert f"selbergkit.{family}" in loaded
    assert not loaded & set(unloaded), sorted(loaded & set(unloaded))


def test_list_keeps_the_names_and_their_order(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out.split() == ORDER
    assert list(suites.SUITES) == ORDER


def test_every_entry_is_a_pair_of_callables():
    from selbergkit import suites_elliptic, suites_exact, suites_numeric
    for name, pair in suites.SUITES.items():
        cases, runner = pair
        assert callable(cases) and callable(runner), name
    # the family modules define each suite once, and no suite the registry
    # does not list
    families = [suites_exact.PAIRS, suites_elliptic.PAIRS,
                suites_numeric.PAIRS]
    assert sum(map(len, families)) == len(ORDER)
    assert set().union(*families) == set(ORDER)


@pytest.mark.parametrize("argv", [["cauchy", "--max-degree", "1"],
                                  ["connection"], ["beta-schur"]],
                         ids=["exact", "elliptic", "numeric"])
def test_wrapped_cases_still_count_and_run(monkeypatch, tmp_path, argv):
    # perfbench/worker.py counts the generated cases this way
    name = argv[0]
    gen, runner = suites.SUITES[name]
    generated = []

    def counting(cfg):
        out = list(gen(cfg))
        generated.extend(out)
        return out

    monkeypatch.setitem(suites.SUITES, name, (counting, runner))
    path = tmp_path / "rep.jsonl"
    assert main(["verify", *argv, "--seed", "7", "--jobs", "1",
                 "--report", str(path)]) == 0
    reps = [json.loads(x) for x in path.read_text().splitlines()]
    assert generated and len(reps) == len(generated)
    assert ({r["case_id"] for r in reps}
            == {c["case_id"] for c in generated})


_TRACED_REGISTRY = """
import contextlib, os
import tracer
from selbergkit import cli, elliptic, kernels, quadrature, suites

t = tracer.Tracer()
tracer.install(t)
assert cli.run_case is suites.run_case
# elliptic integrates with kernels.torus_integral, which is the traced
# quadrature.torus_integral
assert quadrature.torus_integral is kernels.torus_integral
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    assert cli.main(["verify", "skew-limit", "--jobs", "1"]) == 0
    assert cli.main(["verify", "elliptic-beta", "--jobs", "1",
                     "--quad-points", "64"]) == 0
assert t.calls[t.layer_id("suites.harness")] == 4, t.calls
assert t.counters["quadrature.torus.nodes"] == 3 * 64, t.counters
print("ok")
"""


def test_tracer_binds_the_harness_and_the_torus_rule():
    assert cli.run_case is suites.run_case
    assert _cold(_TRACED_REGISTRY, cwd=ROOT / "perfbench") == "ok"
