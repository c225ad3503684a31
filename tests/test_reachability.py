"""Every function of the package is called by a run of the program.

One fresh interpreter (so that no cache warmed by another test hides a
call) runs ``list``, ``verify all --seed 7 --jobs 1 --report <tmp>`` and
each ``eval`` formula once, under ``sys.setprofile``.  Every function and
method defined in ``src/selbergkit`` (nested ones too; lambdas are left
out, as they have no name to list) must be called by one of these runs, or
be on ALLOWLIST.  Each allowlist entry names what it keeps, why it stays
and the tests that call it; an entry whose definitions are gone, or are
now called, fails the test too, so the list only shrinks.

Unlike ``test_names``, which asks only that a definition be named
somewhere, this test sees code that only tests or the benchmark call.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "selbergkit"

# (definitions as module.qualname, why they stay, tests that call them)
ALLOWLIST = [
    (("field._to_univar", "field._from_univar", "field._uni_pseudo_rem",
      "field._content_gcd", "field.mpoly_gcd", "field._prs_gcd",
      "field.MPoly.variables", "field.MPoly.__sub__"),
     "the general gcd, which perfbench/tracer.py wraps; no denominator a "
     "run builds needs it",
     ("tests/test_field.py::test_gcd_basic",)),
    (("field.MPoly.subs", "field.FieldElement.subs",
      "field.FieldElement.is_const"),
     "perfbench/refchecks.py substitutes numbers into exact values",
     ("tests/test_field.py::test_substitute_simple",)),
    (("macdonald.macdonald_Q", "macdonald.skew_Q", "symfunc.SymFunc.scale"),
     "the Q-normalised family, which perfbench/tracer.py wraps",
     ("tests/test_macdonald.py::TestMacdonaldP::test_Q_scaling",
      "tests/test_macdonald.py::TestSkew::test_skew_Q_normalisation")),
    (("symfunc.e_series_of_alphabet",),
     "perfbench/tracer.py wraps it",
     ("tests/test_symfunc.py::TestPlethysmRules::test_h_minus_is_e",)),
    (("elliptic.skew_interp_pm", "elliptic.bipartite_skew_interp_pm"),
     "perfbench/tracer.py wraps them",
     ("tests/test_elliptic.py::TestSkewInterp::test_reduction_to_plain",
      "tests/test_elliptic.py::TestBatchedInterpolationFactors"
      "::test_eaflt_factors")),
    (("field._unpack", "field.MPoly.__str__", "field.MPoly.__repr__",
      "field.FieldElement.__str__", "field.FieldElement.__repr__"),
     "the text forms, for debugging and error messages",
     ("tests/test_field.py::test_canonical_text_form",)),
    (("field.FieldElement.__bool__",),
     "the truth value of an exact element",
     ("tests/test_field.py::test_small_exponents_skip_the_memo",)),
    (("field._is_monomial",),
     "the input check of MPoly(terms), which no run passes terms",
     ("tests/test_field.py"
      "::test_constructor_rejects_what_is_no_packed_monomial",)),
    (("symfunc._falling", "symfunc._pow_dd_entry"),
     "the confluent branch of alternant_ratio: only coincident points "
     "reach it",
     ("tests/test_symfunc.py::TestSchur::test_coincident_points",)),
]

# six parameters that pass the balancing check t^(2n-2) t_1...t_6 = p q at
# the eval defaults n = 1, p = 0.1 and q = 0.3
_TS = "0.5,0.5,0.5,0.5,0.6,0.8"

_CENSUS = r"""
import contextlib, io, json, os, sys, tempfile
seen = set()

def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(hook)
from selbergkit import cli
codes = {}
with tempfile.TemporaryDirectory() as tmp, \
        contextlib.redirect_stdout(io.StringIO()):
    codes["list"] = cli.main(["list"])
    codes["verify all"] = cli.main(
        ["verify", "all", "--seed", "7", "--jobs", "1",
         "--report", os.path.join(tmp, "report.jsonl")])
    for f in cli.EVAL_READS:
        extra = ["--ts", sys.argv[2]] if f == "elliptic-selberg" else []
        codes["eval " + f] = cli.main(["eval", f] + extra)
sys.setprofile(None)
pkg = os.path.dirname(cli.__file__)
called = sorted({(os.path.basename(c.co_filename), c.co_firstlineno)
                 for c in seen if os.path.dirname(c.co_filename) == pkg})
with open(sys.argv[1], "w") as fh:
    json.dump({"codes": codes, "called": called}, fh)
"""


def _definitions():
    """{(file name, first line): module.qualname} of every function and
    method; the first line is a decorator's, as in co_firstlineno."""
    out = {}

    def walk(node, module, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in sub.decorator_list]
                           + [sub.lineno])
                out[(module + ".py", line)] = f"{module}.{prefix}{sub.name}"
                walk(sub, module, f"{prefix}{sub.name}.<locals>.")
            elif isinstance(sub, ast.ClassDef):
                walk(sub, module, f"{prefix}{sub.name}.")
            else:
                walk(sub, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem, "")
    return out


def _test_exists(test_id):
    path, *names = test_id.split("::")
    tree = ast.parse((ROOT / path).read_text())
    scope = tree.body
    for name in names:
        node = next((n for n in scope
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_every_function_is_called_by_a_run(tmp_path):
    out = tmp_path / "called.json"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", _CENSUS, str(out), _TS],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    census = json.loads(out.read_text())
    # a run that stopped early would hide what it did not reach
    assert all(code == 0 for code in census["codes"].values()), census["codes"]

    defs = _definitions()
    keys = {tuple(key) for key in census["called"]}
    called = {name for key, name in defs.items() if key in keys}
    allowed = {name for names, _, _ in ALLOWLIST for name in names}
    uncalled = sorted(name for key, name in defs.items()
                      if key not in keys and name not in allowed)
    assert not uncalled, "called by no run:\n" + "\n".join(uncalled)
    assert not allowed - set(defs.values()), "allowlisted but not defined"
    assert not allowed & called, ("allowlisted but called: "
                                  + ", ".join(sorted(allowed & called)))

    assert len(ALLOWLIST) <= 12
    for names, reason, tests in ALLOWLIST:
        assert reason and tests, names
        for test_id in tests:
            assert _test_exists(test_id), test_id
