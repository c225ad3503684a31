import json
import re
from pathlib import Path

import pytest

from selbergkit import cli, quadrature, suites
from selbergkit.field import PoleError
from selbergkit.reports import Outcome


@pytest.mark.parametrize("suite, calls", [("an-aflt", 10), ("an-alt", 5)])
def test_chain_norm_computed_once_per_shape(monkeypatch, suite, calls):
    # an-aflt: 8 numerators and one normalising integral per (ks, gamma)
    # shape; an-alt: 4 numerators and one shared normalising integral
    seen = []
    real = quadrature.an_selberg_lhs

    def counting(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "an_selberg_lhs", counting)
    suites._chain_norm.cache_clear()
    cfg = {"seed": 7}
    gen, _ = suites.SUITES[suite]
    for params in gen(cfg):
        assert suites.run_case(suite, params, cfg).passed
    assert len(seen) == calls


def test_size_at_cap_is_used_as_given():
    gen, _ = suites.SUITES["skew-sum"]
    ids = {c["case_id"] for c in gen({"max_size": 2})}
    assert "skew-(2)-(1,1)-2-2" in ids
    assert not any("(3)" in i or "(2,1)" in i for i in ids)
    with pytest.raises(ValueError, match="--max-size 4"):
        gen({"max_size": 4})


def test_every_verify_setting_is_read():
    # a key a --config may set, other than jobs, that no suite reads would
    # be a setting that is parsed and then ignored
    src = Path(suites.__file__).read_text()
    read = set(re.findall(r'cfg\.get\("(\w+)"', src))
    assert set(cli.VERIFY_KEYS) - {"jobs"} <= read


@pytest.mark.parametrize("cap, ids", [
    (0, ["cauchy-mu0"]),
    (1, ["cauchy-mu0", "cauchy-mu(1)"]),
    # at cap 2 the window of mu = (2,1) holds no coefficient
    (2, ["cauchy-mu0", "cauchy-mu(1)"]),
    (3, ["cauchy-mu0", "cauchy-mu(1)", "cauchy-mu(2,1)"]),
    (6, ["cauchy-mu0", "cauchy-mu(1)", "cauchy-mu(2,1)"]),
])
def test_cauchy_cases_compare_something(cap, ids):
    gen, _ = suites.SUITES["cauchy"]
    assert [c["case_id"] for c in gen({"max_degree": cap})] == ids


def _raising(exc):
    def runner(params, cfg):
        raise exc
    return runner


@pytest.mark.parametrize("exc, lhs, notes", [
    (ValueError("npts must be positive"), "error",
     "error: ValueError: npts must be positive"),
    (PoleError("1/(1-q) at q=1"), "pole", "pole: 1/(1-q) at q=1"),
])
def test_raising_runner_ends_in_failed_report(monkeypatch, exc, lhs, notes):
    monkeypatch.setitem(suites.SUITES, "demo",
                        (lambda cfg: [], _raising(exc)))
    rep = suites.run_case("demo", {"case_id": "c", "z": 0.5 + 0.25j},
                          {"seed": 7})
    assert not rep.passed
    assert (rep.lhs, rep.rhs, rep.notes) == (lhs, lhs, notes)
    assert rep.params == {"z": "0.5+0.25j"}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_goes_on_after_an_error(monkeypatch, tmp_path, jobs):
    gen, runner = suites.SUITES["connection"]

    def first_raises(params, cfg):
        if params["case_id"] == "cc-0":
            raise RuntimeError("boom")
        return runner(params, cfg)

    monkeypatch.setitem(suites.SUITES, "connection", (gen, first_raises))
    path = tmp_path / "rep.jsonl"
    assert cli.main(["verify", "connection", "--jobs", jobs,
                     "--report", str(path)]) == 1
    reps = [json.loads(x) for x in path.read_text().splitlines()]
    assert [r["passed"] for r in reps] == [False, True, True, True]
    assert reps[0]["notes"] == "error: RuntimeError: boom"


def test_exact_rule_ignores_tol(monkeypatch):
    monkeypatch.setitem(suites.SUITES, "demo", (
        lambda cfg: [], lambda params, cfg: Outcome(True, True, rule="exact")))
    assert suites.run_case("demo", {"case_id": "c"}, {"tol": -1.0}).passed


def test_guess_reports_its_true_deviation():
    gen, _ = suites.SUITES["guess"]
    (params,) = gen({})
    rep = suites.run_case("guess", params, {"seed": 7})
    assert rep.passed and float(rep.rhs) == 0.0
    assert rep.rel_err == rep.abs_err == pytest.approx(float(rep.lhs))
    assert rep.rel_err > 0.1
