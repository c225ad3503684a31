import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from selbergkit import cli, quadrature, suites, suites_numeric
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
    suites_numeric._chain_norm.cache_clear()
    cfg = {"seed": 7}
    gen, _ = suites.SUITES[suite]
    for params in gen(cfg):
        assert suites.run_case(suite, params, cfg).passed
    assert len(seen) == calls


def _run_recording(monkeypatch, name, suite, case_id):
    """Run one suite case with the chain caches cold, recording every call
    of quadrature.`name`."""
    seen = []
    real = getattr(quadrature, name)

    def recording(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, name, recording)
    suites_numeric._chain_norm.cache_clear()
    cfg = {"seed": 7}
    gen, _ = suites.SUITES[suite]
    params = next(c for c in gen(cfg) if c["case_id"] == case_id)
    return suites.run_case(suite, params, cfg), seen


def test_ansel_k12_converges_by_64_points(monkeypatch):
    rep, seen = _run_recording(monkeypatch, "integrate_region",
                               "an-selberg", "ansel-k12")
    assert rep.passed and rep.rel_err <= 1e-12
    assert max(args[-1] for args in seen) <= 64


def test_hyper_4f3_g09_meets_its_tolerance(monkeypatch):
    # the cross exponent -gamma = -0.9 sets the truncation of its rules
    rep, seen = _run_recording(monkeypatch, "tanh_sinh_01", "hyper",
                               "hyper-4f3-g09")
    assert rep.passed and rep.rel_err <= 1e-10
    assert min(args[3] for args in seen) == pytest.approx(-0.9)


def test_size_at_cap_is_used_as_given():
    gen, _ = suites.SUITES["skew-sum"]
    ids = {c["case_id"] for c in gen({"max_size": 2})}
    assert "skew-(2)-(1,1)-2-2" in ids
    assert not any("(3)" in i or "(2,1)" in i for i in ids)
    with pytest.raises(ValueError, match="--max-size 7"):
        gen({"max_size": 7})


def test_every_verify_setting_is_read():
    # a key a --config may set, other than jobs, that no suite reads would
    # be a setting that is parsed and then ignored; the suites are defined
    # in suites.py and its family modules suites_*.py
    src = "".join(path.read_text() for path
                  in Path(suites.__file__).parent.glob("suites*.py"))
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


def test_size_four_sample_holds_exactly():
    # fixed samples of the cases that the raised --max-size caps of 4, 5
    # and 6 add
    rng = random.Random(804)
    for size, suite, count in ((4, "skew-sum", 24), (4, "eval-sym", 12),
                               (5, "skew-sum", 4), (5, "eval-sym", 2),
                               (6, "skew-sum", 2), (6, "eval-sym", 1)):
        gen, _ = suites.SUITES[suite]
        known = {c["case_id"] for c in gen({"max_size": size - 1})}
        new = [c for c in gen({"max_size": size}) if c["case_id"] not in known]
        for params in rng.sample(new, count):
            rep = suites.run_case(suite, params, {})
            assert rep.passed and rep.lhs == rep.rhs == "equal", rep


def test_cauchy_window_sees_p_in_place_of_q(monkeypatch):
    # with b_lam / b_mu taken as 1 the left side sums P_lam(x) P_{lam/mu}(y),
    # which is not the Cauchy kernel: the dominant-monomial window must see it
    from selbergkit import macdonald
    from selbergkit.field import fe
    gen, _ = suites.SUITES["cauchy"]
    params = next(c for c in gen({}) if c["case_id"] == "cauchy-mu(1)")
    assert suites.run_case("cauchy", params, {}).passed
    monkeypatch.setattr(macdonald, "_b_ratio", lambda lam, mu: fe(1))
    rep = suites.run_case("cauchy", params, {})
    assert not rep.passed and rep.lhs == "unequal"


@pytest.mark.parametrize("cap", [3, 7])
def test_an_cauchy_sees_a_corrupted_kernel_factor(monkeypatch, cap):
    # with t^2 in place of t in the x-y factor (t x z y; q)_inf / (x z y; q)_inf
    # the right side differs at x z y, inside the compared grading: a
    # truncation that left nothing to compare would still pass.  `cauchy`
    # builds its x-y kernels with the same function, so it fails too.
    from selbergkit import identities
    from selbergkit.field import var
    t = var("t")
    gen, _ = suites.SUITES["an-cauchy"]
    params = next(c for c in gen({"max_degree": cap})
                  if c["case_id"] == "ancauchy-n2-k1.1-II")
    gen, _ = suites.SUITES["cauchy"]
    cauchy_params = next(c for c in gen({}) if c["case_id"] == "cauchy-mu0")
    assert suites.run_case("an-cauchy", params, {}).passed
    assert suites.run_case("cauchy", cauchy_params, {}).passed
    kernel = identities._kernel_series

    def corrupted(alpha, beta, U, q):
        if alpha == t and beta == 1:
            alpha = t ** 2
        return kernel(alpha, beta, U, q)

    monkeypatch.setattr(identities, "_kernel_series", corrupted)
    for suite, case in (("an-cauchy", params), ("cauchy", cauchy_params)):
        rep = suites.run_case(suite, case, {})
        assert not rep.passed and rep.lhs == "unequal", suite


@pytest.mark.parametrize("suite, case_id, cap, x, y", [
    ("cauchy", "cauchy-mu0", 6, "x2", "y2"),
    ("an-cauchy", "ancauchy-n2-k1.1-II", 4, "x1", "y2"),
    ("an-cauchy", "ancauchy-n2-k1.1-II", 7, "x1", "y2"),
])
def test_one_corrupted_kernel_pair_is_seen(monkeypatch, suite, case_id, cap,
                                           x, y):
    # t^2 in place of t in the one (x, y) kernel breaks the symmetry that
    # the dominant-monomial comparison rests on.  Its own first term sits
    # at a monomial that is not dominant, but times the (x1, y1) kernel's
    # it reaches the dominant x1 x2 y1 y2 (cauchy) or z1^2 x1^2 y1 y2
    # (an-cauchy, weighted degree 4, so beyond the default cap 3), and the
    # check fails there
    from selbergkit import identities
    from selbergkit.field import var
    t = var("t")
    gen, _ = suites.SUITES[suite]
    params = next(c for c in gen({"max_degree": cap})
                  if c["case_id"] == case_id)
    assert suites.run_case(suite, params, {}).passed
    kernel = identities._kernel_series

    def corrupted(alpha, beta, U, q):
        (e, _), = U.terms.items()
        held = {name for name, p in zip(U.letters, e) if p}
        if alpha == t and beta == 1 and {x, y} <= held:
            alpha = t ** 2
        return kernel(alpha, beta, U, q)

    monkeypatch.setattr(identities, "_kernel_series", corrupted)
    rep = suites.run_case(suite, params, {})
    assert not rep.passed and rep.lhs == "unequal"


@pytest.mark.parametrize("n, ks, mu, variant, reaches", [
    (3, [1, 2, 2], (), "II", "z-kernel"),
    (2, [1, 2], (1,), "II", "P_mu[W]"),
    (2, [1, 1], (1,), "I", "P_mu[W]"),
])
def test_an_cauchy_right_side_factors_no_default_case_runs(
        monkeypatch, n, ks, mu, variant, reaches):
    # no default an-cauchy case runs P_mu[W] at n >= 2, the only plethysm
    # at a Sum or Product of alphabets, or a z-kernel
    # (a_s q t^{i-1} z_{r+1}..z_s; q)_inf / (t^i z_{r+1}..z_s; q)_inf of
    # r < s < n with k_{r+1} > k_r; each case here reaches one of them and
    # holds exactly
    from selbergkit import identities
    from selbergkit.partitions import Partition
    from selbergkit.symfunc import Sum
    reached = set()
    kernel, pleth = identities._kernel_series, identities.plethysm

    def kernel_seen(alpha, beta, U, q):
        (e, _), = U.terms.items()
        if all(name[0] == "z" for name, p in zip(U.letters, e) if p):
            reached.add("z-kernel")
        return kernel(alpha, beta, U, q)

    def pleth_seen(f, A):
        if isinstance(A, Sum):
            reached.add("P_mu[W]")
        return pleth(f, A)

    monkeypatch.setattr(identities, "_kernel_series", kernel_seen)
    monkeypatch.setattr(identities, "plethysm", pleth_seen)
    chk = identities.an_cauchy_check(n, ks, Partition(mu), cap=3,
                                     variant=variant)
    assert chk.equal
    assert reached == {reaches}, reached


def test_an_cauchy_degree_five_is_small():
    # truncating on the compared grading keeps the plethystic case at
    # degree 5 to a few MB; truncating on total degree alone took 99 MB
    gen, _ = suites.SUITES["an-cauchy"]
    params = next(c for c in gen({"max_degree": 5})
                  if c["case_id"] == "ancauchy-n2-k1.2-II-pleth")
    tracemalloc.start()
    try:
        rep = suites.run_case("an-cauchy", params, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.lhs == rep.rhs == "equal", rep
    assert peak <= 30 * 2 ** 20, peak


@pytest.mark.parametrize("seed, pole", [
    # alpha_1 - gamma = 1.582 - 0.582 = 1 zeroes a Pochhammer denominator
    (105, {"case_id": "recR-00", "n": 3, "ks": [1, 2, 3],
           "lams": [(), (2,), (2,), (2,)], "alphas": [1.582, 1.674, 1.876],
           "beta": 0.644, "gamma": 0.582, "kind": "recR"}),
    # alpha_1 = 2 at gamma = 1 does so in the gamma = 1 closed form
    (1428, {"case_id": "recG1-3", "n": 2, "ks": [1, 2],
            "lams": [(2,), (2,), (1,)], "alphas": [2.0, 1.747],
            "beta": 0.879, "gamma": 1.0, "kind": "gamma1"}),
], ids=["recR-seed105", "gamma1-seed1428"])
def test_recursion_draws_inside_the_domain(seed, pole):
    rep = suites.run_case("recursion", pole, {})
    assert not rep.passed and rep.lhs == "pole"
    assert rep.notes.startswith("pole: ")
    cases = suites_numeric.cases_recursion({"seed": seed})
    assert pole not in cases and len(cases) == 26
    assert [c["case_id"] for c in cases].count(pole["case_id"]) == 1
    for params in cases:
        assert suites.run_case("recursion", params, {}).passed, params


@pytest.mark.parametrize("seed, pole", [
    # alpha_1 = 2 zeroes a Pochhammer denominator of the closed form
    (1182, {"case_id": "np1-ratio-1", "kind": "ratio", "n": 2, "ks": [1, 2],
            "lams": [(2,), (1,), (1, 1)], "alphas": [2.0, 1.723],
            "beta": 0.832}),
    # so does alpha_2 = 2
    (1185, {"case_id": "np1-ratio-2", "kind": "ratio", "n": 3,
            "ks": [1, 2, 3], "lams": [(1,), (1, 1), (1, 1), ()],
            "alphas": [1.968, 2.0, 1.712], "beta": 0.733}),
], ids=["ratio1-seed1182", "ratio2-seed1185"])
def test_nplusone_draws_inside_the_domain(seed, pole):
    rep = suites.run_case("nplusone", pole, {})
    assert not rep.passed and rep.lhs == "pole"
    assert rep.notes.startswith("pole: ")
    cases = suites_numeric.cases_nplusone({"seed": seed})
    assert pole not in cases and len(cases) == 6
    assert [c["case_id"] for c in cases].count(pole["case_id"]) == 1
    for params in cases:
        assert suites.run_case("nplusone", params, {}).passed, params


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


@pytest.mark.parametrize("suite, calls", [("guess", 2), ("hyper", 6)])
def test_quad_points_reach_the_chain_rule(monkeypatch, suite, calls):
    # every chain integral of the suite starts at the --quad-points rule
    points = []
    real = quadrature.an_selberg_lhs

    def recording(*args, **kwargs):
        points.append(kwargs["spec"].points)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "an_selberg_lhs", recording)
    suites_numeric._chain_norm.cache_clear()
    cfg = {"seed": 7, "quad_points": 12}
    gen, run = suites.SUITES[suite]
    for params in gen(cfg):
        run(params, cfg)
    assert points == [12] * calls


def test_forms_pass_and_no_numeric_case_compares_zeros():
    # a numeric case with both sides 0 would pass whatever the forms said
    gen, _ = suites.SUITES["forms"]
    cases = gen({})
    assert len(cases) == len({c["case_id"] for c in cases}) == 33
    for params in cases:
        rep = suites.run_case("forms", params, {})
        assert rep.passed, rep
        if rep.lhs != "equal":
            assert complex(rep.lhs) != 0 and complex(rep.rhs) != 0, rep


_NO_GENERAL_GCD = """
from selbergkit import cli, field

def no_gcd(*args, **kwargs):
    raise AssertionError("a suite reached the general gcd")

field.mpoly_gcd = no_gcd
for argv in (["cauchy"], ["skew-sum", "--max-size", "2"], ["eval-sym"],
             ["an-cauchy"], ["forms"]):
    assert cli.main(["verify", *argv, "--seed", "7", "--jobs", "1"]) == 0, argv
"""


def test_no_exact_suite_needs_a_general_gcd():
    # Every denominator of the exact suites keeps its carried factorization,
    # so no gcd leaves the factored routes.  A cold process, so that no
    # cache or memo warmed by another test hides a gcd: a change that drops
    # a factorization fails here instead of sending work to the PRS.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _NO_GENERAL_GCD], env=env,
                          capture_output=True, text=True, timeout=300)
    failed = [line for line in done.stdout.splitlines()
              if line.startswith("[FAIL]")]
    assert done.returncode == 0, (failed[:5], done.stderr[-2000:])
