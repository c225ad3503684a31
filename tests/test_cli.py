import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selbergkit.cli import main
from selbergkit.reports import Outcome, VerificationReport, make_report


class TestReports:
    def test_round_trip(self):
        rep = make_report("demo", "case-1", {"k": 2, "z": 0.5 + 0.25j},
                          Outcome(1.0 + 0j, 1.0 + 1e-12j, 1e-6, notes="n"),
                          12.5)
        back = VerificationReport.from_json(rep.to_json())
        assert back == rep

    def test_pass_semantics(self):
        rep = make_report("demo", "c", {}, Outcome(1.0, 1.001, 1e-6), 0.0)
        assert not rep.passed
        rep = make_report("demo", "c", {}, Outcome(1.0, 1.0 + 1e-9, 1e-6), 0.0)
        assert rep.passed

    def test_near_zero_uses_abs(self):
        rep = make_report("demo", "c", {}, Outcome(1e-12, 0.0, 1e-6), 0.0)
        assert rep.passed

    @pytest.mark.parametrize("outcome, passed, rel_err", [
        (Outcome(1.0, 1.0 + 1e-9, 1e-6), True, 1e-9),
        (Outcome(1.001, 1.0, 1e-6), False, 1e-3),
        (Outcome(0.173, 0.0, 1e-2, "must_differ"), True, 0.173),
        (Outcome(1.0, 1.0 + 1e-9, 1e-2, "must_differ"), False, 1e-9),
        (Outcome([1.5, 1.1, 1.01], 1.0, 0.05, "converges"), True, 0.01),
        # decreasing, but the last deviation is outside tol
        (Outcome([1.5, 1.1, 1.01], 1.0, 1e-3, "converges"), False, 0.01),
        # inside tol, but not decreasing
        (Outcome([1.01, 1.02, 1.03], 1.0, 0.5, "converges"), False, 0.03),
        (Outcome([1.1, 1.1, 1.1], 1.0, 0.5, "converges"), False, 0.1),
        (Outcome(True, True, rule="exact"), True, 0.0),
        (Outcome(False, True, rule="exact"), False, float("nan")),
        # v = 1 + s + s^2 through three points: the value at s = 0 is 1
        (Outcome([(0.4, 1.56), (0.2, 1.24), (0.1, 1.11)], 1.0, 1e-12,
                 "extrapolates"), True, 0.0),
        # v = 1 + s - 10 s^2: the value at s = 0 is 1, but the deviations
        # 0.2, 0, 0.025 do not decrease
        (Outcome([(0.2, 0.8), (0.1, 1.0), (0.05, 1.025)], 1.0, 0.5,
                 "extrapolates"), False, 0.0),
        # decreasing deviations, extrapolated outside tol
        (Outcome([(0.2, 1.2), (0.1, 1.1)], 0.99, 1e-3, "extrapolates"),
         False, 0.01 / 0.99),
    ])
    def test_rule(self, outcome, passed, rel_err):
        rep = make_report("demo", "c", {}, outcome, 0.0)
        assert rep.passed is passed
        assert rep.rel_err == pytest.approx(rel_err, rel=1e-6, nan_ok=True)

    def test_converges_reports_last_value_against_target(self):
        rep = make_report("demo", "c", {},
                          Outcome([2.0, 1.5, 1.25], 1.0, 0.5, "converges"),
                          0.0)
        assert (rep.lhs, rep.rhs, rep.abs_err) == ("1.25", "1.0", 0.25)

    def test_exact_reports_verdict(self):
        ok = make_report("demo", "c", {}, Outcome(True, True, rule="exact"),
                         0.0)
        bad = make_report("demo", "c", {},
                          Outcome(False, True, rule="exact", notes="at x"),
                          0.0)
        assert (ok.lhs, ok.rhs, ok.abs_err) == ("equal", "equal", 0.0)
        assert (bad.lhs, bad.rhs, bad.notes) == ("unequal", "unequal", "at x")

    def test_raised_never_passes(self):
        rep = make_report("demo", "c", {},
                          Outcome("pole", "pole", rule="raised"), 0.0)
        assert not rep.passed and rep.lhs == "pole"
        assert math.isnan(rep.rel_err)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule"):
            Outcome(1.0, 1.0, rule="close")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "skew-sum" in out and "elliptic-aflt" in out

    def test_eval_selberg(self, capsys):
        assert main(["eval", "selberg", "--k", "2", "--alpha", "1",
                     "--beta", "1", "--gamma", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 1 / 6) < 1e-9

    def test_eval_elliptic_selberg(self, capsys):
        from selbergkit.closedform import elliptic_selberg_rhs
        ts = [0.4, 0.15, 0.4, 0.35, 0.4, 0.2]
        q = 0.45
        p = 0.4 * 0.15 * 0.4 * 0.35 * 0.4 * 0.2 / q
        assert main(["eval", "elliptic-selberg", "--ts",
                     ",".join(map(str, ts)), "--p", repr(p), "--q", "0.45",
                     "--t", "0.4"]) == 0
        out = capsys.readouterr().out.strip()
        ref = elliptic_selberg_rhs(1, ts, 0.4, p, q)
        assert abs(complex(out) - ref) < 1e-9 * abs(ref)

    def test_eval_elliptic_selberg_without_ts(self, capsys):
        assert main(["eval", "elliptic-selberg"]) == 2
        assert "--ts" in capsys.readouterr().err

    def test_eval_elliptic_selberg_wrong_count(self, capsys):
        assert main(["eval", "elliptic-selberg", "--ts", "0.4,0.15,0.4"]) == 2
        err = capsys.readouterr().err
        assert "--ts" in err and "got 3" in err

    @pytest.mark.parametrize("formula, flag, value", [
        ("elliptic-selberg", "--ts", "0.4,x,0.4,0.35,0.4,0.2"),
        ("selberg", "--k", "1,two"),
        ("selberg", "--alpha", "one"),
        ("aflt", "--lam", "2,a"),
        ("aflt", "--mu", "1.5"),
    ])
    def test_eval_non_numeric_value(self, capsys, formula, flag, value):
        assert main(["eval", formula, flag, value]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and flag in err and value in err

    def test_eval_elliptic_selberg_unbalanced(self, capsys):
        ts = "0.4,0.15,0.4,0.35,0.4,0.2"
        assert main(["eval", "elliptic-selberg", "--ts", ts]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "--ts" in err and "balancing" in err

    @pytest.mark.parametrize("formula, flags, named", [
        ("selberg", ["--k", ""], "--k"),
        ("aflt", ["--alpha", ""], "--alpha"),
        ("selberg", ["--k", "1,2"], "--k"),
        ("an-selberg", ["--k", "1,2", "--alpha", "1"], "--alpha"),
        ("an-aflt", ["--k", "", "--alpha", ""], "--k"),
        ("nplusone", ["--k", "1", "--alpha", "1,2"], "--alpha"),
        ("selberg", ["--k", "-1"], "--k"),
    ])
    def test_eval_list_flag_that_does_not_fit(self, capsys, formula, flags,
                                              named):
        assert main(["eval", formula] + flags) == 2
        out, err = capsys.readouterr()
        err = err.strip()
        assert out == "" and err and "\n" not in err and named in err

    def test_eval_chain_with_one_alpha_per_k(self, capsys):
        from selbergkit.closedform import an_selberg_rhs
        assert main(["eval", "an-selberg", "--k", "1,2", "--alpha",
                     "1,1"]) == 0
        out = capsys.readouterr().out.strip()
        ref = an_selberg_rhs(2, [1, 2], [1.0, 1.0], 1.0, 1.0)
        assert abs(complex(out) - ref) < 1e-9 * abs(ref)

    @pytest.mark.parametrize("formula, flags, says", [
        ("mac-aflt", ["--q", "1.0"], "|q| < 1"),            # ValueError
        ("an-aflt", ["--k", "1", "--alpha", "-1", "--lam", "2"],
         "vanishing"),                                       # PoleError
        ("ortho", ["--t", "1.0"], "division by zero"),
        ("ortho", ["--n", "-1"], "--n"),
        ("mac-aflt", ["--n", "-2"], "--n"),
        # a nome on or outside the unit circle, with balanced --ts
        ("elliptic-selberg", ["--n", "1", "--t", "0.5", "--p", "0.1",
                              "--q", "1.5", "--ts", "0.5,0.5,0.5,0.5,0.6,4"],
         "modulus 1.5"),
        ("elliptic-selberg", ["--n", "1", "--t", "0.5", "--p", "0.1",
                              "--q", "-1.2", "--ts",
                              "0.5,0.5,0.5,0.5,0.6,-3.2"], "modulus 1.2"),
        ("elliptic-selberg", ["--n", "1", "--t", "0.5", "--p", "1.5",
                              "--q", "0.1", "--ts", "0.5,0.5,0.5,0.5,0.6,4"],
         "modulus 1.5"),
        ("elliptic-selberg", ["--n", "1", "--t", "0.5", "--p", "0.1",
                              "--q", "1.0", "--ts", "0.5,0.5,0.5,0.5,0.4,4"],
         "modulus 1.0"),
    ])
    def test_eval_outside_the_domain(self, capsys, formula, flags, says):
        assert main(["eval", formula] + flags) == 2
        out, err = capsys.readouterr()
        err = err.strip()
        assert out == "" and "\n" not in err
        assert err.startswith(f"eval {formula}: ") and says in err

    @pytest.mark.parametrize("argv, named", [
        (["ortho", "--k", "9", "--alpha", "3"], "--k --alpha"),
        (["selberg", "--k", "2", "--lam", "3,1", "--q", "7", "--n", "4",
          "--ts", "1,2"], "--n --lam --q --ts"),
        (["mac-aflt", "--beta", "1.0"], "--beta"),
        (["elliptic-selberg", "--mu", ""], "--mu"),
    ])
    def test_eval_flag_the_formula_does_not_read(self, capsys, argv, named):
        assert main(["eval"] + argv) == 2
        out, err = capsys.readouterr()
        err = err.strip()
        assert out == "" and "\n" not in err
        assert err.startswith(f"eval {argv[0]}: {named}: not read by ")

    @pytest.mark.parametrize("flag, value", [
        ("--n", "2"), ("--k", "1,2"), ("--precision", "extended"),
        ("--rho", "0.5"), ("--theta", "0.1"), ("--radius", "1.0"),
        ("--epsilon0", "0.01"),
    ])
    def test_verify_removed_flag(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "jackson", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("suite, flag, value, cap", [
        ("skew-sum", "--max-size", "5", 4),
        ("eval-sym", "--max-size", "9", 4),
        ("cauchy", "--max-degree", "8", 7),
        ("an-cauchy", "--max-degree", "5", 4),
    ])
    def test_verify_size_above_cap(self, capsys, suite, flag, value, cap):
        assert main(["verify", suite, flag, value]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert flag in err and suite in err and f"cap of {cap}" in err

    @pytest.mark.parametrize("argv, code", [
        (["list"], 0), (["verify", "skew-sum", "--max-size", "5"], 2),
    ], ids=["list", "above-cap"])
    def test_python_dash_m(self, argv, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "selbergkit", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert "skew-sum" in done.stdout.split()
        else:
            assert done.stderr.strip() == ("verify skew-sum: --max-size 5 "
                                           "is above the skew-sum cap of 4")

    def test_verify_all_size_above_cap(self, capsys):
        assert main(["verify", "all", "--max-size", "5"]) == 2
        captured = capsys.readouterr()
        assert "--max-size 5" in captured.err and captured.out == ""

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nope"]) == 2

    def test_verify_report_and_exit(self, tmp_path, capsys):
        path = tmp_path / "rep.jsonl"
        rc = main(["verify", "jackson", "--report", str(path)])
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        reports = [VerificationReport.from_json(x) for x in lines]
        assert all(r.passed for r in reports)
        assert len(reports) >= 3

    def test_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (p1, p2):
            assert main(["verify", "connection", "--seed", "7",
                         "--report", str(p)]) == 0

        def strip_runtime(path):
            out = []
            for line in path.read_text().strip().split("\n"):
                d = json.loads(line)
                d.pop("runtime_ms")
                out.append(d)
            return out

        assert strip_runtime(p1) == strip_runtime(p2)

    def test_jobs_parallel_order(self, tmp_path):
        p1 = tmp_path / "serial.jsonl"
        p2 = tmp_path / "par.jsonl"
        assert main(["verify", "connection", "--report", str(p1)]) == 0
        assert main(["verify", "connection", "--jobs", "2",
                     "--report", str(p2)]) == 0
        ids1 = [json.loads(x)["case_id"]
                for x in p1.read_text().strip().split("\n")]
        ids2 = [json.loads(x)["case_id"]
                for x in p2.read_text().strip().split("\n")]
        assert ids1 == ids2

    def test_config_file(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"seed": 7, "quad_points": 24}))
        assert main(["verify", "jackson", "--config", str(cfgp)]) == 0

    @pytest.mark.parametrize("key", ["rho", "precision", "k"])
    def test_config_unknown_key(self, tmp_path, capsys, key):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"seed": 7, key: 1}))
        assert main(["verify", "jackson", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and repr(key) in err

    @pytest.mark.parametrize("flags, config, setting", [
        (["--max-size", "-1"], None, "--max-size"),
        (["--max-degree", "-1"], None, "--max-degree"),
        (["--quad-points", "0"], None, "--quad-points"),
        (["--jobs", "0"], None, "--jobs"),
        ([], [1, 2], "JSON object"),
        ([], {"max_size": "3"}, "'max_size'"),
        ([], {"tol": True}, "'tol'"),
        ([], {"seed": 1.5}, "'seed'"),
        ([], {"max_degree": -1}, "'max_degree'"),
        ([], {"quad_points": None}, "'quad_points'"),
    ])
    def test_verify_rejected_setting(self, tmp_path, capsys, flags, config,
                                     setting):
        if config is not None:
            cfgp = tmp_path / "cfg.json"
            cfgp.write_text(json.dumps(config))
            flags = flags + ["--config", str(cfgp)]
        assert main(["verify", "eval-sym"] + flags) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert "\n" not in err and setting in err and captured.out == ""

    @pytest.mark.parametrize("suite, rc", [("guess", 0), ("skew-limit", 1)])
    def test_tol_replaces_every_numeric_rule(self, capsys, suite, rc):
        # guess must miss by more than tol; skew-limit must come within it
        assert main(["verify", suite, "--tol", "1e-9"]) == rc
