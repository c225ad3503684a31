import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selbergkit import cli
from selbergkit.cli import main
from selbergkit.reports import (
    Outcome, VerificationReport, format_value, make_report,
)


class TestReports:
    def test_round_trip(self):
        rep = make_report("demo", "case-1", {"k": 2, "z": 0.5 + 0.25j},
                          Outcome(1.0 + 0j, 1.0 + 1e-12j, 1e-6, notes="n"),
                          12.5)
        back = VerificationReport(**json.loads(rep.to_json()))
        assert back == rep

    def test_line_is_the_asdict_form(self):
        # to_json dumps the fields without dataclasses.asdict's deep copy of
        # params: every suite's lines, passed, failed or raised, keep their
        # bytes
        from dataclasses import asdict

        from selbergkit.suites import SUITES
        outcomes = [Outcome(1.0 + 0j, 1.0 + 1e-12j, 1e-6, notes="n"),
                    Outcome(True, True, rule="exact"),
                    Outcome("pole", "pole", rule="raised", notes="pole: x")]
        checked = 0
        for name, (gen, _) in SUITES.items():
            for params in list(gen({"seed": 7}))[:3]:
                for out in outcomes:
                    rep = make_report(name, params["case_id"],
                                      {k: v for k, v in params.items()
                                       if k != "case_id"}, out, 12.5)
                    assert rep.to_json() == json.dumps(asdict(rep),
                                                       sort_keys=True)
                    checked += 1
        assert checked > 100

    def test_format_value_prints_no_negative_zero(self):
        assert format_value(complex(-0.0, -0.0)) == "0+0j"
        assert format_value(complex(-1.5, -0.0)) == "-1.5+0j"

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
        # v = 1.01 + s + s^2: decreasing deviations, extrapolated to 1.01
        (Outcome([(0.4, 1.57), (0.2, 1.25), (0.1, 1.12)], 1.0, 0.05,
                 "extrapolates"), True, 0.01),
        # the same, outside tol
        (Outcome([(0.4, 1.57), (0.2, 1.25), (0.1, 1.12)], 1.0, 1e-3,
                 "extrapolates"), False, 0.01),
        # extrapolated inside tol (to 1.03), but the deviations rise
        (Outcome([(0.2, 1.01), (0.1, 1.02)], 1.0, 0.5, "extrapolates"),
         False, 0.03),
        # equal deviations do not strictly decrease
        (Outcome([(0.2, 1.1), (0.1, 1.1)], 1.0, 0.5, "extrapolates"),
         False, 0.1),
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

    @pytest.mark.parametrize("alpha, printed", [("-1", "-1"),
                                                ("-2", "-0.5")])
    def test_eval_selberg_pairs_gamma_poles(self, capsys, alpha, printed):
        # k = 1, beta = gamma = 1 is B(alpha, 1) = 1/alpha, continued to
        # alpha = -1, -2: Gamma(alpha) over Gamma(alpha + 1) is a pole over
        # a pole, which gamma_ratio pairs with its sign
        assert main(["eval", "selberg", "--k", "1", "--alpha", alpha,
                     "--beta", "1", "--gamma", "1"]) == 0
        assert capsys.readouterr().out == printed + "\n"

    @pytest.mark.parametrize("real, imag, printed", [
        (-0.0, 0.0, "0"), (0.0, -0.0, "0"), (-0.0, -0.0, "0"),
        (-0.0, 2.5, "0+2.5j"), (-1.5, -0.0, "-1.5"),
    ])
    def test_eval_prints_no_negative_zero(self, capsys, monkeypatch, real,
                                          imag, printed):
        monkeypatch.setattr(cli, "_closed_form",
                            lambda *args: complex(real, imag))
        assert main(["eval", "selberg"]) == 0
        assert capsys.readouterr().out == printed + "\n"

    def test_eval_an_one_zero_has_no_sign(self, capsys):
        # the closed form's value is -0.0 + 0.0j here
        assert main(["eval", "an-one", "--k", "2", "--alpha", "1",
                     "--beta", "1"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_eval_elliptic_selberg(self, capsys):
        from selbergkit.elliptic import elliptic_selberg_rhs
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
        # an empty entry; a wholly empty value is the empty list
        ("aflt", "--lam", "2,,1"),
        ("selberg", "--k", "1,"),
        ("selberg", "--alpha", ",1"),
        ("an-selberg", "--k", "1,,2"),
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
        # a chain runs over 0 <= k_1 <= ... <= k_n
        ("an-selberg", ["--k", "2,1", "--alpha", "1,1"], "--k"),
        ("an-one", ["--k", "2,1", "--alpha", "1,1"], "--k"),
        ("an-aflt", ["--k", "2,1", "--alpha", "1,1", "--lam", "1"], "--k"),
        ("nplusone", ["--k", "2,1", "--alpha", "1,1"], "--k"),
    ])
    def test_eval_list_flag_that_does_not_fit(self, capsys, formula, flags,
                                              named):
        assert main(["eval", formula] + flags) == 2
        out, err = capsys.readouterr()
        err = err.strip()
        assert out == "" and err and "\n" not in err and named in err

    def test_eval_partition_padded_with_zeros(self, capsys):
        assert main(["eval", "aflt", "--k", "2", "--lam", "1,0,0"]) == 0
        assert main(["eval", "aflt", "--k", "2", "--lam", "1"]) == 0
        padded, plain = capsys.readouterr().out.split()
        assert padded == plain == "0.166666666667"

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
        # a partition's entries must be weakly decreasing as typed: a zero
        # inside it is not dropped to make (2,1) or (1)
        ("aflt", ["--k", "2", "--lam", "2,0,1"],
         "--lam '2,0,1': not weakly decreasing"),
        ("aflt", ["--k", "2", "--lam", "0,1"],
         "--lam '0,1': not weakly decreasing"),
        ("aflt", ["--lam", "1,2"], "--lam '1,2': not weakly decreasing"),
        ("aflt", ["--lam", "2,-1"], "--lam '2,-1': negative part"),
        ("aflt", ["--mu", "1,-1"], "--mu '1,-1': negative part"),
    ])
    def test_eval_outside_the_domain(self, capsys, formula, flags, says):
        assert main(["eval", formula] + flags) == 2
        out, err = capsys.readouterr()
        err = err.strip()
        assert out == "" and "\n" not in err
        assert err.startswith(f"eval {formula}: ") and says in err

    @pytest.mark.parametrize("formula, flags, named", [
        ("selberg", ["--alpha", "inf"], "--alpha"),
        ("selberg", ["--gamma", "nan"], "--gamma"),
        ("selberg", ["--beta=-inf"], "--beta"),
        ("mac-aflt", ["--a", "nan"], "--a"),
        ("an-selberg", ["--k", "1,1", "--alpha", "1,nan"], "--alpha"),
        ("elliptic-selberg", ["--ts", "0.4,inf,0.4,0.35,0.4,0.2"], "--ts"),
        ("elliptic-selberg", ["--p", "nan"], "--p"),
        # finite flags, a value that overflows
        ("selberg", ["--alpha", "1e308", "--beta", "1e308"], "not finite"),
    ])
    def test_eval_not_finite(self, capsys, formula, flags, named):
        assert main(["eval", formula] + flags) == 2
        out, err = capsys.readouterr()
        err = err.strip()
        assert out == "" and "\n" not in err
        assert err.startswith(f"eval {formula}: ") and named in err

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
        ("--epsilon0", "0.01"), ("--config", "cfg.json"),
    ])
    def test_verify_removed_flag(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "jackson", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("suite, flag, value, cap", [
        ("skew-sum", "--max-size", "7", 6),
        ("eval-sym", "--max-size", "9", 6),
        ("cauchy", "--max-degree", "11", 10),
        ("an-cauchy", "--max-degree", "9", 8),
    ], ids=[
        # Case names fixed from when the exact caps were lower, so each
        # case keeps its name as the caps move.
        "skew-sum---max-size-6-5", "eval-sym---max-size-9-5",
        "cauchy---max-degree-9-8", "an-cauchy---max-degree-5-4",
    ])
    def test_verify_size_above_cap(self, capsys, suite, flag, value, cap):
        assert main(["verify", suite, flag, value]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert flag in err and suite in err and f"cap of {cap}" in err

    @pytest.mark.parametrize("argv, code", [
        (["list"], 0), (["verify", "skew-sum", "--max-size", "7"], 2),
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
            assert done.stderr.strip() == ("verify skew-sum: --max-size 7 "
                                           "is above the skew-sum cap of 6")

    def test_verify_all_size_above_cap(self, capsys):
        assert main(["verify", "all", "--max-size", "7"]) == 2
        captured = capsys.readouterr()
        assert "--max-size 7" in captured.err and captured.out == ""

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nope"]) == 2

    def test_verify_report_and_exit(self, tmp_path, capsys):
        path = tmp_path / "rep.jsonl"
        rc = main(["verify", "jackson", "--report", str(path)])
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        reports = [VerificationReport(**json.loads(x)) for x in lines]
        assert all(r.passed for r in reports)
        assert len(reports) >= 3

    def test_report_path_that_cannot_be_opened(self, tmp_path, capsys,
                                               monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_case", lambda *task: ran.append(task))
        path = tmp_path / "no-such-dir" / "r.jsonl"
        assert main(["verify", "skew-limit", "--report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"verify skew-limit: --report {path}: "
                                "No such file or directory\n")
        assert captured.out == "" and ran == []

    def test_report_file_is_closed_when_a_case_raises(self, tmp_path,
                                                      monkeypatch):
        # a benchmark worker stops a run by raising from inside _run_one
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def stop(task):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        monkeypatch.setattr(cli, "_run_one", stop)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "skew-limit", "--report",
                  str(tmp_path / "r.jsonl")])
        assert len(opened) == 1 and opened[0].closed

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

    def test_verify_without_seed_draws_from_seed_seven(self, tmp_path):
        # beta-schur once drew from seed 11 when no seed was given
        p1, p2 = tmp_path / "default.jsonl", tmp_path / "seven.jsonl"
        assert main(["verify", "beta-schur", "--report", str(p1)]) == 0
        assert main(["verify", "beta-schur", "--seed", "7",
                     "--report", str(p2)]) == 0
        lines = []
        for p in (p1, p2):
            reps = [json.loads(x) for x in p.read_text().splitlines()]
            for d in reps:
                d.pop("runtime_ms")
            lines.append(reps)
        assert lines[0] and lines[0] == lines[1]

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

    @pytest.mark.parametrize("flags, setting", [
        (["--max-size", "-1"], "--max-size"),
        (["--max-degree", "-1"], "--max-degree"),
        (["--quad-points", "0"], "--quad-points"),
        (["--jobs", "0"], "--jobs"),
        (["--tol", "nan"], "--tol"),
        (["--tol", "inf"], "--tol"),
        (["--tol=-1"], "--tol"),
        (["--tol=-inf"], "--tol"),
        (["--tol=-1e-9"], "--tol"),
    ])
    def test_verify_rejected_setting(self, capsys, flags, setting):
        assert main(["verify", "eval-sym"] + flags) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert "\n" not in err and setting in err and captured.out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "1.5"), ("--max-size", "3.0"), ("--max-degree", "two"),
        ("--quad-points", ""), ("--jobs", "1.5"), ("--tol", "true"),
    ])
    def test_verify_setting_of_wrong_type(self, capsys, flag, value):
        # argparse's int/float types reject these before any check of ours
        with pytest.raises(SystemExit) as exc:
            main(["verify", "eval-sym", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    @pytest.mark.parametrize("suite, rc", [("guess", 0), ("skew-limit", 1)])
    def test_tol_replaces_every_numeric_rule(self, capsys, suite, rc):
        # guess must miss by more than tol; skew-limit must come within it
        assert main(["verify", suite, "--tol", "1e-9"]) == rc

    def test_exact_suite_does_not_import_numpy(self):
        # the exact engine and coeffs import numpy only on numeric routes
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        script = ("import sys\n"
                  "from selbergkit.cli import main\n"
                  "assert main(['verify', 'cauchy', '--max-degree', '2']) == 0\n"
                  "assert 'numpy' not in sys.modules\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_serial_run_does_not_import_the_process_pool(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        script = ("import sys\n"
                  "from selbergkit import cli\n"
                  "assert 'concurrent.futures' not in sys.modules\n"
                  "assert cli.main(['verify', 'cauchy', '--max-degree', '2',"
                  " '--jobs', '1']) == 0\n"
                  "assert 'concurrent.futures' not in sys.modules\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_jobs_two_in_a_fresh_process(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "selbergkit", "verify",
                               "connection", "--jobs", "2"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        last = done.stdout.strip().split("\n")[-1]
        passed, total = last.split()[0].split("/")
        assert passed == total and int(total) > 0
