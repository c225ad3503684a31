import json
import subprocess
import sys

import pytest

from selbergkit.cli import main
from selbergkit.reports import VerificationReport, make_report


class TestReports:
    def test_round_trip(self):
        rep = make_report("demo", "case-1", {"k": 2, "z": 0.5 + 0.25j},
                          1.0 + 0j, 1.0 + 1e-12j, 1e-6, 12.5, notes="n")
        back = VerificationReport.from_json(rep.to_json())
        assert back == rep

    def test_pass_semantics(self):
        rep = make_report("demo", "c", {}, 1.0, 1.001, 1e-6, 0.0)
        assert not rep.passed
        rep = make_report("demo", "c", {}, 1.0, 1.0 + 1e-9, 1e-6, 0.0)
        assert rep.passed

    def test_near_zero_uses_abs(self):
        rep = make_report("demo", "c", {}, 1e-12, 0.0, 1e-6, 0.0)
        assert rep.passed


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

    def test_verify_non_numeric_k(self, capsys):
        assert main(["verify", "jackson", "--k", "1,x"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "--k" in err and "1,x" in err

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
